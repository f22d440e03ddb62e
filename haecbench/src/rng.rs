//! The benchmark's own PRNG (SplitMix64): every table row and every
//! operation literal is drawn from it, so `--seed` alone fixes the
//! inputs and the engine sees only generated records and queries.

/// SplitMix64 — tiny, full-period, and good enough to make columns the
/// encoders cannot compress by accident.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of a run: `stream` keeps the
    /// table data, the operation list and each reader independent, so
    /// lengthening one never shifts another.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` the benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}
