//! Per-operation cost constants and host calibration.
//!
//! The executor does its work for real (it actually scans, hashes and
//! aggregates), but energy is attributed analytically. The bridge between
//! the two worlds is a table of *cycles-per-item* constants for each
//! kernel class. Defaults are taken from the main-memory query processing
//! literature contemporary with the paper (Ross TODS'04 for selection
//! kernels; Tsirogiannis et al. SIGMOD'10 for scan/aggregate energy
//! shape); [`calibrate_host`] measures the factor that would rescale them
//! to the actual host, so that real measured runtimes and model times
//! can be compared.

use crate::units::Cycles;
use std::time::Instant;

/// Kernel classes whose per-item CPU cost the model tracks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kernel {
    /// Branching (if-based) selection; cost is selectivity-dependent at
    /// run time, this constant is the well-predicted baseline.
    SelectBranching,
    /// Branch-free (predicated) selection.
    SelectPredicated,
    /// Bitwise 64-lane selection (SIMD stand-in).
    SelectBitwise,
    /// Per-item aggregation update (sum/min/max).
    AggUpdate,
    /// Hash-table build insert.
    HashBuild,
    /// Hash-table probe.
    HashProbe,
    /// Sort, per item per merge level.
    SortPerLevel,
    /// Lightweight compression encode, per item.
    CompressEncode,
    /// Lightweight compression decode, per item.
    CompressDecode,
    /// Index (tree/hash) point lookup, per lookup.
    IndexLookup,
    /// Tuple materialization / copy, per item.
    Materialize,
}

/// A table of cycles-per-item constants for every [`Kernel`].
///
/// ```
/// use haec_energy::calibrate::{Kernel, KernelCosts};
/// let costs = KernelCosts::default_2013();
/// assert!(costs.cycles_for(Kernel::SelectBitwise, 1000).count()
///     < costs.cycles_for(Kernel::SelectPredicated, 1000).count());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct KernelCosts {
    select_branching: f64,
    select_predicated: f64,
    select_bitwise: f64,
    agg_update: f64,
    hash_build: f64,
    hash_probe: f64,
    sort_per_level: f64,
    compress_encode: f64,
    compress_decode: f64,
    index_lookup: f64,
    materialize: f64,
    /// Extra cycles charged per *mispredicted branch* in branching
    /// selection (≈ pipeline depth of the era's cores).
    pub branch_miss_penalty: f64,
}

impl KernelCosts {
    /// Literature-derived defaults for a 2013 out-of-order core.
    pub fn default_2013() -> Self {
        KernelCosts {
            select_branching: 3.0,
            select_predicated: 5.0,
            select_bitwise: 1.2,
            agg_update: 4.0,
            hash_build: 45.0,
            hash_probe: 35.0,
            sort_per_level: 12.0,
            compress_encode: 6.0,
            compress_decode: 3.0,
            index_lookup: 120.0,
            materialize: 8.0,
            branch_miss_penalty: 15.0,
        }
    }

    /// Raw (possibly fractional) cycles per item for `kernel`.
    pub fn raw(&self, kernel: Kernel) -> f64 {
        match kernel {
            Kernel::SelectBranching => self.select_branching,
            Kernel::SelectPredicated => self.select_predicated,
            Kernel::SelectBitwise => self.select_bitwise,
            Kernel::AggUpdate => self.agg_update,
            Kernel::HashBuild => self.hash_build,
            Kernel::HashProbe => self.hash_probe,
            Kernel::SortPerLevel => self.sort_per_level,
            Kernel::CompressEncode => self.compress_encode,
            Kernel::CompressDecode => self.compress_decode,
            Kernel::IndexLookup => self.index_lookup,
            Kernel::Materialize => self.materialize,
        }
    }

    /// Total cycles for `items` items of `kernel` (fractional constants
    /// accumulate before rounding, so large counts stay accurate).
    pub fn cycles_for(&self, kernel: Kernel, items: u64) -> Cycles {
        Cycles::new((self.raw(kernel) * items as f64).round() as u64)
    }

    /// Cycles for a branching selection of `items` items at observed
    /// selectivity `sel` ∈ [0, 1]: the branch-miss rate of an
    /// unpredictable predicate peaks at `sel = 0.5` (Ross, TODS'04).
    ///
    /// # Panics
    ///
    /// Panics if `sel` is outside `[0, 1]`.
    pub fn branching_cycles(&self, items: u64, sel: f64) -> Cycles {
        assert!((0.0..=1.0).contains(&sel), "selectivity must be in [0,1]");
        let miss_rate = 2.0 * sel * (1.0 - sel); // 0 at σ∈{0,1}, 0.5 at σ=0.5
        let per_item = self.raw(Kernel::SelectBranching) + miss_rate * self.branch_miss_penalty;
        Cycles::new((per_item * items as f64).round() as u64)
    }
}

impl Default for KernelCosts {
    fn default() -> Self {
        KernelCosts::default_2013()
    }
}

/// Result of measuring the host with [`calibrate_host`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostCalibration {
    /// Measured simple-ALU throughput in operations per second per core.
    pub ops_per_sec: f64,
    /// Suggested multiplier for the [`KernelCosts`] constants so model
    /// times computed at `reference_ghz` match host wall-clock.
    pub cost_scale: f64,
    /// The reference frequency the scale was computed against (GHz).
    pub reference_ghz: f64,
}

/// Measures the host's arithmetic throughput with a dependent-add spin
/// loop and derives a [`KernelCosts`] scale factor.
///
/// The loop has a serial dependency chain, so it retires ~1 add/cycle on
/// any out-of-order core — making `ops_per_sec` an effective-frequency
/// probe without reading performance counters (which containers often
/// forbid).
pub fn calibrate_host(reference_ghz: f64) -> HostCalibration {
    // ~50M dependent adds: long enough to be timer-noise free, short
    // enough for test suites.
    const ITERS: u64 = 50_000_000;
    let start = Instant::now();
    let mut acc: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..ITERS {
        acc = acc.wrapping_add(i ^ (acc >> 7));
    }
    let dt = start.elapsed().as_secs_f64();
    std::hint::black_box(acc);
    let ops_per_sec = ITERS as f64 / dt.max(1e-9);
    let host_ghz = ops_per_sec / 1e9;
    HostCalibration { ops_per_sec, cost_scale: (reference_ghz / host_ghz).clamp(0.05, 20.0), reference_ghz }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_ordered_sensibly() {
        let c = KernelCosts::default_2013();
        // SIMD-ish < branching (well-predicted) < predicated.
        assert!(c.raw(Kernel::SelectBitwise) < c.raw(Kernel::SelectBranching));
        assert!(c.raw(Kernel::SelectBranching) < c.raw(Kernel::SelectPredicated));
        // A point lookup costs far more than touching one scan item but
        // far less than scanning millions — that asymmetry is E1.
        assert!(c.raw(Kernel::IndexLookup) > 20.0 * c.raw(Kernel::SelectBitwise));
    }

    #[test]
    fn cycles_for_accumulates_fractions() {
        let c = KernelCosts::default_2013();
        // 1.2 cycles/item * 10 items = 12, not ceil(1.2)*10 = 20.
        assert_eq!(c.cycles_for(Kernel::SelectBitwise, 10), Cycles::new(12));
    }

    #[test]
    fn branching_peaks_at_half_selectivity() {
        let c = KernelCosts::default_2013();
        let lo = c.branching_cycles(1000, 0.01).count();
        let mid = c.branching_cycles(1000, 0.5).count();
        let hi = c.branching_cycles(1000, 0.99).count();
        assert!(mid > lo, "mid={mid} lo={lo}");
        assert!(mid > hi, "mid={mid} hi={hi}");
        // Symmetric around 0.5.
        let a = c.branching_cycles(1000, 0.3).count();
        let b = c.branching_cycles(1000, 0.7).count();
        assert_eq!(a, b);
    }

    #[test]
    fn branching_crossover_with_predicated_exists() {
        // At σ=0.5 branching must be *more* expensive than predicated,
        // at σ≈0 cheaper — the adaptivity experiment (E5) depends on it.
        let c = KernelCosts::default_2013();
        let items = 1_000_000;
        let pred = c.cycles_for(Kernel::SelectPredicated, items).count();
        assert!(c.branching_cycles(items, 0.5).count() > pred);
        assert!(c.branching_cycles(items, 0.001).count() < pred);
    }

    #[test]
    #[should_panic(expected = "selectivity")]
    fn branching_rejects_bad_selectivity() {
        let c = KernelCosts::default_2013();
        let _ = c.branching_cycles(10, 1.5);
    }

    #[test]
    fn host_calibration_runs() {
        let cal = calibrate_host(2.9);
        assert!(cal.ops_per_sec > 1e7, "host slower than 10 MHz?!");
        assert!(cal.cost_scale > 0.0);
        assert_eq!(cal.reference_ghz, 2.9);
    }
}
