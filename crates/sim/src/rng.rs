//! Seeded randomness for workload generation.
//!
//! All stochastic inputs of the reproduction (key skew, value
//! distributions, fault draws) flow through [`SimRng`] so that a single
//! seed pins down an entire experiment.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// A deterministic random source with the distributions the workloads
/// need (uniform, Zipf, Bernoulli).
///
/// ```
/// use haec_sim::rng::SimRng;
/// let mut a = SimRng::seed(42);
/// let mut b = SimRng::seed(42);
/// assert_eq!(a.uniform_u64(1000), b.uniform_u64(1000));
/// ```
pub struct SimRng {
    rng: StdRng,
    seed: u64,
    /// Memoized Zipf constants for the last `(n, theta)` pair.
    zipf_cache: Option<ZipfConsts>,
}

#[derive(Clone, Copy)]
struct ZipfConsts {
    n: u64,
    theta: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        SimRng { rng: StdRng::seed_from_u64(seed), seed, zipf_cache: None }
    }

    /// Derives an independent child generator; used to give each
    /// simulated node / thread its own stream while staying reproducible.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let s = self.rng.gen::<u64>() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed(s)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn uniform_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        self.rng.gen_range(0..bound)
    }

    /// Uniform float in `[0, 1)`.
    fn uniform_f64(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Bernoulli trial with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn flip(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        self.rng.gen::<f64>() < p
    }

    /// A value in `[0, n)` drawn from a Zipf distribution with skew
    /// `theta` (0 = uniform, ~0.99 = classic YCSB hot-spot skew). Uses
    /// the rejection-inversion-free cumulative method with a cached
    /// normalization, adequate for the `n` values used in the
    /// experiments.
    pub fn zipf(&mut self, n: u64, theta: f64) -> u64 {
        assert!(n > 0, "n must be positive");
        assert!(theta >= 0.0, "theta must be non-negative");
        if theta == 0.0 {
            return self.uniform_u64(n);
        }
        // Gray et al. quick-and-accurate Zipf sampler, with the costly
        // zeta normalization memoized per (n, theta).
        let consts = match self.zipf_cache {
            Some(c) if c.n == n && c.theta == theta => c,
            _ => {
                let zetan = zeta(n, theta);
                let alpha = 1.0 / (1.0 - theta);
                let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2, theta) / zetan);
                let c = ZipfConsts { n, theta, zetan, alpha, eta };
                self.zipf_cache = Some(c);
                c
            }
        };
        let u = self.uniform_f64();
        let uz = u * consts.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(theta) {
            return 1;
        }
        ((n as f64) * (consts.eta * u - consts.eta + 1.0).powf(consts.alpha)) as u64 % n
    }

    /// Access the underlying `rand` generator for distributions not
    /// wrapped here.
    pub fn inner(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

fn zeta(n: u64, theta: f64) -> f64 {
    // Exact for small n; sampled harmonic approximation for large n keeps
    // workload generation O(1) per draw after the first.
    if n <= 10_000 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    } else {
        let head: f64 = (1..=10_000u64).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        // Integral approximation of the tail.
        let a = 10_000f64;
        let b = n as f64;
        head + (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta)
    }
}

impl fmt::Debug for SimRng {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimRng").field("seed", &self.seed).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.uniform_u64(1_000_000), b.uniform_u64(1_000_000));
        }
    }

    #[test]
    fn forks_are_independent_but_deterministic() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        let mut fa = a.fork(1);
        let mut fb = b.fork(1);
        assert_eq!(fa.uniform_u64(1000), fb.uniform_u64(1000));
        let mut fc = SimRng::seed(7).fork(2);
        // Different salt gives a different stream (overwhelmingly likely).
        let same = (0..20).all(|_| fa.uniform_u64(1000) == fc.uniform_u64(1000));
        assert!(!same);
    }

    #[test]
    fn zipf_skew_concentrates_mass() {
        let mut r = SimRng::seed(11);
        let n = 10_000u64;
        let draws = 50_000;
        let mut hot_uniform = 0;
        let mut hot_skewed = 0;
        for _ in 0..draws {
            if r.zipf(n, 0.0) < n / 100 {
                hot_uniform += 1;
            }
            if r.zipf(n, 0.99) < n / 100 {
                hot_skewed += 1;
            }
        }
        // Top 1% of keys: ~1% of uniform draws but a large share of
        // skewed draws.
        assert!(hot_uniform < draws / 50, "uniform hot {hot_uniform}");
        assert!(hot_skewed > draws / 4, "skewed hot {hot_skewed}");
    }

    #[test]
    fn zipf_in_range() {
        let mut r = SimRng::seed(3);
        for _ in 0..10_000 {
            assert!(r.zipf(100, 0.99) < 100);
        }
    }

    #[test]
    fn flip_extremes() {
        let mut r = SimRng::seed(4);
        assert!(!r.flip(0.0));
        assert!(r.flip(1.0));
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn uniform_zero_bound_panics() {
        SimRng::seed(1).uniform_u64(0);
    }

    #[test]
    fn debug_shows_seed() {
        assert!(format!("{:?}", SimRng::seed(99)).contains("99"));
    }
}
