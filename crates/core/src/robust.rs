//! Robustness: compensating failures instead of aborting whole queries
//! (paper §IV).
//!
//! *"while short read requests can be easily repeated, intermediate
//! results of long-running analytical queries … have to be preserved and
//! transparently used for a restart."* This module simulates a staged
//! query pipeline under failure injection and compares the classical
//! abort-and-restart discipline against stage-level checkpointing —
//! experiment E14 charts wasted work vs failure rate.

use haec_sim::rng::SimRng;
use std::fmt;

/// Recovery discipline for a failed stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RestartPolicy {
    /// Classical: any failure aborts the query; restart from stage 0.
    FullRestart,
    /// Hadoop-style: completed stages are checkpointed; only the failing
    /// stage repeats.
    Checkpoint,
}

impl fmt::Display for RestartPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestartPolicy::FullRestart => f.write_str("full-restart"),
            RestartPolicy::Checkpoint => f.write_str("checkpoint"),
        }
    }
}

/// Outcome of running one staged query to completion under failures.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RobustReport {
    /// Work units that contributed to the final answer.
    pub useful_units: u64,
    /// Work units executed in total (≥ useful).
    pub executed_units: u64,
    /// Failures injected.
    pub failures: u64,
    /// Checkpointing overhead units charged (checkpoint policy only).
    pub checkpoint_units: u64,
}

impl RobustReport {
    /// Executed-but-discarded work.
    pub fn wasted_units(&self) -> u64 {
        self.executed_units + self.checkpoint_units - self.useful_units
    }

    /// Fraction of all executed work that was wasted.
    pub fn waste_fraction(&self) -> f64 {
        let total = self.executed_units + self.checkpoint_units;
        if total == 0 {
            0.0
        } else {
            self.wasted_units() as f64 / total as f64
        }
    }
}

/// Fraction of a stage's work charged as checkpoint overhead.
const CHECKPOINT_OVERHEAD: f64 = 0.05;

/// Runs a staged pipeline (stage i = `stages[i]` work units) to
/// completion, injecting a failure after each executed unit with
/// probability `unit_failure_prob`, recovering per `policy`.
/// Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `unit_failure_prob` is not in `[0, 1)` (1.0 would never
/// terminate).
pub fn run_with_failures(
    stages: &[u64],
    unit_failure_prob: f64,
    policy: RestartPolicy,
    seed: u64,
) -> RobustReport {
    assert!((0.0..1.0).contains(&unit_failure_prob), "failure probability must be in [0,1)");
    let mut rng = SimRng::seed(seed);
    let mut report = RobustReport::default();
    let mut stage = 0usize;

    while stage < stages.len() {
        // Attempt the current stage from its start.
        let units = stages[stage];
        let mut done = 0u64;
        let mut failed = false;
        while done < units {
            report.executed_units += 1;
            done += 1;
            if unit_failure_prob > 0.0 && rng.flip(unit_failure_prob) {
                report.failures += 1;
                failed = true;
                break;
            }
        }
        if failed {
            match policy {
                RestartPolicy::FullRestart => {
                    stage = 0; // everything is discarded
                }
                RestartPolicy::Checkpoint => {
                    // retry the same stage; prior stages stay durable
                }
            }
            continue;
        }
        // Stage complete.
        if policy == RestartPolicy::Checkpoint {
            report.checkpoint_units += ((units as f64) * CHECKPOINT_OVERHEAD).ceil() as u64;
        }
        stage += 1;
    }
    // Exactly one copy of every stage's work ends up in the answer; all
    // earlier executions of the same units were waste.
    report.useful_units = stages.iter().sum();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAGES: [u64; 4] = [200, 400, 300, 100];

    #[test]
    fn no_failures_no_waste_for_full_restart() {
        let r = run_with_failures(&STAGES, 0.0, RestartPolicy::FullRestart, 1);
        assert_eq!(r.failures, 0);
        assert_eq!(r.useful_units, 1000);
        assert_eq!(r.executed_units, 1000);
        assert_eq!(r.wasted_units(), 0);
    }

    #[test]
    fn checkpoint_overhead_without_failures() {
        let r = run_with_failures(&STAGES, 0.0, RestartPolicy::Checkpoint, 1);
        assert_eq!(r.useful_units, 1000);
        // 5% overhead, per-stage ceil.
        assert_eq!(r.checkpoint_units, 10 + 20 + 15 + 5);
        assert!(r.waste_fraction() < 0.05);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = run_with_failures(&STAGES, 0.001, RestartPolicy::FullRestart, 7);
        let b = run_with_failures(&STAGES, 0.001, RestartPolicy::FullRestart, 7);
        assert_eq!(a, b);
        let c = run_with_failures(&STAGES, 0.001, RestartPolicy::FullRestart, 8);
        // Different seed very likely differs in executed units.
        assert!(a != c || a.failures == c.failures);
    }

    #[test]
    fn checkpoint_wastes_less_under_failures() {
        // Aggregate over seeds: any single stream can dodge failures
        // entirely (P ≈ 0.998^1000 ≈ 13%), which would make the
        // comparison degenerate.
        let p = 0.002;
        let (mut full_waste, mut ckpt_waste) = (0u64, 0u64);
        for seed in 0..16 {
            let full = run_with_failures(&STAGES, p, RestartPolicy::FullRestart, seed);
            let ckpt = run_with_failures(&STAGES, p, RestartPolicy::Checkpoint, seed);
            assert_eq!(full.useful_units, 1000);
            assert_eq!(ckpt.useful_units, 1000);
            full_waste += full.wasted_units();
            ckpt_waste += ckpt.wasted_units();
        }
        assert!(ckpt_waste < full_waste, "checkpoint {ckpt_waste} vs full {full_waste}");
    }

    #[test]
    fn waste_grows_with_failure_rate() {
        let mut last = -1.0;
        for p in [0.0, 0.001, 0.004] {
            let r = run_with_failures(&STAGES, p, RestartPolicy::FullRestart, 99);
            let w = r.waste_fraction();
            assert!(w >= last, "waste fell from {last} to {w} at p={p}");
            last = w;
        }
    }

    #[test]
    fn long_queries_hurt_full_restart_more() {
        // Same total work, one long stage vs many short ones: with full
        // restart the long pipeline wastes at least as much work.
        let p = 0.001;
        let long = run_with_failures(&[4000], p, RestartPolicy::FullRestart, 5);
        let short = run_with_failures(&[500; 8], p, RestartPolicy::Checkpoint, 5);
        assert!(long.wasted_units() >= short.wasted_units());
    }

    #[test]
    fn empty_pipeline() {
        let r = run_with_failures(&[], 0.5, RestartPolicy::Checkpoint, 1);
        assert_eq!(r.executed_units, 0);
        assert_eq!(r.waste_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "failure probability")]
    fn bad_probability_panics() {
        run_with_failures(&[1], 1.0, RestartPolicy::FullRestart, 1);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", RestartPolicy::Checkpoint), "checkpoint");
    }
}
