//! DVFS governors: the policies that pick a P-state (and core budget)
//! for the work at hand.
//!
//! The paper's Fig. 2 story is that the runtime must "flexibly balance
//! query response time minimization and throughput maximization under a
//! given energy constraint". These governors are the concrete policies
//! the experiments compare:
//!
//! * [`GovernorPolicy::RaceToIdle`] — always run flat out, park
//!   everything when done (classic latency-first).
//! * [`GovernorPolicy::PaceToDeadline`] — run just fast enough to meet a
//!   response-time target (classic energy-first under deadline).
//! * [`GovernorPolicy::OnDemand`] — utilization-driven stepping, the OS
//!   default of the era.
//! * [`GovernorPolicy::EnergyCap`] — the paper's case: never exceed a
//!   power budget; throughput and latency degrade gracefully.

use haec_energy::pstate::{CState, PStateId, PStateTable};
use haec_energy::units::{Hertz, Watts};
use std::fmt;
use std::time::Duration;

/// The governor policies the query server runs under; experiments E2
/// and E11 compare them on the real server.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GovernorPolicy {
    /// Fastest P-state always.
    RaceToIdle,
    /// Slowest P-state that finishes the queued work within the target.
    PaceToDeadline(
        /// Per-query response-time target.
        Duration,
    ),
    /// Step up when the queue builds, down when idle.
    OnDemand,
    /// Fastest P-state whose all-busy power stays under the cap.
    EnergyCap(
        /// The node power budget.
        Watts,
    ),
}

impl fmt::Display for GovernorPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GovernorPolicy::RaceToIdle => f.write_str("race-to-idle"),
            GovernorPolicy::PaceToDeadline(d) => write!(f, "pace({} ms)", d.as_millis()),
            GovernorPolicy::OnDemand => f.write_str("ondemand"),
            GovernorPolicy::EnergyCap(w) => write!(f, "cap({:.0} W)", w.watts()),
        }
    }
}

/// What the governor sees when making a decision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GovernorInput {
    /// Queries waiting (not yet running).
    pub queued: usize,
    /// Cores currently busy.
    pub busy_cores: usize,
    /// Total usable cores.
    pub total_cores: usize,
    /// Work remaining in the queue head (cycles), if known.
    pub head_work_cycles: u64,
    /// The P-state currently in effect.
    pub current: PStateId,
}

/// The governor's decision: which P-state to run and how many cores may
/// be concurrently busy (the cap matters only for `EnergyCap`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GovernorDecision {
    /// P-state to use for dispatches.
    pub pstate: PStateId,
    /// Maximum cores allowed busy simultaneously.
    pub core_cap: usize,
    /// Sleep state for idle cores.
    pub idle_cstate: CState,
}

/// Computes the decision for `policy` under `input` on `table`.
pub fn decide(policy: GovernorPolicy, table: &PStateTable, input: GovernorInput) -> GovernorDecision {
    let full = GovernorDecision {
        pstate: table.fastest(),
        core_cap: input.total_cores,
        idle_cstate: CState::Parked,
    };
    match policy {
        GovernorPolicy::RaceToIdle => full,
        GovernorPolicy::PaceToDeadline(target) => {
            // Frequency needed so the head query finishes within the
            // target on one core.
            let needed_hz = input.head_work_cycles as f64 / target.as_secs_f64().max(1e-9);
            GovernorDecision {
                pstate: table.slowest_at_least(Hertz::new(needed_hz)),
                core_cap: input.total_cores,
                idle_cstate: CState::Parked,
            }
        }
        GovernorPolicy::OnDemand => {
            let cur = input.current.0;
            let pstate = if input.queued > input.busy_cores {
                PStateId((cur + 1).min(table.fastest().0))
            } else if input.queued == 0 && input.busy_cores <= input.total_cores / 2 {
                PStateId(cur.saturating_sub(1))
            } else {
                input.current
            };
            GovernorDecision { pstate, core_cap: input.total_cores, idle_cstate: CState::Halt }
        }
        GovernorPolicy::EnergyCap(cap) => {
            // Find the best (pstate, cores) point: prefer more cores at
            // lower frequency (better throughput/watt thanks to V²
            // scaling), then raise frequency if headroom remains.
            let mut best: Option<(PStateId, usize)> = None;
            for (id, _) in table.iter() {
                let per_core = table.core_power(id, CState::Active).watts();
                if per_core <= 0.0 {
                    continue;
                }
                let max_cores = ((cap.watts() / per_core).floor() as usize).min(input.total_cores);
                if max_cores == 0 {
                    continue;
                }
                // Score: total cycles/s = cores * freq.
                let score = max_cores as f64 * table.state(id).frequency().hertz();
                let better = match best {
                    None => true,
                    Some((bid, bcores)) => {
                        let bscore = bcores as f64 * table.state(bid).frequency().hertz();
                        score > bscore
                    }
                };
                if better {
                    best = Some((id, max_cores));
                }
            }
            match best {
                Some((pstate, cores)) => {
                    GovernorDecision { pstate, core_cap: cores, idle_cstate: CState::Parked }
                }
                // Cap below even one slowest core: run one core slowest
                // (the budget is a soft constraint; we degrade, not halt).
                None => {
                    GovernorDecision { pstate: table.slowest(), core_cap: 1, idle_cstate: CState::Parked }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PStateTable {
        PStateTable::xeon_2013()
    }

    fn input(queued: usize, busy: usize) -> GovernorInput {
        GovernorInput {
            queued,
            busy_cores: busy,
            total_cores: 8,
            head_work_cycles: 1_000_000_000,
            current: PStateId(2),
        }
    }

    #[test]
    fn race_to_idle_always_fastest() {
        let t = table();
        let d = decide(GovernorPolicy::RaceToIdle, &t, input(0, 0));
        assert_eq!(d.pstate, t.fastest());
        assert_eq!(d.core_cap, 8);
        assert_eq!(d.idle_cstate, CState::Parked);
    }

    #[test]
    fn pace_picks_minimum_sufficient_frequency() {
        let t = table();
        // 1e9 cycles in 1 s → 1 GHz suffices → slowest (1.2 GHz) state.
        let d = decide(GovernorPolicy::PaceToDeadline(Duration::from_secs(1)), &t, input(1, 0));
        assert_eq!(d.pstate, t.slowest());
        // 1e9 cycles in 100 ms → 10 GHz: unattainable → fastest.
        let d = decide(GovernorPolicy::PaceToDeadline(Duration::from_millis(100)), &t, input(1, 0));
        assert_eq!(d.pstate, t.fastest());
        // 1e9 cycles in 500 ms → 2 GHz → exactly the 2.0 GHz state.
        let d = decide(GovernorPolicy::PaceToDeadline(Duration::from_millis(500)), &t, input(1, 0));
        assert_eq!(t.state(d.pstate).frequency().ghz(), 2.0);
    }

    #[test]
    fn ondemand_steps_with_load() {
        let t = table();
        let up = decide(GovernorPolicy::OnDemand, &t, input(9, 8));
        assert_eq!(up.pstate, PStateId(3), "stepped up from P2");
        let down = decide(GovernorPolicy::OnDemand, &t, input(0, 2));
        assert_eq!(down.pstate, PStateId(1), "stepped down from P2");
        let hold = decide(GovernorPolicy::OnDemand, &t, input(1, 6));
        assert_eq!(hold.pstate, PStateId(2));
        // Saturates at the ends.
        let mut i = input(9, 8);
        i.current = t.fastest();
        assert_eq!(decide(GovernorPolicy::OnDemand, &t, i).pstate, t.fastest());
        let mut i = input(0, 0);
        i.current = t.slowest();
        assert_eq!(decide(GovernorPolicy::OnDemand, &t, i).pstate, t.slowest());
    }

    #[test]
    fn energy_cap_respects_budget() {
        let t = table();
        for cap_w in [10.0, 30.0, 60.0, 120.0] {
            let d = decide(GovernorPolicy::EnergyCap(Watts::new(cap_w)), &t, input(4, 0));
            let power = t.core_power(d.pstate, CState::Active).watts() * d.core_cap as f64;
            assert!(
                power <= cap_w + 1e-9 || d.core_cap == 1,
                "cap {cap_w} W exceeded: {power} W with {} cores",
                d.core_cap
            );
        }
    }

    #[test]
    fn energy_cap_throughput_monotone_in_budget() {
        let t = table();
        let mut last = 0.0;
        for cap_w in [8.0, 16.0, 32.0, 64.0, 128.0] {
            let d = decide(GovernorPolicy::EnergyCap(Watts::new(cap_w)), &t, input(4, 0));
            let score = d.core_cap as f64 * t.state(d.pstate).frequency().hertz();
            assert!(score >= last, "throughput dropped when budget rose at {cap_w} W");
            last = score;
        }
    }

    #[test]
    fn energy_cap_tiny_budget_degrades_gracefully() {
        let t = table();
        let d = decide(GovernorPolicy::EnergyCap(Watts::new(0.5)), &t, input(4, 0));
        assert_eq!(d.core_cap, 1);
        assert_eq!(d.pstate, t.slowest());
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", GovernorPolicy::RaceToIdle), "race-to-idle");
        assert!(format!("{}", GovernorPolicy::EnergyCap(Watts::new(80.0))).contains("80"));
        assert!(format!("{}", GovernorPolicy::PaceToDeadline(Duration::from_millis(5))).contains("5 ms"));
    }
}
