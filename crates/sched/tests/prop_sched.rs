//! Property-based tests: governor envelopes and elastic provisioning.

use haec_energy::machine::MachineSpec;
use haec_energy::pstate::{CState, PStateTable};
use haec_energy::units::Watts;
use haec_sched::elastic::{diurnal_trace, run_cluster_sim, Provisioning};
use haec_sched::governor::{decide, GovernorInput, GovernorPolicy};
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    /// The energy-cap governor never configures a core allocation whose
    /// all-busy power exceeds the cap (unless forced to the 1-core
    /// minimum), for arbitrary caps and queue states.
    #[test]
    fn energy_cap_always_within_budget(cap_w in 1.0f64..300.0, queued in 0usize..64, busy in 0usize..8) {
        let table = PStateTable::xeon_2013();
        let input = GovernorInput {
            queued,
            busy_cores: busy.min(8),
            total_cores: 8,
            head_work_cycles: 1_000_000,
            current: table.slowest(),
        };
        let d = decide(GovernorPolicy::EnergyCap(Watts::new(cap_w)), &table, input);
        let power = table.core_power(d.pstate, CState::Active).watts() * d.core_cap as f64;
        prop_assert!(power <= cap_w + 1e-9 || d.core_cap == 1, "{power} W over {cap_w} W cap");
        prop_assert!(d.core_cap >= 1 && d.core_cap <= 8);
    }

    /// A larger budget never yields a lower cycle-throughput
    /// configuration.
    #[test]
    fn energy_cap_monotone(cap_lo in 1.0f64..150.0, extra in 0.0f64..150.0) {
        let table = PStateTable::xeon_2013();
        let input = GovernorInput {
            queued: 16,
            busy_cores: 0,
            total_cores: 8,
            head_work_cycles: 1_000_000,
            current: table.slowest(),
        };
        let score = |cap: f64| {
            let d = decide(GovernorPolicy::EnergyCap(Watts::new(cap)), &table, input);
            d.core_cap as f64 * table.state(d.pstate).frequency().hertz()
        };
        prop_assert!(score(cap_lo + extra) >= score(cap_lo) - 1e-6);
    }

    /// Pace-to-deadline never configures more cycle throughput than
    /// race-to-idle, whatever the deadline, head work and queue state.
    #[test]
    fn pace_never_faster_than_race(
        deadline_ms in 1u64..10_000,
        head_work_cycles in 0u64..100_000_000_000,
        queued in 0usize..64,
        busy in 0usize..8,
    ) {
        let table = PStateTable::xeon_2013();
        let input = GovernorInput {
            queued,
            busy_cores: busy,
            total_cores: 8,
            head_work_cycles,
            current: table.slowest(),
        };
        let score = |policy| {
            let d = decide(policy, &table, input);
            d.core_cap as f64 * table.state(d.pstate).frequency().hertz()
        };
        let race = score(GovernorPolicy::RaceToIdle);
        let pace = score(GovernorPolicy::PaceToDeadline(Duration::from_millis(deadline_ms)));
        prop_assert!(pace <= race, "pace {} cycles/s > race {} cycles/s", pace, race);
    }

    /// Elastic provisioning: a wider node ceiling never increases SLA
    /// violations; energy scales with the ceiling only as far as load
    /// demands.
    #[test]
    fn elasticity_sane(peak in 100.0f64..1200.0, max_nodes in 2usize..12) {
        let machine = MachineSpec::commodity_2013();
        let trace = diurnal_trace(48, peak);
        let step = Duration::from_secs(900);
        let small = run_cluster_sim(
            &machine,
            Provisioning::Elastic { target_utilization: 0.8, min_nodes: 1, max_nodes, boot_steps: 1 },
            &trace,
            100.0,
            step,
        );
        let large = run_cluster_sim(
            &machine,
            Provisioning::Elastic { target_utilization: 0.8, min_nodes: 1, max_nodes: max_nodes + 4, boot_steps: 1 },
            &trace,
            100.0,
            step,
        );
        prop_assert!(large.sla_violations <= small.sla_violations);
        prop_assert!(small.avg_nodes <= max_nodes as f64 + 1e-9);
    }
}
