//! The Fig. 2 story at plan level: candidate plans on the (time, energy)
//! plane and constrained choice. Its server-level consequence — the
//! real query server under a sweeping power cap — is experiment E2:
//!
//! ```text
//! cargo run --release --example energy_aware_optimizer
//! cargo run -p haec-bench --release --bin experiments e02
//! ```

use haec_energy::machine::MachineSpec;
use haec_energy::units::Joules;
use haec_planner::cost::CostModel;
use haec_planner::optimizer::{choose, pareto_frontier, Goal};
use std::time::Duration;

fn main() {
    // --- plan-level: alternatives for one analytical query -------------
    let model = CostModel::new(MachineSpec::commodity_2013());
    let rows = 50_000_000u64;
    let candidates = vec![
        ("full scan", model.scan(rows, 8, 0.02)),
        ("index lookup", model.index_lookup(1_000_000, 8)),
        ("scan + agg", model.scan(rows, 8, 0.02) + model.aggregate(1_000_000, 64)),
        ("hash join path", model.hash_join(1_000_000, rows, 2_000_000)),
    ];
    let costs: Vec<_> = candidates.iter().map(|(_, c)| *c).collect();

    println!("candidate plans (time / energy):");
    for (name, c) in &candidates {
        println!("  {name:16} {c}");
    }
    let frontier = pareto_frontier(&costs);
    println!("\npareto-optimal: {:?}", frontier.iter().map(|&i| candidates[i].0).collect::<Vec<_>>());

    for goal in [
        Goal::MinTime,
        Goal::MinEnergy,
        Goal::MinTimeUnderEnergyBudget(Joules::new(1.0)),
        Goal::MinEnergyUnderDeadline(Duration::from_millis(50)),
    ] {
        match choose(&costs, goal) {
            Ok(i) => println!("  {goal} -> {}", candidates[i].0),
            Err(e) => println!("  {goal} -> {e}"),
        }
    }
    println!("\nthe same trade-off as a power cap on the real query server: experiment E2.");
}
