//! The experiment registry: one module per table/figure of the
//! reproduction; the `experiments` binary prints every report.

pub mod a01_ablations;
pub mod e01_scan_vs_index;
pub mod e02_energy_constraint;
pub mod e03_ship_compression;
pub mod e04_sync_scaling;
pub mod e05_adaptive_select;
pub mod e06_hybrid_placement;
pub mod e07_storage_tiers;
pub mod e08_planner_scale;
pub mod e09_need_to_know;
pub mod e10_concurrency;
pub mod e11_idle_power;
pub mod e12_elasticity;
pub mod e13_flexible_schema;
pub mod e14_robustness;
pub mod e15_reliability;
pub mod e16_compression;
pub mod e17_delta_merge;
pub mod e18_agg_pushdown;
pub mod e19_join_compressed;
pub mod e20_late_materialization;
pub mod e21_mvcc_snapshots;
pub mod e22_query_server;
pub mod e23_sort_layout;
pub mod e24_overload_degradation;
mod served;

use crate::report::Report;

/// An experiment entry point.
pub type Runner = fn() -> Report;

/// All experiments as `(id, runner)` pairs, in order.
pub fn all() -> Vec<(&'static str, Runner)> {
    vec![
        ("e01", e01_scan_vs_index::run as Runner),
        ("e02", e02_energy_constraint::run),
        ("e03", e03_ship_compression::run),
        ("e04", e04_sync_scaling::run),
        ("e05", e05_adaptive_select::run),
        ("e06", e06_hybrid_placement::run),
        ("e07", e07_storage_tiers::run),
        ("e08", e08_planner_scale::run),
        ("e09", e09_need_to_know::run),
        ("e10", e10_concurrency::run),
        ("e11", e11_idle_power::run),
        ("e12", e12_elasticity::run),
        ("e13", e13_flexible_schema::run),
        ("e14", e14_robustness::run),
        ("e15", e15_reliability::run),
        ("e16", e16_compression::run),
        ("e17", e17_delta_merge::run),
        ("e18", e18_agg_pushdown::run),
        ("e19", e19_join_compressed::run),
        ("e20", e20_late_materialization::run),
        ("e21", e21_mvcc_snapshots::run),
        ("e22", e22_query_server::run),
        ("e23", e23_sort_layout::run),
        ("e24", e24_overload_degradation::run),
        ("a01", a01_ablations::run),
    ]
}
