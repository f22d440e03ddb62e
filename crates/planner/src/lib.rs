//! # haec-planner
//!
//! Dual-objective (time, energy) query optimization — the compile-time
//! half of the `haecdb` reproduction of *Lehner, "Energy-Efficient
//! In-Memory Database Computing" (DATE 2013)*.
//!
//! * [`catalog`] — table/column statistics.
//! * [`cost`] — every alternative costed in time **and** energy.
//! * [`access`] — index-vs-scan selection (experiment E1, ref \[12\]).
//! * [`join_order`] — exhaustive DP vs greedy vs left-deep ordering at
//!   catalog scale (experiment E8).
//! * [`placement`] — CPU vs co-processor placement with init/work/finish
//!   phase splitting (experiment E6, refs \[9\]\[16\]).
//! * [`optimizer`] — Fig. 2's decision rule: fastest plan under an
//!   energy budget / cheapest plan under a deadline, plus Pareto
//!   frontiers.
//!
//! ## Example
//!
//! ```
//! use haec_planner::prelude::*;
//! use haec_energy::units::Joules;
//! use std::time::Duration;
//!
//! let plans = vec![
//!     PlanCost { time: Duration::from_millis(10), energy: Joules::new(50.0) },
//!     PlanCost { time: Duration::from_millis(80), energy: Joules::new(8.0) },
//! ];
//! // Unconstrained: take the fast plan. Under a 20 J cap: the frugal one.
//! assert_eq!(choose(&plans, Goal::MinTime).unwrap(), 0);
//! assert_eq!(choose(&plans, Goal::MinTimeUnderEnergyBudget(Joules::new(20.0))).unwrap(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod access;
pub mod catalog;
pub mod cost;
pub mod join_order;
pub mod optimizer;
pub mod placement;

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::access::{estimate_selectivity, AccessDecision, AccessPath};
    pub use crate::catalog::{ColumnMeta, TableMeta};
    pub use crate::cost::{CostModel, PlanCost};
    pub use crate::join_order::{
        plan_dp, plan_greedy, plan_left_deep, JoinGraph, PlanSummary, DP_MAX_RELATIONS,
    };
    pub use crate::optimizer::{choose, pareto_frontier, ChooseError, Goal};
    pub use crate::placement::{choose_placement, PhasedOperator, Placement, PlacementDecision};
}

pub use access::AccessPath;
pub use catalog::TableMeta;
pub use cost::{CostModel, PlanCost};
pub use join_order::JoinGraph;
pub use optimizer::{choose, Goal};
pub use placement::{choose_placement, Placement};
