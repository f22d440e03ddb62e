//! # haec-sched
//!
//! Energy-aware scheduling: DVFS governors, the energy-capped query
//! server, and cluster elasticity — the runtime
//! policies of the `haecdb` reproduction of *Lehner, "Energy-Efficient
//! In-Memory Database Computing" (DATE 2013)*.
//!
//! This crate regenerates the paper's Fig. 2 ("Impact of Energy
//! Constraint on Query Optimization") and the idle-power argument on
//! the real engine:
//!
//! * [`governor`] — race-to-idle / pace-to-deadline / ondemand /
//!   energy-cap P-state policies.
//! * [`qserver`] — the concurrent query server: admission control,
//!   per-query MVCC snapshots and governor-granted morsel parallelism
//!   over one shared `haecdb` database and worker pool (experiments E2,
//!   E11, E22 and E24).
//! * [`admission`] and [`backoff`] — the server's bounded priority queue
//!   and the client retry discipline that honours its hints.
//! * [`elastic`] — "elasticity in the large": diurnal load on a cluster,
//!   static vs elastic provisioning, energy proportionality
//!   (experiment E12).
//!
//! ## Example
//!
//! ```
//! use haec_energy::units::Watts;
//! use haec_sched::prelude::*;
//! use haecdb::prelude::*;
//! use std::sync::Arc;
//!
//! let db = Database::new();
//! db.create_table("t", &[("v", DataType::Int64)]).unwrap();
//! for i in 0..1_000i64 {
//!     db.insert("t", &Record::new().with("v", i)).unwrap();
//! }
//! let cfg = QueryServerConfig { governor: GovernorPolicy::EnergyCap(Watts::new(30.0)), ..Default::default() };
//! let srv = QueryServer::new(Arc::new(db), cfg);
//! let served = srv.execute(&Query::scan("t").aggregate(AggKind::Sum, "v")).unwrap();
//! assert_eq!(served.result.rows.row(0).unwrap()[0].as_float(), Some(499_500.0));
//! let stats = srv.stats();
//! assert_eq!(stats.completed, 1);
//! assert!(stats.gate_high_water <= stats.budget_high);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod backoff;
pub mod elastic;
pub mod governor;
pub mod qserver;
pub(crate) mod sync;

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::admission::{AdmissionGate, AdmitError, AdmitPermit};
    pub use crate::backoff::Backoff;
    pub use crate::elastic::{diurnal_trace, run_cluster_sim, ClusterSimResult, Provisioning};
    pub use crate::governor::{decide, GovernorDecision, GovernorInput, GovernorPolicy};
    pub use crate::qserver::{
        QueryOpts, QueryServer, QueryServerConfig, ServedQuery, ServerError, ServerStats,
    };
}

pub use admission::{AdmissionGate, AdmitError};
pub use backoff::Backoff;
pub use elastic::{run_cluster_sim, Provisioning};
pub use governor::GovernorPolicy;
pub use qserver::{QueryOpts, QueryServer, QueryServerConfig};
