//! # haec-sched
//!
//! Energy-aware scheduling: DVFS governors, core parking, the
//! energy-capped query server, and cluster elasticity — the runtime
//! policies of the `haecdb` reproduction of *Lehner, "Energy-Efficient
//! In-Memory Database Computing" (DATE 2013)*.
//!
//! This crate regenerates the paper's Fig. 2 ("Impact of Energy
//! Constraint on Query Optimization") and the idle-power argument:
//!
//! * [`governor`] — race-to-idle / pace-to-deadline / ondemand /
//!   energy-cap P-state policies.
//! * [`server`] — a deterministic single-node query-server simulation
//!   that integrates power over virtual time under a chosen governor
//!   (experiments E2 and E11).
//! * [`qserver`] — the **real** concurrent query server: admission
//!   control, per-query MVCC snapshots and governor-granted morsel
//!   parallelism over one shared `haecdb` database and worker pool
//!   (experiment E22).
//! * [`elastic`] — "elasticity in the large": diurnal load on a cluster,
//!   static vs elastic provisioning, energy proportionality
//!   (experiment E12).
//!
//! ## Example
//!
//! ```
//! use haec_sched::prelude::*;
//! use std::time::Duration;
//!
//! let mut cfg = ServerSimConfig::default_mix();
//! cfg.horizon = Duration::from_secs(5);
//! cfg.governor = GovernorPolicy::RaceToIdle;
//! let result = run_server_sim(&cfg);
//! assert!(result.completed > 0);
//! assert!(result.energy.joules() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod backoff;
pub mod elastic;
pub mod governor;
pub mod qserver;
pub mod server;
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
    pub use crate::server::{run_server_sim, ServerSimConfig, ServerSimResult};
}

pub use admission::{AdmissionGate, AdmitError};
pub use backoff::Backoff;
pub use elastic::{run_cluster_sim, Provisioning};
pub use governor::GovernorPolicy;
pub use qserver::{QueryOpts, QueryServer, QueryServerConfig};
pub use server::{run_server_sim, ServerSimConfig, ServerSimResult};
