//! # haec-exec
//!
//! Vectorized, adaptive, energy-metered query operators — the execution
//! engine of the `haecdb` reproduction of *Lehner, "Energy-Efficient
//! In-Memory Database Computing" (DATE 2013)*.
//!
//! What the paper asks of "customized plan operators" (§IV.B) maps onto
//! this crate as follows:
//!
//! * **Reconfigurable selection** — [`select`] implements the branching /
//!   predicated / bitwise kernels of Ross (TODS'04) and an
//!   [`select::AdaptiveSelect`] operator that switches kernels as observed
//!   selectivity drifts.
//! * **Synchronization spectrum** — [`agg`] implements parallel grouped
//!   aggregation under mutex / atomic / optimistic (TSX-analogue) /
//!   partitioned strategies (experiment E4).
//! * **Morsel-driven parallelism** — [`morsel`] load-balances a job's
//!   morsels over real threads; [`pool`] hosts them on one persistent
//!   shared [`pool::WorkerPool`] whose per-query parallelism grant and
//!   fleet-wide in-flight budget ([`pool::MorselGate`]) are the knobs
//!   the energy governor turns. The `haecdb` engine's morsel is a store
//!   (a main segment or a delta chunk); row-range morsels remain for
//!   [`pool::WorkerPool::run`]'s other callers (kernel probes and
//!   experiments).
//! * **Joins** — [`join`] provides hash and sort-merge equi-joins.
//! * **Metering** — the selection kernels report [`metrics::OpStats`]
//!   with a [`haec_energy::ResourceProfile`]
//!   ([`select::select_metered`]) so the energy layer can charge joules
//!   for what actually ran. Joins and aggregates carry no meter of their
//!   own: the `haecdb` executor bills the folds and joins it runs from
//!   its own counts ([`join::HASH_BUCKET_BYTES`] is the bucket traffic it
//!   charges per probe).
//!
//! ## Example
//!
//! ```
//! use haec_exec::prelude::*;
//! use haec_columnar::prelude::*;
//!
//! // σ(amount < 100) → Σ amount, at the kernel level: select the
//! // matching positions, then fold the survivors.
//! let amount: Vec<i64> = (0..1000).collect();
//! let hits = select_positions(&amount, CmpOp::Lt, 100, SelectKernel::Bitwise);
//! let survivors: Vec<i64> = hits.iter().map(|&p| amount[p as usize]).collect();
//! assert_eq!(aggregate(&survivors).value(AggKind::Sum), Some(4950.0));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod agg;
pub mod cancel;
pub mod join;
pub mod metrics;
pub mod morsel;
pub mod pool;
pub mod select;
pub(crate) mod sync;

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::agg::{
        aggregate, group_aggregate, parallel_group_sum, predicted_speedup, AggKind, AggState,
        ParallelAggReport, SyncStrategy,
    };
    pub use crate::cancel::CancelToken;
    pub use crate::join::{sort_merge_join, HashJoin};
    pub use crate::metrics::OpStats;
    pub use crate::morsel::{Morsel, MorselDispenser};
    pub use crate::pool::{ExecOpts, MorselGate, MorselPermit, RunSpec, WorkerPool};
    pub use crate::select::{select_metered, select_positions, AdaptiveSelect, SelectKernel};
}

pub use agg::{AggKind, AggState, SyncStrategy};
pub use cancel::CancelToken;
pub use metrics::OpStats;
pub use pool::{ExecOpts, MorselGate, RunSpec, WorkerPool};
pub use select::{AdaptiveSelect, SelectKernel};
