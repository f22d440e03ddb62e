//! # haecdb
//!
//! An energy-efficient in-memory column-store database — the facade
//! crate of the reproduction of *W. Lehner, "Energy-Efficient In-Memory
//! Database Computing" (DATE 2013, pp. 470–474)*.
//!
//! The paper is a vision paper: it describes the system a main-memory
//! DBMS must become — flexible schemas, energy-metered execution,
//! adaptive operators, need-to-know index maintenance, conversations,
//! robustness, elasticity. `haecdb` is that system, assembled from the
//! substrate crates:
//!
//! | concern | crate |
//! |---|---|
//! | power/energy model, RAPL emulation | `haec-energy` |
//! | columnar storage + compression | `haec-columnar` |
//! | vectorized adaptive operators | `haec-exec` |
//! | MVCC / OCC / logging / conversations | `haec-txn` |
//! | storage tiers + aging | `haec-storage` |
//! | interconnect + compressed shipping | `haec-net` |
//! | DVFS governors + elasticity | `haec-sched` |
//! | dual-objective optimizer | `haec-planner` |
//! | seeded randomness + statistics | `haec-sim` |
//!
//! This crate adds what only the integrated system can provide: the
//! [`db::Database`] facade with flexible-schema, segmented main/delta
//! tables ([`schema`], [`table`], [`segment`]), Need-to-Know indexes
//! that every immutable store keeps for its own rows, built once by a
//! merge or by the first reader that asks ([`index`]), the
//! energy-metered scan-on-compressed query path ([`db`]), and
//! failure-compensating execution ([`robust`]).
//!
//! ## Quickstart
//!
//! ```
//! use haecdb::prelude::*;
//!
//! let db = Database::new();
//! db.create_table("orders", &[("id", DataType::Int64), ("amount", DataType::Int64)])?;
//! for i in 0..1000i64 {
//!     db.insert("orders", &Record::new().with("id", i).with("amount", i % 97))?;
//! }
//! let result = db.execute(&Query::scan("orders")
//!     .filter("amount", CmpOp::Lt, 10)
//!     .aggregate(AggKind::Count, "amount"))?;
//! assert!(result.energy.joules() > 0.0); // every query is energy-metered
//! # Ok::<(), haecdb::error::DbError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod db;
mod delta;
pub mod error;
mod executor;
pub mod index;
pub mod robust;
pub mod schema;
pub mod segment;
pub mod table;

/// Convenient glob-import of the crate's main types (plus the commonly
/// used types of the substrate crates).
pub mod prelude {
    pub use crate::db::{Database, DbSnapshot, DbTransaction, Filter, Query, QueryResult, StrFilter};
    pub use crate::error::{DbError, DbResult};
    pub use crate::index::{IndexMaintenance, IndexStats};
    pub use crate::robust::{run_with_failures, RestartPolicy, RobustReport};
    pub use crate::schema::{Record, SchemaMode, TableSchema};
    pub use crate::segment::{MergeStats, Segment, SEGMENT_ROWS};
    pub use crate::table::{Table, TableSnapshot};
    pub use haec_columnar::value::{CmpOp, DataType, Value};
    pub use haec_exec::agg::AggKind;
    pub use haec_exec::cancel::CancelToken;
    pub use haec_exec::pool::{ExecOpts, MorselGate, WorkerPool};
    pub use haec_planner::optimizer::Goal;
    pub use haec_txn::oracle::{Timestamp, TimestampOracle};
}

pub use db::{Database, DbSnapshot, DbTransaction, Query, QueryResult};
pub use error::{DbError, DbResult};
pub use index::IndexMaintenance;
pub use schema::{Record, SchemaMode, TableSchema};
pub use table::{Table, TableSnapshot};
