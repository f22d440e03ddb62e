//! # haec-storage
//!
//! Multi-level storage hierarchy with temperature-based aging — the
//! "multi-level storage structures" (§IV.B) of the `haecdb` reproduction
//! of *Lehner, "Energy-Efficient In-Memory Database Computing"
//! (DATE 2013)*.
//!
//! * [`tier`] — DRAM / NVM / SSD / disk with 2013-era latency, bandwidth,
//!   energy-per-byte and capacity-cost parameters.
//! * [`temperature`] — exponentially decayed hotness plus the paper's
//!   high-density / low-density classification.
//! * [`hierarchy`] — segments, placement policies (static /
//!   temperature-only / density-aware), aging passes and migration
//!   costing (experiment E7).
//!
//! ## Example
//!
//! ```
//! use haec_storage::prelude::*;
//! use haec_energy::units::ByteCount;
//! use std::time::Duration;
//!
//! let mut h = Hierarchy::new(PlacementPolicy::DensityAware);
//! let orders = h.create_segment(ByteCount::from_mib(256), DensityClass::High);
//! let clicks = h.create_segment(ByteCount::from_gib(4), DensityClass::Low);
//! h.access(orders, AccessKind::Point);
//! h.access(clicks, AccessKind::Scan);
//! h.tick(Duration::from_secs(600));
//! let migrations = h.age();
//! assert!(migrations.len() <= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod hierarchy;
pub mod temperature;
pub mod tier;

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::hierarchy::{AccessOutcome, Hierarchy, Migration, PlacementPolicy, Segment, SegmentId};
    pub use crate::temperature::{AccessKind, DensityClass, Temperature};
    pub use crate::tier::{StorageTier, TierSpec, TierTable};
}

pub use hierarchy::{Hierarchy, PlacementPolicy, SegmentId};
pub use temperature::{AccessKind, DensityClass};
pub use tier::{StorageTier, TierTable};
