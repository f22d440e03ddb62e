//! # haec-net
//!
//! Simulated reconfigurable interconnect and the compressed-shipping
//! decision — the communication substrate of the `haecdb` reproduction
//! of *Lehner, "Energy-Efficient In-Memory Database Computing"
//! (DATE 2013)*.
//!
//! * [`topology`] — nodes and point-to-point links (QPI-class, 1/10 GbE,
//!   HAEC-style optical and wireless) that can be brought up or replaced
//!   at runtime, each with its idle power.
//! * [`shipping`] — the paper's worked example: ship intermediates raw
//!   or compressed, decided case-by-case for time or energy
//!   (experiment E3).
//!
//! ## Example
//!
//! ```
//! use haec_net::shipping::{decide, CompressorSpec, Objective};
//! use haec_net::topology::{LinkClass, LinkSpec};
//! use haec_energy::units::ByteCount;
//!
//! let codec = CompressorSpec::lightweight(4.0);
//! let slow = LinkSpec::default_for(LinkClass::Ethernet1G);
//! let fast = LinkSpec::default_for(LinkClass::IntraBoard);
//! let payload = ByteCount::from_mib(256);
//! assert!(decide(payload, &codec, &slow, Objective::MinTime).compress);
//! assert!(!decide(payload, &codec, &fast, Objective::MinTime).compress);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod shipping;
pub mod topology;

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::shipping::{
        decide, time_crossover_bandwidth, CompressorSpec, Objective, ShipCost, ShippingChoice,
    };
    pub use crate::topology::{Link, LinkClass, LinkSpec, NodeId, Topology};
}

pub use shipping::{decide, CompressorSpec, Objective, ShippingChoice};
pub use topology::{LinkClass, LinkSpec, NodeId, Topology};
