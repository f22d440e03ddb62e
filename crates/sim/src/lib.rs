//! # haec-sim
//!
//! Seeded randomness and measurement statistics for the `haecdb`
//! reproduction of *Lehner, "Energy-Efficient In-Memory Database
//! Computing" (DATE 2013)*.
//!
//! Two shared ingredients, used by the query server, the robustness
//! layer and the experiments:
//!
//! * [`rng`] — seeded randomness ([`rng::SimRng`]) with the workload
//!   distributions (uniform, Zipf, Bernoulli), so one seed pins down an
//!   entire experiment.
//! * [`stats`] — fixed-memory latency histograms and Welford summaries.
//!
//! ## Example
//!
//! ```
//! use haec_sim::prelude::*;
//! use std::time::Duration;
//!
//! // Skewed key draws, with their latencies kept in a histogram.
//! let mut rng = SimRng::seed(1);
//! let mut latency = Histogram::new();
//! for _ in 0..1_000 {
//!     let key = rng.zipf(10_000, 0.99);
//!     latency.record_duration(Duration::from_micros(10 + key % 90));
//! }
//! assert_eq!(latency.count(), 1_000);
//! let (p50, p99) = (latency.quantile_duration(0.5).unwrap(), latency.quantile_duration(0.99).unwrap());
//! assert!(p50 <= p99 && p99 < Duration::from_micros(100));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod rng;
pub mod stats;

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::rng::SimRng;
    pub use crate::stats::{Histogram, Summary};
}

pub use rng::SimRng;
pub use stats::{Histogram, Summary};
