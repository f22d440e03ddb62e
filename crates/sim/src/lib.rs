//! # haec-sim
//!
//! Deterministic discrete-event simulation core for the `haecdb`
//! reproduction of *Lehner, "Energy-Efficient In-Memory Database
//! Computing" (DATE 2013)*.
//!
//! The scheduling, networking and elasticity experiments of the paper
//! concern machines (hundreds of cores, multi-node clusters, optical
//! board-level links) that the reproduction environment does not have.
//! Those experiments therefore run on virtual time: a seeded, perfectly
//! reproducible event simulation. This crate provides the three shared
//! ingredients:
//!
//! * [`engine`] — the future-event list ([`engine::EventQueue`]) with
//!   deterministic same-instant ordering and a driver loop ([`engine::run`]).
//! * [`rng`] — seeded randomness ([`rng::SimRng`]) with the workload
//!   distributions (Poisson, Zipf, normal).
//! * [`stats`] — histograms and Welford summaries.
//!
//! ## Example
//!
//! ```
//! use haec_sim::prelude::*;
//! use std::time::Duration;
//!
//! // M/D/1 queue: Poisson arrivals, fixed 1 ms service.
//! let mut rng = SimRng::seed(1);
//! let mut q = EventQueue::new();
//! for _ in 0..100 {
//!     let dt = Duration::from_secs_f64(rng.exponential(0.002));
//!     let at = q.now().saturating_add(dt); // arrivals relative to t=0
//!     q.schedule_at(SimTime::ZERO + (at - SimTime::ZERO), ());
//! }
//! let mut served = 0u32;
//! let (_, end) = haec_sim::engine::run(&mut q, &mut |_now, _e, _q: &mut EventQueue<()>| {
//!     served += 1;
//!     true
//! }, SimTime::MAX);
//! assert_eq!(served, 100);
//! assert!(end > SimTime::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod rng;
pub mod stats;
pub mod time;

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::engine::{run, EventQueue, RunOutcome, World};
    pub use crate::rng::SimRng;
    pub use crate::stats::{Histogram, Summary};
    pub use crate::time::SimTime;
}

pub use engine::{EventQueue, RunOutcome};
pub use rng::SimRng;
pub use stats::{Histogram, Summary};
pub use time::SimTime;
