//! Cooperative query cancellation and deadlines.
//!
//! A [`CancelToken`] is a cheap shared flag (plus an optional absolute
//! deadline) a query carries through [`crate::pool::ExecOpts`]. The
//! engine never preempts: every execution unit polls the token **at
//! each morsel boundary** — in the pool's drain loop and in the serial
//! fallback — so a cancelled scan, aggregate, join, or projection stops
//! within one morsel of the signal, releases its gate permit with the
//! morsel it holds, and unwinds through the normal result path (the
//! database layer converts the partial run into
//! `DbError::Cancelled { partial_energy }`, billing the bytes the
//! query actually touched).
//!
//! Polling, not preemption, is what keeps the worker-pool token
//! protocol sound: a unit that observes cancellation exits its drain
//! loop exactly like an exhausted dispenser, so the submitted job
//! settles through the usual started/finished handshake and the pool
//! stays reusable.

use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::Arc;
use std::fmt;
use std::time::{Duration, Instant};

/// A shared cancel flag with an optional deadline.
///
/// Clones observe the same flag: the server holds one clone to
/// [`cancel`](CancelToken::cancel), the execution units poll another
/// via [`is_cancelled`](CancelToken::is_cancelled). The deadline is
/// immutable after construction; once `Instant::now()` passes it the
/// token reads as cancelled without anyone calling `cancel`.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only cancels explicitly.
    pub fn new() -> CancelToken {
        CancelToken { inner: Arc::new(Inner { cancelled: AtomicBool::new(false), deadline: None }) }
    }

    /// A token that auto-cancels at `deadline`.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken { inner: Arc::new(Inner { cancelled: AtomicBool::new(false), deadline: Some(deadline) }) }
    }

    /// A token that auto-cancels `timeout` from now.
    pub fn deadline_in(timeout: Duration) -> CancelToken {
        CancelToken::with_deadline(Instant::now() + timeout)
    }

    /// Raise the flag; every unit polling this token stops at its next
    /// morsel boundary. Idempotent.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the query should stop: explicitly cancelled or past its
    /// deadline.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
            || self.inner.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The absolute deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .field("deadline", &self.inner.deadline)
            .finish()
    }
}

#[cfg(all(test, not(haec_loom)))]
mod tests {
    use super::*;

    #[test]
    fn explicit_cancel_is_shared_and_idempotent() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!t.is_cancelled());
        clone.cancel();
        clone.cancel();
        assert!(t.is_cancelled(), "clones share one flag");
        assert_eq!(t.deadline(), None);
    }

    #[test]
    fn past_deadline_reads_cancelled() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        let far = CancelToken::deadline_in(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
        assert!(far.deadline().is_some());
    }
}
