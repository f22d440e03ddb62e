//! Bounded exponential backoff for clients retrying an overloaded
//! server.
//!
//! [`crate::qserver::ServerError::Overloaded`] now carries a
//! `retry_after` hint derived from the server's latency EWMA; this
//! helper turns that hint into a correct client retry loop — exponential
//! growth so synchronized clients spread out, a hard cap so nobody
//! sleeps forever, and the server hint as a floor so clients never
//! hammer faster than the server said a slot will free. Deterministic
//! on purpose (no jitter entropy): experiment e24 replays byte-for-byte.
//!
//! ```
//! use haec_sched::backoff::Backoff;
//! use std::time::Duration;
//!
//! let mut b = Backoff::new(Duration::from_millis(1), Duration::from_millis(64));
//! assert_eq!(b.next_delay(None), Duration::from_millis(1));
//! assert_eq!(b.next_delay(None), Duration::from_millis(2));
//! // A server hint floors the delay.
//! assert_eq!(b.next_delay(Some(Duration::from_millis(50))), Duration::from_millis(50));
//! // Growth is capped.
//! for _ in 0..20 { b.next_delay(None); }
//! assert_eq!(b.next_delay(None), Duration::from_millis(64));
//! ```

use std::time::Duration;

/// Bounded exponential backoff state for one client's retry loop.
#[derive(Clone, Debug)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
}

impl Backoff {
    /// Backoff starting at `base` and never exceeding `cap`.
    pub fn new(base: Duration, cap: Duration) -> Backoff {
        Backoff { base, cap, attempt: 0 }
    }

    /// The delay to sleep before the next retry: `base · 2^attempt`,
    /// floored by the server's `retry_after` hint (when given) and
    /// capped at `cap`. Each call counts one attempt.
    pub fn next_delay(&mut self, retry_after: Option<Duration>) -> Duration {
        let exp = self.base.saturating_mul(1u32.checked_shl(self.attempt).unwrap_or(u32::MAX)).min(self.cap);
        self.attempt = self.attempt.saturating_add(1);
        // The hint is a floor even past the cap: the cap bounds *our*
        // schedule, but the server knows when a slot will actually free.
        exp.max(retry_after.unwrap_or(Duration::ZERO))
    }

    /// Resets after a success, so the next burst starts from `base`.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubles_until_cap() {
        let mut b = Backoff::new(Duration::from_millis(2), Duration::from_millis(16));
        let delays: Vec<u128> = (0..6).map(|_| b.next_delay(None).as_millis()).collect();
        assert_eq!(delays, vec![2, 4, 8, 16, 16, 16]);
        b.reset();
        assert_eq!(b.next_delay(None).as_millis(), 2);
    }

    #[test]
    fn hint_floors_the_delay_even_past_cap() {
        let mut b = Backoff::new(Duration::from_millis(1), Duration::from_millis(8));
        // The server's hint wins when it is larger than the schedule…
        assert_eq!(b.next_delay(Some(Duration::from_millis(30))).as_millis(), 30);
        // …and the schedule wins when it is larger than the hint.
        b.reset();
        for _ in 0..5 {
            b.next_delay(None);
        }
        assert_eq!(b.next_delay(Some(Duration::from_millis(1))).as_millis(), 8);
    }

    #[test]
    fn huge_attempt_counts_saturate() {
        let mut b = Backoff::new(Duration::from_secs(1), Duration::from_secs(4));
        for _ in 0..100 {
            let d = b.next_delay(None);
            assert!(d <= Duration::from_secs(4));
        }
    }
}
