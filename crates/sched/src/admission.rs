//! Bounded, priority-aware admission with shed-don't-stall overload
//! behavior — the front door of [`crate::qserver::QueryServer`].
//!
//! The server's original admission control was a bare counter: query
//! `max_concurrent + 1` got an instant rejection, even if a slot was
//! about to free. This module adds a **bounded wait queue** between
//! "admit now" and "reject now":
//!
//! * up to `limit` queries hold admission permits concurrently;
//! * up to `max_queued` more wait, ordered by priority (FIFO within a
//!   priority);
//! * everything beyond that is *shed* — and shedding always takes the
//!   **lowest-priority** entrant, whether that is the newcomer or a
//!   query already queued. Overload degrades the cheapest work first
//!   instead of stalling everyone behind an unbounded queue.
//!
//! Waiters are cooperative: each poll of the wait loop checks the
//! query's [`CancelToken`] and deadline, so a cancelled or expired
//! query leaves the queue (or hands back a just-granted slot) without
//! ever being counted in flight. Every exit path — grant, shed,
//! cancel, deadline, permit drop — funnels through one `promote` step
//! under the same lock, which is what the loom model checks: permits
//! release exactly once, no waiter is lost, and cancelled queries never
//! occupy a slot.
//!
//! The primitives come from the crate's internal `sync` module, so
//! `--cfg haec_loom` model-checks this exact code, not a port of it.

use crate::sync::{Condvar, Mutex, MutexGuard};
use haec_exec::cancel::CancelToken;
use std::fmt;
use std::time::Instant;

/// Why a query did not get (or keep) an admission slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// Both the in-flight set and the wait queue are full, and every
    /// queued query has priority at least as high as this one.
    Rejected {
        /// Queries holding permits at rejection.
        active: usize,
        /// Queries waiting at rejection.
        queued: usize,
    },
    /// The query was queued, then evicted to make room for
    /// higher-priority work (or because the energy budget tightened).
    Shed,
    /// The query's cancel token fired while it was waiting.
    Cancelled,
    /// The query's deadline passed while it was waiting.
    DeadlineExpired,
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::Rejected { active, queued } => {
                write!(f, "admission rejected: {active} active, {queued} queued")
            }
            AdmitError::Shed => write!(f, "shed from the admission queue"),
            AdmitError::Cancelled => write!(f, "cancelled while queued"),
            AdmitError::DeadlineExpired => write!(f, "deadline expired while queued"),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WaitState {
    Waiting,
    Admitted,
    Shed,
}

struct Waiter {
    ticket: u64,
    priority: u8,
    state: WaitState,
}

struct Inner {
    active: usize,
    next_ticket: u64,
    waiters: Vec<Waiter>,
    shed_total: u64,
}

impl Inner {
    fn waiting(&self) -> usize {
        self.waiters.iter().filter(|w| w.state == WaitState::Waiting).count()
    }

    /// Index of the waiter to evict next: lowest priority, youngest
    /// ticket among equals (the most recently queued cheap query goes
    /// first; older peers have waited longer).
    fn shed_victim(&self) -> Option<usize> {
        self.waiters
            .iter()
            .enumerate()
            .filter(|(_, w)| w.state == WaitState::Waiting)
            .min_by_key(|(_, w)| (w.priority, u64::MAX - w.ticket))
            .map(|(i, _)| i)
    }

    /// Index of the waiter to admit next: highest priority, oldest
    /// ticket among equals (FIFO within a priority level).
    fn admit_next(&self) -> Option<usize> {
        self.waiters
            .iter()
            .enumerate()
            .filter(|(_, w)| w.state == WaitState::Waiting)
            .max_by_key(|(_, w)| (w.priority, u64::MAX - w.ticket))
            .map(|(i, _)| i)
    }

    /// Hands free slots to the best waiting queries. Called under the
    /// lock on every state change; the single place slots are granted.
    fn promote(&mut self, limit: usize) {
        while self.active < limit {
            let Some(i) = self.admit_next() else { break };
            self.waiters[i].state = WaitState::Admitted;
            self.active += 1;
        }
    }

    fn remove(&mut self, ticket: u64) -> WaitState {
        let i = self
            .waiters
            .iter()
            .position(|w| w.ticket == ticket)
            .expect("a waiter is removed exactly once, by itself");
        self.waiters.swap_remove(i).state
    }
}

/// The admission gate: `limit` concurrent permits, `max_queued`
/// priority-ordered waiters, shed-lowest-first beyond that (see the
/// module docs).
pub struct AdmissionGate {
    limit: usize,
    max_queued: usize,
    inner: Mutex<Inner>,
    cv: Condvar,
}

impl AdmissionGate {
    /// A gate granting `limit` concurrent permits and queueing at most
    /// `max_queued` more. `max_queued = 0` restores instant-reject
    /// admission control.
    pub fn new(limit: usize, max_queued: usize) -> AdmissionGate {
        AdmissionGate {
            limit,
            max_queued,
            inner: Mutex::new(Inner { active: 0, next_ticket: 0, waiters: Vec::new(), shed_total: 0 }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Permits out right now.
    pub fn active(&self) -> usize {
        self.lock().active
    }

    /// Queries waiting right now.
    pub fn queued(&self) -> usize {
        self.lock().waiting()
    }

    /// Lifetime count of waiters evicted by shedding.
    pub fn shed_total(&self) -> u64 {
        self.lock().shed_total
    }

    /// The concurrent-permit bound.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Evicts up to `n` of the lowest-priority waiting queries (the
    /// energy governor calls this when its budget tightens: shrinking
    /// work should shed queued load, not stall everyone). Returns how
    /// many were shed.
    pub fn shed_lowest(&self, n: usize) -> usize {
        let mut inner = self.lock();
        let mut shed = 0;
        while shed < n {
            let Some(i) = inner.shed_victim() else { break };
            inner.waiters[i].state = WaitState::Shed;
            inner.shed_total += 1;
            shed += 1;
        }
        if shed > 0 {
            self.cv.notify_all();
        }
        shed
    }

    /// Acquires an admission slot, waiting in the bounded priority
    /// queue if the gate is full. Higher `priority` values outrank
    /// lower ones. The optional `cancel` token and `deadline` are
    /// polled at every wake-up; under overload the lowest-priority
    /// entrant (queued or this one) is shed. Nothing wakes a waiter
    /// when someone else fires its token: it sees the cancel at its next
    /// wake — a release, a shed, or its own deadline.
    ///
    /// # Errors
    ///
    /// See [`AdmitError`] for the four refusal shapes.
    pub fn admit(
        &self,
        priority: u8,
        deadline: Option<Instant>,
        cancel: Option<&CancelToken>,
    ) -> Result<AdmitPermit<'_>, AdmitError> {
        let mut inner = self.lock();
        // Fast path: a free slot and nobody queued ahead of us.
        if inner.active < self.limit && inner.waiting() == 0 {
            inner.active += 1;
            return Ok(AdmitPermit { gate: self });
        }
        if inner.waiting() >= self.max_queued {
            // Full queue: the lowest-priority entrant goes. If that is
            // us, reject outright; otherwise evict the cheapest waiter
            // and take its place.
            let victim = inner.shed_victim().filter(|&i| inner.waiters[i].priority < priority);
            match victim {
                Some(i) => {
                    inner.waiters[i].state = WaitState::Shed;
                    inner.shed_total += 1;
                    self.cv.notify_all();
                }
                None => {
                    return Err(AdmitError::Rejected { active: inner.active, queued: inner.waiting() });
                }
            }
        }
        let ticket = inner.next_ticket;
        inner.next_ticket += 1;
        inner.waiters.push(Waiter { ticket, priority, state: WaitState::Waiting });
        loop {
            // A release may have happened between our enqueue and this
            // check (or before we ever sleep): promotion runs on every
            // iteration, under the same lock as every other transition.
            inner.promote(self.limit);
            let state = inner
                .waiters
                .iter()
                .find(|w| w.ticket == ticket)
                .map(|w| w.state)
                .expect("own waiter entry lives until self-removal");
            // Cancellation and deadline outrank a grant: a query that
            // stops wanting the slot hands it straight back, so it is
            // never observably in flight.
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return Err(self.bail(inner, ticket, AdmitError::Cancelled));
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(self.bail(inner, ticket, AdmitError::DeadlineExpired));
            }
            match state {
                WaitState::Admitted => {
                    inner.remove(ticket);
                    return Ok(AdmitPermit { gate: self });
                }
                WaitState::Shed => {
                    inner.remove(ticket);
                    return Err(AdmitError::Shed);
                }
                WaitState::Waiting => {}
            }
            inner = self.wait(inner, deadline);
        }
    }

    /// Removes `ticket` on a cancel/deadline exit, returning a
    /// just-granted slot if promotion won the race, and waking peers.
    fn bail(&self, mut inner: MutexGuard<'_, Inner>, ticket: u64, err: AdmitError) -> AdmitError {
        if inner.remove(ticket) == WaitState::Admitted {
            inner.active -= 1;
            inner.promote(self.limit);
        }
        self.cv.notify_all();
        err
    }

    /// One blocking park. Outside loom a deadline bounds the sleep so
    /// expiry is noticed promptly; the loom shim's condvar has no
    /// `wait_timeout` (models are untimed), so modeled builds always
    /// wait for a notification.
    #[cfg(not(haec_loom))]
    fn wait<'g>(&self, guard: MutexGuard<'g, Inner>, deadline: Option<Instant>) -> MutexGuard<'g, Inner> {
        match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
            Some(timeout) => {
                self.cv.wait_timeout(guard, timeout).unwrap_or_else(std::sync::PoisonError::into_inner).0
            }
            None => self.cv.wait(guard).unwrap_or_else(std::sync::PoisonError::into_inner),
        }
    }

    #[cfg(haec_loom)]
    fn wait<'g>(&self, guard: MutexGuard<'g, Inner>, _deadline: Option<Instant>) -> MutexGuard<'g, Inner> {
        self.cv.wait(guard).unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Permit-drop path: free the slot and promote the best waiter.
    fn release(&self) {
        let mut inner = self.lock();
        inner.active -= 1;
        inner.promote(self.limit);
        self.cv.notify_all();
    }
}

impl fmt::Debug for AdmissionGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.lock();
        f.debug_struct("AdmissionGate")
            .field("limit", &self.limit)
            .field("max_queued", &self.max_queued)
            .field("active", &inner.active)
            .field("queued", &inner.waiting())
            .field("shed_total", &inner.shed_total)
            .finish()
    }
}

/// An admission slot; releases (and promotes the next waiter) on drop.
pub struct AdmitPermit<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for AdmitPermit<'_> {
    fn drop(&mut self) {
        self.gate.release();
    }
}

impl fmt::Debug for AdmitPermit<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdmitPermit").finish_non_exhaustive()
    }
}

#[cfg(all(test, not(haec_loom)))]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn grants_up_to_limit_then_queues_then_rejects() {
        let gate = AdmissionGate::new(2, 1);
        let a = gate.admit(0, None, None).unwrap();
        let b = gate.admit(0, None, None).unwrap();
        assert_eq!(gate.active(), 2);
        // Queue full of equal-priority work: the newcomer is the one
        // shed (it is the lowest-priority entrant).
        std::thread::scope(|s| {
            let h = s.spawn(|| gate.admit(0, None, None));
            while gate.queued() == 0 {
                std::thread::yield_now();
            }
            let err = gate.admit(0, None, None).unwrap_err();
            assert!(matches!(err, AdmitError::Rejected { active: 2, queued: 1 }), "{err}");
            drop(a);
            let c = h.join().unwrap().unwrap();
            assert_eq!(gate.active(), 2);
            drop((b, c));
        });
        assert_eq!(gate.active(), 0);
        assert_eq!(gate.queued(), 0);
    }

    #[test]
    fn higher_priority_newcomer_sheds_queued_low() {
        let gate = AdmissionGate::new(1, 1);
        let held = gate.admit(0, None, None).unwrap();
        std::thread::scope(|s| {
            let low = s.spawn(|| gate.admit(1, None, None));
            while gate.queued() == 0 {
                std::thread::yield_now();
            }
            let high = s.spawn(|| gate.admit(9, None, None));
            // The high-priority newcomer evicts the queued low one.
            assert_eq!(low.join().unwrap().unwrap_err(), AdmitError::Shed);
            drop(held);
            let p = high.join().unwrap().unwrap();
            assert_eq!(gate.shed_total(), 1);
            drop(p);
        });
        assert_eq!(gate.active(), 0);
    }

    #[test]
    fn priority_orders_the_queue() {
        let gate = AdmissionGate::new(1, 4);
        let held = gate.admit(0, None, None).unwrap();
        std::thread::scope(|s| {
            let low = s.spawn(|| gate.admit(1, None, None).map(|p| (1, gate.active(), p)));
            while gate.queued() < 1 {
                std::thread::yield_now();
            }
            let high = s.spawn(|| gate.admit(5, None, None).map(|p| (5, gate.active(), p)));
            while gate.queued() < 2 {
                std::thread::yield_now();
            }
            drop(held);
            // The high-priority waiter wins the freed slot even though
            // it queued later.
            let (_, _, hp) = high.join().unwrap().unwrap();
            assert_eq!(gate.queued(), 1, "low waiter still queued");
            drop(hp);
            let (_, _, lp) = low.join().unwrap().unwrap();
            drop(lp);
        });
        assert_eq!(gate.active(), 0);
    }

    #[test]
    fn cancel_while_queued_exits_without_slot() {
        let gate = AdmissionGate::new(1, 2);
        let held = gate.admit(0, None, None).unwrap();
        let token = CancelToken::new();
        std::thread::scope(|s| {
            let h = s.spawn(|| gate.admit(0, None, Some(&token)));
            while gate.queued() == 0 {
                std::thread::yield_now();
            }
            // The waiter notices the cancel at its next wake: the
            // release promotes it, and it hands the won grant back.
            token.cancel();
            drop(held);
            assert_eq!(h.join().unwrap().unwrap_err(), AdmitError::Cancelled);
        });
        assert_eq!(gate.active(), 0);
        assert_eq!(gate.queued(), 0);
    }

    #[test]
    fn deadline_while_queued_expires() {
        let gate = AdmissionGate::new(1, 2);
        let held = gate.admit(0, None, None).unwrap();
        let deadline = Instant::now() + Duration::from_millis(20);
        let err = gate.admit(0, Some(deadline), None).unwrap_err();
        assert_eq!(err, AdmitError::DeadlineExpired);
        drop(held);
        assert_eq!(gate.active(), 0);
        assert_eq!(gate.queued(), 0);
    }

    #[test]
    fn shed_lowest_takes_cheapest_waiters() {
        let gate = AdmissionGate::new(1, 4);
        let held = gate.admit(0, None, None).unwrap();
        std::thread::scope(|s| {
            let low = s.spawn(|| gate.admit(1, None, None));
            while gate.queued() < 1 {
                std::thread::yield_now();
            }
            let high = s.spawn(|| gate.admit(7, None, None));
            while gate.queued() < 2 {
                std::thread::yield_now();
            }
            assert_eq!(gate.shed_lowest(1), 1);
            assert_eq!(low.join().unwrap().unwrap_err(), AdmitError::Shed);
            drop(held);
            drop(high.join().unwrap().unwrap());
        });
        assert_eq!(gate.active(), 0);
        assert_eq!(gate.shed_total(), 1);
    }

    #[test]
    fn zero_queue_restores_instant_reject() {
        let gate = AdmissionGate::new(1, 0);
        let held = gate.admit(0, None, None).unwrap();
        let err = gate.admit(9, None, None).unwrap_err();
        assert!(matches!(err, AdmitError::Rejected { active: 1, queued: 0 }), "{err}");
        drop(held);
    }
}
