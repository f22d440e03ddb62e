//! The discrete-event engine: an event queue with deterministic ordering
//! and a pull-style simulation loop.
//!
//! Determinism is load-bearing for the reproduction: two events scheduled
//! for the same instant are delivered in scheduling order (a stable
//! sequence number breaks ties), so every experiment table is exactly
//! reproducible from its seed.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// An event payload plus its delivery time, as stored in the queue.
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (then lowest
        // sequence number) pops first.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic future-event list.
///
/// ```
/// use haec_sim::engine::EventQueue;
/// use haec_sim::time::SimTime;
/// use std::time::Duration;
///
/// let mut q = EventQueue::new();
/// q.schedule_at(SimTime::from_nanos(50), "late");
/// q.schedule_at(SimTime::from_nanos(10), "early");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t.as_nanos(), e), (10, "early"));
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0, now: SimTime::ZERO }
    }

    /// The current virtual time (the delivery time of the last popped
    /// event, or zero).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` for absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time: events cannot be
    /// delivered into the past.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule into the past ({at} < {})", self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Removes and returns the next event, advancing the clock to its
    /// delivery time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| {
            self.now = s.at;
            (s.at, s.event)
        })
    }

    /// The delivery time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue").field("now", &self.now).field("pending", &self.heap.len()).finish()
    }
}

/// A world that reacts to events of type `E`.
///
/// Implementations receive each event together with the queue so they can
/// schedule follow-up events; returning `false` stops the simulation
/// early (e.g. when a measurement horizon is reached).
pub trait World<E> {
    /// Handles one event delivered at `now`.
    fn handle(&mut self, now: SimTime, event: E, queue: &mut EventQueue<E>) -> bool;
}

impl<E, F> World<E> for F
where
    F: FnMut(SimTime, E, &mut EventQueue<E>) -> bool,
{
    fn handle(&mut self, now: SimTime, event: E, queue: &mut EventQueue<E>) -> bool {
        self(now, event, queue)
    }
}

/// Outcome of [`run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The queue drained completely.
    Drained,
    /// The horizon was reached with events still pending.
    HorizonReached,
    /// The world requested an early stop.
    Stopped,
}

/// Drives `world` until the queue drains, `horizon` passes, or the world
/// returns `false`. Returns the outcome and the final virtual time.
pub fn run<E, W: World<E>>(
    queue: &mut EventQueue<E>,
    world: &mut W,
    horizon: SimTime,
) -> (RunOutcome, SimTime) {
    loop {
        match queue.peek_time() {
            None => return (RunOutcome::Drained, queue.now()),
            Some(t) if t > horizon => return (RunOutcome::HorizonReached, queue.now()),
            Some(_) => {
                let (now, ev) = queue.pop().expect("peeked event must pop");
                if !world.handle(now, ev, queue) {
                    return (RunOutcome::Stopped, queue.now());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(30), 3);
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.schedule_at(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_scheduling_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(q.now() + Duration::from_micros(1), "a");
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(1000));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(100), ());
        q.pop();
        q.schedule_at(SimTime::from_nanos(50), ());
    }

    #[test]
    fn run_drains() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(1), 1u32);
        q.schedule_at(SimTime::from_nanos(2), 2);
        let mut seen = Vec::new();
        let (outcome, end) = run(
            &mut q,
            &mut |_: SimTime, e: u32, _: &mut EventQueue<u32>| {
                seen.push(e);
                true
            },
            SimTime::MAX,
        );
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(end, SimTime::from_nanos(2));
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn run_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), ());
        let (outcome, _) =
            run(&mut q, &mut |_: SimTime, _: (), _: &mut EventQueue<()>| true, SimTime::from_secs(1));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(q.len(), 1, "pending event stays queued");
    }

    #[test]
    fn run_stops_early() {
        let mut q = EventQueue::new();
        for i in 0..5u32 {
            q.schedule_at(SimTime::from_nanos(i as u64), i);
        }
        let mut count = 0;
        let (outcome, _) = run(
            &mut q,
            &mut |_: SimTime, _e: u32, _: &mut EventQueue<u32>| {
                count += 1;
                count < 3
            },
            SimTime::MAX,
        );
        assert_eq!(outcome, RunOutcome::Stopped);
        assert_eq!(count, 3);
    }

    #[test]
    fn cascading_events() {
        // A world that schedules a follow-up for each event, 3 deep.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::ZERO, 0u32);
        let mut max_depth = 0;
        let (outcome, end) = run(
            &mut q,
            &mut |_: SimTime, depth: u32, q: &mut EventQueue<u32>| {
                max_depth = max_depth.max(depth);
                if depth < 3 {
                    q.schedule_at(q.now() + Duration::from_nanos(7), depth + 1);
                }
                true
            },
            SimTime::MAX,
        );
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(max_depth, 3);
        assert_eq!(end, SimTime::from_nanos(21));
    }

    #[test]
    fn debug_impl_nonempty() {
        let q: EventQueue<()> = EventQueue::new();
        assert!(format!("{q:?}").contains("EventQueue"));
    }
}
