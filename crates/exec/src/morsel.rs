//! Morsel-driven parallelism: a work-stealing-style range dispatcher
//! over real OS threads.
//!
//! A job's domain is broken into small ranges ("morsels"); idle workers
//! grab the next morsel from a shared atomic cursor, which load-balances
//! skewed per-row costs automatically — the end-to-end parallelism the
//! paper demands "from the query language level down to the execution
//! runtime". Execution happens on the persistent shared
//! [`crate::pool::WorkerPool`], whose `run` hands each job a
//! [`MorselDispenser`] sized by the caller: the `haecdb` engine's
//! domain is its stores, one store per morsel; row-range callers pick
//! their own morsel size.

use crate::sync::atomic::{AtomicUsize, Ordering};

/// A contiguous row range `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Morsel {
    /// First row.
    pub start: usize,
    /// One past the last row.
    pub end: usize,
}

impl Morsel {
    /// Number of rows in the morsel.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Returns `true` for an empty range.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Hands out morsels of a `total`-row domain to competing workers.
#[derive(Debug)]
pub struct MorselDispenser {
    cursor: AtomicUsize,
    total: usize,
    morsel_rows: usize,
}

impl MorselDispenser {
    /// Creates a dispenser over `total` rows, `morsel_rows` per grab.
    ///
    /// # Panics
    ///
    /// Panics if `morsel_rows` is zero.
    pub fn with_morsel_rows(total: usize, morsel_rows: usize) -> Self {
        assert!(morsel_rows > 0, "morsel size must be positive");
        MorselDispenser { cursor: AtomicUsize::new(0), total, morsel_rows }
    }

    /// Takes the next morsel, or `None` when the domain is exhausted.
    pub fn next_morsel(&self) -> Option<Morsel> {
        let start = self.cursor.fetch_add(self.morsel_rows, Ordering::Relaxed);
        if start >= self.total {
            return None;
        }
        Some(Morsel { start, end: (start + self.morsel_rows).min(self.total) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn dispenser_covers_domain_exactly() {
        let d = MorselDispenser::with_morsel_rows(10_000, 999);
        let mut seen = HashSet::new();
        let mut count = 0;
        while let Some(m) = d.next_morsel() {
            assert!(!m.is_empty());
            for i in m.start..m.end {
                assert!(seen.insert(i), "row {i} dispensed twice");
            }
            count += m.len();
        }
        assert_eq!(count, 10_000);
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn dispenser_empty_domain() {
        let d = MorselDispenser::with_morsel_rows(0, 1);
        assert_eq!(d.next_morsel(), None);
    }

    #[test]
    fn last_morsel_truncated() {
        let d = MorselDispenser::with_morsel_rows(10, 8);
        assert_eq!(d.next_morsel(), Some(Morsel { start: 0, end: 8 }));
        assert_eq!(d.next_morsel(), Some(Morsel { start: 8, end: 10 }));
        assert_eq!(d.next_morsel(), None);
    }

    #[test]
    #[should_panic(expected = "morsel size must be positive")]
    fn zero_morsel_panics() {
        let _ = MorselDispenser::with_morsel_rows(10, 0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let spec = crate::pool::RunSpec::new(0, 1);
        crate::pool::WorkerPool::global().run(10, spec, |_| 0u32, |a, b| a + b, 0);
    }
}
