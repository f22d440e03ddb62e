//! Run-length encoding with run-skipping predicate evaluation.
//!
//! RLE is the encoding where "operate directly on compressed data" pays
//! off most: a comparison is evaluated once per *run* instead of once per
//! row, so sorted or low-cardinality columns scan orders of magnitude
//! faster — exactly the lightweight-compression argument of in-memory
//! column stores the paper builds on.

use crate::bitmap::Bitmap;
use crate::value::CmpOp;

/// One run: `len` copies of `value` starting at logical row `start`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Run {
    /// The repeated value.
    pub value: i64,
    /// First logical row of the run.
    pub start: usize,
    /// Number of repetitions.
    pub len: usize,
}

/// A run-length-encoded integer column.
///
/// ```
/// use haec_columnar::encoding::rle::RleInts;
/// let e = RleInts::encode(&[7, 7, 7, 2, 2, 9]);
/// assert_eq!(e.runs().len(), 3);
/// assert_eq!(e.decode(), vec![7, 7, 7, 2, 2, 9]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RleInts {
    runs: Vec<Run>,
    len: usize,
}

impl RleInts {
    /// Encodes a slice.
    pub fn encode(data: &[i64]) -> Self {
        let mut runs = Vec::new();
        let mut iter = data.iter();
        if let Some(&first) = iter.next() {
            let mut current = Run { value: first, start: 0, len: 1 };
            for (&v, i) in iter.zip(1..) {
                if v == current.value {
                    current.len += 1;
                } else {
                    runs.push(current);
                    current = Run { value: v, start: i, len: 1 };
                }
            }
            runs.push(current);
        }
        RleInts { runs, len: data.len() }
    }

    /// Number of logical rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The encoded runs.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Decodes to a fresh vector.
    pub fn decode(&self) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.len);
        for r in &self.runs {
            out.extend(std::iter::repeat_n(r.value, r.len));
        }
        out
    }

    /// Random access to row `i` by binary search over run starts:
    /// O(log runs) per call. Use it for genuine point access; a sequence
    /// of rows is cheaper through [`RleInts::cursor`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> i64 {
        assert!(i < self.len, "index {i} out of bounds ({})", self.len);
        let idx = self.runs.partition_point(|r| r.start + r.len <= i);
        self.runs[idx].value
    }

    /// A forward cursor: [`RleCursor::at`] answers like [`RleInts::get`]
    /// for any row, but remembers the run it last landed in and gallops
    /// forward from there, so an ascending sequence of rows costs
    /// O(log runs *skipped*) per row — one comparison inside a run —
    /// instead of a bisection over every run. Safe to create on an empty
    /// column.
    pub fn cursor(&self) -> RleCursor<'_> {
        RleCursor { col: self, run: 0 }
    }

    /// Evaluates `value op literal` over all rows into `out`, touching
    /// each *run* exactly once.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn scan(&self, op: CmpOp, literal: i64, out: &mut Bitmap) {
        assert_eq!(out.len(), self.len, "output bitmap length mismatch");
        for r in &self.runs {
            if op.eval(r.value, literal) {
                out.set_range(r.start, r.start + r.len, true);
            }
        }
    }

    /// Sum of all rows (aggregation on compressed data: one multiply per
    /// run).
    pub fn sum(&self) -> i64 {
        self.runs.iter().map(|r| r.value.wrapping_mul(r.len as i64)).sum()
    }

    /// Minimum and maximum over all rows.
    pub fn min_max(&self) -> Option<(i64, i64)> {
        let mut it = self.runs.iter();
        let first = it.next()?;
        let mut min = first.value;
        let mut max = first.value;
        for r in it {
            min = min.min(r.value);
            max = max.max(r.value);
        }
        Some((min, max))
    }

    /// Payload size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.runs.len() * std::mem::size_of::<Run>()
    }
}

/// Forward cursor over an [`RleInts`] column (see [`RleInts::cursor`]).
#[derive(Clone, Debug)]
pub struct RleCursor<'a> {
    col: &'a RleInts,
    /// The run the last row landed in (run 0 before the first call).
    run: usize,
}

impl RleCursor<'_> {
    /// The value of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn at(&mut self, i: usize) -> i64 {
        assert!(i < self.col.len, "index {i} out of bounds ({})", self.col.len);
        let runs = &self.col.runs;
        let cur = runs[self.run];
        if i.wrapping_sub(cur.start) >= cur.len {
            // Left the current run: gallop forward from it (from run 0
            // for a row before it). `runs[lo].start <= i` throughout.
            let mut lo = if i < cur.start { 0 } else { self.run };
            let mut step = 1;
            while lo + step < runs.len() && runs[lo + step].start <= i {
                lo += step;
                step *= 2;
            }
            let hi = (lo + step).min(runs.len());
            self.run = lo + runs[lo..hi].partition_point(|r| r.start <= i) - 1;
        }
        runs[self.run].value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let data = vec![1, 1, 1, 2, 3, 3, 3, 3, -5];
        let e = RleInts::encode(&data);
        assert_eq!(e.decode(), data);
        assert_eq!(e.len(), 9);
        assert_eq!(e.runs().len(), 4);
    }

    #[test]
    fn empty_input() {
        let e = RleInts::encode(&[]);
        assert!(e.is_empty());
        assert_eq!(e.decode(), Vec::<i64>::new());
        assert_eq!(e.min_max(), None);
        assert_eq!(e.sum(), 0);
    }

    #[test]
    fn get_random_access() {
        let data = vec![4, 4, 9, 9, 9, 1];
        let e = RleInts::encode(&data);
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(e.get(i), v, "row {i}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_oob_panics() {
        RleInts::encode(&[1]).get(1);
    }

    #[test]
    fn scan_matches_reference() {
        let data: Vec<i64> = (0..100).map(|i| (i / 10) % 4).collect();
        let e = RleInts::encode(&data);
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            let mut got = Bitmap::zeros(data.len());
            e.scan(op, 2, &mut got);
            let want = Bitmap::from_bools(&data.iter().map(|&v| op.eval(v, 2)).collect::<Vec<_>>());
            assert_eq!(got, want, "op {op}");
        }
    }

    #[test]
    fn sum_on_compressed() {
        let data = vec![5, 5, 5, -2, -2];
        let e = RleInts::encode(&data);
        assert_eq!(e.sum(), 11);
    }

    #[test]
    fn min_max() {
        let e = RleInts::encode(&[3, 3, -7, 12, 12]);
        assert_eq!(e.min_max(), Some((-7, 12)));
    }

    #[test]
    fn size_reflects_runs_not_rows() {
        let constant = vec![9i64; 10_000];
        let e = RleInts::encode(&constant);
        assert_eq!(e.runs().len(), 1);
        assert!(e.size_bytes() < 64);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn scan_wrong_bitmap_len_panics() {
        let e = RleInts::encode(&[1, 2]);
        let mut out = Bitmap::zeros(3);
        e.scan(CmpOp::Eq, 1, &mut out);
    }
}
