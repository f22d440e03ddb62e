//! Lightweight compression schemes and the scheme-agnostic
//! [`EncodedInts`] wrapper.
//!
//! The shipping-decision experiment (E3) and the compression
//! microbenchmark (E16) both work through this module: encode a column,
//! inspect the [`CompressionStats`], scan it without decompression.
//!
//! Sequential reads are **block-at-a-time**: [`EncodedInts::blocks`]
//! hands out [`BLOCK_ROWS`] decoded rows per call — a sub-slice of a
//! Plain column, a fill from RLE runs, one word-aligned bit-unpack for
//! FOR, one unpack plus prefix sum for Delta (no unpack when its
//! deltas are all equal) — so the scheme is dispatched once per 64 rows
//! and the row loops over a block are plain slice loops.
//! [`EncodedInts::iter`] is a cursor over those blocks, and
//! [`EncodedInts::scan`] compares each block into one 64-bit match word
//! of the output [`Bitmap`], with the operator resolved once per call.
//! Positioned reads stay per row: [`EncodedInts::get`] everywhere, and
//! [`EncodedInts::cursor`] on every scheme but a Delta column of
//! unequal deltas, whose cursor holds one decoded block and skips
//! forward a block at a time.

pub mod bitpack;
pub mod delta;
pub mod foref;
pub mod rle;

use crate::bitmap::Bitmap;
use crate::value::CmpOp;
use delta::DeltaInts;
use foref::ForInts;
use rle::RleInts;
use std::fmt;

/// Rows per decoded block: one [`Bitmap`] word of match bits, and — 64
/// values of `width` bits being exactly `width` words — always a
/// word-aligned stretch of a bit-packed column.
pub const BLOCK_ROWS: usize = 64;

/// Expands `$body` once per comparison operator with `$hit` bound to the
/// predicate `x op $lit`, so the block loop inside is compiled per
/// operator and the six-way operator match runs once per scan, not once
/// per row.
macro_rules! per_op {
    ($op:expr, $lit:expr, |$hit:ident| $body:expr) => {{
        let lit = $lit;
        per_op!(@match $op, lit, $hit, $body; Eq ==, Ne !=, Lt <, Le <=, Gt >, Ge >=)
    }};
    (@match $op:expr, $lit:ident, $hit:ident, $body:expr; $($variant:ident $cmp:tt),*) => {
        match $op {
            $(CmpOp::$variant => {
                let $hit = |x| x $cmp $lit;
                $body
            })*
        }
    };
}
pub(crate) use per_op;

/// The match word of one block: bit `j` is `hit(block[j])`. A full
/// block is folded as eight independent bytes of eight lanes, which
/// keeps the shift-or dependency chains short; the ragged last block of
/// a column takes the plain loop.
#[inline]
pub(crate) fn match_word<T: Copy>(block: &[T], hit: impl Fn(T) -> bool) -> u64 {
    match <&[T; BLOCK_ROWS]>::try_from(block) {
        Ok(full) => full.chunks_exact(8).enumerate().fold(0, |word, (g, lanes)| {
            let byte = lanes.iter().enumerate().fold(0, |byte, (j, &x)| byte | (hit(x) as u64) << j);
            word | byte << (8 * g)
        }),
        Err(_) => block.iter().enumerate().fold(0, |word, (j, &x)| word | (hit(x) as u64) << j),
    }
}

/// The available integer encodings.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Uncompressed `Vec<i64>`.
    Plain,
    /// Run-length encoding.
    Rle,
    /// Frame-of-reference bit packing.
    For,
    /// Delta: each delta's residual over the smallest, bit-packed.
    Delta,
}

impl Scheme {
    /// All schemes in canonical order.
    pub const ALL: [Scheme; 4] = [Scheme::Plain, Scheme::Rle, Scheme::For, Scheme::Delta];
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Scheme::Plain => "plain",
            Scheme::Rle => "rle",
            Scheme::For => "for",
            Scheme::Delta => "delta",
        };
        f.write_str(s)
    }
}

/// An integer column in one of the supported encodings.
///
/// ```
/// use haec_columnar::encoding::{EncodedInts, Scheme};
/// let data = vec![5i64; 1000];
/// let e = EncodedInts::auto(&data);
/// assert_eq!(e.scheme(), Scheme::For); // constant data → width-0 FOR wins
/// assert_eq!(e.decode(), data);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum EncodedInts {
    /// Uncompressed.
    Plain(Vec<i64>),
    /// Run-length encoded.
    Rle(RleInts),
    /// Frame-of-reference encoded.
    For(ForInts),
    /// Delta encoded.
    Delta(DeltaInts),
}

impl EncodedInts {
    /// Encodes with an explicit scheme.
    pub fn encode(data: &[i64], scheme: Scheme) -> Self {
        match scheme {
            Scheme::Plain => EncodedInts::Plain(data.to_vec()),
            Scheme::Rle => EncodedInts::Rle(RleInts::encode(data)),
            Scheme::For => EncodedInts::For(ForInts::encode(data)),
            Scheme::Delta => EncodedInts::Delta(DeltaInts::encode(data)),
        }
    }

    /// Encodes with every scheme and keeps the smallest — the
    /// storage-layer default.
    pub fn auto(data: &[i64]) -> Self {
        Scheme::ALL
            .iter()
            .map(|&s| EncodedInts::encode(data, s))
            .min_by_key(EncodedInts::size_bytes)
            .expect("at least one scheme")
    }

    /// The scheme this column is encoded with.
    pub fn scheme(&self) -> Scheme {
        match self {
            EncodedInts::Plain(_) => Scheme::Plain,
            EncodedInts::Rle(_) => Scheme::Rle,
            EncodedInts::For(_) => Scheme::For,
            EncodedInts::Delta(_) => Scheme::Delta,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            EncodedInts::Plain(v) => v.len(),
            EncodedInts::Rle(e) => e.len(),
            EncodedInts::For(e) => e.len(),
            EncodedInts::Delta(e) => e.len(),
        }
    }

    /// Returns `true` if the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload size in bytes.
    pub fn size_bytes(&self) -> usize {
        match self {
            EncodedInts::Plain(v) => v.len() * 8,
            EncodedInts::Rle(e) => e.size_bytes(),
            EncodedInts::For(e) => e.size_bytes(),
            EncodedInts::Delta(e) => e.size_bytes(),
        }
    }

    /// Random access to row `i` — genuine point access. The cost depends
    /// on the scheme: Plain and FOR index directly (O(1)), RLE bisects
    /// its runs (O(log runs)), Delta computes `first + i × step` when its
    /// deltas are all equal (O(1)) and otherwise seeks from the last
    /// checkpoint a 64-row block at a time (up to 16 block unpacks).
    /// Readers of a *sequence* of rows use [`EncodedInts::cursor`]
    /// instead.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> i64 {
        match self {
            EncodedInts::Plain(v) => v[i],
            EncodedInts::Rle(e) => e.get(i),
            EncodedInts::For(e) => e.get(i),
            EncodedInts::Delta(e) => e.get(i),
        }
    }

    /// A forward cursor for reading a sequence of rows:
    /// [`EncodedCursor::at`] returns what [`EncodedInts::get`] returns
    /// for any row, in any order, but keeps its place between calls —
    /// Delta holds its last decoded 64-row block and steps forward block
    /// by block (unless its deltas are all equal: then it is direct),
    /// RLE advances from the run it last landed in, Plain and FOR stay
    /// direct — so it is cheapest when rows are non-decreasing, which
    /// every hit list the engine produces is. Safe to create on an empty
    /// column.
    pub fn cursor(&self) -> EncodedCursor<'_> {
        EncodedCursor(match self {
            EncodedInts::Plain(v) => CursorInner::Plain(v),
            EncodedInts::Rle(e) => CursorInner::Rle(e.cursor()),
            EncodedInts::For(e) => CursorInner::For(e),
            EncodedInts::Delta(e) => CursorInner::Delta(e.cursor()),
        })
    }

    /// Decodes to a fresh vector.
    pub fn decode(&self) -> Vec<i64> {
        match self {
            EncodedInts::Plain(v) => v.clone(),
            EncodedInts::Rle(e) => e.decode(),
            EncodedInts::For(e) => e.decode(),
            EncodedInts::Delta(e) => e.decode(),
        }
    }

    /// Block-at-a-time sequential decode: a pull-style reader that
    /// hands out the column [`BLOCK_ROWS`] rows per [`Blocks::next`]
    /// call, whatever the scheme, without materializing the column —
    /// the primitive under [`EncodedInts::iter`] and
    /// [`EncodedInts::scan`], and what segment-wise aggregation pushdown
    /// folds over.
    pub fn blocks(&self) -> Blocks<'_> {
        let source = match self {
            EncodedInts::Plain(v) => BlockSource::Plain(v),
            EncodedInts::Rle(e) => BlockSource::Rle { runs: e.runs(), used: 0 },
            EncodedInts::For(e) => BlockSource::For(e),
            EncodedInts::Delta(e) => BlockSource::Delta { col: e, carry: e.first() },
        };
        Blocks { source, row: 0, len: self.len(), filled: 0, buf: [0; BLOCK_ROWS], packed: [0; BLOCK_ROWS] }
    }

    /// Streaming sequential decode: yields every row in order, as a
    /// cursor over [`EncodedInts::blocks`] — one block decoded at a
    /// time, O(1) extra space for every scheme.
    pub fn iter(&self) -> EncodedIter<'_> {
        EncodedIter { blocks: self.blocks(), pos: 0 }
    }

    /// Evaluates `value op literal` into `out`, one 64-bit match word
    /// per block. RLE evaluates once per run and FOR compares packed
    /// offsets, both without reconstructing a value; Plain compares its
    /// slices in place; Delta prefix-sums block by block without
    /// materializing the column (and fills each block arithmetically,
    /// with no unpack, when its deltas are all equal).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn scan(&self, op: CmpOp, literal: i64, out: &mut Bitmap) {
        assert_eq!(out.len(), self.len(), "output bitmap length mismatch");
        match self {
            EncodedInts::Rle(e) => e.scan(op, literal, out),
            EncodedInts::For(e) => e.scan(op, literal, out),
            EncodedInts::Plain(_) | EncodedInts::Delta(_) => {
                let mut blocks = self.blocks();
                per_op!(op, literal, |hit| {
                    for word_idx in 0..self.len().div_ceil(BLOCK_ROWS) {
                        out.set_word(word_idx, match_word(blocks.next(), hit));
                    }
                });
            }
        }
    }

    /// Minimum and maximum over all rows.
    pub fn min_max(&self) -> Option<(i64, i64)> {
        match self {
            EncodedInts::Plain(v) => {
                let min = v.iter().copied().min()?;
                let max = v.iter().copied().max()?;
                Some((min, max))
            }
            EncodedInts::Rle(e) => e.min_max(),
            EncodedInts::For(e) => e.min_max(),
            EncodedInts::Delta(e) => e.min_max(),
        }
    }

    /// Compression statistics relative to plain encoding.
    pub fn stats(&self) -> CompressionStats {
        let raw = self.len() * 8;
        CompressionStats { scheme: self.scheme(), raw_bytes: raw, encoded_bytes: self.size_bytes() }
    }

    /// Resolves `value op literal` to the contiguous matching row range
    /// `[lo, hi)` by binary search, assuming the rows are sorted
    /// ascending. RLE searches its run boundaries (the boundaries *are*
    /// the sorted-layout index); other schemes read each probe through
    /// one [`EncodedInts::cursor`] per call, so a Delta search decodes a
    /// block it already holds once, not once per probe (and none at all
    /// when its deltas are all equal). Each probe
    /// increments `probes` so callers can bill the O(log n) touch
    /// honestly instead of charging a full-column scan.
    ///
    /// Returns `None` for [`CmpOp::Ne`], whose matches are not
    /// contiguous. The caller must guarantee sortedness — the result is
    /// meaningless on unsorted data.
    pub fn sorted_range(&self, op: CmpOp, literal: i64, probes: &mut u64) -> Option<(usize, usize)> {
        let n = self.len();
        let mut cursor = self.cursor();
        // First row with value >= literal (after=false) or > literal
        // (after=true).
        let mut bound = |after: bool| -> usize {
            let below = |v: i64| if after { v <= literal } else { v < literal };
            match self {
                EncodedInts::Rle(e) => {
                    let runs = e.runs();
                    let run = bisect(runs.len(), probes, |mid| below(runs[mid].value));
                    runs.get(run).map_or(n, |r| r.start)
                }
                _ => bisect(n, probes, |mid| below(cursor.at(mid))),
            }
        };
        match op {
            CmpOp::Eq => {
                let lo = bound(false);
                let hi = bound(true);
                Some((lo, hi))
            }
            CmpOp::Lt => Some((0, bound(false))),
            CmpOp::Le => Some((0, bound(true))),
            CmpOp::Gt => Some((bound(true), n)),
            CmpOp::Ge => Some((bound(false), n)),
            CmpOp::Ne => None,
        }
    }
}

/// The first of `0..n` at which `below` is false, for a `below` that
/// holds on a prefix of `0..n`: a binary search that adds one to
/// `probes` per call of `below`.
fn bisect(n: usize, probes: &mut u64, mut below: impl FnMut(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        *probes += 1;
        if below(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Block reader over any [`EncodedInts`] (see [`EncodedInts::blocks`]).
#[derive(Clone, Debug)]
pub struct Blocks<'a> {
    source: BlockSource<'a>,
    /// Rows handed out (or skipped) so far.
    row: usize,
    len: usize,
    /// Rows of the current block: the last one [`Blocks::next`] decoded.
    filled: usize,
    /// The current block of every scheme but Plain, which lends.
    buf: [i64; BLOCK_ROWS],
    /// Scratch for the bit-unpacked form of a FOR or Delta block.
    packed: [u64; BLOCK_ROWS],
}

#[derive(Clone, Debug)]
enum BlockSource<'a> {
    Plain(&'a [i64]),
    /// The runs not yet exhausted, and the rows already used of the
    /// first of them.
    Rle {
        runs: &'a [rle::Run],
        used: usize,
    },
    For(&'a ForInts),
    /// `carry`: the value of row `row` (see [`DeltaInts::decode_block`]).
    Delta {
        col: &'a DeltaInts,
        carry: i64,
    },
}

impl Blocks<'_> {
    /// Rows not yet handed out.
    pub fn remaining(&self) -> usize {
        self.len - self.row
    }

    /// Decodes and returns the next block: [`BLOCK_ROWS`] rows, fewer in
    /// the column's last block, empty at the end. A Plain column lends
    /// its own rows; every other scheme decodes into the reader's
    /// buffer.
    #[allow(clippy::should_implement_trait)] // lends from `self`: not an `Iterator`
    pub fn next(&mut self) -> &[i64] {
        self.advance(true);
        self.current()
    }

    /// Steps over the next block without handing it out — what a caller
    /// does with a block none of whose rows it selected. Free on Plain
    /// and FOR (blocks are addressed directly) and one run advance on
    /// RLE; Delta still sums the block's deltas to carry its running
    /// value — one unpack and a fold, no rows written, and one product
    /// when its deltas are all equal. [`Blocks::current`] is empty
    /// afterwards.
    pub fn skip(&mut self) {
        self.advance(false);
    }

    /// The block the last [`Blocks::next`] returned (empty before the
    /// first call, after [`Blocks::skip`] and at the end).
    pub fn current(&self) -> &[i64] {
        match self.source {
            BlockSource::Plain(v) => &v[self.row - self.filled..self.row],
            _ => &self.buf[..self.filled],
        }
    }

    fn advance(&mut self, decode: bool) {
        let n = self.remaining().min(BLOCK_ROWS);
        let block = self.row / BLOCK_ROWS;
        self.row += n;
        self.filled = if decode { n } else { 0 };
        if n == 0 {
            return;
        }
        match &mut self.source {
            BlockSource::Plain(_) => {}
            BlockSource::Rle { runs, used } => {
                let mut at = 0;
                while at < n {
                    let take = (runs[0].len - *used).min(n - at);
                    if decode {
                        self.buf[at..at + take].fill(runs[0].value);
                    }
                    at += take;
                    *used += take;
                    if *used == runs[0].len {
                        (*runs, *used) = (&runs[1..], 0);
                    }
                }
            }
            BlockSource::For(col) if decode => {
                col.decode_block(block, &mut self.packed, &mut self.buf);
            }
            BlockSource::For(_) => {}
            BlockSource::Delta { col, carry } if decode => {
                col.decode_block(block, carry, &mut self.packed, &mut self.buf);
            }
            BlockSource::Delta { col, carry } => {
                *carry = col.seek(block, *carry, block + 1, &mut self.packed)
            }
        }
    }
}

/// Streaming decoder over any [`EncodedInts`] (see
/// [`EncodedInts::iter`]): a cursor over the column's [`Blocks`].
#[derive(Clone, Debug)]
pub struct EncodedIter<'a> {
    blocks: Blocks<'a>,
    /// Rows of the current block already yielded.
    pos: usize,
}

impl Iterator for EncodedIter<'_> {
    type Item = i64;

    #[inline]
    fn next(&mut self) -> Option<i64> {
        if self.pos == self.blocks.filled {
            self.pos = 0;
            if self.blocks.next().is_empty() {
                return None;
            }
        }
        let v = self.blocks.current()[self.pos];
        self.pos += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.blocks.remaining() + self.blocks.filled - self.pos;
        (left, Some(left))
    }

    /// Folds block by block: the row loop over a decoded block is a
    /// plain slice loop, with no per-row cursor bookkeeping.
    fn fold<B, F: FnMut(B, i64) -> B>(mut self, init: B, mut f: F) -> B {
        let mut acc = self.blocks.current()[self.pos..].iter().fold(init, |acc, &v| f(acc, v));
        loop {
            let block = self.blocks.next();
            if block.is_empty() {
                return acc;
            }
            acc = block.iter().fold(acc, |acc, &v| f(acc, v));
        }
    }
}

impl ExactSizeIterator for EncodedIter<'_> {}

/// Forward cursor over any [`EncodedInts`] (see
/// [`EncodedInts::cursor`]): O(1) state for every scheme — on a Delta
/// column of unequal deltas, one decoded 64-row block.
#[derive(Clone, Debug)]
pub struct EncodedCursor<'a>(CursorInner<'a>);

#[derive(Clone, Debug)]
enum CursorInner<'a> {
    Plain(&'a [i64]),
    Rle(rle::RleCursor<'a>),
    For(&'a ForInts),
    Delta(delta::DeltaCursor<'a>),
}

impl EncodedCursor<'_> {
    /// The value of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn at(&mut self, i: usize) -> i64 {
        match &mut self.0 {
            CursorInner::Plain(v) => v[i],
            CursorInner::Rle(c) => c.at(i),
            CursorInner::For(e) => e.get(i),
            CursorInner::Delta(c) => c.at(i),
        }
    }
}

/// Size accounting for one encoded column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompressionStats {
    /// The encoding scheme.
    pub scheme: Scheme,
    /// Plain (8 B/row) size.
    pub raw_bytes: usize,
    /// Encoded size.
    pub encoded_bytes: usize,
}

impl CompressionStats {
    /// Compression ratio (>1 means smaller than plain).
    pub fn ratio(&self) -> f64 {
        if self.encoded_bytes == 0 {
            if self.raw_bytes == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.raw_bytes as f64 / self.encoded_bytes as f64
        }
    }
}

impl fmt::Display for CompressionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} -> {} bytes ({:.2}x)",
            self.scheme,
            self.raw_bytes,
            self.encoded_bytes,
            self.ratio()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn datasets() -> Vec<(&'static str, Vec<i64>)> {
        vec![
            ("constant", vec![7; 777]),
            ("sorted-runs", (0..1000).map(|i| i / 50).collect()),
            ("narrow-range", (0..1000).map(|i| 10_000 + (i * 37) % 64).collect()),
            ("timestamps", (0..1000).map(|i| 1_600_000_000 + i * 30).collect()),
            ("random-ish", (0..1000).map(|i: i64| i.wrapping_mul(2_654_435_761) ^ (i << 13)).collect()),
            ("empty", vec![]),
            ("negatives", (-500..500).collect()),
        ]
    }

    #[test]
    fn all_schemes_round_trip_all_datasets() {
        for (name, data) in datasets() {
            for scheme in Scheme::ALL {
                let e = EncodedInts::encode(&data, scheme);
                assert_eq!(e.decode(), data, "{name} / {scheme}");
                assert_eq!(e.len(), data.len(), "{name} / {scheme}");
            }
        }
    }

    #[test]
    fn sorted_range_matches_linear_scan_on_sorted_data() {
        let sets: Vec<Vec<i64>> = vec![
            vec![],
            vec![5],
            (0..1000).map(|i| i / 50).collect(), // long duplicate runs
            (0..1000).collect(),                 // unique keys
            (-500..500).map(|i| i / 3).collect(),
        ];
        let ops = [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        for data in &sets {
            for scheme in Scheme::ALL {
                let e = EncodedInts::encode(data, scheme);
                for &lit in &[-200i64, -1, 0, 3, 19, 999, 1_000_000] {
                    for op in ops {
                        let mut probes = 0u64;
                        let (lo, hi) = e.sorted_range(op, lit, &mut probes).expect("contiguous op");
                        // The range is exactly the rows a full scan matches.
                        let want: Vec<usize> = data
                            .iter()
                            .enumerate()
                            .filter(|&(_, &v)| op.eval(v, lit))
                            .map(|(i, _)| i)
                            .collect();
                        let got: Vec<usize> = (lo..hi).collect();
                        assert_eq!(got, want, "{:?} {op:?} {lit}", e.scheme());
                        // Honest O(log n) probe accounting.
                        if !data.is_empty() {
                            let log = (data.len() as f64).log2().ceil() as u64 + 1;
                            assert!(probes <= 2 * log + 2, "{probes} probes for n={}", data.len());
                        }
                    }
                }
                let mut probes = 0u64;
                assert_eq!(e.sorted_range(CmpOp::Ne, 3, &mut probes), None);
            }
        }
    }

    #[test]
    fn auto_picks_smallest() {
        for (name, data) in datasets() {
            let auto = EncodedInts::auto(&data);
            for scheme in Scheme::ALL {
                let e = EncodedInts::encode(&data, scheme);
                assert!(
                    auto.size_bytes() <= e.size_bytes(),
                    "{name}: auto({}) {} > {scheme} {}",
                    auto.scheme(),
                    auto.size_bytes(),
                    e.size_bytes()
                );
            }
        }
    }

    #[test]
    fn auto_prefers_expected_schemes() {
        // Constant data: width-0 frame-of-reference stores just the
        // reference (8 bytes), beating even a single RLE run.
        assert_eq!(EncodedInts::auto(&vec![3i64; 1000]).scheme(), Scheme::For);
        // Large-magnitude ticking timestamps: only delta gets them small.
        let ts: Vec<i64> = (0..10_000).map(|i| 1_600_000_000_000 + i).collect();
        assert_eq!(EncodedInts::auto(&ts).scheme(), Scheme::Delta);
        // Low-cardinality long runs with large spread: RLE wins.
        let runs: Vec<i64> = (0..10_000).map(|i| ((i / 1000) * 1_000_000_007) % 97).collect();
        assert_eq!(EncodedInts::auto(&runs).scheme(), Scheme::Rle);
    }

    #[test]
    fn scan_agrees_across_schemes() {
        for (name, data) in datasets() {
            if data.is_empty() {
                continue;
            }
            let lit = data[data.len() / 2];
            for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
                let reference =
                    Bitmap::from_bools(&data.iter().map(|&v| op.eval(v, lit)).collect::<Vec<_>>());
                for scheme in Scheme::ALL {
                    let e = EncodedInts::encode(&data, scheme);
                    let mut got = Bitmap::zeros(data.len());
                    e.scan(op, lit, &mut got);
                    assert_eq!(got, reference, "{name} / {scheme} / {op}");
                }
            }
        }
    }

    #[test]
    fn streaming_iter_matches_decode_across_schemes() {
        for (name, data) in datasets() {
            for scheme in Scheme::ALL {
                let e = EncodedInts::encode(&data, scheme);
                assert_eq!(e.iter().collect::<Vec<_>>(), data, "{name} / {scheme}");
                assert_eq!(e.iter().len(), data.len(), "{name} / {scheme} exact size");
                // Partial consumption keeps the size hint honest.
                let mut it = e.iter();
                let taken = data.len() / 3;
                for _ in 0..taken {
                    it.next();
                }
                assert_eq!(it.len(), data.len() - taken, "{name} / {scheme} after partial");
            }
        }
    }

    #[test]
    fn min_max_agrees() {
        for (name, data) in datasets() {
            let want = data.iter().copied().min().zip(data.iter().copied().max());
            for scheme in Scheme::ALL {
                let e = EncodedInts::encode(&data, scheme);
                assert_eq!(e.min_max(), want, "{name} / {scheme}");
            }
        }
    }

    #[test]
    fn get_agrees() {
        for (name, data) in datasets() {
            for scheme in Scheme::ALL {
                let e = EncodedInts::encode(&data, scheme);
                for i in (0..data.len()).step_by(97.max(data.len() / 13).max(1)) {
                    assert_eq!(e.get(i), data[i], "{name} / {scheme} / row {i}");
                }
            }
        }
    }

    /// Columns long enough to span several Delta checkpoint blocks and
    /// many RLE runs, one in the shape each scheme is picked for.
    fn long_datasets() -> Vec<(&'static str, Vec<i64>)> {
        vec![
            (
                "long-plain",
                (0..3500).map(|i: i64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as i64)).collect(),
            ),
            ("long-runs", (0..3500).map(|i| (i / 37) % 11).collect()),
            ("long-narrow", (0..3500).map(|i| 500 + (i * 131) % 1000).collect()),
            ("long-ticks", (0..3500).map(|i| 1_600_000_000_000 + i * 3 - (i % 5)).collect()),
        ]
    }

    /// Index sequences a cursor must survive: ascending at several
    /// strides (1 500 skips whole checkpoint blocks), repeats, backward
    /// jumps and the checkpoint edges.
    fn index_sequences(len: usize) -> Vec<Vec<usize>> {
        let mut seqs: Vec<Vec<usize>> =
            [1usize, 7, 50, 1500].iter().map(|&stride| (0..len).step_by(stride).collect()).collect();
        seqs.push((0..len).step_by(7).flat_map(|i| [i, i, i]).collect());
        seqs.push((0..len).rev().step_by(13).collect());
        // Forward, then back before the current row, block and run.
        seqs.push((0..len).step_by(50).flat_map(|i| [i, i / 2, i.saturating_sub(1), i]).collect());
        let edges = [1023usize, 1024, 1025, len.saturating_sub(1), 0, 2047, 2048, 1024, 1023];
        seqs.push(edges.iter().copied().filter(|&i| i < len).collect());
        seqs
    }

    #[test]
    fn cursor_agrees_with_get() {
        for (name, data) in datasets().into_iter().chain(long_datasets()) {
            for scheme in Scheme::ALL {
                let e = EncodedInts::encode(&data, scheme);
                for (s, seq) in index_sequences(data.len()).iter().enumerate() {
                    let mut cur = e.cursor();
                    for &i in seq {
                        assert_eq!(cur.at(i), e.get(i), "{name} / {scheme} / sequence {s} / row {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn cursor_out_of_bounds_panics_like_get() {
        for data in [vec![], vec![4i64, 4, 9]] {
            for scheme in Scheme::ALL {
                let e = EncodedInts::encode(&data, scheme);
                // Creating a cursor never touches the data — empty
                // columns included.
                let mut cur = e.cursor();
                let len = data.len();
                let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cur.at(len)));
                assert!(got.is_err(), "{scheme}: at({len}) must panic");
                assert!(std::panic::catch_unwind(|| e.get(len)).is_err(), "{scheme}: get({len})");
            }
        }
    }

    #[test]
    fn stats_ratio() {
        let e = EncodedInts::encode(&vec![1i64; 1000], Scheme::Rle);
        let s = e.stats();
        assert!(s.ratio() > 100.0);
        assert!(format!("{s}").contains("rle"));
        let empty = EncodedInts::encode(&[], Scheme::Plain).stats();
        assert_eq!(empty.ratio(), 1.0);
    }

    #[test]
    fn scheme_display() {
        assert_eq!(format!("{}", Scheme::For), "for");
    }
}
