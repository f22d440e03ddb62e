//! Delta chunks: the write-optimized stage between an insert and the
//! compressed main store.
//!
//! A table's delta is a list of [`DeltaChunk`]s in append order — flat,
//! uncompressed columns of a bounded stretch of rows. Exactly one chunk
//! per table is mutable (the *open* chunk inserts append to, behind the
//! table's write lock); once full it is **sealed**: wrapped in an `Arc`
//! and never written again, so snapshots share it by pointer. The
//! writer computes nothing but its cells.
//!
//! Readers see a chunk like a segment: one [`SegColumn`] view per column
//! ([`DeltaChunk::column`]), built by the first reader through the
//! merge's per-column builder and cached. A sealed chunk's view is
//! encoded and measured once for every snapshot sharing it — storage
//! maintenance, owed to the meter ([`DeltaChunk::take_unbilled`]), never
//! to the query that built it. A snapshot's private chunk (a pinned
//! prefix, a transaction's overlay) is rebuilt by every pin, so its view
//! is its cells, Plain.
//!
//! String cells are `u32` codes into the table's **delta-wide**
//! dictionary (one per string column, shared by every chunk and handed
//! to snapshots by `Arc`, copied on growth), so a predicate, a group key
//! or a join key resolves one code per query, not one per chunk; views
//! widen them to `i64`.
//!
//! Like a main segment, a sealed chunk can predate a column a flexible
//! schema grew later: it is immutable, so it is never backfilled, and
//! readers see the null sentinel for its rows.

use crate::segment::{FlatColumn, SegColumn};
use haec_columnar::dict::DictColumn;
use haec_columnar::value::{DataType, Value};
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// The delta-wide dictionaries of a table, parallel to its schema
/// columns (`Some` for string columns). A `DictColumn` without rows:
/// chunks hold the codes.
pub(crate) type DeltaDicts = Vec<Option<Arc<DictColumn>>>;

/// One column of a delta chunk: dense cells in append order (nulls as
/// the type's sentinel, recorded in the chunk's validity).
#[derive(Clone, Debug)]
pub(crate) enum ChunkCol {
    Int(Vec<i64>),
    Float(Vec<f64>),
    /// Codes into the delta-wide dictionary of the column.
    Codes(Vec<u32>),
}

impl ChunkCol {
    fn prefix(&self, n: usize) -> Self {
        match self {
            ChunkCol::Int(v) => ChunkCol::Int(v[..n].to_vec()),
            ChunkCol::Float(v) => ChunkCol::Float(v[..n].to_vec()),
            ChunkCol::Codes(v) => ChunkCol::Codes(v[..n].to_vec()),
        }
    }

    /// Bytes of one stored cell.
    fn cell_bytes(&self) -> usize {
        match self {
            ChunkCol::Int(_) | ChunkCol::Float(_) => 8,
            ChunkCol::Codes(_) => 4,
        }
    }
}

/// Plain and encoded bytes of the sealed views built but not charged
/// yet. A copy of a chunk owes nothing: the original keeps the debt.
#[derive(Debug, Default)]
struct Unbilled(AtomicUsize, AtomicUsize);

impl Clone for Unbilled {
    fn clone(&self) -> Self {
        Unbilled::default()
    }
}

/// A stretch of delta rows: one dense column per schema column known
/// when the chunk was written, their validity, and the rows' insert
/// timestamps. See the module docs for the life cycle.
#[derive(Clone, Debug)]
pub(crate) struct DeltaChunk {
    rows: usize,
    cols: Vec<ChunkCol>,
    /// Per-column validity (false = null sentinel).
    validity: Vec<Vec<bool>>,
    /// Insert timestamp of each row, ascending (timestamps are drawn
    /// under the table's write lock). Empty for a snapshot's private
    /// chunks, which nobody pins into.
    insert_ts: Vec<u64>,
    /// Each column's reader view, parallel to `cols`, built by the first
    /// reader. Only ever asked of chunks that can no longer change.
    views: Vec<OnceLock<SegColumn>>,
    unbilled: Unbilled,
}

impl DeltaChunk {
    /// An empty chunk with one column per `columns` entry and room for
    /// `capacity` rows.
    pub(crate) fn new(columns: &[(String, DataType)], capacity: usize) -> Self {
        DeltaChunk {
            rows: 0,
            cols: columns
                .iter()
                .map(|(_, dtype)| match dtype {
                    DataType::Int64 => ChunkCol::Int(Vec::with_capacity(capacity)),
                    DataType::Float64 => ChunkCol::Float(Vec::with_capacity(capacity)),
                    DataType::Str => ChunkCol::Codes(Vec::with_capacity(capacity)),
                })
                .collect(),
            validity: columns.iter().map(|_| Vec::with_capacity(capacity)).collect(),
            insert_ts: Vec::with_capacity(capacity),
            views: columns.iter().map(|_| OnceLock::new()).collect(),
            unbilled: Unbilled::default(),
        }
    }

    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Adds the column a flexible schema just grew (its dictionary, for
    /// a string column, already sits in `dicts`), backfilled with nulls
    /// for the rows already here.
    pub(crate) fn push_column(&mut self, dtype: DataType, dicts: &mut DeltaDicts) {
        let col = match dtype {
            DataType::Int64 => ChunkCol::Int(vec![0; self.rows]),
            DataType::Float64 => ChunkCol::Float(vec![0.0; self.rows]),
            DataType::Str if self.rows == 0 => ChunkCol::Codes(Vec::new()),
            DataType::Str => ChunkCol::Codes(vec![intern(&mut dicts[self.cols.len()], ""); self.rows]),
        };
        self.cols.push(col);
        self.validity.push(vec![false; self.rows]);
        self.views.push(OnceLock::new());
    }

    /// Appends one row of type-checked `values` (one per column, in
    /// column order), interning strings into `dicts`. `ts` is the row's
    /// insert timestamp (`None` in a snapshot's private chunk).
    pub(crate) fn push_row(&mut self, values: &[&Value], dicts: &mut DeltaDicts, ts: Option<u64>) {
        debug_assert_eq!(values.len(), self.cols.len(), "one value per column");
        for (idx, (col, &value)) in self.cols.iter_mut().zip(values).enumerate() {
            self.validity[idx].push(!value.is_null());
            match (col, value) {
                (ChunkCol::Int(v), Value::Int(x)) => v.push(*x),
                (ChunkCol::Int(v), Value::Null) => v.push(0),
                (ChunkCol::Float(v), Value::Float(x)) => v.push(*x),
                (ChunkCol::Float(v), Value::Int(x)) => v.push(*x as f64),
                (ChunkCol::Float(v), Value::Null) => v.push(0.0),
                (ChunkCol::Codes(v), Value::Str(s)) => v.push(intern(&mut dicts[idx], s)),
                (ChunkCol::Codes(v), Value::Null) => v.push(intern(&mut dicts[idx], "")),
                // INVARIANT: `TableSchema::check` type-checked every cell
                // against its column, and each `ChunkCol` was created
                // from that column's type.
                _ => unreachable!("the schema type-checked every cell"),
            }
        }
        self.insert_ts.extend(ts);
        self.rows += 1;
    }

    /// A private copy of the first `n` rows — what a pin takes of the
    /// one chunk its timestamp cuts through (or of the open chunk).
    pub(crate) fn prefix(&self, n: usize) -> DeltaChunk {
        DeltaChunk {
            rows: n,
            cols: self.cols.iter().map(|c| c.prefix(n)).collect(),
            validity: self.validity.iter().map(|v| v[..n].to_vec()).collect(),
            insert_ts: Vec::new(),
            views: self.cols.iter().map(|_| OnceLock::new()).collect(),
            unbilled: Unbilled::default(),
        }
    }

    /// How many of this chunk's rows were inserted at or before `ts`
    /// (always a prefix).
    pub(crate) fn visible_at(&self, ts: u64) -> usize {
        match self.insert_ts.last() {
            Some(&last) if last <= ts => self.rows,
            _ => self.insert_ts.partition_point(|&t| t <= ts),
        }
    }

    /// Insert timestamp of the last row.
    pub(crate) fn last_ts(&self) -> Option<u64> {
        self.insert_ts.last().copied()
    }

    /// The cells of integer column `idx` (`None` for other types and
    /// for a column this chunk predates).
    pub(crate) fn ints(&self, idx: usize) -> Option<&[i64]> {
        match self.cols.get(idx) {
            Some(ChunkCol::Int(v)) => Some(v),
            _ => None,
        }
    }

    /// The cells of float column `idx`.
    pub(crate) fn floats(&self, idx: usize) -> Option<&[f64]> {
        match self.cols.get(idx) {
            Some(ChunkCol::Float(v)) => Some(v),
            _ => None,
        }
    }

    /// The dictionary codes of string column `idx`.
    pub(crate) fn codes(&self, idx: usize) -> Option<&[u32]> {
        match self.cols.get(idx) {
            Some(ChunkCol::Codes(v)) => Some(v),
            _ => None,
        }
    }

    /// Rewrites the codes of string column `idx` through `f` (a merge
    /// publish compacting the delta-wide dictionary), and drops the
    /// column's view: it holds the old codes.
    pub(crate) fn map_codes(&mut self, idx: usize, mut f: impl FnMut(u32) -> u32) {
        if let Some(ChunkCol::Codes(v)) = self.cols.get_mut(idx) {
            v.iter_mut().for_each(|c| *c = f(*c));
            self.views[idx] = OnceLock::new();
        }
    }

    /// Validity of column `idx` (`None`: the chunk predates the column,
    /// every row is null).
    pub(crate) fn validity(&self, idx: usize) -> Option<&[bool]> {
        self.validity.get(idx).map(Vec::as_slice)
    }

    /// Bytes the cells of column `idx` occupy (0 for a column this chunk
    /// predates).
    pub(crate) fn column_bytes(&self, idx: usize) -> usize {
        self.cols.get(idx).map_or(0, |c| c.cell_bytes() * self.rows)
    }

    /// The reader's view of column `idx` (`None` for a column this chunk
    /// predates), built on first use and cached: encoded and measured when
    /// `sealed` (one of its table's sealed chunks), the encode owed until
    /// [`DeltaChunk::take_unbilled`]; Plain otherwise. Call it only on a
    /// chunk that can no longer change.
    pub(crate) fn column(&self, idx: usize, sealed: bool) -> Option<&SegColumn> {
        let col = self.cols.get(idx)?;
        Some(self.views[idx].get_or_init(|| {
            let cells = match col {
                ChunkCol::Int(v) => FlatColumn::Int(Cow::Borrowed(v)),
                ChunkCol::Float(v) => FlatColumn::Float(Cow::Borrowed(v)),
                ChunkCol::Codes(v) => FlatColumn::Codes(v.iter().map(|&c| i64::from(c)).collect()),
            };
            let view = SegColumn::build(cells, sealed);
            if sealed {
                self.unbilled.0.fetch_add(view.raw_bytes(self.rows), Ordering::Relaxed);
                self.unbilled.1.fetch_add(view.encoded_bytes(), Ordering::Relaxed);
            }
            view
        }))
    }

    /// Takes the plain and encoded bytes of the sealed views built since
    /// the last call, for the caller to charge as one re-encode — each
    /// view's exactly once, whichever reader built it.
    pub(crate) fn take_unbilled(&self) -> (usize, usize) {
        if self.unbilled.0.load(Ordering::Relaxed) == 0 {
            return (0, 0);
        }
        (self.unbilled.0.swap(0, Ordering::Relaxed), self.unbilled.1.swap(0, Ordering::Relaxed))
    }
}

/// The code of `s` in the delta-wide dictionary `dict`, interning it if
/// unseen. Snapshots share the dictionary by `Arc`: growth copies it
/// when one does (at most once per pin), a known string never does.
fn intern(dict: &mut Option<Arc<DictColumn>>, s: &str) -> u32 {
    let dict = dict.as_mut().expect("string column has a delta dictionary");
    match dict.code_of(s) {
        Some(code) => code,
        None => Arc::make_mut(dict).intern(s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Record, TableSchema};
    use crate::segment::{distinct_count, min_max};
    use crate::table::{Store, Table, TableSnapshot, DELTA_CHUNK_ROWS};
    use haec_columnar::encoding::{EncodedInts, Scheme};
    use haec_txn::oracle::{Timestamp, TimestampOracle};

    const C: usize = DELTA_CHUNK_ROWS;

    /// Row `i`: an integer column `a` drawn from one of three value
    /// shapes (a narrow span NDV counts in a bitset, a wide one it sorts,
    /// and the `i64` extremes), a float and a string with nulls, and —
    /// from row `evolve_at` on — the integer `b` and string `t` a
    /// flexible schema grows, so earlier chunks predate them.
    fn record(i: usize, shape: usize, evolve_at: usize) -> Record {
        let i64_ = i as i64;
        let a = match shape {
            0 => i64_ * 7 % 13 - 6,
            1 => i64_.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as i64),
            _ => [i64::MIN, i64::MAX, 3 * i64_, 0][i % 4],
        };
        let mut r = Record::new().with("f", i64_ as f64 / 3.0);
        if i % 11 != 5 {
            r.set("a", a);
        }
        if i % 7 != 3 {
            r.set("s", ["red", "", "blue", "green"][i * 5 % 4]);
        }
        if i >= evolve_at {
            r.set("b", a / 2);
            r.set("t", ["x", "y"][i % 2]);
        }
        r
    }

    /// Every column view of every chunk `t` holds is that chunk's flat
    /// cells: the same values (codes widened into the delta-wide code
    /// space), the zone `min_max` measures, and — on a sealed chunk, the
    /// only one whose view is measured — the exact distinct count and
    /// the encoding a merge would pick; a private chunk's is Plain and
    /// counts its distinct values on demand. The encode of every sealed
    /// view built here is owed exactly once.
    fn check(t: &TableSnapshot) {
        for u in t.segments().len()..t.store_count() {
            let (Store::Chunk { chunk, sealed }, _) = t.store(u) else { unreachable!("segments come first") };
            let mut owed = (0, 0);
            for idx in 0..t.schema().width() {
                // A chunk another snapshot shares may be viewed already.
                let fresh = chunk.views.get(idx).is_some_and(|v| v.get().is_none());
                let built_here = sealed && fresh;
                let Some(view) = chunk.column(idx, sealed) else {
                    assert!(chunk.validity(idx).is_none(), "only a column the chunk predates has no view");
                    continue;
                };
                let ints = match view {
                    SegColumn::Float(v) => {
                        assert_eq!(Some(v.as_slice()), chunk.floats(idx));
                        if built_here {
                            owed = (owed.0 + 8 * v.len(), owed.1 + 8 * v.len());
                        }
                        continue;
                    }
                    SegColumn::Int { .. } => chunk.ints(idx).expect("an integer column").to_vec(),
                    SegColumn::Str { .. } => {
                        chunk.codes(idx).expect("a string column").iter().map(|&c| i64::from(c)).collect()
                    }
                };
                let data = match view {
                    SegColumn::Int { data, .. } => data,
                    SegColumn::Str { codes, .. } => codes,
                    SegColumn::Float(_) => unreachable!("floats handled above"),
                };
                assert_eq!(data.decode(), ints, "column {idx}");
                let zone = min_max(&ints);
                assert_eq!(view.zone(), zone, "column {idx}");
                if sealed {
                    assert_eq!(data, &EncodedInts::auto(&ints), "column {idx}: encoded as a merge would");
                } else {
                    assert_eq!(data.scheme(), Scheme::Plain, "column {idx}: a private view is Plain");
                }
                if built_here {
                    owed = (owed.0 + 8 * ints.len(), owed.1 + data.size_bytes());
                }
                if let SegColumn::Int { ndv, .. } = view {
                    let exact = distinct_count(&ints, zone);
                    if fresh {
                        assert_eq!(
                            ndv.get().copied(),
                            sealed.then_some(exact),
                            "column {idx}: measured if sealed"
                        );
                    }
                    assert_eq!(view.count_distinct(), Some(exact), "column {idx}");
                }
            }
            assert_eq!(chunk.take_unbilled(), owed, "store {u}: owed once");
            assert_eq!(chunk.take_unbilled(), (0, 0), "store {u}: and only once");
        }
    }

    proptest::proptest! {
        #[test]
        fn views_are_the_chunk(
            n in 1usize..3 * C + 9,
            shape in 0usize..3,
            evolve_at in 0usize..3 * C + 9,
            cut in 0usize..3 * C + 9,
            pending in 0usize..4,
        ) {
            let t = Table::new("t", TableSchema::flexible());
            let oracle = TimestampOracle::new();
            let stamps: Vec<Timestamp> =
                (0..n).map(|i| t.insert(&record(i, shape, evolve_at), &oracle).unwrap().0).collect();
            // The latest state: sealed chunks and the open chunk's
            // prefix; a pin cut inside a chunk; a transaction's overlay.
            let latest = t.read();
            check(&latest);
            check(&t.pin_at(Timestamp(stamps[cut % n].0 - 1)).expect("nothing merged"));
            let overlay: Vec<Record> = (n..n + pending).map(|i| record(i, shape, evolve_at)).collect();
            check(&latest.with_pending(&overlay).unwrap());
        }
    }
}
