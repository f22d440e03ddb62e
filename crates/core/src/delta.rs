//! Delta chunks: the write-optimized stage between an insert and the
//! compressed main store.
//!
//! A table's delta is a list of [`DeltaChunk`]s in append order — flat,
//! uncompressed columns of a bounded stretch of rows. Exactly one chunk
//! per table is mutable (the *open* chunk inserts append to, behind the
//! table's write lock); once full it is **sealed**: wrapped in an `Arc`
//! and never written again, so snapshots share it by pointer and the
//! facts readers derive from it — per integer column min, max and exact
//! distinct count — are computed once, by the first reader that asks,
//! and cached in the chunk ([`DeltaChunk::int_stats`]). The writer never
//! computes a statistic.
//!
//! String cells are `u32` codes into the table's **delta-wide**
//! dictionary (one per string column, shared by every chunk and handed
//! to snapshots by `Arc`, copied on growth), so a predicate, a group key
//! or a join key resolves one code per query, not one per chunk.
//!
//! Like a main segment, a sealed chunk can predate a column a flexible
//! schema grew later: it is immutable, so it is never backfilled, and
//! readers see the null sentinel for its rows.

use crate::segment::{distinct_count, min_max};
use haec_columnar::dict::DictColumn;
use haec_columnar::value::{DataType, Value};
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

/// Statistics of one integer column of one chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct IntStats {
    pub(crate) min: i64,
    pub(crate) max: i64,
    /// Exact distinct-value count.
    pub(crate) ndv: u64,
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
    /// Lazily computed statistics, parallel to `cols`. Only ever asked
    /// of chunks that can no longer change.
    stats: Vec<OnceLock<Option<IntStats>>>,
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
            stats: columns.iter().map(|_| OnceLock::new()).collect(),
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
        self.stats.push(OnceLock::new());
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
            stats: self.cols.iter().map(|_| OnceLock::new()).collect(),
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
    /// publish compacting the delta-wide dictionary).
    pub(crate) fn map_codes(&mut self, idx: usize, mut f: impl FnMut(u32) -> u32) {
        if let Some(ChunkCol::Codes(v)) = self.cols.get_mut(idx) {
            v.iter_mut().for_each(|c| *c = f(*c));
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

    /// Min, max and exact distinct count of integer column `idx` —
    /// computed on first use and cached; `None` for an empty chunk and
    /// for anything but an integer column this chunk holds. Call it only
    /// on a chunk that can no longer change (sealed, or private to a
    /// snapshot).
    pub(crate) fn int_stats(&self, idx: usize) -> Option<IntStats> {
        let values = self.ints(idx)?;
        *self.stats[idx].get_or_init(|| {
            let zone = min_max(values);
            zone.map(|(min, max)| IntStats { min, max, ndv: distinct_count(values, zone) })
        })
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
