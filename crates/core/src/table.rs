//! In-memory tables: segmented main/delta columnar storage behind a
//! schema, versioned for MVCC snapshot reads.
//!
//! A [`Table`] is the paper's two-store design: an immutable, compressed
//! **main** (a vector of [`Segment`]s, each ≤ [`SEGMENT_ROWS`] rows,
//! int columns as [`haec_columnar::encoding::EncodedInts`], strings as
//! dictionary codes, per-column zone maps) plus a flat, append-only
//! **delta** tail that absorbs inserts at `Vec::push` speed. An explicit
//! [`Table::merge`] compacts the delta into new main segments and
//! reports the work done as [`MergeStats`] so the caller can charge it
//! to the energy meter; the `Database` layer triggers it automatically
//! once the delta exceeds [`Table::merge_threshold`].
//!
//! Concurrency model: the `Table` itself is a thread-safe handle.
//! Writers append under a short write lock, drawing one timestamp per
//! row from the shared [`TimestampOracle`]; readers pin a
//! [`TableSnapshot`] — an `Arc` to the current immutable main version
//! plus a copy of the delta prefix visible at their timestamp — and
//! then never touch the lock again. [`Table::merge`] runs in two
//! phases: it compresses the delta **outside** all locks and then
//! publishes the new segment set as an atomic `Arc` swap, so readers
//! are never blocked for the duration of a merge; old versions are
//! reclaimed epoch-style when the last snapshot pinning them drops.
//!
//! Row identity is stable: global row ids are insertion order, segments
//! cover `[0, main_rows)` in merge order and the delta covers
//! `[main_rows, rows)` — so secondary indexes survive merges untouched.

use crate::error::{DbError, DbResult};
use crate::schema::{Record, SchemaMode, TableSchema};
use crate::segment::{MainSet, MergeStats, SegColumn, Segment, SEGMENT_ROWS};
use haec_columnar::chunk::Chunk;
use haec_columnar::column::Column;
use haec_columnar::dict::DictColumn;
use haec_columnar::value::{DataType, Value};
use haec_planner::access::ZoneMapMeta;
use haec_txn::oracle::{Timestamp, TimestampOracle};
use parking_lot::{Mutex, RwLock};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Hit-density crossover between the two ways to read a compressed
/// segment column: below one hit per `SPARSE_HIT_RATIO` rows, a gather
/// reads the hits alone through a forward cursor
/// (`EncodedInts::cursor`): direct on Plain and FOR, and on Delta and
/// RLE a resume from the previous hit — the delta unpacks or runs
/// *between* two hits, never `EncodedInts::get`'s re-walk from the
/// checkpoint or bisection per cell. At or above the crossover,
/// stream-decoding the whole segment once wins, because a sequential
/// decode step costs roughly an eighth of a positioned read on the
/// bit-packed schemes and prefetches perfectly. Every sparse-vs-dense
/// branch in projection, gather, join-key extraction and aggregation
/// pushdown tests the same 1:8 crossover via [`sparse_hits`], so
/// execution and billing can never disagree on which path ran.
pub const SPARSE_HIT_RATIO: usize = 8;

/// Returns `true` when `hits` out of `rows` is below the 1-in-
/// [`SPARSE_HIT_RATIO`] density — read per hit (forward cursor), not
/// per segment (stream-decode).
pub fn sparse_hits(hits: usize, rows: usize) -> bool {
    hits * SPARSE_HIT_RATIO < rows
}

/// Where a global row id physically lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowLoc {
    /// In main segment `seg` at local offset `local`.
    Main {
        /// Segment index.
        seg: usize,
        /// Row offset within the segment.
        local: usize,
    },
    /// In the delta tail at offset `local`.
    Delta {
        /// Row offset within the delta.
        local: usize,
    },
}

/// One store's share of an ascending position list (see
/// `TableSnapshot::for_each_store`); `hits: None` = every row of the
/// store.
enum StoreHits<'p> {
    /// Positions landing in main segment `seg` (first global row `base`).
    Main {
        /// Segment index.
        seg: usize,
        /// First global row id of the segment.
        base: usize,
        /// The positions (global row ids), or `None` for all rows.
        hits: Option<&'p [u32]>,
    },
    /// Positions landing in the delta tail.
    Delta {
        /// The positions (global row ids), or `None` for all rows.
        hits: Option<&'p [u32]>,
    },
}

/// A positional row list (any order, duplicates allowed) arranged for
/// an ascending visit (see [`TableSnapshot::gather_rows`]).
struct AscendingRows<'r> {
    /// The rows in non-decreasing order.
    rows: Cow<'r, [u32]>,
    /// `slots[k]`: the position `rows[k]` has in the original list.
    /// `None` when that list was already non-decreasing (`k` itself).
    slots: Option<Vec<u32>>,
}

impl<'r> AscendingRows<'r> {
    fn of(rows: &'r [u32]) -> Self {
        if rows.windows(2).all(|w| w[0] <= w[1]) {
            return AscendingRows { rows: Cow::Borrowed(rows), slots: None };
        }
        assert!(rows.len() <= u32::MAX as usize, "row list longer than the row-id space");
        // Argsort as one sort of packed `(row, position)` keys.
        let mut keyed: Vec<u64> = rows.iter().zip(0u64..).map(|(&r, k)| (r as u64) << 32 | k).collect();
        keyed.sort_unstable();
        AscendingRows {
            rows: keyed.iter().map(|&x| (x >> 32) as u32).collect(),
            slots: Some(keyed.iter().map(|&x| x as u32).collect()),
        }
    }

    /// The `(store-local row, output position)` of `rows[range]`, for a
    /// store whose first global row id is `base`.
    fn cells(&self, range: Range<usize>, base: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        range.map(move |k| (self.rows[k] as usize - base, self.slots.as_ref().map_or(k, |s| s[k] as usize)))
    }
}

/// The mutable state of a table, guarded by the handle's `RwLock`.
#[derive(Debug)]
struct TableState {
    schema: TableSchema,
    /// The current immutable main version; swapped wholesale at merge.
    main: Arc<MainSet>,
    /// Flat write-optimized tail (one dense column per schema column).
    delta: Vec<Column>,
    /// Per-column validity of the delta (false = null sentinel).
    delta_validity: Vec<Vec<bool>>,
    /// Insert timestamp of each delta row, in append order. Timestamps
    /// are drawn from the database's shared oracle *under the write
    /// lock*, so this vector is always sorted ascending: timestamp
    /// order and append order agree, and "rows visible at ts" is
    /// always a prefix.
    insert_ts: Vec<u64>,
    rows: usize,
}

/// A named table: a thread-safe handle over compressed main segments +
/// flat delta + validity tracking.
///
/// All reads go through a [`TableSnapshot`] (see [`Table::snapshot`],
/// [`Table::pin_at`], [`Table::read`]); writes ([`Table::insert`],
/// [`Table::merge`]) take `&self` and synchronize internally, so a
/// `Table` can be shared across threads behind an `Arc`.
#[derive(Debug)]
pub struct Table {
    name: String,
    inner: RwLock<TableState>,
    /// Serializes mergers with each other (readers and writers are
    /// *not* held up by this — merge publishes via a brief write lock).
    merge_lock: Mutex<()>,
    /// Delta row count that triggers an automatic merge (at the
    /// `Database` layer, so the work is metered).
    merge_threshold: AtomicUsize,
}

impl Table {
    /// Creates a table with the given schema.
    pub fn new(name: impl Into<String>, schema: TableSchema) -> Self {
        let delta: Vec<Column> = schema.columns().iter().map(|(_, t)| Column::new(*t)).collect();
        let width = schema.width();
        Table {
            name: name.into(),
            inner: RwLock::new(TableState {
                schema,
                main: Arc::new(MainSet::empty()),
                delta,
                delta_validity: vec![Vec::new(); width],
                insert_ts: Vec::new(),
                rows: 0,
            }),
            merge_lock: Mutex::new(()),
            merge_threshold: AtomicUsize::new(SEGMENT_ROWS),
        }
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A clone of the current schema (which may evolve under flexible
    /// mode; a [`TableSnapshot`] carries the schema it pinned).
    pub fn schema(&self) -> TableSchema {
        self.inner.read().schema.clone()
    }

    /// Number of rows (main + delta) right now.
    pub fn rows(&self) -> usize {
        self.inner.read().rows
    }

    /// Returns `true` if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows() == 0
    }

    /// Rows in the compressed main store right now.
    pub fn main_rows(&self) -> usize {
        self.inner.read().main.rows
    }

    /// Rows in the flat delta tail right now.
    pub fn delta_rows(&self) -> usize {
        let st = self.inner.read();
        st.rows - st.main.rows
    }

    /// The current main-version epoch (bumped once per merge).
    pub fn epoch(&self) -> u64 {
        self.inner.read().main.epoch
    }

    /// Delta size (rows) above which the `Database` merges automatically.
    pub fn merge_threshold(&self) -> usize {
        self.merge_threshold.load(Ordering::Relaxed)
    }

    /// Sets the auto-merge threshold (use `usize::MAX` to disable).
    pub fn set_merge_threshold(&self, rows: usize) {
        self.merge_threshold.store(rows.max(1), Ordering::Relaxed);
    }

    /// Returns `true` once the delta has outgrown the merge threshold.
    pub fn needs_merge(&self) -> bool {
        self.delta_rows() >= self.merge_threshold()
    }

    /// Appends one record to the delta, evolving a flexible schema as
    /// needed, and stamps the row with the next timestamp from
    /// `oracle`. Returns the timestamp and the row's global id.
    ///
    /// The timestamp is drawn **under the table's write lock**, so
    /// append order and timestamp order always agree (`insert_ts` stays
    /// sorted) — the property that makes "rows visible at ts" a prefix.
    /// All inserts into one table must therefore share one oracle (the
    /// `Database` owns it).
    ///
    /// Inserts never touch the main store; call [`Table::merge`] (or let
    /// the `Database` auto-merge) to compact the delta.
    ///
    /// # Errors
    ///
    /// Propagates schema violations and type mismatches.
    pub fn insert(&self, record: &Record, oracle: &TimestampOracle) -> DbResult<(Timestamp, u32)> {
        let mut st = self.inner.write();
        let delta_rows = st.rows - st.main.rows;
        let st = &mut *st;
        append_record(&mut st.schema, &mut st.delta, &mut st.delta_validity, delta_rows, record)?;
        let ts = oracle.next();
        debug_assert!(
            st.insert_ts.last().is_none_or(|&t| t < ts.0),
            "all inserts into a table must share one oracle"
        );
        st.insert_ts.push(ts.0);
        let row = st.rows as u32;
        st.rows += 1;
        Ok((ts, row))
    }

    /// Pins a snapshot of the table as of a fresh timestamp drawn from
    /// `oracle`: the entire current state is visible (every existing
    /// delta row committed before the lock was taken, and nothing
    /// after).
    pub fn snapshot(&self, oracle: &TimestampOracle) -> TableSnapshot {
        let st = self.inner.read();
        // Drawn under the read lock: inserts (write lock) cannot
        // interleave, so every row present has a smaller timestamp and
        // every later insert gets a larger one.
        let ts = oracle.next();
        self.snap(&st, st.rows - st.main.rows, ts)
    }

    /// Pins a snapshot as of an **existing** timestamp `ts`: exactly
    /// the rows with insert timestamp ≤ `ts` are visible.
    ///
    /// Returns `None` if a merge has already folded rows *newer* than
    /// `ts` into the main store — segments carry no per-row timestamps,
    /// so such a version cannot serve the older snapshot; the caller
    /// (the `Database`'s multi-table pin) retries with a fresh
    /// timestamp.
    pub fn pin_at(&self, ts: Timestamp) -> Option<TableSnapshot> {
        let st = self.inner.read();
        if st.main.max_ts > ts.0 {
            return None;
        }
        let visible = st.insert_ts.partition_point(|&t| t <= ts.0);
        Some(self.snap(&st, visible, ts))
    }

    /// The latest state as a snapshot (timestamp ∞) — the view used by
    /// single-statement reads, diagnostics and tests.
    pub fn read(&self) -> TableSnapshot {
        let st = self.inner.read();
        self.snap(&st, st.rows - st.main.rows, Timestamp::INF)
    }

    fn snap(&self, st: &TableState, visible: usize, ts: Timestamp) -> TableSnapshot {
        TableSnapshot {
            name: self.name.clone(),
            schema: st.schema.clone(),
            main: Arc::clone(&st.main),
            delta: st.delta.iter().map(|c| column_prefix(c, visible)).collect(),
            delta_validity: st.delta_validity.iter().map(|v| v[..visible].to_vec()).collect(),
            rows: st.main.rows + visible,
            ts,
        }
    }

    /// Compacts the entire delta into new immutable main segments of at
    /// most [`SEGMENT_ROWS`] rows each, re-encoding every column with
    /// [`haec_columnar::encoding::EncodedInts::auto`] and remapping
    /// strings into the table-global dictionaries, then publishes the
    /// result as a new main version in one atomic swap.
    ///
    /// Readers are never blocked: the expensive re-encoding runs with
    /// no lock held, bracketed by two brief critical sections (pin the
    /// delta; publish the new `MainSet` and drop the compacted delta
    /// prefix). Snapshots pinned before the swap keep reading the old
    /// version through their `Arc`; the old segments are freed when the
    /// last such snapshot drops. Concurrent mergers serialize on an
    /// internal lock; inserts landing during the build simply stay in
    /// the delta for the next merge.
    ///
    /// Returns [`MergeStats`] describing the re-encoding work so the
    /// caller can charge its CPU/DRAM cost; merging an empty delta is a
    /// free no-op.
    pub fn merge(&self) -> MergeStats {
        let _serialize = self.merge_lock.lock();
        // Phase 1 — pin: under a brief read lock, clone the delta
        // prefix to compact and the Arc of the version to extend.
        let (old_main, delta, validity, schema, n, max_ts) = {
            let st = self.inner.read();
            let n = st.rows - st.main.rows;
            if n == 0 {
                return MergeStats::default();
            }
            (
                Arc::clone(&st.main),
                st.delta.clone(),
                st.delta_validity.clone(),
                st.schema.clone(),
                n,
                st.insert_ts[n - 1],
            )
        };
        // Build — no lock held; readers pin snapshots and writers
        // append freely while the delta is re-encoded. A fault anywhere
        // in this phase unwinds with only local state in hand: the
        // pinned `Arc`s drop, the table keeps its old version, and the
        // next merge re-pins the (still intact) delta from scratch.
        fail::fail_point!("merge::build");
        let mut dicts: Vec<Option<DictColumn>> = (0..schema.width())
            .map(|idx| {
                old_main
                    .dicts
                    .get(idx)
                    .cloned()
                    .flatten()
                    .or_else(|| (schema.columns()[idx].1 == DataType::Str).then(DictColumn::new))
            })
            .collect();
        // Local→global dictionary remaps, once per merge (every segment
        // of this merge shares the same delta-local dictionaries).
        let remaps: Vec<Option<Vec<i64>>> = delta
            .iter()
            .zip(&mut dicts)
            .map(|(col, dict)| match (col.as_str(), dict.as_mut()) {
                (Some(local), Some(global)) => Some(crate::segment::build_remap(local, global)),
                _ => None,
            })
            .collect();
        fail::fail_point!("merge::remap");
        // Sorting merge: a declared sort key reorders the pinned batch
        // before it is chunked into segments, so every segment built
        // here is internally sorted and the batch's segments carry
        // disjoint ascending key ranges. The sort is **stable**, which
        // together with prefix visibility keeps MVCC correct: a merge
        // folds an entire timestamp prefix and `pin_at` refuses
        // timestamps older than the folded `max_ts`, so no snapshot can
        // ever observe part of a reordered batch. String keys sort by
        // their **global dictionary code** (insertion order of first
        // appearance, not collation) — the remap is computed above
        // precisely so the sort and the stored codes agree.
        let sorted_by = schema.sort_key().and_then(|k| schema.position(k));
        let (delta, validity) = match sorted_by {
            Some(key) => {
                let keys: Vec<i64> = match &delta[key] {
                    Column::Int64(v) => v.clone(),
                    Column::Str(d) => {
                        let remap = remaps[key].as_ref().expect("string column has a remap table");
                        d.codes().iter().map(|&c| remap[c as usize]).collect()
                    }
                    Column::Float64(_) => unreachable!("sort keys are validated Int64 or Str"),
                };
                let mut perm: Vec<u32> = (0..n as u32).collect();
                perm.sort_by_key(|&i| keys[i as usize]); // stable
                let delta = delta.iter().map(|c| permute_column(c, &perm)).collect();
                let validity =
                    validity.iter().map(|v| perm.iter().map(|&i| v[i as usize]).collect()).collect();
                (delta, validity)
            }
            None => (delta, validity),
        };
        let mut stats = MergeStats { rows_merged: n, ..MergeStats::default() };
        let mut segments = old_main.segments.clone();
        let mut bases = old_main.bases.clone();
        let mut main_rows = old_main.rows;
        let mut start = 0;
        while start < n {
            fail::fail_point!("merge::segment");
            let end = (start + SEGMENT_ROWS).min(n);
            let seg = Segment::build(&delta, &validity, start, end, &remaps, sorted_by);
            stats.raw_bytes += seg.raw_bytes();
            stats.encoded_bytes += seg.encoded_bytes();
            stats.segments_created += 1;
            bases.push(main_rows);
            main_rows += seg.rows();
            segments.push(Arc::new(seg));
            start = end;
        }
        let new_main =
            Arc::new(MainSet { segments, bases, rows: main_rows, dicts, epoch: old_main.epoch + 1, max_ts });
        // Phase 2 — publish: under a brief write lock, swap in the new
        // version and drop the compacted prefix from the delta. Rows
        // appended during the build (and columns a flexible schema grew
        // meanwhile — their first `n` cells are null backfill for rows
        // that now live in segments predating the column) keep their
        // tail positions.
        let mut st = self.inner.write();
        // The publish failpoint sits after the write lock is taken but
        // before the first field mutation: an injected panic here
        // releases the (non-poisoning) lock on unwind with the old
        // state untouched — the strictest spot to prove the swap is
        // all-or-nothing.
        fail::fail_point!("merge::publish");
        debug_assert_eq!(st.main.epoch, old_main.epoch, "mergers are serialized");
        st.delta = st.delta.iter().map(|c| column_suffix(c, n)).collect();
        st.delta_validity = st.delta_validity.iter().map(|v| v[n..].to_vec()).collect();
        st.insert_ts.drain(..n);
        st.main = new_main;
        st.rows = st.main.rows + st.insert_ts.len();
        stats
    }
}

/// Copies the first `visible` rows of a delta column — the prefix an
/// MVCC snapshot sees. String columns keep their full delta-local
/// dictionary ([`DictColumn::sliced`]): the kept codes stay decodable
/// and later dictionary growth is invisible through the slice.
fn column_prefix(col: &Column, visible: usize) -> Column {
    match col {
        Column::Int64(v) => Column::Int64(v[..visible].to_vec()),
        Column::Float64(v) => Column::Float64(v[..visible].to_vec()),
        Column::Str(d) => Column::Str(d.sliced(0, visible)),
    }
}

/// Drops the first `n` rows of a delta column — the remainder kept
/// after a merge compacted the prefix. String columns **rebuild** a
/// compact delta-local dictionary from the surviving rows rather than
/// slicing: `build_remap` interns every local dictionary entry into the
/// table-global dictionary at the next merge, so stale entries carried
/// over from compacted rows would pollute the global dictionary and
/// inflate the planner's distinct counts.
fn column_suffix(col: &Column, n: usize) -> Column {
    match col {
        Column::Int64(v) => Column::Int64(v[n..].to_vec()),
        Column::Float64(v) => Column::Float64(v[n..].to_vec()),
        Column::Str(d) => {
            let mut out = DictColumn::new();
            for i in n..d.len() {
                out.push(d.get(i).expect("row in range"));
            }
            Column::Str(out)
        }
    }
}

/// Reorders a pinned delta column by a sort permutation (`perm[i]` is
/// the source row of output row `i`). String columns keep their
/// delta-local dictionary untouched and permute only the code vector,
/// so the local→global remap tables computed before the sort stay
/// valid for the permuted column.
fn permute_column(col: &Column, perm: &[u32]) -> Column {
    match col {
        Column::Int64(v) => Column::Int64(perm.iter().map(|&i| v[i as usize]).collect()),
        Column::Float64(v) => Column::Float64(perm.iter().map(|&i| v[i as usize]).collect()),
        Column::Str(d) => Column::Str(DictColumn::from_codes(
            d.iter_dict().map(String::from).collect(),
            perm.iter().map(|&i| d.codes()[i as usize]).collect(),
        )),
    }
}

/// Appends one record to a delta (shared by [`Table::insert`] and
/// [`TableSnapshot::with_pending`]), evolving a flexible schema as
/// needed: new columns materialize backfilled with sentinel nulls
/// (`delta_rows` of them — main segments that predate a column report
/// their rows as null implicitly).
fn append_record(
    schema: &mut TableSchema,
    delta: &mut Vec<Column>,
    delta_validity: &mut Vec<Vec<bool>>,
    delta_rows: usize,
    record: &Record,
) -> DbResult<()> {
    let values = schema.admit(record)?;
    while delta.len() < schema.width() {
        let (_, dtype) = &schema.columns()[delta.len()];
        let mut col = Column::new(*dtype);
        for _ in 0..delta_rows {
            col.push(Value::Null).expect("null is universal");
        }
        delta.push(col);
        delta_validity.push(vec![false; delta_rows]);
    }
    for ((col, valid), value) in delta.iter_mut().zip(delta_validity.iter_mut()).zip(values) {
        valid.push(!value.is_null());
        col.push(value).map_err(|e| DbError::TypeMismatch { column: String::new(), expected: e.expected })?;
    }
    Ok(())
}

/// An immutable view of a table as of one timestamp: an `Arc` to the
/// main version current at the pin plus a copy of the delta prefix
/// visible at the snapshot's timestamp.
///
/// This is the type the whole read path operates on — scans,
/// aggregates, joins, projections and planner statistics all see one
/// frozen state, whatever inserts and merges do concurrently. The
/// pinned `MainSet` also freezes the table-global string
/// dictionaries, so codes always decode against exactly the dictionary
/// state the snapshot saw.
#[derive(Clone, Debug)]
pub struct TableSnapshot {
    name: String,
    schema: TableSchema,
    main: Arc<MainSet>,
    /// The visible delta prefix (one dense column per schema column).
    delta: Vec<Column>,
    /// Per-column validity of the visible delta (false = null).
    delta_validity: Vec<Vec<bool>>,
    rows: usize,
    ts: Timestamp,
}

impl TableSnapshot {
    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema as of the pin.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// The snapshot's timestamp ([`Timestamp::INF`] for a latest-state
    /// view).
    pub fn timestamp(&self) -> Timestamp {
        self.ts
    }

    /// The main-version epoch this snapshot pinned.
    pub fn epoch(&self) -> u64 {
        self.main.epoch
    }

    /// Number of visible rows (main + visible delta prefix).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Returns `true` if the snapshot sees no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Rows in the compressed main store.
    pub fn main_rows(&self) -> usize {
        self.main.rows
    }

    /// Visible rows in the flat delta tail.
    pub fn delta_rows(&self) -> usize {
        self.rows - self.main.rows
    }

    /// The immutable main segments, oldest first.
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.main.segments
    }

    /// First global row id of segment `i`.
    pub fn segment_base(&self, i: usize) -> usize {
        self.main.bases[i]
    }

    /// The table-global dictionary of string column `idx` as pinned
    /// (`None` for non-string columns and before the first merge).
    pub fn global_dict(&self, idx: usize) -> Option<&DictColumn> {
        self.main.dicts.get(idx).and_then(Option::as_ref)
    }

    /// The visible delta tail of column `idx` (dense, uncompressed).
    pub fn delta_column(&self, idx: usize) -> Option<&Column> {
        self.delta.get(idx)
    }

    /// A copy of this snapshot with `records` appended as extra
    /// (uncommitted) delta rows — the read-your-own-writes view a
    /// transaction evaluates queries against: committed state as pinned,
    /// plus the transaction's private overlay, visible to nobody else.
    ///
    /// # Errors
    ///
    /// Propagates schema violations and type mismatches.
    pub fn with_pending(&self, records: &[Record]) -> DbResult<TableSnapshot> {
        let mut snap = self.clone();
        for record in records {
            let delta_rows = snap.rows - snap.main.rows;
            append_record(&mut snap.schema, &mut snap.delta, &mut snap.delta_validity, delta_rows, record)?;
            snap.rows += 1;
        }
        Ok(snap)
    }

    /// Resolves a global row id to its physical location.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows()`.
    pub fn locate(&self, row: usize) -> RowLoc {
        assert!(row < self.rows, "row {row} out of bounds ({})", self.rows);
        if row >= self.main.rows {
            return RowLoc::Delta { local: row - self.main.rows };
        }
        let seg = self.main.bases.partition_point(|&b| b <= row) - 1;
        RowLoc::Main { seg, local: row - self.main.bases[seg] }
    }

    /// The integer value of column `idx` at global row `row` (sentinel 0
    /// for rows in segments that predate the column).
    ///
    /// Returns `None` if the column is not an integer column.
    pub fn get_int(&self, idx: usize, row: usize) -> Option<i64> {
        match self.locate(row) {
            RowLoc::Delta { local } => self.delta.get(idx)?.as_int64().map(|v| v[local]),
            RowLoc::Main { seg, local } => {
                if *self.schema.columns().get(idx).map(|(_, t)| t)? != DataType::Int64 {
                    return None;
                }
                match self.main.segments[seg].column(idx) {
                    Some(SegColumn::Int { data, .. }) => Some(data.get(local)),
                    None => Some(0), // segment predates the column: sentinel
                    _ => None,
                }
            }
        }
    }

    /// Returns whether the string value of column `idx` at global row
    /// `row` equals `value` (`None` if not a string column).
    pub fn str_eq(&self, idx: usize, row: usize, value: &str) -> Option<bool> {
        match self.locate(row) {
            RowLoc::Delta { local } => {
                let d = self.delta.get(idx)?.as_str()?;
                Some(d.get(local) == Some(value))
            }
            RowLoc::Main { seg, local } => {
                let global = self.global_dict(idx)?;
                match self.main.segments[seg].column(idx) {
                    Some(SegColumn::Str { codes, .. }) => {
                        Some(global.decode(codes.get(local) as u32) == Some(value))
                    }
                    None => Some(value.is_empty()), // sentinel ""
                    _ => None,
                }
            }
        }
    }

    /// Gathers the integer values of column `name` at `positions`
    /// (ascending global row ids), or the full column when `positions`
    /// is `None` — an **unmetered** convenience over
    /// [`TableSnapshot::materialize_columns`] for index builds,
    /// diagnostics and tests. Query execution goes through
    /// `materialize_columns`, which reports the work done.
    pub fn gather_ints(&self, name: &str, positions: Option<&[u32]>) -> Option<Vec<i64>> {
        let idx = self.schema.position(name)?;
        if self.schema.columns()[idx].1 != DataType::Int64 {
            return None;
        }
        match self.materialize_column(idx, positions, &mut GatherStats::default()) {
            Column::Int64(v) => Some(v),
            _ => None,
        }
    }

    /// Gathers the named columns at arbitrary `rows` — global row ids in
    /// **any order, duplicates allowed** — the shape a join's surviving
    /// `(build_row, probe_row)` pairs have. This is the late-
    /// materialization step of join execution: only the rows that
    /// actually survive the join are ever touched.
    ///
    /// The build side's rows arrive in probe order, so the cells are
    /// **visited in ascending row order and scattered into output
    /// order** (one argsort, skipped when the list is already
    /// non-decreasing): each segment is then read through one forward
    /// cursor (`EncodedInts::cursor`) exactly like a sparse projection,
    /// instead of one compressed point access per cell. The bill is per
    /// cell and does not depend on the visiting order. String cells are
    /// gathered **code-to-code**: the output [`DictColumn`] shares one
    /// dictionary across all gathered rows, each distinct segment/delta
    /// code is decoded and interned exactly once — in output order, so
    /// the dictionary is ordered by first appearance in `rows` — and
    /// every further occurrence is appended by code
    /// ([`DictColumn::push_code`]) without hashing the string again.
    ///
    /// Returns the gathered columns plus [`GatherStats`] so the caller
    /// can bill the decode cycles and DRAM traffic honestly.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchColumn`] for unknown names.
    pub fn gather_rows(
        &self,
        names: &[String],
        rows: &[u32],
    ) -> DbResult<(Vec<(String, Column)>, GatherStats)> {
        let mut stats = GatherStats::default();
        let mut out = Vec::with_capacity(names.len());
        let asc = AscendingRows::of(rows);
        for name in names {
            let idx = self
                .schema
                .position(name)
                .ok_or_else(|| DbError::NoSuchColumn { table: self.name.clone(), column: name.clone() })?;
            let col = match self.schema.columns()[idx].1 {
                DataType::Int64 => {
                    let delta = self.delta[idx].as_int64().expect("schema type matches storage");
                    // Rows of segments predating the column keep the 0
                    // sentinel: no data exists, nothing is read.
                    let mut v = vec![0i64; rows.len()];
                    self.split_by_store(&asc.rows, |seg, base, range| {
                        let n = range.len() as u64;
                        let cells = asc.cells(range, base);
                        match seg.map(|si| self.main.segments[si].column(idx)) {
                            None => {
                                cells.for_each(|(local, slot)| v[slot] = delta[local]);
                                stats.bytes_read += n * 8;
                            }
                            Some(Some(SegColumn::Int { data, .. })) => {
                                let mut cur = data.cursor();
                                cells.for_each(|(local, slot)| v[slot] = cur.at(local));
                                stats.decode_items += n;
                                stats.bytes_read += n * 8;
                            }
                            Some(None) => {}
                            Some(Some(_)) => unreachable!("schema says Int64"),
                        }
                    });
                    Column::Int64(v)
                }
                DataType::Float64 => {
                    let delta = self.delta[idx].as_float64().expect("schema type matches storage");
                    let mut v = vec![0.0f64; rows.len()];
                    self.split_by_store(&asc.rows, |seg, base, range| {
                        let n = range.len() as u64;
                        let cells = asc.cells(range, base);
                        match seg.map(|si| self.main.segments[si].column(idx)) {
                            None => {
                                cells.for_each(|(local, slot)| v[slot] = delta[local]);
                                stats.bytes_read += n * 8;
                            }
                            Some(Some(SegColumn::Float(data))) => {
                                cells.for_each(|(local, slot)| v[slot] = data[local]);
                                stats.bytes_read += n * 8;
                            }
                            Some(None) => {}
                            Some(Some(_)) => unreachable!("schema says Float64"),
                        }
                    });
                    Column::Float64(v)
                }
                DataType::Str => {
                    // The ascending visit only fetches each main row's
                    // global code; interning happens afterwards in output
                    // order, which fixes the output dictionary's order.
                    let mut codes: Vec<Option<u32>> = vec![None; rows.len()];
                    self.split_by_store(&asc.rows, |seg, base, range| {
                        let n = range.len() as u64;
                        let cells = asc.cells(range, base);
                        match seg.map(|si| self.main.segments[si].column(idx)) {
                            None => stats.bytes_read += n * 4,
                            Some(Some(SegColumn::Str { codes: data, .. })) => {
                                let mut cur = data.cursor();
                                cells.for_each(|(local, slot)| codes[slot] = Some(cur.at(local) as u32));
                                stats.decode_items += n;
                                stats.bytes_read += n * 4;
                            }
                            Some(None) => {}
                            Some(Some(_)) => unreachable!("schema says Str"),
                        }
                    });
                    let mut g = StrCodeGather::new(self, idx);
                    for (&r, code) in rows.iter().zip(codes) {
                        match code {
                            Some(code) => g.push_main(code, &mut stats),
                            None if r as usize >= self.main.rows => {
                                g.push_delta(r as usize - self.main.rows, &mut stats);
                            }
                            None => g.push_sentinel(&mut stats),
                        }
                    }
                    g.finish()
                }
            };
            stats.bytes_written += col.size_bytes() as u64;
            out.push((name.clone(), col));
        }
        Ok((out, stats))
    }

    /// Materializes the named columns at `positions` (ascending global
    /// row ids; `None` = all rows) into dense output columns — the
    /// projection step after a filter. Only the requested columns are
    /// touched, and string columns come back **as codes + one shared
    /// output dictionary**: each distinct code is
    /// decoded exactly once, repeats are appended by code, and no string
    /// is ever hashed per row — late materialization all the way to the
    /// client [`Chunk`].
    ///
    /// Returns the columns plus [`GatherStats`] billing each store path
    /// as executed: segments past the [`sparse_hits`] crossover
    /// stream-decode once (their **encoded** bytes), sparse hits pay
    /// one positioned read per cell (a forward cursor over the
    /// segment), the delta reads its flat cells, and each distinct
    /// string pays one first-touch dictionary-entry read.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchColumn`] for unknown names.
    pub fn materialize_columns(
        &self,
        names: &[String],
        positions: Option<&[u32]>,
    ) -> DbResult<(Vec<(String, Column)>, GatherStats)> {
        let mut stats = GatherStats::default();
        let mut out = Vec::with_capacity(names.len());
        for name in names {
            let idx = self
                .schema
                .position(name)
                .ok_or_else(|| DbError::NoSuchColumn { table: self.name.clone(), column: name.clone() })?;
            let col = self.materialize_column(idx, positions, &mut stats);
            stats.bytes_written += col.size_bytes() as u64;
            out.push((name.clone(), col));
        }
        Ok((out, stats))
    }

    fn materialize_column(&self, idx: usize, positions: Option<&[u32]>, stats: &mut GatherStats) -> Column {
        let dtype = self.schema.columns()[idx].1;
        let cap = positions.map_or(self.rows, <[u32]>::len);
        match dtype {
            DataType::Int64 => {
                let delta = self.delta[idx].as_int64().expect("schema type matches storage");
                let mut out = Vec::with_capacity(cap);
                self.for_each_store(positions, |hits| match hits {
                    StoreHits::Main { seg, base, hits } => {
                        let rows = self.main.segments[seg].rows();
                        match self.main.segments[seg].column(idx) {
                            Some(SegColumn::Int { data, .. }) => match hits {
                                Some(h) if sparse_hits(h.len(), rows) => {
                                    let mut cur = data.cursor();
                                    out.extend(h.iter().map(|&p| cur.at(p as usize - base)));
                                    stats.decode_items += h.len() as u64;
                                    stats.bytes_read += h.len() as u64 * 8;
                                }
                                hits => {
                                    let dec = data.decode();
                                    stats.decode_items += rows as u64;
                                    stats.bytes_read += data.size_bytes() as u64;
                                    match hits {
                                        Some(h) => out.extend(h.iter().map(|&p| dec[p as usize - base])),
                                        None => out.extend_from_slice(&dec),
                                    }
                                }
                            },
                            None => out.extend(std::iter::repeat_n(0i64, hits.map_or(rows, <[u32]>::len))),
                            _ => unreachable!("schema says Int64"),
                        }
                    }
                    StoreHits::Delta { hits } => {
                        match hits {
                            Some(h) => out.extend(h.iter().map(|&p| delta[p as usize - self.main.rows])),
                            None => out.extend_from_slice(delta),
                        }
                        stats.bytes_read += hits.map_or(delta.len(), <[u32]>::len) as u64 * 8;
                    }
                });
                Column::Int64(out)
            }
            DataType::Float64 => {
                let delta = self.delta[idx].as_float64().expect("schema type matches storage");
                let mut out = Vec::with_capacity(cap);
                self.for_each_store(positions, |hits| match hits {
                    StoreHits::Main { seg, base, hits } => {
                        let rows = self.main.segments[seg].rows();
                        match self.main.segments[seg].column(idx) {
                            Some(SegColumn::Float(v)) => match hits {
                                Some(h) if sparse_hits(h.len(), rows) => {
                                    out.extend(h.iter().map(|&p| v[p as usize - base]));
                                    stats.bytes_read += h.len() as u64 * 8;
                                }
                                hits => {
                                    stats.bytes_read += (rows * 8) as u64;
                                    match hits {
                                        Some(h) => out.extend(h.iter().map(|&p| v[p as usize - base])),
                                        None => out.extend_from_slice(v),
                                    }
                                }
                            },
                            None => out.extend(std::iter::repeat_n(0.0, hits.map_or(rows, <[u32]>::len))),
                            _ => unreachable!("schema says Float64"),
                        }
                    }
                    StoreHits::Delta { hits } => {
                        match hits {
                            Some(h) => out.extend(h.iter().map(|&p| delta[p as usize - self.main.rows])),
                            None => out.extend_from_slice(delta),
                        }
                        stats.bytes_read += hits.map_or(delta.len(), <[u32]>::len) as u64 * 8;
                    }
                });
                Column::Float64(out)
            }
            DataType::Str => {
                let mut g = StrCodeGather::new(self, idx);
                self.for_each_store(positions, |hits| match hits {
                    StoreHits::Main { seg, base, hits } => {
                        let rows = self.main.segments[seg].rows();
                        match self.main.segments[seg].column(idx) {
                            Some(SegColumn::Str { codes, .. }) => match hits {
                                Some(h) if sparse_hits(h.len(), rows) => {
                                    // Sparse hits: one forward cursor over the
                                    // codes, remapped code-to-code.
                                    let mut cur = codes.cursor();
                                    for &p in h {
                                        g.push_main(cur.at(p as usize - base) as u32, stats);
                                    }
                                    stats.decode_items += h.len() as u64;
                                    stats.bytes_read += h.len() as u64 * 4;
                                }
                                hits => {
                                    // Dense (or full): stream-decode the code
                                    // vector once, then copy codes.
                                    let dec = codes.decode();
                                    stats.decode_items += rows as u64;
                                    stats.bytes_read += codes.size_bytes() as u64;
                                    match hits {
                                        Some(h) => {
                                            for &p in h {
                                                g.push_main(dec[p as usize - base] as u32, stats);
                                            }
                                        }
                                        None => {
                                            for c in dec {
                                                g.push_main(c as u32, stats);
                                            }
                                        }
                                    }
                                }
                            },
                            None => {
                                for _ in 0..hits.map_or(rows, <[u32]>::len) {
                                    g.push_sentinel(stats);
                                }
                            }
                            _ => unreachable!("schema says Str"),
                        }
                    }
                    StoreHits::Delta { hits } => {
                        match hits {
                            Some(h) => {
                                for &p in h {
                                    g.push_delta(p as usize - self.main.rows, stats);
                                }
                            }
                            None => {
                                for local in 0..self.delta_rows() {
                                    g.push_delta(local, stats);
                                }
                            }
                        }
                        stats.bytes_read += hits.map_or(self.delta_rows(), <[u32]>::len) as u64 * 4;
                    }
                });
                g.finish()
            }
        }
    }

    /// Walks the stores in row order, handing each segment (and finally
    /// the delta) to `f` together with its slice of `positions` —
    /// `hits: None` means "all rows of this store". Segments without
    /// hits are skipped.
    fn for_each_store<'p>(&self, positions: Option<&'p [u32]>, mut f: impl FnMut(StoreHits<'p>)) {
        match positions {
            None => {
                for (si, _) in self.main.segments.iter().enumerate() {
                    f(StoreHits::Main { seg: si, base: self.main.bases[si], hits: None });
                }
                f(StoreHits::Delta { hits: None });
            }
            Some(pos) => self.split_by_store(pos, |seg, base, range| {
                let hits = Some(&pos[range]);
                f(match seg {
                    Some(seg) => StoreHits::Main { seg, base, hits },
                    None => StoreHits::Delta { hits },
                });
            }),
        }
    }

    /// Splits a non-decreasing row list at the store boundaries: `f`
    /// gets, for every store holding at least one of `asc`, the segment
    /// index (`None`: the delta tail), the store's first global row id
    /// and the index range of its rows within `asc`.
    fn split_by_store(&self, asc: &[u32], mut f: impl FnMut(Option<usize>, usize, Range<usize>)) {
        let mut i = 0;
        for (si, seg) in self.main.segments.iter().enumerate() {
            let base = self.main.bases[si];
            let from = i;
            while i < asc.len() && (asc[i] as usize) < base + seg.rows() {
                i += 1;
            }
            if i > from {
                f(Some(si), base, from..i);
            }
        }
        if i < asc.len() {
            f(None, self.main.rows, i..asc.len());
        }
    }

    /// Materializes one whole column (main decoded + delta) by name.
    ///
    /// This is a full, unmetered decode — query execution never calls
    /// it; it exists for index builds, diagnostics and tests.
    pub fn column(&self, name: &str) -> Option<Column> {
        let idx = self.schema.position(name)?;
        Some(self.materialize_column(idx, None, &mut GatherStats::default()))
    }

    /// The validity vector of one column (false = null sentinel); rows
    /// in segments that predate the column are null.
    pub fn validity(&self, name: &str) -> Option<Vec<bool>> {
        let idx = self.schema.position(name)?;
        let mut out = Vec::with_capacity(self.rows);
        for seg in &self.main.segments {
            if idx >= seg.width() {
                out.extend(std::iter::repeat_n(false, seg.rows()));
            } else {
                match seg.validity(idx) {
                    Some(v) => out.extend_from_slice(v),
                    None => out.extend(std::iter::repeat_n(true, seg.rows())),
                }
            }
        }
        out.extend_from_slice(&self.delta_validity[idx]);
        Some(out)
    }

    /// Count of nulls in a column.
    pub fn null_count(&self, name: &str) -> Option<usize> {
        let idx = self.schema.position(name)?;
        let main: usize = self.main.segments.iter().map(|s| s.null_count(idx)).sum();
        let delta = self.delta_validity[idx].iter().filter(|&&b| !b).count();
        Some(main + delta)
    }

    /// Materializes the whole snapshot as a [`Chunk`] — string columns
    /// as codes + shared output dictionaries, like every projection.
    pub fn to_chunk(&self) -> Chunk {
        let names: Vec<String> = self.schema.columns().iter().map(|(n, _)| n.clone()).collect();
        let (cols, _) = self.materialize_columns(&names, None).expect("schema columns exist");
        Chunk::new(cols).expect("table columns are equal length")
    }

    /// Approximate footprint in bytes: **encoded** main segments plus the
    /// flat delta (this is what the planner's scan costs scale with).
    pub fn size_bytes(&self) -> usize {
        self.encoded_bytes() + self.rows * self.delta.len() / 8
    }

    /// Encoded bytes of the main store plus the (plain) delta bytes.
    pub fn encoded_bytes(&self) -> usize {
        let main: usize = self.main.segments.iter().map(|s| s.encoded_bytes()).sum();
        let delta: usize = self.delta.iter().map(Column::size_bytes).sum();
        main + delta
    }

    /// Plain bytes the same data would occupy without compression.
    pub fn raw_bytes(&self) -> usize {
        let main: usize = self.main.segments.iter().map(|s| s.raw_bytes()).sum();
        let delta: usize = self.delta.iter().map(Column::size_bytes).sum();
        main + delta
    }

    /// Encoded bytes of one column across main segments plus its delta
    /// tail — the DRAM traffic a scan of this column costs.
    pub fn column_encoded_bytes(&self, name: &str) -> Option<usize> {
        let idx = self.schema.position(name)?;
        let main: usize =
            self.main.segments.iter().map(|s| s.column(idx).map_or(0, SegColumn::encoded_bytes)).sum();
        Some(main + self.delta.get(idx).map_or(0, Column::size_bytes))
    }

    /// Per-segment zone maps of an integer column (the delta tail is the
    /// final entry), for the planner's segment-pruning estimate. `None`
    /// for non-integer columns.
    pub fn zone_maps(&self, name: &str) -> Option<Vec<ZoneMapMeta>> {
        let idx = self.schema.position(name)?;
        if self.schema.columns()[idx].1 != DataType::Int64 {
            return None;
        }
        let mut zones = Vec::with_capacity(self.main.segments.len() + 1);
        for seg in &self.main.segments {
            let (min, max) = seg.zone(idx).unwrap_or((0, 0));
            // The sortedness claim flows from the segment the sorting
            // merge built — never computed here, so a snapshot pinned
            // across a merge always reports the flag its pinned
            // segments actually carry.
            let sorted = seg.sorted_by() == Some(idx);
            zones.push(ZoneMapMeta { rows: seg.rows() as u64, min, max, sorted });
        }
        let delta = self.delta[idx].as_int64()?;
        if !delta.is_empty() {
            let min = delta.iter().copied().min().expect("non-empty");
            let max = delta.iter().copied().max().expect("non-empty");
            zones.push(ZoneMapMeta { rows: delta.len() as u64, min, max, sorted: false });
        }
        Some(zones)
    }

    /// Per-table planner statistics, computed from zone maps and delta
    /// extrema — O(segments + delta), never decoding the main store.
    pub fn planner_meta(&self) -> haec_planner::catalog::TableMeta {
        let columns = self
            .schema
            .columns()
            .iter()
            .enumerate()
            .map(|(idx, (name, dtype))| {
                let (min, max, ndv) = match dtype {
                    DataType::Int64 => {
                        let (min, max) = self.int_extrema(idx);
                        // Sum of per-segment measured counts (stored at
                        // merge time) + the delta's measured distinct,
                        // capped by the value range and the row count.
                        // Over-counts values shared across stores but
                        // never collapses a sparse domain.
                        let measured: u64 = self
                            .main
                            .segments
                            .iter()
                            // Segments predating the column hold one
                            // distinct value (the null sentinel 0).
                            .map(|s| s.ndv(idx).unwrap_or(1))
                            .sum::<u64>()
                            + self.delta[idx].stats().distinct;
                        let range = (max as i128 - min as i128 + 1).max(0) as u64;
                        (min, max, measured.min(range).min(self.rows as u64))
                    }
                    DataType::Str => {
                        // Distinct = global dict + delta-local values the
                        // global dict has not seen (no double counting).
                        let global = self.global_dict(idx);
                        let g = global.map_or(0, DictColumn::dict_size);
                        let fresh = self.delta[idx].as_str().map_or(0, |local| {
                            local
                                .iter_dict()
                                .filter(|s| global.is_none_or(|d| d.code_of(s).is_none()))
                                .count()
                        });
                        (0, 0, ((g + fresh) as u64).min(self.rows as u64))
                    }
                    DataType::Float64 => (0, 0, self.rows as u64),
                };
                haec_planner::catalog::ColumnMeta {
                    name: name.clone(),
                    ndv,
                    min,
                    max,
                    indexed: false, // the Database layer overlays index info
                }
            })
            .collect();
        haec_planner::catalog::TableMeta {
            name: self.name.clone(),
            rows: self.rows as u64,
            row_bytes: (self.size_bytes() / self.rows.max(1)) as u64,
            columns,
        }
    }

    /// Min/max of an int column over zone maps + delta (0,0 if empty).
    fn int_extrema(&self, idx: usize) -> (i64, i64) {
        let mut acc: Option<(i64, i64)> = None;
        let mut fold = |lo: i64, hi: i64| {
            acc = Some(match acc {
                None => (lo, hi),
                Some((a, b)) => (a.min(lo), b.max(hi)),
            });
        };
        for seg in &self.main.segments {
            let (lo, hi) = seg.zone(idx).unwrap_or((0, 0));
            fold(lo, hi);
        }
        if let Some(delta) = self.delta[idx].as_int64() {
            if !delta.is_empty() {
                let lo = delta.iter().copied().min().expect("non-empty");
                let hi = delta.iter().copied().max().expect("non-empty");
                fold(lo, hi);
            }
        }
        acc.unwrap_or((0, 0))
    }
}

/// Work done by one projection or positional gather
/// ([`TableSnapshot::materialize_columns`] /
/// [`TableSnapshot::gather_rows`]), for the caller to charge to the
/// energy meter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GatherStats {
    /// Decode steps performed on encoded main columns — one per cell
    /// read through a cursor, one per row of a stream-decoded segment.
    pub decode_items: u64,
    /// Bytes read gathering the inputs: encoded bytes of stream-decoded
    /// segments, per-cell reads for sparse hits, flat delta cells, and
    /// one first-touch read per distinct dictionary entry.
    pub bytes_read: u64,
    /// Bytes written into the output columns.
    pub bytes_written: u64,
}

/// Translates a table's two string code spaces — the table-global
/// dictionary backing main segments and the delta-local dictionary
/// backing the tail — into **one output code space**, building the
/// projection's shared output dictionary as it goes. This is the
/// codes-to-client machinery behind both [`TableSnapshot::gather_rows`]
/// and [`TableSnapshot::materialize_columns`]: each distinct source
/// code is decoded and interned exactly once (O(distinct) string
/// hashes, billed as first-touch dictionary-entry reads), and every
/// repeat is an O(1) array-indexed cache hit plus a code push — never a
/// string hash. Values shared between the global and delta dictionaries
/// (and the `""` sentinel) still collapse to one output entry, because
/// the intern goes through the output dictionary's own lookup on first
/// touch.
struct StrCodeGather<'a> {
    global: Option<&'a DictColumn>,
    delta: &'a DictColumn,
    out: DictColumn,
    /// Global code → output code, filled on first touch.
    main_cache: Vec<Option<u32>>,
    /// Delta-local code → output code, filled on first touch.
    delta_cache: Vec<Option<u32>>,
    /// Output code of the sentinel `""` (segments predating the column).
    sentinel: Option<u32>,
}

impl<'a> StrCodeGather<'a> {
    fn new(t: &'a TableSnapshot, idx: usize) -> StrCodeGather<'a> {
        let delta = t.delta[idx].as_str().expect("schema type matches storage");
        let global = t.global_dict(idx);
        StrCodeGather {
            global,
            delta,
            out: DictColumn::new(),
            main_cache: vec![None; global.map_or(0, DictColumn::dict_size)],
            delta_cache: vec![None; delta.dict_size()],
            sentinel: None,
        }
    }

    /// Appends the row holding table-global dictionary `code`.
    fn push_main(&mut self, code: u32, stats: &mut GatherStats) {
        let global = self.global.expect("main string rows imply a global dictionary");
        let c = cached_intern(&mut self.main_cache[code as usize], &mut self.out, global.decode(code), stats);
        self.out.push_code(c);
    }

    /// Appends delta row `local` (resolved through its local code).
    fn push_delta(&mut self, local: usize, stats: &mut GatherStats) {
        let code = self.delta.codes()[local] as usize;
        let c = cached_intern(&mut self.delta_cache[code], &mut self.out, self.delta.get(local), stats);
        self.out.push_code(c);
    }

    /// Appends the `""` sentinel of a segment predating the column.
    fn push_sentinel(&mut self, stats: &mut GatherStats) {
        let c = cached_intern(&mut self.sentinel, &mut self.out, Some(""), stats);
        self.out.push_code(c);
    }

    fn finish(self) -> Column {
        Column::Str(self.out)
    }
}

/// Interns a decoded string into the gather's output dictionary exactly
/// once per distinct source code (see [`StrCodeGather`]).
fn cached_intern(
    cache: &mut Option<u32>,
    dict: &mut DictColumn,
    value: Option<&str>,
    stats: &mut GatherStats,
) -> u32 {
    match cache {
        Some(c) => *c,
        None => {
            let s = value.expect("code resolves through its dictionary");
            // First touch reads the dictionary entry itself.
            stats.bytes_read += s.len() as u64;
            let c = dict.intern(s);
            *cache = Some(c);
            c
        }
    }
}

/// Convenience constructor for common strict schemas.
pub fn strict_schema(cols: &[(&str, DataType)]) -> TableSchema {
    TableSchema::strict(cols.iter().map(|(n, t)| (n.to_string(), *t)).collect())
}

/// Returns `true` if the snapshot's table was declared flexible.
pub fn is_flexible(table: &TableSnapshot) -> bool {
    table.schema().mode() == SchemaMode::Flexible
}

#[cfg(test)]
mod tests {
    use super::*;
    use haec_columnar::value::CmpOp;

    fn ins(t: &Table, o: &TimestampOracle, r: &Record) {
        t.insert(r, o).unwrap();
    }

    fn orders() -> (Table, TimestampOracle) {
        let t = Table::new("orders", strict_schema(&[("id", DataType::Int64), ("amount", DataType::Int64)]));
        let o = TimestampOracle::new();
        for i in 0..10 {
            ins(&t, &o, &Record::new().with("id", i as i64).with("amount", (i * 10) as i64));
        }
        (t, o)
    }

    #[test]
    fn insert_and_read_back() {
        let (t, _) = orders();
        assert_eq!(t.rows(), 10);
        assert!(!t.is_empty());
        let chunk = t.read().to_chunk();
        assert_eq!(chunk.rows(), 10);
        assert_eq!(chunk.row(3).unwrap(), vec![Value::Int(3), Value::Int(30)]);
    }

    #[test]
    fn column_access() {
        let (t, _) = orders();
        let s = t.read();
        assert!(s.column("amount").is_some());
        assert!(s.column("zz").is_none());
        assert_eq!(s.column("amount").unwrap().as_int64().unwrap()[5], 50);
    }

    #[test]
    fn merge_moves_delta_to_compressed_main() {
        let (t, _) = orders();
        assert_eq!(t.delta_rows(), 10);
        assert_eq!(t.main_rows(), 0);
        let stats = t.merge();
        assert_eq!(stats.rows_merged, 10);
        assert_eq!(stats.segments_created, 1);
        assert!(stats.encoded_bytes > 0);
        assert_eq!(t.delta_rows(), 0);
        assert_eq!(t.main_rows(), 10);
        assert_eq!(t.rows(), 10);
        let s = t.read();
        // Data survives the merge unchanged, in insertion order.
        assert_eq!(s.column("amount").unwrap().as_int64().unwrap(), &[0, 10, 20, 30, 40, 50, 60, 70, 80, 90]);
        // Zone maps reflect the data.
        assert_eq!(s.segments()[0].zone(0), Some((0, 9)));
        assert_eq!(s.segments()[0].zone(1), Some((0, 90)));
        // A second merge with an empty delta is a no-op.
        assert_eq!(t.merge(), MergeStats::default());
    }

    #[test]
    fn merge_interleaves_with_inserts() {
        let t = Table::new("t", strict_schema(&[("v", DataType::Int64)]));
        let o = TimestampOracle::new();
        for round in 0..4 {
            for i in 0..100i64 {
                ins(&t, &o, &Record::new().with("v", round * 100 + i));
            }
            t.merge();
        }
        for i in 400..450i64 {
            ins(&t, &o, &Record::new().with("v", i));
        }
        let s = t.read();
        assert_eq!(s.segments().len(), 4);
        assert_eq!(s.main_rows(), 400);
        assert_eq!(s.delta_rows(), 50);
        let v = s.column("v").unwrap();
        let expected: Vec<i64> = (0..450).collect();
        assert_eq!(v.as_int64().unwrap(), &expected[..]);
        // Global row ids locate correctly on both sides of the boundary.
        assert_eq!(s.locate(0), RowLoc::Main { seg: 0, local: 0 });
        assert_eq!(s.locate(399), RowLoc::Main { seg: 3, local: 99 });
        assert_eq!(s.locate(400), RowLoc::Delta { local: 0 });
        assert_eq!(s.get_int(0, 250), Some(250));
    }

    #[test]
    fn large_merge_splits_into_segments() {
        let t = Table::new("t", strict_schema(&[("v", DataType::Int64)]));
        let o = TimestampOracle::new();
        let n = SEGMENT_ROWS + 1000;
        for i in 0..n as i64 {
            ins(&t, &o, &Record::new().with("v", i));
        }
        let stats = t.merge();
        assert_eq!(stats.segments_created, 2);
        let s = t.read();
        assert_eq!(s.segments()[0].rows(), SEGMENT_ROWS);
        assert_eq!(s.segments()[1].rows(), 1000);
        assert_eq!(s.segment_base(1), SEGMENT_ROWS);
        // Sorted ints compress hard.
        assert!(s.encoded_bytes() * 4 < s.raw_bytes());
    }

    #[test]
    fn strings_survive_merge_via_global_dict() {
        let t = Table::new("users", strict_schema(&[("id", DataType::Int64), ("country", DataType::Str)]));
        let o = TimestampOracle::new();
        let countries = ["de", "us", "fr", "de"];
        for (i, c) in countries.iter().enumerate() {
            ins(&t, &o, &Record::new().with("id", i as i64).with("country", *c));
        }
        t.merge();
        // New delta rows after the merge get a fresh local dictionary.
        ins(&t, &o, &Record::new().with("id", 4i64).with("country", "jp"));
        ins(&t, &o, &Record::new().with("id", 5i64).with("country", "de"));
        let s = t.read();
        let col = s.column("country").unwrap();
        let vals: Vec<&str> = col.as_str().unwrap().iter().collect();
        assert_eq!(vals, vec!["de", "us", "fr", "de", "jp", "de"]);
        assert!(s.str_eq(1, 0, "de").unwrap());
        assert!(!s.str_eq(1, 1, "de").unwrap());
        assert!(s.str_eq(1, 5, "de").unwrap());
        // Distinct count: "de" lives in both the global (merged) and the
        // delta-local dictionary but is counted once — {de, us, fr, jp}.
        let meta = s.planner_meta();
        assert_eq!(meta.columns.iter().find(|c| c.name == "country").unwrap().ndv, 4);
    }

    #[test]
    fn flexible_table_grows_columns() {
        let t = Table::new("events", TableSchema::flexible());
        let o = TimestampOracle::new();
        ins(&t, &o, &Record::new().with("a", 1i64));
        ins(&t, &o, &Record::new().with("a", 2i64).with("b", "x"));
        ins(&t, &o, &Record::new().with("b", "y"));
        let s = t.read();
        assert_eq!(s.rows(), 3);
        assert_eq!(s.schema().width(), 2);
        // Backfilled nulls: b missing in row 0, a missing in row 2.
        assert_eq!(s.null_count("b"), Some(1));
        assert_eq!(s.null_count("a"), Some(1));
        // Sentinel values are stored densely.
        assert_eq!(s.column("a").unwrap().as_int64().unwrap(), &[1, 2, 0]);
        assert!(is_flexible(&s));
    }

    #[test]
    fn columns_evolved_after_merge_read_as_null() {
        let t = Table::new("events", TableSchema::flexible());
        let o = TimestampOracle::new();
        ins(&t, &o, &Record::new().with("a", 1i64));
        ins(&t, &o, &Record::new().with("a", 2i64));
        t.merge();
        ins(&t, &o, &Record::new().with("a", 3i64).with("b", 9i64));
        // Segment rows predate b: null there, value in the delta.
        let s = t.read();
        assert_eq!(s.null_count("b"), Some(2));
        assert_eq!(s.validity("b").unwrap(), vec![false, false, true]);
        assert_eq!(s.column("b").unwrap().as_int64().unwrap(), &[0, 0, 9]);
        assert_eq!(s.get_int(1, 0), Some(0), "sentinel for pre-evolution segment rows");
        // And merging again folds b into the new segment.
        t.merge();
        let s = t.read();
        assert_eq!(s.null_count("b"), Some(2));
        assert_eq!(s.column("b").unwrap().as_int64().unwrap(), &[0, 0, 9]);
    }

    #[test]
    fn strict_rejects_drift() {
        let (t, o) = orders();
        assert!(t.insert(&Record::new().with("id", 1i64), &o).is_err(), "missing amount");
        assert!(t
            .insert(&Record::new().with("id", 1i64).with("amount", 1i64).with("new", 1i64), &o)
            .is_err());
        assert_eq!(t.rows(), 10, "failed inserts must not partially apply rows");
    }

    #[test]
    fn planner_meta_reflects_data() {
        let (t, _) = orders();
        let meta = t.read().planner_meta();
        assert_eq!(meta.rows, 10);
        let id = meta.columns.iter().find(|c| c.name == "id").unwrap();
        assert_eq!(id.min, 0);
        assert_eq!(id.max, 9);
        assert_eq!(id.ndv, 10);
        // Check the stats drive sane selectivity.
        let sel = haec_planner::access::estimate_selectivity(&meta, "id", CmpOp::Lt, 5);
        assert!((sel - 0.5).abs() < 0.01);
    }

    #[test]
    fn planner_meta_stable_across_merge() {
        let (t, _) = orders();
        let before = t.read().planner_meta();
        t.merge();
        let after = t.read().planner_meta();
        assert_eq!(before.rows, after.rows);
        let (b, a) = (
            before.columns.iter().find(|c| c.name == "amount").unwrap(),
            after.columns.iter().find(|c| c.name == "amount").unwrap(),
        );
        assert_eq!((b.min, b.max, b.ndv), (a.min, a.max, a.ndv));
        // Merged representation is what size (and thus scan cost) sees.
        assert!(after.row_bytes <= before.row_bytes);
    }

    #[test]
    fn zone_maps_cover_main_and_delta() {
        let t = Table::new("t", strict_schema(&[("v", DataType::Int64)]));
        let o = TimestampOracle::new();
        for i in 0..100i64 {
            ins(&t, &o, &Record::new().with("v", i));
        }
        t.merge();
        for i in 500..520i64 {
            ins(&t, &o, &Record::new().with("v", i));
        }
        let s = t.read();
        let zones = s.zone_maps("v").unwrap();
        assert_eq!(zones.len(), 2);
        assert_eq!((zones[0].min, zones[0].max, zones[0].rows), (0, 99, 100));
        assert_eq!((zones[1].min, zones[1].max, zones[1].rows), (500, 519, 20));
        assert!(s.zone_maps("nope").is_none());
    }

    #[test]
    fn gather_ints_spans_storage_kinds() {
        let t = Table::new("t", strict_schema(&[("v", DataType::Int64)]));
        let o = TimestampOracle::new();
        for i in 0..200i64 {
            ins(&t, &o, &Record::new().with("v", i * 2));
        }
        t.merge();
        for i in 200..250i64 {
            ins(&t, &o, &Record::new().with("v", i * 2));
        }
        let s = t.read();
        // Sparse positions (compressed random access) + delta positions.
        let pos: Vec<u32> = vec![0, 3, 199, 200, 249];
        assert_eq!(s.gather_ints("v", Some(&pos)).unwrap(), vec![0, 6, 398, 400, 498]);
        // Dense positions (whole-segment decode path).
        let all: Vec<u32> = (0..250).collect();
        let full = s.gather_ints("v", Some(&all)).unwrap();
        assert_eq!(full, s.gather_ints("v", None).unwrap());
        assert_eq!(full[123], 246);
    }

    #[test]
    fn gather_rows_any_order_with_duplicates() {
        let t = Table::new(
            "t",
            strict_schema(&[("v", DataType::Int64), ("f", DataType::Float64), ("s", DataType::Str)]),
        );
        let o = TimestampOracle::new();
        let tags = ["de", "us", "fr", "de"];
        for i in 0..200i64 {
            ins(
                &t,
                &o,
                &Record::new()
                    .with("v", i * 2)
                    .with("f", i as f64 / 2.0)
                    .with("s", tags[i as usize % tags.len()]),
            );
        }
        t.merge();
        for i in 200..220i64 {
            ins(
                &t,
                &o,
                &Record::new()
                    .with("v", i * 2)
                    .with("f", i as f64 / 2.0)
                    .with("s", tags[i as usize % tags.len()]),
            );
        }
        let snap = t.read();
        // Unsorted rows with duplicates, spanning main and delta.
        let rows: Vec<u32> = vec![210, 3, 199, 3, 1, 215];
        let names: Vec<String> = ["v", "f", "s"].iter().map(ToString::to_string).collect();
        let (cols, stats) = snap.gather_rows(&names, &rows).unwrap();
        assert_eq!(cols[0].1.as_int64().unwrap(), &[420, 6, 398, 6, 2, 430]);
        assert_eq!(cols[1].1.as_float64().unwrap(), &[105.0, 1.5, 99.5, 1.5, 0.5, 107.5]);
        let s = cols[2].1.as_str().unwrap();
        let got: Vec<&str> = s.iter().collect();
        assert_eq!(got, vec!["fr", "de", "de", "de", "us", "de"]);
        // Code-to-code: the output dictionary holds each distinct value
        // once, despite duplicate gathers.
        assert_eq!(s.dict_size(), 3);
        assert!(stats.decode_items > 0, "main-segment cells are compressed random accesses");
        assert!(stats.bytes_read > 0 && stats.bytes_written > 0);
        // Empty gathers are free and shaped correctly.
        let (empty, es) = snap.gather_rows(&names, &[]).unwrap();
        assert!(empty.iter().all(|(_, c)| c.is_empty()));
        assert_eq!(es.decode_items, 0);
        assert!(snap.gather_rows(&["nope".to_string()], &[]).is_err());
    }

    #[test]
    fn sparse_dense_threshold() {
        assert!(sparse_hits(0, 1));
        assert!(sparse_hits(7, 64));
        assert!(!sparse_hits(8, 64), "exactly 1:{SPARSE_HIT_RATIO} streams");
        assert!(!sparse_hits(10, 10));
    }

    fn tagged_table() -> (Table, TimestampOracle) {
        let t = Table::new("t", strict_schema(&[("v", DataType::Int64), ("s", DataType::Str)]));
        let o = TimestampOracle::new();
        let tags = ["de", "us", "fr", "de"];
        for i in 0..200i64 {
            ins(&t, &o, &Record::new().with("v", i).with("s", tags[i as usize % tags.len()]));
        }
        t.merge();
        // Delta tail re-uses "de" (shared with the global dict) and adds
        // a fresh value.
        for i in 200..220i64 {
            ins(&t, &o, &Record::new().with("v", i).with("s", if i % 2 == 0 { "de" } else { "jp" }));
        }
        (t, o)
    }

    #[test]
    fn string_projection_carries_codes_with_shared_dict() {
        let (t, _) = tagged_table();
        let snap = t.read();
        let names = vec!["s".to_string()];
        // Full projection: every store, one output dictionary.
        let (cols, stats) = snap.materialize_columns(&names, None).unwrap();
        let s = cols[0].1.as_str().unwrap();
        assert_eq!(s.len(), 220);
        // Distinct values appear once each, despite living in two code
        // spaces ("de" is in both the global and the delta dictionary).
        assert_eq!(s.dict_size(), 4, "de/us/fr/jp, shared across stores");
        assert_eq!(s.get(0), Some("de"));
        assert_eq!(s.get(219), Some("jp"));
        assert!(stats.decode_items >= 200, "main codes stream-decoded");
        assert!(stats.bytes_read > 0 && stats.bytes_written > 0);
        // Sparse projection: compressed random access, same answers.
        let pos: Vec<u32> = vec![1, 50, 201];
        let (cols, sp) = snap.materialize_columns(&names, Some(&pos)).unwrap();
        let s = cols[0].1.as_str().unwrap();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec!["us", "fr", "jp"]);
        assert_eq!(s.dict_size(), 3, "only touched values enter the dictionary");
        assert_eq!(sp.decode_items, 2, "two main cells randomly accessed");
    }

    #[test]
    fn materialize_stats_bill_the_path_taken() {
        let (t, _) = tagged_table();
        let snap = t.read();
        let names = vec!["v".to_string()];
        // Dense: the segment streams its encoded bytes once.
        let (_, dense) = snap.materialize_columns(&names, None).unwrap();
        let encoded = snap.segments()[0].column(0).unwrap().encoded_bytes() as u64;
        assert_eq!(dense.decode_items, 200);
        assert_eq!(dense.bytes_read, encoded + 20 * 8, "encoded segment + flat delta");
        // Sparse: per-cell random access, 8 B each.
        let pos: Vec<u32> = vec![0, 199, 210];
        let (_, sparse) = snap.materialize_columns(&names, Some(&pos)).unwrap();
        assert_eq!(sparse.decode_items, 2);
        assert_eq!(sparse.bytes_read, 2 * 8 + 8, "two random cells + one delta cell");
        assert!(snap.materialize_columns(&["nope".to_string()], None).is_err());
    }

    #[test]
    fn size_grows_with_rows() {
        let small = orders().0.read().size_bytes();
        let (big, o) = orders();
        for i in 10..1000 {
            ins(&big, &o, &Record::new().with("id", i as i64).with("amount", 1i64));
        }
        assert!(big.read().size_bytes() > small);
    }

    #[test]
    fn merge_threshold_knob() {
        let (t, _) = orders();
        assert_eq!(t.merge_threshold(), SEGMENT_ROWS);
        assert!(!t.needs_merge());
        t.set_merge_threshold(5);
        assert!(t.needs_merge());
        t.merge();
        assert!(!t.needs_merge());
    }

    // ---- MVCC: snapshots, timestamps, merge swap ----

    #[test]
    fn snapshot_is_immutable_under_inserts() {
        let (t, o) = orders();
        let snap = t.snapshot(&o);
        assert_eq!(snap.rows(), 10);
        ins(&t, &o, &Record::new().with("id", 10i64).with("amount", 100i64));
        assert_eq!(t.rows(), 11);
        assert_eq!(snap.rows(), 10, "the pin is a copy, not a view of live state");
        assert_eq!(snap.column("amount").unwrap().as_int64().unwrap().len(), 10);
        // A fresh snapshot sees the new row.
        assert_eq!(t.snapshot(&o).rows(), 11);
    }

    #[test]
    fn pin_at_sees_exactly_the_prefix() {
        let t = Table::new("t", strict_schema(&[("v", DataType::Int64)]));
        let o = TimestampOracle::new();
        let mut stamps = Vec::new();
        for i in 0..6i64 {
            stamps.push(t.insert(&Record::new().with("v", i), &o).unwrap().0);
        }
        for (i, &ts) in stamps.iter().enumerate() {
            let s = t.pin_at(ts).expect("nothing merged yet");
            assert_eq!(s.rows(), i + 1, "exactly the rows committed before the pin");
            assert_eq!(s.timestamp(), ts);
            assert_eq!(s.get_int(0, i), Some(i as i64));
        }
        assert_eq!(t.pin_at(Timestamp::ZERO).unwrap().rows(), 0, "pre-history sees nothing");
    }

    #[test]
    fn pin_at_refuses_timestamps_older_than_a_merge() {
        let (t, o) = orders();
        let old = t.snapshot(&o).timestamp();
        ins(&t, &o, &Record::new().with("id", 10i64).with("amount", 100i64));
        t.merge();
        // The merge folded a row newer than `old` into timestamp-less
        // segments; that version can no longer serve the old pin.
        assert!(t.pin_at(old).is_none());
        // A fresh timestamp pins fine (and sees everything).
        let fresh = t.pin_at(o.next()).expect("current version serves fresh timestamps");
        assert_eq!(fresh.rows(), 11);
        // And a second merge with an empty delta changes nothing.
        t.merge();
        assert!(t.pin_at(fresh.timestamp()).is_some());
    }

    #[test]
    fn snapshot_survives_merge_swap() {
        let (t, o) = orders();
        let snap = t.snapshot(&o);
        let epoch = snap.epoch();
        t.merge();
        assert_eq!(t.epoch(), epoch + 1, "merge published a new version");
        // The old pin still reads the pre-merge layout, answers intact.
        assert_eq!(snap.epoch(), epoch);
        assert_eq!(snap.main_rows(), 0);
        assert_eq!(snap.delta_rows(), 10);
        assert_eq!(
            snap.column("amount").unwrap().as_int64().unwrap(),
            &[0, 10, 20, 30, 40, 50, 60, 70, 80, 90]
        );
        // The new layout holds identical data.
        let now = t.read();
        assert_eq!(now.main_rows(), 10);
        assert_eq!(
            now.column("amount").unwrap().as_int64().unwrap(),
            snap.column("amount").unwrap().as_int64().unwrap()
        );
    }

    #[test]
    fn snapshot_pins_dictionary_state() {
        let t = Table::new("t", strict_schema(&[("s", DataType::Str)]));
        let o = TimestampOracle::new();
        ins(&t, &o, &Record::new().with("s", "a"));
        ins(&t, &o, &Record::new().with("s", "b"));
        let snap = t.snapshot(&o);
        // Grow the dictionary after the pin, then freeze it via merge.
        ins(&t, &o, &Record::new().with("s", "c"));
        ins(&t, &o, &Record::new().with("s", "d"));
        t.merge();
        let col = snap.column("s").unwrap();
        let s = col.as_str().unwrap();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(s.dict_size(), 2, "dictionary growth after the pin is invisible");
        assert_eq!(t.read().column("s").unwrap().as_str().unwrap().dict_size(), 4);
    }

    #[test]
    fn oracle_timestamps_monotone_across_insert_merge_snapshot() {
        let t = Table::new("t", strict_schema(&[("v", DataType::Int64)]));
        let o = TimestampOracle::new();
        let mut last = Timestamp::ZERO;
        for round in 0..3i64 {
            for i in 0..5i64 {
                let (ts, row) = t.insert(&Record::new().with("v", round * 5 + i), &o).unwrap();
                assert!(ts > last, "insert timestamps strictly increase");
                assert_eq!(row as i64, round * 6 + i, "row ids are insertion order");
                last = ts;
            }
            let snap = t.snapshot(&o);
            assert!(snap.timestamp() > last, "snapshot timestamps join the same total order");
            last = snap.timestamp();
            t.merge();
            let (ts, _) = t.insert(&Record::new().with("v", -1), &o).unwrap();
            assert!(ts > last, "a merge never resets or reuses timestamps");
            last = ts;
        }
    }

    #[test]
    fn with_pending_reads_own_writes() {
        let (t, o) = orders();
        let snap = t.snapshot(&o);
        let pending = vec![Record::new().with("id", 10i64).with("amount", 100i64)];
        let rw = snap.with_pending(&pending).unwrap();
        assert_eq!(rw.rows(), 11);
        assert_eq!(rw.get_int(1, 10), Some(100), "the overlay row reads back");
        assert_eq!(snap.rows(), 10, "the base pin is untouched");
        assert_eq!(t.rows(), 10, "nothing was committed to the table");
        // Schema violations in the overlay surface as errors.
        assert!(snap.with_pending(&[Record::new().with("id", 1i64)]).is_err());
    }

    #[test]
    fn delta_suffix_rebuilds_compact_dictionary() {
        let mut d = DictColumn::new();
        for v in ["a", "b", "a", "c"] {
            d.push(v);
        }
        let suffix = column_suffix(&Column::Str(d), 3);
        let s = suffix.as_str().unwrap();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec!["c"]);
        assert_eq!(s.dict_size(), 1, "stale entries must not leak into the next merge's global dict");
    }

    #[test]
    fn concurrent_inserts_during_merge_stay_in_delta() {
        use std::sync::Barrier;
        let t = Arc::new(Table::new("t", strict_schema(&[("v", DataType::Int64)])));
        let o = Arc::new(TimestampOracle::new());
        for i in 0..1000i64 {
            ins(&t, &o, &Record::new().with("v", i));
        }
        let barrier = Arc::new(Barrier::new(2));
        let writer = {
            let (t, o, barrier) = (Arc::clone(&t), Arc::clone(&o), Arc::clone(&barrier));
            std::thread::spawn(move || {
                barrier.wait();
                for i in 1000..1200i64 {
                    ins(&t, &o, &Record::new().with("v", i));
                }
            })
        };
        barrier.wait();
        t.merge();
        writer.join().unwrap();
        t.merge();
        let s = t.read();
        assert_eq!(s.rows(), 1200);
        let v = s.column("v").unwrap();
        let expected: Vec<i64> = (0..1200).collect();
        assert_eq!(v.as_int64().unwrap(), &expected[..], "no row lost or duplicated across the swap");
    }
}
