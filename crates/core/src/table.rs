//! In-memory tables: segmented main/delta columnar storage behind a
//! schema, versioned for MVCC snapshot reads.
//!
//! A [`Table`] is the paper's two-store design with the delta in two
//! stages (SAP HANA's L1-delta → L2-delta → main life cycle). A row is
//! appended to the one mutable **open chunk** at `Vec::push` speed;
//! every [`DELTA_CHUNK_ROWS`] rows the open chunk is **sealed** — moved
//! behind an `Arc`, never written again (`crate::delta`) — and an
//! explicit [`Table::merge`] compacts the sealed chunks into the
//! immutable, compressed **main** (a vector of [`Segment`]s, each ≤
//! [`SEGMENT_ROWS`] rows, int columns as
//! [`haec_columnar::encoding::EncodedInts`], strings as dictionary
//! codes, per-column zone maps), reporting the work done as
//! [`MergeStats`] so the caller can charge it to the energy meter; the
//! `Database` layer triggers it automatically once the delta exceeds
//! [`Table::merge_threshold`].
//!
//! What each stage costs whom: the **writer** pushes cells and nothing
//! else — no statistic is maintained at insert, sealing is a pointer
//! move. A **reader** pins sealed chunks by `Arc` and copies only the
//! visible prefix of the open chunk; every store it reads — segment or
//! chunk — shows it one [`SegColumn`] per column (`Store::column`). A
//! sealed chunk's is encoded, zoned and measured by the first reader
//! that asks and cached in the chunk for all others; that encode is
//! charged to the database's meter, never to the query. The **merge**
//! takes the chunks' `Arc`s, builds with no lock held and publishes by
//! draining them from the front of the list.
//!
//! Concurrency model: the `Table` itself is a thread-safe handle.
//! Writers append under a short write lock, drawing one timestamp per
//! row from the shared [`TimestampOracle`]; readers pin a
//! [`TableSnapshot`] — `Arc`s to the current immutable main version and
//! to the sealed chunks visible at their timestamp, plus a copy of the
//! visible prefix of at most one chunk — and then never touch the lock
//! again. [`Table::merge`] compresses the delta **outside** all locks
//! and then publishes the new segment set as an atomic `Arc` swap, so
//! readers are never blocked for the duration of a merge; old versions
//! and drained chunks are reclaimed epoch-style when the last snapshot
//! pinning them drops.
//!
//! Global row ids are positions: segments cover `[0, main_rows)` in
//! merge order (a sorting merge permutes its batch) and the delta
//! chunks cover `[main_rows, rows)` in append order. An index never
//! holds one: each store indexes its own rows ([`crate::index`]), and
//! the table keeps only the list of its indexed columns, which every
//! snapshot captures at its pin.

use crate::delta::{DeltaChunk, DeltaDicts};
use crate::error::{DbError, DbResult};
use crate::index::{Index, IndexMaintenance};
use crate::schema::{Record, TableSchema};
use crate::segment::{FlatColumn, MainSet, MergeStats, SegColumn, Segment, SEGMENT_ROWS};
use haec_columnar::chunk::Chunk;
use haec_columnar::column::Column;
use haec_columnar::dict::DictColumn;
use haec_columnar::value::DataType;
use haec_planner::access::ZoneMapMeta;
use haec_txn::oracle::{Timestamp, TimestampOracle};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Hit-density crossover between the two ways to read a compressed
/// segment column: below one hit per `SPARSE_HIT_RATIO` rows, the hits
/// alone are read through a forward cursor (`EncodedInts::cursor`):
/// direct on Plain and FOR, a resume from the previous hit's run on
/// RLE, and on Delta one held 64-row block — a hit inside it is an
/// array load, a later hit skips each whole block in between and
/// decodes its own — never `EncodedInts::get`'s re-walk from the
/// checkpoint or bisection per cell. At or above the crossover the
/// segment is stream-decoded once, 64-row block by block
/// (`EncodedInts::blocks`). Measured on a 2-core x86-64 VM (`cargo
/// bench -p haec-bench`, `sparse_access`, 64 K-row columns): a streamed
/// row costs 0.4 ns on Plain and RLE, 0.7 ns on FOR and 1.1–1.5 ns on
/// Delta; a positioned read costs 1.4–3.6 ns per hit on Plain, RLE and
/// FOR, and on Delta ≈ 21 ns per 64-row block *skipped* (one unpack and
/// a summed fold, 0.3 ns per row) plus ≈ 66 ns per block decoded — 9 ns
/// per hit at 1:8, 17 at 1:16, 66 at 1:64 and ≈ 400 at 1:1024, where the
/// per-row walk it replaced paid 2.5 ns per row skipped (20 ns per hit
/// at 1:8, 860 at 1:1024). At 1:8 both ways now decode every Delta block
/// once and tie within a few ns per hit, and streaming costs a few ns
/// more per hit on the directly addressed schemes; the ratio stays 8 for
/// all schemes because it is also the billing rule. Every per-unit
/// selection the executor reads — join keys, aggregated values and
/// gathered cells, a gather's row list cut into the same selections —
/// tests this crossover via [`sparse_hits`] in one place (the executor's
/// `walk`), and the same test decides the bill, so execution and billing
/// can never disagree on which path ran. A *positional* selection — a
/// gather's list out of order or with a repeat, the shape join payload
/// rows have — never streams however many entries it holds: it is
/// marked positional, never inferred from a count. The delta chunks
/// follow the same rule through their views.
const SPARSE_HIT_RATIO: usize = 8;

/// Returns `true` when `hits` out of `rows` is below the 1-in-
/// `SPARSE_HIT_RATIO` density — read per hit (forward cursor), not
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

/// One gathered column's cells — in row order as the shares fill them,
/// in output order after [`GatherOut::scatter_to`] — strings still as
/// *unified source codes* (table-global codes, then delta-local codes,
/// then the `""` sentinel), interned once every share is in.
enum Cells {
    Ints(Vec<i64>),
    Floats(Vec<f64>),
    Codes(Vec<u32>),
}

impl Cells {
    fn as_mut(&mut self) -> CellsMut<'_> {
        match self {
            Cells::Ints(v) => CellsMut::Ints(v),
            Cells::Floats(v) => CellsMut::Floats(v),
            Cells::Codes(v) => CellsMut::Codes(v),
        }
    }

    /// Moves cell `k` to `slots[k]` (`slots` is a permutation).
    fn scatter_to(&mut self, slots: &[u32]) {
        fn scattered<T: Copy + Default>(cells: &[T], slots: &[u32]) -> Vec<T> {
            let mut out = vec![T::default(); cells.len()];
            cells.iter().zip(slots).for_each(|(&cell, &slot)| out[slot as usize] = cell);
            out
        }
        match self {
            Cells::Ints(v) => *v = scattered(v, slots),
            Cells::Floats(v) => *v = scattered(v, slots),
            Cells::Codes(v) => *v = scattered(v, slots),
        }
    }
}

/// A run of one gathered column's cells: what one share of a gather
/// writes.
pub(crate) enum CellsMut<'o> {
    Ints(&'o mut [i64]),
    Floats(&'o mut [f64]),
    Codes(&'o mut [u32]),
}

impl<'o> CellsMut<'o> {
    /// Splits the run after its first `n` cells.
    fn split_at(self, n: usize) -> (CellsMut<'o>, CellsMut<'o>) {
        match self {
            CellsMut::Ints(v) => {
                let (a, b) = v.split_at_mut(n);
                (CellsMut::Ints(a), CellsMut::Ints(b))
            }
            CellsMut::Floats(v) => {
                let (a, b) = v.split_at_mut(n);
                (CellsMut::Floats(a), CellsMut::Floats(b))
            }
            CellsMut::Codes(v) => {
                let (a, b) = v.split_at_mut(n);
                (CellsMut::Codes(a), CellsMut::Codes(b))
            }
        }
    }
}

/// The output of one gather, allocated once by its caller: per named
/// column, its schema index and its cells, in the order the units were
/// read until [`GatherOut::scatter_to`]. Shares fill their runs
/// ([`GatherOut::split`]), [`TableSnapshot::finish_gather`] turns it into
/// columns.
pub(crate) struct GatherOut<'n> {
    names: &'n [String],
    cols: Vec<(usize, Cells)>,
}

impl GatherOut<'_> {
    /// Number of columns.
    pub(crate) fn width(&self) -> usize {
        self.cols.len()
    }

    /// Every column cut into consecutive runs of `lens` cells, column by
    /// column: run `s` of column `c` is item `c * lens.len() + s`.
    pub(crate) fn split<'a>(
        &'a mut self,
        lens: &'a [usize],
    ) -> impl Iterator<Item = (usize, CellsMut<'a>)> + 'a {
        self.cols.iter_mut().flat_map(move |(idx, cells)| {
            let mut rest = cells.as_mut();
            lens.iter().map(move |&n| {
                let (run, tail) = std::mem::replace(&mut rest, CellsMut::Ints(&mut [])).split_at(n);
                rest = tail;
                (*idx, run)
            })
        })
    }

    /// Reorders every column from list order into output order: cell `k`
    /// moves to `slots[k]`.
    pub(crate) fn scatter_to(&mut self, slots: &[u32]) {
        self.cols.iter_mut().for_each(|(_, cells)| cells.scatter_to(slots));
    }
}

/// Rows per sealed delta chunk — the granule at which the delta is
/// shared with snapshots, zone-pruned and dispatched.
///
/// Chosen by measurement on `haecbench mixed_serve` (a 30 K-row mean
/// live delta beside closed-loop readers) from 1 K, 2 K, 4 K, 8 K and
/// 16 K, three alternating rounds: `qps` does not resolve the five
/// (948–1 055, inside the run-to-run spread), `query_p50_us` does — 106,
/// 103, 111, 126, 174 µs — because a pin copies the open chunk's visible
/// prefix and a point query scans one chunk plus that prefix, so both
/// shrink with the chunk while every chunk is only one more (cheap)
/// execution unit for queries that read the whole delta. 1 K and 2 K
/// tie; 1 K also bounds what the first reader of a chunk pays for its
/// statistics, and keeps a delta of more than 1 K rows more than one
/// unit, which the pooled-dispatch fault tests rely on.
pub const DELTA_CHUNK_ROWS: usize = 1024;

/// The mutable state of a table, guarded by the handle's `RwLock`.
#[derive(Debug)]
struct TableState {
    /// Behind an `Arc` so a pin copies a pointer; a flexible schema
    /// evolves through `Arc::make_mut`.
    schema: Arc<TableSchema>,
    /// The current immutable main version; swapped wholesale at merge.
    main: Arc<MainSet>,
    /// The sealed delta chunks, oldest first: immutable, shared with
    /// snapshots by `Arc`, drained from the front by merge publish.
    sealed: Vec<Arc<DeltaChunk>>,
    /// The one mutable chunk inserts append to; sealed when it reaches
    /// [`DELTA_CHUNK_ROWS`] rows and when a merge pins the delta.
    open: DeltaChunk,
    /// The delta-wide dictionaries the chunks' string codes index.
    dicts: DeltaDicts,
    rows: usize,
    /// The indexed columns, one entry each; replaced, never edited, so
    /// a pin copies a pointer.
    indexes: Arc<[Arc<Index>]>,
}

impl TableState {
    fn delta_rows(&self) -> usize {
        self.rows - self.main.rows
    }

    /// Seals the open chunk (O(1): the chunk moves behind an `Arc`).
    fn seal(&mut self) {
        if self.open.rows() > 0 {
            let fresh = DeltaChunk::new(self.schema.columns(), DELTA_CHUNK_ROWS);
            self.sealed.push(Arc::new(std::mem::replace(&mut self.open, fresh)));
        }
    }
}

/// A named table: a thread-safe handle over compressed main segments +
/// delta chunks + validity tracking.
///
/// All reads go through a [`TableSnapshot`] (see [`Table::snapshot`],
/// [`Table::pin_at`], [`Table::read`]); writes ([`Table::insert`],
/// [`Table::merge`]) take `&self` and synchronize internally, so a
/// `Table` can be shared across threads behind an `Arc`.
#[derive(Debug)]
pub struct Table {
    name: Arc<str>,
    inner: RwLock<TableState>,
    /// Serializes mergers with each other (readers and writers are
    /// *not* held up by this — merge pins and publishes via two brief
    /// write locks).
    merge_lock: Mutex<()>,
    /// Delta row count that triggers an automatic merge (at the
    /// `Database` layer, so the work is metered).
    merge_threshold: AtomicUsize,
}

impl Table {
    /// Creates a table with the given schema.
    pub fn new(name: impl Into<String>, schema: TableSchema) -> Self {
        let open = DeltaChunk::new(schema.columns(), 0);
        let dicts = schema.columns().iter().map(|(_, t)| new_delta_dict(*t)).collect();
        Table {
            name: name.into().into(),
            inner: RwLock::new(TableState {
                schema: Arc::new(schema),
                main: Arc::new(MainSet::empty()),
                sealed: Vec::new(),
                open,
                dicts,
                rows: 0,
                indexes: Arc::new([]),
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
        TableSchema::clone(&self.inner.read().schema)
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

    /// Rows in the delta right now.
    pub fn delta_rows(&self) -> usize {
        self.inner.read().delta_rows()
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

    /// Declares an index on the integer column at `column` under
    /// `maintenance`, replacing any index the column had (its stores keep
    /// their built cells), and returns the new entry. Snapshots pinned
    /// from here on see it; no store is indexed here.
    pub(crate) fn add_index(&self, column: usize, maintenance: IndexMaintenance) -> Arc<Index> {
        let index = Arc::new(Index::new(column, maintenance));
        let mut st = self.inner.write();
        let kept = st.indexes.iter().filter(|i| i.column != column).cloned();
        st.indexes = kept.chain([Arc::clone(&index)]).collect();
        index
    }

    /// The indexed columns right now.
    pub(crate) fn indexes(&self) -> Arc<[Arc<Index>]> {
        Arc::clone(&self.inner.read().indexes)
    }

    /// Appends one record to the open delta chunk, evolving a flexible
    /// schema as needed, and stamps the row with the next timestamp from
    /// `oracle`. Returns the timestamp, the row's global id and the
    /// delta's row count with this row in it (what the caller compares
    /// to [`Table::merge_threshold`] without taking the lock again).
    ///
    /// The timestamp is drawn **under the table's write lock**, so
    /// append order and timestamp order always agree — the property that
    /// makes "rows visible at ts" a prefix. All inserts into one table
    /// must therefore share one oracle (the `Database` owns it).
    ///
    /// An insert is a push per column and nothing else: a full chunk is
    /// sealed by moving it behind an `Arc`, and no statistic is ever
    /// maintained here (readers derive them from sealed chunks, once).
    /// Inserts never touch the main store; call [`Table::merge`] (or let
    /// the `Database` auto-merge) to compact the delta.
    ///
    /// # Errors
    ///
    /// Propagates schema violations and type mismatches; a rejected
    /// record changes nothing.
    pub fn insert(&self, record: &Record, oracle: &TimestampOracle) -> DbResult<(Timestamp, u32, usize)> {
        let mut st = self.inner.write();
        let st = &mut *st;
        let ts = append_record(&mut st.schema, &mut st.dicts, &mut st.open, record, Some(oracle))?
            .expect("stamped by the oracle");
        if st.open.rows() >= DELTA_CHUNK_ROWS {
            st.seal();
        }
        let row = st.rows as u32;
        st.rows += 1;
        Ok((ts, row, st.delta_rows()))
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
        self.snap(&st, ts)
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
        (st.main.max_ts <= ts.0).then(|| self.snap(&st, ts))
    }

    /// The latest state as a snapshot (timestamp ∞) — the view used by
    /// single-statement reads, diagnostics and tests.
    pub fn read(&self) -> TableSnapshot {
        self.snap(&self.inner.read(), Timestamp::INF)
    }

    /// The pin: pointer copies of the name, the schema, the main version,
    /// the delta dictionaries and every sealed chunk wholly visible at
    /// `ts`, plus a private copy of the visible prefix of at most one
    /// chunk — the sealed chunk `ts` cuts through, or the open one.
    fn snap(&self, st: &TableState, ts: Timestamp) -> TableSnapshot {
        let mut snap = TableSnapshot {
            name: Arc::clone(&self.name),
            schema: Arc::clone(&st.schema),
            main: Arc::clone(&st.main),
            chunks: Vec::with_capacity(st.sealed.len() + 1),
            chunk_bases: Vec::with_capacity(st.sealed.len() + 1),
            sealed: 0,
            dicts: st.dicts.clone(),
            rows: st.main.rows,
            ts,
            indexes: Arc::clone(&st.indexes),
        };
        // Timestamps ascend along the chunk list: the first chunk not
        // wholly visible is the one `ts` cuts through.
        for chunk in &st.sealed {
            let visible = chunk.visible_at(ts.0);
            if visible < chunk.rows() {
                snap.push_prefix(chunk, visible);
                return snap;
            }
            snap.chunk_bases.push(snap.rows);
            snap.rows += visible;
            snap.chunks.push(Arc::clone(chunk));
            snap.sealed += 1;
        }
        snap.push_prefix(&st.open, st.open.visible_at(ts.0));
        snap
    }

    /// Compacts the entire delta into new immutable main segments of at
    /// most [`SEGMENT_ROWS`] rows each, re-encoding every column with
    /// [`haec_columnar::encoding::EncodedInts::auto`] and remapping
    /// strings into the table-global dictionaries, then publishes the
    /// result as a new main version in one atomic swap.
    ///
    /// Readers are never blocked: the expensive re-encoding runs with
    /// no lock held, bracketed by two brief critical sections. The
    /// **pin** seals the open chunk and takes the `Arc`s of the sealed
    /// chunks (nothing is copied under the lock); the **publish** swaps
    /// in the new `MainSet` and drains exactly those chunks from the
    /// front of the list. Snapshots pinned before the swap keep reading
    /// the old version and the drained chunks through their `Arc`s; both
    /// are freed when the last such snapshot drops. Concurrent mergers
    /// serialize on an internal lock; inserts landing during the build
    /// go to a fresh open chunk and stay in the delta for the next
    /// merge.
    ///
    /// Returns [`MergeStats`] describing the re-encoding work so the
    /// caller can charge its CPU/DRAM cost; merging an empty delta is a
    /// free no-op.
    pub fn merge(&self) -> MergeStats {
        let _serialize = self.merge_lock.lock();
        // Phase 1 — pin: under a brief write lock, seal the open chunk
        // and take the Arcs of the chunks to compact, their dictionaries
        // and the version to extend.
        let (old_main, chunks, delta_dicts, schema, indexes) = {
            let mut st = self.inner.write();
            if st.delta_rows() == 0 {
                return MergeStats::default();
            }
            st.seal();
            let indexes = Arc::clone(&st.indexes);
            (Arc::clone(&st.main), st.sealed.clone(), st.dicts.clone(), Arc::clone(&st.schema), indexes)
        };
        let n: usize = chunks.iter().map(|c| c.rows()).sum();
        let max_ts = chunks.last().and_then(|c| c.last_ts()).expect("a merge pins at least one stamped row");
        // Build — no lock held; readers pin snapshots and writers
        // append freely while the delta is re-encoded. A fault anywhere
        // in this phase unwinds with only local state in hand: the
        // pinned `Arc`s drop, the table keeps its old version, and the
        // next merge re-pins the (still intact) chunks from scratch.
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
        // Local→global dictionary remaps, once per merge (every chunk
        // shares the delta-wide dictionaries).
        let remaps: Vec<Option<Vec<i64>>> = delta_dicts
            .iter()
            .zip(&mut dicts)
            .map(|(local, global)| Some(crate::segment::build_remap(local.as_deref()?, global.as_mut()?)))
            .collect();
        fail::fail_point!("merge::remap");
        // Flatten the chunks into one batch: dense columns in row order,
        // strings as global codes; rows of a chunk that predates a column
        // are nulls.
        let mut validity: Vec<Vec<bool>> = Vec::with_capacity(schema.width());
        let mut batch: Vec<FlatColumn<'_>> = Vec::with_capacity(schema.width());
        for (idx, (_, dtype)) in schema.columns().iter().enumerate() {
            let mut valid = Vec::with_capacity(n);
            for chunk in &chunks {
                match chunk.validity(idx) {
                    Some(v) => valid.extend_from_slice(v),
                    None => valid.resize(valid.len() + chunk.rows(), false),
                }
            }
            validity.push(valid);
            batch.push(match dtype {
                DataType::Int64 => {
                    FlatColumn::Int(flatten(&chunks, n, 0, |c| c.ints(idx).map(copied)).into())
                }
                DataType::Float64 => {
                    FlatColumn::Float(flatten(&chunks, n, 0.0, |c| c.floats(idx).map(copied)).into())
                }
                DataType::Str => {
                    let remap = remaps[idx].as_ref().expect("string column has a remap table");
                    let global = dicts[idx].as_mut().expect("string column has a global dictionary");
                    let predates = chunks.iter().any(|c| c.codes(idx).is_none());
                    let null = if predates { i64::from(global.intern("")) } else { 0 };
                    let to_global = |code: &u32| remap[*code as usize];
                    FlatColumn::Codes(
                        flatten(&chunks, n, null, |c| Some(c.codes(idx)?.iter().map(to_global))).into(),
                    )
                }
            });
        }
        // Sorting merge: a declared sort key reorders the pinned batch
        // before it is cut into segments, so every segment built here is
        // internally sorted and the batch's segments carry disjoint
        // ascending key ranges. The sort is **stable**, which together
        // with prefix visibility keeps MVCC correct: a merge folds an
        // entire timestamp prefix and `pin_at` refuses timestamps older
        // than the folded `max_ts`, so no snapshot can ever observe part
        // of a reordered batch. String keys sort by their **global
        // dictionary code** (insertion order of first appearance, not
        // collation) — the batch already holds them. A batch that
        // arrives in key order (append-ordered keys: every time-series
        // load) is left as it is: the stable sort would be the identity.
        let sorted_by = schema.sort_key().and_then(|k| schema.position(k));
        if let Some(key) = sorted_by {
            let keys = match &batch[key] {
                FlatColumn::Int(v) | FlatColumn::Codes(v) => v,
                // INVARIANT: `Database::create_table_sorted` accepts only
                // an `Int64` or `Str` sort key.
                FlatColumn::Float(_) => unreachable!("sort keys are validated Int64 or Str"),
            };
            if !keys.is_sorted() {
                let mut perm: Vec<u32> = (0..n as u32).collect();
                perm.sort_by_key(|&i| keys[i as usize]); // stable
                for col in &mut batch {
                    match col {
                        FlatColumn::Int(v) | FlatColumn::Codes(v) => *v = permute(v, &perm).into(),
                        FlatColumn::Float(v) => *v = permute(v, &perm).into(),
                    }
                }
                validity.iter_mut().for_each(|v| *v = permute(v, &perm));
            }
        }
        let mut stats = MergeStats { rows_merged: n, ..MergeStats::default() };
        let mut segments = old_main.segments.clone();
        let mut bases = old_main.bases.clone();
        let mut main_rows = old_main.rows;
        let mut start = 0;
        while start < n {
            fail::fail_point!("merge::segment");
            let end = (start + SEGMENT_ROWS).min(n);
            let seg = Segment::build(&batch, &validity, start, end, sorted_by);
            // Eager indexes index the new segment before anyone can
            // read it.
            for index in indexes.iter().filter(|i| i.maintenance == IndexMaintenance::Eager) {
                index.on(Store::Seg(&seg), false);
            }
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
        // version and drain the compacted chunks. Chunks sealed during
        // the build, the open chunk, and columns a flexible schema grew
        // meanwhile are untouched: the row count does not change, `n`
        // rows only moved from the delta to main.
        let mut st = self.inner.write();
        // The publish failpoint sits after the write lock is taken but
        // before the first field mutation: an injected panic here
        // releases the (non-poisoning) lock on unwind with the old
        // state untouched — the strictest spot to prove the swap is
        // all-or-nothing.
        fail::fail_point!("merge::publish");
        debug_assert_eq!(st.main.epoch, old_main.epoch, "mergers are serialized");
        st.sealed.drain(..chunks.len());
        st.main = new_main;
        st.compact_dicts();
        stats
    }
}

impl TableState {
    /// Rebuilds the delta-wide dictionaries from the rows a merge left
    /// behind — usually none, and the dictionaries simply start over;
    /// otherwise the survivors' codes are rewritten in first-appearance
    /// order. Entries only the compacted rows used must go: the next
    /// merge interns every delta dictionary entry into the table-global
    /// dictionary, and copy-on-growth clones what is here. Chunks a
    /// snapshot still shares are copied, never written; a rewritten
    /// column's cached view goes with its old codes (`map_codes`).
    fn compact_dicts(&mut self) {
        for (idx, slot) in self.dicts.iter_mut().enumerate() {
            let Some(old) = slot else { continue };
            let mut dict = DictColumn::new();
            let mut moved: Vec<Option<u32>> = vec![None; old.dict_size()];
            let mut recode = |code: u32| {
                *moved[code as usize]
                    .get_or_insert_with(|| dict.intern(old.decode(code).expect("code of this dictionary")))
            };
            for chunk in &mut self.sealed {
                if chunk.codes(idx).is_some() {
                    Arc::make_mut(chunk).map_codes(idx, &mut recode);
                }
            }
            self.open.map_codes(idx, &mut recode);
            *slot = Some(Arc::new(dict));
        }
    }
}

/// An empty delta-wide dictionary for a column of type `dtype` (`None`
/// unless it holds strings).
fn new_delta_dict(dtype: DataType) -> Option<Arc<DictColumn>> {
    (dtype == DataType::Str).then(|| Arc::new(DictColumn::new()))
}

/// One column of `n` delta rows: each chunk's `cells` — or, where the
/// chunk predates the column (`None`), `null` for every row of it.
fn flatten<'c, T: Clone, I: IntoIterator<Item = T>>(
    chunks: &'c [Arc<DeltaChunk>],
    n: usize,
    null: T,
    cells: impl Fn(&'c DeltaChunk) -> Option<I>,
) -> Vec<T> {
    let mut out = Vec::with_capacity(n);
    for chunk in chunks {
        match cells(chunk) {
            Some(cells) => out.extend(cells),
            None => out.resize(out.len() + chunk.rows(), null.clone()),
        }
    }
    out
}

/// A chunk's cells, by value.
fn copied<T: Copy>(cells: &[T]) -> impl Iterator<Item = T> + '_ {
    cells.iter().copied()
}

/// Reorders a merge batch column by a sort permutation (`perm[i]` is the
/// source row of output row `i`).
fn permute<T: Copy>(cells: &[T], perm: &[u32]) -> Vec<T> {
    perm.iter().map(|&i| cells[i as usize]).collect()
}

/// Appends one record to a delta chunk — the table's open chunk
/// ([`Table::insert`], which stamps the row from `oracle` and gets the
/// timestamp back) or a snapshot's private overlay chunk
/// ([`TableSnapshot::with_pending`]) — evolving a flexible schema as
/// needed: new columns materialize in this chunk backfilled with
/// sentinel nulls (earlier chunks and main segments that predate a
/// column report their rows as null implicitly). The record is checked
/// in full first; a rejected one leaves schema, dictionaries and chunk
/// untouched and draws no timestamp.
fn append_record(
    schema: &mut Arc<TableSchema>,
    dicts: &mut DeltaDicts,
    chunk: &mut DeltaChunk,
    record: &Record,
    oracle: Option<&TimestampOracle>,
) -> DbResult<Option<Timestamp>> {
    let checked = schema.check(record)?;
    if !checked.new_columns.is_empty() {
        for (_, dtype) in &checked.new_columns {
            dicts.push(new_delta_dict(*dtype));
            chunk.push_column(*dtype, dicts);
        }
        Arc::make_mut(schema).evolve(checked.new_columns);
    }
    // Drawn under the table's write lock, after the last check that can
    // fail: timestamp order is append order.
    let ts = oracle.map(TimestampOracle::next);
    debug_assert!(
        chunk.last_ts().zip(ts).is_none_or(|(last, ts)| last < ts.0),
        "all inserts into a table must share one oracle"
    );
    chunk.push_row(&checked.values, dicts, ts.map(|ts| ts.0));
    Ok(ts)
}

/// An immutable view of a table as of one timestamp: an `Arc` to the
/// main version current at the pin, the `Arc`s of the sealed delta
/// chunks visible at the snapshot's timestamp, and a private copy of
/// the visible prefix of the one chunk the timestamp cuts through.
///
/// This is the type the whole read path operates on — scans,
/// aggregates, joins, projections and planner statistics all see one
/// frozen state, whatever inserts and merges do concurrently. The
/// pinned `MainSet` also freezes the table-global string
/// dictionaries, and the pinned delta dictionaries never change under
/// the snapshot (the writer copies them on growth), so codes always
/// decode against exactly the dictionary state the snapshot saw. A
/// merge that drains the pinned chunks from the table does not touch
/// them here: they live until the last snapshot holding them drops.
#[derive(Clone, Debug)]
pub struct TableSnapshot {
    name: Arc<str>,
    schema: Arc<TableSchema>,
    main: Arc<MainSet>,
    /// The visible delta, oldest first: `sealed` chunks shared with the
    /// table, then this snapshot's private ones (a pinned prefix, a
    /// transaction's pending rows).
    chunks: Vec<Arc<DeltaChunk>>,
    /// Global row id of each chunk's first row (parallel to `chunks`).
    chunk_bases: Vec<usize>,
    /// How many leading `chunks` are sealed chunks of the table.
    sealed: usize,
    /// The delta-wide dictionaries as pinned.
    dicts: DeltaDicts,
    rows: usize,
    ts: Timestamp,
    /// The table's indexed columns as pinned.
    indexes: Arc<[Arc<Index>]>,
}

impl TableSnapshot {
    /// Appends a chunk only this snapshot holds.
    fn push_private(&mut self, chunk: DeltaChunk) {
        if chunk.rows() > 0 {
            self.chunk_bases.push(self.rows);
            self.rows += chunk.rows();
            self.chunks.push(Arc::new(chunk));
        }
    }

    /// Appends a private copy of the first `n` rows of `chunk`.
    fn push_prefix(&mut self, chunk: &DeltaChunk, n: usize) {
        if n > 0 {
            self.push_private(chunk.prefix(n));
        }
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table name, shared.
    pub(crate) fn shared_name(&self) -> &Arc<str> {
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

    /// Visible rows in the delta.
    pub fn delta_rows(&self) -> usize {
        self.rows - self.main.rows
    }

    /// The immutable main segments, oldest first.
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.main.segments
    }

    /// The table-global dictionary of string column `idx` as pinned
    /// (`None` for non-string columns and before the first merge).
    pub fn global_dict(&self, idx: usize) -> Option<&DictColumn> {
        self.main.dicts.get(idx).and_then(Option::as_ref)
    }

    /// Number of physical stores holding this snapshot's rows: the main
    /// segments, then the visible delta chunks.
    pub(crate) fn store_count(&self) -> usize {
        self.main.segments.len() + self.chunks.len()
    }

    /// Store `u` (segments first, then delta chunks, both oldest first)
    /// and the global row id of its first row.
    pub(crate) fn store(&self, u: usize) -> (Store<'_>, usize) {
        match u.checked_sub(self.main.segments.len()) {
            None => (Store::Seg(&self.main.segments[u]), self.main.bases[u]),
            Some(c) => {
                (Store::Chunk { chunk: &self.chunks[c], sealed: c < self.sealed }, self.chunk_bases[c])
            }
        }
    }

    /// The index on column `name`, if the table had one at the pin.
    pub(crate) fn index(&self, name: &str) -> Option<&Index> {
        let idx = self.schema.position(name)?;
        self.indexes.iter().find(|i| i.column == idx).map(|i| &**i)
    }

    /// Takes the plain and encoded bytes of the views first readers built
    /// on this snapshot's sealed chunks, for the caller to charge.
    pub(crate) fn take_unbilled_encodes(&self) -> (usize, usize) {
        self.chunks[..self.sealed].iter().fold((0, 0), |(raw, enc), chunk| {
            let (r, e) = chunk.take_unbilled();
            (raw + r, enc + e)
        })
    }

    /// The delta-wide dictionary the delta codes of string column `idx`
    /// index (`None` for non-string columns).
    pub(crate) fn delta_dict(&self, idx: usize) -> Option<&DictColumn> {
        self.dicts.get(idx).and_then(Option::as_deref)
    }

    /// The visible delta of column `idx` flattened into one dense
    /// column — a full, unmetered copy for diagnostics and tests (query
    /// execution reads the chunks in place). Rows of chunks that predate
    /// the column are null sentinels.
    pub fn delta_column(&self, idx: usize) -> Option<Column> {
        let (_, dtype) = self.schema.columns().get(idx)?;
        let n = self.delta_rows();
        Some(match dtype {
            DataType::Int64 => Column::Int64(flatten(&self.chunks, n, 0, |c| c.ints(idx).map(copied))),
            DataType::Float64 => {
                Column::Float64(flatten(&self.chunks, n, 0.0, |c| c.floats(idx).map(copied)))
            }
            DataType::Str => {
                let mut dict: Vec<String> = self.delta_dict(idx)?.iter_dict().map(String::from).collect();
                let predates = self.chunks.iter().any(|c| c.codes(idx).is_none());
                if predates && !dict.iter().any(String::is_empty) {
                    dict.push(String::new());
                }
                let null = dict.iter().position(String::is_empty).unwrap_or(0) as u32;
                let codes = flatten(&self.chunks, n, null, |c| c.codes(idx).map(copied));
                Column::Str(DictColumn::from_codes(dict, codes))
            }
        })
    }

    /// A copy of this snapshot with `records` appended as extra
    /// (uncommitted) delta rows — the read-your-own-writes view a
    /// transaction evaluates queries against: committed state as pinned
    /// (shared, not copied), plus one private chunk holding the
    /// transaction's overlay, visible to nobody else.
    ///
    /// # Errors
    ///
    /// Propagates schema violations and type mismatches.
    pub fn with_pending(&self, records: &[Record]) -> DbResult<TableSnapshot> {
        let mut snap = self.clone();
        let mut pending = DeltaChunk::new(snap.schema.columns(), records.len());
        for record in records {
            append_record(&mut snap.schema, &mut snap.dicts, &mut pending, record, None)?;
        }
        snap.push_private(pending);
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

    /// The store holding global row `row`, and the row's offset in it.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows()`.
    fn cell(&self, row: usize) -> (Store<'_>, usize) {
        assert!(row < self.rows, "row {row} out of bounds ({})", self.rows);
        let u = match row.checked_sub(self.main.rows) {
            None => self.main.bases.partition_point(|&b| b <= row) - 1,
            Some(_) => self.main.segments.len() + self.chunk_bases.partition_point(|&b| b <= row) - 1,
        };
        let (store, base) = self.store(u);
        (store, row - base)
    }

    /// The integer value of column `idx` at global row `row` (sentinel 0
    /// for rows in stores that predate the column).
    ///
    /// Returns `None` if the column is not an integer column.
    pub fn get_int(&self, idx: usize, row: usize) -> Option<i64> {
        if self.schema.columns().get(idx)?.1 != DataType::Int64 {
            return None;
        }
        let (store, local) = self.cell(row);
        Some(match store.column(idx) {
            Some(SegColumn::Int { data, .. }) => data.get(local),
            _ => 0,
        })
    }

    /// Gathers the integer values of column `name` at `positions`
    /// (global row ids, any order), or the full column when `positions`
    /// is `None` — an **unmetered** convenience over
    /// [`TableSnapshot::materialize_columns`] for diagnostics and tests;
    /// `None` also for a non-integer column or a position past the last
    /// row.
    pub fn gather_ints(&self, name: &str, positions: Option<&[u32]>) -> Option<Vec<i64>> {
        let (mut cols, _) = self.materialize_columns(&[name.to_string()], positions).ok()?;
        match cols.pop()?.1 {
            Column::Int64(v) => Some(v),
            _ => None,
        }
    }

    /// Gathers the named columns at arbitrary `rows` — global row ids in
    /// **any order, duplicates allowed** — the shape a join's surviving
    /// `(build_row, probe_row)` pairs have. This is the late-
    /// materialization step of join execution: only the rows that
    /// actually survive the join are ever touched. Same operation, same
    /// bill as [`TableSnapshot::materialize_columns`] with `Some(rows)`.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchColumn`] for unknown names, [`DbError::BadQuery`]
    /// for a row id `>= rows()`.
    pub fn gather_rows(
        &self,
        names: &[String],
        rows: &[u32],
    ) -> DbResult<(Vec<(String, Column)>, GatherStats)> {
        self.materialize_columns(names, Some(rows))
    }

    /// Materializes the named columns at `positions` (global row ids in
    /// any order, duplicates allowed; `None` = all rows) into dense
    /// output columns — the projection step after a filter, and the
    /// payload fetch after a join — through the query executor's one
    /// gather, dispatched serially (no gate, no cancel poll). Only the
    /// requested columns are touched, and only the requested rows: the
    /// list is **visited in ascending row order** (one argsort, skipped
    /// when it is already non-decreasing), cut at the store boundaries
    /// into one selection per store and read the way every stage reads a
    /// selection — each store, segment or delta chunk, through its column
    /// view, by one forward cursor (`EncodedInts::cursor`) or one pass
    /// over its 64-row blocks (`EncodedInts::blocks`), never one
    /// compressed point access per cell — then **scattered into output
    /// order** by one pass.
    /// String columns come back **as codes + one shared output
    /// dictionary**: each distinct segment/delta code is decoded and
    /// interned exactly once — in output order, so the dictionary is
    /// ordered by first appearance in `positions` — and every further
    /// occurrence is appended by code ([`DictColumn::push_code`]); no
    /// string is ever hashed per row — late materialization all the way
    /// to the client [`Chunk`].
    ///
    /// Returns the columns plus [`GatherStats`] billing each store as
    /// read: a store pays one positioned read per cell — except under a
    /// strictly ascending list past the [`sparse_hits`] crossover, where
    /// it streams its blocks and pays its whole **encoded** column. A
    /// *positional* list — out of order or with a repeat — reads every
    /// store per cell, however many entries its share holds. Stores
    /// predating the column read nothing, and each distinct string pays
    /// one first-touch dictionary-entry read.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchColumn`] for unknown names, [`DbError::BadQuery`]
    /// for a position `>= rows()`.
    pub fn materialize_columns(
        &self,
        names: &[String],
        positions: Option<&[u32]>,
    ) -> DbResult<(Vec<(String, Column)>, GatherStats)> {
        crate::executor::gather_serial(self, names, positions)
    }

    /// The output of a gather of `len` rows of the named columns. Cells
    /// of segments and chunks predating a column keep what they are
    /// pre-filled with here (its null sentinel): no data exists, nothing
    /// is read.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchColumn`] for an unknown name.
    pub(crate) fn gather_out<'n>(&self, names: &'n [String], len: usize) -> DbResult<GatherOut<'n>> {
        let cols = names
            .iter()
            .map(|name| {
                let idx = self.schema.position(name).ok_or_else(|| DbError::NoSuchColumn {
                    table: self.name.to_string(),
                    column: name.clone(),
                })?;
                let cells = match self.schema.columns()[idx].1 {
                    DataType::Int64 => Cells::Ints(vec![0; len]),
                    DataType::Float64 => Cells::Floats(vec![0.0; len]),
                    DataType::Str => Cells::Codes(vec![self.str_codes(idx).1; len]),
                };
                Ok((idx, cells))
            })
            .collect::<DbResult<_>>()?;
        Ok(GatherOut { names, cols })
    }

    /// The unified source-code space of string column `idx`: the first
    /// delta code (past the table-global codes) and the `""` sentinel
    /// (past the delta codes).
    pub(crate) fn str_codes(&self, idx: usize) -> (u32, u32) {
        let delta_code0 = self.global_dict(idx).map_or(0, DictColumn::dict_size) as u32;
        (delta_code0, delta_code0 + self.delta_dict(idx).map_or(0, DictColumn::dict_size) as u32)
    }

    /// Turns a filled [`GatherOut`] into output columns, adding the
    /// output bytes and the interning pass's reads to `stats`.
    pub(crate) fn finish_gather(&self, out: GatherOut<'_>, stats: &mut GatherStats) -> Vec<(String, Column)> {
        out.names
            .iter()
            .zip(out.cols)
            .map(|(name, (idx, cells))| {
                let col = match cells {
                    Cells::Ints(v) => Column::Int64(v),
                    Cells::Floats(v) => Column::Float64(v),
                    Cells::Codes(codes) => Column::Str(self.intern(idx, codes, stats)),
                };
                stats.bytes_written += col.size_bytes() as u64;
                (name.clone(), col)
            })
            .collect()
    }

    /// Code-to-code into one output dictionary, in output order: the
    /// first touch of a source code decodes it, reads its dictionary
    /// entry and interns it — values shared between the dictionaries
    /// (and the `""` sentinel) collapse there — every repeat is an
    /// array-indexed cache hit plus a code push, never a string hash.
    fn intern(&self, idx: usize, codes: Vec<u32>, stats: &mut GatherStats) -> DictColumn {
        let (global, local) = (self.global_dict(idx), self.delta_dict(idx));
        let (delta_code0, sentinel) = self.str_codes(idx);
        let mut dict = DictColumn::new();
        let mut cache: Vec<Option<u32>> = vec![None; sentinel as usize + 1];
        for code in codes {
            let out_code = *cache[code as usize].get_or_insert_with(|| {
                let s = if code == sentinel {
                    Some("")
                } else if code < delta_code0 {
                    global.and_then(|g| g.decode(code))
                } else {
                    local.and_then(|l| l.decode(code - delta_code0))
                }
                .expect("code resolves through its dictionary");
                stats.bytes_read += s.len() as u64;
                dict.intern(s)
            });
            dict.push_code(out_code);
        }
        dict
    }

    /// Materializes one whole column (main decoded + delta) by name.
    ///
    /// This is a full, unmetered decode — query execution never calls
    /// it; it exists for diagnostics and tests.
    pub fn column(&self, name: &str) -> Option<Column> {
        let (mut cols, _) = self.materialize_columns(&[name.to_string()], None).ok()?;
        cols.pop().map(|(_, col)| col)
    }

    /// The validity vector of one column (false = null sentinel); rows
    /// in segments and delta chunks that predate the column are null.
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
        for chunk in &self.chunks {
            match chunk.validity(idx) {
                Some(v) => out.extend_from_slice(v),
                None => out.extend(std::iter::repeat_n(false, chunk.rows())),
            }
        }
        Some(out)
    }

    /// Count of nulls in a column.
    pub fn null_count(&self, name: &str) -> Option<usize> {
        let idx = self.schema.position(name)?;
        let main: usize = self.main.segments.iter().map(|s| s.null_count(idx)).sum();
        let delta: usize = self
            .chunks
            .iter()
            .map(|c| c.validity(idx).map_or(c.rows(), |v| v.iter().filter(|&&b| !b).count()))
            .sum();
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
    /// flat delta cells as the writer stores them (this is what the
    /// planner's scan costs scale with; chunk views are a reader's cache,
    /// not stored data).
    pub fn size_bytes(&self) -> usize {
        self.encoded_bytes() + self.rows * self.schema.width() / 8
    }

    /// Encoded bytes of the main store plus the (plain) delta bytes.
    pub fn encoded_bytes(&self) -> usize {
        let main: usize = self.main.segments.iter().map(|s| s.encoded_bytes()).sum();
        main + self.delta_bytes()
    }

    /// Plain bytes the same data would occupy without compression.
    pub fn raw_bytes(&self) -> usize {
        let main: usize = self.main.segments.iter().map(|s| s.raw_bytes()).sum();
        main + self.delta_bytes()
    }

    /// Bytes of the visible delta: every column's flat cells plus the
    /// delta-wide dictionaries.
    fn delta_bytes(&self) -> usize {
        (0..self.schema.width()).map(|idx| self.delta_column_bytes(idx)).sum()
    }

    /// Bytes of the visible delta of column `idx`: its flat cells, plus
    /// the delta-wide dictionary of a string column.
    fn delta_column_bytes(&self, idx: usize) -> usize {
        let cells: usize = self.chunks.iter().map(|c| c.column_bytes(idx)).sum();
        cells + self.delta_dict(idx).map_or(0, DictColumn::size_bytes)
    }

    /// Encoded bytes of one column across main segments plus its delta
    /// cells — the DRAM traffic a scan of this column costs.
    pub fn column_encoded_bytes(&self, name: &str) -> Option<usize> {
        let idx = self.schema.position(name)?;
        let main: usize =
            self.main.segments.iter().map(|s| s.column(idx).map_or(0, SegColumn::encoded_bytes)).sum();
        Some(main + self.delta_column_bytes(idx))
    }

    /// Per-store zone maps of an integer column — one per main segment,
    /// then one per delta chunk — for the planner's pruning estimate (a
    /// chunk's from its view, built here if nobody has yet).
    /// `None` for non-integer columns.
    pub fn zone_maps(&self, name: &str) -> Option<Vec<ZoneMapMeta>> {
        let idx = self.schema.position(name)?;
        (self.schema.columns()[idx].1 == DataType::Int64).then(|| self.int_zones(idx).collect())
    }

    /// The zone of integer column `idx` in every store: one per main
    /// segment, then one per delta chunk (`(0, 0)`, the sentinel, where
    /// the store predates the column).
    fn int_zones(&self, idx: usize) -> impl Iterator<Item = ZoneMapMeta> + '_ {
        (0..self.store_count()).map(move |u| {
            let (store, _) = self.store(u);
            let (min, max) = store.column(idx).and_then(SegColumn::zone).unwrap_or((0, 0));
            // The sortedness claim flows from the segment the sorting
            // merge built — never computed here, so a snapshot pinned
            // across a merge always reports the flag its pinned
            // segments actually carry.
            ZoneMapMeta { rows: store.rows() as u64, min, max, sorted: store.sorted_by() == Some(idx) }
        })
    }

    /// Per-table planner statistics, computed from zone maps, segment
    /// and chunk statistics — O(segments + chunks + private delta rows),
    /// never decoding the main store.
    pub fn planner_meta(&self) -> haec_planner::catalog::TableMeta {
        self.planner_meta_of(|_| true)
    }

    /// [`TableSnapshot::planner_meta`] with statistics for the columns
    /// `wanted` names only — a planned query reads one or two, and a
    /// private chunk's share of the others would be folded for nothing.
    pub(crate) fn planner_meta_of(&self, wanted: impl Fn(&str) -> bool) -> haec_planner::catalog::TableMeta {
        let columns = self
            .schema
            .columns()
            .iter()
            .enumerate()
            .filter(|(_, (name, _))| wanted(name))
            .map(|(idx, (name, dtype))| {
                let (min, max, ndv) = match dtype {
                    DataType::Int64 => {
                        let (min, max) = self.int_extrema(idx);
                        // Sum of the per-store counts (a segment's measured
                        // at merge time, a sealed chunk's by its view's first
                        // reader, a private chunk's counted here), capped by
                        // the value range and the row count. Over-counts
                        // values shared across stores but never collapses a
                        // sparse domain. A store predating the column holds
                        // one distinct value (the null sentinel 0).
                        let ndv: u64 = (0..self.store_count())
                            .map(|u| {
                                self.store(u).0.column(idx).and_then(SegColumn::count_distinct).unwrap_or(1)
                            })
                            .sum();
                        // All of `i64` is 2⁶⁴ values: saturate, not wrap.
                        let range = u64::try_from((max as i128 - min as i128 + 1).max(0)).unwrap_or(u64::MAX);
                        (min, max, ndv.min(range).min(self.rows as u64))
                    }
                    DataType::Str => {
                        // Distinct = global dict + delta values the
                        // global dict has not seen (no double counting).
                        let global = self.global_dict(idx);
                        let g = global.map_or(0, DictColumn::dict_size);
                        let fresh = self.delta_dict(idx).map_or(0, |local| {
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
                    indexed: self.indexes.iter().any(|i| i.column == idx),
                }
            })
            .collect();
        haec_planner::catalog::TableMeta {
            name: self.name.to_string(),
            rows: self.rows as u64,
            row_bytes: (self.size_bytes() / self.rows.max(1)) as u64,
            columns,
        }
    }

    /// Min/max of an int column over every store's zone (0,0 if empty).
    fn int_extrema(&self, idx: usize) -> (i64, i64) {
        self.int_zones(idx)
            .map(|z| (z.min, z.max))
            .reduce(|(lo, hi), (min, max)| (lo.min(min), hi.max(max)))
            .unwrap_or((0, 0))
    }
}

/// One physical store of a snapshot's rows — and one execution unit of
/// a query over it. Readers see every store through the same per-column
/// view ([`Store::column`]); the one fact that differs by kind is which
/// dictionary its string codes index ([`Store::code_space`]).
#[derive(Clone, Copy)]
pub(crate) enum Store<'a> {
    Seg(&'a Segment),
    /// A delta chunk; `sealed` when it is one of the table's sealed
    /// chunks, whose views are encoded once and shared — a snapshot's
    /// private chunks are small and viewed as they are.
    Chunk {
        chunk: &'a DeltaChunk,
        sealed: bool,
    },
}

/// The dictionary a store's string codes index.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum CodeSpace {
    /// The table-global dictionary of a main version: segments.
    Global = 0,
    /// The table's delta-wide dictionary: delta chunks.
    Delta = 1,
}

impl<'a> Store<'a> {
    pub(crate) fn rows(&self) -> usize {
        match self {
            Store::Seg(seg) => seg.rows(),
            Store::Chunk { chunk, .. } => chunk.rows(),
        }
    }

    /// The store's view of column `idx` (`None` where the store predates
    /// the column): a segment's own column, a chunk's view
    /// ([`DeltaChunk::column`]).
    pub(crate) fn column(&self, idx: usize) -> Option<&'a SegColumn> {
        match *self {
            Store::Seg(seg) => seg.column(idx),
            Store::Chunk { chunk, sealed } => chunk.column(idx, sealed),
        }
    }

    /// The column the store's rows are sorted by (only a sorting merge's
    /// segments are).
    pub(crate) fn sorted_by(&self) -> Option<usize> {
        match self {
            Store::Seg(seg) => seg.sorted_by(),
            Store::Chunk { .. } => None,
        }
    }

    pub(crate) fn code_space(&self) -> CodeSpace {
        match self {
            Store::Seg(_) => CodeSpace::Global,
            Store::Chunk { .. } => CodeSpace::Delta,
        }
    }
}

/// Work done by one projection or positional gather
/// ([`TableSnapshot::materialize_columns`] /
/// [`TableSnapshot::gather_rows`]), for the caller to charge to the
/// energy meter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GatherStats {
    /// Decode steps performed on encoded columns — one per cell read
    /// through a cursor, one per row of a stream-decoded store.
    pub decode_items: u64,
    /// Bytes read gathering the inputs: encoded bytes of stream-decoded
    /// stores, per-cell reads for sparse hits, and one first-touch read
    /// per distinct dictionary entry.
    pub bytes_read: u64,
    /// Bytes written into the output columns.
    pub bytes_written: u64,
}

impl GatherStats {
    /// Adds another share's work.
    pub(crate) fn absorb(&mut self, other: GatherStats) {
        self.decode_items += other.decode_items;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaMode;
    use haec_columnar::value::{CmpOp, Value};

    /// Convenience constructor for common strict schemas.
    fn strict_schema(cols: &[(&str, DataType)]) -> TableSchema {
        TableSchema::strict(cols.iter().map(|(n, t)| (n.to_string(), *t)).collect())
    }

    impl Table {
        /// Returns `true` once the delta has outgrown the merge threshold.
        fn needs_merge(&self) -> bool {
            self.delta_rows() >= self.merge_threshold()
        }
    }

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
        assert_eq!(s.locate(SEGMENT_ROWS), RowLoc::Main { seg: 1, local: 0 });
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
        assert_eq!(s.schema().mode(), SchemaMode::Flexible);
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
    fn planner_meta_distinct_count_survives_a_full_i64_span() {
        // `i64::MIN` and `i64::MAX` in one column: its value range is
        // 2⁶⁴, which must cap nothing rather than wrap to a cap of 0.
        let t = Table::new("t", strict_schema(&[("k", DataType::Int64)]));
        let o = TimestampOracle::new();
        let ndv = |t: &Table| t.read().planner_meta().columns[0].ndv;
        for k in [i64::MIN, 0, i64::MAX, 7, 0] {
            ins(&t, &o, &Record::new().with("k", k));
        }
        assert_eq!(ndv(&t), 4, "in the delta");
        t.merge();
        assert_eq!(ndv(&t), 4, "merged");
        // Main plus a delta repeating both extremes: per-store counts
        // summed (4 + 2), capped by the row count (7), not by the range.
        ins(&t, &o, &Record::new().with("k", i64::MAX));
        ins(&t, &o, &Record::new().with("k", i64::MIN));
        assert_eq!(ndv(&t), 6, "merged and in the delta");
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
        // The projection entry takes the same list: any order works, also
        // stepping back across a store boundary.
        assert_eq!(snap.materialize_columns(&names, Some(&rows)).unwrap(), (cols, stats));
        // Empty gathers are free and shaped correctly.
        let (empty, es) = snap.gather_rows(&names, &[]).unwrap();
        assert!(empty.iter().all(|(_, c)| c.is_empty()));
        assert_eq!(es.decode_items, 0);
        assert!(snap.gather_rows(&["nope".to_string()], &[]).is_err());
    }

    #[test]
    fn gather_rejects_rows_past_the_end() {
        let (t, _) = tagged_table();
        let snap = t.read();
        let names = vec!["v".to_string(), "s".to_string()];
        assert_eq!(snap.rows(), 220);
        for rows in [&[220u32][..], &[5, 4_000_000, 7], &[219, 220]] {
            assert!(matches!(snap.gather_rows(&names, rows), Err(DbError::BadQuery(_))), "{rows:?}");
            assert!(matches!(snap.materialize_columns(&names, Some(rows)), Err(DbError::BadQuery(_))));
            assert_eq!(snap.gather_ints("v", Some(rows)), None);
        }
        assert!(snap.gather_rows(&names, &[219]).is_ok());
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
        assert_eq!(sp.decode_items, 3, "three cells randomly accessed: two main, one delta");
    }

    #[test]
    fn materialize_stats_bill_the_path_taken() {
        let (t, _) = tagged_table();
        let snap = t.read();
        let names = vec!["v".to_string()];
        // Dense: every store streams its encoded bytes once — the
        // segment's, and the delta chunk's Plain view (8 B a row).
        let (_, dense) = snap.materialize_columns(&names, None).unwrap();
        let encoded = snap.segments()[0].column(0).unwrap().encoded_bytes() as u64;
        assert_eq!(dense.decode_items, 200 + 20);
        assert_eq!(dense.bytes_read, encoded + 20 * 8, "encoded segment + Plain delta view");
        // Sparse: per-cell random access, 8 B each, in every store.
        let pos: Vec<u32> = vec![0, 199, 210];
        let (_, sparse) = snap.materialize_columns(&names, Some(&pos)).unwrap();
        assert_eq!(sparse.decode_items, 3);
        assert_eq!(sparse.bytes_read, 3 * 8, "two segment cells + one delta cell");
        // One rule behind both entries. A sparse list reads per cell:
        assert_eq!(snap.gather_rows(&names, &pos).unwrap().1, sparse);
        // a strictly ascending list past the crossover streams the
        // segment; the same rows as a positional list (one duplicate
        // appended) read per cell again.
        let mut rows: Vec<u32> = (0..200).step_by(2).collect();
        let (_, streamed) = snap.gather_rows(&names, &rows).unwrap();
        assert_eq!((streamed.decode_items, streamed.bytes_read), (200, encoded));
        assert_eq!(snap.materialize_columns(&names, Some(&rows)).unwrap().1, streamed);
        rows.push(0);
        let (_, positional) = snap.gather_rows(&names, &rows).unwrap();
        assert_eq!((positional.decode_items, positional.bytes_read), (101, 101 * 8));
        assert_eq!(snap.materialize_columns(&names, Some(&rows)).unwrap().1, positional);
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
                let (ts, row, _) = t.insert(&Record::new().with("v", round * 5 + i), &o).unwrap();
                assert!(ts > last, "insert timestamps strictly increase");
                assert_eq!(row as i64, round * 6 + i, "row ids are insertion order");
                last = ts;
            }
            let snap = t.snapshot(&o);
            assert!(snap.timestamp() > last, "snapshot timestamps join the same total order");
            last = snap.timestamp();
            t.merge();
            let (ts, ..) = t.insert(&Record::new().with("v", -1), &o).unwrap();
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
        let t = Table::new("t", strict_schema(&[("s", DataType::Str)]));
        let o = TimestampOracle::new();
        for v in ["a", "b", "a"] {
            ins(&t, &o, &Record::new().with("s", v));
        }
        // A row lands between a merge's pin and its publish: the state
        // the publish leaves behind once the pinned chunk is drained.
        let pinned = {
            let mut st = t.inner.write();
            st.seal();
            st.sealed.len()
        };
        ins(&t, &o, &Record::new().with("s", "c"));
        let before = t.read();
        {
            let mut st = t.inner.write();
            st.sealed.drain(..pinned);
            st.rows -= 3;
            st.compact_dicts();
        }
        let s = t.read();
        assert_eq!(s.column("s").unwrap().as_str().unwrap().iter().collect::<Vec<_>>(), vec!["c"]);
        assert_eq!(
            s.delta_dict(0).unwrap().iter_dict().collect::<Vec<_>>(),
            vec!["c"],
            "stale entries must not leak into the next merge's global dict"
        );
        // The snapshot pinned before still decodes its own codes.
        let col = before.column("s").unwrap();
        assert_eq!(col.as_str().unwrap().iter().collect::<Vec<_>>(), vec!["a", "b", "a", "c"]);
    }

    #[test]
    fn chunk_string_views_follow_a_dictionary_compaction() {
        // A merge publish that leaves a *sealed* chunk behind rewrites its
        // codes; a string view a reader built before must not outlive
        // them — whether a snapshot still shares the chunk (the publish
        // copies it) or nobody does (the publish rewrites it in place).
        for shared in [true, false] {
            let t = Table::new("t", strict_schema(&[("s", DataType::Str)]));
            let o = TimestampOracle::new();
            for v in ["a", "b", "a"] {
                ins(&t, &o, &Record::new().with("s", v));
            }
            let pinned = {
                let mut st = t.inner.write();
                st.seal();
                st.sealed.len()
            };
            // Lands between pin and publish: one full chunk, sealed, and
            // two rows in the open chunk.
            let tail: Vec<&str> = (0..DELTA_CHUNK_ROWS + 2).map(|i| ["c", "a", "d"][i % 3]).collect();
            tail.iter().for_each(|&v| ins(&t, &o, &Record::new().with("s", v)));
            let before = t.read();
            let want_before: Vec<&str> = ["a", "b", "a"].into_iter().chain(tail.iter().copied()).collect();
            // Builds the sealed chunks' string views.
            assert_eq!(before.column("s").unwrap().as_str().unwrap().iter().collect::<Vec<_>>(), want_before);
            let held = shared.then_some(before);
            {
                let mut st = t.inner.write();
                st.sealed.drain(..pinned);
                st.rows -= 3;
                st.compact_dicts();
            }
            let s = t.read();
            assert_eq!(s.delta_dict(0).unwrap().iter_dict().collect::<Vec<_>>(), ["c", "a", "d"]);
            assert_eq!(
                s.column("s").unwrap().as_str().unwrap().iter().collect::<Vec<_>>(),
                tail,
                "shared {shared}"
            );
            if let Some(before) = held {
                let col = before.column("s").unwrap();
                assert_eq!(
                    col.as_str().unwrap().iter().collect::<Vec<_>>(),
                    want_before,
                    "the old pin reads its own"
                );
            }
        }
    }

    #[test]
    fn sorted_and_shuffled_batches_merge_to_equal_segments() {
        // A batch that arrives in key order skips the sort permutation;
        // it must build what sorting a shuffle of the same rows builds.
        let schema = || {
            strict_schema(&[
                ("k", DataType::Int64),
                ("v", DataType::Int64),
                ("f", DataType::Float64),
                ("s", DataType::Str),
            ])
            .with_sort_key("k")
        };
        let n = DELTA_CHUNK_ROWS as i64 + 500;
        let rec = |i: i64| {
            let v = if i % 11 == 0 { Value::Null } else { Value::Int(i * 7 % 1000) };
            Record::new()
                .with("k", i * 2)
                .with("v", v)
                .with("f", i as f64 / 4.0)
                .with("s", ["a", "b"][i as usize % 2])
        };
        // Rows 0 and 1 lead both orders, so the dictionaries agree too.
        let mut shuffled: Vec<i64> = (2..n).collect();
        shuffled.sort_by_key(|&i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as i64));
        let (in_order, permuted) = (Table::new("t", schema()), Table::new("t", schema()));
        let o = TimestampOracle::new();
        (0..n).for_each(|i| ins(&in_order, &o, &rec(i)));
        [0, 1].into_iter().chain(shuffled).for_each(|i| ins(&permuted, &o, &rec(i)));
        assert_eq!(in_order.merge(), permuted.merge());
        let (a, b) = (in_order.read(), permuted.read());
        assert_eq!(a.to_chunk(), b.to_chunk());
        assert_eq!(a.validity("v"), b.validity("v"));
        assert_eq!(a.segments().len(), b.segments().len());
        for (x, y) in a.segments().iter().zip(b.segments()) {
            assert_eq!(
                (x.rows(), x.sorted_by(), x.encoded_bytes()),
                (y.rows(), y.sorted_by(), y.encoded_bytes())
            );
            for idx in 0..4 {
                assert_eq!(
                    (x.zone(idx), x.ndv(idx), x.null_count(idx)),
                    (y.zone(idx), y.ndv(idx), y.null_count(idx))
                );
            }
        }
        assert_eq!(a.segments()[0].sorted_by(), Some(0));
        // Duplicate keys in arrival order stay in arrival order.
        let dup = Table::new("t", schema());
        for (i, k) in [1i64, 1, 2, 2, 2, 5].into_iter().enumerate() {
            ins(&dup, &o, &Record::new().with("k", k).with("v", i as i64).with("f", 0.0).with("s", "a"));
        }
        dup.merge();
        assert_eq!(dup.read().column("v").unwrap().as_int64().unwrap(), &[0, 1, 2, 3, 4, 5]);
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
