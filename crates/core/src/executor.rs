//! The query executor: one entry ([`Database::run`]) that sequences
//! **filter → \[join\] → \[fold | gather\] → charge**, each stage
//! written once.
//!
//! Every stage works on *execution units* of a pinned
//! [`TableSnapshot`] — one per main segment, then one per delta chunk:
//! the units are exactly the stores storage defines, and a unit is the
//! morsel. Every stage, the gather included, hands one dispatch
//! ([`Exec::dispatch`]) only its units with work — those holding a
//! selected row, and in the filter those whose predicates no zone,
//! dictionary or schema settles outright ([`settle`]) — and runs them by
//! one rule: one unit per morsel over the shared worker pool when two or
//! more are left and the query carries an explicit grant or their stores
//! hold [`PARALLEL_SCAN_ROWS`] rows, else inline. Each dispatched unit
//! holds one gate permit and polls the cancel token once; a unit left
//! out takes neither, so a lookup whose zones leave one unit runs it on
//! the calling thread and never wakes the pool. Between stages
//! the surviving rows travel as one [`Selection`] **per unit**, in the
//! shape the predicate kernel produces — every row (a side without
//! predicates too), a sort-key row range, a match bitmap, or ascending
//! row ids (the unit's own index's rows of a literal, borrowed from the
//! store) — never as one global row-id list: aggregates, join-key
//! extraction and the projection gather all consume the selection in
//! place (unit `u`'s share of a gather fills the run of the output its
//! survivors occupy). A row list — a join side's pairs' rows, a public
//! caller's — is sorted once and cut at the unit boundaries
//! ([`split_ids`]) into the same per-unit selections, *positional* when
//! the list was not strictly ascending.
//!
//! One kernel, one view; the code space is the only per-store fact.
//! Every store shows a unit one [`SegColumn`] per column — a segment its
//! own, a delta chunk a view its first reader built (`crate::delta`) —
//! so:
//!
//! * every predicate — integer or string, the scan's or an index
//!   lookup's leftover — is one [`Pred`], resolved once per unit
//!   ([`Pred::on`]): the unit's schema, dictionary or zone may decide it
//!   without reading a cell (a pruned unit is neither read nor billed, a
//!   tautology skips the read), else it is `cell op literal` on the
//!   unit's encoded column, a string's literal being its code in the
//!   unit's code space;
//! * the **predicate kernel** ([`Exec::eval`]) then bisects a sort key
//!   or scans the encoded column in place into 64-bit match words. The
//!   index path's leftover predicates are a unit stage of their own
//!   ([`Exec::eval_ids`]), dispatched like every stage: [`walk`] keeps
//!   each unit's looked-up ids whose cell matches;
//! * the **column view** ([`UnitCol`]) is what a unit's column looks
//!   like to everything downstream of the filters. Aggregation, join-key
//!   streaming and the gather's cell loop are written once against that
//!   view and [`walk`] it in one of three regimes picked from the
//!   selection — *all rows* and *dense* selections stream 64-row blocks
//!   (`EncodedInts::blocks`) against the selection's match words,
//!   *sparse* and positional ones read their rows one by one through
//!   forward cursors. On the query path these readers and the predicate
//!   kernel are the only readers of an encoded column — no per-row point
//!   read. Folds and joins bill what the walk touched; the gather and the
//!   index stage keep their own bills (a streamed gather share pays its
//!   whole store; an index check pays per id checked).
//!
//! What differs by store is only which dictionary a string code indexes
//! ([`CodeSpace`]: the table-global one for segments, the delta-wide one
//! for chunks), resolved once per unit by predicates, key translations
//! and the gather.

use crate::db::{Database, Filter, JoinClause, Query, QueryResult, StrFilter, PARALLEL_SCAN_ROWS};
use crate::error::{DbError, DbResult};
use crate::segment::{zone_all_match, zone_may_match, SegColumn};
use crate::table::{sparse_hits, CellsMut, CodeSpace, GatherStats, Store, TableSnapshot};
use haec_columnar::bitmap::Bitmap;
use haec_columnar::chunk::Chunk;
use haec_columnar::column::Column;
use haec_columnar::dict::DictColumn;
use haec_columnar::encoding::{Blocks, EncodedCursor, EncodedInts, BLOCK_ROWS};
use haec_columnar::value::{CmpOp, DataType};
use haec_energy::calibrate::Kernel;
use haec_energy::profile::ResourceProfile;
use haec_energy::units::ByteCount;
use haec_exec::agg::{AggKind, AggState, GroupAcc};
use haec_exec::join::{sort_merge_join_pairs_presorted, HashJoin, HASH_BUCKET_BYTES};
use haec_exec::pool::{ExecOpts, MorselGate, RunSpec};
use haec_planner::access::{
    choose_access_segmented, join_zone_overlap, sorted_layout, AccessPath, ZoneMapMeta,
};
use haec_planner::cost::{CostModel, JoinAlgo, JoinSideCost, PlanCost};
use haec_planner::optimizer::choose;
use std::borrow::Cow;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

/// A filter resolved to a column index: an integer filter's `op
/// literal`, or a string filter as `Eq` / `Ne` on the value's code.
struct Pred {
    col: usize,
    op: CmpOp,
    /// The literal per [`CodeSpace`]: an integer filter's in both, a
    /// string's code in each dictionary (`None` where it was never
    /// interned).
    lits: [Option<i64>; 2],
    /// Whether the null sentinel (0, or `""`) satisfies the predicate —
    /// every cell of a store that predates the column.
    on_null: bool,
    /// Bytes a check of one row reads: an integer cell, or a code.
    cell_bytes: u64,
}

/// A [`Pred`] as one unit sees it.
enum UnitPred<'a> {
    /// Decided without reading a cell: the store predates the column,
    /// the string is not in the unit's dictionary, or the unit's zone
    /// excludes (`false`) or satisfies (`true`) every row.
    Const(bool),
    /// `cell op lit` over the unit's encoded column.
    Col(&'a EncodedInts, CmpOp, i64),
}

impl Pred {
    /// The one resolution of a predicate against a unit — the scan's and
    /// the index path's alike.
    fn on<'a>(&self, unit: &Unit<'a>) -> UnitPred<'a> {
        let (data, zone) = match unit.col(self.col) {
            None => return UnitPred::Const(self.on_null),
            Some(SegColumn::Int { data, zone, .. } | SegColumn::Str { codes: data, zone }) => (data, zone),
            // INVARIANT: `resolve_preds` validated every predicate column
            // as `Int64` or `Str`.
            Some(SegColumn::Float(_)) => unreachable!("predicate validated as integer or string column"),
        };
        // A value never interned in this code space: `=` matches
        // nothing, `<>` everything.
        let Some(lit) = self.lits[unit.store.code_space() as usize] else {
            return UnitPred::Const(self.op == CmpOp::Ne);
        };
        match *zone {
            Some((lo, hi)) if !zone_may_match(self.op, lit, lo, hi) => UnitPred::Const(false),
            Some((lo, hi)) if zone_all_match(self.op, lit, lo, hi) => UnitPred::Const(true),
            _ => UnitPred::Col(data, self.op, lit),
        }
    }
}

/// What to compute per execution unit.
#[derive(Clone, Copy)]
struct AggSpec<'a> {
    kind: AggKind,
    /// Value column index (validated `Int64`, except under COUNT, which
    /// never reads it).
    vidx: usize,
    group: Option<&'a KeyCol>,
}

/// A partial aggregate from one execution unit, merged across units with
/// [`AggState::merge`] (commutative, so parallel completion order does
/// not matter).
enum AggAcc {
    Global(AggState),
    Grouped(GroupAcc),
}

impl AggAcc {
    fn identity(grouped: bool) -> AggAcc {
        if grouped {
            AggAcc::Grouped(GroupAcc::new(None, 0))
        } else {
            AggAcc::Global(AggState::empty())
        }
    }

    fn merge(&mut self, other: AggAcc) {
        match (self, other) {
            (AggAcc::Global(a), AggAcc::Global(b)) => a.merge(&b),
            (AggAcc::Grouped(a), AggAcc::Grouped(b)) => a.merge(b),
            // INVARIANT: `Exec::fold` starts from `AggAcc::identity` of
            // the query's one group shape, and `agg_unit` returns that
            // shape for every unit.
            _ => unreachable!("all units of one query share the group shape"),
        }
    }
}

/// One execution unit of a pinned table: a main segment or a delta
/// chunk.
struct Unit<'a> {
    store: Store<'a>,
    /// Global row id of the unit's first row.
    base: usize,
    rows: usize,
}

impl<'a> Unit<'a> {
    /// Unit `u` of `t`: segments first, then delta chunks.
    fn of(t: &'a TableSnapshot, u: usize) -> Self {
        let (store, base) = t.store(u);
        Unit { store, base, rows: store.rows() }
    }

    /// Column `idx` of the unit's store (`None` where it predates the
    /// column).
    fn col(&self, idx: usize) -> Option<&'a SegColumn> {
        self.store.column(idx)
    }

    /// This unit's view of integer column `idx` (the null sentinel where
    /// the store predates the column).
    fn int_col(&self, idx: usize) -> UnitCol<'a> {
        match self.col(idx) {
            Some(SegColumn::Int { data, .. }) => UnitCol::Enc(data, None),
            None => UnitCol::Const(0),
            // INVARIANT: callers pass a column `check_int_column` (or the
            // join's `join_key_columns`) validated as `Int64`.
            Some(_) => unreachable!("column validated as integer"),
        }
    }
}

/// One execution unit's view of one column — what aggregation and
/// join-key streaming read, whichever store the unit lives in.
#[derive(Clone, Copy)]
enum UnitCol<'a> {
    /// A store's encoded column; `Some(map)` translates its dictionary
    /// codes into a key space.
    Enc(&'a EncodedInts, Option<&'a [i64]>),
    /// A constant: the sentinel of a column the store predates, or the
    /// value COUNT never reads.
    Const(i64),
}

/// What one [`walk`] touched of one column.
#[derive(Clone, Copy)]
struct Touched {
    /// Values decoded from a compressed encoding.
    decode_items: u64,
    /// Bytes read sequentially (encoded stream share, or flat cells).
    stream_bytes: u64,
    /// Cells read hit by hit (positioned reads), billed per cell by the
    /// caller.
    random_cells: u64,
}

impl Touched {
    /// DRAM bytes read, with positioned reads billed `cell` bytes each.
    fn bytes(&self, cell: u64) -> u64 {
        self.stream_bytes + self.random_cells * cell
    }
}

impl UnitCol<'_> {
    /// The bill for a walk that consumed `n` of the unit's `rows` rows,
    /// streaming the first `streamed` (`None`: read hit by hit).
    /// Constants cost nothing.
    fn touched(&self, streamed: Option<usize>, n: usize, rows: usize) -> Touched {
        let (decode_items, stream_bytes, random_cells) = match (self, streamed) {
            (UnitCol::Enc(e, _), Some(s)) => (s, e.size_bytes() * s / rows.max(1), 0),
            (UnitCol::Enc(..), None) => (n, 0, n),
            (UnitCol::Const(_), _) => (0, 0, 0),
        };
        Touched {
            decode_items: decode_items as u64,
            stream_bytes: stream_bytes as u64,
            random_cells: random_cells as u64,
        }
    }
}

/// The rows of one execution unit that a stage reads: the one type the
/// filter stage returns per unit and every later stage consumes. It
/// stays in the shape the predicate kernels produce — a match bitmap, a
/// sort-key row range, an index's row ids — all the way to the fold or
/// the gather, which read it as it is. A gather's row list arrives as
/// the same type: cut at the unit boundaries into row ids ([`split_ids`]).
struct Selection<'a> {
    rows: SelRows<'a>,
    /// Number of rows read (list entries, repeats counted).
    n: usize,
}

enum SelRows<'a> {
    /// A unit-local row range: every row of the unit, or what
    /// predicates on a segment's sort key resolve to.
    Range(Range<usize>),
    /// One match bit per unit row (a sort-key range already ANDed in).
    Bits(Bitmap),
    /// Non-decreasing row ids, numbered from `from` at the unit's first
    /// row: store-local ones (`from` 0) from the unit's index, or a
    /// unit's cut of a gather's list of global ids (`from` the unit's
    /// base), each borrowed where it lies. `positional` when that list
    /// was not strictly ascending: a row may then repeat, so the ids are
    /// read one by one, never streamed, however many there are.
    Ids { ids: Cow<'a, [u32]>, from: usize, positional: bool },
}

impl<'a> Selection<'a> {
    fn all(rows: usize) -> Self {
        Selection { rows: SelRows::Range(0..rows), n: rows }
    }

    fn none() -> Self {
        Selection::all(0)
    }

    fn ids(ids: Cow<'a, [u32]>, from: usize, positional: bool) -> Self {
        Selection { n: ids.len(), rows: SelRows::Ids { ids, from, positional } }
    }

    fn positional(&self) -> bool {
        matches!(self.rows, SelRows::Ids { positional: true, .. })
    }

    /// The rows of `range` whose bit is set in `bits` (`None`: every row
    /// of the range), out of a unit of `rows` rows.
    fn of(bits: Option<Bitmap>, range: Range<usize>, rows: usize) -> Self {
        match bits {
            None => Selection { n: range.len(), rows: SelRows::Range(range) },
            Some(mut bits) => {
                bits.set_range(0, range.start, false);
                bits.set_range(range.end, rows, false);
                Selection { n: bits.count_ones(), rows: SelRows::Bits(bits) }
            }
        }
    }

    /// Unit-local index of the last surviving row.
    fn last(&self) -> Option<usize> {
        match &self.rows {
            SelRows::Range(r) => r.clone().last(),
            SelRows::Bits(bits) => {
                let word = bits.words().iter().rposition(|&w| w != 0)?;
                Some(word * BLOCK_ROWS + 63 - bits.words()[word].leading_zeros() as usize)
            }
            SelRows::Ids { ids, from, .. } => ids.last().map(|&p| p as usize - from),
        }
    }

    /// Calls `f` with the unit-local index of every surviving row,
    /// ascending.
    fn for_each(&self, mut f: impl FnMut(usize)) {
        match &self.rows {
            SelRows::Range(r) => r.clone().for_each(f),
            SelRows::Bits(bits) => bits.iter_ones().for_each(f),
            SelRows::Ids { ids, from, .. } => ids.iter().for_each(|&p| f(p as usize - from)),
        }
    }

    /// One match word per [`BLOCK_ROWS`] rows of the unit.
    fn words(&self, unit: &Unit<'_>) -> Cow<'_, [u64]> {
        if let SelRows::Bits(bits) = &self.rows {
            return Cow::Borrowed(bits.words());
        }
        let mut bits = Bitmap::zeros(unit.rows);
        self.for_each(|row| bits.set(row, true));
        Cow::Owned(bits.words().to_vec())
    }
}

/// Cuts non-decreasing global row ids at the unit boundaries of `t`:
/// each unit's run of `ids`, for every unit in order — how a gather's
/// row list reaches the units.
fn split_ids<'a>(t: &'a TableSnapshot, ids: &'a [u32]) -> impl Iterator<Item = &'a [u32]> + 'a {
    let mut rest = ids;
    (0..t.store_count()).map(move |u| {
        let (store, base) = t.store(u);
        let (head, tail) = rest.split_at(rest.partition_point(|&r| (r as usize) < base + store.rows()));
        rest = tail;
        head
    })
}

/// One [`UnitCol`] opened for a streaming walk: read [`BLOCK_ROWS`]
/// rows at a time in lockstep with the selection's match words. The
/// view is matched once per block, never per row.
struct ColBlocks<'a> {
    cells: BlockCells<'a>,
    /// The current block of a constant column.
    block: [i64; BLOCK_ROWS],
}

// One reader pair lives on the stack for the length of a walk: boxing
// the block reader would allocate per unit.
#[allow(clippy::large_enum_variant)]
enum BlockCells<'a> {
    Enc(Blocks<'a>),
    /// The constant's rows not yet handed out.
    Const(usize),
}

impl<'a> ColBlocks<'a> {
    fn open(col: UnitCol<'a>, rows: usize) -> Self {
        let (cells, fill) = match col {
            UnitCol::Enc(e, _) => (BlockCells::Enc(e.blocks()), 0),
            UnitCol::Const(c) => (BlockCells::Const(rows), c),
        };
        ColBlocks { cells, block: [fill; BLOCK_ROWS] }
    }

    /// The next block of stored cells (lent: encoded columns decode into
    /// their block reader, Plain ones hand out their own cells).
    fn next(&mut self) -> &[i64] {
        match &mut self.cells {
            BlockCells::Enc(blocks) => blocks.next(),
            BlockCells::Const(left) => {
                let n = (*left).min(BLOCK_ROWS);
                *left -= n;
                &self.block[..n]
            }
        }
    }

    /// Steps over a block no row of which is selected.
    fn skip(&mut self) {
        match &mut self.cells {
            BlockCells::Enc(blocks) => blocks.skip(),
            BlockCells::Const(left) => *left = left.saturating_sub(BLOCK_ROWS),
        }
    }
}

/// One [`UnitCol`] opened for a sparse walk: positioned reads of
/// ascending rows, which encoded columns answer from a forward cursor.
enum ColCursor<'a> {
    Enc(EncodedCursor<'a>),
    Const(i64),
}

impl<'a> ColCursor<'a> {
    fn open(col: UnitCol<'a>) -> Self {
        match col {
            UnitCol::Enc(e, _) => ColCursor::Enc(e.cursor()),
            UnitCol::Const(c) => ColCursor::Const(c),
        }
    }

    /// The stored cell of unit-local row `row`.
    fn at(&mut self, row: usize) -> i64 {
        match self {
            ColCursor::Enc(cursor) => cursor.at(row),
            ColCursor::Const(c) => *c,
        }
    }
}

/// Feeds `sink` the `(key, value, global row)` of every row of one unit
/// that `sel` keeps and returns what the walk touched of the key and
/// value columns. Single-column consumers pass [`UnitCol::Const`] for
/// the column they do not read — it costs nothing.
///
/// The selection's density picks one of three regimes, and the same
/// decision is the bill:
///
/// * **all rows** selected — stream every block;
/// * **dense** (at or past the [`sparse_hits`] crossover) — stream the
///   blocks up to the last surviving row against the selection's 64-bit
///   match words: a zero word skips the block (Plain and FOR columns are
///   not even read there), a partial one visits its set bits by
///   `trailing_zeros`;
/// * **sparse**, and every positional selection (its rows may repeat) —
///   read the rows one by one through forward cursors
///   (`EncodedInts::cursor`), which resume where the previous hit left
///   them.
fn walk(
    unit: &Unit<'_>,
    k: UnitCol<'_>,
    v: UnitCol<'_>,
    sel: &Selection<'_>,
    sink: impl FnMut(i64, i64, u32),
) -> (Touched, Touched) {
    let (streamed, words) = regime(unit, sel);
    let run = (unit, sel, streamed, words.as_deref());
    // The code → key translation is resolved here, once per unit, so the
    // row loops are monomorphic; it runs for *selected* rows only.
    match k {
        UnitCol::Enc(_, Some(map)) => walk_rows(run, k, v, |code| map[code as usize], sink),
        _ => walk_rows(run, k, v, |cell| cell, sink),
    }
    (k.touched(streamed, sel.n, unit.rows), v.touched(streamed, sel.n, unit.rows))
}

/// Whether [`walk`] streams `sel`'s blocks — every row, or a dense
/// selection at or past the [`sparse_hits`] crossover — rather than
/// reading its rows one by one. A positional selection never streams.
fn streams(unit: &Unit<'_>, sel: &Selection<'_>) -> bool {
    !sel.positional() && !sparse_hits(sel.n, unit.rows)
}

/// The regime [`walk`] reads `sel` in: how many rows to stream (`None`:
/// read the survivors alone) and, for a dense selection, its match
/// words (`None`: every row is selected).
fn regime<'s>(unit: &Unit<'_>, sel: &'s Selection<'_>) -> (Option<usize>, Option<Cow<'s, [u64]>>) {
    if !streams(unit, sel) {
        (None, None)
    } else if sel.n == unit.rows {
        (Some(unit.rows), None)
    } else {
        (Some(sel.last().map_or(0, |last| last + 1)), Some(sel.words(unit)))
    }
}

/// The wrapping sum of `v` over the rows `sel` keeps — [`walk`]'s
/// regimes and bill, but a streamed block folds as one sum: a full match
/// word sums the block, a partial one sums it masked by the word. The
/// sum wraps exactly as a row-by-row fold does.
fn walk_sum(unit: &Unit<'_>, v: UnitCol<'_>, sel: &Selection<'_>) -> (i64, Touched) {
    let (streamed, words) = regime(unit, sel);
    let mut sum = 0i64;
    match streamed {
        None => {
            let mut vc = ColCursor::open(v);
            sel.for_each(|row| sum = sum.wrapping_add(vc.at(row)));
        }
        Some(streamed) => {
            let mut vb = ColBlocks::open(v, unit.rows);
            for block in 0..streamed.div_ceil(BLOCK_ROWS) {
                let word = words.as_deref().map_or(u64::MAX, |w| w[block]);
                if word == 0 {
                    vb.skip();
                    continue;
                }
                let vs = vb.next();
                let part = if word == u64::MAX {
                    vs.iter().fold(0i64, |acc, &x| acc.wrapping_add(x))
                } else {
                    // Bit `j` of the word, widened to an all-ones or
                    // all-zeros mask over value `j`.
                    vs.iter().enumerate().fold(0i64, |acc, (j, &x)| {
                        acc.wrapping_add(x & ((word >> j) as i64 & 1).wrapping_neg())
                    })
                };
                sum = sum.wrapping_add(part);
            }
        }
    }
    (sum, v.touched(streamed, sel.n, unit.rows))
}

/// The row loops under [`walk`]. `streamed` is the number of rows to
/// stream (`None`: the sparse regime) against `words` (`None`: every row
/// is selected); `key` translates the key column's stored cell.
fn walk_rows(
    (unit, sel, streamed, words): (&Unit<'_>, &Selection<'_>, Option<usize>, Option<&[u64]>),
    k: UnitCol<'_>,
    v: UnitCol<'_>,
    key: impl Fn(i64) -> i64,
    mut sink: impl FnMut(i64, i64, u32),
) {
    let base = unit.base;
    let Some(streamed) = streamed else {
        let (mut kc, mut vc) = (ColCursor::open(k), ColCursor::open(v));
        return sel.for_each(|row| sink(key(kc.at(row)), vc.at(row), (base + row) as u32));
    };
    let (mut kb, mut vb) = (ColBlocks::open(k, unit.rows), ColBlocks::open(v, unit.rows));
    for block in 0..streamed.div_ceil(BLOCK_ROWS) {
        let word = words.map_or(u64::MAX, |w| w[block]);
        if word == 0 {
            kb.skip();
            vb.skip();
            continue;
        }
        let (ks, vs) = (kb.next(), vb.next());
        let row0 = (base + block * BLOCK_ROWS) as u32;
        if word == u64::MAX {
            for (j, (&kc, &vc)) in ks.iter().zip(vs).enumerate() {
                sink(key(kc), vc, row0 + j as u32);
            }
        } else {
            let mut left = word;
            while left != 0 {
                let j = left.trailing_zeros() as usize;
                left &= left - 1;
                sink(key(ks[j]), vs[j], row0 + j as u32);
            }
        }
    }
}

/// One share of a gather, as its dispatch sees it: fills share `s`'s
/// runs and returns what it read. A dispatch runs it for every share `s`
/// — the position of its unit in the list of units it is handed — and
/// returns the bills in share order.
type ShareFn<'s> = &'s (dyn Fn(usize) -> GatherStats + Sync);

/// The one gather: the named columns of `t` at the rows `sels` keeps —
/// one [`Selection`] per unit, read as it is — filled into output
/// buffers allocated once, then strings interned. Every unit holding a
/// row is one *share*, which fills its own run of every column in row
/// order, so shares may run on different threads; `dispatch` runs them.
/// A positional list's cells then move into output order by one pass
/// (`slots`: each listed row's output position).
///
/// # Errors
///
/// [`DbError::NoSuchColumn`] for an unknown name; whatever `dispatch`
/// returns (a cancel).
fn gather_units(
    t: &TableSnapshot,
    names: &[String],
    sels: &[Selection<'_>],
    slots: Option<&[u32]>,
    dispatch: impl FnOnce(&[usize], ShareFn<'_>) -> DbResult<Vec<GatherStats>>,
) -> DbResult<(Vec<(String, Column)>, GatherStats)> {
    let units = live(sels);
    let lens: Vec<usize> = units.iter().map(|&u| sels[u].n).collect();
    let mut out = t.gather_out(names, lens.iter().sum())?;
    let (k, width) = (units.len(), out.width());
    let parts = {
        // Each run is handed to the one share that fills it.
        let runs: Vec<Mutex<Option<_>>> = out.split(&lens).map(|run| Mutex::new(Some(run))).collect();
        let take = |i: usize| {
            runs[i].lock().unwrap_or_else(PoisonError::into_inner).take().expect("each run is filled once")
        };
        dispatch(&units, &|s| {
            let (unit, sel) = (Unit::of(t, units[s]), &sels[units[s]]);
            total((0..width).map(|c| {
                let (idx, run) = take(c * k + s);
                gather_column(t, &unit, sel, idx, run)
            }))
        })?
    };
    let mut stats = total(parts);
    if let Some(slots) = slots {
        out.scatter_to(slots);
    }
    let cols = t.finish_gather(out, &mut stats);
    Ok((cols, stats))
}

/// The gather of a row list — global row ids in any order, duplicates
/// allowed: sorted for one ascending visit of the units (one argsort,
/// skipped when the list already is non-decreasing), checked once, cut
/// into one borrowed [`Selection`] per unit by [`split_ids`] and
/// gathered by [`gather_units`], which puts the cells back into list
/// order. A list that is not strictly ascending is positional in every
/// unit.
///
/// # Errors
///
/// [`DbError::BadQuery`] for a row id `>= t.rows()`, and as
/// [`gather_units`].
fn gather_list(
    t: &TableSnapshot,
    names: &[String],
    rows: &[u32],
    dispatch: impl FnOnce(&[usize], ShareFn<'_>) -> DbResult<Vec<GatherStats>>,
) -> DbResult<(Vec<(String, Column)>, GatherStats)> {
    let mut strict = true;
    let (sorted, slots) = if rows.windows(2).all(|w| {
        strict &= w[0] != w[1];
        w[0] <= w[1]
    }) {
        (Cow::Borrowed(rows), None)
    } else {
        strict = false;
        assert!(rows.len() <= u32::MAX as usize, "row list longer than the row-id space");
        // Argsort as one sort of packed `(row, position)` keys.
        let mut keyed: Vec<u64> = rows.iter().zip(0u64..).map(|(&r, k)| (r as u64) << 32 | k).collect();
        keyed.sort_unstable();
        let slots: Vec<u32> = keyed.iter().map(|&x| x as u32).collect();
        (Cow::Owned(keyed.into_iter().map(|x| (x >> 32) as u32).collect()), Some(slots))
    };
    if let Some(&last) = sorted.last().filter(|&&last| last as usize >= t.rows()) {
        return Err(DbError::BadQuery(format!(
            "row {last} out of bounds: {} has {} rows",
            t.name(),
            t.rows()
        )));
    }
    let sels: Vec<Selection<'_>> = split_ids(t, &sorted)
        .enumerate()
        .map(|(u, ids)| Selection::ids(ids.into(), t.store(u).1, !strict))
        .collect();
    gather_units(t, names, &sels, slots.as_deref(), dispatch)
}

/// The gather behind [`TableSnapshot::materialize_columns`] and its
/// siblings — every row (`None`) or a row list — with serial dispatch:
/// every share in order on the calling thread, no gate, no cancel poll.
pub(crate) fn gather_serial(
    t: &TableSnapshot,
    names: &[String],
    rows: Option<&[u32]>,
) -> DbResult<(Vec<(String, Column)>, GatherStats)> {
    let serial = |units: &[usize], share: ShareFn<'_>| -> DbResult<Vec<GatherStats>> {
        Ok((0..units.len()).map(share).collect())
    };
    match rows {
        Some(rows) => gather_list(t, names, rows, serial),
        None => gather_units(t, names, &every_row(t), None, serial),
    }
}

/// One selection per unit of `t`, keeping every row.
fn every_row(t: &TableSnapshot) -> Vec<Selection<'static>> {
    (0..t.store_count()).map(|u| Selection::all(t.store(u).0.rows())).collect()
}

/// The units with work in a stage's per-unit selections: those holding
/// a row, ascending — what every stage hands [`Exec::dispatch`].
fn live(sels: &[Selection<'_>]) -> Vec<usize> {
    (0..sels.len()).filter(|&u| sels[u].n > 0).collect()
}

/// The filter's first pass, on the calling thread: every unit of `t`
/// whose predicates [`Pred::on`] decides without a read gets the
/// selection [`Exec::eval`] would return for it, with nothing billed —
/// none when the first predicate that is not a tautology excludes every
/// row, every row when all are tautologies. Returns those selections
/// (none for a unit left to read) and, per unit, what the scan reads:
/// every row of a unit left to read, none of a settled one. A settled
/// unit never reaches [`Exec::dispatch`].
fn settle(t: &TableSnapshot, preds: &[Pred]) -> (Vec<Selection<'static>>, Vec<Selection<'static>>) {
    (0..t.store_count())
        .map(|u| {
            let unit = Unit::of(t, u);
            match preds.iter().map(|p| p.on(&unit)).find(|p| !matches!(p, UnitPred::Const(true))) {
                None => (Selection::all(unit.rows), Selection::none()),
                Some(UnitPred::Const(false)) => (Selection::none(), Selection::none()),
                Some(_) => (Selection::none(), Selection::all(unit.rows)),
            }
        })
        .unzip()
}

/// One column of one unit's share of a gather: the cells `sel` keeps,
/// in row order — an encoded column's through [`walk`], strings shifted
/// to where the store's codes start in the unified source-code space,
/// floats (stored flat) one by one — and the gather's own bill for them.
/// A streamed share pays for its whole store, every row decoded and
/// every encoded byte, though the walk stops at its last hit; a share
/// read hit by hit pays one cell per entry. A store predating the
/// column reads nothing: `out` keeps its sentinel.
fn gather_column(
    t: &TableSnapshot,
    unit: &Unit<'_>,
    sel: &Selection<'_>,
    idx: usize,
    out: CellsMut<'_>,
) -> GatherStats {
    let Some(col) = unit.col(idx) else { return GatherStats::default() };
    let cell_bytes = match (col, out) {
        (SegColumn::Int { data, .. }, CellsMut::Ints(out)) => {
            walk_into(unit, data, sel, out, |v| v);
            8
        }
        (SegColumn::Str { codes, .. }, CellsMut::Codes(out)) => {
            let code0 = if unit.store.code_space() == CodeSpace::Delta { t.str_codes(idx).0 } else { 0 };
            walk_into(unit, codes, sel, out, |code| code0 + code as u32);
            4
        }
        (SegColumn::Float(v), CellsMut::Floats(out)) => {
            let mut at = 0;
            sel.for_each(|row| {
                out[at] = v[row];
                at += 1;
            });
            8
        }
        // INVARIANT: `gather_out` typed every output column from the
        // schema, and every store builds its columns from the same
        // schema types.
        _ => unreachable!("store column type matches the schema"),
    };
    let (items, bytes) =
        if streams(unit, sel) { (unit.rows, col.encoded_bytes()) } else { (sel.n, sel.n * cell_bytes) };
    let decoded = !matches!(col, SegColumn::Float(_));
    GatherStats {
        decode_items: if decoded { items as u64 } else { 0 },
        bytes_read: bytes as u64,
        bytes_written: 0,
    }
}

/// Writes the cells of `data` that `sel` keeps into `out`, in row order,
/// through [`walk`]'s regimes.
fn walk_into<T>(
    unit: &Unit<'_>,
    data: &EncodedInts,
    sel: &Selection<'_>,
    out: &mut [T],
    cell: impl Fn(i64) -> T,
) {
    let mut at = 0;
    walk(unit, UnitCol::Enc(data, None), UnitCol::Const(0), sel, |v, _, _| {
        out[at] = cell(v);
        at += 1;
    });
}

/// The summed bill of a gather's parts.
fn total(parts: impl IntoIterator<Item = GatherStats>) -> GatherStats {
    parts.into_iter().fold(GatherStats::default(), |mut sum, part| {
        sum.absorb(part);
        sum
    })
}

/// Sentinel key for string values the key space never interned: joins
/// with nothing, dropped during key extraction.
const NO_KEY: i64 = i64::MIN;

/// A key column — a group-by key or one side's join key — resolved for
/// unit-wise streaming: integer keys are their values; string keys are
/// dictionary codes translated into a [`StrKeySpace`], never the
/// strings themselves.
enum KeyCol {
    /// An integer key column.
    Int(usize),
    /// A string key column with its code translations.
    Str(StrKeys),
}

/// One table's string column resolved into a [`StrKeySpace`] (its own
/// for group-by and the build side of a join, the build side's for the
/// probe side): one-off dictionary translations — O(dictionary), never
/// O(rows).
struct StrKeys {
    /// Column index.
    col: usize,
    /// This table's global dictionary code → key.
    main_map: Vec<i64>,
    /// `main_map` is the identity — the table's own global dictionary
    /// *is* the space — so segment codes are keys as stored.
    main_identity: bool,
    /// This table's delta dictionary code → key.
    delta_map: Vec<i64>,
    /// Key of rows in stores predating the column (`""`).
    sentinel_key: i64,
    /// The largest key of the space (the reserved `""` key): with 0, the
    /// domain of every translated code.
    max_key: i64,
}

impl StrKeys {
    /// The code → key translation of a store in `space` (`None`: the
    /// identity, codes are keys as stored).
    fn map(&self, space: CodeSpace) -> Option<&[i64]> {
        match space {
            CodeSpace::Global => (!self.main_identity).then_some(&self.main_map),
            CodeSpace::Delta => Some(&self.delta_map),
        }
    }
}

impl KeyCol {
    fn col(&self) -> usize {
        match self {
            KeyCol::Int(c) => *c,
            KeyCol::Str(k) => k.col,
        }
    }

    /// `unit`'s view of this key column.
    fn unit_col<'a>(&'a self, unit: &Unit<'a>) -> UnitCol<'a> {
        let k = match self {
            KeyCol::Int(idx) => return unit.int_col(*idx),
            KeyCol::Str(k) => k,
        };
        match unit.col(k.col) {
            Some(SegColumn::Str { codes, .. }) => UnitCol::Enc(codes, k.map(unit.store.code_space())),
            None => UnitCol::Const(k.sentinel_key),
            // INVARIANT: a `KeyCol::Str` is only resolved for a column
            // whose schema type is `Str` (`Exec::fold`, `Exec::join`).
            Some(_) => unreachable!("key validated as string column"),
        }
    }
}

/// The key space of one table's string column: codes of its
/// table-global dictionary first, then values of its delta dictionary
/// the global one has not seen, shifted past them. `""` always resolves to
/// a key (one past everything when neither dictionary holds it) — real
/// `""` rows and the sentinel rows of segments and chunks predating the
/// column must be able to meet, within a table and across a join.
struct StrKeySpace<'a> {
    global: Option<&'a DictColumn>,
    delta: Option<&'a DictColumn>,
    global_len: i64,
}

impl<'a> StrKeySpace<'a> {
    fn of(t: &'a TableSnapshot, idx: usize) -> Self {
        let global = t.global_dict(idx);
        let delta = t.delta_dict(idx);
        StrKeySpace { global, delta, global_len: global.map_or(0, DictColumn::dict_size) as i64 }
    }

    /// Key for values the global dictionary does not hold: delta-fresh
    /// values shift past the global codes; `""` gets the reserved key
    /// one past everything; anything else has no key.
    fn fallback_key(&self, s: &str) -> i64 {
        if let Some(c) = self.delta.and_then(|l| l.code_of(s)) {
            return self.global_len + i64::from(c);
        }
        if s.is_empty() {
            return self.global_len + self.delta.map_or(0, DictColumn::dict_size) as i64;
        }
        NO_KEY
    }

    fn key_of(&self, s: &str) -> i64 {
        match self.global.and_then(|g| g.code_of(s)) {
            Some(c) => i64::from(c),
            None => self.fallback_key(s),
        }
    }

    /// The string behind a key of this space.
    fn decode(&self, key: i64) -> &'a str {
        let s = if key < self.global_len {
            self.global.and_then(|g| g.decode(key as u32))
        } else {
            self.delta.and_then(|l| l.decode((key - self.global_len) as u32))
        };
        // Only the reserved `""` key lies past both dictionaries.
        s.unwrap_or("")
    }

    /// Resolves string column `idx` of `t` into this space, counting
    /// the dictionary lookups performed so a join can bill the one-off
    /// translation.
    fn resolve(&self, t: &TableSnapshot, idx: usize, lookups: &mut u64) -> StrKeys {
        let is_own_global = |d: &DictColumn| self.global.is_some_and(|g| std::ptr::eq(g, d));
        let mut map_dict = |d: &DictColumn| -> Vec<i64> {
            // The space's own global dictionary maps into itself: an
            // identity map, no lookups to run (or bill).
            if is_own_global(d) {
                return (0..d.dict_size() as i64).collect();
            }
            // Bulk first-level translation into the global dictionary,
            // then resolve the misses through the delta dictionary.
            let first = match self.global {
                Some(g) => d.codes_in(g),
                None => vec![None; d.dict_size()],
            };
            *lookups += d.dict_size() as u64;
            d.iter_dict()
                .zip(first)
                .map(|(s, hit)| hit.map_or_else(|| self.fallback_key(s), i64::from))
                .collect()
        };
        let main = t.global_dict(idx);
        StrKeys {
            col: idx,
            main_map: main.map_or_else(Vec::new, &mut map_dict),
            main_identity: main.is_none_or(is_own_global),
            delta_map: t.delta_dict(idx).map_or_else(Vec::new, &mut map_dict),
            sentinel_key: self.key_of(""),
            max_key: self.global_len + self.delta.map_or(0, DictColumn::dict_size) as i64,
        }
    }
}

/// The probe side's pruning range, in its **physical** key domain:
/// build-key min/max for integer keys, for every store; for string keys,
/// the span of probe-side global codes whose key `member`s the build
/// side (an inverted range when none does, pruning every probe segment —
/// chunks, whose codes index the delta-wide dictionary, are never pruned
/// by it). `None` disables pruning.
///
/// Also returns how many `member` lookups ran (one per probe-dictionary
/// entry for string keys, zero for integer keys, whose min/max fold
/// runs over already-billed extracted pairs) so the caller can charge
/// them — the integer fold is register arithmetic, the string case is a
/// real probe of the build structure per distinct value.
fn probe_prune_range(
    bkeys: &[(i64, u32)],
    pkey: &KeyCol,
    member: impl Fn(i64) -> bool,
) -> (Option<(i64, i64)>, u64) {
    let mut lo = i64::MAX;
    let mut hi = i64::MIN;
    match pkey {
        KeyCol::Int(_) => {
            for &(k, _) in bkeys {
                lo = lo.min(k);
                hi = hi.max(k);
            }
            ((lo <= hi).then_some((lo, hi)), 0)
        }
        KeyCol::Str(keys) => {
            let mut lookups = 0;
            for (code, &k) in keys.main_map.iter().enumerate() {
                if k != NO_KEY {
                    lookups += 1;
                    if member(k) {
                        lo = lo.min(code as i64);
                        hi = hi.max(code as i64);
                    }
                }
            }
            (Some(if lo <= hi { (lo, hi) } else { (1, 0) }), lookups)
        }
    }
}

/// One side of a join after its filter stage.
struct JoinSide<'a> {
    t: &'a TableSnapshot,
    /// Key column name and index.
    col: &'a str,
    idx: usize,
    /// Filter survivors, one selection per execution unit.
    sel: &'a [Selection<'a>],
    /// Zone maps of an integer key (`None` for string keys).
    zones: Option<Vec<ZoneMapMeta>>,
}

impl<'a> JoinSide<'a> {
    fn new(t: &'a TableSnapshot, col: &'a str, idx: usize, sel: &'a [Selection<'a>]) -> Self {
        JoinSide { t, col, idx, sel, zones: t.zone_maps(col) }
    }

    fn rows(&self) -> u64 {
        self.sel.iter().map(|s| s.n).sum::<usize>() as u64
    }

    /// The key stream arrives in key order: the main layout is globally
    /// sorted on the key (disjoint ascending zones) and there is no
    /// unsorted delta tail — key extraction walks rows in ascending id
    /// order, so the merge join's sort pass is free for this side.
    fn sorted(&self) -> bool {
        self.t.delta_rows() == 0 && self.zones.as_deref().is_some_and(sorted_layout)
    }

    /// Estimated survival of this side's segments against the `other`
    /// side's key extrema (the executor prunes for real with the same
    /// intersection test). String keys carry no zone statistics here.
    fn live_frac(&self, other: &JoinSide<'_>) -> f64 {
        match (&self.zones, &other.zones) {
            (Some(own), Some(theirs)) => {
                let (lo, hi) =
                    theirs.iter().fold((i64::MAX, i64::MIN), |(lo, hi), z| (lo.min(z.min), hi.max(z.max)));
                join_zone_overlap(own, lo, hi)
            }
            _ => 1.0,
        }
    }

    fn cost(&self, other: &JoinSide<'_>) -> JoinSideCost {
        JoinSideCost {
            rows: self.rows(),
            encoded_key_bytes: self.t.column_encoded_bytes(self.col).unwrap_or(0) as u64,
            live_frac: self.live_frac(other),
            sorted: self.sorted(),
        }
    }
}

/// One query's execution state: the engine, the caller's options, and
/// the bill so far. Stages are methods that add to `profile`; unit-level
/// work runs on `&self` (possibly on pool workers) and returns its own
/// bill for the stage to add.
struct Exec<'a> {
    db: &'a Database,
    opts: &'a ExecOpts,
    profile: ResourceProfile,
}

impl Database {
    /// Executes `query` against the table views `pin` resolves — the
    /// one engine behind [`Database::execute_opts`] (latest-state
    /// pins), [`crate::db::DbSnapshot::execute_opts`] (timestamped
    /// pins) and [`crate::db::DbTransaction::execute`] (pins + write
    /// overlay). Only rows visible in the pins are evaluated, and every
    /// index read is the pinned stores' own, so a snapshot and a
    /// transaction plan and read indexes like a latest-state query.
    ///
    /// Stages run in one fixed order — filter each side, join the
    /// survivors (two-table queries), then fold them into an aggregate
    /// or gather the projected columns — accumulating one
    /// [`ResourceProfile`] that is charged at the end. The cancel token
    /// is polled between stages (and per unit inside them): a stage that
    /// stopped early covers only some units, so its partial output never
    /// reaches the next stage; the work done so far is billed.
    pub(crate) fn run<'t>(
        &self,
        query: &Query,
        opts: &ExecOpts,
        pin: impl Fn(&str) -> DbResult<Cow<'t, TableSnapshot>>,
    ) -> DbResult<QueryResult> {
        if let Some(misuse) = query.misuse {
            return Err(DbError::BadQuery(misuse.into()));
        }
        let lt = pin(&query.table)?;
        let lt: &TableSnapshot = &lt;
        let rt = query.join.as_ref().map(|jc| pin(&jc.table)).transpose()?;
        let join = query.join.as_ref().zip(rt.as_deref());
        let started = std::time::Instant::now();
        if join.is_some() && (query.group_by.is_some() || query.agg.is_some()) {
            return Err(DbError::BadQuery("aggregates over joins are not supported yet".into()));
        }
        let mut ex = Exec { db: self, opts, profile: ResourceProfile::default() };
        ex.check_cancelled()?;
        let key_idx = join.map(|(jc, rt)| join_key_columns(lt, rt, query, jc)).transpose()?;

        // --- filter: each side on its own compressed store -------------
        let planned = join.is_none().then_some(query);
        let (lsel, access_path) = ex.filter(lt, &query.table, &query.filters, &query.str_filters, planned)?;
        let rsel = match join {
            Some((jc, rt)) => ex.filter(rt, &jc.table, &jc.filters, &jc.str_filters, None)?.0,
            None => Vec::new(),
        };
        ex.check_cancelled()?;

        let rows = match join.zip(key_idx) {
            // --- fold | gather over the survivors ----------------------
            None => match &query.agg {
                Some((kind, value_col)) => ex.fold(lt, query, *kind, value_col, &lsel)?,
                None if query.group_by.is_some() => {
                    return Err(DbError::BadQuery("group_by requires an aggregate".into()));
                }
                None => ex.gather(lt, query, &lsel)?,
            },
            // --- join, then late gather: only surviving pairs touch
            // payload columns ---------------------------------------------
            Some(((jc, rt), (lidx, ridx))) => {
                let l = JoinSide::new(lt, &jc.left_col, lidx, &lsel);
                let r = JoinSide::new(rt, &jc.right_col, ridx, &rsel);
                let (lrows, rrows) = ex.join(&l, &r);
                ex.check_cancelled()?;
                ex.gather_join(lt, rt, query, jc, &lrows, &rrows)?
            }
        };
        // A cancel during the last stage folded or gathered only the
        // units that ran; discard the partial chunk, bill the work.
        ex.check_cancelled()?;

        // The query's own cost estimate *is* its energy (identical to
        // the meter delta when single-threaded, and — unlike a meter
        // delta — not polluted by concurrent queries charging the same
        // shared meter).
        let est = self.charge(&ex.profile);
        // Views this query's stores built on sealed chunks — or that an
        // unmetered reader built before it — are storage maintenance:
        // charged to the meter here, once, and never to any query's bill.
        for t in std::iter::once(lt).chain(rt.as_deref()) {
            let (raw, encoded) = t.take_unbilled_encodes();
            self.charge_encode(raw, encoded);
        }
        Ok(QueryResult {
            rows,
            energy: est.energy,
            modeled_time: est.time,
            wall_time: started.elapsed(),
            access_path,
            profile: ex.profile,
        })
    }
}

impl Exec<'_> {
    /// Surfaces a fired cancel token as [`DbError::Cancelled`], billing
    /// the profile so far — the work the query did before stopping — to
    /// the meter so partial runs stay energy-honest (the meter only ever
    /// moves forward; a cancelled query just adds less).
    fn check_cancelled(&self) -> DbResult<()> {
        if self.opts.is_cancelled() {
            let est = self.db.charge(&self.profile);
            return Err(DbError::Cancelled { partial_energy: est.energy });
        }
        Ok(())
    }

    /// The filter stage for one table: one [`Selection`] per execution
    /// unit — every row of every unit when the side has no predicates
    /// ([`every_row`]). `planned` is the query when its access path may be
    /// planned — a single-table query: the first filter is then costed
    /// across scan, index and sorted-layout paths per the session goal,
    /// and the choice reported.
    ///
    /// Zone maps first ([`settle`]): units they decide are neither read
    /// nor billed. On the index path each unit left that keeps an index
    /// of the first filter's column is handed its index's rows of the
    /// literal, borrowed as they lie, and its leftover predicates run as
    /// a unit stage ([`Exec::eval_ids`]); the lookup is billed once, over
    /// the total hit count. Every other unit left — all of them off the
    /// index path, a snapshot's private delta chunk on it — is scanned
    /// on its compressed columns ([`Exec::eval`]).
    fn filter<'t>(
        &mut self,
        t: &'t TableSnapshot,
        table: &str,
        filters: &[Filter],
        str_filters: &[StrFilter],
        planned: Option<&Query>,
    ) -> DbResult<(Vec<Selection<'t>>, Option<AccessPath>)> {
        let preds = resolve_preds(t, table, filters, str_filters)?;
        let mut access_path = None;
        let mut index = None;
        if let Some((query, first)) = planned.zip(filters.first()) {
            // A hash index answers equality only.
            let indexed = if first.op == CmpOp::Eq { t.index(&first.column) } else { None };
            let zones = t.zone_maps(&first.column);
            let layout_sorted = zones.as_deref().is_some_and(sorted_layout);
            if indexed.is_some() || layout_sorted {
                // Cost every available path against the *compressed*
                // footprint and zone maps, pick per the session goal.
                // Statistics for the columns the costing reads: the
                // filter column and the projected string columns.
                let projected = projected_str_columns(t, query);
                let meta = t.planner_meta_of(|name| name == first.column || projected.contains(&name));
                let zones = zones.expect("validated int column");
                let encoded = t.column_encoded_bytes(&first.column).expect("column exists") as u64;
                let model = &self.db.model;
                let decision = choose_access_segmented(
                    model,
                    &meta,
                    &first.column,
                    first.op,
                    first.literal,
                    &zones,
                    encoded,
                );
                let index_cost = decision.index_cost.filter(|_| indexed.is_some());
                // Every path delivers the same projection, shipped to
                // the client as codes + a shared dictionary — add its
                // cost ([`CostModel::project_codes`]) to all so the
                // totals the session goal weighs are honest end to end.
                let project = str_projection_cost(model, t, &meta, &projected, decision.selectivity);
                let access = [
                    decision.scan_cost,
                    index_cost.unwrap_or(decision.scan_cost),
                    decision.sorted_cost.unwrap_or(decision.scan_cost),
                ];
                let candidates = [access[0] + project, access[1] + project, access[2] + project];
                // If the shared projection term pushes *all* totals past
                // a budget goal, the query still has to run: rank the
                // access work alone, so an index that dominates the scan
                // is never abandoned for being part of an over-budget
                // whole.
                let goal = self.db.goal();
                let pick = choose(&candidates, goal).or_else(|_| choose(&access, goal)).unwrap_or(0);
                // A sorted-layout plan is realized by the scan below:
                // `eval`'s sort-key fast path binary-searches each sorted
                // segment and emits the surviving row range.
                access_path = Some(if pick == 1 && index_cost.is_some() {
                    index = indexed;
                    AccessPath::IndexLookup
                } else if pick == 2 && decision.sorted_cost.is_some() {
                    AccessPath::ZoneBinarySearch
                } else {
                    AccessPath::FullScan
                });
            }
        }
        if preds.is_empty() {
            return Ok((every_row(t), access_path));
        }
        // Zone maps first (prune whole units, or skip tautological
        // predicates) on this thread, then the compressed column of each
        // unit left is scanned in place — store data is **never decoded**
        // for predicate evaluation. Every delta chunk is a unit of its
        // own, so an oversized (merge-disabled) delta still parallelizes.
        let (mut sels, mut todo): (Vec<Selection<'t>>, _) = settle(t, &preds);
        if let Some(index) = index {
            index.looked_up();
            // Every unit left to read that keeps an index of the column;
            // the rest (a store that predates the column, a snapshot's
            // private chunk) are scanned below. The zones settled every
            // other unit, so on these the first predicate reads the
            // column or holds on every row — which the index returns.
            let cells: Vec<_> =
                live(&todo).into_iter().filter_map(|u| Some((u, index.on(t.store(u).0, true)?))).collect();
            // The stores this lookup indexed are the index's maintenance.
            self.db.charge_index_builds(index);
            let mut found: Vec<Selection<'t>> = (0..todo.len()).map(|_| Selection::none()).collect();
            let (mut hits, mut first_rows) = (0, 0);
            // One short loop over the tables, so their cache misses
            // overlap; it reads each unit's first hit too, or the next
            // stage misses on it at the head of every unit (31 tables of
            // 64 K rows on a 2-core VM: ≈ 8 µs per lookup).
            for (u, table) in cells {
                let rows = table.matches(filters[0].literal).unwrap_or_default();
                hits += rows.len() as u64;
                first_rows ^= rows.first().copied().unwrap_or(0);
                found[u] = Selection::ids(Cow::Borrowed(rows), 0, false);
                todo[u] = Selection::none();
            }
            std::hint::black_box(first_rows);
            self.profile.cpu_cycles += self.db.costs.cycles_for(Kernel::IndexLookup, hits.max(1));
            self.profile.dram_read += ByteCount::new(hits * 128 + 128);
            if preds.len() > 1 {
                let (kept, profile) =
                    self.run_units(t, &found, |unit, sel| self.eval_ids(unit, sel, &preds[1..]));
                self.profile += profile;
                for (u, ids) in live(&found).into_iter().zip(kept) {
                    sels[u] = Selection::ids(ids.into(), 0, false);
                }
            } else {
                for (u, sel) in found.into_iter().enumerate().filter(|(_, sel)| sel.n > 0) {
                    sels[u] = sel;
                }
            }
        }
        let (read, scan_profile) = self.run_units(t, &todo, |unit, _| self.eval(unit, &preds));
        self.profile += scan_profile;
        // A cancelled stage read only some units; the caller discards the
        // stage's output.
        for (u, sel) in live(&todo).into_iter().zip(read) {
            sels[u] = sel;
        }
        Ok((sels, access_path))
    }

    /// The gather stage of a single-table query: materializes only the
    /// projected columns (all schema columns when no projection is
    /// given), reading each unit's [`Selection`] as the filter left it
    /// ([`gather_units`]). Strings flow as codes + one shared output
    /// dictionary per column; the stats bill what each store path
    /// actually did (streamed encoded bytes, per-cell cursor reads, one
    /// first-touch read per distinct string).
    fn gather(&mut self, t: &TableSnapshot, query: &Query, sels: &[Selection<'_>]) -> DbResult<Chunk> {
        let names: Vec<String> = match &query.select {
            Some(cols) => cols.clone(),
            None => t.schema().columns().iter().map(|(n, _)| n.clone()).collect(),
        };
        let (cols, stats) = gather_units(t, &names, sels, None, |units, share| self.shares(t, units, share))?;
        let chunk = Chunk::new(cols).map_err(|e| DbError::BadQuery(format!("projection: {e}")))?;
        self.profile.cpu_cycles += self.db.costs.cycles_for(Kernel::Materialize, chunk.rows() as u64);
        self.bill_gather(&stats);
        Ok(chunk)
    }

    /// Runs `t`'s gather shares, one per unit of `units` (those holding a
    /// row), through [`Exec::dispatch`] and returns their bills in share
    /// order. A cancelled gather bills the shares that ran and stops.
    fn shares(
        &mut self,
        t: &TableSnapshot,
        units: &[usize],
        share: ShareFn<'_>,
    ) -> DbResult<Vec<GatherStats>> {
        let parts = self.dispatch(t, units, share);
        if self.opts.is_cancelled() {
            self.bill_gather(&total(parts.iter().copied()));
            self.check_cancelled()?;
        }
        Ok(parts)
    }

    /// Bills a gather's [`GatherStats`].
    fn bill_gather(&mut self, stats: &GatherStats) {
        self.profile.cpu_cycles += self.db.costs.cycles_for(Kernel::CompressDecode, stats.decode_items);
        self.profile.dram_read += ByteCount::new(stats.bytes_read);
        self.profile.dram_written += ByteCount::new(stats.bytes_written);
    }

    /// The fold stage: segment-wise aggregation pushdown. Every unit
    /// folds a partial [`AggState`] (or a [`GroupAcc`] of states per
    /// group) straight from its column views and its [`Selection`] —
    /// main segments block by block, no full-column materialization and
    /// no row-id list — and partials merge with [`AggState::merge`].
    fn fold(
        &mut self,
        t: &TableSnapshot,
        query: &Query,
        kind: AggKind,
        value_col: &str,
        sels: &[Selection<'_>],
    ) -> DbResult<Chunk> {
        // COUNT counts rows: its column only has to exist.
        let vidx = match kind {
            AggKind::Count => column_position(t, &query.table, value_col)?,
            _ => check_int_column(t, &query.table, value_col)?,
        };
        let group = match &query.group_by {
            Some(name) => {
                let idx = column_position(t, &query.table, name)?;
                let key = match t.schema().columns()[idx].1 {
                    DataType::Int64 => KeyCol::Int(idx),
                    // Grouping is the self-mapped case of a join's code
                    // translation (and, unlike there, not billed).
                    DataType::Str => KeyCol::Str(StrKeySpace::of(t, idx).resolve(t, idx, &mut 0)),
                    DataType::Float64 => {
                        return Err(DbError::TypeMismatch {
                            column: name.clone(),
                            expected: DataType::Int64,
                        });
                    }
                };
                Some((name, key))
            }
            None => None,
        };
        let spec = AggSpec { kind, vidx, group: group.as_ref().map(|(_, key)| key) };
        let (parts, agg_profile) = self.run_units(t, sels, |unit, sel| self.agg_unit(unit, spec, sel));
        self.profile += agg_profile;
        let mut acc = AggAcc::identity(group.is_some());
        parts.into_iter().for_each(|p| acc.merge(p));
        let agg_name = format!("{kind}({value_col})");
        let (gname, key, mut grouped) = match (acc, group) {
            (AggAcc::Global(st), _) => {
                return Ok(
                    Chunk::new(vec![(agg_name, agg_value_column(&[((), st)], kind))]).expect("one column")
                );
            }
            (AggAcc::Grouped(acc), Some((gname, key))) => (gname, key, acc.into_groups()),
            // INVARIANT: `AggAcc::identity(group.is_some())` is grouped
            // exactly when the query has a group column.
            (AggAcc::Grouped(_), None) => unreachable!("grouped result without group column"),
        };
        let key_col = match key {
            KeyCol::Int(_) => {
                grouped.sort_unstable_by_key(|&(k, _)| k);
                grouped.iter().map(|&(k, _)| k).collect::<Vec<i64>>().into_iter().collect()
            }
            KeyCol::Str(keys) => {
                // Keys are dictionary codes; decode once per *group*
                // (not per row) and sort by string so the output order
                // is independent of code assignment.
                let space = StrKeySpace::of(t, keys.col);
                grouped.sort_unstable_by_key(|&(k, _)| space.decode(k));
                let mut out = DictColumn::new();
                for &(k, _) in &grouped {
                    out.push(space.decode(k));
                }
                Column::Str(out)
            }
        };
        Chunk::new(vec![(gname.clone(), key_col), (agg_name, agg_value_column(&grouped, kind))])
            .map_err(|e| DbError::BadQuery(format!("aggregate output: {e}")))
    }

    /// One unit's partial aggregate, computed from its column views
    /// (or from zone metadata when possible).
    fn agg_unit(&self, unit: &Unit<'_>, spec: AggSpec<'_>, sel: &Selection<'_>) -> (AggAcc, ResourceProfile) {
        // COUNT never needs the values — only how many rows survive.
        let vcol = if spec.kind == AggKind::Count { UnitCol::Const(0) } else { unit.int_col(spec.vidx) };
        let Some(g) = spec.group else {
            let (st, profile) = self.fold_values(unit, spec, vcol, sel);
            return (AggAcc::Global(st), profile);
        };
        let kcol = g.unit_col(unit);
        // Zone-map-aware shortcut: a collapsed key zone means every row
        // of this unit belongs to one group — fold the values like a
        // global aggregate (zone-answered fast paths included) and skip
        // the per-row key decode and grouping entirely: zero key-column
        // bytes touched.
        let zone = unit.col(g.col()).and_then(SegColumn::zone);
        let single_key = match kcol {
            UnitCol::Const(k) => Some(k),
            UnitCol::Enc(_, None) => zone.filter(|(lo, hi)| lo == hi).map(|z| z.0),
            _ => None,
        };
        if let Some(k) = single_key {
            let (st, profile) = self.fold_values(unit, spec, vcol, sel);
            let mut acc = GroupAcc::new(Some((k, k)), 1);
            *acc.state(k) = st;
            return (AggAcc::Grouped(acc), profile);
        }
        // The unit's key domain, where known: the zone map for keys read
        // as stored, the key space for translated dictionary codes. A
        // small one folds into a flat array ([`GroupAcc`]); otherwise the
        // group hash is pre-sized from measured statistics — the exact
        // NDV measured when the store's column was built for integer
        // keys, the code-zone span for string keys — so it never rehashes
        // mid-fold.
        let domain = match (kcol, g) {
            (UnitCol::Enc(_, None), _) => zone,
            (UnitCol::Enc(_, Some(_)), KeyCol::Str(k)) => Some((0, k.max_key)),
            _ => None,
        };
        let ndv_hint = match g {
            KeyCol::Int(idx) => unit.col(*idx).and_then(SegColumn::ndv).unwrap_or(1),
            KeyCol::Str(_) => zone.map_or(1, |(lo, hi)| (hi - lo + 1).max(1).unsigned_abs()),
        };
        let mut acc = GroupAcc::new(domain, ndv_hint.min(unit.rows as u64) as usize);
        // Each row updates the group's count and the one field the kind
        // reads.
        let (tk, tv) = match spec.kind {
            AggKind::Count => walk(unit, kcol, vcol, sel, |k, _, _| acc.state(k).count += 1),
            AggKind::Sum | AggKind::Avg => walk(unit, kcol, vcol, sel, |k, v, _| {
                let st = acc.state(k);
                st.count += 1;
                st.sum = st.sum.wrapping_add(v);
            }),
            AggKind::Min => walk(unit, kcol, vcol, sel, |k, v, _| {
                let st = acc.state(k);
                st.count += 1;
                st.min = st.min.min(v);
            }),
            AggKind::Max => walk(unit, kcol, vcol, sel, |k, v, _| {
                let st = acc.state(k);
                st.count += 1;
                st.max = st.max.max(v);
            }),
        };
        let n = sel.n as u64;
        // Random accesses read codes as 4-byte cells, integer keys and
        // values as 8-byte cells.
        let key_cell = if matches!(g, KeyCol::Str(_)) { 4 } else { 8 };
        let profile = ResourceProfile {
            cpu_cycles: self.db.costs.cycles_for(Kernel::CompressDecode, tk.decode_items + tv.decode_items)
                + self.db.costs.cycles_for(Kernel::AggUpdate, n)
                + self.db.costs.cycles_for(Kernel::HashProbe, n),
            dram_read: ByteCount::new(tk.bytes(key_cell) + tv.bytes(8)),
            ..ResourceProfile::default()
        };
        (AggAcc::Grouped(acc), profile)
    }

    /// Folds one unit's value column into a single [`AggState`] —
    /// shared by the global aggregate and by grouped aggregates over
    /// units whose group-key zone collapses to one value. Fast paths
    /// answer from metadata: COUNT from the hit count; on a unit every
    /// row of which survives, MIN/MAX from the zone map — zero column
    /// bytes touched — and SUM/AVG over RLE one multiply per run.
    /// Everything else walks the column — SUM/AVG a block at a time
    /// ([`walk_sum`]), MIN/MAX row by row — billing decode cycles plus
    /// the bytes actually read.
    fn fold_values(
        &self,
        unit: &Unit<'_>,
        spec: AggSpec<'_>,
        vcol: UnitCol<'_>,
        sel: &Selection<'_>,
    ) -> (AggState, ResourceProfile) {
        let (rows, n) = (unit.rows, sel.n);
        let mut profile = ResourceProfile::default();
        let mut st = AggState::empty();
        let answered = self.db.costs.cycles_for(Kernel::AggUpdate, 1);
        if spec.kind == AggKind::Count {
            st.count = n as u64;
            profile.cpu_cycles += answered;
            return (st, profile);
        }
        if n == rows {
            match (spec.kind, vcol, unit.col(spec.vidx).and_then(SegColumn::zone)) {
                // Sentinel column: `rows` copies of 0, no data exists.
                (_, UnitCol::Const(v), _) => {
                    st.update_repeated(v, rows);
                    return (st, profile);
                }
                (AggKind::Min | AggKind::Max, _, Some((lo, hi))) => {
                    st.count = rows as u64;
                    st.min = lo;
                    st.max = hi;
                    profile.cpu_cycles += answered;
                    return (st, profile);
                }
                (_, UnitCol::Enc(data @ EncodedInts::Rle(r), _), _) => {
                    for run in r.runs() {
                        st.update_repeated(run.value, run.len);
                    }
                    let items = r.runs().len() as u64;
                    profile.cpu_cycles += self.db.costs.cycles_for(Kernel::CompressDecode, items)
                        + self.db.costs.cycles_for(Kernel::AggUpdate, items);
                    profile.dram_read += ByteCount::new(data.size_bytes() as u64);
                    return (st, profile);
                }
                _ => {}
            }
        }
        // Every selected row is folded: the count is the selection's. SUM
        // and AVG fold whole blocks; MIN and MAX walk row by row.
        st.count = n as u64;
        let tv = match spec.kind {
            AggKind::Min => walk(unit, UnitCol::Const(0), vcol, sel, |_, v, _| st.min = st.min.min(v)).1,
            AggKind::Max => walk(unit, UnitCol::Const(0), vcol, sel, |_, v, _| st.max = st.max.max(v)).1,
            _ => {
                let (sum, tv) = walk_sum(unit, vcol, sel);
                st.sum = sum;
                tv
            }
        };
        profile.cpu_cycles += self.db.costs.cycles_for(Kernel::CompressDecode, tv.decode_items)
            + self.db.costs.cycles_for(Kernel::AggUpdate, n as u64);
        profile.dram_read += ByteCount::new(tv.bytes(8));
        (st, profile)
    }

    /// The join stage: equi-joins the two filtered sides **on
    /// compressed segments** and returns the surviving
    /// `(left rows, right rows)`. Join keys stream out of each unit's
    /// key view (integer keys as values, string keys code-to-code
    /// through a one-off dictionary translation), the smaller side
    /// builds, probe segments are pre-pruned against the build side's
    /// key range (the join-specific zone intersection of
    /// [`haec_planner::access::join_zone_overlap`]), and the planner
    /// picks hash or sort-merge per the session goal. A main column is
    /// **never** materialized for its join keys; the bill is the encoded
    /// bytes streamed plus the hash build/probe (or sort) cycles
    /// including bucket traffic.
    fn join(&mut self, l: &JoinSide<'_>, r: &JoinSide<'_>) -> (Vec<u32>, Vec<u32>) {
        let decision = self.db.model.join_compressed(&l.cost(r), &r.cost(l), l.rows().max(r.rows()));
        // Respect the session goal when the algorithms trade time for
        // energy (same knob as scan-vs-index).
        let algo = match choose(&[decision.hash_cost, decision.merge_cost], self.db.goal()) {
            Ok(1) => JoinAlgo::SortMerge,
            _ => JoinAlgo::Hash,
        };
        let build_left = decision.build_left;
        let (b, p) = if build_left { (l, r) } else { (r, l) };

        let (bkey, pkey) = match b.t.schema().columns()[b.idx].1 {
            DataType::Int64 => (KeyCol::Int(b.idx), KeyCol::Int(p.idx)),
            DataType::Str => {
                // String keys join in the build side's key space.
                let space = StrKeySpace::of(b.t, b.idx);
                let mut lookups = 0u64;
                let bkey = KeyCol::Str(space.resolve(b.t, b.idx, &mut lookups));
                let pkey = KeyCol::Str(space.resolve(p.t, p.idx, &mut lookups));
                // The one-off translation is O(dictionary) hash lookups,
                // never O(rows) — billed as such.
                self.profile.cpu_cycles += self.db.costs.cycles_for(Kernel::HashProbe, lookups);
                self.profile.dram_read += ByteCount::new(lookups * HASH_BUCKET_BYTES);
                (bkey, pkey)
            }
            // INVARIANT: `join_key_columns` rejects a `Float64` key.
            DataType::Float64 => unreachable!("join keys validated as integer or string"),
        };

        // --- build, then probe (both streaming on unit views) ----------
        let mut bkeys = self.extract_join_keys(b, &bkey, None);
        if bkeys.is_empty() {
            return (Vec::new(), Vec::new());
        }
        let pairs = match algo {
            JoinAlgo::Hash => {
                let join = HashJoin::from_pairs(&bkeys);
                self.profile.cpu_cycles += self.db.costs.cycles_for(Kernel::HashBuild, bkeys.len() as u64);
                self.profile.dram_written += ByteCount::new(bkeys.len() as u64 * 16);
                let (prune, lookups) = probe_prune_range(&bkeys, &pkey, |k| join.matches(k).is_some());
                // The range refinement probes the hash table once per
                // distinct probe value — O(dictionary), billed as such.
                self.profile.cpu_cycles += self.db.costs.cycles_for(Kernel::HashProbe, lookups);
                self.profile.dram_read += ByteCount::new(lookups * HASH_BUCKET_BYTES);
                self.probe_hash_join(p, &pkey, prune, &join)
            }
            JoinAlgo::SortMerge => {
                let (bmin, bmax) =
                    bkeys.iter().fold((i64::MAX, i64::MIN), |(lo, hi), &(k, _)| (lo.min(k), hi.max(k)));
                let (prune, lookups) = probe_prune_range(&bkeys, &pkey, |k| k >= bmin && k <= bmax);
                // Range membership here is a comparison per distinct
                // probe value, not a hash probe.
                self.profile.cpu_cycles += self.db.costs.cycles_for(Kernel::SelectBitwise, lookups);
                let mut pkeys = self.extract_join_keys(p, &pkey, prune);
                let (b_sorted, p_sorted) = (b.sorted(), p.sorted());
                let out = sort_merge_join_pairs_presorted(&mut bkeys, &mut pkeys, b_sorted, p_sorted);
                // Sort passes are only real work for unsorted sides; a
                // declared-sort-key side streams straight into the merge
                // (the planner's `join_compressed` prices it the same
                // way).
                let n = (bkeys.len() + pkeys.len()) as u64;
                let levels_of = |rows: u64| (rows.max(2) as f64).log2().ceil() as u64;
                let sort_items = (if b_sorted { 0 } else { bkeys.len() as u64 })
                    * levels_of(bkeys.len() as u64)
                    + (if p_sorted { 0 } else { pkeys.len() as u64 }) * levels_of(pkeys.len() as u64);
                self.profile.cpu_cycles += self.db.costs.cycles_for(Kernel::SortPerLevel, sort_items);
                self.profile.dram_read += ByteCount::new(sort_items * 12 + n * 12);
                self.profile.dram_written += ByteCount::new(n * 12 + out.len() as u64 * 8);
                out
            }
        };
        pairs.into_iter().map(|(b, p)| if build_left { (b, p) } else { (p, b) }).unzip()
    }

    /// The gather stage of a join: payload columns are fetched late,
    /// only for the surviving row pairs, and assembled in projection
    /// order.
    fn gather_join(
        &mut self,
        lt: &TableSnapshot,
        rt: &TableSnapshot,
        query: &Query,
        jc: &JoinClause,
        lrows: &[u32],
        rrows: &[u32],
    ) -> DbResult<Chunk> {
        let spec = resolve_join_outputs(query, jc, lt, rt)?;
        let side_names = |left: bool| -> Vec<String> {
            spec.iter().filter(|(l, ..)| *l == left).map(|(_, _, col)| col.clone()).collect()
        };
        let mut li = self.gather_join_side(lt, &side_names(true), lrows)?.into_iter();
        let mut ri = self.gather_join_side(rt, &side_names(false), rrows)?.into_iter();
        let cols: Vec<(String, Column)> = spec
            .into_iter()
            .map(|(left, out_name, _)| {
                let (_, col) =
                    if left { li.next() } else { ri.next() }.expect("one gathered column per spec entry");
                (out_name, col)
            })
            .collect();
        Chunk::new(cols).map_err(|e| DbError::BadQuery(format!("join output: {e}")))
    }

    /// Gathers one side's payload columns for its surviving join rows —
    /// any order, duplicates allowed — by [`gather_list`], the gather
    /// behind [`TableSnapshot::gather_rows`]. Bills the work the shares
    /// report as [`GatherStats`]: per-cell cursor reads, except that a
    /// strictly ascending list (the unique-key probe side, whose pairs
    /// come back in probe-row order) streams the segments it hits
    /// densely; code-to-code string gathers either way.
    fn gather_join_side(
        &mut self,
        t: &TableSnapshot,
        names: &[String],
        rows: &[u32],
    ) -> DbResult<Vec<(String, Column)>> {
        let cells = (rows.len() * names.len()) as u64;
        self.profile.cpu_cycles += self.db.costs.cycles_for(Kernel::Materialize, cells);
        let (cols, stats) = gather_list(t, names, rows, |units, share| self.shares(t, units, share))?;
        self.bill_gather(&stats);
        Ok(cols)
    }

    /// Streams one side's surviving `(join key, global row)` pairs,
    /// unit by unit; units whose key zone misses `prune` are skipped
    /// without touching a byte.
    fn extract_join_keys(
        &mut self,
        side: &JoinSide<'_>,
        key: &KeyCol,
        prune: Option<(i64, i64)>,
    ) -> Vec<(i64, u32)> {
        let (parts, keys_profile) = self.run_units(side.t, side.sel, |unit, sel| {
            let mut kv = Vec::new();
            let mut profile = self.unit_join_keys(unit, sel, key, prune, |k, row| kv.push((k, row)));
            // The extracted pair vector is real intermediate traffic.
            profile.dram_written += ByteCount::new(kv.len() as u64 * 12);
            (kv, profile)
        });
        self.profile += keys_profile;
        parts.concat()
    }

    /// Probes `join` with one side's surviving rows — key streaming and
    /// hash probing fused per unit, so large probes parallelize over
    /// morsels. Returns `(build_row, probe_row)` pairs in probe-row
    /// order, billing bucket headers per probe, row-id list entries per
    /// hit, and the output pairs vector.
    fn probe_hash_join(
        &mut self,
        side: &JoinSide<'_>,
        key: &KeyCol,
        prune: Option<(i64, i64)>,
        join: &HashJoin,
    ) -> Vec<(u32, u32)> {
        let (parts, probe_profile) = self.run_units(side.t, side.sel, |unit, sel| {
            // Keys stream straight into the probe — no intermediate
            // (key, row) vector is ever materialized (or billed).
            let mut pairs = Vec::new();
            let mut probed = 0u64;
            let mut profile = self.unit_join_keys(unit, sel, key, prune, |k, row| {
                probed += 1;
                if let Some(ms) = join.matches(k) {
                    pairs.extend(ms.iter().map(|&b| (b, row)));
                }
            });
            profile.cpu_cycles += self.db.costs.cycles_for(Kernel::HashProbe, probed);
            profile.dram_read += ByteCount::new(probed * HASH_BUCKET_BYTES + pairs.len() as u64 * 4);
            profile.dram_written += ByteCount::new(pairs.len() as u64 * 8);
            (pairs, profile)
        });
        self.profile += probe_profile;
        parts.concat()
    }

    /// Streams one unit's `(join key, global row)` pairs into `sink`
    /// after the zone check against `prune`. String values the key
    /// space never interned (`NO_KEY`) are dropped here. Returns the
    /// work billed — the sink's own storage (if any) is the caller's to
    /// bill.
    fn unit_join_keys(
        &self,
        unit: &Unit<'_>,
        sel: &Selection<'_>,
        key: &KeyCol,
        prune: Option<(i64, i64)>,
        mut sink: impl FnMut(i64, u32),
    ) -> ResourceProfile {
        let kcol = key.unit_col(unit);
        // Join-specific zone pruning: the unit's key zone against the
        // build side's range (same intersection test the planner
        // estimates with), where both are in one domain — integer
        // values anywhere, global codes for string keys. An unknown zone
        // means scan.
        let same_domain = matches!(key, KeyCol::Int(_)) || unit.store.code_space() == CodeSpace::Global;
        let zone = unit.col(key.col()).and_then(SegColumn::zone);
        let zone = zone.filter(|_| same_domain && matches!(kcol, UnitCol::Enc(..)));
        if let (Some((lo, hi)), Some((zlo, zhi))) = (prune, zone) {
            if !(ZoneMapMeta { rows: 0, min: zlo, max: zhi, sorted: false }.overlaps(lo, hi)) {
                return ResourceProfile::default(); // pruned: no data touched
            }
        }
        // `NO_KEY` is a *string-key* sentinel; integer keys pass through
        // untouched — `i64::MIN` is a perfectly good join key there.
        let drop_sentinels = matches!(key, KeyCol::Str(_));
        let (tk, _) = walk(unit, kcol, UnitCol::Const(0), sel, |k, _, row| {
            if !(drop_sentinels && k == NO_KEY) {
                sink(k, row);
            }
        });
        // Join keys bill a per-hit read as an 8-byte cell, codes
        // included.
        ResourceProfile {
            cpu_cycles: self.db.costs.cycles_for(Kernel::CompressDecode, tk.decode_items),
            dram_read: ByteCount::new(tk.bytes(8)),
            ..ResourceProfile::default()
        }
    }

    /// Runs `eval` over the execution units of `t` with a surviving row
    /// ([`live`]), handing each unit its own [`Selection`], and returns
    /// the units' results in unit order with their summed bills. Only
    /// those units reach [`Exec::dispatch`], so a stage whose survivors
    /// lie in one unit runs it inline. Every stage but the gather goes
    /// through here, and the gather hands the same dispatch the same
    /// units — one share per unit holding a row — so stages can never
    /// disagree on unit granularity or on when to pool.
    fn run_units<R: Send>(
        &self,
        t: &TableSnapshot,
        sels: &[Selection<'_>],
        eval: impl Fn(&Unit<'_>, &Selection<'_>) -> (R, ResourceProfile) + Sync,
    ) -> (Vec<R>, ResourceProfile) {
        let units = live(sels);
        let parts = self.dispatch(t, &units, |i| eval(&Unit::of(t, units[i]), &sels[units[i]]));
        let mut out = Vec::with_capacity(parts.len());
        let mut profile = ResourceProfile::default();
        for (r, p) in parts {
            out.push(r);
            profile += p;
        }
        (out, profile)
    }

    /// The one dispatch: runs `eval(i)` for each unit `units[i]` of `t`
    /// — the stage's units with work, ascending — and returns the results
    /// in that order: over the shared worker pool, one unit per morsel,
    /// where [`Exec::pooled`] says so; else inline, in order, on the
    /// calling thread. Either way each unit holds one gate permit while it
    /// runs, so the fleet-wide in-flight accounting a server's energy cap
    /// relies on stays exact for *every* unit a query reads, and the
    /// cancel token is polled before each unit: a cancelled dispatch
    /// returns the results of the units that ran. Units a stage settled
    /// without work are never handed here: they take no permit and no
    /// poll.
    fn dispatch<R: Send>(
        &self,
        t: &TableSnapshot,
        units: &[usize],
        eval: impl Fn(usize) -> R + Sync,
    ) -> Vec<R> {
        if !self.pooled(t, units) {
            let mut parts = Vec::with_capacity(units.len());
            for i in 0..units.len() {
                if self.opts.is_cancelled() {
                    break;
                }
                let _permit = self.opts.gate.as_deref().map(MorselGate::acquire);
                parts.push(eval(i));
            }
            return parts;
        }
        let spec = RunSpec {
            dop: self.dop().min(units.len()),
            morsel_rows: 1,
            gate: self.opts.gate.as_deref(),
            cancel: self.opts.cancel.as_ref(),
        };
        let mut parts = self.db.pool().run(
            units.len(),
            spec,
            |m| vec![(m.start, eval(m.start))],
            |mut a: Vec<(usize, R)>, b| {
                a.extend(b);
                a
            },
            Vec::new(),
        );
        parts.sort_unstable_by_key(|&(u, _)| u);
        parts.into_iter().map(|(_, r)| r).collect()
    }

    /// The rule [`Exec::dispatch`] branches on: units `units` of `t` — a
    /// stage's units with work — share the pool when there are two or
    /// more and the query carries a parallelism grant (`opts.dop > 0`)
    /// or, on the default path, their stores hold [`PARALLEL_SCAN_ROWS`]
    /// rows between them. Store rows, not survivors: a sparse selection
    /// spread over many large stores still pools.
    fn pooled(&self, t: &TableSnapshot, units: &[usize]) -> bool {
        let rows = || units.iter().map(|&u| t.store(u).0.rows()).sum::<usize>();
        units.len() > 1 && self.dop() > 1 && (self.opts.dop > 0 || rows() >= PARALLEL_SCAN_ROWS)
    }

    /// The grant, or the cached default — never a per-query OS call.
    fn dop(&self) -> usize {
        if self.opts.dop > 0 {
            self.opts.dop
        } else {
            self.db.default_dop
        }
    }

    /// The predicate kernel: one unit's predicates, on its compressed
    /// columns — a segment's, or a delta chunk's views.
    fn eval(&self, unit: &Unit<'_>, preds: &[Pred]) -> (Selection<'static>, ResourceProfile) {
        let rows = unit.rows;
        let mut profile = ResourceProfile::default();
        let mut bm: Option<Bitmap> = None;
        // Run-aware fast path: predicates on the store's sort key resolve
        // to a contiguous row sub-range by binary search over the
        // encoding's run boundaries — O(log) probe bytes instead of a
        // full-column scan, and the survivors come out as a range, not a
        // per-row hit vector. Every other predicate intersects with this
        // range when the selection is assembled.
        let mut range = 0..rows;
        for p in preds {
            let (data, op, lit) = match p.on(unit) {
                // A tautology on this unit: no scan needed.
                UnitPred::Const(true) => continue,
                // Pruned: no data touched.
                UnitPred::Const(false) => return (Selection::none(), profile),
                UnitPred::Col(data, op, lit) => (data, op, lit),
            };
            if unit.store.sorted_by() == Some(p.col) {
                let mut probes = 0u64;
                if let Some((s, e)) = data.sorted_range(op, lit, &mut probes) {
                    range = range.start.max(s)..range.end.min(e);
                    // Each probe touches ~one cache line of the encoded
                    // column.
                    profile.cpu_cycles += self.db.costs.cycles_for(Kernel::IndexLookup, probes);
                    profile.dram_read += ByteCount::new(probes * 64);
                    if range.is_empty() {
                        return (Selection::none(), profile);
                    }
                    continue;
                } // Ne: not contiguous, scan instead
            }
            let mut m = Bitmap::zeros(rows);
            data.scan(op, lit, &mut m);
            profile.cpu_cycles += self.db.costs.cycles_for(Kernel::SelectBitwise, rows as u64);
            profile.dram_read += ByteCount::new(data.size_bytes() as u64);
            and_into(&mut bm, m);
        }
        (Selection::of(bm, range, rows), profile)
    }

    /// The index path's leftover predicates on one unit's looked-up
    /// rows, returning the unit-local rows that pass. Each predicate is
    /// resolved as the scan resolves it — a unit its schema, dictionary
    /// or zone decides costs nothing — else [`walk`]'s readers keep the
    /// ids whose cell matches, billed per id checked.
    fn eval_ids(&self, unit: &Unit<'_>, sel: &Selection<'_>, preds: &[Pred]) -> (Vec<u32>, ResourceProfile) {
        let mut profile = ResourceProfile::default();
        let mut kept = Vec::with_capacity(sel.n);
        sel.for_each(|row| kept.push(row as u32));
        for p in preds {
            let (data, op, lit) = match p.on(unit) {
                UnitPred::Const(true) => continue,
                UnitPred::Const(false) => return (Vec::new(), profile),
                UnitPred::Col(data, op, lit) => (data, op, lit),
            };
            let checked = Selection::ids(std::mem::take(&mut kept).into(), 0, false);
            walk(unit, UnitCol::Enc(data, None), UnitCol::Const(0), &checked, |cell, _, row| {
                if op.eval(cell, lit) {
                    kept.push(row - unit.base as u32);
                }
            });
            let n = checked.n as u64;
            profile.cpu_cycles += self.db.costs.cycles_for(Kernel::SelectPredicated, n);
            profile.dram_read += ByteCount::new(n * p.cell_bytes);
        }
        (kept, profile)
    }
}

/// Validates a join's key columns — both integer, or both string — and
/// returns their `(left, right)` indices.
fn join_key_columns(
    lt: &TableSnapshot,
    rt: &TableSnapshot,
    query: &Query,
    jc: &JoinClause,
) -> DbResult<(usize, usize)> {
    let lidx = column_position(lt, &query.table, &jc.left_col)?;
    let ridx = column_position(rt, &jc.table, &jc.right_col)?;
    let ltype = lt.schema().columns()[lidx].1;
    if ltype == DataType::Float64 {
        return Err(DbError::TypeMismatch { column: jc.left_col.clone(), expected: DataType::Int64 });
    }
    if rt.schema().columns()[ridx].1 != ltype {
        return Err(DbError::TypeMismatch { column: jc.right_col.clone(), expected: ltype });
    }
    Ok((lidx, ridx))
}

/// Resolves a join's output columns as `(is_left, output name, source
/// column)` triples: with no projection, every left column under its
/// own name then every right column as `"table.column"`; with a
/// projection, each name resolves qualified-first on either side, then
/// bare against the left schema, then the right.
fn resolve_join_outputs(
    query: &Query,
    jc: &JoinClause,
    lt: &TableSnapshot,
    rt: &TableSnapshot,
) -> DbResult<Vec<(bool, String, String)>> {
    match &query.select {
        None => {
            let mut out: Vec<(bool, String, String)> =
                lt.schema().columns().iter().map(|(n, _)| (true, n.clone(), n.clone())).collect();
            out.extend(
                rt.schema().columns().iter().map(|(n, _)| (false, format!("{}.{}", jc.table, n), n.clone())),
            );
            Ok(out)
        }
        Some(sel) => sel
            .iter()
            .map(|name| {
                // In a self-join the default projection labels the RIGHT
                // side `"table.column"`, so a qualified name must keep
                // meaning the right side there; bare names stay left.
                if query.table != jc.table {
                    if let Some(rest) = name.strip_prefix(&format!("{}.", query.table)) {
                        if lt.schema().position(rest).is_some() {
                            return Ok((true, name.clone(), rest.to_string()));
                        }
                    }
                }
                if let Some(rest) = name.strip_prefix(&format!("{}.", jc.table)) {
                    if rt.schema().position(rest).is_some() {
                        return Ok((false, name.clone(), rest.to_string()));
                    }
                }
                if lt.schema().position(name).is_some() {
                    return Ok((true, name.clone(), name.clone()));
                }
                if rt.schema().position(name).is_some() {
                    return Ok((false, name.clone(), name.clone()));
                }
                Err(DbError::NoSuchColumn {
                    table: format!("{} join {}", query.table, jc.table),
                    column: name.clone(),
                })
            })
            .collect(),
    }
}

/// Planner-side cost of delivering the `projected` string columns
/// ([`projected_str_columns`]) to the client as codes + one shared output
/// dictionary ([`CostModel::project_codes`]): the estimated surviving
/// rows each move a code, and each distinct value (catalog NDV, capped by
/// the row count) pays one dictionary-entry decode of the column's mean
/// entry length.
pub(crate) fn str_projection_cost(
    model: &CostModel,
    t: &TableSnapshot,
    meta: &haec_planner::catalog::TableMeta,
    projected: &[&str],
    sel: f64,
) -> PlanCost {
    let rows = (sel * t.rows() as f64).ceil() as u64;
    let mut cost = PlanCost::ZERO;
    for &name in projected {
        let idx = t.schema().position(name).expect("projected columns exist");
        let ndv = meta.column(name).map_or(rows, |c| c.ndv);
        let avg = t.global_dict(idx).filter(|d| d.dict_size() > 0).map_or(8, |d| d.avg_entry_bytes() as u64);
        cost = cost + model.project_codes(rows, ndv, avg);
    }
    cost
}

/// The string columns `query` ships to the client: none for an
/// aggregate, else the string columns of its projection (every column
/// without one; unknown names are the gather stage's error to raise).
pub(crate) fn projected_str_columns<'a>(t: &'a TableSnapshot, query: &'a Query) -> Vec<&'a str> {
    if query.agg.is_some() {
        return Vec::new();
    }
    let is_str = |name: &str| {
        t.schema().position(name).is_some_and(|idx| t.schema().columns()[idx].1 == DataType::Str)
    };
    match &query.select {
        Some(cols) => cols.iter().map(String::as_str).filter(|name| is_str(name)).collect(),
        None => t.schema().columns().iter().map(|(n, _)| n.as_str()).filter(|name| is_str(name)).collect(),
    }
}

/// ANDs `m` into the accumulator (first predicate just installs it).
fn and_into(acc: &mut Option<Bitmap>, m: Bitmap) {
    match acc {
        None => *acc = Some(m),
        Some(b) => b.and_with(&m),
    }
}

/// The aggregate output column for `(key, state)` pairs.
fn agg_value_column<K>(grouped: &[(K, AggState)], kind: AggKind) -> Column {
    grouped.iter().map(|(_, s)| s.value(kind).unwrap_or(f64::NAN)).collect::<Vec<f64>>().into_iter().collect()
}

fn column_position(t: &TableSnapshot, table: &str, name: &str) -> DbResult<usize> {
    t.schema()
        .position(name)
        .ok_or_else(|| DbError::NoSuchColumn { table: table.to_string(), column: name.to_string() })
}

/// Position of integer column `name` of `t`.
///
/// # Errors
///
/// [`DbError::NoSuchColumn`] for an unknown name and
/// [`DbError::TypeMismatch`] for a column that is not `Int64`.
pub(crate) fn check_int_column(t: &TableSnapshot, table: &str, name: &str) -> DbResult<usize> {
    let idx = column_position(t, table, name)?;
    if t.schema().columns()[idx].1 != DataType::Int64 {
        return Err(DbError::TypeMismatch { column: name.to_string(), expected: DataType::Int64 });
    }
    Ok(idx)
}

/// Resolves one side's filters to [`Pred`]s, integer filters first,
/// validating each column's type.
fn resolve_preds(
    t: &TableSnapshot,
    table: &str,
    filters: &[Filter],
    str_filters: &[StrFilter],
) -> DbResult<Vec<Pred>> {
    let ints = filters.iter().map(|f| {
        let col = check_int_column(t, table, &f.column)?;
        let on_null = f.op.eval(0, f.literal);
        Ok(Pred { col, op: f.op, lits: [Some(f.literal); 2], on_null, cell_bytes: 8 })
    });
    let strs = str_filters.iter().map(|f| {
        let col = column_position(t, table, &f.column)?;
        if t.schema().columns()[col].1 != DataType::Str {
            return Err(DbError::TypeMismatch { column: f.column.clone(), expected: DataType::Str });
        }
        let code = |d: Option<&DictColumn>| d.and_then(|d| d.code_of(&f.value)).map(i64::from);
        let op = if f.negated { CmpOp::Ne } else { CmpOp::Eq };
        let lits = [code(t.global_dict(col)), code(t.delta_dict(col))];
        Ok(Pred { col, op, lits, on_null: f.value.is_empty() != f.negated, cell_bytes: 4 })
    });
    ints.chain(strs).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Record;
    use crate::table::DELTA_CHUNK_ROWS;
    use haec_columnar::value::CmpOp;
    use haec_exec::cancel::CancelToken;

    const SEG_ROWS: i64 = 1500;

    /// A flexible table whose rows lie in every kind of store: two
    /// segments — the first predating `extra` (int) and `tag` (string) —
    /// two sealed delta chunks and the open chunk, whose tail carries a
    /// string no merged dictionary holds.
    fn spread_db() -> Database {
        let db = Database::new();
        db.create_flexible_table("t").unwrap();
        db.set_merge_threshold("t", usize::MAX).unwrap();
        let row = |i: i64| {
            let r = Record::new()
                .with("id", 10_000 + i * 3)
                .with("amt", (i * 37) % 101)
                .with("f", i as f64 / 4.0);
            if i < SEG_ROWS {
                return r;
            }
            let tag = if i % 11 == 0 { "violet" } else { ["red", "", "blue"][(i % 3) as usize] };
            r.with("extra", i % 13 - 6).with("tag", tag)
        };
        let delta = 2 * DELTA_CHUNK_ROWS as i64 + 100;
        for i in 0..2 * SEG_ROWS + delta {
            db.insert("t", &row(i)).unwrap();
            if i == SEG_ROWS - 1 || i == 2 * SEG_ROWS - 1 {
                db.merge("t").unwrap();
            }
        }
        let t = db.table("t").unwrap();
        assert_eq!((t.segments().len(), t.store_count()), (2, 5));
        db
    }

    #[test]
    fn pooled_gathers_equal_the_serial_reference_across_stores() {
        let db = spread_db();
        let t = db.table("t").unwrap();
        let names: Vec<String> = ["tag", "id", "extra", "f"].iter().map(ToString::to_string).collect();
        let n = t.rows() as u32;
        let mut x = 99u64;
        let positional: Vec<u32> = (0..3 * n / 4)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((x >> 33) % u64::from(n)) as u32
            })
            .collect();
        assert!(positional.windows(2).any(|w| w[0] > w[1]) && positional.iter().any(|&r| r == positional[0]));
        let dense: Vec<u32> = (0..n).step_by(3).collect(); // streams every segment
        let sparse: Vec<u32> = (0..n).step_by(37).collect(); // reads per cell
        for rows in [&dense, &sparse, &positional] {
            let (want, stats) = t.gather_rows(&names, rows).unwrap();
            let opts = ExecOpts::with_dop(1);
            let mut reference = Exec { db: &db, opts: &opts, profile: ResourceProfile::default() };
            reference.profile.cpu_cycles +=
                db.costs.cycles_for(Kernel::Materialize, (rows.len() * names.len()) as u64);
            reference.bill_gather(&stats);
            for dop in [1, 2, 4] {
                let opts = ExecOpts::with_dop(dop);
                let mut ex = Exec { db: &db, opts: &opts, profile: ResourceProfile::default() };
                assert_eq!(ex.pooled(&t, &live(&every_row(&t))), dop > 1);
                let got = ex.gather_join_side(&t, &names, rows).unwrap();
                assert_eq!(got, want, "dop {dop}, {} rows", rows.len());
                assert_eq!(ex.profile, reference.profile, "dop {dop}: one bill");
            }
        }
        // Single-table gathers read each unit's selection as the filter
        // left it: every row (ranges), a segment bitmap beside delta ids.
        for q in
            [Query::scan("t"), Query::scan("t").filter("amt", CmpOp::Lt, 40).select(["f", "tag", "extra"])]
        {
            let serial = db.execute_opts(&q, &ExecOpts::with_dop(1)).unwrap();
            // Row `r` holds `amt = r * 37 % 101`.
            let ids: Vec<u32> =
                (0..n).filter(|&r| q.filters.is_empty() || (i64::from(r) * 37) % 101 < 40).collect();
            let names = q
                .select
                .clone()
                .unwrap_or_else(|| t.schema().columns().iter().map(|(c, _)| c.clone()).collect());
            let (want, _) = t.materialize_columns(&names, Some(&ids)).unwrap();
            assert_eq!(serial.rows, Chunk::new(want).unwrap());
            for dop in [2, 4] {
                let pooled = db.execute_opts(&q, &ExecOpts::with_dop(dop)).unwrap();
                assert_eq!((&pooled.rows, pooled.profile), (&serial.rows, serial.profile), "dop {dop}");
            }
        }
    }

    #[test]
    fn only_units_with_work_reach_the_dispatch() {
        // Four merged segments of `PARALLEL_SCAN_ROWS` rows between them,
        // `id` ascending (disjoint zones), `v` spanning the same range in
        // every segment; a two-worker pool, so the default path pools
        // whatever the host.
        let pool = std::sync::Arc::new(haec_exec::pool::WorkerPool::new(2));
        let db = Database::with_machine_and_pool(haec_energy::machine::MachineSpec::default(), pool);
        db.create_table_sorted("big", &[("id", DataType::Int64), ("v", DataType::Int64)], "id").unwrap();
        for i in 0..PARALLEL_SCAN_ROWS as i64 {
            db.insert("big", &Record::new().with("id", 2 * i).with("v", i % 1000)).unwrap();
        }
        let t = db.table("big").unwrap();
        assert_eq!((t.store_count(), t.rows()), (4, PARALLEL_SCAN_ROWS));
        let opts = ExecOpts::default();
        let ex = Exec { db: &db, opts: &opts, profile: ResourceProfile::default() };
        let seg = crate::segment::SEGMENT_ROWS as i64;
        // What the filter stage hands the dispatch for each filter.
        let scanned = |f: Vec<Filter>| {
            let preds = resolve_preds(&t, "big", &f, &[]).unwrap();
            live(&settle(&t, &preds).1)
        };
        let point = vec![Filter { column: "id".into(), op: CmpOp::Eq, literal: 2 * (seg + 7) }];
        assert_eq!(scanned(point), vec![1], "a sort-key point filter reads the one unit its zone keeps");
        assert!(!ex.pooled(&t, &[1]), "one unit runs inline");
        let outside = vec![Filter { column: "id".into(), op: CmpOp::Lt, literal: -1 }];
        assert_eq!(scanned(outside), Vec::<usize>::new(), "a literal outside every zone dispatches none");
        let scan = vec![Filter { column: "v".into(), op: CmpOp::Lt, literal: 100 }];
        assert_eq!(scanned(scan), vec![0, 1, 2, 3], "a full scan reads every unit");
        let every = live(&every_row(&t));
        assert_eq!(every, vec![0, 1, 2, 3], "an unfiltered fold reads every unit");
        assert!(ex.pooled(&t, &every), "and pools");
        // A range whose zones leave two units of half the threshold
        // between them runs inline too: store rows, not table rows.
        assert!(!ex.pooled(&t, &[1, 2]));
        // Settled or not, every answer and bill equals the serial one.
        for q in [
            Query::scan("big").filter("id", CmpOp::Eq, 2 * (seg + 7)).select(["id", "v"]),
            Query::scan("big").filter("id", CmpOp::Lt, -1).select(["v"]),
            Query::scan("big").filter("id", CmpOp::Ge, 2 * seg - 2).filter("id", CmpOp::Lt, 2 * seg + 6),
            Query::scan("big").filter("v", CmpOp::Lt, 100).aggregate(AggKind::Count, "v"),
            Query::scan("big").aggregate(AggKind::Sum, "v"),
        ] {
            let serial = db.execute_opts(&q, &ExecOpts::with_dop(1)).unwrap();
            let default = db.execute(&q).unwrap();
            assert_eq!((&default.rows, default.profile), (&serial.rows, serial.profile), "{q:?}");
        }
        let point = db.execute(&Query::scan("big").filter("id", CmpOp::Eq, 2 * (seg + 7))).unwrap();
        assert_eq!(point.rows.column("v").unwrap().as_int64().unwrap(), &[(seg + 7) % 1000]);
    }

    #[test]
    fn index_and_join_lists_on_every_store_edge_equal_the_serial_reference() {
        // Two segments, two sealed chunks and the open chunk; `edge` is 0
        // on the first and last row of each and unique elsewhere, so an
        // indexed `edge = 0` hands every unit its two edge rows.
        let db = Database::new();
        let cols = [
            ("id", DataType::Int64),
            ("edge", DataType::Int64),
            ("tag", DataType::Str),
            ("f", DataType::Float64),
        ];
        db.create_table("e", &cols).unwrap();
        db.set_merge_threshold("e", usize::MAX).unwrap();
        let (seg, chunk) = (SEG_ROWS as usize, DELTA_CHUNK_ROWS);
        let bounds = [0, seg, 2 * seg, 2 * seg + chunk, 2 * seg + 2 * chunk, 2 * seg + 2 * chunk + 100];
        let edges: Vec<u32> = bounds.windows(2).flat_map(|w| [w[0] as u32, w[1] as u32 - 1]).collect();
        for i in 0..bounds[5] {
            let edge = if edges.contains(&(i as u32)) { 0 } else { i as i64 + 1 };
            let tag = ["red", "", "blue"][i % 3];
            let row = Record::new()
                .with("id", 7 * i as i64)
                .with("edge", edge)
                .with("tag", tag)
                .with("f", i as f64);
            db.insert("e", &row).unwrap();
            if i + 1 == seg || i + 1 == 2 * seg {
                db.merge("e").unwrap();
            }
        }
        db.create_index("e", "edge", crate::IndexMaintenance::Eager).unwrap();
        let t = db.table("e").unwrap();
        assert_eq!(t.store_count(), 5);
        let names: Vec<String> = ["tag", "id", "f"].iter().map(ToString::to_string).collect();
        let (want, _) = t.materialize_columns(&names, Some(&edges)).unwrap();
        let q = Query::scan("e").filter("edge", CmpOp::Eq, 0).select(["tag", "id", "f"]);
        let serial = db.execute_opts(&q, &ExecOpts::with_dop(1)).unwrap();
        assert_eq!(serial.access_path, Some(AccessPath::IndexLookup));
        assert_eq!(serial.rows, Chunk::new(want).unwrap());
        let pooled = db.execute_opts(&q, &ExecOpts::with_dop(2)).unwrap();
        assert_eq!((&pooled.rows, pooled.profile), (&serial.rows, serial.profile), "index path, dop 2");
        // Join sides: the probe side's strictly ascending rows, and a
        // build side's scrambled ones with repeats.
        let mut scrambled: Vec<u32> = edges.iter().rev().copied().collect();
        scrambled.extend(edges.iter().step_by(3));
        for rows in [&edges, &scrambled] {
            let (want, stats) = t.gather_rows(&names, rows).unwrap();
            let opts = ExecOpts::with_dop(1);
            let mut reference = Exec { db: &db, opts: &opts, profile: ResourceProfile::default() };
            reference.profile.cpu_cycles +=
                db.costs.cycles_for(Kernel::Materialize, (rows.len() * names.len()) as u64);
            reference.bill_gather(&stats);
            for dop in [1, 2] {
                let opts = ExecOpts::with_dop(dop);
                let mut ex = Exec { db: &db, opts: &opts, profile: ResourceProfile::default() };
                let got = ex.gather_join_side(&t, &names, rows).unwrap();
                assert_eq!(got, want, "dop {dop}, {} rows", rows.len());
                assert_eq!(ex.profile, reference.profile, "dop {dop}: one bill");
            }
        }
    }

    #[test]
    fn a_cancel_the_gather_sees_stops_it_and_the_next_query_answers() {
        // The token fires after the filter stage and before the gather:
        // the gather's own poll before each share must catch it, pooled or
        // inline, over ranges and over a positional list.
        let db = spread_db();
        let t = db.table("t").unwrap();
        let names: Vec<String> = ["id", "tag"].iter().map(ToString::to_string).collect();
        let rows: Vec<u32> = (0..t.rows() as u32).rev().step_by(5).collect();
        let fired = CancelToken::new();
        fired.cancel();
        let meter = || db.meter().grand_total().joules();
        for dop in [1, 2] {
            let opts = ExecOpts { dop, cancel: Some(fired.clone()), ..ExecOpts::default() };
            let mut ex = Exec { db: &db, opts: &opts, profile: ResourceProfile::default() };
            let before = meter();
            let out = ex.gather(&t, &Query::scan("t"), &every_row(&t));
            assert!(matches!(out, Err(DbError::Cancelled { .. })), "dop {dop}: {out:?}");
            assert_eq!(ex.profile, ResourceProfile::default(), "dop {dop}: no share ran");
            let out = ex.gather_join_side(&t, &names, &rows);
            assert!(matches!(out, Err(DbError::Cancelled { .. })), "dop {dop}: {out:?}");
            assert_eq!(ex.profile.dram_read.bytes(), 0, "dop {dop}: no share ran");
            assert!(meter() >= before, "dop {dop}: meter went backwards");
        }
        let out = db.execute_opts(&Query::scan("t"), &ExecOpts::with_dop(2)).unwrap();
        assert_eq!(out.rows, t.to_chunk());
    }
}
