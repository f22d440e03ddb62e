//! Immutable, compressed main-store segments, and [`SegColumn`]: the
//! column shape every store shows its readers.
//!
//! The paper's storage architecture (and SAP HANA's, which it draws on)
//! splits every table into a read-optimized **main** and a
//! write-optimized **delta**: inserts land in flat delta chunks
//! (`crate::delta`), and a periodic merge re-encodes the delta into
//! immutable main segments of at most [`SEGMENT_ROWS`] rows. Each segment stores integer columns as
//! [`EncodedInts`] (the smallest of plain/RLE/FOR/delta), string columns
//! as compressed dictionary codes into the table-global dictionary, and a
//! per-column min/max **zone map** so whole segments can be skipped
//! without touching their data. Queries scan segments *compressed* — the
//! executor runs [`EncodedInts::scan`] on each column in place — which is
//! where the energy win of "data reduction" becomes real: fewer DRAM
//! bytes per answered query. One per-column builder (`SegColumn::build`)
//! encodes and measures a merge batch's slice and a sealed delta chunk's
//! cells alike.

use haec_columnar::dict::DictColumn;
use haec_columnar::encoding::EncodedInts;
use haec_columnar::value::CmpOp;
use haec_exec::join::HashJoin;
use haec_planner::access::ZoneMapMeta;
use std::borrow::Cow;
use std::sync::OnceLock;

/// Target (and maximum) number of rows per main segment.
pub const SEGMENT_ROWS: usize = 64 * 1024;

/// One column of a segment, in its compressed physical form — or a
/// delta chunk's view of one of its columns, in the same shape.
#[derive(Clone, Debug)]
pub enum SegColumn {
    /// An integer column, lightweight-compressed with a min/max zone map
    /// (`None` only for zero-row stores, which never exist in
    /// practice).
    Int {
        /// The compressed values.
        data: EncodedInts,
        /// `(min, max)` over all rows.
        zone: Option<(i64, i64)>,
        /// Exact distinct-value count, measured when the column was built
        /// (while the data was still flat) so planner statistics never
        /// require a decode — except on a snapshot-private delta chunk's
        /// view, built unmeasured, which counts it when first asked.
        ndv: OnceLock<u64>,
        /// The column's index once one is declared and built: a join
        /// table of its values to the store's own rows, ascending per
        /// value — never stale, the store being immutable
        /// ([`crate::index`]).
        index: OnceLock<HashJoin>,
    },
    /// A float column (stored plain; no lightweight codec applies).
    Float(Vec<f64>),
    /// A string column as compressed codes into the **table-global**
    /// dictionary, with a zone map over the codes (prunes equality
    /// probes).
    Str {
        /// The compressed dictionary codes.
        codes: EncodedInts,
        /// `(min, max)` over the codes.
        zone: Option<(i64, i64)>,
    },
}

impl SegColumn {
    /// Encoded payload bytes of this column.
    pub fn encoded_bytes(&self) -> usize {
        match self {
            SegColumn::Int { data, .. } => data.size_bytes(),
            SegColumn::Float(v) => v.len() * 8,
            SegColumn::Str { codes, .. } => codes.size_bytes(),
        }
    }

    /// Uncompressed (plain) bytes of this column: 8 per row, whatever
    /// its type.
    pub fn raw_bytes(&self, rows: usize) -> usize {
        rows * 8
    }

    /// Builds one column from its flat cells. `encoded` (segments, sealed
    /// chunks): [`EncodedInts::auto`], the zone and an integer column's
    /// exact distinct count; otherwise (a snapshot's private chunk,
    /// rebuilt by every pin) the cells as they are, Plain, and the zone.
    pub(crate) fn build(cells: FlatColumn<'_>, encoded: bool) -> SegColumn {
        let encode = |v: Cow<'_, [i64]>| {
            if encoded {
                EncodedInts::auto(&v)
            } else {
                EncodedInts::Plain(v.into_owned())
            }
        };
        match cells {
            FlatColumn::Int(v) => {
                let zone = min_max(&v);
                let ndv = if encoded { OnceLock::from(distinct_count(&v, zone)) } else { OnceLock::new() };
                SegColumn::Int { data: encode(v), zone, ndv, index: OnceLock::new() }
            }
            FlatColumn::Float(v) => SegColumn::Float(v.into_owned()),
            FlatColumn::Codes(v) => {
                let zone = min_max(&v);
                SegColumn::Str { codes: encode(v), zone }
            }
        }
    }

    /// The zone map: `(min, max)` of an integer column's values or of a
    /// string column's codes (`None` for floats).
    pub(crate) fn zone(&self) -> Option<(i64, i64)> {
        match self {
            SegColumn::Int { zone, .. } | SegColumn::Str { zone, .. } => *zone,
            SegColumn::Float(_) => None,
        }
    }

    /// An integer column's distinct count, if measured or counted yet.
    pub(crate) fn ndv(&self) -> Option<u64> {
        match self {
            SegColumn::Int { ndv, .. } => ndv.get().copied(),
            _ => None,
        }
    }

    /// The exact distinct count of an integer column: as measured, or —
    /// on a view built unmeasured — counted on first ask and kept.
    pub(crate) fn count_distinct(&self) -> Option<u64> {
        match self {
            SegColumn::Int { data, zone, ndv, .. } => {
                Some(*ndv.get_or_init(|| distinct_count(&data.decode(), *zone)))
            }
            _ => None,
        }
    }
}

/// Returns `true` if a segment whose column spans `[lo, hi]` may contain
/// a row matching `value op literal`.
///
/// Delegates to [`ZoneMapMeta::may_match`] so the executor's pruning and
/// the planner's zone-survival estimate
/// ([`haec_planner::access::choose_access_segmented`]) can never
/// disagree.
pub fn zone_may_match(op: CmpOp, literal: i64, lo: i64, hi: i64) -> bool {
    ZoneMapMeta { rows: 0, min: lo, max: hi, sorted: false }.may_match(op, literal)
}

/// Returns `true` if **every** row of a segment whose column spans
/// `[lo, hi]` matches `value op literal` — the dual shortcut to pruning:
/// the predicate is a tautology on this segment and needs no scan at all.
pub fn zone_all_match(op: CmpOp, literal: i64, lo: i64, hi: i64) -> bool {
    match op {
        CmpOp::Eq => lo == hi && lo == literal,
        CmpOp::Ne => literal < lo || literal > hi,
        CmpOp::Lt => hi < literal,
        CmpOp::Le => hi <= literal,
        CmpOp::Gt => lo > literal,
        CmpOp::Ge => lo >= literal,
    }
}

/// An immutable run of up to [`SEGMENT_ROWS`] rows in compressed,
/// read-optimized form. Created only by the delta→main merge
/// ([`crate::table::Table::merge`]); never mutated afterwards.
#[derive(Clone, Debug)]
pub struct Segment {
    rows: usize,
    columns: Vec<SegColumn>,
    /// Per-column validity; `None` = every row valid (the common case).
    validity: Vec<Option<Vec<bool>>>,
    /// Column index this segment's rows are sorted ascending by
    /// (dictionary-code order for string columns). Set only by the
    /// sorting merge — see [`crate::table::Table::merge`] — and it is
    /// the source of truth behind every `ZoneMapMeta::sorted` flag.
    sorted_by: Option<usize>,
}

/// One column's flat cells in row order, borrowed or owned: a merge
/// batch's column (strings as **table-global** codes) or a slice of
/// one, or a delta chunk's cells (strings as delta-wide codes).
#[derive(Debug)]
pub(crate) enum FlatColumn<'a> {
    Int(Cow<'a, [i64]>),
    Float(Cow<'a, [f64]>),
    Codes(Cow<'a, [i64]>),
}

impl FlatColumn<'_> {
    /// Rows `[start, end)`, borrowed.
    fn slice(&self, start: usize, end: usize) -> FlatColumn<'_> {
        match self {
            FlatColumn::Int(v) => FlatColumn::Int(Cow::Borrowed(&v[start..end])),
            FlatColumn::Float(v) => FlatColumn::Float(Cow::Borrowed(&v[start..end])),
            FlatColumn::Codes(v) => FlatColumn::Codes(Cow::Borrowed(&v[start..end])),
        }
    }
}

/// Builds the local→global code translation table for one string column:
/// every distinct delta string is interned into the global dictionary
/// exactly once, no matter how many rows or segments the merge spans.
pub(crate) fn build_remap(local: &DictColumn, global: &mut DictColumn) -> Vec<i64> {
    (0..local.dict_size())
        .map(|c| {
            let s = local.decode(c as u32).expect("local code in range");
            global.intern(s) as i64
        })
        .collect()
}

/// A column's zone map, from the flat values the merge still holds —
/// one pass, no decode of the freshly encoded column.
pub(crate) fn min_max(values: &[i64]) -> Option<(i64, i64)> {
    let (lo, hi) = values.iter().fold((i64::MAX, i64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    (!values.is_empty()).then_some((lo, hi))
}

/// Zone spans up to this many times the row count count distinct values
/// in a bitset over the zone (at most one bit per eight rows' worth of
/// span: 64 KiB for a full segment); wider ones sort a copy.
const NDV_BITSET_SPAN_PER_ROW: u64 = 8;

/// The exact number of distinct values in `values`, whose zone is
/// `zone`.
pub(crate) fn distinct_count(values: &[i64], zone: Option<(i64, i64)>) -> u64 {
    let Some((lo, hi)) = zone else { return 0 };
    let span = hi.abs_diff(lo);
    if span / NDV_BITSET_SPAN_PER_ROW < values.len() as u64 {
        let mut seen = vec![0u64; span as usize / 64 + 1];
        for &v in values {
            let bit = v.abs_diff(lo) as usize;
            seen[bit / 64] |= 1 << (bit % 64);
        }
        seen.iter().map(|w| u64::from(w.count_ones())).sum()
    } else {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.len() as u64
    }
}

impl Segment {
    /// Builds a segment from rows `[start, end)` of a flattened merge
    /// batch.
    ///
    /// `sorted_by` records which column (if any) the caller arranged the
    /// rows of `[start, end)` in ascending order by; only the sorting
    /// merge passes `Some` here, and it is asserted in debug builds.
    pub(crate) fn build(
        columns: &[FlatColumn<'_>],
        validity: &[Vec<bool>],
        start: usize,
        end: usize,
        sorted_by: Option<usize>,
    ) -> Segment {
        let rows = end - start;
        let seg_cols = columns.iter().map(|col| SegColumn::build(col.slice(start, end), true)).collect();
        let seg_validity = validity
            .iter()
            .map(|v| {
                let slice = &v[start..end];
                if slice.iter().all(|&b| b) {
                    None
                } else {
                    Some(slice.to_vec())
                }
            })
            .collect();
        let seg = Segment { rows, columns: seg_cols, validity: seg_validity, sorted_by };
        #[cfg(debug_assertions)]
        if let Some(k) = sorted_by {
            // One ordered pass over the encoded key, never a point read
            // per row.
            let key = match seg.columns.get(k) {
                Some(SegColumn::Int { data, .. } | SegColumn::Str { codes: data, .. }) => data,
                _ => panic!("sort key must be an int or string column"),
            };
            let mut prev = i64::MIN;
            for (row, v) in key.iter().enumerate() {
                debug_assert!(prev <= v, "segment claims sorted_by {k} but row {row} regresses");
                prev = v;
            }
        }
        seg
    }

    /// Number of rows in this segment.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of physical columns (may be narrower than the table schema
    /// if columns evolved after this segment was merged).
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// The physical column at `idx`, or `None` if this segment predates
    /// the column (all its rows are null sentinels for it).
    pub fn column(&self, idx: usize) -> Option<&SegColumn> {
        self.columns.get(idx)
    }

    /// The zone map of column `idx` (`Some` for int and string-code
    /// columns that exist in this segment).
    pub fn zone(&self, idx: usize) -> Option<(i64, i64)> {
        self.columns.get(idx).and_then(SegColumn::zone)
    }

    /// The column index this segment is physically sorted ascending by
    /// (dictionary-code order for strings), or `None` for merge-ordered
    /// segments. Only [`crate::table::Table::merge`] sets this.
    pub fn sorted_by(&self) -> Option<usize> {
        self.sorted_by
    }

    /// Measured distinct-value count of integer column `idx` (`None` for
    /// other column kinds or columns this segment predates).
    pub fn ndv(&self, idx: usize) -> Option<u64> {
        self.columns.get(idx).and_then(SegColumn::ndv)
    }

    /// Random access to an integer (or string-code) value.
    pub fn get_int(&self, idx: usize, row: usize) -> Option<i64> {
        match self.columns.get(idx) {
            Some(SegColumn::Int { data, .. }) => Some(data.get(row)),
            Some(SegColumn::Str { codes, .. }) => Some(codes.get(row)),
            _ => None,
        }
    }

    /// Validity slice of column `idx`: `None` = all valid.
    pub fn validity(&self, idx: usize) -> Option<&[bool]> {
        self.validity.get(idx).and_then(|v| v.as_deref())
    }

    /// Nulls in column `idx`; columns this segment predates are all-null.
    pub fn null_count(&self, idx: usize) -> usize {
        if idx >= self.columns.len() {
            return self.rows;
        }
        match self.validity(idx) {
            Some(v) => v.iter().filter(|&&b| !b).count(),
            None => 0,
        }
    }

    /// Encoded payload bytes of the whole segment.
    pub fn encoded_bytes(&self) -> usize {
        self.columns.iter().map(SegColumn::encoded_bytes).sum()
    }

    /// Plain (8 B/value) bytes the same data would occupy uncompressed.
    pub fn raw_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.raw_bytes(self.rows)).sum()
    }
}

/// One immutable **version** of a table's main store: the segment list,
/// their base offsets, the table-global string dictionaries those
/// segments encode into, and the version metadata MVCC snapshots pin.
///
/// A [`crate::table::Table`] publishes a new `MainSet` (behind an `Arc`)
/// at every delta→main merge; readers that pinned the previous version
/// keep it alive through their `Arc` until the last snapshot drops —
/// epoch-style reclamation with no reader-side locking.
#[derive(Debug)]
pub(crate) struct MainSet {
    /// The immutable segments, shared (never deep-copied) across
    /// versions: a merge appends new segments to a clone of this vector.
    pub(crate) segments: Vec<std::sync::Arc<Segment>>,
    /// Global row offset of each segment (parallel to `segments`).
    pub(crate) bases: Vec<usize>,
    /// Total rows across all segments.
    pub(crate) rows: usize,
    /// Per-column table-global dictionaries (`Some` for string columns),
    /// frozen with this version: a pinned snapshot decodes against
    /// exactly the dictionary state it saw, however the dictionary grows
    /// in later versions.
    pub(crate) dicts: Vec<Option<DictColumn>>,
    /// Version counter, bumped once per merge.
    pub(crate) epoch: u64,
    /// The largest insert timestamp folded into these segments
    /// (`0` before the first merge). A snapshot older than this cannot
    /// be served from this version: segments carry no per-row
    /// timestamps, so rows newer than the snapshot would be
    /// indistinguishable.
    pub(crate) max_ts: u64,
}

impl MainSet {
    /// The empty pre-merge version (epoch 0, no rows, no dictionaries).
    pub(crate) fn empty() -> MainSet {
        MainSet { segments: Vec::new(), bases: Vec::new(), rows: 0, dicts: Vec::new(), epoch: 0, max_ts: 0 }
    }
}

/// What one delta→main merge did — returned by
/// [`crate::table::Table::merge`] so the caller (the `Database`) can
/// charge the re-encoding work to the energy meter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Rows moved from the delta into main segments.
    pub rows_merged: usize,
    /// Main segments created.
    pub segments_created: usize,
    /// Plain bytes of the merged rows (the encode input).
    pub raw_bytes: usize,
    /// Encoded bytes of the created segments (the encode output).
    pub encoded_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zone_predicates_cover_all_ops() {
        // Zone [10, 20].
        let (lo, hi) = (10, 20);
        assert!(zone_may_match(CmpOp::Eq, 15, lo, hi));
        assert!(!zone_may_match(CmpOp::Eq, 9, lo, hi));
        assert!(!zone_may_match(CmpOp::Lt, 10, lo, hi));
        assert!(zone_may_match(CmpOp::Le, 10, lo, hi));
        assert!(!zone_may_match(CmpOp::Gt, 20, lo, hi));
        assert!(zone_may_match(CmpOp::Ge, 20, lo, hi));
        assert!(zone_may_match(CmpOp::Ne, 15, lo, hi));
        // Constant zone [7, 7]: Ne 7 can never match, Eq 7 always does.
        assert!(!zone_may_match(CmpOp::Ne, 7, 7, 7));
        assert!(zone_all_match(CmpOp::Eq, 7, 7, 7));
        assert!(zone_all_match(CmpOp::Lt, 21, lo, hi));
        assert!(zone_all_match(CmpOp::Ge, 10, lo, hi));
        assert!(!zone_all_match(CmpOp::Ge, 11, lo, hi));
        assert!(zone_all_match(CmpOp::Ne, 9, lo, hi));
    }

    #[test]
    fn zone_shortcuts_agree_with_row_evaluation() {
        let data: Vec<i64> = (10..=20).collect();
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            for lit in 5..25 {
                let any = data.iter().any(|&v| op.eval(v, lit));
                let all = data.iter().all(|&v| op.eval(v, lit));
                assert_eq!(zone_may_match(op, lit, 10, 20), any, "{op:?} {lit} may");
                assert_eq!(zone_all_match(op, lit, 10, 20), all, "{op:?} {lit} all");
            }
        }
    }

    #[test]
    fn build_compresses_and_zones() {
        let ints = FlatColumn::Int((0..1000i64).collect());
        let validity = vec![vec![true; 1000]];
        let seg = Segment::build(&[ints], &validity, 100, 900, None);
        assert_eq!(seg.rows(), 800);
        assert_eq!(seg.zone(0), Some((100, 899)));
        assert_eq!(seg.sorted_by(), None, "merge-ordered build claims no sort");
        assert!(seg.encoded_bytes() < seg.raw_bytes(), "sorted ints must compress");
        assert_eq!(seg.get_int(0, 0), Some(100));
        assert_eq!(seg.null_count(0), 0);
        assert_eq!(seg.null_count(5), 800, "missing column is all-null");
    }

    #[test]
    fn build_measures_zone_and_exact_ndv_on_narrow_and_wide_spans() {
        let narrow: Vec<i64> = (0..500).map(|i| (i * 7) % 13 - 6).collect();
        // Span far beyond the bitset bound, extremes included, repeats.
        let wide: Vec<i64> =
            (0..500i64).map(|i| [i64::MIN, i64::MAX, i * 1_000_003, -i][(i % 4) as usize]).collect();
        for data in [narrow, wide, vec![42; 9], vec![i64::MIN, i64::MAX]] {
            let want_ndv = data.iter().collect::<std::collections::HashSet<_>>().len() as u64;
            let want_zone = data.iter().copied().min().zip(data.iter().copied().max());
            let col = FlatColumn::Int(data.clone().into());
            let seg = Segment::build(&[col], &[vec![true; data.len()]], 0, data.len(), None);
            assert_eq!(seg.ndv(0), Some(want_ndv), "{:?}", &data[..2]);
            assert_eq!(seg.zone(0), want_zone);
        }
        assert_eq!(distinct_count(&[], None), 0);
    }

    #[test]
    fn build_records_sort_claim() {
        let ints = FlatColumn::Int(vec![1i64, 1, 2, 3, 5, 8].into());
        let validity = vec![vec![true; 6]];
        let seg = Segment::build(&[ints], &validity, 0, 6, Some(0));
        assert_eq!(seg.sorted_by(), Some(0));
    }

    #[test]
    fn build_remaps_strings_into_global_dict() {
        let mut local = DictColumn::new();
        for s in ["b", "a", "b", "c"] {
            local.push(s);
        }
        let validity = vec![vec![true; 4]];
        let mut global = DictColumn::new();
        global.intern("z"); // pre-existing global entry
        let remap = build_remap(&local, &mut global);
        let codes = FlatColumn::Codes(local.codes().iter().map(|&c| remap[c as usize]).collect());
        let seg = Segment::build(&[codes], &validity, 0, 4, None);
        // Codes stored in the segment resolve through the global dict.
        let decoded: Vec<&str> =
            (0..4).map(|i| global.decode(seg.get_int(0, i).unwrap() as u32).unwrap()).collect();
        assert_eq!(decoded, vec!["b", "a", "b", "c"]);
    }
}
