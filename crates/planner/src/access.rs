//! Access-path selection: index lookup vs full scan (experiment E1).
//!
//! The paper's §IV example: "if a query can be answered using an index
//! lookup instead of a table scan, fewer cycles are spent on that
//! particular query" — i.e. classic cost-based access-path selection is
//! already energy optimization. This module makes the decision with the
//! dual-objective cost model, so the experiment can verify that the
//! time-optimal and energy-optimal choices coincide on one node.

use crate::catalog::TableMeta;
use crate::cost::{CostModel, PlanCost};
use haec_columnar::value::CmpOp;
use std::fmt;

/// The chosen access path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessPath {
    /// Scan all rows, filter on the fly.
    FullScan,
    /// Resolve via the secondary index.
    IndexLookup,
    /// Binary-search the disjoint sorted-segment zones, then the run
    /// boundaries inside the surviving segment — available only when the
    /// predicate column is the table's declared sort key.
    ZoneBinarySearch,
}

impl fmt::Display for AccessPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessPath::FullScan => f.write_str("full-scan"),
            AccessPath::IndexLookup => f.write_str("index-lookup"),
            AccessPath::ZoneBinarySearch => f.write_str("zone-binary-search"),
        }
    }
}

/// The decision with every alternative costed.
#[derive(Clone, Debug, PartialEq)]
pub struct AccessDecision {
    /// The chosen path.
    pub path: AccessPath,
    /// Estimated predicate selectivity.
    pub selectivity: f64,
    /// Cost of the scan alternative.
    pub scan_cost: PlanCost,
    /// Cost of the index alternative (`None` if no index exists).
    pub index_cost: Option<PlanCost>,
    /// Cost of the zone-binary-search alternative (`None` unless the
    /// column's layout is sorted — see [`sorted_layout`]).
    pub sorted_cost: Option<PlanCost>,
}

impl AccessDecision {
    /// The cost of the chosen path.
    pub fn chosen_cost(&self) -> PlanCost {
        match self.path {
            AccessPath::FullScan => self.scan_cost,
            AccessPath::IndexLookup => self.index_cost.expect("index path implies index cost"),
            AccessPath::ZoneBinarySearch => self.sorted_cost.expect("sorted path implies sorted cost"),
        }
    }
}

/// Estimates the selectivity of `column op literal` on `table`.
pub fn estimate_selectivity(table: &TableMeta, column: &str, op: CmpOp, literal: i64) -> f64 {
    let Some(col) = table.column(column) else {
        return 0.5; // unknown column: fall back to a neutral guess
    };
    match op {
        CmpOp::Eq => col.eq_selectivity(),
        CmpOp::Ne => 1.0 - col.eq_selectivity(),
        CmpOp::Lt => col.lt_selectivity(literal),
        CmpOp::Le => col.lt_selectivity(literal + 1),
        CmpOp::Gt => 1.0 - col.lt_selectivity(literal + 1),
        CmpOp::Ge => 1.0 - col.lt_selectivity(literal),
    }
}

/// Min/max statistics of one segment (or the delta tail) of a column —
/// what the storage layer's zone maps export to the planner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ZoneMapMeta {
    /// Rows covered by this zone.
    pub rows: u64,
    /// Smallest value in the zone.
    pub min: i64,
    /// Largest value in the zone.
    pub max: i64,
    /// The zone's rows are physically sorted ascending by this column —
    /// set only when the storage layer's sorting merge produced the
    /// segment (the delta tail is never sorted). Sorted zones admit
    /// in-segment binary search instead of a scan.
    pub sorted: bool,
}

impl ZoneMapMeta {
    /// Returns `true` if this zone's `[min, max]` intersects `[lo, hi]`
    /// — the join-pruning test: a probe segment whose key zone misses
    /// the build side's key range entirely cannot produce a match, so
    /// the executor skips it without touching a byte. `lo > hi` (an
    /// empty range) prunes everything.
    pub fn overlaps(&self, lo: i64, hi: i64) -> bool {
        lo <= hi && self.min <= hi && self.max >= lo
    }

    /// Returns `true` if a row matching `value op literal` may exist in
    /// this zone.
    pub fn may_match(&self, op: CmpOp, literal: i64) -> bool {
        match op {
            CmpOp::Eq => literal >= self.min && literal <= self.max,
            CmpOp::Ne => !(self.min == self.max && self.min == literal),
            CmpOp::Lt => self.min < literal,
            CmpOp::Le => self.min <= literal,
            CmpOp::Gt => self.max > literal,
            CmpOp::Ge => self.max >= literal,
        }
    }
}

/// Fraction of rows living in zones that survive pruning for
/// `value op literal` (1.0 when `zones` is empty — no statistics, no
/// pruning).
fn zone_survival(zones: &[ZoneMapMeta], op: CmpOp, literal: i64) -> f64 {
    let total: u64 = zones.iter().map(|z| z.rows).sum();
    if total == 0 {
        return 1.0;
    }
    let live: u64 = zones.iter().filter(|z| z.may_match(op, literal)).map(|z| z.rows).sum();
    live as f64 / total as f64
}

/// Fraction of rows living in zones whose key range intersects
/// `[lo, hi]` — the probe-side survival estimate for an equi-join
/// against a build side whose keys span `[lo, hi]` (1.0 when `zones` is
/// empty: no statistics, no pruning). This is the zone intersection the
/// executor's per-segment [`ZoneMapMeta::overlaps`] check realizes, so
/// the cost model and the runtime can never disagree on what survives.
pub fn join_zone_overlap(zones: &[ZoneMapMeta], lo: i64, hi: i64) -> f64 {
    let total: u64 = zones.iter().map(|z| z.rows).sum();
    if total == 0 {
        return 1.0;
    }
    let live: u64 = zones.iter().filter(|z| z.overlaps(lo, hi)).map(|z| z.rows).sum();
    live as f64 / total as f64
}

/// Returns `true` if `zones` describes a sorted layout on this column:
/// at least one sorted zone, and all sorted zones pairwise disjoint with
/// ascending ranges (in slice order), so a literal can be located by
/// binary search over the zone list. Unsorted zones (the delta tail)
/// may trail; the caller prices them as a residual scan.
pub fn sorted_layout(zones: &[ZoneMapMeta]) -> bool {
    let sorted: Vec<&ZoneMapMeta> = zones.iter().filter(|z| z.sorted && z.rows > 0).collect();
    !sorted.is_empty() && sorted.windows(2).all(|w| w[0].max <= w[1].min)
}

/// Chooses the access path on a **segmented, compressed** table: the
/// scan alternative is costed with [`CostModel::scan_compressed`] —
/// encoded bytes and zone-map survival rather than raw row width — so
/// scan-vs-index crossovers reflect the compressed footprint. When the
/// column's layout is sorted ([`sorted_layout`]), a third alternative is
/// costed with [`CostModel::sorted_scan`]: zone binary search plus
/// in-segment run binary search, with any unsorted tail rows priced as
/// a residual compressed scan.
pub fn choose_access_segmented(
    model: &CostModel,
    table: &TableMeta,
    column: &str,
    op: CmpOp,
    literal: i64,
    zones: &[ZoneMapMeta],
    encoded_bytes: u64,
) -> AccessDecision {
    let sel = estimate_selectivity(table, column, op, literal);
    let matches = (sel * table.rows as f64).ceil() as u64;
    let live = zone_survival(zones, op, literal);
    let scan_cost = model.scan_compressed(table.rows, encoded_bytes, sel, live);
    let indexed = table.column(column).map(|c| c.indexed).unwrap_or(false)
        && matches!(op, CmpOp::Eq | CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge);
    let index_cost = indexed.then(|| model.index_lookup(matches, table.row_bytes));
    let sorted_cost = (sorted_layout(zones) && op != CmpOp::Ne).then(|| {
        let total_rows: u64 = zones.iter().map(|z| z.rows).sum::<u64>().max(1);
        let sorted_rows: u64 = zones.iter().filter(|z| z.sorted).map(|z| z.rows).sum();
        let segments = zones.iter().filter(|z| z.sorted).count() as u64;
        let frac = sorted_rows as f64 / total_rows as f64;
        let sorted_bytes = (encoded_bytes as f64 * frac).ceil() as u64;
        let mut cost = model.sorted_scan(sorted_rows, sorted_bytes, sel, segments);
        let unsorted_rows = total_rows - sorted_rows;
        if unsorted_rows > 0 {
            cost = cost + model.scan_compressed(unsorted_rows, encoded_bytes - sorted_bytes, sel, live);
        }
        cost
    });
    let mut path = AccessPath::FullScan;
    let mut best = scan_cost.time;
    if let Some(sc) = &sorted_cost {
        if sc.time < best {
            path = AccessPath::ZoneBinarySearch;
            best = sc.time;
        }
    }
    if let Some(ic) = &index_cost {
        if ic.time < best {
            path = AccessPath::IndexLookup;
        }
    }
    AccessDecision { path, selectivity: sel, scan_cost, index_cost, sorted_cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ColumnMeta;
    use haec_energy::machine::MachineSpec;

    fn table(rows: u64, indexed: bool) -> TableMeta {
        TableMeta {
            name: "orders".into(),
            rows,
            row_bytes: 8,
            columns: vec![ColumnMeta { name: "id".into(), ndv: rows, min: 0, max: rows as i64 - 1, indexed }],
        }
    }

    fn model() -> CostModel {
        CostModel::new(MachineSpec::commodity_2013())
    }

    /// The chooser with no zone statistics over the table's flat bytes:
    /// no pruning, no sorted alternative, the scan priced at full width.
    fn unzoned(m: &CostModel, t: &TableMeta, op: CmpOp, literal: i64) -> AccessDecision {
        choose_access_segmented(m, t, "id", op, literal, &[], t.rows * t.row_bytes)
    }

    #[test]
    fn point_query_uses_index() {
        let d = unzoned(&model(), &table(10_000_000, true), CmpOp::Eq, 42);
        assert_eq!(d.path, AccessPath::IndexLookup);
        assert!(d.selectivity < 1e-6);
        // And the index is better on BOTH objectives (the E1 claim).
        let ic = d.index_cost.unwrap();
        assert!(ic.time < d.scan_cost.time);
        assert!(ic.energy.joules() < d.scan_cost.energy.joules());
    }

    #[test]
    fn broad_range_uses_scan() {
        let d = unzoned(&model(), &table(10_000_000, true), CmpOp::Lt, 5_000_000);
        assert_eq!(d.path, AccessPath::FullScan);
        assert!((d.selectivity - 0.5).abs() < 0.01);
        let ic = d.index_cost.unwrap();
        assert!(d.scan_cost.time < ic.time);
        assert!(d.scan_cost.energy.joules() < ic.energy.joules());
    }

    #[test]
    fn no_index_forces_scan() {
        let d = unzoned(&model(), &table(10_000_000, false), CmpOp::Eq, 42);
        assert_eq!(d.path, AccessPath::FullScan);
        assert!(d.index_cost.is_none());
        assert_eq!(d.chosen_cost(), d.scan_cost);
    }

    #[test]
    fn ne_predicate_never_uses_index() {
        let d = unzoned(&model(), &table(10_000_000, true), CmpOp::Ne, 42);
        assert_eq!(d.path, AccessPath::FullScan);
        assert!(d.index_cost.is_none());
    }

    #[test]
    fn unknown_column_neutral_selectivity() {
        let sel = estimate_selectivity(&table(100, true), "nope", CmpOp::Eq, 1);
        assert_eq!(sel, 0.5);
    }

    #[test]
    fn selectivity_ops_consistent() {
        let t = table(1000, true);
        let eq = estimate_selectivity(&t, "id", CmpOp::Eq, 500);
        let ne = estimate_selectivity(&t, "id", CmpOp::Ne, 500);
        assert!((eq + ne - 1.0).abs() < 1e-9);
        let lt = estimate_selectivity(&t, "id", CmpOp::Lt, 500);
        let ge = estimate_selectivity(&t, "id", CmpOp::Ge, 500);
        assert!((lt + ge - 1.0).abs() < 1e-9);
    }

    #[test]
    fn crossover_exists() {
        // Somewhere between point and half the table, the decision must
        // flip exactly once as selectivity rises.
        let m = model();
        let t = table(10_000_000, true);
        let mut last = AccessPath::IndexLookup;
        let mut flips = 0;
        for exp in 0..=7 {
            let lit = 10i64.pow(exp);
            let d = unzoned(&m, &t, CmpOp::Lt, lit);
            if d.path != last {
                flips += 1;
                last = d.path;
            }
        }
        assert_eq!(flips, 1, "expected exactly one crossover");
        assert_eq!(last, AccessPath::FullScan);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", AccessPath::IndexLookup), "index-lookup");
    }

    #[test]
    fn zone_survival_prunes_disjoint_segments() {
        // Four segments holding sorted keys: 0..250k each.
        let zones: Vec<ZoneMapMeta> = (0..4)
            .map(|i| ZoneMapMeta {
                rows: 250_000,
                min: i * 250_000,
                max: (i + 1) * 250_000 - 1,
                sorted: false,
            })
            .collect();
        assert!((zone_survival(&zones, CmpOp::Eq, 10) - 0.25).abs() < 1e-9);
        assert!((zone_survival(&zones, CmpOp::Lt, 500_000) - 0.5).abs() < 1e-9);
        assert!((zone_survival(&zones, CmpOp::Ge, 750_000) - 0.25).abs() < 1e-9);
        assert_eq!(zone_survival(&zones, CmpOp::Lt, 0), 0.0, "nothing below the min");
        assert_eq!(zone_survival(&[], CmpOp::Eq, 1), 1.0, "no stats, no pruning");
    }

    #[test]
    fn join_zone_overlap_prunes_probe_segments() {
        // Four sorted probe segments; a build side spanning only the
        // first quarter leaves one segment live.
        let zones: Vec<ZoneMapMeta> = (0..4)
            .map(|i| ZoneMapMeta { rows: 1000, min: i * 1000, max: (i + 1) * 1000 - 1, sorted: false })
            .collect();
        assert!((join_zone_overlap(&zones, 0, 999) - 0.25).abs() < 1e-9);
        assert!((join_zone_overlap(&zones, 500, 1500) - 0.5).abs() < 1e-9);
        assert_eq!(join_zone_overlap(&zones, 10_000, 20_000), 0.0);
        assert_eq!(join_zone_overlap(&zones, 0, 3999), 1.0);
        // Empty build range (lo > hi) prunes everything; no stats, no
        // pruning.
        assert_eq!(join_zone_overlap(&zones, 1, 0), 0.0);
        assert_eq!(join_zone_overlap(&[], 0, 10), 1.0);
        // The executor-side primitive agrees at the boundaries.
        let z = ZoneMapMeta { rows: 1, min: 10, max: 20, sorted: false };
        assert!(z.overlaps(20, 30));
        assert!(z.overlaps(0, 10));
        assert!(!z.overlaps(21, 30));
        assert!(!z.overlaps(0, 9));
    }

    #[test]
    fn compressed_scan_cheaper_than_flat() {
        // Same table, same predicate: costing against the encoded bytes
        // (4x compression) + zone pruning must be strictly cheaper than
        // the flat-scan model on both objectives.
        let m = model();
        let t = table(10_000_000, false);
        let zones: Vec<ZoneMapMeta> = (0..10)
            .map(|i| ZoneMapMeta {
                rows: 1_000_000,
                min: i * 1_000_000,
                max: (i + 1) * 1_000_000 - 1,
                sorted: false,
            })
            .collect();
        let flat = unzoned(&m, &t, CmpOp::Lt, 1_000_000);
        let seg = choose_access_segmented(
            &m,
            &t,
            "id",
            CmpOp::Lt,
            1_000_000,
            &zones,
            10_000_000 * 8 / 4, // 4x compressed
        );
        assert!(seg.scan_cost.time < flat.scan_cost.time);
        assert!(seg.scan_cost.energy.joules() < flat.scan_cost.energy.joules());
    }

    #[test]
    fn segmented_decision_respects_index_for_points() {
        let m = model();
        let t = table(10_000_000, true);
        let zones = [ZoneMapMeta { rows: 10_000_000, min: 0, max: 9_999_999, sorted: false }];
        let d = choose_access_segmented(&m, &t, "id", CmpOp::Eq, 42, &zones, 10_000_000);
        assert_eq!(d.path, AccessPath::IndexLookup);
        // But a fully-prunable predicate makes the scan free-ish and
        // beats the index even for Eq.
        let cold = choose_access_segmented(&m, &t, "id", CmpOp::Eq, -5, &zones, 10_000_000);
        assert_eq!(cold.scan_cost.time.min(cold.chosen_cost().time), cold.chosen_cost().time);
    }

    #[test]
    fn sorted_layout_detection() {
        let z = |min: i64, max: i64, sorted: bool| ZoneMapMeta { rows: 1000, min, max, sorted };
        // Disjoint ascending sorted segments + unsorted delta tail.
        assert!(sorted_layout(&[z(0, 9, true), z(10, 19, true), z(5, 25, false)]));
        // A duplicate key straddling the boundary is still sorted.
        assert!(sorted_layout(&[z(0, 10, true), z(10, 19, true)]));
        // Overlapping sorted zones are not a sorted layout.
        assert!(!sorted_layout(&[z(0, 12, true), z(10, 19, true)]));
        // No sorted zone at all.
        assert!(!sorted_layout(&[z(0, 9, false), z(10, 19, false)]));
        assert!(!sorted_layout(&[]));
        // Zero-row sorted zones don't count.
        assert!(!sorted_layout(&[ZoneMapMeta { rows: 0, min: 0, max: 9, sorted: true }]));
    }

    #[test]
    fn sorted_point_access_beats_scan_and_index() {
        // A 10M-row sorted layout with no index: the point lookup must
        // choose zone binary search over the scan on both objectives —
        // the layout itself is the index.
        let m = model();
        let t = table(10_000_000, false);
        let zones: Vec<ZoneMapMeta> = (0..160)
            .map(|i| ZoneMapMeta { rows: 62_500, min: i * 62_500, max: (i + 1) * 62_500 - 1, sorted: true })
            .collect();
        let d = choose_access_segmented(&m, &t, "id", CmpOp::Eq, 42, &zones, 10_000_000 * 2);
        assert_eq!(d.path, AccessPath::ZoneBinarySearch);
        let sc = d.sorted_cost.unwrap();
        assert!(sc.time < d.scan_cost.time);
        assert!(sc.energy.joules() < d.scan_cost.energy.joules());
        assert_eq!(d.chosen_cost(), sc);
        // With a secondary index present the cheaper of the two O(log)
        // alternatives wins — never the scan.
        let ti = table(10_000_000, true);
        let di = choose_access_segmented(&m, &ti, "id", CmpOp::Eq, 42, &zones, 10_000_000 * 2);
        assert_ne!(di.path, AccessPath::FullScan);
        assert_eq!(format!("{}", AccessPath::ZoneBinarySearch), "zone-binary-search");
        // At full selectivity binary search saves almost nothing: both
        // paths stream every encoded byte, so the advantage collapses
        // from orders of magnitude (point) to the per-row predicate
        // evaluation the range path skips.
        let broad = choose_access_segmented(&m, &t, "id", CmpOp::Ge, 0, &zones, 10_000_000 * 2);
        let broad_ratio = broad.sorted_cost.unwrap().time.as_secs_f64() / broad.scan_cost.time.as_secs_f64();
        let point_ratio = sc.time.as_secs_f64() / d.scan_cost.time.as_secs_f64();
        assert!(broad_ratio > 0.5, "full-selectivity sorted path must pay the full stream");
        assert!(point_ratio < 0.1 && point_ratio < broad_ratio, "point advantage must dominate");
        // Ne is never contiguous → no sorted alternative.
        let ne = choose_access_segmented(&m, &t, "id", CmpOp::Ne, 42, &zones, 10_000_000 * 2);
        assert!(ne.sorted_cost.is_none());
    }

    #[test]
    fn sorted_cost_prices_unsorted_tail() {
        // Same layout with a large unsorted delta tail: the sorted
        // alternative must get strictly more expensive than without it.
        let m = model();
        let t = table(2_000_000, false);
        let mut zones: Vec<ZoneMapMeta> = (0..16)
            .map(|i| ZoneMapMeta { rows: 62_500, min: i * 62_500, max: (i + 1) * 62_500 - 1, sorted: true })
            .collect();
        let clean = choose_access_segmented(&m, &t, "id", CmpOp::Eq, 42, &zones, 2_000_000);
        zones.push(ZoneMapMeta { rows: 1_000_000, min: 0, max: 999_999, sorted: false });
        let tailed = choose_access_segmented(&m, &t, "id", CmpOp::Eq, 42, &zones, 3_000_000);
        let (c, t2) = (clean.sorted_cost.unwrap(), tailed.sorted_cost.unwrap());
        assert!(t2.time > c.time, "unsorted tail must be billed as a residual scan");
        assert!(t2.energy.joules() > c.energy.joules());
    }
}
