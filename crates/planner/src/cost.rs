//! The dual-objective cost model: every physical alternative is costed
//! in **time and energy**, the precondition for the paper's
//! energy-constrained optimization (Fig. 2).

use haec_energy::calibrate::{Kernel, KernelCosts};
use haec_energy::machine::MachineSpec;
use haec_energy::profile::{CostEstimator, ExecutionContext, ResourceProfile};
use haec_energy::units::{ByteCount, Joules};
use std::fmt;
use std::ops::Add;
use std::time::Duration;

/// A plan alternative's predicted cost.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PlanCost {
    /// Predicted wall-clock time.
    pub time: Duration,
    /// Predicted energy.
    pub energy: Joules,
}

impl PlanCost {
    /// The zero cost.
    pub const ZERO: PlanCost = PlanCost { time: Duration::ZERO, energy: Joules::ZERO };

    /// Energy-delay product (lower is better).
    pub fn edp(&self) -> f64 {
        self.energy.joules() * self.time.as_secs_f64()
    }
}

impl Add for PlanCost {
    type Output = PlanCost;
    fn add(self, rhs: PlanCost) -> PlanCost {
        PlanCost { time: self.time + rhs.time, energy: self.energy + rhs.energy }
    }
}

impl fmt::Display for PlanCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ms / {:.3} J", self.time.as_secs_f64() * 1e3, self.energy.joules())
    }
}

/// One side of an equi-join as the cost model sees it: surviving rows,
/// the **encoded** bytes of its key column, and the fraction of those
/// that zone pruning (filters + join key intersection) leaves live.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JoinSideCost {
    /// Rows surviving this side's filters.
    pub rows: u64,
    /// Encoded bytes of the join-key column (codes for strings).
    pub encoded_key_bytes: u64,
    /// Fraction of rows/bytes in segments surviving zone pruning.
    pub live_frac: f64,
    /// This side's key column is already physically sorted (declared
    /// sort key, no delta tail): sort-merge gets its sort passes free.
    pub sorted: bool,
}

impl JoinSideCost {
    fn live_rows(&self) -> u64 {
        (self.rows as f64 * self.live_frac.clamp(0.0, 1.0)).ceil() as u64
    }

    fn live_bytes(&self) -> u64 {
        (self.encoded_key_bytes as f64 * self.live_frac.clamp(0.0, 1.0)).ceil() as u64
    }
}

/// The physical join algorithm [`CostModel::join_compressed`] picks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinAlgo {
    /// Hash build + probe.
    Hash,
    /// Sort both key streams, merge.
    SortMerge,
}

/// A costed join plan: which side builds, which algorithm, and both
/// algorithm costs (so a caller optimizing for energy can re-choose).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JoinDecision {
    /// `true` if the left side is the (smaller) build side.
    pub build_left: bool,
    /// The time-optimal algorithm.
    pub algo: JoinAlgo,
    /// Predicted cost of the hash join.
    pub hash_cost: PlanCost,
    /// Predicted cost of the sort-merge join.
    pub merge_cost: PlanCost,
}

/// The model: a machine, kernel constants and a default execution
/// context.
#[derive(Clone, Debug)]
pub struct CostModel {
    estimator: CostEstimator,
    costs: KernelCosts,
    ctx: ExecutionContext,
}

impl CostModel {
    /// A model over `machine` using all its cores at the fastest
    /// P-state.
    pub fn new(machine: MachineSpec) -> Self {
        let ctx = ExecutionContext::parallel(machine.pstates().fastest(), machine.cores());
        CostModel { estimator: CostEstimator::new(machine), costs: KernelCosts::default_2013(), ctx }
    }

    /// Overrides the kernel constants (calibration).
    pub fn with_kernel_costs(mut self, costs: KernelCosts) -> Self {
        self.costs = costs;
        self
    }

    /// The machine this model costs against.
    pub fn machine(&self) -> &MachineSpec {
        self.estimator.machine()
    }

    fn finish(&self, profile: ResourceProfile) -> PlanCost {
        let est = self.estimator.estimate(&profile, self.ctx);
        PlanCost { time: est.time, energy: est.energy }
    }

    /// Cost of a full scan over `rows` of `row_bytes` with a predicate
    /// of selectivity `sel`.
    pub fn scan(&self, rows: u64, row_bytes: u64, sel: f64) -> PlanCost {
        let cycles = self.costs.cycles_for(Kernel::SelectBitwise, rows)
            + self.costs.cycles_for(Kernel::Materialize, (sel * rows as f64) as u64);
        self.finish(ResourceProfile::scan(cycles, ByteCount::new(rows * row_bytes)))
    }

    /// Cost of a scan over a **segmented, compressed** table: predicates
    /// run directly on encoded data, so DRAM traffic is the column's
    /// `encoded_bytes` rather than `rows * row_bytes`, and zone-map
    /// pruning leaves only `live_frac` of segments (rows *and* bytes) to
    /// touch. CPU cost stays per-row over the surviving rows (the
    /// bitwise scan kernel), plus materialization of the expected
    /// matches.
    pub fn scan_compressed(&self, rows: u64, encoded_bytes: u64, sel: f64, live_frac: f64) -> PlanCost {
        let live_frac = live_frac.clamp(0.0, 1.0);
        let live_rows = (rows as f64 * live_frac).ceil() as u64;
        let cycles = self.costs.cycles_for(Kernel::SelectBitwise, live_rows)
            + self.costs.cycles_for(Kernel::Materialize, (sel * rows as f64) as u64);
        let bytes = (encoded_bytes as f64 * live_frac).ceil() as u64;
        self.finish(ResourceProfile::scan(cycles, ByteCount::new(bytes)))
    }

    /// Cost of resolving a predicate on a **declared sort key** laid out
    /// as disjoint sorted segments: binary-search the segment list
    /// (`log segments` zone probes), binary-search the run boundaries
    /// inside the surviving segment (`2 log rows` value probes, ~one
    /// cache line each), then stream only the matching fraction of the
    /// encoded column. No index is touched and no non-matching row is
    /// read — the layout itself is the index.
    pub fn sorted_scan(&self, rows: u64, encoded_bytes: u64, sel: f64, segments: u64) -> PlanCost {
        let sel = sel.clamp(0.0, 1.0);
        let matches = (sel * rows as f64).ceil() as u64;
        let probes =
            (segments.max(2) as f64).log2().ceil() as u64 + 2 * (rows.max(2) as f64).log2().ceil() as u64;
        let cycles = self.costs.cycles_for(Kernel::IndexLookup, probes)
            + self.costs.cycles_for(Kernel::Materialize, matches);
        let bytes = probes * 64 + (sel * encoded_bytes as f64).ceil() as u64;
        self.finish(ResourceProfile::scan(cycles, ByteCount::new(bytes)))
    }

    /// Cost of resolving the same predicate through an index returning
    /// `matches` rows (tree descent per match batch + row fetches).
    pub fn index_lookup(&self, matches: u64, row_bytes: u64) -> PlanCost {
        let lookups = matches.max(1); // at least the probe that finds nothing
        let cycles = self.costs.cycles_for(Kernel::IndexLookup, lookups)
            + self.costs.cycles_for(Kernel::Materialize, matches);
        // Index probes are random accesses: each touches ~2 cache lines
        // of index plus the row itself.
        let bytes = lookups * 128 + matches * row_bytes;
        self.finish(ResourceProfile::scan(cycles, ByteCount::new(bytes)))
    }

    /// Cost of a hash join: build `build_rows`, probe `probe_rows`,
    /// emitting `out_rows`.
    pub fn hash_join(&self, build_rows: u64, probe_rows: u64, out_rows: u64) -> PlanCost {
        let cycles = self.costs.cycles_for(Kernel::HashBuild, build_rows)
            + self.costs.cycles_for(Kernel::HashProbe, probe_rows)
            + self.costs.cycles_for(Kernel::Materialize, out_rows);
        let bytes = (build_rows + probe_rows) * 8 + build_rows * 16 + out_rows * 16;
        self.finish(ResourceProfile::scan(cycles, ByteCount::new(bytes)))
    }

    /// Cost of aggregating `rows` into `groups` groups.
    pub fn aggregate(&self, rows: u64, groups: u64) -> PlanCost {
        let cycles = self.costs.cycles_for(Kernel::AggUpdate, rows)
            + if groups > 1 {
                self.costs.cycles_for(Kernel::HashProbe, rows)
            } else {
                haec_energy::Cycles::ZERO
            };
        self.finish(ResourceProfile::scan(cycles, ByteCount::new(rows * 8)))
    }

    /// Cost of an aggregation pushed down onto a **segmented, compressed**
    /// table: values stream-decode straight out of the encoded column (no
    /// full-column materialization), so DRAM traffic is the column's
    /// `encoded_bytes` — scaled by the zone-survival fraction `live_frac`
    /// — and CPU adds a per-row decode on top of the aggregate update
    /// (plus the hash probe when grouping).
    ///
    /// Compare with decode-then-[`CostModel::aggregate`], which pays the
    /// full decode *and* re-reads the materialized plain column: pushdown
    /// is strictly cheaper for any compressible column.
    pub fn agg_pushdown(&self, rows: u64, encoded_bytes: u64, groups: u64, live_frac: f64) -> PlanCost {
        let live_frac = live_frac.clamp(0.0, 1.0);
        let live_rows = (rows as f64 * live_frac).ceil() as u64;
        let cycles = self.costs.cycles_for(Kernel::CompressDecode, live_rows)
            + self.costs.cycles_for(Kernel::AggUpdate, live_rows)
            + if groups > 1 {
                self.costs.cycles_for(Kernel::HashProbe, live_rows)
            } else {
                haec_energy::Cycles::ZERO
            };
        let bytes = (encoded_bytes as f64 * live_frac).ceil() as u64;
        self.finish(ResourceProfile::scan(cycles, ByteCount::new(bytes)))
    }

    /// Cost of an equi-join executed **on compressed segments**: keys
    /// stream out of the encoded columns (dictionary codes join
    /// code-to-code), so DRAM traffic per side is its `encoded_key_bytes`
    /// scaled by the fraction of segments surviving filters and the
    /// join-specific zone intersection
    /// ([`crate::access::join_zone_overlap`]). Picks the build side
    /// (fewer surviving rows) and costs both algorithms: hash
    /// (build + probe + bucket traffic) and sort-merge
    /// (`n log n` sort passes + a merge pass). `algo` is the time-optimal
    /// pick; callers with an energy goal can re-choose from the two
    /// costs.
    pub fn join_compressed(&self, left: &JoinSideCost, right: &JoinSideCost, out_rows: u64) -> JoinDecision {
        let build_left = left.live_rows() <= right.live_rows();
        let (build, probe) = if build_left { (left, right) } else { (right, left) };
        let (b, p) = (build.live_rows(), probe.live_rows());
        let stream_bytes = build.live_bytes() + probe.live_bytes();
        let hash_cost = self.finish(ResourceProfile {
            cpu_cycles: self.costs.cycles_for(Kernel::HashBuild, b)
                + self.costs.cycles_for(Kernel::HashProbe, p)
                + self.costs.cycles_for(Kernel::Materialize, out_rows),
            // Encoded key streams, one bucket header per probe (16 B —
            // must track `haec_exec::join::HASH_BUCKET_BYTES`, which the
            // executor bills with; this crate cannot depend on exec),
            // and the row-id list entries of expected hits.
            dram_read: ByteCount::new(stream_bytes + p * 16 + out_rows * 4),
            // Build-table entries plus the output pairs vector.
            dram_written: ByteCount::new(b * 16 + out_rows * 8),
            ..ResourceProfile::default()
        });
        let n = b + p;
        // A declared-sort-key side arrives pre-sorted: its sort passes
        // cost nothing, only the unsorted side(s) pay `n log n`.
        let levels_of = |rows: u64| (rows.max(2) as f64).log2().ceil() as u64;
        let sort_items = (if build.sorted { 0 } else { b * levels_of(b) })
            + (if probe.sorted { 0 } else { p * levels_of(p) });
        let merge_cost = self.finish(ResourceProfile {
            cpu_cycles: self.costs.cycles_for(Kernel::SortPerLevel, sort_items)
                + self.costs.cycles_for(Kernel::Materialize, out_rows),
            // Encoded key streams, sort passes over the extracted pairs
            // of each unsorted side, and the final merge pass over both
            // sorted runs.
            dram_read: ByteCount::new(stream_bytes + sort_items * 8 + n * 8),
            dram_written: ByteCount::new(n * 8 + out_rows * 8),
            ..ResourceProfile::default()
        });
        let algo = if hash_cost.time <= merge_cost.time { JoinAlgo::Hash } else { JoinAlgo::SortMerge };
        JoinDecision { build_left, algo, hash_cost, merge_cost }
    }

    /// Cost of delivering a string projection of `rows` result rows to
    /// the client as **codes + one shared output dictionary** (late
    /// materialization end to end): every row moves a 4-byte code, and
    /// each of the `distinct` values pays one dictionary-entry decode
    /// and intern of `avg_str_bytes` — string hashing is O(distinct),
    /// never O(rows).
    pub fn project_codes(&self, rows: u64, distinct: u64, avg_str_bytes: u64) -> PlanCost {
        let d = distinct.min(rows);
        let cycles =
            self.costs.cycles_for(Kernel::Materialize, rows) + self.costs.cycles_for(Kernel::HashBuild, d);
        self.finish(ResourceProfile {
            cpu_cycles: cycles,
            dram_read: ByteCount::new(rows * 4 + d * avg_str_bytes),
            dram_written: ByteCount::new(rows * 4 + d * avg_str_bytes),
            ..ResourceProfile::default()
        })
    }

    /// The decode-early alternative [`CostModel::project_codes`]
    /// replaces: every projected row decodes its string and re-hashes
    /// it into the output dictionary, so the per-value payload read and
    /// the hash both scale with `rows` instead of `distinct`. Strictly
    /// more expensive whenever values repeat (`distinct < rows`);
    /// identical when every row is distinct.
    pub fn project_decode(&self, rows: u64, distinct: u64, avg_str_bytes: u64) -> PlanCost {
        let cycles =
            self.costs.cycles_for(Kernel::Materialize, rows) + self.costs.cycles_for(Kernel::HashBuild, rows);
        self.finish(ResourceProfile {
            cpu_cycles: cycles,
            dram_read: ByteCount::new(rows * 4 + rows * avg_str_bytes),
            dram_written: ByteCount::new(rows * 4 + distinct.min(rows) * avg_str_bytes),
            ..ResourceProfile::default()
        })
    }

    /// Cost of (de)compressing `rows` values (used when shipping
    /// compressed — the codec halves of E3 at plan level).
    pub fn codec(&self, rows: u64) -> PlanCost {
        let cycles = self.costs.cycles_for(Kernel::CompressEncode, rows)
            + self.costs.cycles_for(Kernel::CompressDecode, rows);
        self.finish(ResourceProfile::cpu(cycles))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new(MachineSpec::commodity_2013())
    }

    #[test]
    fn scan_scales_linearly() {
        let m = model();
        let small = m.scan(1_000_000, 8, 0.01);
        let large = m.scan(10_000_000, 8, 0.01);
        let ratio = large.time.as_secs_f64() / small.time.as_secs_f64();
        assert!((ratio - 10.0).abs() < 1.0, "ratio {ratio}");
        assert!(large.energy.joules() > small.energy.joules());
    }

    #[test]
    fn index_beats_scan_at_low_selectivity_only() {
        // E1's core assertion at model level: point query → index wins
        // in time AND energy; 30% selectivity → scan wins.
        let m = model();
        let rows = 10_000_000u64;
        let point_scan = m.scan(rows, 8, 1e-7);
        let point_index = m.index_lookup(1, 8);
        assert!(point_index.time < point_scan.time);
        assert!(point_index.energy.joules() < point_scan.energy.joules());

        let broad_scan = m.scan(rows, 8, 0.3);
        let broad_index = m.index_lookup((rows as f64 * 0.3) as u64, 8);
        assert!(broad_scan.time < broad_index.time);
        assert!(broad_scan.energy.joules() < broad_index.energy.joules());
    }

    #[test]
    fn faster_is_cheaper_on_same_machine() {
        // The paper's §IV claim [12]: for the same work shape, the
        // faster plan is also the lower-energy plan (no idle-power
        // reallocation at plan level).
        let m = model();
        let a = m.scan(1_000_000, 8, 0.5);
        let b = m.scan(5_000_000, 8, 0.5);
        assert!(a.time < b.time);
        assert!(a.energy.joules() < b.energy.joules());
    }

    #[test]
    fn join_cost_monotone() {
        let m = model();
        let small = m.hash_join(1000, 10_000, 10_000);
        let large = m.hash_join(1000, 100_000, 100_000);
        assert!(small.time < large.time);
    }

    #[test]
    fn join_compressed_picks_small_build_side_and_prunes() {
        let m = model();
        let dim = JoinSideCost { rows: 10_000, encoded_key_bytes: 10_000 * 2, live_frac: 1.0, sorted: false };
        let fact = JoinSideCost {
            rows: 10_000_000,
            encoded_key_bytes: 10_000_000 * 2,
            live_frac: 1.0,
            sorted: false,
        };
        let d = m.join_compressed(&dim, &fact, 10_000_000);
        assert!(d.build_left, "the small dimension side must build");
        let flipped = m.join_compressed(&fact, &dim, 10_000_000);
        assert!(!flipped.build_left);
        assert_eq!(flipped.hash_cost, d.hash_cost, "build choice is side-symmetric");
        // The huge-probe hash join beats n·log n sort-merge here.
        assert_eq!(d.algo, JoinAlgo::Hash);
        assert!(d.hash_cost.time <= d.merge_cost.time);
        // Zone intersection scales the probe cost down on both axes.
        let pruned = JoinSideCost { live_frac: 0.125, ..fact };
        let p = m.join_compressed(&dim, &pruned, 1_250_000);
        assert!(p.hash_cost.time < d.hash_cost.time);
        assert!(p.hash_cost.energy.joules() < d.hash_cost.energy.joules());
    }

    #[test]
    fn join_compressed_beats_decode_then_join() {
        // The honest baseline: decode both 4x-compressed key columns to
        // flat Vec<i64> (decode cycles, encoded reads, plain writes),
        // then run the flat hash join. Streaming the encoded keys skips
        // the materialization round trip, so it must win on both
        // objectives — and tighter encodings must cost less.
        let m = model();
        let rows = 8_000_000u64;
        let encoded = rows * 2;
        let side = JoinSideCost { rows, encoded_key_bytes: encoded, live_frac: 1.0, sorted: false };
        let compressed = m.join_compressed(&side, &side, rows);
        let decode = m.finish(ResourceProfile {
            cpu_cycles: m.costs.cycles_for(Kernel::CompressDecode, rows * 2),
            dram_read: ByteCount::new(encoded * 2),
            dram_written: ByteCount::new(rows * 2 * 8),
            ..ResourceProfile::default()
        });
        let baseline = decode + m.hash_join(rows, rows, rows);
        assert!(compressed.hash_cost.time < baseline.time);
        assert!(compressed.hash_cost.energy.joules() < baseline.energy.joules());
        let loose = JoinSideCost { encoded_key_bytes: rows * 8, ..side };
        let l = m.join_compressed(&loose, &loose, rows);
        assert!(compressed.hash_cost.energy.joules() < l.hash_cost.energy.joules());
    }

    #[test]
    fn agg_pushdown_beats_decode_then_aggregate() {
        // Gather-and-fold = decode the whole column (full encoded read +
        // a plain-column write/re-read) then the flat aggregate. The
        // pushdown skips the materialization round-trip entirely, so it
        // must win on both objectives for a 4x-compressed column.
        let m = model();
        let rows = 10_000_000u64;
        let encoded = rows * 8 / 4;
        for groups in [1u64, 64] {
            let push = m.agg_pushdown(rows, encoded, groups, 1.0);
            let decode = m.finish(ResourceProfile {
                cpu_cycles: m.costs.cycles_for(Kernel::CompressDecode, rows),
                dram_read: ByteCount::new(encoded),
                dram_written: ByteCount::new(rows * 8),
                ..ResourceProfile::default()
            });
            let gather = decode + m.aggregate(rows, groups);
            assert!(push.time < gather.time, "groups={groups}");
            assert!(push.energy.joules() < gather.energy.joules(), "groups={groups}");
        }
        // Zone survival scales work down.
        let full = m.agg_pushdown(rows, encoded, 1, 1.0);
        let pruned = m.agg_pushdown(rows, encoded, 1, 0.25);
        assert!(pruned.time < full.time);
        assert!(pruned.energy.joules() < full.energy.joules());
        // Grouping costs extra.
        assert!(
            m.agg_pushdown(rows, encoded, 8, 1.0).energy.joules()
                > m.agg_pushdown(rows, encoded, 1, 1.0).energy.joules()
        );
    }

    #[test]
    fn project_codes_beats_decode_when_values_repeat() {
        let m = model();
        let rows = 1_000_000u64;
        for distinct in [10u64, 10_000] {
            let codes = m.project_codes(rows, distinct, 16);
            let decode = m.project_decode(rows, distinct, 16);
            assert!(codes.time < decode.time, "distinct={distinct}");
            assert!(codes.energy.joules() < decode.energy.joules(), "distinct={distinct}");
        }
        // All-distinct projections converge: nothing repeats, so there
        // is nothing for codes-to-client to save.
        let codes = m.project_codes(rows, rows, 16);
        let decode = m.project_decode(rows, rows, 16);
        assert!(codes.energy.joules() <= decode.energy.joules());
        // More distinct values cost more on the codes path (first-touch
        // decodes), and longer strings widen the gap.
        assert!(
            m.project_codes(rows, 10_000, 16).energy.joules() > m.project_codes(rows, 10, 16).energy.joules()
        );
        let short_gap =
            m.project_decode(rows, 10, 8).energy.joules() - m.project_codes(rows, 10, 8).energy.joules();
        let long_gap =
            m.project_decode(rows, 10, 64).energy.joules() - m.project_codes(rows, 10, 64).energy.joules();
        assert!(long_gap > short_gap);
    }

    #[test]
    fn plan_cost_arithmetic() {
        let a = PlanCost { time: Duration::from_millis(10), energy: Joules::new(1.0) };
        let b = PlanCost { time: Duration::from_millis(5), energy: Joules::new(0.5) };
        let c = a + b;
        assert_eq!(c.time, Duration::from_millis(15));
        assert!((c.energy.joules() - 1.5).abs() < 1e-12);
        assert!((a.edp() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn display() {
        let c = PlanCost::ZERO;
        assert!(format!("{c}").contains("ms"));
    }
}
