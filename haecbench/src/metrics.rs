//! The metric catalogue (one source of truth, mirrored by
//! `BENCHMARK.json`), sample statistics, and the result line.

use crate::json::Json;
use crate::ops::Class;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Debug)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better, bound: Option<f64>) -> MetricDef {
    MetricDef { name: name.into(), unit, better, bound }
}

/// What a user of the engine sees. Every workload reports every one of
/// them, and none is ever 0 — which is why failures are reported as the
/// result line's `failed`/`attempted` rather than as a `failed_share`
/// metric that reads 0 on every good run.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::*;
    vec![
        def("setup_s", "s", Lower, Some(0.25)),
        def("qps", "1/s", Higher, Some(0.25)),
        def("query_p50_us", "us", Lower, Some(0.25)),
        def("query_p95_us", "us", Lower, Some(0.25)),
        def("modeled_joules_per_query", "J", Lower, Some(0.03)),
        def("stored_bytes_per_user_byte", "ratio", Lower, Some(0.01)),
        def("write_us_per_row", "us/row", Lower, Some(0.25)),
        def("peak_rss_mb", "MiB", Lower, Some(0.10)),
    ]
}

pub const PATHS: [&str; 3] = ["zone_binary_search", "index_lookup", "full_scan"];

/// Single-layer metrics, named `<crate>.<metric>[.<scheme|class>]`.
/// `better` is the direction an optimisation of that layer would move
/// the number; for plain counts it is the direction that means less
/// work or space.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::*;
    let mut defs = Vec::new();
    let mut add = |name: String, unit, better| defs.push(def(name, unit, better, None));
    for scheme in haec_columnar::encoding::Scheme::ALL {
        add(format!("columnar.scan_ns_per_row.{scheme}"), "ns/row", Lower);
        add(format!("columnar.iter_ns_per_row.{scheme}"), "ns/row", Lower);
    }
    for (name, unit, better) in [
        ("columnar.sorted_range_ns", "ns", Lower),
        ("columnar.get_ns", "ns", Lower),
        ("columnar.encode_ns_per_row", "ns/row", Lower),
        ("columnar.dict_intern_ns", "ns", Lower),
        ("exec.hash_build_ns_per_row", "ns/row", Lower),
        ("exec.hash_probe_ns_per_row", "ns/row", Lower),
        ("exec.group_agg_ns_per_row", "ns/row", Lower),
        ("exec.select_ns_per_row", "ns/row", Lower),
        ("exec.pool_dispatch_us_per_morsel", "us", Lower),
        ("exec.gate_acquire_ns", "ns", Lower),
        ("exec.pool_threads_spawned", "count", Lower),
        ("core.begin_snapshot_us", "us", Lower),
        ("core.materialize_ns_per_cell", "ns", Lower),
        ("core.gather_ns_per_cell", "ns", Lower),
        ("core.insert_ns_per_row", "ns/row", Lower),
        ("core.merge_ms_p50", "ms", Lower),
        ("core.merge_rows_per_s", "rows/s", Higher),
        ("core.merges", "count", Lower),
        ("core.insert_batch_p99_us", "us", Lower),
        ("core.delta_rows_at_query_mean", "rows", Lower),
        ("core.segments", "count", Lower),
        ("core.encoded_bytes", "bytes", Lower),
        ("core.raw_bytes", "bytes", Lower),
        ("planner.meta_us", "us", Lower),
        ("planner.choose_access_ns", "ns", Lower),
        ("energy.estimate_ns", "ns", Lower),
        ("energy.host_cycle_scale", "ratio", Lower),
        ("txn.oracle_next_ns", "ns", Lower),
        ("sched.overhead_us_p50", "us", Lower),
        ("sched.admit_ns", "ns", Lower),
        ("sched.dop_mean", "count", Higher),
        ("sched.rejected", "count", Lower),
        ("sched.cancelled", "count", Lower),
        ("sched.shed", "count", Lower),
        ("sched.gate_high_water", "count", Lower),
        ("trace.overhead_share", "ratio", Lower),
    ] {
        add(name.to_string(), unit, better);
    }
    for path in PATHS {
        let better = if path == "full_scan" { Lower } else { Higher };
        add(format!("planner.path_share.{path}"), "ratio", better);
    }
    for class in Class::ALL {
        let class = class.name();
        add(format!("core.execute_us.{class}"), "us", Lower);
        // 1 would mean the model prices what the host takes.
        add(format!("energy.model_wall_ratio.{class}"), "ratio", Higher);
        add(format!("energy.dram_read_bytes.{class}"), "bytes", Lower);
        add(format!("energy.cpu_cycles.{class}"), "cycles", Lower);
    }
    defs
}

/// `BENCHMARK.json`, whole: `haecbench catalogue` prints it and a test
/// holds the committed file to it, so the file cannot drift from what
/// the binary emits.
pub fn benchmark_json() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str(s.to_string())).collect());
    let metric = |d: &MetricDef| {
        let mut fields = vec![
            ("name".to_string(), Json::Str(d.name.clone())),
            ("unit".to_string(), Json::Str(d.unit.into())),
            ("better".to_string(), Json::Str(d.better.as_str().into())),
        ];
        fields.extend(d.bound.map(|b| ("bound".to_string(), Json::Num(b))));
        Json::Obj(fields)
    };
    let workloads = crate::workload::WORKLOADS
        .iter()
        .map(|w| Json::obj([("name", Json::Str(w.name.into())), ("why", Json::Str(w.why.into()))]))
        .collect();
    Json::obj([
        (
            "command",
            strs(&["cargo", "run", "--release", "--quiet", "--manifest-path", "haecbench/Cargo.toml", "--"]),
        ),
        ("paths", strs(&["haecbench"])),
        ("run_seconds", Json::Num(crate::RUN_SECONDS as f64)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end().iter().map(metric).collect())),
        ("per_layer", Json::Arr(per_layer().iter().map(metric).collect())),
    ])
}

/// Counts that must repeat exactly between two same-seed runs of a
/// read-only workload (`haecbench check` fails if one does not).
pub fn is_deterministic(name: &str) -> bool {
    name == "modeled_joules_per_query"
        || name == "stored_bytes_per_user_byte"
        || ["energy.dram_read_bytes.", "energy.cpu_cycles.", "planner.path_share."]
            .iter()
            .any(|prefix| name.starts_with(prefix))
}

/// Median of unsorted samples (mean of the middle two when even).
pub fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_unstable_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (nearest rank) of ascending `sorted`, refused
/// unless at least [`MIN_BEYOND`] samples lie beyond it — a tail read
/// off fewer samples is the slowest few operations, not a percentile.
pub fn percentile(sorted: &[u64], p: f64) -> Result<u64, String> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let rank = ((sorted.len() as f64 * p / 100.0).ceil() as usize).max(1);
    let beyond = sorted.len().saturating_sub(rank);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {} samples has {beyond} beyond it, fewer than {MIN_BEYOND}",
            sorted.len()
        ));
    }
    Ok(sorted[rank - 1])
}

/// The highest of p50/p90/p95/p99/p99.9 that [`percentile`] accepts.
pub fn highest_percentile(sorted: &[u64]) -> Option<(f64, u64)> {
    [99.9, 99.0, 95.0, 90.0, 50.0].iter().find_map(|&p| percentile(sorted, p).ok().map(|v| (p, v)))
}

/// Measured values by metric name, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not a finite number: {value}");
        assert!(!self.0.iter().any(|(n, _)| *n == name), "metric {name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// The run's result: exactly the contract's keys, every catalogued
/// metric present (a missing one is a bug in the benchmark, so it
/// panics instead of printing a partial line).
pub fn result_json(defs: &[MetricDef], metrics: &Metrics, attempted: u64, failed: u64) -> Json {
    let values = defs
        .iter()
        .map(|d| {
            let value = metrics.get(&d.name).unwrap_or_else(|| panic!("metric {} was not measured", d.name));
            (d.name.clone(), Json::obj([("value", Json::Num(value)), ("unit", Json::Str(d.unit.into()))]))
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(values)),
    ])
}
