use crate::compare::record_json;
use crate::data::{set_up, Model};
use crate::json::Json;
use crate::metrics::{self, highest_percentile, percentile, Metrics, MIN_BEYOND};
use crate::ops::{op_list, op_list_digest, verify, Class, Op, RefState};
use crate::trace::{self_time_by_name, Tracer};
use crate::workload::{Client, Spec, Target, WORKLOADS};
use haec_columnar::chunk::Chunk;
use haec_columnar::column::Column;
use haecdb::prelude::*;

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    let sorted: Vec<u64> = (1..=1000).collect();
    assert_eq!(percentile(&sorted, 50.0), Ok(500));
    assert_eq!(percentile(&sorted, 99.0), Ok(990)); // exactly 10 beyond
    assert!(percentile(&sorted, 99.9).is_err()); // 1 beyond
    assert!(percentile(&sorted[..999], 99.0).is_err()); // 9 beyond
    assert_eq!(highest_percentile(&sorted), Some((99.0, 990)));
    assert_eq!(highest_percentile(&sorted[..200]), Some((95.0, 190)));
    assert_eq!(highest_percentile(&sorted[..MIN_BEYOND]), None);
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    let inputs = |seed| {
        let model = Model::generate(seed, 10_000, 500);
        let ops = op_list(WORKLOADS[1].pattern, 100, seed, 10, &model);
        (model.checksum(), op_list_digest(&ops))
    };
    assert_eq!(inputs(7), inputs(7));
    assert_ne!(inputs(7).0, inputs(8).0);
    assert_ne!(inputs(7).1, inputs(8).1);
}

fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// The committed `BENCHMARK.json` is what `haecbench catalogue` prints:
/// every workload and metric the binary emits, and no other.
#[test]
fn benchmark_json_mirrors_the_catalogue() {
    let file = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    assert_eq!(file, metrics::benchmark_json());
    assert_eq!(Json::parse(&file.pretty()), Ok(file));
}

#[test]
fn names_fit_the_contract() {
    let mut names: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    names.extend(metrics::end_to_end().into_iter().chain(metrics::per_layer()).map(|d| d.name));
    for name in &names {
        assert!(valid_name(name), "{name}");
    }
    let unique: std::collections::BTreeSet<_> = names.iter().collect();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
    assert!(metrics::per_layer().len() <= 128);
    assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    let setup = &metrics::end_to_end()[0];
    assert_eq!((setup.name.as_str(), setup.unit, setup.better.as_str()), ("setup_s", "s", "lower"));
    assert!(metrics::end_to_end().iter().all(|d| d.bound.is_some_and(|b| b <= setup.bound.unwrap())));
}

#[test]
fn self_time_is_duration_minus_the_union_of_children() {
    let mut t = Tracer::new(0, 1);
    // Root 0..100 with children 10..40 and 30..60 (overlapping: union
    // 50) → self 50; the children are leaves.
    t.group("op.x", (0, 100), "call", &[(10, 40), (30, 60)]);
    // A child reaching past its parent is clipped: 90..100 covered.
    t.group("op.y", (0, 100), "call", &[(90, 130)]);
    let by_name = self_time_by_name(&t.spans);
    assert_eq!(by_name["op.x"], 50);
    assert_eq!(by_name["op.y"], 90);
    assert_eq!(by_name["call"], 30 + 30 + 40);
    let ids: std::collections::BTreeSet<u32> = t.spans.iter().map(|s| s.id).collect();
    assert_eq!(ids.len(), t.spans.len());
    assert!(t.spans.iter().all(|s| if s.parent == 0 { s.op == s.id } else { s.op == s.parent }));
}

#[test]
fn result_line_parses_back() {
    let defs = metrics::end_to_end();
    let mut m = Metrics::default();
    for (i, d) in defs.iter().enumerate() {
        m.set(d.name.clone(), 0.1 + i as f64 * 1_234.567_890_123);
    }
    let result = metrics::result_json(&defs, &m, 1000, 0);
    let line = result.to_string();
    assert!(!line.contains('\n'));
    let back = Json::parse(&line).expect("the result line is JSON");
    assert_eq!(back, result);
    let keys: Vec<&str> = back.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(back.get("attempted").unwrap().to_string(), "1000");
    for d in &defs {
        let entry = back.get("metrics").and_then(|ms| ms.get(&d.name)).expect("metric present");
        assert_eq!(entry.get("value").and_then(Json::as_f64), m.get(&d.name));
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(d.unit));
    }
    let record = record_json("scan_agg", 3, 12, false, 2, result).to_string();
    assert_eq!(Json::parse(&record).unwrap().get("workload").and_then(Json::as_str), Some("scan_agg"));
    assert_eq!(
        Json::parse(r#"{"a": [1, -2.5e3, "x\"A\n"], "b": null}"#).unwrap().to_string(),
        r#"{"a": [1, -2500, "x\"A\n"], "b": null}"#
    );
    assert!(Json::parse("{\"a\": 1,}").is_err());
}

const TINY: Spec = Spec {
    name: "tiny",
    why: "test",
    events_rows: 150_000,
    index: true,
    served: false,
    pattern: &Class::ALL,
    list_len: 2 * Class::COUNT,
};

/// Every class, against a real engine: the checker accepts what the
/// engine answers and rejects the same answers once the reference
/// disagrees with them.
#[test]
fn checker_accepts_right_answers_and_rejects_wrong_ones() {
    let s = set_up(&TINY, 5, 0, true);
    assert_eq!(s.failed, 0);
    assert!(s.batches.iter().filter(|b| b.merged).count() >= 2, "auto-merges are seen as epoch changes");
    let mut state = RefState::new();
    state.advance(&s.model, s.model.preload);
    let ops = op_list(TINY.pattern, TINY.list_len, 5, 10, &s.model);
    let mut client =
        Client::new(Target::Direct(&s.db), &s.model, crate::data::Clock::start(), Tracer::new(0, 1));
    client.traced = true;
    client.pass(&ops, &state);
    assert_eq!(
        (client.stats.attempted, client.stats.failed),
        (ops.len() as u64, 0),
        "{:?}",
        client.stats.first_error
    );
    assert_eq!(client.tracer.spans.len(), 2 * ops.len());
    assert!(
        client.stats.paths.iter().all(|&n| n > 0),
        "all three access paths occur: {:?}",
        client.stats.paths
    );

    // A reference built from other data must reject (nearly) all of them.
    let other = Model::generate(6, s.model.preload, 0);
    let mut other_state = RefState::new();
    other_state.advance(&other, other.preload);
    for op in &ops {
        let res = s.db.execute(&op.query).unwrap();
        assert!(verify(op, &res, &s.model, &state, &state).is_ok());
        let fixed = matches!(op.class, Class::MaxPlainFilter | Class::ZoneMin);
        assert!(
            fixed || verify(op, &res, &other, &other_state, &other_state).is_err(),
            "{}",
            op.class.name()
        );
    }
}

/// The MVCC prefix property: beside a writer, an aggregate may be
/// anything between the reference at submit and at return, and nothing
/// else.
#[test]
fn an_answer_beside_a_writer_must_lie_between_submit_and_return() {
    let model = Model::generate(9, 5_000, 1_000);
    let (mut lo, mut hi) = (RefState::new(), RefState::new());
    lo.advance(&model, 5_200);
    hi.advance(&model, 5_700);
    let op = Op::draw(Class::SumAll, &mut crate::rng::Rng::new(9, 3), &model);
    let answer = |sum: i64| QueryResult {
        rows: Chunk::new(vec![("sum(amount)".into(), Column::Float64(vec![sum as f64]))]).unwrap(),
        energy: haec_energy::units::Joules::new(0.0),
        modeled_time: Default::default(),
        wall_time: Default::default(),
        access_path: None,
        profile: Default::default(),
    };
    let sum = |rows: usize| model.amount_prefix[rows];
    for rows in [5_200, 5_450, 5_700] {
        assert!(verify(&op, &answer(sum(rows)), &model, &lo, &hi).is_ok());
    }
    assert!(verify(&op, &answer(sum(5_199)), &model, &lo, &hi).is_err());
    assert!(verify(&op, &answer(sum(5_701)), &model, &lo, &hi).is_err());
}

/// Timings come from the faster half of a run's slices, ranked by time
/// per operation; slices beyond the last whole one are left out.
#[test]
fn the_faster_half_of_the_slices_is_kept() {
    use crate::workload::{PhaseStats, Sample};
    let mut stats = PhaseStats::new();
    // ns per operation by slice: 0 → 300, 1 → 100, 2 → 200, 3 → 150 (twice the ops), 4 → 50 (partial).
    for (slice, latency_ns, ops) in [(0, 300, 2), (1, 100, 2), (2, 200, 2), (3, 150, 4), (4, 50, 1)] {
        for _ in 0..ops {
            stats.samples.push(Sample {
                class: Class::Point,
                slice,
                traced: false,
                latency_ns,
                engine_ns: 0,
            });
        }
    }
    assert_eq!(stats.faster_half(4), [1, 3]);
    assert_eq!(stats.faster_half(5), [4, 1, 3]);
    let kept = stats.faster_half(4);
    let fast = stats.timing(|s| kept.contains(&s.slice));
    assert_eq!(fast.latency_ns, [100, 100, 150, 150, 150, 150]);
    assert!((fast.qps - 6.0 / 800e-9).abs() < 1.0);
}
