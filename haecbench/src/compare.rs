//! `haecbench check` (does the benchmark agree with itself?) and
//! `haecbench compare` (new ÷ base, with the base, per workload).

use crate::json::Json;
use crate::metrics::{self, is_deterministic, median, Better, MetricDef};
use crate::workload::WORKLOADS;
use std::collections::BTreeMap;
use std::process::Command;

/// One run as stored by `--out`: `(workload, metric → value)`.
type Record = (String, Vec<(String, f64)>);

fn catalogue() -> Vec<MetricDef> {
    let mut defs = metrics::end_to_end();
    defs.extend(metrics::per_layer());
    defs
}

/// The `--out` line of one run.
pub fn record_json(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    threads: usize,
    result: Json,
) -> Json {
    Json::obj([
        ("workload", Json::Str(workload.into())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("trace", Json::Bool(trace)),
        ("threads", Json::Num(threads as f64)),
        ("result", result),
    ])
}

/// The metric values of a run's result line, refused if the run was not
/// correct.
fn parse_result(result: &Json) -> Result<Vec<(String, f64)>, String> {
    if result.get("correct") != Some(&Json::Bool(true)) {
        return Err("a run is not correct".into());
    }
    let metrics = result.get("metrics").ok_or("result without metrics")?;
    Ok(metrics
        .fields()
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

fn parse_record(line: &str) -> Result<Record, String> {
    let json = Json::parse(line)?;
    let workload = json.get("workload").and_then(Json::as_str).ok_or("record without workload")?;
    let values = parse_result(json.get("result").ok_or("record without result")?)?;
    Ok((workload.to_string(), values))
}

fn read_records(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| parse_record(l).map_err(|e| format!("{path}: {e}")))
        .collect()
}

/// Median per `(workload, metric)` over a file's runs.
fn medians(records: &[Record]) -> BTreeMap<(String, String), f64> {
    let mut samples: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (workload, values) in records {
        for (name, v) in values {
            samples.entry((workload.clone(), name.clone())).or_default().push(*v);
        }
    }
    samples.into_iter().map(|(k, mut v)| (k, median(&mut v))).collect()
}

/// By how much `new` is worse than `base`, as a share of `base`
/// (negative when better).
fn worsening(def: &MetricDef, base: f64, new: f64) -> f64 {
    let change = (new - base) / base.abs().max(f64::MIN_POSITIVE);
    match def.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Prints every metric of both files as new ÷ base with the base, one
/// row per workload and metric, and returns how many end-to-end rows
/// regressed beyond their bound.
pub fn compare(base_path: &str, new_path: &str) -> Result<usize, String> {
    let (base, new) = (medians(&read_records(base_path)?), medians(&read_records(new_path)?));
    let mut regressed = 0;
    println!("{:<13} {:<44} {:>16} {:>16} {:>8}  verdict", "workload", "metric", "base", "new", "new/base");
    for def in catalogue() {
        for w in &WORKLOADS {
            let key = (w.name.to_string(), def.name.clone());
            let (Some(&b), Some(&n)) = (base.get(&key), new.get(&key)) else { continue };
            let worse = worsening(&def, b, n);
            let verdict = match def.bound {
                Some(bound) if worse > bound => {
                    regressed += 1;
                    format!("REGRESSED beyond {bound}")
                }
                Some(bound) if -worse > bound => "improved".to_string(),
                Some(_) => "within bound".to_string(),
                None => String::new(),
            };
            let ratio = if b == 0.0 { f64::NAN } else { n / b };
            println!("{:<13} {:<44} {b:>16.6} {n:>16.6} {ratio:>8.4}  {verdict}", w.name, def.name);
        }
    }
    Ok(regressed)
}

fn child_run(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{workload} run failed: {}", String::from_utf8_lossy(&out.stderr)));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("run printed nothing")?;
    parse_result(&Json::parse(line)?).map_err(|why| format!("{workload}: {why}"))
}

/// Runs every workload twice on one seed, untraced and traced, and
/// returns what disagreed: an end-to-end metric beyond its bound, or —
/// on the read-only workloads — a deterministic count at all.
pub fn check(seed: u64, seconds: u64) -> Result<Vec<String>, String> {
    let defs = catalogue();
    let mut disagreements = Vec::new();
    for w in &WORKLOADS {
        for trace in [false, true] {
            let (a, b) = (child_run(w.name, seed, seconds, trace)?, child_run(w.name, seed, seconds, trace)?);
            for ((name, x), (_, y)) in a.iter().zip(&b) {
                let def =
                    defs.iter().find(|d| d.name == *name).ok_or_else(|| format!("unknown metric {name}"))?;
                let apart = worsening(def, *x, *y).abs().max(worsening(def, *y, *x).abs());
                let exact = !w.served && is_deterministic(name);
                let bad = if exact { x != y } else { def.bound.is_some_and(|bound| apart > bound) };
                let verdict = if bad { "DISAGREE" } else { "ok" };
                if bad || def.bound.is_some() || exact {
                    eprintln!("{:<13} {name:<44} {x:>16.6} {y:>16.6}  {verdict}", w.name);
                }
                if bad {
                    disagreements.push(format!("{} {name}: {x} vs {y}", w.name));
                }
            }
        }
    }
    Ok(disagreements)
}
