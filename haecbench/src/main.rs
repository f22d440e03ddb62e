//! `haecbench` — the repository's benchmark: four workloads over the
//! query path, end-to-end metrics from an untraced run and per-layer
//! metrics from a traced one. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! haecbench --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
//!           [--trace-out <file>] [--out <file.jsonl>]
//! haecbench check [--seed <n>] [--seconds <s>]
//! haecbench compare <base.jsonl> <new.jsonl>
//! haecbench catalogue            # prints BENCHMARK.json
//! ```
//!
//! The last line of standard output is the run's result as one JSON
//! object; everything for people goes to standard error.

mod compare;
mod data;
mod json;
mod metrics;
mod ops;
mod probes;
mod rng;
mod run;
mod trace;
mod workload;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

/// Seconds one run measures when `--seconds` is not given — the
/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u64 = 12;

fn usage() -> String {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: haecbench --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>] [--trace-out <file>] \
         [--out <file.jsonl>]\n       haecbench check [--seed <n>] [--seconds <s>]\n       haecbench compare \
         <base.jsonl> <new.jsonl>\n       haecbench catalogue",
        names.join("|")
    )
}

/// `--flag value` pairs after an optional subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Vec::new();
        for pair in args.chunks(2) {
            match pair {
                [flag, value] if flag.starts_with("--") => flags.push((flag[2..].to_string(), value.clone())),
                _ => return Err(format!("expected --flag value, got {pair:?}")),
            }
        }
        Ok(Flags(flags))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn number(&self, name: &str, default: Option<u64>) -> Result<u64, String> {
        match self.get(name) {
            Some(v) => v.parse().map_err(|_| format!("--{name} takes a whole number, got {v}")),
            None => default.ok_or_else(|| format!("--{name} is required")),
        }
    }

    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !known.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("unknown flag --{n}")),
            None => Ok(()),
        }
    }
}

fn run_command(flags: &Flags) -> Result<ExitCode, String> {
    flags.only(&["workload", "seed", "seconds", "trace", "trace-out", "out"])?;
    let name = flags.get("workload").ok_or("--workload is required")?;
    let spec = workload::find(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seconds = flags.number("seconds", Some(RUN_SECONDS))?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be between 1 and 60".into());
    }
    let args = run::RunArgs {
        spec,
        seed: flags.number("seed", None)?,
        seconds,
        trace: match flags.get("trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("--trace takes 0 or 1, got {v}")),
        },
        trace_out: flags.get("trace-out").map(PathBuf::from),
    };
    let out = run::run(&args);
    let defs = if args.trace { metrics::per_layer() } else { metrics::end_to_end() };
    let result = metrics::result_json(&defs, &out.metrics, out.attempted, out.failed);
    if let Some(path) = flags.get("out") {
        let threads = haec_exec::pool::WorkerPool::global().workers();
        let record = compare::record_json(spec.name, args.seed, seconds, args.trace, threads, result.clone());
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(file, "{record}").map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{result}");
    Ok(ExitCode::SUCCESS)
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("check") => {
            let flags = Flags::parse(&args[1..])?;
            flags.only(&["seed", "seconds"])?;
            let disagreements =
                compare::check(flags.number("seed", Some(1))?, flags.number("seconds", Some(RUN_SECONDS))?)?;
            for d in &disagreements {
                eprintln!("disagreement: {d}");
            }
            println!("{} disagreement(s)", disagreements.len());
            Ok(if disagreements.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
        }
        Some("compare") => match &args[1..] {
            [base, new] => {
                let regressed = compare::compare(base, new)?;
                println!("{regressed} end-to-end metric(s) regressed beyond their bound");
                Ok(if regressed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
            }
            _ => Err("compare takes two result files".into()),
        },
        Some("catalogue") => {
            println!("{}", metrics::benchmark_json().pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => run_command(&Flags::parse(args)?),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|why| {
        eprintln!("haecbench: {why}\n{}", usage());
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests;
