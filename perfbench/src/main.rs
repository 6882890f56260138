//! The diagnosis benchmark: end-to-end latency and throughput of the
//! DBSherlock library and the `sherlockd` daemon, with a traced run that
//! splits the time across the library's layers.
//!
//! ```text
//! perfbench --workload <tpcc|wide|stream> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --smoke
//! ```
//!
//! Workloads: `tpcc` and `wide` (closed-loop explains, `explain.rs`) and
//! `stream` (an open-loop in-process `sherlockd`, `stream.rs`). With
//! `--trace 0` the last line of standard output is a JSON object with the
//! end-to-end metrics; with `--trace 1` untraced and traced rounds
//! alternate and the JSON carries the per-layer metrics derived from the
//! spans. Every run writes `out/<workload>-seed<n>-trace<t>.json` under
//! this package, keeping the deterministic content (digests, counts) apart
//! from the wall-clock values, and the workload's latest traced run's spans
//! as JSON lines (`out/<workload>.spans.jsonl`).
//! `--smoke` runs all three workloads tiny, traced, with every check.
//! `README.md` defines each metric.

mod explain;
mod report;
mod stream;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use serde_json::{json, Value};

use report::{metric, Outcome};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Everything a workload run needs to know.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub setup_reps: usize,
    pub sizes: explain::Sizes,
    pub load: stream::Load,
    pub out_dir: PathBuf,
}

impl Config {
    fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> Self {
        Config {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            setup_reps: SETUP_REPS,
            sizes: explain::Sizes::FULL,
            load: stream::Load::FULL,
            out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        }
    }

    fn smoke(workload: &str) -> Self {
        Config {
            setup_reps: 1,
            sizes: explain::Sizes::SMOKE,
            load: stream::Load::SMOKE,
            ..Config::new(workload, 1, 0.7, true)
        }
    }

    fn stem(&self) -> String {
        format!("{}-seed{}-trace{}", self.workload, self.seed, u8::from(self.trace))
    }
}

const USAGE: &str =
    "usage: perfbench --workload <tpcc|wide|stream> --seed <n> --seconds <s> --trace <0|1> | --smoke";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["tpcc", "wide", "stream"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Config::new(
        &workload,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace,
    ))
}

fn run_workload(cfg: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.out_dir.display()))?;
    let mut out = match cfg.workload.as_str() {
        "tpcc" => explain::run(explain::Shape::Tpcc, cfg)?,
        "wide" => explain::run(explain::Shape::Wide, cfg)?,
        _ => stream::run(cfg)?,
    };
    let rss = report::peak_rss_mb();
    out.end_to_end.push(metric("peak_rss_mb", rss, "MB"));
    out.lines.push(format!("  peak_rss_mb          {rss:>10.1} MB"));
    let reported = if cfg.trace { &out.per_layer } else { &out.end_to_end };
    if let Some(bad) = reported.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} was not measured ({})", bad.name, bad.value));
    }
    Ok(out)
}

/// Write a traced run's spans next to its result file. Each workload keeps
/// only its latest traced run's spans (megabytes), not one file per seed.
pub fn write_spans(cfg: &Config, tracer: &trace::Tracer) -> Result<(), String> {
    let path = cfg.out_dir.join(format!("{}.spans.jsonl", cfg.workload));
    tracer.write_jsonl(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn metrics_json(metrics: &[report::Metric]) -> Value {
    let map: BTreeMap<String, Value> = metrics
        .iter()
        .map(|m| (m.name.to_string(), json!({ "value": m.value, "unit": m.unit })))
        .collect();
    Value::Object(map)
}

/// Host and build facts recorded with every result. The runner script
/// passes what only the toolchain knows (commit, rustc, resolved features)
/// in `PERFBENCH_PROVENANCE`.
fn provenance() -> Value {
    let from_runner = std::env::var("PERFBENCH_PROVENANCE")
        .ok()
        .and_then(|text| serde_json::from_str::<Value>(&text).ok())
        .unwrap_or(Value::Null);
    json!({
        "runner": from_runner,
        "available_parallelism": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "exec_auto_threads": dbsherlock_core::ExecPolicy::Auto.resolve(),
        "optimized": !cfg!(debug_assertions),
    })
}

fn write_result(cfg: &Config, out: &Outcome) -> Result<(), String> {
    let path = cfg.out_dir.join(format!("{}.json", cfg.stem()));
    let doc = json!({
        "workload": cfg.workload,
        "seed": cfg.seed,
        "seconds": cfg.seconds,
        "trace": cfg.trace,
        "provenance": provenance(),
        "attempted": out.attempted,
        "failed": out.failed,
        "deterministic": out.deterministic,
        "timing": {
            "detail": out.timing,
            "end_to_end": metrics_json(&out.end_to_end),
            "per_layer": metrics_json(&out.per_layer),
        },
    });
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Run all three workloads tiny and traced, with every check.
fn smoke() -> Result<(), String> {
    for workload in ["tpcc", "wide", "stream"] {
        let cfg = Config::smoke(workload);
        let out = run_workload(&cfg)?;
        for line in &out.lines {
            println!("{line}");
        }
        if out.attempted == 0 || out.failed > 0 || out.per_layer.is_empty() {
            return Err(format!(
                "{workload}: {} of {} operations failed",
                out.failed, out.attempted
            ));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        return match smoke() {
            Ok(()) => {
                println!("smoke: every workload ran and every check passed");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("smoke: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = match run_workload(&cfg).and_then(|out| write_result(&cfg, &out).map(|()| out)) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &out.lines {
        println!("{line}");
    }
    let metrics = if cfg.trace { &out.per_layer } else { &out.end_to_end };
    let result = json!({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics_json(metrics),
    });
    println!("{}", serde_json::to_string(&result).expect("JSON of numbers and strings"));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    #[test]
    fn smoke_runs_every_workload_and_check() {
        super::smoke().unwrap();
    }
}
