//! Diagnosis throughput under the parallel execution layer.
//!
//! The heavy-traffic entry point is [`Sherlock::explain_batch`]: many
//! independent incidents fanned out across a thread budget. This binary
//! measures explains/sec over the standard TPC-C-like corpus at 1, N/2 and
//! N threads (N = available parallelism; 4 is always included so runs on
//! different hosts share a comparable data point), checks that every thread
//! budget produces byte-identical explanations, and writes
//! `results/BENCH_throughput.json`.
//!
//! `--smoke` runs one small case and asserts a nonzero rate — the CI
//! guard that the parallel path stays alive and sane.

use std::time::Instant;

use dbsherlock_bench::{repository_from, single_model, tpcc_corpus, write_json};
use dbsherlock_core::{Case, ExecPolicy, Explanation, Sherlock, SherlockParams};
use dbsherlock_simulator::{AnomalyKind, Injection, Scenario, WorkloadConfig};
use dbsherlock_telemetry::Region;

/// Thread budgets to measure: 1, N/2, N, plus a fixed 4-thread point.
fn thread_counts() -> Vec<usize> {
    let n = ExecPolicy::Auto.resolve();
    let mut counts = vec![1, (n / 2).max(1), n, 4];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Fingerprint of a batch result, for the determinism cross-check.
fn fingerprint(results: &[Result<Explanation, dbsherlock_core::SherlockError>]) -> String {
    results
        .iter()
        .map(|r| match r {
            Ok(e) => {
                let causes: Vec<String> = e
                    .all_causes
                    .iter()
                    .map(|c| format!("{}:{}", c.cause, c.confidence.to_bits()))
                    .collect();
                format!("{}|{}", e.predicates_display(), causes.join(","))
            }
            Err(err) => format!("error:{err}"),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn smoke() {
    let labeled = Scenario::new(WorkloadConfig::tpcc_default(), 120, 7)
        .with_injection(Injection::new(AnomalyKind::CpuSaturation, 40, 40))
        .run();
    let abnormal = labeled.abnormal_region();
    let sherlock = Sherlock::new(SherlockParams::default().with_exec(ExecPolicy::Threads(2)));
    let cases = [Case::new(&labeled.data, &abnormal)];
    let start = Instant::now();
    let results = sherlock.explain_batch(&cases);
    let elapsed = start.elapsed().as_secs_f64();
    let explanation = results[0].as_ref().expect("smoke case diagnoses");
    assert!(!explanation.predicates.is_empty(), "smoke case produced no predicates");
    let rate = 1.0 / elapsed.max(f64::MIN_POSITIVE);
    assert!(rate > 0.0 && rate.is_finite(), "nonzero throughput expected, got {rate}");
    println!("throughput smoke: 1 case in {elapsed:.3}s ({rate:.1} explains/sec) — ok");
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }

    let corpus = tpcc_corpus();
    let params = SherlockParams::default();
    let models: Vec<_> = AnomalyKind::ALL
        .iter()
        .map(|&kind| {
            let entry =
                corpus.iter().find(|e| e.kind == kind && e.variant == 0).expect("corpus cell");
            single_model(entry, &params, None)
        })
        .collect();

    let regions: Vec<Region> = corpus.iter().map(|e| e.labeled.abnormal_region()).collect();
    let cases: Vec<Case<'_>> = corpus
        .iter()
        .zip(&regions)
        .map(|(entry, abnormal)| Case::new(&entry.labeled.data, abnormal))
        .collect();

    let n = ExecPolicy::Auto.resolve();
    println!("diagnosing {} cases, available parallelism {n}", cases.len());

    let mut rows = Vec::new();
    let mut serial_rate = 0.0_f64;
    let mut serial_print = None;
    for threads in thread_counts() {
        let exec = if threads == 1 { ExecPolicy::Serial } else { ExecPolicy::Threads(threads) };
        let mut sherlock = Sherlock::new(params.clone().with_exec(exec));
        *sherlock.repository_mut() = repository_from(models.clone());
        // Warm-up: touch every dataset once so timing excludes cold caches.
        let _ = sherlock.explain_batch(&cases[..cases.len().min(8)]);
        let start = Instant::now();
        let results = sherlock.explain_batch(&cases);
        let elapsed = start.elapsed().as_secs_f64();
        let print = fingerprint(&results);
        match &serial_print {
            None => serial_print = Some(print),
            Some(reference) => assert_eq!(
                reference, &print,
                "explain_batch output differs between serial and {threads} threads"
            ),
        }
        let rate = cases.len() as f64 / elapsed;
        if threads == 1 {
            serial_rate = rate;
        }
        let speedup = if serial_rate > 0.0 { rate / serial_rate } else { 1.0 };
        println!(
            "threads {threads:>2}: {elapsed:>7.2}s  {rate:>8.1} explains/sec  ({speedup:.2}x vs serial)"
        );
        rows.push(serde_json::json!({
            "threads": threads,
            "elapsed_s": elapsed,
            "explains_per_sec": rate,
            "speedup_vs_serial": speedup,
            "cases": cases.len(),
        }));
    }

    write_json(
        "BENCH_throughput",
        &serde_json::json!({
            // Host context up front: rates from different machines are only
            // comparable with the core count and measured budgets attached.
            "cpu_count": n,
            "available_parallelism": n,
            "thread_counts_measured": thread_counts(),
            "corpus": "tpcc",
            "deterministic_across_budgets": true,
            "rows": rows,
        }),
    );
}
