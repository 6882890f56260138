//! Columnar vs row-wise kernel scaling benchmark.
//!
//! Sweeps corpus size × attribute count × thread count and measures the
//! diagnosis pipeline two ways over identical synthetic telemetry:
//!
//! * **columnar** — the production path: one
//!   [`ColumnarSnapshot`](dbsherlock_telemetry::ColumnarSnapshot) per
//!   case, typed column views, branch-light per-column kernels
//!   (`Sherlock::try_explain`).
//! * **scalar** — the retained row-wise reference shim: per-cell
//!   `value()` dispatch everywhere (`Sherlock::explain_scalar`, compiled
//!   under the core `scalar-shim` feature).
//!
//! Every measured pair is **hard-asserted bit-identical** (predicates,
//! confidences to the bit) before any timing is reported, and the
//! columnar path is additionally asserted identical across all thread
//! budgets. Reports rows/sec and explains/sec per cell and writes
//! `results/BENCH_columnar_scaling.json`.
//!
//! `--smoke` runs a tiny matrix with the same asserts and no JSON — the
//! CI guard that the two paths cannot drift apart silently.

use std::time::Instant;

use dbsherlock_bench::write_json;
use dbsherlock_core::{ExecPolicy, Explanation, Sherlock, SherlockParams};
use dbsherlock_telemetry::{AttributeMeta, Dataset, Region, Schema, Value};

/// Thread budgets to measure: 1, N/2, N, plus a fixed 4-thread point.
fn thread_counts() -> Vec<usize> {
    let n = ExecPolicy::Auto.resolve();
    let mut counts = vec![1, (n / 2).max(1), n, 4];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Deterministic synthetic telemetry: `attrs` numeric attributes plus one
/// categorical `state`. The first quarter of the numeric attributes carry
/// the anomaly (a level shift inside the abnormal window), the rest are
/// uncorrelated noise; one noise attribute is salted with NaNs so the
/// non-finite row skipping in both paths is actually exercised.
fn build_case(rows: usize, attrs: usize) -> (Dataset, Region) {
    let mut metas: Vec<AttributeMeta> =
        (0..attrs).map(|k| AttributeMeta::numeric(format!("m{k}"))).collect();
    metas.push(AttributeMeta::categorical("state"));
    let schema = Schema::from_attrs(metas).expect("bench schema");
    let mut d = Dataset::new(schema);
    let lo = rows / 3;
    let hi = lo + (rows / 5).max(1);
    let signal_attrs = (attrs / 4).max(1);
    for i in 0..rows {
        let abnormal = (lo..hi).contains(&i);
        let mut values: Vec<Value> = Vec::with_capacity(attrs + 1);
        for k in 0..attrs {
            let jitter = ((i * 31 + k * 17) % 97) as f64 * 0.11;
            let v = if k < signal_attrs {
                if abnormal {
                    80.0 + jitter
                } else {
                    10.0 + jitter
                }
            } else if k == signal_attrs && i % 13 == 0 {
                f64::NAN
            } else {
                ((i * 7 + k * 13) % 89) as f64
            };
            values.push(Value::Num(v));
        }
        let state = d.intern(attrs, if abnormal { "bad" } else { "ok" }).expect("intern");
        values.push(state);
        d.push_row(i as f64, &values).expect("bench row");
    }
    (d, Region::from_range(lo..hi))
}

/// Engine preloaded with causal models so the rank stage is part of every
/// measured explain, not just predicate generation.
fn engine(dataset: &Dataset, abnormal: &Region, exec: ExecPolicy) -> Sherlock {
    let mut sherlock = Sherlock::new(SherlockParams::default().with_exec(exec));
    let seed = sherlock.explain(dataset, abnormal, None);
    sherlock.feedback("injected shift", &seed.predicates);
    sherlock.feedback("red herring", &[]);
    sherlock
}

/// Bit-exact fingerprint of one explanation.
fn fingerprint(e: &Explanation) -> String {
    let causes: Vec<String> =
        e.all_causes.iter().map(|c| format!("{}:{}", c.cause, c.confidence.to_bits())).collect();
    format!("{}|{}", e.predicates_display(), causes.join(","))
}

/// Time `explain` repetitions of a closure, returning (elapsed seconds,
/// iterations). One warm-up call sizes the iteration count so fast cells
/// are measured over several runs while slow cells don't stall the sweep.
fn measure(mut run: impl FnMut() -> Explanation) -> (f64, usize) {
    let warm = Instant::now();
    let _ = run();
    let once = warm.elapsed().as_secs_f64();
    let iters = ((0.3 / once.max(1e-9)) as usize).clamp(1, 20);
    let start = Instant::now();
    for _ in 0..iters {
        let _ = run();
    }
    (start.elapsed().as_secs_f64(), iters)
}

/// One matrix cell: assert parity, then time both paths. Returns
/// (JSON rows, columnar single-thread speedup vs scalar).
fn run_cell(rows: usize, attrs: usize, threads: &[usize]) -> (Vec<serde_json::Value>, f64) {
    let (dataset, abnormal) = build_case(rows, attrs);
    let scalar_engine = engine(&dataset, &abnormal, ExecPolicy::Serial);

    // Parity first: scalar vs columnar at every thread budget.
    let scalar_print = fingerprint(
        &scalar_engine.explain_scalar(&dataset, &abnormal, None).expect("scalar explain"),
    );
    for &t in threads {
        let exec = if t == 1 { ExecPolicy::Serial } else { ExecPolicy::Threads(t) };
        let columnar = engine(&dataset, &abnormal, exec);
        let print = fingerprint(&columnar.try_explain(&dataset, &abnormal, None).expect("explain"));
        assert_eq!(
            scalar_print, print,
            "columnar output at {t} threads diverged from the scalar shim \
             (rows {rows}, attrs {attrs})"
        );
    }

    let mut out = Vec::new();
    let (scalar_elapsed, scalar_iters) = measure(|| {
        scalar_engine.explain_scalar(&dataset, &abnormal, None).expect("scalar explain")
    });
    let scalar_rate = scalar_iters as f64 / scalar_elapsed;
    out.push(serde_json::json!({
        "rows": rows, "attrs": attrs, "threads": 1, "path": "scalar",
        "elapsed_s": scalar_elapsed, "iters": scalar_iters,
        "explains_per_sec": scalar_rate,
        "rows_per_sec": scalar_rate * rows as f64,
    }));

    let mut single_thread_speedup = 0.0;
    for &t in threads {
        let exec = if t == 1 { ExecPolicy::Serial } else { ExecPolicy::Threads(t) };
        let columnar = engine(&dataset, &abnormal, exec);
        let (elapsed, iters) =
            measure(|| columnar.try_explain(&dataset, &abnormal, None).expect("explain"));
        let rate = iters as f64 / elapsed;
        let speedup = rate / scalar_rate;
        if t == 1 {
            single_thread_speedup = speedup;
        }
        println!(
            "rows {rows:>6}  attrs {attrs:>4}  threads {t:>2}: \
             columnar {rate:>7.2} explains/sec, scalar {scalar_rate:>7.2} ({speedup:.2}x)"
        );
        out.push(serde_json::json!({
            "rows": rows, "attrs": attrs, "threads": t, "path": "columnar",
            "elapsed_s": elapsed, "iters": iters,
            "explains_per_sec": rate,
            "rows_per_sec": rate * rows as f64,
            "speedup_vs_scalar": speedup,
        }));
    }
    (out, single_thread_speedup)
}

fn smoke() {
    let (rows, attrs) = (240, 6);
    let (_, speedup) = run_cell(rows, attrs, &[1, 2]);
    assert!(speedup.is_finite() && speedup > 0.0, "degenerate smoke speedup {speedup}");
    println!("columnar_scaling smoke: parity held at 1 and 2 threads — ok");
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }

    let threads = thread_counts();
    let row_counts = [1_000usize, 10_000, 50_000];
    let attr_counts = [8usize, 32, 128];
    let n = ExecPolicy::Auto.resolve();
    println!(
        "columnar scaling sweep: rows {row_counts:?} × attrs {attr_counts:?} × threads {threads:?}"
    );

    let mut cells = Vec::new();
    let mut largest_speedup = 0.0;
    for &rows in &row_counts {
        for &attrs in &attr_counts {
            let (mut out, speedup) = run_cell(rows, attrs, &threads);
            cells.append(&mut out);
            if rows == row_counts[row_counts.len() - 1]
                && attrs == attr_counts[attr_counts.len() - 1]
            {
                largest_speedup = speedup;
            }
        }
    }
    println!(
        "largest config ({} rows × {} attrs): columnar {largest_speedup:.2}x scalar single-thread",
        row_counts[row_counts.len() - 1],
        attr_counts[attr_counts.len() - 1],
    );

    write_json(
        "BENCH_columnar_scaling",
        &serde_json::json!({
            "cpu_count": n,
            "thread_counts_measured": threads,
            "row_counts": row_counts,
            "attr_counts": attr_counts,
            "bit_identical_scalar_vs_columnar": true,
            "columnar_speedup_vs_scalar_single_thread_largest_config": largest_speedup,
            "rows": cells,
        }),
    );
}
