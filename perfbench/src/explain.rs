//! The closed-loop explain workloads, `tpcc` and `wide`.
//!
//! One client thread, closed loop: every case goes through
//! `Sherlock::try_explain` with default parameters (what a DBA waits for
//! after marking an anomaly), then the whole case set goes through
//! `Sherlock::explain_batch`, and the round repeats until the run's time is
//! up. Every output is checked: each call's explanation fingerprint must
//! equal the first one seen for that case, and after the timed loop that
//! first fingerprint must equal the row-wise `Sherlock::explain_scalar`
//! oracle's.

use std::path::Path;
use std::time::Instant;

use dbsherlock_core::{
    try_generate_predicates_snapshot, Case, CausalModel, DomainKnowledge, ExecPolicy, Explanation,
    ModelRepository, ModelStore, Sherlock, SherlockError, SherlockParams,
};
use dbsherlock_simulator::{standard_scenario, AnomalyKind, Benchmark, VARIATIONS};
use dbsherlock_telemetry::{AttributeMeta, Dataset, Region, Schema, Value};
use serde_json::json;

use crate::report::{self, mean, median, metric, quantile, ratio, Metric, Outcome, SplitMix};
use crate::trace::Tracer;
use crate::Config;

/// Which case set to diagnose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The paper's §8.2 corpus: 10 classes × 11 variants of TPC-C-like
    /// incidents (150–200 rows × 79 attributes), one model per class and
    /// the MySQL/Linux domain rules. Generate and rank split the work and
    /// each case fits in a core's L2 cache.
    Tpcc,
    /// Few very wide synthetic incidents (the `columnar_scaling` shape):
    /// the generate kernels do nearly all the work and each case is far
    /// larger than L2.
    Wide,
}

/// Case-set sizes; the smoke test shrinks them.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub tpcc_variants: usize,
    pub wide_cases: usize,
    pub wide_rows: usize,
    pub wide_attrs: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        tpcc_variants: VARIATIONS.len(),
        wide_cases: 6,
        wide_rows: 20_000,
        wide_attrs: 128,
    };
    pub const SMOKE: Sizes =
        Sizes { tpcc_variants: 1, wide_cases: 2, wide_rows: 2_000, wide_attrs: 16 };
}

/// One diagnosis request with its ground truth.
pub struct Incident {
    pub cause: String,
    pub data: Dataset,
    pub abnormal: Region,
}

/// Engines over the same stored models: the default `Auto` policy that is
/// measured, and a `Serial` twin for the traced speed-up ratios.
pub struct Engines {
    pub auto: Sherlock,
    pub serial: Sherlock,
    pub domain: DomainKnowledge,
}

impl Engines {
    pub fn new(repo: ModelRepository, domain: DomainKnowledge) -> Self {
        let engine = |exec| {
            let mut sherlock = Sherlock::new(SherlockParams::default().with_exec(exec))
                .with_domain_knowledge(domain.clone());
            *sherlock.repository_mut() = repo.clone();
            sherlock
        };
        Engines { auto: engine(ExecPolicy::Auto), serial: engine(ExecPolicy::Serial), domain }
    }
}

/// Per-stage set-up times of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub inputs_s: f64,
    pub train_s: f64,
    pub save_ms: f64,
    pub load_ms: f64,
}

impl SetupTimes {
    /// Per-field medians over several set-ups.
    pub fn medians(all: &[SetupTimes]) -> SetupTimes {
        let m = |f: fn(&SetupTimes) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
        SetupTimes {
            total_s: m(|t| t.total_s),
            inputs_s: m(|t| t.inputs_s),
            train_s: m(|t| t.train_s),
            save_ms: m(|t| t.save_ms),
            load_ms: m(|t| t.load_ms),
        }
    }

    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("setup.inputs_s", self.inputs_s, "s"),
            metric("setup.train_s", self.train_s, "s"),
            metric("store.save_ms", self.save_ms, "ms"),
            metric("store.load_ms", self.load_ms, "ms"),
        ]
    }
}

/// Bit-exact fingerprint of an explanation: predicates plus every cause's
/// confidence to the bit.
pub fn fingerprint(e: &Explanation) -> String {
    let causes: Vec<String> = e
        .all_causes
        .iter()
        .map(|c| format!("{}:{:016x}", c.cause, c.confidence.to_bits()))
        .collect();
    format!("{}|{}", e.predicates_display(), causes.join(","))
}

/// Train one model per `(cause, dataset, region)` through the DBA's
/// explain → feedback loop.
pub fn train(
    domain: &DomainKnowledge,
    training: &[Incident],
) -> Result<ModelRepository, SherlockError> {
    let mut trainer =
        Sherlock::new(SherlockParams::default()).with_domain_knowledge(domain.clone());
    for t in training {
        let explanation = trainer.try_explain(&t.data, &t.abnormal, None)?;
        trainer.feedback(&t.cause, &explanation.predicates);
    }
    Ok(trainer.repository().clone())
}

/// Save `repo` to a fresh store under `dir` and load it back, timing both.
pub fn store_round_trip(
    dir: &Path,
    repo: &ModelRepository,
) -> Result<(ModelRepository, f64, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let store = ModelStore::new(dir.join("models.sherlock"));
    let t = Instant::now();
    store.save(repo).map_err(|e| format!("store save: {e}"))?;
    let save_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let (loaded, load_report) = store.load().map_err(|e| format!("store load: {e}"))?;
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    if !load_report.warnings.is_empty() {
        return Err(format!("store load warnings: {:?}", load_report.warnings));
    }
    Ok((loaded, save_ms, load_ms))
}

/// The TPC-C-like cases for `seed`, and one training case per class from
/// a separate seed so no test case is its own model's training data.
pub fn tpcc_inputs(seed: u64, variants: usize) -> (Vec<Incident>, Vec<Incident>) {
    let cases = AnomalyKind::ALL
        .iter()
        .flat_map(|&kind| (0..variants).map(move |v| (kind, v)))
        .map(|(kind, variant)| tpcc_incident(kind, variant, seed))
        .collect();
    (cases, tpcc_training(seed))
}

/// One training incident per anomaly class, from the training seed.
pub fn tpcc_training(seed: u64) -> Vec<Incident> {
    AnomalyKind::ALL.iter().map(|&kind| tpcc_incident(kind, 0, seed ^ TRAINING_SALT)).collect()
}

fn tpcc_incident(kind: AnomalyKind, variant: usize, corpus_seed: u64) -> Incident {
    let labeled = standard_scenario(Benchmark::TpccLike, kind, variant, corpus_seed).run();
    let abnormal = labeled.abnormal_region();
    Incident { cause: kind.name().to_string(), data: labeled.data, abnormal }
}

/// Mixed into the workload seed for training inputs.
pub const TRAINING_SALT: u64 = 0x7124_1ab5;

/// A synthetic wide incident: `attrs` numeric attributes plus a categorical
/// `state`. The attributes in `shifted` carry a level shift inside a window
/// placed by the generator; the attribute right after them is salted with
/// NaNs; the rest are noise.
fn wide_incident(
    rng: &mut SplitMix,
    cause: &str,
    rows: usize,
    attrs: usize,
    shifted: std::ops::Range<usize>,
) -> Incident {
    let mut metas: Vec<AttributeMeta> =
        (0..attrs).map(|k| AttributeMeta::numeric(format!("m{k}"))).collect();
    metas.push(AttributeMeta::categorical("state"));
    let schema = Schema::from_attrs(metas).expect("distinct attribute names");
    let mut data = Dataset::new(schema);
    let width = (rows / 8).max(1);
    let lo = rng.range(rows / 10, rows - width - rows / 10);
    let window = lo..lo + width;
    let salted = shifted.end % attrs;
    let mut values: Vec<Value> = Vec::with_capacity(attrs + 1);
    for i in 0..rows {
        let abnormal = window.contains(&i);
        values.clear();
        for k in 0..attrs {
            let v = if shifted.contains(&k) {
                (if abnormal { 80.0 } else { 10.0 }) + rng.unit() * 10.7
            } else if k == salted && i % 13 == 0 {
                f64::NAN
            } else {
                rng.unit() * 89.0
            };
            values.push(Value::Num(v));
        }
        values.push(data.intern(attrs, if abnormal { "bad" } else { "ok" }).expect("categorical"));
        data.push_row(i as f64, &values).expect("schema-consistent row");
    }
    Incident { cause: cause.to_string(), data, abnormal: Region::from_range(window) }
}

/// The wide cases for `seed`: every case shifts the first quarter of the
/// attributes. Training: the true cause from a separate case of the same
/// kind, and a decoy whose shift sits in the last quarter.
pub fn wide_inputs(seed: u64, sizes: Sizes) -> (Vec<Incident>, Vec<Incident>) {
    let (rows, attrs) = (sizes.wide_rows, sizes.wide_attrs);
    let quarter = (attrs / 4).max(1);
    let mut rng = SplitMix::new(seed);
    let cases = (0..sizes.wide_cases)
        .map(|_| wide_incident(&mut rng, WIDE_CAUSE, rows, attrs, 0..quarter))
        .collect();
    let mut train_rng = SplitMix::new(seed ^ TRAINING_SALT);
    let training = vec![
        wide_incident(&mut train_rng, WIDE_CAUSE, rows, attrs, 0..quarter),
        wide_incident(&mut train_rng, "decoy shift", rows, attrs, attrs - quarter..attrs),
    ];
    (cases, training)
}

const WIDE_CAUSE: &str = "level shift";

/// One set-up: inputs, training, store round trip, engines.
fn set_up(shape: Shape, cfg: &Config) -> Result<(Vec<Incident>, Engines, SetupTimes), String> {
    let start = Instant::now();
    let (cases, training) = match shape {
        Shape::Tpcc => tpcc_inputs(cfg.seed, cfg.sizes.tpcc_variants),
        Shape::Wide => wide_inputs(cfg.seed, cfg.sizes),
    };
    let inputs_s = start.elapsed().as_secs_f64();
    let domain = match shape {
        Shape::Tpcc => DomainKnowledge::mysql_linux(),
        // The MySQL/Linux rules name no synthetic attribute.
        Shape::Wide => DomainKnowledge::none(),
    };
    let t = Instant::now();
    let repo = train(&domain, &training).map_err(|e| format!("training failed: {e}"))?;
    let train_s = t.elapsed().as_secs_f64();
    let store_dir = cfg.out_dir.join(format!("store-{}-{}", cfg.workload, std::process::id()));
    let (repo, save_ms, load_ms) = store_round_trip(&store_dir, &repo)?;
    let engines = Engines::new(repo, domain);
    let total_s = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&store_dir);
    Ok((cases, engines, SetupTimes { total_s, inputs_s, train_s, save_ms, load_ms }))
}

/// Checks every explanation against the first one seen for its case.
#[derive(Default)]
struct Checker {
    reference: Vec<Option<String>>,
    attempted: u64,
    errors: Vec<String>,
    mismatches: u64,
}

impl Checker {
    fn new(n: usize) -> Self {
        Checker { reference: vec![None; n], ..Checker::default() }
    }

    fn check(&mut self, case: usize, result: &Result<Explanation, SherlockError>) {
        self.attempted += 1;
        match result {
            Ok(e) => {
                let print = fingerprint(e);
                match &self.reference[case] {
                    None => self.reference[case] = Some(print),
                    Some(reference) if *reference != print => self.mismatches += 1,
                    Some(_) => {}
                }
            }
            Err(e) => self.errors.push(format!("case {case}: {e}")),
        }
    }
}

/// Timings of the untraced rounds.
#[derive(Default)]
struct LoopTimes {
    explain_ms: Vec<f64>,
    batch_s: Vec<f64>,
}

/// One untraced round: every case through `try_explain`, then the whole
/// set through `explain_batch`.
fn untraced_round(
    engines: &Engines,
    cases: &[Incident],
    batch: &[Case<'_>],
    times: &mut LoopTimes,
    checker: &mut Checker,
) {
    for (i, c) in cases.iter().enumerate() {
        let t = Instant::now();
        let result = std::hint::black_box(engines.auto.try_explain(&c.data, &c.abnormal, None));
        times.explain_ms.push(t.elapsed().as_secs_f64() * 1e3);
        checker.check(i, &result);
    }
    let t = Instant::now();
    let results = std::hint::black_box(engines.auto.explain_batch(batch));
    times.batch_s.push(t.elapsed().as_secs_f64());
    for (i, result) in results.iter().enumerate() {
        checker.check(i, result);
    }
}

/// Work counts of the traced replay, summed over traced explains.
#[derive(Default)]
pub struct Counts {
    explains: u64,
    attrs: u64,
    predicates: u64,
    pruned: u64,
    models_scored: u64,
    attrs_prepared: u64,
}

/// Distinct attributes named by the stored models that exist in `data`:
/// the partition spaces the rank stage builds for this case.
fn attrs_prepared(repo: &ModelRepository, data: &Dataset) -> u64 {
    let mut names: Vec<&str> = repo
        .models()
        .iter()
        .flat_map(|m: &CausalModel| m.predicates.iter().map(|p| p.attr.as_str()))
        .filter(|name| data.schema().id_of(name).is_some())
        .collect();
    names.sort_unstable();
    names.dedup();
    names.len() as u64
}

/// Traced diagnosis of one case: the measured `try_explain`, its `Serial`
/// twin, and a replay of its four stages through their public entry
/// points. Returns whether the replay reproduced `try_explain`'s output.
pub fn traced_case(
    tracer: &mut Tracer,
    engines: &Engines,
    id: u64,
    data: &Dataset,
    abnormal: &Region,
    counts: &mut Counts,
) -> Result<bool, SherlockError> {
    let case_span = tracer.enter("case", id);
    let explained = tracer
        .span("diagnose.try_explain", id, || engines.auto.try_explain(data, abnormal, None))?;

    let params = engines.auto.params();
    let repo = engines.auto.repository();
    let n_rows = data.n_rows();
    let clipped = abnormal.clip(n_rows);
    let normal = clipped.complement(n_rows);
    let budget = params.budget().arm();
    let stages = tracer.enter("explain.stages", id);
    let snapshot = tracer.span("telemetry.snapshot", id, || data.snapshot());
    let raw = tracer.span("generate.predicates", id, || {
        try_generate_predicates_snapshot(&snapshot, &clipped, &normal, params, &budget)
    })?;
    let n_raw = raw.len() as u64;
    let predicates = tracer.span("domain.prune", id, || engines.domain.prune(data, raw, params));
    let ranked = tracer
        .span("causal.rank", id, || repo.try_rank(data, &clipped, &normal, params, &budget))?;
    tracer.exit(stages);
    tracer.span("diagnose.try_explain_serial", id, || {
        engines.serial.try_explain(data, abnormal, None)
    })?;
    tracer.exit(case_span);

    counts.explains += 1;
    counts.attrs += data.schema().len() as u64;
    counts.predicates += n_raw;
    counts.pruned += n_raw - predicates.len() as u64;
    counts.models_scored += repo.models().len() as u64;
    counts.attrs_prepared += attrs_prepared(repo, data);
    let replayed = Explanation {
        predicates,
        causes: Vec::new(),
        all_causes: ranked,
        interventions: Vec::new(),
    };
    Ok(fingerprint(&replayed) == fingerprint(&explained))
}

/// Per-layer metrics of the diagnosis stages from a tracer holding
/// `traced_case` spans, and `explain_batch` spans over the same cases.
pub fn stage_metrics(tracer: &Tracer, counts: &Counts) -> Vec<Metric> {
    let n = counts.explains.max(1) as f64;
    let own = tracer.self_ms();
    let per_explain = |name: &str| own.get(name).copied().unwrap_or(0.0) / n;
    let explain_ms = mean(&tracer.durations_ms("diagnose.try_explain"));
    let serial_ms = mean(&tracer.durations_ms("diagnose.try_explain_serial"));
    let serial_total: f64 = tracer.durations_ms("diagnose.try_explain_serial").iter().sum();
    let batch_total: f64 = tracer.durations_ms("diagnose.explain_batch").iter().sum();
    let stages = ["telemetry.snapshot", "generate.predicates", "domain.prune", "causal.rank"]
        .iter()
        .map(|s| per_explain(s))
        .sum::<f64>();
    let threads = ExecPolicy::Auto.resolve() as f64;
    let (c, e) = (counts, |x: u64| x as f64 / n);
    vec![
        metric("telemetry.snapshot_ms", per_explain("telemetry.snapshot"), "ms"),
        metric("generate.ms", per_explain("generate.predicates"), "ms"),
        metric("generate.attrs", e(c.attrs), "count"),
        metric("generate.predicates", e(c.predicates), "count"),
        metric("generate.yield", ratio(c.predicates as f64, c.attrs as f64), "ratio"),
        metric("domain.ms", per_explain("domain.prune"), "ms"),
        metric("domain.pruned", e(c.pruned), "count"),
        metric("causal.rank_ms", per_explain("causal.rank"), "ms"),
        metric("causal.models_scored", e(c.models_scored), "count"),
        metric("causal.attrs_prepared", e(c.attrs_prepared), "count"),
        metric("diagnose.explain_ms", explain_ms, "ms"),
        metric("diagnose.self_ms", explain_ms - stages, "ms"),
        metric("diagnose.stage_coverage", ratio(stages, explain_ms), "ratio"),
        metric("exec.inner_speedup", ratio(serial_ms, explain_ms), "ratio"),
        metric("exec.batch_efficiency", ratio(serial_total, batch_total * threads), "ratio"),
    ]
}

/// What the traced rounds saw besides their spans.
#[derive(Default)]
struct TracedRounds {
    counts: Counts,
    /// Replays whose output differed from `try_explain`'s.
    diverged: u64,
    errors: Vec<String>,
}

/// One traced round: `traced_case` on every case, then one traced
/// `explain_batch` over them all.
fn traced_round(
    tracer: &mut Tracer,
    engines: &Engines,
    cases: &[Incident],
    batch: &[Case<'_>],
    round: u64,
    seen: &mut TracedRounds,
) {
    for (i, c) in cases.iter().enumerate() {
        match traced_case(tracer, engines, i as u64, &c.data, &c.abnormal, &mut seen.counts) {
            Ok(true) => {}
            Ok(false) => seen.diverged += 1,
            Err(e) => seen.errors.push(format!("case {i}: {e}")),
        }
    }
    let results = tracer.span("diagnose.explain_batch", round, || {
        std::hint::black_box(engines.auto.explain_batch(batch))
    });
    seen.errors
        .extend(results.iter().filter_map(|r| r.as_ref().err()).map(|e| format!("batch: {e}")));
}

/// Each case's median latency. The samples hold one row of `n_cases`
/// latencies per round (every case is explained once per round, in order);
/// a case's median over the rounds is robust to a stall during a few of
/// them, and the end-to-end percentiles are taken over cases.
fn per_case_medians(samples: &[f64], n_cases: usize) -> Vec<f64> {
    (0..n_cases)
        .map(|i| median(&samples.iter().skip(i).step_by(n_cases).copied().collect::<Vec<_>>()))
        .collect()
}

/// Run the `tpcc` or `wide` workload.
pub fn run(shape: Shape, cfg: &Config) -> Result<Outcome, String> {
    let mut all_setups = Vec::with_capacity(cfg.setup_reps);
    let mut last = None;
    for _ in 0..cfg.setup_reps {
        // Each set-up starts from nothing, as a fresh process would.
        drop(last.take());
        let (cases, engines, times) = set_up(shape, cfg)?;
        all_setups.push(times);
        last = Some((cases, engines));
    }
    let (cases, engines) = last.expect("at least one set-up");
    let setup = SetupTimes::medians(&all_setups);

    // Warm-up: one untimed pass touches every case and fills caches.
    for c in &cases {
        let _ = engines.auto.try_explain(&c.data, &c.abnormal, None);
    }

    let mut out = Outcome::default();
    let mut checker = Checker::new(cases.len());
    let batch: Vec<Case<'_>> = cases.iter().map(|c| Case::new(&c.data, &c.abnormal)).collect();
    let mut times = LoopTimes::default();
    let mut tracer = Tracer::new();
    let mut traced = TracedRounds::default();
    // A traced run alternates untraced and traced rounds, so both see the
    // same host conditions and their difference is the tracing overhead.
    let start = Instant::now();
    for round in 0u64.. {
        if cfg.trace && round % 2 == 1 {
            traced_round(&mut tracer, &engines, &cases, &batch, round, &mut traced);
        } else {
            untraced_round(&engines, &cases, &batch, &mut times, &mut checker);
        }
        if start.elapsed().as_secs_f64() >= cfg.seconds && (!cfg.trace || round % 2 == 1) {
            break;
        }
    }

    // The row-wise oracle, outside the timed loop.
    let mut oracle_mismatches = 0;
    let mut top1 = 0;
    for (i, c) in cases.iter().enumerate() {
        checker.attempted += 1;
        match engines.auto.explain_scalar(&c.data, &c.abnormal, None) {
            Ok(e) => {
                if checker.reference[i].as_deref() != Some(fingerprint(&e).as_str()) {
                    oracle_mismatches += 1;
                }
                if e.top_cause().is_some_and(|top| top.cause == c.cause) {
                    top1 += 1;
                }
            }
            Err(e) => checker.errors.push(format!("scalar case {i}: {e}")),
        }
    }
    out.attempted = checker.attempted;
    out.fail(
        checker.errors.len() as u64,
        format!("diagnosis errors {:?}", checker.errors.iter().take(3).collect::<Vec<_>>()),
    );
    out.fail(checker.mismatches, "explanation differs between try_explain calls or explain_batch");
    out.fail(oracle_mismatches, "explanation differs from the explain_scalar oracle");

    let batch_rates: Vec<f64> = times.batch_s.iter().map(|s| cases.len() as f64 / s).collect();
    let per_case = per_case_medians(&times.explain_ms, cases.len());
    let p50 = median(&per_case);
    let p90 = quantile(&per_case, 0.9);
    let rate = median(&batch_rates);
    let name = if shape == Shape::Tpcc { "tpcc" } else { "wide" };
    out.lines.push(format!(
        "{name}: {} cases, {} explains timed, {} batches timed",
        cases.len(),
        times.explain_ms.len(),
        times.batch_s.len()
    ));
    out.lines.push(format!("  setup_s              {:>10.4} s", setup.total_s));
    out.lines
        .push(format!("  explain_p50_ms       {p50:>10.4} ms  (over cases of each case's median)"));
    out.lines.push(format!("  explain_p90_ms       {p90:>10.4} ms"));
    out.lines.push(format!("  batch_explains_per_s {rate:>10.2} 1/s"));
    out.lines.push(format!("  top-1 correct cause  {top1}/{} cases", cases.len()));

    let digests: Vec<&str> = checker.reference.iter().map(|r| r.as_deref().unwrap_or("")).collect();
    out.deterministic = json!({
        "cases": cases.len(),
        "rows": cases.iter().map(|c| c.data.n_rows()).sum::<usize>(),
        "attributes": cases.first().map_or(0, |c| c.data.schema().len()),
        "models": engines.auto.repository().models().len(),
        "explanation_digest": report::digest(digests),
        "top1_correct": top1,
    });
    out.timing = json!({
        "setup_s": all_setups.iter().map(|t| t.total_s).collect::<Vec<_>>(),
        "explain_ms": report::summary(&times.explain_ms),
        "batch_explains_per_s": report::summary(&batch_rates),
    });
    out.end_to_end = vec![
        metric("setup_s", setup.total_s, "s"),
        metric("p50_ms", p50, "ms"),
        metric("p90_ms", p90, "ms"),
        metric("throughput_per_s", rate, "1/s"),
    ];

    if cfg.trace {
        let TracedRounds { counts, diverged, errors } = traced;
        out.attempted += counts.explains;
        out.fail(diverged, "stage replay differs from try_explain");
        out.fail(
            errors.len() as u64,
            format!("traced diagnosis errors {:?}", errors.iter().take(3).collect::<Vec<_>>()),
        );
        let traced = per_case_medians(&tracer.durations_ms("diagnose.try_explain"), cases.len());
        let traced_p50 = median(&traced);
        out.per_layer = stage_metrics(&tracer, &counts);
        out.per_layer.extend(setup.metrics());
        out.per_layer.push(metric("trace.overhead_frac", traced_p50 / p50 - 1.0, "ratio"));
        out.per_layer.extend(crate::stream::absent_metrics());
        crate::write_spans(cfg, &tracer)?;
    }
    Ok(out)
}
