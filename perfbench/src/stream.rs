//! The open-loop streaming workload, `stream`.
//!
//! An in-process `Daemon` with its default configuration (2 workers, ring
//! 512, detection every 64 rows) loads the TPC-C models from a
//! `ModelStore`. One feeder thread plays every tenant's protocol stream
//! through `Daemon::handle_line` at a fixed aggregate row rate, whatever the
//! daemon does (open loop). Each tenant streams a sequence of short
//! TPC-C-like incidents and re-sends its header before each one, which
//! clears the tenant's window.
//!
//! An incident is 160 rows with an 11-row anomaly starting at row 36–45:
//! both detection windows (rows 0–63 and 0–127) contain the whole anomaly,
//! which stays under the detector's 20% cluster cap even in the 64-row
//! window, and the 32 trailing rows give the triggered diagnosis time to
//! read the window before the next header clears it. The tenants stream
//! incidents from a seeded pool that rotates over [`CLASSES`].
//!
//! The stream measures the daemon, not the detector's recall (which
//! `table7_auto_detection` measures): set-up keeps only incidents whose
//! anomaly `try_detect_anomaly` finds in both windows, built through the
//! public ring and parser, and redraws the others; the count of redraws is
//! reported. The daemon must then alert on every incident it is fed.
//!
//! Alert latency runs from the moment the row that triggered a diagnosis
//! was due to the moment its `explanation` reached the session's sink, so a
//! feeder stall counts against the rows it delays.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dbsherlock_core::{try_detect_anomaly, Case, DomainKnowledge, SherlockParams};
use dbsherlock_sherlockd::{Daemon, DaemonConfig, Response, Session, Sink, TenantRing};
use dbsherlock_simulator::{AnomalyKind, Injection, Scenario, WorkloadConfig};
use dbsherlock_telemetry::{parse_header_lossy, parse_line_lossy, to_csv, Dataset};
use serde_json::json;

use crate::explain::{self, Engines, SetupTimes};
use crate::report::{self, mean, median, metric, quantile, ratio, Metric, Outcome, SplitMix};
use crate::trace::Tracer;
use crate::Config;

/// Anomaly classes the pool rotates through: every class but Poor Physical
/// Design, whose anomaly the detector found in none of 300 probe incidents
/// of this shape (the `tpcc` workload diagnoses it).
pub const CLASSES: [AnomalyKind; 9] = [
    AnomalyKind::PoorlyWrittenQuery,
    AnomalyKind::WorkloadSpike,
    AnomalyKind::IoSaturation,
    AnomalyKind::DatabaseBackup,
    AnomalyKind::TableRestore,
    AnomalyKind::CpuSaturation,
    AnomalyKind::FlushLogTable,
    AnomalyKind::NetworkCongestion,
    AnomalyKind::LockContention,
];

/// Incidents per class in the pool.
pub const POOL_PER_CLASS: usize = 8;

/// Draws per pool slot before set-up gives up: a detector that misses this
/// often is broken, and the run fails instead of searching forever.
const MAX_DRAWS: usize = 20;

/// Rows per incident (two detection triggers plus a 32-row tail).
pub const INCIDENT_ROWS: usize = 160;

/// Injected rows per incident: one more than half the detector's τ = 20
/// median-filter window, so the anomaly survives the filter, and under
/// 20% of the first 64-row window even with a neighbouring row.
pub const ANOMALY_ROWS: usize = 11;

/// Load shape; the smoke test shrinks it.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    pub tenants: usize,
    /// Aggregate offered rows per second across tenants.
    pub rows_per_s: f64,
}

impl Load {
    /// 32 tenants at 125 rows/s each: about 60 diagnoses a second of a few
    /// ms each keep the two workers well under half busy, and a 20 s run
    /// yields about 500 alerts.
    pub const FULL: Load = Load { tenants: 32, rows_per_s: 4000.0 };
    pub const SMOKE: Load = Load { tenants: 3, rows_per_s: 1500.0 };
}

/// One incident of the pool.
struct Incident {
    class: AnomalyKind,
    /// Header line first, then one line per row.
    lines: Vec<String>,
    /// Injected rows, relative to the incident's first row.
    truth: std::ops::Range<u64>,
}

/// The window a tenant's ring holds after the first `rows` rows of
/// `incident`, built through the daemon's public ring and parser.
fn window(incident: &Incident, rows: usize) -> Result<Dataset, String> {
    let mut warnings = Vec::new();
    let schema =
        parse_header_lossy(&incident.lines[0], &mut warnings).map_err(|e| e.to_string())?;
    let mut ring = TenantRing::new(schema, DaemonConfig::default().ring_rows);
    for (line_no, line) in incident.lines[1..=rows].iter().enumerate() {
        let (timestamp, cells) = parse_line_lossy(ring.schema(), line, line_no + 2, &mut warnings)
            .ok_or("unparsable row")?;
        ring.push(timestamp, cells);
    }
    let snapshot = ring.to_dataset();
    if !warnings.is_empty() || snapshot.skipped > 0 {
        return Err(format!("incident window is not clean: {warnings:?}"));
    }
    Ok(snapshot.dataset)
}

/// Does the detector find `incident`'s anomaly in the first `rows` rows?
fn detected(incident: &Incident, rows: usize) -> Result<bool, String> {
    let params = SherlockParams::default();
    let detection = try_detect_anomaly(&window(incident, rows)?, &params, &params.budget().arm())
        .map_err(|e| format!("detection failed: {e}"))?;
    Ok(detection.is_some_and(|d| {
        d.region.indices().iter().any(|&row| incident.truth.contains(&(row as u64)))
    }))
}

/// Every tenant's sequence of incidents, drawn from a screened pool.
struct Streams {
    pool: Vec<Incident>,
    /// Per tenant, the pool index of each incident it streams.
    order: Vec<Vec<usize>>,
    /// Draws the detector missed in a window, replaced by the next draw.
    redrawn: u64,
}

impl Streams {
    fn get(&self, tenant: usize, incident: usize) -> &Incident {
        &self.pool[self.order[tenant][incident]]
    }

    /// A stable id for a tenant's incident, for spans.
    fn id(&self, tenant: usize, incident: usize) -> u64 {
        (tenant * self.order[0].len() + incident) as u64
    }
}

/// Simulate the pool (seeded) and lay out `per_tenant` incidents for each
/// tenant, each tenant starting at a different place in the pool.
fn streams(seed: u64, tenants: usize, per_tenant: usize) -> Result<Streams, String> {
    let mut pool = Vec::with_capacity(CLASSES.len() * POOL_PER_CLASS);
    let mut redrawn = 0;
    for slot in 0..CLASSES.len() * POOL_PER_CLASS {
        let class = CLASSES[slot % CLASSES.len()];
        let mut rng = SplitMix::new(seed ^ (slot as u64).wrapping_mul(0x9e37_79b9));
        for draw in 0.. {
            if draw == MAX_DRAWS {
                return Err(format!("the detector missed {MAX_DRAWS} draws of {}", class.name()));
            }
            let incident_seed = rng.next_u64();
            let start = SplitMix::new(incident_seed).range(36, 46);
            let labeled =
                Scenario::new(WorkloadConfig::tpcc_default(), INCIDENT_ROWS, incident_seed)
                    .with_injection(Injection::new(class, start, ANOMALY_ROWS))
                    .run();
            let lines = to_csv(&labeled.data).lines().map(str::to_string).collect();
            let incident =
                Incident { class, lines, truth: start as u64..(start + ANOMALY_ROWS) as u64 };
            let detect_every = DaemonConfig::default().detect_every;
            if detected(&incident, detect_every)? && detected(&incident, 2 * detect_every)? {
                pool.push(incident);
                break;
            }
            redrawn += 1;
        }
    }
    let order = (0..tenants)
        .map(|tenant| (0..per_tenant).map(|i| (tenant * per_tenant + i) % pool.len()).collect())
        .collect();
    Ok(Streams { pool, order, redrawn })
}

/// A response as it reached a session's sink.
struct Event {
    at: Instant,
    tenant: usize,
    response: Response,
}

/// A row whose arrival made the daemon enqueue a diagnosis.
struct Trigger {
    tenant: usize,
    incident: usize,
    /// Rows of the incident in the window when it fired.
    rows: usize,
    due: Instant,
    sent: Instant,
    traced: bool,
}

struct Running {
    daemon: Arc<Daemon>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// What a set-up leaves ready: every tenant's incidents, the running
/// daemon, and engines mirroring the daemon's for the traced replay.
struct Ready {
    streams: Streams,
    running: Running,
    engines: Engines,
}

/// One set-up: incidents, models, store, daemon load and worker spawn.
fn set_up(cfg: &Config, per_tenant: usize) -> Result<(Ready, SetupTimes), String> {
    let start = Instant::now();
    let streams = streams(cfg.seed, cfg.load.tenants, per_tenant)?;
    let training = explain::tpcc_training(cfg.seed);
    let inputs_s = start.elapsed().as_secs_f64();
    let t = Instant::now();
    let repo = explain::train(&DomainKnowledge::mysql_linux(), &training)
        .map_err(|e| format!("training failed: {e}"))?;
    let train_s = t.elapsed().as_secs_f64();

    let store_dir = cfg.out_dir.join(format!("store-stream-{}", std::process::id()));
    let (_, save_ms, _) = explain::store_round_trip(&store_dir, &repo)?;
    let daemon_cfg = DaemonConfig {
        store_path: Some(store_dir.join("models.sherlock")),
        ..DaemonConfig::default()
    };
    let t = Instant::now();
    let (daemon, warnings) = Daemon::new(daemon_cfg).map_err(|e| format!("daemon start: {e}"))?;
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    if !warnings.is_empty() || daemon.n_models() != repo.models().len() {
        return Err(format!(
            "daemon loaded {} models with warnings {warnings:?}",
            daemon.n_models()
        ));
    }
    let daemon = Arc::new(daemon);
    let workers = daemon.spawn_workers();
    let total_s = start.elapsed().as_secs_f64();
    // The replay engines mirror the daemon's: default parameters, no
    // domain rules, the stored models.
    let engines = Engines::new(repo, DomainKnowledge::none());
    let ready = Ready { streams, running: Running { daemon, workers }, engines };
    Ok((ready, SetupTimes { total_s, inputs_s, train_s, save_ms, load_ms }))
}

/// Drain the daemon and remove its store; returns whether the final save
/// verified clean.
fn shut_down(cfg: &Config, running: Running) -> bool {
    let report = running.daemon.drain(running.workers);
    let _ =
        std::fs::remove_dir_all(cfg.out_dir.join(format!("store-stream-{}", std::process::id())));
    report.clean && report.store_verified()
}

/// What the feeder observed.
struct Fed {
    rows: u64,
    /// Time inside `handle_line` per row line, microseconds.
    ingest_us: Vec<f64>,
    lag_ms: Vec<f64>,
    triggers: Vec<Trigger>,
    /// Per tenant, per incident: (absolute seq of its first row, header send time).
    starts: Vec<Vec<(u64, Instant)>>,
}

/// Play every tenant's stream, all tenants together offering
/// `rows_per_s`. With a tracer, every tenant's odd-numbered incidents
/// are traced, so traced and untraced alerts see the same host conditions.
fn feed(
    daemon: &Daemon,
    streams: &Streams,
    load: Load,
    events: &Arc<Mutex<Vec<Event>>>,
    mut tracer: Option<&mut Tracer>,
) -> Fed {
    let tenants = streams.order.len();
    let mut sessions: Vec<Session> = (0..tenants)
        .map(|tenant| {
            let events = Arc::clone(events);
            let sink: Sink = Arc::new(move |response: &Response| {
                let at = Instant::now();
                events.lock().expect("event log").push(Event {
                    at,
                    tenant,
                    response: response.clone(),
                });
            });
            Session::new(sink)
        })
        .collect();
    for (tenant, session) in sessions.iter_mut().enumerate() {
        daemon.handle_line(session, &format!("tenant tenant-{tenant:02}"));
    }
    // Each tenant sends at rows_per_s / tenants, its phase shifted by an
    // even share of an incident, so diagnoses arrive spread out instead of
    // in lockstep bursts.
    let rows_per_tenant = streams.order[0].len() * INCIDENT_ROWS;
    let tenant_rate = load.rows_per_s / tenants as f64;
    let mut schedule: Vec<(f64, usize, usize)> = (0..tenants)
        .flat_map(|tenant| {
            let phase = (tenant * INCIDENT_ROWS) as f64 / tenants as f64;
            (0..rows_per_tenant).map(move |row| ((row as f64 + phase) / tenant_rate, tenant, row))
        })
        .collect();
    schedule.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut fed = Fed {
        rows: 0,
        ingest_us: Vec::with_capacity(schedule.len()),
        lag_ms: Vec::with_capacity(schedule.len()),
        triggers: Vec::new(),
        starts: vec![Vec::new(); tenants],
    };
    let detect_every = DaemonConfig::default().detect_every;
    let origin = Instant::now();
    for &(at_s, tenant, row) in &schedule {
        let (incident, local) = (row / INCIDENT_ROWS, row % INCIDENT_ROWS);
        let due = origin + Duration::from_secs_f64(at_s);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        fed.lag_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        let lines = &streams.get(tenant, incident).lines;
        let session = &mut sessions[tenant];
        if local == 0 {
            fed.starts[tenant].push((row as u64, Instant::now()));
            daemon.handle_line(session, &lines[0]);
        }
        let traced = tracer.is_some() && incident % 2 == 1;
        let sent = Instant::now();
        match tracer.as_deref_mut() {
            Some(tracer) if traced => {
                tracer.span("sherlockd.handle_line", streams.id(tenant, incident), || {
                    daemon.handle_line(session, &lines[local + 1])
                });
            }
            _ => {
                daemon.handle_line(session, &lines[local + 1]);
            }
        }
        fed.ingest_us.push(sent.elapsed().as_secs_f64() * 1e6);
        fed.rows += 1;
        if (local + 1) % detect_every == 0 {
            fed.triggers.push(Trigger { tenant, incident, rows: local + 1, due, sent, traced });
        }
    }
    fed
}

/// Per-incident verdict from the responses.
#[derive(Default, Clone)]
struct Verdict {
    alerts: u64,
    overlapping: u64,
    top1: u64,
    problems: Vec<String>,
}

/// An alert matched to the trigger it answers.
struct Alert {
    trigger: usize,
    latency_ms: f64,
}

/// Attribute every response to its incident and every alert to the
/// latest trigger of its tenant sent before the alert arrived.
fn judge(streams: &Streams, fed: &Fed, events: &[Event]) -> (Vec<Vec<Verdict>>, Vec<Alert>) {
    let mut verdicts: Vec<Vec<Verdict>> =
        streams.order.iter().map(|s| vec![Verdict::default(); s.len()]).collect();
    let mut by_tenant: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, t) in fed.triggers.iter().enumerate() {
        by_tenant.entry(t.tenant).or_default().push(i);
    }
    let incident_at = |tenant: usize, at: Instant| {
        fed.starts[tenant].iter().rposition(|&(_, sent)| sent <= at).unwrap_or(0)
    };
    let mut alerts = Vec::new();
    for event in events {
        let tenant = event.tenant;
        match &event.response {
            Response::Explanation { seq_range: (lo, hi), top_cause, .. } => {
                let incident =
                    fed.starts[tenant].iter().rposition(|&(first, _)| first <= *lo).unwrap_or(0);
                let truth = &streams.get(tenant, incident).truth;
                let base = fed.starts[tenant][incident].0;
                let verdict = &mut verdicts[tenant][incident];
                verdict.alerts += 1;
                if *lo < base + truth.end
                    && *hi >= base + truth.start
                    && *hi < base + INCIDENT_ROWS as u64
                {
                    verdict.overlapping += 1;
                } else {
                    verdict.problems.push(format!("alert rows {lo}..={hi} miss the injected rows"));
                }
                if top_cause
                    .as_ref()
                    .is_some_and(|c| c.cause == streams.get(tenant, incident).class.name())
                {
                    verdict.top1 += 1;
                }
                let trigger = by_tenant.get(&tenant).and_then(|ids| {
                    ids.iter().rev().find(|&&i| fed.triggers[i].sent <= event.at).copied()
                });
                if let Some(trigger) = trigger {
                    let latency_ms =
                        event.at.saturating_duration_since(fed.triggers[trigger].due).as_secs_f64()
                            * 1e3;
                    alerts.push(Alert { trigger, latency_ms });
                }
            }
            Response::Ok { .. } | Response::Stats(_) | Response::Bye => {}
            other => verdicts[tenant][incident_at(tenant, event.at)]
                .problems
                .push(other.render().trim_end().to_string()),
        }
    }
    for (tenant, stream) in verdicts.iter_mut().enumerate() {
        for (incident, verdict) in stream.iter_mut().enumerate().filter(|(_, v)| v.overlapping == 0)
        {
            let i = streams.get(tenant, incident);
            verdict.problems.push(format!(
                "tenant {tenant} incident {incident} ({}, rows {:?}): no alert overlaps the injected rows",
                i.class.name(),
                i.truth
            ));
        }
    }
    (verdicts, alerts)
}

/// Per-layer metrics of this workload that do not apply to `tpcc` and
/// `wide`; those workloads report them as 0.
pub fn absent_metrics() -> Vec<Metric> {
    STREAM_ONLY.iter().map(|&(name, unit)| metric(name, 0.0, unit)).collect()
}

const STREAM_ONLY: [(&str, &str); 11] = [
    ("detect.ms", "ms"),
    ("detect.attrs_selected_frac", "ratio"),
    ("detect.hit_frac", "ratio"),
    ("sherlockd.ingest_us_per_row", "us"),
    ("sherlockd.gen_lag_p90_ms", "ms"),
    ("sherlockd.queue_wait_ms", "ms"),
    ("sherlockd.service_frac", "ratio"),
    ("sherlockd.explanations", "count"),
    ("sherlockd.quiet", "count"),
    ("sherlockd.shed", "count"),
    ("sherlockd.errors", "count"),
];

/// Detection work of the replayed windows.
#[derive(Default)]
struct Windows {
    seen: u64,
    hits: u64,
    attrs: u64,
    attrs_selected: u64,
}

/// Replay the traced triggers' diagnosis jobs, with spans, through the
/// public ring, parser, detector and explain path: each trigger's window
/// as it stood when the trigger row arrived.
fn replay(
    streams: &Streams,
    fed: &Fed,
    engines: &Engines,
    tracer: &mut Tracer,
    counts: &mut explain::Counts,
    windows: &mut Windows,
) -> Result<(), String> {
    let params = SherlockParams::default();
    let mut last_explained: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
    let mut hits = Vec::new();
    for trigger in fed.triggers.iter().filter(|t| t.traced) {
        let id = streams.id(trigger.tenant, trigger.incident);
        let base = fed.starts[trigger.tenant][trigger.incident].0;
        let window = window(streams.get(trigger.tenant, trigger.incident), trigger.rows)?;
        let budget = params.budget().arm();
        let detection = tracer
            .span("detect.anomaly", id, || try_detect_anomaly(&window, &params, &budget))
            .map_err(|e| format!("replayed detection failed: {e}"))?;
        windows.seen += 1;
        windows.attrs += window.schema().len() as u64;
        if let Some(detection) = detection {
            windows.hits += 1;
            windows.attrs_selected += detection.selected_attrs.len() as u64;
            let indices = detection.region.indices();
            let (Some(&first), Some(&last)) = (indices.first(), indices.last()) else {
                continue;
            };
            let (first, last) = (first as u64 + base, last as u64 + base);
            // The daemon's dedup: skip a region mostly covered by the last
            // one it reported for this tenant.
            let fresh = last_explained.get(&trigger.tenant).is_none_or(|&(lo, hi)| {
                let overlap = (last.min(hi) as i64 - first.max(lo) as i64 + 1).max(0) as f64;
                overlap / (last - first + 1) as f64 <= 0.5
            });
            if fresh {
                last_explained.insert(trigger.tenant, (first, last));
                explain::traced_case(tracer, engines, id, &window, &detection.region, counts)
                    .map_err(|e| format!("replayed explain failed: {e}"))?;
                hits.push((window, detection.region));
            }
        }
    }
    // One batch re-diagnosis of every explained window, for the batch
    // efficiency ratio.
    let batch: Vec<Case<'_>> = hits.iter().map(|(data, region)| Case::new(data, region)).collect();
    if !batch.is_empty() {
        tracer.span("diagnose.explain_batch", 0, || {
            std::hint::black_box(engines.auto.explain_batch(&batch))
        });
    }
    Ok(())
}

/// Run the `stream` workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let per_tenant = ((cfg.load.rows_per_s * cfg.seconds)
        / (cfg.load.tenants * INCIDENT_ROWS) as f64)
        .floor()
        .max(2.0) as usize;
    let mut all_setups = Vec::new();
    let mut last: Option<Ready> = None;
    for _ in 0..cfg.setup_reps {
        // Each set-up starts from nothing, as a fresh process would.
        if let Some(previous) = last.take() {
            shut_down(cfg, previous.running);
        }
        let (ready, times) = set_up(cfg, per_tenant)?;
        all_setups.push(times);
        last = Some(ready);
    }
    let Ready { streams, running, engines } = last.expect("at least one set-up");
    let setup = SetupTimes::medians(&all_setups);

    let events = Arc::new(Mutex::new(Vec::new()));
    let mut tracer = Tracer::new();
    let fed = feed(&running.daemon, &streams, cfg.load, &events, cfg.trace.then_some(&mut tracer));
    let counter =
        |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed) as f64;
    let daemon = Arc::clone(&running.daemon);
    let drained_clean = shut_down(cfg, running);
    let events = std::mem::take(&mut *events.lock().expect("event log"));
    let (verdicts, alerts) = judge(&streams, &fed, &events);

    let mut out = Outcome::default();
    let flat: Vec<&Verdict> = verdicts.iter().flatten().collect();
    out.attempted = flat.len() as u64;
    let failed: Vec<&&Verdict> = flat.iter().filter(|v| !v.problems.is_empty()).collect();
    out.fail(
        failed.len() as u64,
        format!("incidents with problems, first: {:?}", failed.first().map(|v| &v.problems)),
    );
    if !drained_clean {
        out.attempted += 1;
        out.fail(1, "daemon drain was not clean or its store did not verify");
    }
    let n_alerts: u64 = flat.iter().map(|v| v.alerts).sum();
    let top1: u64 = flat.iter().map(|v| v.top1).sum();

    let latency = |traced: bool| -> Vec<f64> {
        alerts
            .iter()
            .filter(|a| fed.triggers[a.trigger].traced == traced)
            .map(|a| a.latency_ms)
            .collect()
    };
    // Each tenant's median alert latency is its latency, robust to a stall
    // of the shared host during a few of its incidents; the percentiles
    // are taken over tenants.
    let per_tenant_medians = |traced: bool| -> Vec<f64> {
        (0..cfg.load.tenants)
            .map(|tenant| {
                let mine: Vec<f64> = alerts
                    .iter()
                    .filter(|a| {
                        let t = &fed.triggers[a.trigger];
                        t.tenant == tenant && t.traced == traced
                    })
                    .map(|a| a.latency_ms)
                    .collect();
                median(&mine)
            })
            .collect()
    };
    let untraced = latency(false);
    let tenant_ms = per_tenant_medians(false);
    let p50 = median(&tenant_ms);
    let p90 = quantile(&tenant_ms, 0.9);
    // The median row's cost: preemptions of the feeder thread by the
    // workers land in the tail, not in the capacity of one connection.
    let ingest_rate = 1e6 / median(&fed.ingest_us);
    out.lines.push(format!(
        "stream: {} tenants x {per_tenant} incidents, {} rows at {} rows/s, {n_alerts} alerts",
        cfg.load.tenants, fed.rows, cfg.load.rows_per_s
    ));
    out.lines.push(format!("  setup_s              {:>10.4} s", setup.total_s));
    out.lines.push(format!(
        "  alert_p50_ms         {p50:>10.4} ms  (over tenants of each tenant's median; {} alerts timed untraced)",
        untraced.len()
    ));
    out.lines.push(format!("  alert_p90_ms         {p90:>10.4} ms"));
    out.lines.push(format!("  ingest_rows_per_s    {ingest_rate:>10.0} 1/s"));
    out.lines.push(format!("  top-1 correct cause  {top1}/{n_alerts} alerts"));
    out.end_to_end = vec![
        metric("setup_s", setup.total_s, "s"),
        metric("p50_ms", p50, "ms"),
        metric("p90_ms", p90, "ms"),
        metric("throughput_per_s", ingest_rate, "1/s"),
    ];
    out.deterministic = json!({
        "tenants": cfg.load.tenants,
        "incidents": flat.len(),
        "rows": fed.rows,
        "pool": streams.pool.len(),
        "pool_redrawn": streams.redrawn,
        "pool_digest": report::digest(streams.pool.iter().flat_map(|i| i.lines.iter().map(String::as_str))),
        "incidents_alerted": flat.iter().filter(|v| v.overlapping > 0).count(),
    });
    out.timing = json!({
        "setup_s": all_setups.iter().map(|t| t.total_s).collect::<Vec<_>>(),
        "alert_ms": report::summary(&untraced),
        "alerts": n_alerts,
        "top1_alerts": top1,
        "gen_lag_ms": report::summary(&fed.lag_ms),
    });

    if cfg.trace {
        let mut counts = explain::Counts::default();
        let mut windows = Windows::default();
        replay(&streams, &fed, &engines, &mut tracer, &mut counts, &mut windows)?;
        // The daemon's job for an alert ran one detection and one explain;
        // what remains of the alert latency waited (queue, locks, wake-ups).
        let traced = latency(true);
        let detect_ms = mean(&tracer.durations_ms("detect.anomaly"));
        let explain_ms = mean(&tracer.durations_ms("diagnose.try_explain"));
        let alert_ms = mean(&traced);
        out.per_layer = explain::stage_metrics(&tracer, &counts);
        out.per_layer.extend(setup.metrics());
        out.per_layer.push(metric(
            "trace.overhead_frac",
            median(&per_tenant_medians(true)) / p50 - 1.0,
            "ratio",
        ));
        out.per_layer.extend([
            metric("detect.ms", detect_ms, "ms"),
            metric(
                "detect.attrs_selected_frac",
                ratio(windows.attrs_selected as f64, windows.attrs as f64),
                "ratio",
            ),
            metric("detect.hit_frac", ratio(windows.hits as f64, windows.seen as f64), "ratio"),
            metric(
                "sherlockd.ingest_us_per_row",
                median(&tracer.durations_ms("sherlockd.handle_line")) * 1e3,
                "us",
            ),
            metric("sherlockd.gen_lag_p90_ms", quantile(&fed.lag_ms, 0.9), "ms"),
            metric("sherlockd.queue_wait_ms", alert_ms - detect_ms - explain_ms, "ms"),
            metric("sherlockd.service_frac", ratio(detect_ms + explain_ms, alert_ms), "ratio"),
            metric("sherlockd.explanations", counter(&daemon.stats.explanations), "count"),
            metric("sherlockd.quiet", counter(&daemon.stats.quiet), "count"),
            metric("sherlockd.shed", counter(&daemon.stats.shed), "count"),
            metric("sherlockd.errors", counter(&daemon.stats.errors), "count"),
        ]);
        out.lines.push(format!(
            "  traced: detect {detect_ms:.3} ms + explain {explain_ms:.3} ms = {:.3} of the mean alert latency {alert_ms:.3} ms ({} alerts)",
            ratio(detect_ms + explain_ms, alert_ms),
            traced.len()
        ));
        crate::write_spans(cfg, &tracer)?;
    }
    Ok(out)
}
