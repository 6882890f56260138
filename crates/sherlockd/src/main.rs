//! The `sherlockd` binary: argument parsing, signal handling, and the
//! run-until-drained lifecycle around [`dbsherlock_sherlockd::Daemon`].
//!
//! ```text
//! sherlockd --listen 127.0.0.1:7455 --models models.sherlock
//! sherlockd --stdin < incident-stream.txt
//! ```
//!
//! SIGTERM/SIGINT begin a graceful drain: admission stops immediately,
//! in-flight diagnoses get `--drain-ms` to land, cooperative cancellation
//! cuts anything slower, and the model store is saved and verified before
//! exit. Exit code 0 means a clean drain with a verified store; 1 means the
//! drain was forced or the store failed verification; 2 means bad usage.

use std::io::Write;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dbsherlock_core::ArgScan;
use dbsherlock_sherlockd::daemon::{Daemon, DaemonConfig, Session};
use dbsherlock_sherlockd::net::{self, NetConfig};
use dbsherlock_sherlockd::{LineOutcome, LineReader, ReadEvent, Response};

/// Process-wide shutdown request flag, flipped by the signal handler.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Minimal signal hookup without a `libc` dependency: std already links the
/// platform C library on unix, so `signal(2)` is available to declare.
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

const USAGE: &str = "\
sherlockd: streaming DBSherlock diagnosis daemon

USAGE:
  sherlockd (--listen ADDR | --stdin) [options]

TRANSPORT:
  --listen ADDR        accept line-protocol connections on ADDR (e.g. 127.0.0.1:7455)
  --stdin              read one session from stdin, answer on stdout

MODELS:
  --models PATH        crash-safe causal-model store to load at startup
                       and save (verified) on drain

DIAGNOSIS:
  --threads N|serial|auto   thread budget inside each diagnosis (default serial:
                            the workers are the parallelism)
  --deadline-ms N      per-diagnosis wall-clock deadline
  --max-rows N         reject diagnoses over datasets larger than N rows
  --max-partitions N   reject diagnoses with more than N partitions

DAEMON:
  --ring-rows N        rows buffered per tenant (default 512)
  --max-tenants N      tenant cap (default 1024)
  --detect-every N     run detection every N accepted rows (default 64)
  --min-detect-rows N  skip detection below N buffered rows (default 48)
  --max-pending N      diagnosis queue bound; oldest is shed beyond it (default 32)
  --workers N          diagnosis worker threads (default 2)
  --drain-ms N         drain grace period on shutdown (default 2000)
  --max-line-bytes N   per-line ingest cap (default 65536)
  --idle-timeout-ms N  close silent connections after N ms (default 30000)
";

fn config_from(scan: &ArgScan<'_>) -> Result<(DaemonConfig, NetConfig), String> {
    let defaults = DaemonConfig::default();
    let mut params = defaults.params.clone();
    if let Some(exec) = scan.exec_policy()? {
        params = params.with_exec(exec);
    }
    if let Some(budget) = scan.budget()? {
        params = params.with_budget(budget);
    }
    let cfg = DaemonConfig {
        ring_rows: scan.parsed_or("--ring-rows", defaults.ring_rows)?,
        max_tenants: scan.parsed_or("--max-tenants", defaults.max_tenants)?,
        detect_every: scan.parsed_or("--detect-every", defaults.detect_every)?,
        min_detect_rows: scan.parsed_or("--min-detect-rows", defaults.min_detect_rows)?,
        max_pending: scan.parsed_or("--max-pending", defaults.max_pending)?,
        workers: scan.parsed_or("--workers", defaults.workers)?,
        drain_deadline_ms: scan.parsed_or("--drain-ms", defaults.drain_deadline_ms)?,
        params,
        store_path: scan.option("--models").map(Into::into),
    };
    let net_defaults = NetConfig::default();
    let net = NetConfig {
        max_line_bytes: scan.parsed_or("--max-line-bytes", net_defaults.max_line_bytes)?,
        read_timeout_ms: net_defaults.read_timeout_ms,
        idle_timeout_ms: scan.parsed_or("--idle-timeout-ms", net_defaults.idle_timeout_ms)?,
    };
    Ok((cfg, net))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scan = ArgScan::new(&args);
    if scan.flag("--help") || scan.flag("-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run(&scan) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("sherlockd: {message}");
            eprintln!("try `sherlockd --help`");
            ExitCode::from(2)
        }
    }
}

/// Run the daemon to completion. `Ok(true)` = clean drain + verified store.
fn run(scan: &ArgScan<'_>) -> Result<bool, String> {
    let listen = scan.option("--listen");
    let use_stdin = scan.flag("--stdin");
    if listen.is_none() && !use_stdin {
        return Err("need --listen ADDR or --stdin".into());
    }
    let (cfg, net_cfg) = config_from(scan)?;
    install_signal_handlers();

    let (daemon, startup_warnings) =
        Daemon::new(cfg).map_err(|e| format!("startup failed: {e}"))?;
    for warning in &startup_warnings {
        eprintln!("sherlockd: store warning: {warning}");
    }
    let daemon = Arc::new(daemon);
    let workers = daemon.spawn_workers();
    eprintln!(
        "sherlockd: up — {} models, {} workers, ring {} rows/tenant",
        daemon.n_models(),
        daemon.config().workers,
        daemon.config().ring_rows,
    );

    let shutdown = Arc::new(AtomicBool::new(false));
    let mut conn_handles = Vec::new();
    if let Some(addr) = listen {
        let listener =
            TcpListener::bind(addr).map_err(|e| format!("cannot listen on {addr}: {e}"))?;
        eprintln!("sherlockd: listening on {addr}");
        // The accept loop owns this thread; it polls SHUTDOWN via the
        // shared flag mirrored below.
        let mirror = Arc::clone(&shutdown);
        let watcher = std::thread::Builder::new()
            .name("sherlockd-signals".to_string())
            .spawn(move || {
                while !SHUTDOWN.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(50));
                }
                mirror.store(true, Ordering::SeqCst);
            })
            .map_err(|e| format!("cannot spawn signal watcher: {e}"))?;
        conn_handles = net::serve(&daemon, listener, net_cfg, &shutdown);
        let _ = watcher.join();
    } else {
        serve_stdin(&daemon, &net_cfg);
        shutdown.store(true, Ordering::SeqCst);
    }

    eprintln!("sherlockd: draining ({}ms grace)", daemon.config().drain_deadline_ms);
    let report = daemon.drain(workers);
    for handle in conn_handles {
        let _ = handle.join();
    }
    match &report.store_saved {
        Some(Ok(saved)) => {
            eprintln!("sherlockd: store saved at generation {}", saved.generation)
        }
        Some(Err(e)) => eprintln!("sherlockd: store save FAILED: {e}"),
        None => {}
    }
    for warning in &report.verify_warnings {
        eprintln!("sherlockd: store verify warning: {warning}");
    }
    let clean = report.clean && report.store_verified();
    eprintln!("sherlockd: drained ({})", if clean { "clean" } else { "forced" });
    Ok(clean)
}

/// One session over stdin/stdout, polled so SIGTERM still drains promptly.
fn serve_stdin(daemon: &Arc<Daemon>, net_cfg: &NetConfig) {
    let stdout = std::io::stdout();
    let sink = dbsherlock_sherlockd::writer_sink(
        stdout,
        std::sync::Arc::clone(&daemon.stats.dropped_responses),
    );
    let mut session = Session::new(sink);
    let mut reader = LineReader::new(std::io::stdin(), net_cfg.max_line_bytes);
    loop {
        if SHUTDOWN.load(Ordering::SeqCst) {
            return;
        }
        match reader.next_line() {
            ReadEvent::Line(line) => {
                if daemon.handle_line(&mut session, &line) == LineOutcome::Quit {
                    return;
                }
            }
            ReadEvent::Oversize { dropped } => {
                (session.sink)(&Response::Error {
                    code: "line-too-long",
                    detail: format!("line exceeded cap ({dropped} bytes dropped)"),
                });
            }
            // Blocking stdin read: WouldBlock only on exotic platforms.
            ReadEvent::WouldBlock => std::thread::sleep(Duration::from_millis(10)),
            ReadEvent::Eof => {
                let _ = std::io::stdout().flush();
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsherlock_core::ExecPolicy;

    fn exec_of(args: &[&str]) -> ExecPolicy {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let (cfg, _) = config_from(&ArgScan::new(&args)).unwrap();
        cfg.params.exec()
    }

    #[test]
    fn diagnoses_run_serial_unless_threads_overrides() {
        assert_eq!(DaemonConfig::default().params.exec(), ExecPolicy::Serial);
        assert_eq!(exec_of(&["--stdin"]), ExecPolicy::Serial);
        assert_eq!(exec_of(&["--stdin", "--threads", "auto"]), ExecPolicy::Auto);
        assert_eq!(exec_of(&["--stdin", "--threads", "3"]), ExecPolicy::Threads(3));
    }
}
