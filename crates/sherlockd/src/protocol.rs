//! The `sherlockd` line protocol.
//!
//! Everything is newline-delimited UTF-8 text, both directions — pipeable
//! with `nc` and greppable in logs. Client → server lines are commands;
//! a CSV header (`timestamp,…`) declares the current tenant's schema and
//! any other line is a telemetry row in the same CSV dialect the batch
//! tools use, so `sherlockd < incident.csv` "just works" after a single
//! `tenant` line. Server → client lines are structured `key=value`
//! responses: every degradation — a repaired cell, a shed diagnosis, a
//! quarantined tenant — is reported explicitly; nothing is dropped
//! silently.

use dbsherlock_core::{RankedCause, SherlockError};
use dbsherlock_telemetry::IngestWarning;

/// One parsed client line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command<'a> {
    /// `tenant <name>` — select (creating if needed) the stream's tenant.
    Tenant(&'a str),
    /// A CSV header line (`timestamp,attr:num,…`): declare the schema.
    Header(&'a str),
    /// A CSV data row for the current tenant.
    Row(&'a str),
    /// `detect` — run detection over the current tenant's window now.
    Detect,
    /// `stats` — report daemon counters.
    Stats,
    /// `quit` — close the session.
    Quit,
    /// Blank line: ignored.
    Blank,
}

/// Classify one client line. Never fails: unrecognized input is a [`Row`]
/// (and will surface as per-cell ingest warnings, not a dead connection).
///
/// [`Row`]: Command::Row
pub fn parse_command(line: &str) -> Command<'_> {
    let trimmed = line.trim_end_matches(['\r', '\n']);
    let stripped = trimmed.trim();
    if stripped.is_empty() {
        return Command::Blank;
    }
    if let Some(rest) = stripped.strip_prefix("tenant ") {
        return Command::Tenant(rest.trim());
    }
    match stripped {
        "detect" => Command::Detect,
        "stats" => Command::Stats,
        "quit" => Command::Quit,
        _ => {
            if stripped.starts_with("timestamp") && stripped.contains(',') {
                Command::Header(trimmed)
            } else {
                Command::Row(trimmed)
            }
        }
    }
}

/// A server → client line. [`render`](Response::render) produces exactly
/// one newline-terminated line per response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Command acknowledged.
    Ok {
        /// What was acknowledged (e.g. `tenant`, `header`).
        what: &'static str,
        /// Free-form detail (tenant name, attribute count, …).
        detail: String,
    },
    /// A lossy-ingest repair on one line (connection stays up).
    Warn {
        /// Tenant the warning belongs to.
        tenant: String,
        /// The repair, rendered from [`IngestWarning`].
        detail: String,
    },
    /// A request that could not be served, with a machine-readable code.
    Error {
        /// Stable error code (`no-tenant`, `tenant-limit`, `draining`, …).
        code: &'static str,
        /// Human detail.
        detail: String,
    },
    /// Structured load-shed notice: a queued diagnosis was dropped to admit
    /// newer work (oldest first). Never silent.
    Overloaded {
        /// Tenant whose queued diagnosis was shed.
        tenant: String,
        /// Queue depth at the moment of shedding.
        pending: usize,
    },
    /// An automatic explanation for a detected anomalous window.
    Explanation {
        /// Tenant the anomaly belongs to.
        tenant: String,
        /// Absolute stream sequence range `[start, end]` of the region.
        seq_range: (u64, u64),
        /// Rows in the detected region.
        region_rows: usize,
        /// Rendered predicate conjunction.
        predicates: String,
        /// Best stored cause clearing the confidence threshold, if any.
        top_cause: Option<RankedCause>,
    },
    /// A tenant worker panicked; the tenant is quarantined, the daemon
    /// lives on.
    Quarantined {
        /// The quarantined tenant.
        tenant: String,
        /// The caught panic/failure, one line.
        reason: String,
    },
    /// Daemon counters (see [`crate::daemon::DaemonStats`]).
    Stats(String),
    /// Session closing.
    Bye,
}

impl Response {
    /// Render as one `\n`-terminated protocol line.
    pub fn render(&self) -> String {
        match self {
            Response::Ok { what, detail } => format!("ok cmd={what} {detail}\n"),
            Response::Warn { tenant, detail } => {
                format!("warn tenant={} detail={}\n", quote(tenant), quote(detail))
            }
            Response::Error { code, detail } => {
                format!("error code={code} detail={}\n", quote(detail))
            }
            Response::Overloaded { tenant, pending } => {
                format!(
                    "overloaded tenant={} pending={pending} action=shed-oldest\n",
                    quote(tenant)
                )
            }
            Response::Explanation { tenant, seq_range, region_rows, predicates, top_cause } => {
                let cause = match top_cause {
                    Some(c) => {
                        format!(" top_cause={} confidence={:.3}", quote(&c.cause), c.confidence)
                    }
                    None => String::new(),
                };
                format!(
                    "event=explanation tenant={} seq={}..{} rows={region_rows} predicates={}{cause}\n",
                    quote(tenant),
                    seq_range.0,
                    seq_range.1,
                    quote(predicates),
                )
            }
            Response::Quarantined { tenant, reason } => {
                format!("event=quarantined tenant={} reason={}\n", quote(tenant), quote(reason))
            }
            Response::Stats(body) => format!("stats {body}\n"),
            Response::Bye => "bye\n".to_string(),
        }
    }

    /// A [`Response::Warn`] from a lossy-ingest warning.
    pub fn from_warning(tenant: &str, warning: &IngestWarning) -> Response {
        Response::Warn { tenant: tenant.to_string(), detail: warning.to_string() }
    }

    /// A [`Response::Error`] from a diagnosis failure, with a stable code
    /// per error family so clients can react without parsing prose.
    pub fn from_error(err: &SherlockError) -> Response {
        let code = match err {
            SherlockError::DeadlineExceeded { .. } => "deadline",
            SherlockError::BudgetExceeded { .. } => "budget",
            SherlockError::Cancelled { .. } => "cancelled",
            SherlockError::TaskPanicked { .. } => "panicked",
            SherlockError::Store { .. } => "store",
            _ => "diagnosis",
        };
        Response::Error { code, detail: err.to_string() }
    }
}

/// Quote a free-text protocol value: always double-quoted, with `\`, `"`
/// and newlines escaped, so one response is always exactly one line.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_classification() {
        assert_eq!(parse_command("tenant shard-7\n"), Command::Tenant("shard-7"));
        assert_eq!(parse_command("  \r\n"), Command::Blank);
        assert_eq!(parse_command("detect"), Command::Detect);
        assert_eq!(parse_command("stats\n"), Command::Stats);
        assert_eq!(parse_command("quit"), Command::Quit);
        assert_eq!(
            parse_command("timestamp,cpu:num,io:num\n"),
            Command::Header("timestamp,cpu:num,io:num")
        );
        assert_eq!(parse_command("12,95.0,3.1\n"), Command::Row("12,95.0,3.1"));
        // A lone `timestamp` word without commas is telemetry garbage, not
        // a header.
        assert_eq!(parse_command("timestamp"), Command::Row("timestamp"));
    }

    #[test]
    fn responses_render_one_line_each() {
        let responses = [
            Response::Ok { what: "tenant", detail: "tenant=\"t\"".into() },
            Response::Warn { tenant: "t".into(), detail: "line 3: repaired \"x\"".into() },
            Response::Error { code: "no-tenant", detail: "say `tenant <name>` first".into() },
            Response::Overloaded { tenant: "t".into(), pending: 32 },
            Response::Quarantined { tenant: "t".into(), reason: "panicked at 'boom'".into() },
            Response::Stats("tenants=1 rows=2".into()),
            Response::Bye,
        ];
        for r in &responses {
            let line = r.render();
            assert!(line.ends_with('\n'), "{line:?}");
            assert_eq!(line.matches('\n').count(), 1, "{line:?}");
        }
    }

    #[test]
    fn quoting_escapes_breakers() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        let explanation = Response::Explanation {
            tenant: "t\"0".into(),
            seq_range: (10, 42),
            region_rows: 33,
            predicates: "cpu > 90.0\nAND io < 2".into(),
            top_cause: None,
        };
        let line = explanation.render();
        assert_eq!(line.matches('\n').count(), 1);
        assert!(line.contains("seq=10..42"));
    }
}
