//! Diagnosis budgets: deadlines, size limits, and cooperative cancellation.
//!
//! The engine's accumulated causal models make it long-lived infrastructure,
//! and long-lived infrastructure meets runaway inputs: a telemetry file with
//! millions of rows, a partition count fat-fingered into the billions, a
//! diagnosis that a caller no longer wants. A [`DiagnosisBudget`] bounds a
//! diagnosis along three axes:
//!
//! * **Wall-clock deadline** — checked cooperatively between pipeline units
//!   (per attribute in generation and detection, per model in ranking, per
//!   case in a batch). A blown deadline surfaces as
//!   [`SherlockError::DeadlineExceeded`] for the slots that did not finish;
//!   completed slots keep their results.
//! * **Size limits** — maximum rows per dataset and partitions per
//!   attribute, rejected up front as [`SherlockError::BudgetExceeded`].
//!   Unlike the deadline these are deterministic: the same input is always
//!   admitted or always rejected.
//! * **Cancellation** — a [`CancelFlag`] shared with the caller; raising it
//!   stops the diagnosis at the next cooperative check with
//!   [`SherlockError::Cancelled`].
//!
//! The budget is *configuration* and lives on
//! [`SherlockParams`](crate::SherlockParams); at each public entry point it
//! is [armed](DiagnosisBudget::arm) into an [`ArmedBudget`] carrying the
//! start instant, which the pipeline stages then consult. The default budget
//! is unlimited, so existing callers see no behavior change.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::SherlockError;

/// A shared, thread-safe cancellation flag.
///
/// Clone it, hand one copy to [`DiagnosisBudget::with_cancel_flag`], keep
/// the other, and call [`cancel`](CancelFlag::cancel) from any thread to
/// stop in-flight diagnoses at their next cooperative check.
#[derive(Debug, Clone, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// Raise the flag; every budget holding a clone observes it.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has the flag been raised?
    pub(crate) fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Two flags are equal when they share the same underlying atomic (clones of
/// one another), mirroring their observable behavior.
impl PartialEq for CancelFlag {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Resource limits for one diagnosis (or one batch of diagnoses).
///
/// Everything defaults to unlimited; see the [module docs](self) for the
/// semantics of each axis.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiagnosisBudget {
    deadline_ms: Option<u64>,
    max_rows: Option<usize>,
    max_partitions: Option<usize>,
    cancel: Option<CancelFlag>,
}

impl DiagnosisBudget {
    /// No limits at all (the default).
    pub fn unlimited() -> Self {
        DiagnosisBudget::default()
    }

    /// Limit wall-clock time. The clock starts at [`arm`](Self::arm) — i.e.
    /// when `explain`/`explain_batch`/`detect` is entered — and covers the
    /// whole call, batch included.
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Reject datasets with more than `rows` rows.
    pub fn with_max_rows(mut self, rows: usize) -> Self {
        self.max_rows = Some(rows);
        self
    }

    /// Reject parameter sets asking for more than `partitions` partitions
    /// per attribute.
    pub(crate) fn with_max_partitions(mut self, partitions: usize) -> Self {
        self.max_partitions = Some(partitions);
        self
    }

    /// Attach a cancellation flag (keep a clone to raise it).
    pub fn with_cancel_flag(mut self, flag: CancelFlag) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Start the clock: produce the [`ArmedBudget`] the pipeline stages
    /// consult. Called once per public entry point, so one deadline covers
    /// one `explain` call or one whole `explain_batch`.
    pub fn arm(&self) -> ArmedBudget {
        ArmedBudget { config: self.clone(), started: Instant::now() }
    }
}

/// A [`DiagnosisBudget`] with a running clock, shared by reference across
/// the worker threads of one diagnosis.
#[derive(Debug, Clone)]
pub struct ArmedBudget {
    config: DiagnosisBudget,
    started: Instant,
}

impl ArmedBudget {
    /// An armed unlimited budget — the no-op default threaded through the
    /// infallible public paths.
    pub fn unlimited() -> Self {
        DiagnosisBudget::unlimited().arm()
    }

    /// Cooperative checkpoint: fails when the flag is raised or the
    /// deadline has passed. Call between independent units of work; `stage`
    /// labels the resulting error.
    pub(crate) fn check(&self, stage: &'static str) -> Result<(), SherlockError> {
        if let Some(flag) = &self.config.cancel {
            if flag.is_cancelled() {
                return Err(SherlockError::Cancelled { stage });
            }
        }
        if let Some(budget_ms) = self.config.deadline_ms {
            if self.started.elapsed() >= Duration::from_millis(budget_ms) {
                return Err(SherlockError::DeadlineExceeded { stage, budget_ms });
            }
        }
        Ok(())
    }

    /// Up-front admission control for one case: row count against
    /// `max_rows`, requested partitions against `max_partitions`.
    /// Deterministic — independent of wall clock and thread schedule.
    pub(crate) fn admit(&self, n_rows: usize, n_partitions: usize) -> Result<(), SherlockError> {
        if let Some(limit) = self.config.max_rows {
            if n_rows > limit {
                return Err(SherlockError::BudgetExceeded { what: "rows", actual: n_rows, limit });
            }
        }
        if let Some(limit) = self.config.max_partitions {
            if n_partitions > limit {
                return Err(SherlockError::BudgetExceeded {
                    what: "partitions",
                    actual: n_partitions,
                    limit,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_admits_everything() {
        let armed = ArmedBudget::unlimited();
        assert!(armed.check("anywhere").is_ok());
        assert!(armed.admit(usize::MAX, usize::MAX).is_ok());
    }

    #[test]
    fn zero_deadline_fires_immediately() {
        let armed = DiagnosisBudget::unlimited().with_deadline_ms(0).arm();
        assert!(matches!(
            armed.check("generate"),
            Err(SherlockError::DeadlineExceeded { stage: "generate", budget_ms: 0 })
        ));
    }

    #[test]
    fn generous_deadline_passes() {
        let armed = DiagnosisBudget::unlimited().with_deadline_ms(3_600_000).arm();
        assert!(armed.check("rank").is_ok());
    }

    #[test]
    fn size_limits_are_deterministic() {
        let armed = DiagnosisBudget::unlimited().with_max_rows(100).with_max_partitions(500).arm();
        assert!(armed.admit(100, 500).is_ok());
        assert!(matches!(
            armed.admit(101, 500),
            Err(SherlockError::BudgetExceeded { what: "rows", actual: 101, limit: 100 })
        ));
        assert!(matches!(
            armed.admit(100, 501),
            Err(SherlockError::BudgetExceeded { what: "partitions", actual: 501, limit: 500 })
        ));
    }

    #[test]
    fn cancellation_is_observed_via_clones() {
        let flag = CancelFlag::default();
        let armed = DiagnosisBudget::unlimited().with_cancel_flag(flag.clone()).arm();
        assert!(armed.check("rank").is_ok());
        flag.cancel();
        assert!(matches!(armed.check("rank"), Err(SherlockError::Cancelled { stage: "rank" })));
    }

    #[test]
    fn flag_equality_is_identity() {
        let a = CancelFlag::default();
        let clone = a.clone();
        let b = CancelFlag::default();
        assert_eq!(a, clone);
        assert_ne!(a, b);
        // Budgets compare accordingly (params carry budgets and derive
        // PartialEq).
        let with_a = DiagnosisBudget::unlimited().with_cancel_flag(a);
        let with_clone = DiagnosisBudget::unlimited().with_cancel_flag(clone);
        let with_b = DiagnosisBudget::unlimited().with_cancel_flag(b);
        assert_eq!(with_a, with_clone);
        assert_ne!(with_a, with_b);
    }
}
