#![warn(missing_docs)]
// Diagnosis must degrade gracefully, never panic: unwrap/expect are banned in
// library code (tests may use them freely). See sherlock-lint's panic-path rule.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! The DBSherlock algorithm: performance diagnosis for transactional
//! databases.
//!
//! A from-scratch Rust implementation of "DBSherlock: A Performance
//! Diagnostic Tool for Transactional Databases" (Yoon, Niu, Mozafari —
//! SIGMOD 2016):
//!
//! * **Predicate generation** (§§3–4): partition space, labeling, noise
//!   filtering, gap filling, extraction — [`generate`], [`partition`],
//!   [`label`], [`filter`], [`fill`], [`extract`].
//! * **Domain knowledge** (§5): rules validated by a mutual-information
//!   independence test prune secondary symptoms — [`domain`].
//! * **Causal models** (§6): confidence (Eq. 3), ranking, merging —
//!   [`causal`], [`merge`].
//! * **Automatic anomaly detection** (§7): potential power + DBSCAN —
//!   [`detect`].
//! * **Façade** ([`Sherlock`]): explain → feedback → improved diagnoses.
//!
//! # Quickstart
//!
//! ```
//! use dbsherlock_core::prelude::*;
//! use dbsherlock_telemetry::{AttributeMeta, Dataset, Region, Schema, Value};
//!
//! // Telemetry with an obvious anomaly in rows 60..80.
//! let schema = Schema::from_attrs([AttributeMeta::numeric("cpu")]).unwrap();
//! let mut data = Dataset::new(schema);
//! for i in 0..120 {
//!     let cpu = if (60..80).contains(&i) { 95.0 } else { 20.0 } + (i % 5) as f64;
//!     data.push_row(i as f64, &[Value::Num(cpu)]).unwrap();
//! }
//!
//! let mut sherlock = Sherlock::new(SherlockParams::default());
//! let abnormal = Region::from_range(60..80);
//! let explanation = sherlock.explain(&data, &abnormal, None);
//! assert!(explanation.predicates_display().contains("cpu >"));
//!
//! // The DBA confirms the diagnosis; future anomalies match the model.
//! sherlock.feedback("runaway batch job", &explanation.predicates);
//! let again = sherlock.explain(&data, &abnormal, None);
//! assert_eq!(again.top_cause().unwrap().cause, "runaway batch job");
//! ```

pub mod actions;
pub mod argv;
pub mod budget;
pub mod causal;
pub mod chaos;
pub mod detect;
pub mod diagnose;
pub mod domain;
pub mod error;
pub mod exec;
pub mod extract;
pub mod fill;
pub mod filter;
#[cfg(test)]
pub(crate) mod fixtures;
pub mod generate;
pub mod intervene;
pub mod label;
pub mod merge;
pub mod params;
pub mod partition;
pub mod predicate;
#[cfg(any(test, feature = "scalar-shim"))]
pub mod scalar;
pub mod separation;
pub mod store;

pub use actions::{ActionLog, AutoAction, AutoRemediationPolicy, Decision, Remediation};
pub use argv::ArgScan;
pub use budget::{ArmedBudget, CancelFlag, DiagnosisBudget};
pub use causal::{Accuracy, CausalModel, ModelRepository, RankedCause};
pub use detect::{detect_anomaly, potential_power, try_detect_anomaly, window_medians, Detection};
pub use diagnose::{Case, Explanation, Sherlock};
pub use domain::{independence_factor, DomainKnowledge, Rule};
pub use error::SherlockError;
pub use exec::{par_map_indexed, try_par_map_indexed, ExecPolicy};
pub use generate::{
    generate_predicates, generate_predicates_ablated, try_generate_predicates_snapshot,
    AblationFlags, GeneratedPredicate,
};
pub use intervene::{
    attempt_seed, trial_seed, validate_explanation, CauseVerdict, InterventionConfig,
    InterventionReport, InterventionRunner, InterventionVerdict, TrialRun,
};
pub use merge::{merge_all, merge_models, merge_predicates};
pub use params::{SherlockParams, SherlockParamsBuilder};
pub use partition::{LabeledSpace, PartitionLabel, PartitionSpace};
pub use predicate::{display_conjunction, Predicate, PredicateOp};
pub use separation::{partition_separation_power, separation_power};
pub use store::{ModelStore, StoreFault, StoreReport};

/// The convenient single import for typical users of the engine.
///
/// ```
/// use dbsherlock_core::prelude::*;
/// let params = SherlockParams::builder().exec(ExecPolicy::Serial).build().unwrap();
/// let _sherlock = Sherlock::new(params);
/// ```
pub mod prelude {
    pub use crate::budget::{CancelFlag, DiagnosisBudget};
    pub use crate::diagnose::{Case, Explanation, Sherlock};
    pub use crate::error::SherlockError;
    pub use crate::exec::ExecPolicy;
    pub use crate::generate::GeneratedPredicate;
    pub use crate::intervene::{
        InterventionConfig, InterventionRunner, InterventionVerdict, TrialRun,
    };
    pub use crate::store::ModelStore;
    pub use crate::{RankedCause, SherlockParams, SherlockParamsBuilder};
    pub use dbsherlock_telemetry::{CategoricalView, ColumnView, ColumnarSnapshot, NumericView};
}
