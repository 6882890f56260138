//! Tunable parameters of the DBSherlock algorithm.

use serde::{Deserialize, Serialize};

use crate::budget::DiagnosisBudget;
use crate::error::SherlockError;
use crate::exec::ExecPolicy;

/// All knobs of the predicate-generation and diagnosis pipeline, with the
/// paper's defaults.
///
/// Fields are private: read the caller-facing knobs through
/// [`theta`](SherlockParams::theta),
/// [`min_separation_power`](SherlockParams::min_separation_power),
/// [`exec`](SherlockParams::exec) and [`budget`](SherlockParams::budget),
/// and set them through [`SherlockParams::builder`] (validating) or the
/// infallible `with_*` conveniences. `Default` still yields the paper's
/// configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SherlockParams {
    /// Number of equi-width partitions `R` for numeric attributes (§4.1).
    ///
    /// The paper's prose default is 1000; its own parameter study
    /// (Appendix D) runs the evaluation at `R = 250`, which it found to
    /// have indistinguishable confidence at a quarter of the cost, so that
    /// is our default too.
    pub(crate) n_partitions: usize,
    /// Normalized difference threshold `θ` (§4.5): a numeric predicate is
    /// kept only when `|µ_A − µ_N| > θ` on the min–max-normalized attribute.
    /// `0.2` for single causal models (§8.3); `0.05` when models will be
    /// merged (§8.5).
    pub(crate) theta: f64,
    /// Anomaly distance multiplier `δ` (§4.4): distances to Abnormal
    /// partitions are multiplied by `δ` while filling gaps, so `δ > 1`
    /// yields more specific predicates.
    pub(crate) delta: f64,
    /// Minimum tuple-level separation power (Eq. 1) a candidate predicate
    /// must reach on the training data to be emitted. §3 states
    /// DBSherlock's goal as "filter\[ing\] out individual attributes with low
    /// separation power" without fixing a threshold; we make the filter
    /// explicit. Attributes whose normal/abnormal clusters overlap
    /// materially (SP well below 1) produce predicates that do not
    /// transfer across anomaly instances.
    pub(crate) min_separation_power: f64,
    /// Bins per attribute (`γ`) for the joint histogram of the
    /// domain-knowledge independence test (§5).
    pub(crate) gamma: usize,
    /// Independence-factor threshold `κ_t` (§5): attributes with
    /// `κ >= κ_t` are considered dependent, validating the rule.
    pub(crate) kappa_t: f64,
    /// Minimum confidence `λ` for a causal model to be reported (§6).
    pub(crate) lambda: f64,
    /// Sliding-window size `τ` for the potential-power median filter (§7).
    pub(crate) tau: usize,
    /// Potential-power threshold `PP_t` for attribute selection (§7).
    pub(crate) pp_t: f64,
    /// DBSCAN `minPts` (§7 fixes it to 3).
    pub(crate) min_pts: usize,
    /// Maximum cluster size, as a fraction of all points, for a cluster to
    /// be reported as anomalous (§7 uses 20%).
    pub(crate) max_anomaly_fraction: f64,
    /// Thread budget for the parallel pipeline stages. Not an algorithm
    /// knob: any policy yields bit-identical output (see [`crate::exec`]),
    /// so it is excluded from serialization and defaults to
    /// [`ExecPolicy::Auto`] on deserialize.
    #[serde(skip)]
    pub(crate) exec: ExecPolicy,
    /// Resource budget for a diagnosis: wall-clock deadline, size limits,
    /// cooperative cancellation (see [`DiagnosisBudget`]). Like `exec`, an
    /// operational knob rather than an algorithm knob: whatever completes
    /// within budget is bit-identical to the unbudgeted run, so it is
    /// excluded from serialization and defaults to unlimited.
    #[serde(skip)]
    pub(crate) budget: DiagnosisBudget,
}

impl Default for SherlockParams {
    fn default() -> Self {
        SherlockParams {
            n_partitions: 250,
            theta: 0.2,
            delta: 10.0,
            min_separation_power: 0.85,
            gamma: 10,
            kappa_t: 0.15,
            lambda: 0.2,
            tau: 20,
            pp_t: 0.3,
            min_pts: 3,
            max_anomaly_fraction: 0.2,
            exec: ExecPolicy::Auto,
            budget: DiagnosisBudget::unlimited(),
        }
    }
}

impl SherlockParams {
    /// The paper's configuration for building causal models that will be
    /// merged (§8.5): a lower θ (and a laxer separation-power floor) keeps
    /// more predicates per model so merging has material to work with —
    /// permissive generation + the strict attribute intersection of §6.2
    /// is what filters the unstable predicates in this regime.
    pub fn for_merging() -> Self {
        SherlockParams { theta: 0.05, min_separation_power: 0.5, ..SherlockParams::default() }
    }

    /// Start a validating builder seeded with the paper's defaults.
    pub fn builder() -> SherlockParamsBuilder {
        SherlockParamsBuilder { params: SherlockParams::default() }
    }

    /// Normalized difference threshold `θ` (§4.5).
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Minimum tuple-level separation power (Eq. 1) for emitted predicates.
    pub fn min_separation_power(&self) -> f64 {
        self.min_separation_power
    }

    /// Thread budget for the parallel pipeline stages.
    pub fn exec(&self) -> ExecPolicy {
        self.exec
    }

    /// Resource budget for a diagnosis.
    pub fn budget(&self) -> &DiagnosisBudget {
        &self.budget
    }

    /// Builder-style override of `θ`.
    pub fn with_theta(mut self, theta: f64) -> Self {
        self.theta = theta;
        self
    }

    /// Builder-style override of `R`.
    pub fn with_partitions(mut self, r: usize) -> Self {
        self.n_partitions = r.max(1);
        self
    }

    /// Builder-style override of `δ`.
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Builder-style override of the separation-power floor.
    pub fn with_min_separation_power(mut self, floor: f64) -> Self {
        self.min_separation_power = floor;
        self
    }

    /// Builder-style override of the execution policy.
    pub fn with_exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }

    /// Builder-style override of the diagnosis budget.
    pub fn with_budget(mut self, budget: DiagnosisBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// Validating builder for [`SherlockParams`].
///
/// Every setter records the value as given; [`build`](Self::build) checks the
/// whole configuration at once and reports the first violation as
/// [`SherlockError::InvalidParam`].
///
/// ```
/// use dbsherlock_core::{ExecPolicy, SherlockParams};
/// let params = SherlockParams::builder()
///     .theta(0.05)
///     .min_separation_power(0.5)
///     .exec(ExecPolicy::Threads(4))
///     .build()
///     .unwrap();
/// assert_eq!(params.theta(), 0.05);
/// assert!(SherlockParams::builder().theta(-1.0).build().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct SherlockParamsBuilder {
    params: SherlockParams,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $name:ident: $ty:ty),* $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $name(mut self, value: $ty) -> Self {
                self.params.$name = value;
                self
            }
        )*
    };
}

impl SherlockParamsBuilder {
    builder_setters! {
        /// Number of equi-width partitions `R` (§4.1). Must be ≥ 1.
        n_partitions: usize,
        /// Normalized difference threshold `θ` (§4.5). Must be finite in `[0, 1]`.
        theta: f64,
        /// Anomaly distance multiplier `δ` (§4.4). Must be finite and > 0.
        delta: f64,
        /// Separation-power floor (Eq. 1). Must be finite in `[0, 1]`.
        min_separation_power: f64,
        /// Bins per attribute `γ` (§5). Must be ≥ 2.
        gamma: usize,
        /// Independence-factor threshold `κ_t` (§5). Must be finite and ≥ 0.
        kappa_t: f64,
        /// Minimum reported confidence `λ` (§6). Must be finite in `[0, 1]`.
        lambda: f64,
        /// Potential-power window `τ` (§7). Must be ≥ 1.
        tau: usize,
        /// Potential-power threshold `PP_t` (§7). Must be finite and ≥ 0.
        pp_t: f64,
        /// DBSCAN `minPts` (§7). Must be ≥ 1.
        min_pts: usize,
        /// Maximum anomalous-cluster fraction (§7). Must be finite in `(0, 1]`.
        max_anomaly_fraction: f64,
        /// Thread budget for the parallel pipeline stages.
        exec: ExecPolicy,
        /// Resource budget: deadline, size limits, cancellation.
        budget: DiagnosisBudget,
    }

    /// Validate the configuration and produce the params.
    pub fn build(self) -> Result<SherlockParams, SherlockError> {
        let p = &self.params;
        let invalid = |name: &'static str, value: String, reason: &'static str| {
            Err(SherlockError::InvalidParam { name, value, reason })
        };
        if p.n_partitions == 0 {
            return invalid("n_partitions", p.n_partitions.to_string(), "must be at least 1");
        }
        if !p.theta.is_finite() || !(0.0..=1.0).contains(&p.theta) {
            return invalid("theta", p.theta.to_string(), "must be finite in [0, 1]");
        }
        if !p.delta.is_finite() || p.delta <= 0.0 {
            return invalid("delta", p.delta.to_string(), "must be finite and positive");
        }
        if !p.min_separation_power.is_finite() || !(0.0..=1.0).contains(&p.min_separation_power) {
            return invalid(
                "min_separation_power",
                p.min_separation_power.to_string(),
                "must be finite in [0, 1]",
            );
        }
        if p.gamma < 2 {
            return invalid("gamma", p.gamma.to_string(), "needs at least 2 histogram bins");
        }
        if !p.kappa_t.is_finite() || p.kappa_t < 0.0 {
            return invalid("kappa_t", p.kappa_t.to_string(), "must be finite and non-negative");
        }
        if !p.lambda.is_finite() || !(0.0..=1.0).contains(&p.lambda) {
            return invalid("lambda", p.lambda.to_string(), "must be finite in [0, 1]");
        }
        if p.tau == 0 {
            return invalid("tau", p.tau.to_string(), "window must cover at least 1 sample");
        }
        if !p.pp_t.is_finite() || p.pp_t < 0.0 {
            return invalid("pp_t", p.pp_t.to_string(), "must be finite and non-negative");
        }
        if p.min_pts == 0 {
            return invalid("min_pts", p.min_pts.to_string(), "DBSCAN needs minPts >= 1");
        }
        if !p.max_anomaly_fraction.is_finite()
            || p.max_anomaly_fraction <= 0.0
            || p.max_anomaly_fraction > 1.0
        {
            return invalid(
                "max_anomaly_fraction",
                p.max_anomaly_fraction.to_string(),
                "must be finite in (0, 1]",
            );
        }
        Ok(self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = SherlockParams::default();
        assert_eq!(p.n_partitions, 250);
        assert_eq!(p.theta(), 0.2);
        assert_eq!(p.delta, 10.0);
        assert_eq!(p.kappa_t, 0.15);
        assert_eq!(p.lambda, 0.2);
        assert_eq!(p.tau, 20);
        assert_eq!(p.pp_t, 0.3);
        assert_eq!(p.min_pts, 3);
        assert_eq!(p.exec(), ExecPolicy::Auto);
    }

    #[test]
    fn merging_profile_lowers_theta() {
        let p = SherlockParams::for_merging();
        assert_eq!(p.theta(), 0.05);
        assert_eq!(p.n_partitions, 250);
    }

    #[test]
    fn builders_override() {
        let p = SherlockParams::default().with_theta(0.4).with_partitions(0).with_delta(0.1);
        assert_eq!(p.theta(), 0.4);
        assert_eq!(p.n_partitions, 1); // clamped to at least one partition
        assert_eq!(p.delta, 0.1);
    }

    #[test]
    fn builder_accepts_paper_configs() {
        let p = SherlockParams::builder()
            .theta(0.05)
            .min_separation_power(0.0)
            .exec(ExecPolicy::Serial)
            .build()
            .unwrap();
        assert_eq!(p.theta(), 0.05);
        assert_eq!(p.min_separation_power(), 0.0);
        assert_eq!(p.exec(), ExecPolicy::Serial);
        // Untouched knobs keep the paper's defaults.
        assert_eq!(p.n_partitions, 250);
    }

    #[test]
    fn builder_rejects_out_of_range() {
        for (result, knob) in [
            (SherlockParams::builder().theta(-0.1).build(), "theta"),
            (SherlockParams::builder().theta(f64::NAN).build(), "theta"),
            (SherlockParams::builder().delta(0.0).build(), "delta"),
            (SherlockParams::builder().n_partitions(0).build(), "n_partitions"),
            (SherlockParams::builder().min_separation_power(1.5).build(), "min_separation_power"),
            (SherlockParams::builder().gamma(1).build(), "gamma"),
            (SherlockParams::builder().lambda(2.0).build(), "lambda"),
            (SherlockParams::builder().tau(0).build(), "tau"),
            (SherlockParams::builder().pp_t(f64::INFINITY).build(), "pp_t"),
            (SherlockParams::builder().min_pts(0).build(), "min_pts"),
            (SherlockParams::builder().max_anomaly_fraction(0.0).build(), "max_anomaly_fraction"),
        ] {
            match result {
                Err(SherlockError::InvalidParam { name, .. }) => assert_eq!(name, knob),
                other => panic!("{knob}: expected InvalidParam, got {other:?}"),
            }
        }
    }

    #[test]
    fn budget_is_an_operational_knob() {
        // Defaults to unlimited, settable via both builder styles, and —
        // like `exec` — never serialized.
        assert_eq!(SherlockParams::default().budget(), &DiagnosisBudget::unlimited());
        let budget = DiagnosisBudget::unlimited().with_deadline_ms(500).with_max_rows(10_000);
        let p = SherlockParams::default().with_budget(budget.clone());
        assert_eq!(p.budget(), &budget);
        let p = SherlockParams::builder().budget(budget.clone()).build().unwrap();
        assert_eq!(p.budget(), &budget);
        let json = serde_json::to_string(&p).unwrap();
        assert!(!json.contains("budget"));
        let back: SherlockParams = serde_json::from_str(&json).unwrap();
        assert_eq!(back.budget(), &DiagnosisBudget::unlimited());
    }

    #[test]
    fn exec_policy_is_not_serialized() {
        let p = SherlockParams::default().with_exec(ExecPolicy::Threads(8));
        let json = serde_json::to_string(&p).unwrap();
        assert!(!json.contains("exec"));
        let back: SherlockParams = serde_json::from_str(&json).unwrap();
        // Round-trips to the default policy; algorithm knobs survive intact.
        assert_eq!(back.exec(), ExecPolicy::Auto);
        assert_eq!(back.theta(), p.theta());
    }
}
