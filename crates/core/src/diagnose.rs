//! The end-to-end diagnosis façade (paper Fig. 2, steps 4–6).
//!
//! [`Sherlock`] bundles the parameters, the optional domain knowledge, and
//! the accumulated causal models. A diagnosis session is:
//!
//! 1. [`Sherlock::explain`] — the user hands over a dataset and the region
//!    they consider abnormal; DBSherlock returns generated predicates plus
//!    every stored cause whose confidence clears `λ`, best first.
//! 2. The user identifies the real cause with those clues and calls
//!    [`Sherlock::feedback`]; the predicates become a causal model (merged
//!    with any existing model of the same cause).
//! 3. [`Sherlock::detect`] proposes an abnormal region automatically when
//!    the user has none (§7).

use dbsherlock_telemetry::{Dataset, Region};

use crate::budget::ArmedBudget;
use crate::causal::{CausalModel, ModelRepository, RankedCause};
use crate::detect::{try_detect_anomaly, Detection};
use crate::domain::DomainKnowledge;
use crate::error::SherlockError;
use crate::exec::{try_par_map_indexed, ExecPolicy};
use crate::generate::{try_generate_indexed, AblationFlags, GeneratedPredicate};
use crate::intervene::{
    validate_explanation, CauseVerdict, InterventionConfig, InterventionReport, InterventionRunner,
};
use crate::params::SherlockParams;
use crate::predicate::display_conjunction;

/// One diagnosis request, for [`Sherlock::explain_batch`].
///
/// Borrows its telemetry: a batch is a slice of views over datasets the
/// caller already holds, so batching adds no copies.
#[derive(Debug, Clone, Copy)]
pub struct Case<'a> {
    /// The telemetry to diagnose.
    pub dataset: &'a Dataset,
    /// The region the user (or the detector) flagged as abnormal.
    pub abnormal: &'a Region,
    /// Explicit normal region; `None` uses the complement of `abnormal`.
    pub normal: Option<&'a Region>,
}

impl<'a> Case<'a> {
    /// A case whose normal region is the complement of `abnormal`.
    pub fn new(dataset: &'a Dataset, abnormal: &'a Region) -> Self {
        Case { dataset, abnormal, normal: None }
    }
}

/// A complete explanation for one user-specified anomaly.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Predicates surviving generation + domain-knowledge pruning, in
    /// schema order.
    pub predicates: Vec<GeneratedPredicate>,
    /// Causes with confidence ≥ λ, in decreasing confidence order.
    pub causes: Vec<RankedCause>,
    /// Every stored cause's confidence (superset of `causes`), for
    /// margin-of-confidence analyses.
    pub all_causes: Vec<RankedCause>,
    /// Interventional verdicts, one per validated candidate. Empty until
    /// the explanation is passed through [`validate_explanation`]
    /// (directly or via [`Sherlock::try_explain_validated`]).
    pub interventions: Vec<CauseVerdict>,
}

impl Explanation {
    /// Paper-style rendering of the predicate conjunction.
    pub fn predicates_display(&self) -> String {
        let predicates: Vec<_> = self.predicates.iter().map(|g| g.predicate.clone()).collect();
        display_conjunction(&predicates)
    }

    /// The most confident cause, if any cleared λ.
    pub fn top_cause(&self) -> Option<&RankedCause> {
        self.causes.first()
    }
}

/// The DBSherlock engine: parameters + domain knowledge + causal models.
#[derive(Debug, Clone, Default)]
pub struct Sherlock {
    params: SherlockParams,
    domain: DomainKnowledge,
    repository: ModelRepository,
}

impl Sherlock {
    /// Engine with the given parameters and no domain knowledge.
    pub fn new(params: SherlockParams) -> Self {
        Sherlock { params, ..Sherlock::default() }
    }

    /// Install domain knowledge (builder style).
    pub fn with_domain_knowledge(mut self, domain: DomainKnowledge) -> Self {
        self.domain = domain;
        self
    }

    /// Current parameters.
    pub fn params(&self) -> &SherlockParams {
        &self.params
    }

    /// The stored causal models.
    pub fn repository(&self) -> &ModelRepository {
        &self.repository
    }

    /// Mutable access to the repository (used by experiment harnesses that
    /// construct models from ground truth rather than via `feedback`).
    pub fn repository_mut(&mut self) -> &mut ModelRepository {
        &mut self.repository
    }

    /// Explain an anomaly. `normal` defaults to the complement of
    /// `abnormal` when the user did not mark a normal region explicitly
    /// (§2.2).
    ///
    /// Infallible by design — degenerate input (empty dataset, regions that
    /// clip to nothing) yields an empty [`Explanation`]. Callers that need
    /// to distinguish "nothing found" from "nothing to look at" should use
    /// [`try_explain`](Self::try_explain).
    pub fn explain(
        &self,
        dataset: &Dataset,
        abnormal: &Region,
        normal: Option<&Region>,
    ) -> Explanation {
        self.try_explain(dataset, abnormal, normal).unwrap_or(Explanation {
            predicates: Vec::new(),
            causes: Vec::new(),
            all_causes: Vec::new(),
            interventions: Vec::new(),
        })
    }

    /// [`explain`](Self::explain) that reports degenerate input — and
    /// blown budgets or caught pipeline panics — instead of returning an
    /// empty explanation. The budget of [`SherlockParams::budget`] is
    /// armed here, so its deadline covers this one call.
    pub fn try_explain(
        &self,
        dataset: &Dataset,
        abnormal: &Region,
        normal: Option<&Region>,
    ) -> Result<Explanation, SherlockError> {
        let armed = self.params.budget.arm();
        // Same isolation boundary as a batch case: a pipeline bug surfaces
        // as `TaskPanicked`, never as an unwinding caller thread.
        try_par_map_indexed(ExecPolicy::Serial, "explain", &[()], |_, _| {
            self.explain_with(dataset, abnormal, normal, &self.params, &armed)
        })
        .pop()
        .unwrap_or(Err(SherlockError::EmptyInput("dataset")))
    }

    /// Diagnose many cases, fanning them out across the thread budget of
    /// [`SherlockParams::exec`]. Results come back in input order, one per
    /// case; a degenerate, over-budget, or even *panicking* case yields its
    /// own error without disturbing its neighbours — each case runs behind
    /// a panic-isolation boundary, and surviving cases are bit-identical to
    /// a clean serial run. Within each case the pipeline runs serially —
    /// the batch is the unit of parallelism, so output is identical to
    /// calling [`try_explain`](Self::try_explain) in a loop.
    ///
    /// The budget is armed once for the whole batch: a wall-clock deadline
    /// bounds the batch, degrading it to partial ranked results (cases that
    /// finished in time) plus per-case `DeadlineExceeded` errors.
    pub fn explain_batch(&self, cases: &[Case<'_>]) -> Vec<Result<Explanation, SherlockError>> {
        // Parallelism lives at the case level; nested per-attribute fan-out
        // would oversubscribe the pool.
        let inner = self.params.clone().with_exec(ExecPolicy::Serial);
        let armed = self.params.budget.arm();
        try_par_map_indexed(self.params.exec, "case", cases, |_, case| {
            self.explain_with(case.dataset, case.abnormal, case.normal, &inner, &armed)
        })
    }

    /// The single-case pipeline, parameterized so batch mode can force the
    /// inner stages serial and share one armed budget across cases.
    fn explain_with(
        &self,
        dataset: &Dataset,
        abnormal: &Region,
        normal: Option<&Region>,
        params: &SherlockParams,
        budget: &ArmedBudget,
    ) -> Result<Explanation, SherlockError> {
        budget.admit(dataset.n_rows(), params.n_partitions)?;
        if dataset.n_rows() == 0 {
            return Err(SherlockError::EmptyInput("dataset"));
        }
        // Clip to the rows that actually exist: with degraded telemetry the
        // user's regions may reference rows that lossy ingestion dropped.
        let n_rows = dataset.n_rows();
        let abnormal = &abnormal.clip(n_rows);
        if abnormal.is_empty() {
            return Err(SherlockError::EmptyRegion { what: "abnormal", n_rows });
        }
        let normal = match normal {
            Some(region) => region.clip(n_rows),
            None => abnormal.complement(n_rows),
        };
        if normal.is_empty() {
            return Err(SherlockError::EmptyRegion { what: "normal", n_rows });
        }
        let normal = &normal;
        // One columnar snapshot pins every attribute-contiguous slice for
        // the whole pass; kernels below never pay per-cell dispatch.
        // Generation labels every attribute's partition space once and
        // hands that index to ranking, which scores Eq. 3 against the same
        // pre-filter, pre-prune labels without partitioning anything.
        let snapshot = dataset.snapshot();
        let (raw, index) = try_generate_indexed(
            &snapshot,
            abnormal,
            normal,
            params,
            budget,
            AblationFlags::default(),
        )?;
        let predicates = self.domain.prune(dataset, raw, params);
        let all_causes = self.repository.try_rank_indexed(&index, budget)?;
        let causes = all_causes.iter().filter(|c| c.confidence >= params.lambda).cloned().collect();
        Ok(Explanation { predicates, causes, all_causes, interventions: Vec::new() })
    }

    /// [`try_explain`](Self::try_explain) through the row-wise reference
    /// kernels of [`scalar`](crate::scalar): same degenerate-input checks,
    /// same domain pruning and λ filter, but per-cell `value()` access and
    /// no budget or parallelism. Required to be bit-identical to the
    /// columnar path on every input — the determinism proptests and the
    /// `columnar_scaling` benchmark diff the two.
    #[cfg(any(test, feature = "scalar-shim"))]
    pub fn explain_scalar(
        &self,
        dataset: &Dataset,
        abnormal: &Region,
        normal: Option<&Region>,
    ) -> Result<Explanation, SherlockError> {
        if dataset.n_rows() == 0 {
            return Err(SherlockError::EmptyInput("dataset"));
        }
        let n_rows = dataset.n_rows();
        let abnormal = &abnormal.clip(n_rows);
        if abnormal.is_empty() {
            return Err(SherlockError::EmptyRegion { what: "abnormal", n_rows });
        }
        let normal = match normal {
            Some(region) => region.clip(n_rows),
            None => abnormal.complement(n_rows),
        };
        if normal.is_empty() {
            return Err(SherlockError::EmptyRegion { what: "normal", n_rows });
        }
        let normal = &normal;
        let raw = crate::scalar::generate_predicates(dataset, abnormal, normal, &self.params);
        let predicates = self.domain.prune(dataset, raw, &self.params);
        let all_causes =
            crate::scalar::rank(&self.repository, dataset, abnormal, normal, &self.params);
        let causes =
            all_causes.iter().filter(|c| c.confidence >= self.params.lambda).cloned().collect();
        Ok(Explanation { predicates, causes, all_causes, interventions: Vec::new() })
    }

    /// [`try_explain`](Self::try_explain), then interventionally validate
    /// the top-ranked causes against `runner` (§ interventional validation
    /// in `intervene`): each candidate's fault is re-injected and the
    /// explanation's own symptom signature is scored on the re-runs. The
    /// returned explanation carries one populated
    /// [`InterventionVerdict`](crate::intervene::InterventionVerdict) per
    /// candidate, with reproduced causes promoted to the front of the
    /// ranking when `cfg.promote` is set.
    ///
    /// Only the *explanation* can fail; trial-level trouble (runner errors,
    /// blown intervention budgets, panicking trials) degrades to
    /// not-reproduced verdicts counted in the report.
    pub fn try_explain_validated(
        &self,
        dataset: &Dataset,
        abnormal: &Region,
        normal: Option<&Region>,
        runner: &dyn InterventionRunner,
        cfg: &InterventionConfig,
    ) -> Result<(Explanation, InterventionReport), SherlockError> {
        let mut explanation = self.try_explain(dataset, abnormal, normal)?;
        let report = validate_explanation(&mut explanation, runner, &self.params, cfg);
        Ok((explanation, report))
    }

    /// [`explain_batch`](Self::explain_batch) followed by interventional
    /// validation of every successful case. Cases fan out first (batch-level
    /// parallelism, one armed budget); validation then runs case-by-case
    /// with trial-level parallelism inside, so the thread pool is never
    /// oversubscribed by nested fan-outs. Per-case errors pass through
    /// untouched.
    pub fn explain_batch_validated(
        &self,
        cases: &[Case<'_>],
        runner: &dyn InterventionRunner,
        cfg: &InterventionConfig,
    ) -> Vec<Result<(Explanation, InterventionReport), SherlockError>> {
        self.explain_batch(cases)
            .into_iter()
            .map(|result| {
                result.map(|mut explanation| {
                    let report = validate_explanation(&mut explanation, runner, &self.params, cfg);
                    (explanation, report)
                })
            })
            .collect()
    }

    /// The user confirmed `cause` for an anomaly whose explanation carried
    /// `predicates`: store (and possibly merge) the causal model.
    pub fn feedback(&mut self, cause: &str, predicates: &[GeneratedPredicate]) {
        self.repository.add(CausalModel::from_feedback(cause, predicates));
    }

    /// Automatic anomaly detection (§7). Advisory: an over-budget or
    /// internally failing run degrades to `None`; use
    /// [`try_detect`](Self::try_detect) to see the error.
    pub fn detect(&self, dataset: &Dataset) -> Option<Detection> {
        self.try_detect(dataset).unwrap_or(None)
    }

    /// [`detect`](Self::detect) under the engine's
    /// [`DiagnosisBudget`](crate::DiagnosisBudget), surfacing blown
    /// deadlines, size-limit rejections, and caught panics instead of
    /// swallowing them.
    pub fn try_detect(&self, dataset: &Dataset) -> Result<Option<Detection>, SherlockError> {
        let armed = self.params.budget.arm();
        try_detect_anomaly(dataset, &self.params, &armed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsherlock_telemetry::{AttributeMeta, Schema, Value};

    /// `signal` leaps in rows 30..45.
    fn dataset() -> (Dataset, Region) {
        let schema = Schema::from_attrs([
            AttributeMeta::numeric("signal"),
            AttributeMeta::numeric("steady"),
        ])
        .unwrap();
        let mut d = Dataset::new(schema);
        for i in 0..80 {
            let abnormal = (30..45).contains(&i);
            // Fractional jitter keeps values distinct, like real telemetry.
            let jitter = (i as f64 * 0.317).sin() * 0.9;
            let signal =
                if abnormal { 80.0 + (i % 4) as f64 } else { 5.0 + (i % 6) as f64 } + jitter;
            d.push_row(i as f64, &[Value::Num(signal), Value::Num(40.0 + (i % 3) as f64)]).unwrap();
        }
        (d, Region::from_range(30..45))
    }

    #[test]
    fn explain_then_feedback_then_rediagnose() {
        let (d, abnormal) = dataset();
        let mut sherlock = Sherlock::new(SherlockParams::default());
        let explanation = sherlock.explain(&d, &abnormal, None);
        assert!(!explanation.predicates.is_empty());
        assert!(explanation.causes.is_empty(), "no models yet");
        assert!(explanation.predicates_display().contains("signal"));

        sherlock.feedback("cache stampede", &explanation.predicates);
        assert_eq!(sherlock.repository().models().len(), 1);

        // Re-diagnosing the same anomaly must surface the stored cause.
        let second = sherlock.explain(&d, &abnormal, None);
        let top = second.top_cause().expect("cause above lambda");
        assert_eq!(top.cause, "cache stampede");
        assert!(top.confidence > 0.5);
    }

    #[test]
    fn explicit_normal_region_is_honoured() {
        let (d, abnormal) = dataset();
        let sherlock = Sherlock::new(SherlockParams::default());
        // Giving only rows 0..10 as normal (instead of the complement)
        // must still find the signal predicate.
        let normal = Region::from_range(0..10);
        let explanation = sherlock.explain(&d, &abnormal, Some(&normal));
        assert!(explanation.predicates.iter().any(|p| p.predicate.attr == "signal"));
    }

    #[test]
    fn low_confidence_causes_are_hidden_but_listed() {
        let (d, abnormal) = dataset();
        let mut sherlock = Sherlock::new(SherlockParams::default());
        // A model that fits nothing in this dataset.
        sherlock.repository_mut().add(CausalModel {
            cause: "red herring".into(),
            predicates: vec![crate::predicate::Predicate::lt("signal", -100.0)],
            merged_from: 1,
        });
        let explanation = sherlock.explain(&d, &abnormal, None);
        assert!(explanation.causes.is_empty());
        assert_eq!(explanation.all_causes.len(), 1);
    }

    #[test]
    fn explain_tolerates_regions_beyond_the_dataset() {
        let (d, _) = dataset();
        let sherlock = Sherlock::new(SherlockParams::default());
        // Regions defined over a healthier, longer dataset: rows ≥ 80 are
        // gone after lossy ingestion. Must clip, not panic.
        let abnormal = Region::from_indices((30..45).chain(100..150));
        let normal = Region::from_range(120..200);
        let explanation = sherlock.explain(&d, &abnormal, Some(&normal));
        // The explicit normal region clipped to nothing -> no predicates.
        assert!(explanation.predicates.is_empty());
        // With the implicit complement, the surviving in-range part of the
        // abnormal region still explains the anomaly.
        let explanation = sherlock.explain(&d, &abnormal, None);
        assert!(!explanation.predicates.is_empty());
    }

    #[test]
    fn explain_survives_fully_out_of_range_abnormal() {
        let (d, _) = dataset();
        let sherlock = Sherlock::new(SherlockParams::default());
        let abnormal = Region::from_range(500..600);
        let explanation = sherlock.explain(&d, &abnormal, None);
        assert!(explanation.predicates.is_empty());
        assert!(explanation.causes.is_empty());
    }

    #[test]
    fn explain_survives_nan_riddled_attributes() {
        let (mut d, abnormal) = dataset();
        // Poison one attribute completely and half of the other.
        {
            let col = d.numeric_mut(1).unwrap();
            col.iter_mut().for_each(|v| *v = f64::NAN);
        }
        {
            let col = d.numeric_mut(0).unwrap();
            col.iter_mut().step_by(2).for_each(|v| *v = f64::NAN);
        }
        let sherlock = Sherlock::new(SherlockParams::default());
        // Must complete without panicking; the signal may or may not
        // survive at 50% NaN density.
        let _ = sherlock.explain(&d, &abnormal, None);
    }

    #[test]
    fn explain_on_empty_dataset_is_empty() {
        let schema =
            dbsherlock_telemetry::Schema::from_attrs([AttributeMeta::numeric("x")]).unwrap();
        let d = Dataset::new(schema);
        let sherlock = Sherlock::new(SherlockParams::default());
        let explanation = sherlock.explain(&d, &Region::from_range(0..10), None);
        assert!(explanation.predicates.is_empty());
    }

    #[test]
    fn try_explain_reports_degenerate_input() {
        let (d, abnormal) = dataset();
        let sherlock = Sherlock::new(SherlockParams::default());
        let empty = Dataset::new(d.schema().clone());
        assert!(matches!(
            sherlock.try_explain(&empty, &abnormal, None),
            Err(SherlockError::EmptyInput("dataset"))
        ));
        assert!(matches!(
            sherlock.try_explain(&d, &Region::from_range(500..600), None),
            Err(SherlockError::EmptyRegion { what: "abnormal", .. })
        ));
        let everything = Region::from_range(0..80);
        assert!(matches!(
            sherlock.try_explain(&d, &everything, None),
            Err(SherlockError::EmptyRegion { what: "normal", .. })
        ));
        assert!(sherlock.try_explain(&d, &abnormal, None).is_ok());
    }

    #[test]
    fn explain_batch_preserves_case_order_and_isolates_errors() {
        let (d, abnormal) = dataset();
        let sherlock = Sherlock::new(SherlockParams::default());
        let out_of_range = Region::from_range(500..600);
        let prefix = Region::from_range(0..10);
        let cases = [
            Case::new(&d, &abnormal),
            Case::new(&d, &out_of_range),
            Case { normal: Some(&prefix), ..Case::new(&d, &abnormal) },
        ];
        let results = sherlock.explain_batch(&cases);
        assert_eq!(results.len(), 3);
        assert!(results[0]
            .as_ref()
            .unwrap()
            .predicates
            .iter()
            .any(|p| p.predicate.attr == "signal"));
        assert!(matches!(results[1], Err(SherlockError::EmptyRegion { what: "abnormal", .. })));
        assert!(!results[2].as_ref().unwrap().predicates.is_empty());
    }

    #[test]
    fn explain_batch_matches_serial_explain() {
        let (d, abnormal) = dataset();
        let mut sherlock =
            Sherlock::new(SherlockParams::default().with_exec(ExecPolicy::Threads(4)));
        let first = sherlock.explain(&d, &abnormal, None);
        sherlock.feedback("cache stampede", &first.predicates);

        let cases: Vec<Case<'_>> = (0..6).map(|_| Case::new(&d, &abnormal)).collect();
        let batch = sherlock.explain_batch(&cases);
        let single = sherlock.explain(&d, &abnormal, None);
        for result in batch {
            let explanation = result.unwrap();
            assert_eq!(explanation.predicates_display(), single.predicates_display());
            let causes: Vec<_> =
                explanation.causes.iter().map(|c| (c.cause.clone(), c.confidence)).collect();
            let expect: Vec<_> =
                single.causes.iter().map(|c| (c.cause.clone(), c.confidence)).collect();
            assert_eq!(causes, expect);
        }
    }

    #[test]
    fn explain_batch_isolates_a_panicking_scorer_to_its_slot() {
        let (d, abnormal) = dataset();
        // A second dataset carrying the chaos attribute: scoring any model
        // against it panics inside the real rank stage.
        let schema = Schema::from_attrs([
            AttributeMeta::numeric("signal"),
            AttributeMeta::numeric(crate::chaos::PANIC_ATTR),
        ])
        .unwrap();
        let mut poisoned = Dataset::new(schema);
        for i in 0..80 {
            let signal = if (30..45).contains(&i) { 80.0 } else { 5.0 } + (i % 4) as f64;
            poisoned.push_row(i as f64, &[Value::Num(signal), Value::Num(1.0)]).unwrap();
        }

        let mut sherlock = Sherlock::new(SherlockParams::default());
        let first = sherlock.explain(&d, &abnormal, None);
        sherlock.feedback("cache stampede", &first.predicates);

        let cases =
            [Case::new(&d, &abnormal), Case::new(&poisoned, &abnormal), Case::new(&d, &abnormal)];
        // The deliberate panic is caught, but the default hook would still
        // print a backtrace per poisoned case.
        let results = crate::chaos::quiet_panics(|| sherlock.explain_batch(&cases));

        assert!(matches!(
            &results[1],
            Err(SherlockError::TaskPanicked { stage: "rank", message }) if message.contains("chaos")
        ));
        // The neighbours are untouched and identical to a clean run.
        let clean = sherlock.explain(&d, &abnormal, None);
        for i in [0, 2] {
            let e = results[i].as_ref().unwrap();
            assert_eq!(e.predicates_display(), clean.predicates_display());
            assert_eq!(e.causes.len(), clean.causes.len());
        }
    }

    #[test]
    fn explain_batch_deadline_degrades_to_per_case_errors() {
        let (d, abnormal) = dataset();
        let params = SherlockParams::default()
            .with_budget(crate::budget::DiagnosisBudget::unlimited().with_deadline_ms(0));
        let sherlock = Sherlock::new(params);
        let cases = [Case::new(&d, &abnormal), Case::new(&d, &abnormal)];
        for result in sherlock.explain_batch(&cases) {
            assert!(matches!(result, Err(SherlockError::DeadlineExceeded { .. })));
        }
        // try_detect honours the same budget; plain detect degrades to None.
        assert!(matches!(sherlock.try_detect(&d), Err(SherlockError::DeadlineExceeded { .. })));
        assert!(sherlock.detect(&d).is_none());
    }

    #[test]
    fn detect_finds_the_anomalous_window() {
        let (d, truth) = dataset();
        let sherlock = Sherlock::new(SherlockParams::default());
        let detection = sherlock.detect(&d).expect("detectable shift");
        assert!(detection.region.iou(&truth) > 0.6, "{:?}", detection.region.intervals());
    }
}
