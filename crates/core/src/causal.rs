//! Causal models: user-confirmed causes with effect predicates (paper §6).
//!
//! A causal model is a simplified Halpern–Pearl model: a binary exogenous
//! *cause variable* (the DBA's diagnosis, e.g. "Log Rotation") whose truth
//! activates a set of *effect predicates*. At diagnosis time every stored
//! model is scored by its **confidence** (Eq. 3) — the average separation
//! power of its effect predicates in the partition space of the dataset
//! under diagnosis — and causes above the threshold `λ` are offered to the
//! user in decreasing confidence order.

use dbsherlock_telemetry::{Dataset, Region};
use serde::{Deserialize, Serialize};

use crate::budget::ArmedBudget;
use crate::error::SherlockError;
use crate::exec::{try_par_map_indexed, ExecPolicy};
use crate::generate::GeneratedPredicate;
use crate::params::SherlockParams;
use crate::partition::{LabeledSpace, PartitionIndex};
use crate::predicate::Predicate;

/// Index of the labeled partition spaces `models` reference: how ranking
/// outside a diagnosis pass (where predicate generation has not already
/// built every space) gets the case's labels. Each distinct attribute is
/// partitioned and labeled once, with `budget` polled before each.
fn referenced_index<'a>(
    dataset: &'a Dataset,
    models: &[CausalModel],
    abnormal: &Region,
    normal: &Region,
    params: &SherlockParams,
    budget: &ArmedBudget,
) -> Result<PartitionIndex<'a>, SherlockError> {
    let mut attr_ids: Vec<usize> = models
        .iter()
        .flat_map(|m| &m.predicates)
        .filter_map(|p| dataset.schema().id_of(&p.attr))
        .collect();
    attr_ids.sort_unstable();
    attr_ids.dedup();
    let snapshot = dataset.snapshot();
    let mut spaces: Vec<Option<LabeledSpace>> = vec![None; dataset.schema().len()];
    for attr_id in attr_ids {
        budget.check("rank")?;
        if let Some(slot) = spaces.get_mut(attr_id) {
            *slot = LabeledSpace::build(&snapshot, attr_id, abnormal, normal, params.n_partitions);
        }
    }
    Ok(PartitionIndex::new(dataset, spaces))
}

/// A cause variable and its effect predicates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CausalModel {
    /// Human-readable cause label supplied by the user.
    pub cause: String,
    /// Effect predicates activated when the cause is true.
    pub predicates: Vec<Predicate>,
    /// How many diagnosed datasets contributed to this model (1 for a
    /// fresh model; grows when models are merged, §6.2).
    pub merged_from: usize,
}

impl CausalModel {
    /// Build a model from a confirmed diagnosis.
    pub fn from_feedback(cause: impl Into<String>, predicates: &[GeneratedPredicate]) -> Self {
        CausalModel {
            cause: cause.into(),
            predicates: predicates.iter().map(|g| g.predicate.clone()).collect(),
            merged_from: 1,
        }
    }

    /// Confidence of this model for the anomaly `(abnormal, normal)` in
    /// `dataset` (Eq. 3): the mean, over effect predicates, of the
    /// partition-space separation power of each predicate. Predicates on
    /// attributes the dataset lacks (or that cannot be partitioned)
    /// contribute `0`. Returns a value in `[-1, 1]`; an empty model scores
    /// `0`.
    pub fn confidence(
        &self,
        dataset: &Dataset,
        abnormal: &Region,
        normal: &Region,
        params: &SherlockParams,
    ) -> f64 {
        // An unlimited budget never fails its checks, so this never maps
        // an error.
        let models = std::slice::from_ref(self);
        referenced_index(dataset, models, abnormal, normal, params, &ArmedBudget::unlimited())
            .map_or(0.0, |index| self.score(&index))
    }

    /// Eq. 3 against a case's [`PartitionIndex`]: the one scorer behind
    /// [`confidence`](Self::confidence) and ranking.
    fn score(&self, index: &PartitionIndex<'_>) -> f64 {
        // Deliberate-panic hook for the crash-torture harness; a no-op for
        // every real cause and dataset, and absent (no panic, no schema
        // lookup) in builds without the `chaos` feature (see [`crate::chaos`]).
        #[cfg(any(test, feature = "chaos"))]
        crate::chaos::scorer_tripwire(&self.cause, index.dataset());
        if self.predicates.is_empty() {
            return 0.0;
        }
        let total: f64 = self.predicates.iter().map(|pred| index.separation_power(pred)).sum();
        total / self.predicates.len() as f64
    }

    /// Rows of `dataset` this model flags abnormal: those satisfying the
    /// *conjunction* of all effect predicates. Evaluated columnar: one
    /// mask fill per predicate, AND-folded, instead of a per-row
    /// conjunction of `matches_row` calls.
    pub fn predicted_region(&self, dataset: &Dataset) -> Region {
        if self.predicates.is_empty() {
            return Region::new();
        }
        let mut acc = vec![true; dataset.n_rows()];
        let mut mask = Vec::new();
        for p in &self.predicates {
            let Some(attr_id) = dataset.schema().id_of(&p.attr) else {
                // A predicate over an attribute the dataset lacks matches
                // no row, so the conjunction is empty.
                return Region::new();
            };
            p.fill_mask(dataset.column(attr_id), &mut mask);
            for (slot, &m) in acc.iter_mut().zip(&mask) {
                *slot = *slot && m;
            }
        }
        Region::from_indices(acc.iter().enumerate().filter(|(_, &keep)| keep).map(|(row, _)| row))
    }

    /// Precision, recall, and F1 of the model's predicted abnormal rows
    /// against a ground-truth region (the paper's F1-measure, footnote 1).
    pub fn f1(&self, dataset: &Dataset, truth: &Region) -> Accuracy {
        Accuracy::of_regions(&self.predicted_region(dataset), truth)
    }
}

/// Precision / recall / F1 triple.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Accuracy {
    /// `tp / (tp + fp)`.
    pub precision: f64,
    /// `tp / (tp + fn)`.
    pub recall: f64,
    /// `2pr / (p + r)`.
    pub f1: f64,
}

impl Accuracy {
    /// Score `predicted` against `truth` (both row-index regions).
    pub fn of_regions(predicted: &Region, truth: &Region) -> Accuracy {
        let tp = predicted.intersect(truth).len() as f64;
        let precision = if predicted.is_empty() { 0.0 } else { tp / predicted.len() as f64 };
        let recall = if truth.is_empty() { 0.0 } else { tp / truth.len() as f64 };
        // `> 0.0` instead of `== 0.0`: guards the 0/0 case and maps a NaN
        // precision/recall to 0.0 rather than propagating it.
        let f1 = if precision + recall > 0.0 {
            2.0 * precision * recall / (precision + recall)
        } else {
            0.0
        };
        Accuracy { precision, recall, f1 }
    }
}

/// One ranked diagnosis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankedCause {
    /// The model's cause label.
    pub cause: String,
    /// Its confidence for the current anomaly, in `[-1, 1]`.
    pub confidence: f64,
}

/// The system's accumulated causal models.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ModelRepository {
    models: Vec<CausalModel>,
}

impl ModelRepository {
    /// Empty repository.
    pub fn new() -> Self {
        ModelRepository::default()
    }

    /// Add a model. If a model with the same cause exists, the two are
    /// merged (§6.2); otherwise the model is stored as-is.
    pub fn add(&mut self, model: CausalModel) {
        if let Some(existing) = self.models.iter_mut().find(|m| m.cause == model.cause) {
            *existing = crate::merge::merge_models(existing, &model);
        } else {
            self.models.push(model);
        }
    }

    /// Stored models.
    pub fn models(&self) -> &[CausalModel] {
        &self.models
    }

    /// Model for a cause, if present.
    pub fn model_of(&self, cause: &str) -> Option<&CausalModel> {
        self.models.iter().find(|m| m.cause == cause)
    }

    /// Score every model against the anomaly and return all causes in
    /// decreasing confidence order (unfiltered; apply `λ` at the
    /// presentation layer so callers can inspect margins). Confidence ties
    /// break by cause name so the ranking is deterministic regardless of
    /// insertion order.
    ///
    /// [`try_rank`](Self::try_rank) with an unlimited budget, which can
    /// only fail on a panicking scorer; that ranks nothing.
    pub fn rank(
        &self,
        dataset: &Dataset,
        abnormal: &Region,
        normal: &Region,
        params: &SherlockParams,
    ) -> Vec<RankedCause> {
        self.try_rank(dataset, abnormal, normal, params, &ArmedBudget::unlimited())
            .unwrap_or_default()
    }

    /// [`rank`](Self::rank) under a [`DiagnosisBudget`](crate::DiagnosisBudget):
    /// the budget is checked before each attribute is labeled and before
    /// each model is scored, and a panicking scorer is caught at its slot.
    /// A ranking that silently dropped the model that panicked could
    /// promote the wrong cause, so the first failure aborts the whole
    /// ranking.
    pub fn try_rank(
        &self,
        dataset: &Dataset,
        abnormal: &Region,
        normal: &Region,
        params: &SherlockParams,
        budget: &ArmedBudget,
    ) -> Result<Vec<RankedCause>, SherlockError> {
        let index = referenced_index(dataset, &self.models, abnormal, normal, params, budget)?;
        self.try_rank_indexed(&index, budget)
    }

    /// [`try_rank`](Self::try_rank) against a case's prebuilt
    /// [`PartitionIndex`] — the diagnosis path, where predicate generation
    /// has already labeled every attribute.
    ///
    /// Models are scored serially: with the index prebuilt, an Eq. 3 term
    /// costs two binary searches, and a whole ranking takes less time than
    /// spawning worker threads would. The per-model slots still run behind
    /// the executor's panic-isolation boundary.
    pub(crate) fn try_rank_indexed(
        &self,
        index: &PartitionIndex<'_>,
        budget: &ArmedBudget,
    ) -> Result<Vec<RankedCause>, SherlockError> {
        let slots = try_par_map_indexed(ExecPolicy::Serial, "rank", &self.models, |_, m| {
            budget.check("rank")?;
            Ok(RankedCause { cause: m.cause.clone(), confidence: m.score(index) })
        });
        let mut ranked = Vec::with_capacity(slots.len());
        for slot in slots {
            ranked.push(slot?);
        }
        ranked.sort_by(|a, b| {
            b.confidence.total_cmp(&a.confidence).then_with(|| a.cause.cmp(&b.cause))
        });
        Ok(ranked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsherlock_telemetry::{AttributeMeta, Schema, Value};

    /// 40 rows; `hot` jumps to ~100 in rows 20..30, `cold` drops to ~0.
    fn dataset() -> (Dataset, Region, Region) {
        let schema =
            Schema::from_attrs([AttributeMeta::numeric("hot"), AttributeMeta::numeric("cold")])
                .unwrap();
        let mut d = Dataset::new(schema);
        for i in 0..40 {
            let abnormal = (20..30).contains(&i);
            let hot = if abnormal { 100.0 + (i % 3) as f64 } else { 10.0 + (i % 5) as f64 };
            let cold = if abnormal { (i % 3) as f64 } else { 50.0 + (i % 5) as f64 };
            d.push_row(i as f64, &[Value::Num(hot), Value::Num(cold)]).unwrap();
        }
        let abnormal = Region::from_range(20..30);
        let normal = abnormal.complement(40);
        (d, abnormal, normal)
    }

    fn matching_model() -> CausalModel {
        CausalModel {
            cause: "overheat".into(),
            predicates: vec![Predicate::gt("hot", 50.0), Predicate::lt("cold", 25.0)],
            merged_from: 1,
        }
    }

    fn wrong_model() -> CausalModel {
        CausalModel {
            cause: "wrong".into(),
            predicates: vec![Predicate::lt("hot", 50.0)],
            merged_from: 1,
        }
    }

    #[test]
    fn matching_model_has_high_confidence() {
        let (d, abnormal, normal) = dataset();
        let params = SherlockParams::default();
        let good = matching_model().confidence(&d, &abnormal, &normal, &params);
        let bad = wrong_model().confidence(&d, &abnormal, &normal, &params);
        assert!(good > 0.9, "good {good}");
        assert!(bad < 0.0, "bad {bad}");
    }

    #[test]
    fn confidence_of_unknown_attribute_is_zero() {
        let (d, abnormal, normal) = dataset();
        let m = CausalModel {
            cause: "x".into(),
            predicates: vec![Predicate::gt("missing", 0.0)],
            merged_from: 1,
        };
        assert_eq!(m.confidence(&d, &abnormal, &normal, &SherlockParams::default()), 0.0);
        let empty = CausalModel { cause: "e".into(), predicates: vec![], merged_from: 1 };
        assert_eq!(empty.confidence(&d, &abnormal, &normal, &SherlockParams::default()), 0.0);
    }

    #[test]
    fn predicted_region_is_conjunction() {
        let (d, abnormal, _) = dataset();
        let m = matching_model();
        let predicted = m.predicted_region(&d);
        assert_eq!(predicted, abnormal);
        let acc = m.f1(&d, &abnormal);
        assert_eq!(acc.precision, 1.0);
        assert_eq!(acc.recall, 1.0);
        assert_eq!(acc.f1, 1.0);
    }

    #[test]
    fn accuracy_handles_empty_sides() {
        let empty = Region::new();
        let truth = Region::from_range(0..5);
        let acc = Accuracy::of_regions(&empty, &truth);
        assert_eq!((acc.precision, acc.recall, acc.f1), (0.0, 0.0, 0.0));
    }

    #[test]
    fn accuracy_partial_overlap() {
        let predicted = Region::from_range(0..10);
        let truth = Region::from_range(5..10);
        let acc = Accuracy::of_regions(&predicted, &truth);
        assert_eq!(acc.precision, 0.5);
        assert_eq!(acc.recall, 1.0);
        assert!((acc.f1 - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn repository_ranks_by_confidence() {
        let (d, abnormal, normal) = dataset();
        let mut repo = ModelRepository::new();
        repo.add(wrong_model());
        repo.add(matching_model());
        let ranked = repo.rank(&d, &abnormal, &normal, &SherlockParams::default());
        assert_eq!(ranked[0].cause, "overheat");
        assert!(ranked[0].confidence > ranked[1].confidence);
    }

    #[test]
    fn rank_breaks_confidence_ties_by_cause_name() {
        let (d, abnormal, normal) = dataset();
        // Two models with identical predicates score identically; the tie
        // must break alphabetically no matter the insertion order.
        let clone_of = |cause: &str| CausalModel {
            cause: cause.into(),
            predicates: matching_model().predicates,
            merged_from: 1,
        };
        for order in [["zeta", "alpha", "mid"], ["mid", "zeta", "alpha"]] {
            let mut repo = ModelRepository::new();
            for cause in order {
                repo.add(clone_of(cause));
            }
            let ranked = repo.rank(&d, &abnormal, &normal, &SherlockParams::default());
            let names: Vec<&str> = ranked.iter().map(|r| r.cause.as_str()).collect();
            assert_eq!(names, ["alpha", "mid", "zeta"], "insertion order {order:?}");
            assert_eq!(ranked[0].confidence, ranked[2].confidence);
        }
    }

    #[test]
    fn try_rank_matches_rank_within_budget() {
        let (d, abnormal, normal) = dataset();
        let mut repo = ModelRepository::new();
        repo.add(wrong_model());
        repo.add(matching_model());
        let params = SherlockParams::default();
        let plain = repo.rank(&d, &abnormal, &normal, &params);
        let budgeted =
            repo.try_rank(&d, &abnormal, &normal, &params, &ArmedBudget::unlimited()).unwrap();
        assert_eq!(plain, budgeted);
    }

    #[test]
    fn try_rank_surfaces_a_panicking_scorer() {
        let (d, abnormal, normal) = dataset();
        let mut repo = ModelRepository::new();
        repo.add(matching_model());
        repo.add(CausalModel {
            cause: crate::chaos::PANIC_CAUSE.into(),
            predicates: vec![Predicate::gt("hot", 0.0)],
            merged_from: 1,
        });
        let params = SherlockParams::default(); // serial in-test resolve is fine
        let result = crate::chaos::quiet_panics(|| {
            repo.try_rank(
                &d,
                &abnormal,
                &normal,
                &params.with_exec(crate::exec::ExecPolicy::Serial),
                &ArmedBudget::unlimited(),
            )
        });
        match result {
            Err(SherlockError::TaskPanicked { stage: "rank", message }) => {
                assert!(message.contains("chaos"), "{message}");
            }
            other => panic!("expected TaskPanicked, got {other:?}"),
        }
    }

    #[test]
    fn repository_merges_same_cause() {
        let mut repo = ModelRepository::new();
        repo.add(matching_model());
        repo.add(CausalModel {
            cause: "overheat".into(),
            predicates: vec![Predicate::gt("hot", 60.0)],
            merged_from: 1,
        });
        assert_eq!(repo.models().len(), 1);
        let m = repo.model_of("overheat").unwrap();
        assert_eq!(m.merged_from, 2);
        // Only the common attribute survives the merge.
        assert_eq!(m.predicates.len(), 1);
        assert_eq!(m.predicates[0], Predicate::gt("hot", 50.0));
    }
}
