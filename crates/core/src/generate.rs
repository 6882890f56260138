//! Algorithm 1: predicate generation (paper §4).
//!
//! Per attribute: build the partition space, label it from the abnormal and
//! normal regions (the same pass computes `|µ_A − µ_N|`, Eq. 2), then
//! (numeric only) filter noisy partitions and fill the gaps; finally
//! extract a candidate predicate when the `|µ_A − µ_N| > θ` and
//! single-block conditions hold. Categorical attributes skip the
//! filtering/filling steps and extract straight after labeling.

use dbsherlock_telemetry::{
    AttributeKind, AttributeMeta, ColumnView, ColumnarSnapshot, Dataset, Region,
};

use crate::budget::ArmedBudget;
use crate::error::SherlockError;
use crate::exec::try_par_map_indexed;
use crate::extract::{extract_categorical_view, extract_numeric};
use crate::fill::fill_gaps_view;
use crate::filter::filter_partitions;
use crate::params::SherlockParams;
use crate::partition::{LabeledSpace, PartitionIndex};
use crate::predicate::Predicate;
use crate::separation::separation_power_view;

/// A generated predicate plus the statistics the algorithm computed for it.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedPredicate {
    /// The predicate itself.
    pub predicate: Predicate,
    /// Tuple-level separation power (Eq. 1) on the training data.
    pub separation_power: f64,
    /// Normalized mean difference `|µ_A − µ_N|` (numeric attributes; `1.0`
    /// recorded for categorical ones, which bypass the θ gate).
    pub normalized_diff: f64,
}

/// Ablation switches for the Appendix D step study (Table 6). The real
/// algorithm runs with both steps enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AblationFlags {
    /// Skip §4.3 partition filtering.
    pub skip_filtering: bool,
    /// Skip §4.4 gap filling.
    pub skip_filling: bool,
}

/// Generate the predicate conjunction explaining `abnormal` vs `normal`.
///
/// Runs the same Algorithm 1 as [`try_generate_predicates_snapshot`] under
/// an unlimited budget: a panic caught while processing any attribute
/// yields no predicates, the same degrade rule as
/// [`ModelRepository::rank`](crate::ModelRepository::rank).
pub fn generate_predicates(
    dataset: &Dataset,
    abnormal: &Region,
    normal: &Region,
    params: &SherlockParams,
) -> Vec<GeneratedPredicate> {
    generate_predicates_ablated(dataset, abnormal, normal, params, AblationFlags::default())
}

/// [`generate_predicates`] with individual pipeline steps disabled
/// (Appendix D's "without Partition Filtering / Filling the Gaps" rows).
/// A caught panic yields no predicates, as in [`generate_predicates`].
pub fn generate_predicates_ablated(
    dataset: &Dataset,
    abnormal: &Region,
    normal: &Region,
    params: &SherlockParams,
    ablation: AblationFlags,
) -> Vec<GeneratedPredicate> {
    let (snapshot, budget) = (dataset.snapshot(), ArmedBudget::unlimited());
    try_generate_indexed(&snapshot, abnormal, normal, params, &budget, ablation)
        .map(|(predicates, _)| predicates)
        .unwrap_or_default()
}

/// Algorithm 1 over a pinned [`ColumnarSnapshot`] under a
/// [`DiagnosisBudget`](crate::DiagnosisBudget): the budget is checked
/// before each attribute's run, and a panic while processing any attribute
/// is caught at that slot instead of tearing down the caller. The first
/// failure aborts the case (a partial predicate conjunction would be a
/// *wrong* answer, not a degraded one). Callers running several stages
/// against the same dataset build one snapshot per case so every kernel
/// shares the memoized range cache.
pub fn try_generate_predicates_snapshot(
    snapshot: &ColumnarSnapshot<'_>,
    abnormal: &Region,
    normal: &Region,
    params: &SherlockParams,
    budget: &ArmedBudget,
) -> Result<Vec<GeneratedPredicate>, SherlockError> {
    try_generate_indexed(snapshot, abnormal, normal, params, budget, AblationFlags::default())
        .map(|(predicates, _)| predicates)
}

/// The one implementation of Algorithm 1: [`try_generate_predicates_snapshot`]
/// with ablation switches, also returning the case's [`PartitionIndex`]:
/// every attribute's labeled partition space, built once inside the
/// per-attribute fan-out and kept for ranking (Eq. 3 is scored over the
/// same pre-filter labels Algorithm 1 starts from).
pub(crate) fn try_generate_indexed<'a>(
    snapshot: &ColumnarSnapshot<'a>,
    abnormal: &Region,
    normal: &Region,
    params: &SherlockParams,
    budget: &ArmedBudget,
    ablation: AblationFlags,
) -> Result<(Vec<GeneratedPredicate>, PartitionIndex<'a>), SherlockError> {
    // Regions may have been defined over a healthier version of the data:
    // lossy ingestion drops rows, so clip before any column indexing.
    let abnormal = &abnormal.clip(snapshot.n_rows());
    let normal = &normal.clip(snapshot.n_rows());
    if abnormal.is_empty() || normal.is_empty() {
        return Ok((Vec::new(), PartitionIndex::new(snapshot.dataset(), Vec::new())));
    }
    // Each attribute is an independent run of Algorithm 1, so the schema
    // fans out across the thread budget; collecting by index keeps the
    // output in schema order, identical to the serial loop.
    let attrs: Vec<(usize, &AttributeMeta)> = snapshot.schema().iter().collect();
    let per_attr = try_par_map_indexed(params.exec, "generate", &attrs, |_, &(attr_id, attr)| {
        budget.check("generate")?;
        let labeled = LabeledSpace::build(snapshot, attr_id, abnormal, normal, params.n_partitions);
        let generated = labeled.as_ref().and_then(|labeled| {
            extract_for_attribute(
                snapshot.column(attr_id),
                attr,
                labeled,
                abnormal,
                normal,
                params,
                ablation,
            )
        });
        Ok((labeled, generated))
    });
    let mut predicates = Vec::new();
    let mut spaces = Vec::with_capacity(per_attr.len());
    for slot in per_attr {
        let (labeled, generated) = slot?;
        spaces.push(labeled);
        predicates.extend(generated);
    }
    Ok((predicates, PartitionIndex::new(snapshot.dataset(), spaces)))
}

/// Algorithm 1 for a single attribute after partitioning and labeling:
/// (numeric) the `θ` gate on the Eq. 2 difference labeling computed,
/// filter and fill, then extract — the unit of work the parallel executor
/// maps over. Reads one column view.
fn extract_for_attribute(
    view: ColumnView<'_>,
    attr: &AttributeMeta,
    labeled: &LabeledSpace,
    abnormal: &Region,
    normal: &Region,
    params: &SherlockParams,
    ablation: AblationFlags,
) -> Option<GeneratedPredicate> {
    let (space, labels) = (labeled.space(), labeled.labels());
    match attr.kind {
        AttributeKind::Numeric => {
            let values = view.numeric()?;
            let d = labeled.mean_difference()?;
            if d <= params.theta {
                return None;
            }
            let filtered =
                if ablation.skip_filtering { labels.to_vec() } else { filter_partitions(labels) };
            let filled = if ablation.skip_filling {
                filtered
            } else {
                fill_gaps_view(&filtered, params.delta, values, space, normal)
            };
            let predicate = extract_numeric(&attr.name, space, &filled)?;
            let sp = separation_power_view(&predicate, view, abnormal, normal);
            (sp >= params.min_separation_power).then_some(GeneratedPredicate {
                predicate,
                separation_power: sp,
                normalized_diff: d,
            })
        }
        AttributeKind::Categorical => {
            let predicate = extract_categorical_view(&attr.name, view.categorical()?.1, labels)?;
            let sp = separation_power_view(&predicate, view, abnormal, normal);
            (sp >= params.min_separation_power).then_some(GeneratedPredicate {
                predicate,
                separation_power: sp,
                normalized_diff: 1.0,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::PredicateOp;
    use dbsherlock_telemetry::{AttributeMeta, Value};

    /// Two numeric attributes: `signal` jumps from ~10 to ~90 in the
    /// abnormal region, `noise` is unrelated; one categorical attribute
    /// flips to "bad" while abnormal.
    fn dataset() -> (Dataset, Region, Region) {
        let attrs = [
            AttributeMeta::numeric("signal"),
            AttributeMeta::numeric("noise"),
            AttributeMeta::categorical("state"),
        ];
        let d = crate::fixtures::build_dataset(attrs, 60, |d, i| {
            let abnormal = (40..50).contains(&i);
            let signal = if abnormal { 90.0 + (i % 5) as f64 } else { 10.0 + (i % 7) as f64 };
            let noise = (i % 13) as f64;
            let state = d
                .intern(2, if abnormal { "bad" } else { "ok" })
                .unwrap_or_else(|e| panic!("fixture intern at row {i} rejected: {e}"));
            vec![Value::Num(signal), Value::Num(noise), state]
        });
        let abnormal = Region::from_range(40..50);
        let normal = abnormal.complement(60);
        (d, abnormal, normal)
    }

    #[test]
    fn finds_signal_and_state_not_noise() {
        let (d, abnormal, normal) = dataset();
        let preds = generate_predicates(&d, &abnormal, &normal, &SherlockParams::default());
        let names: Vec<&str> = preds.iter().map(|p| p.predicate.attr.as_str()).collect();
        assert!(names.contains(&"signal"), "{names:?}");
        assert!(names.contains(&"state"), "{names:?}");
        assert!(!names.contains(&"noise"), "{names:?}");
    }

    #[test]
    fn signal_predicate_separates_perfectly() {
        let (d, abnormal, normal) = dataset();
        let preds = generate_predicates(&d, &abnormal, &normal, &SherlockParams::default());
        let signal = preds.iter().find(|p| p.predicate.attr == "signal").unwrap();
        assert!(signal.separation_power > 0.99, "sp {}", signal.separation_power);
        assert!(signal.normalized_diff > 0.5);
        // Direction: abnormal values are high, so the predicate must be
        // `Gt` (or `Between` anchored high).
        match signal.predicate.op {
            PredicateOp::Gt(x) => assert!(x > 20.0 && x < 90.0, "cut {x}"),
            PredicateOp::Between(lo, _) => assert!(lo > 20.0),
            ref other => panic!("unexpected op {other:?}"),
        }
    }

    #[test]
    fn categorical_predicate_collects_bad_state() {
        let (d, abnormal, normal) = dataset();
        let preds = generate_predicates(&d, &abnormal, &normal, &SherlockParams::default());
        let state = preds.iter().find(|p| p.predicate.attr == "state").unwrap();
        assert_eq!(state.predicate.op, PredicateOp::InSet(vec!["bad".to_string()]));
        assert!(state.separation_power > 0.99);
    }

    #[test]
    fn theta_gates_weak_attributes() {
        let (d, abnormal, normal) = dataset();
        // θ = 0.99 rejects even the strong signal.
        let params = SherlockParams::default().with_theta(0.99);
        let preds = generate_predicates(&d, &abnormal, &normal, &params);
        assert!(preds.iter().all(|p| p.predicate.attr != "signal"));
    }

    #[test]
    fn empty_regions_yield_nothing() {
        let (d, abnormal, _) = dataset();
        let params = SherlockParams::default();
        assert!(generate_predicates(&d, &Region::new(), &abnormal, &params).is_empty());
        assert!(generate_predicates(&d, &abnormal, &Region::new(), &params).is_empty());
    }

    #[test]
    fn blown_deadline_aborts_the_case() {
        let (d, abnormal, normal) = dataset();
        let params = SherlockParams::default();
        let armed = crate::budget::DiagnosisBudget::unlimited().with_deadline_ms(0).arm();
        let result =
            try_generate_predicates_snapshot(&d.snapshot(), &abnormal, &normal, &params, &armed);
        assert!(matches!(result, Err(SherlockError::DeadlineExceeded { stage: "generate", .. })));
    }

    #[test]
    fn ablations_degrade_output() {
        let (d, abnormal, normal) = dataset();
        let params = SherlockParams::default();
        let full = generate_predicates(&d, &abnormal, &normal, &params);
        let no_fill = generate_predicates_ablated(
            &d,
            &abnormal,
            &normal,
            &params,
            AblationFlags { skip_filling: true, ..Default::default() },
        );
        // Without gap filling, the block structure is fragmented by Empty
        // partitions, so the numeric predicate disappears (or at best gets
        // no stronger).
        let full_numeric = full.iter().filter(|p| p.predicate.op.is_numeric()).count();
        let ablated_numeric = no_fill.iter().filter(|p| p.predicate.op.is_numeric()).count();
        assert!(ablated_numeric <= full_numeric);
    }
}
