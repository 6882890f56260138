//! Row-wise reference implementations of the diagnosis kernels.
//!
//! This is the pre-columnar hot path, preserved verbatim as an executable
//! specification: every kernel walks the dataset cell by cell through
//! this module's `value` read, paying the column-enum dispatch per row that
//! the columnar kernels in [`label`](crate::label),
//! [`predicate`](crate::predicate), [`separation`](crate::separation), and
//! [`generate`](crate::generate) hoist out of their loops. It also keeps
//! the §7 detector in its straightforward form ([`detect_anomaly`]): a
//! fresh median per window, a sorted k-dist list per point, and DBSCAN
//! recomputing its distances.
//! The optimized paths are required to be **bit-identical** to this module
//! on valid inputs — the determinism proptests diff the two paths, and the
//! scaling benchmark (`columnar_scaling`) uses this module as its scalar
//! baseline.
//!
//! Compiled only for tests and under the `scalar-shim` feature; production
//! builds carry no row-wise code.

use dbsherlock_cluster::{dbscan, kdist_of, rows_from_columns, Label};
use dbsherlock_telemetry::{stats, AttributeKind, ColumnView, Dataset, Region, Value};

use crate::causal::{CausalModel, ModelRepository, RankedCause};
use crate::detect::Detection;
use crate::extract::{extract_categorical_view, extract_numeric};
use crate::fill::fill_gaps_view;
use crate::filter::filter_partitions;
use crate::generate::{AblationFlags, GeneratedPredicate};
use crate::params::SherlockParams;
use crate::partition::{PartitionLabel, PartitionSpace};
use crate::predicate::Predicate;

/// The single scalar at `(row, attr_id)`: the per-cell read every kernel
/// below goes through, one column-kind dispatch per call. Callers check
/// `row` and `attr_id` against the dataset first.
fn value(dataset: &Dataset, row: usize, attr_id: usize) -> Value {
    match dataset.column(attr_id) {
        ColumnView::Numeric(v) => Value::Num(v.0[row]),
        // sherlock-lint: allow(panic-path): callers bounds-check `row` first
        ColumnView::Categorical(c) => Value::Cat(c.ids[row]),
    }
}

/// Serial `(min, max)` over the finite values of a numeric attribute, in
/// row order with `f64::min`/`f64::max`: the oracle's own copy of the
/// fold, so the lane-parallel one behind `Dataset::numeric_range` is
/// checked against it rather than against itself.
fn finite_range(dataset: &Dataset, attr_id: usize) -> Option<(f64, f64)> {
    let mut it = dataset.numeric(attr_id)?.iter().copied().filter(|v| v.is_finite());
    let first = it.next()?;
    Some(it.fold((first, first), |(lo, hi), v| (lo.min(v), hi.max(v))))
}

/// `PartitionSpace::build` with the numeric domain from [`finite_range`].
fn partition_space(dataset: &Dataset, attr_id: usize, r: usize) -> Option<PartitionSpace> {
    match dataset.schema().attr(attr_id).kind {
        AttributeKind::Numeric => {
            PartitionSpace::from_numeric_range(finite_range(dataset, attr_id), r)
        }
        AttributeKind::Categorical => PartitionSpace::build(dataset, attr_id, r),
    }
}

/// Row-wise evaluation of `predicate` on one row: one `value()` dispatch
/// (and, for categorical attributes, one dictionary lookup) per call.
pub(crate) fn matches_row(predicate: &Predicate, dataset: &Dataset, row: usize) -> bool {
    let Some(attr_id) = dataset.schema().id_of(&predicate.attr) else {
        return false;
    };
    if row >= dataset.n_rows() {
        return false;
    }
    match value(dataset, row, attr_id) {
        Value::Num(v) => predicate.op.matches_num(v),
        Value::Cat(id) => {
            let Ok((_, dict)) = dataset.categorical(attr_id) else {
                return false;
            };
            dict.label(id).map(|l| predicate.op.matches_label(l)).unwrap_or(false)
        }
    }
}

/// Row-wise selectivity `|Pred(T)| / |T|`: one [`matches_row`] per row,
/// with the attribute re-resolved every time.
pub(crate) fn selectivity(predicate: &Predicate, dataset: &Dataset, rows: &[usize]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let hits = rows.iter().filter(|&&r| matches_row(predicate, dataset, r)).count();
    hits as f64 / rows.len() as f64
}

/// Row-wise Eq. 1: two independent selectivity passes.
pub fn separation_power(
    predicate: &Predicate,
    dataset: &Dataset,
    abnormal: &Region,
    normal: &Region,
) -> f64 {
    selectivity(predicate, dataset, abnormal.indices())
        - selectivity(predicate, dataset, normal.indices())
}

/// Row-wise §4.2 labeling: one `value()` dispatch per (region row), then
/// the same purity/majority fold as the columnar kernel.
pub(crate) fn label_partitions(
    dataset: &Dataset,
    attr_id: usize,
    space: &PartitionSpace,
    abnormal: &Region,
    normal: &Region,
) -> Vec<PartitionLabel> {
    let partition_of = |row: usize| -> Option<usize> {
        if row >= dataset.n_rows() || attr_id >= dataset.schema().len() {
            return None;
        }
        match (space, value(dataset, row, attr_id)) {
            // The paper's floor form, kept apart from the columnar binner.
            (&PartitionSpace::Numeric { min, max, r }, Value::Num(v)) if v.is_finite() => {
                let idx = ((v - min) / (max - min) * r as f64).floor() as isize;
                Some(idx.clamp(0, r as isize - 1) as usize)
            }
            (PartitionSpace::Categorical { .. }, Value::Cat(id)) => {
                ((id as usize) < space.len()).then_some(id as usize)
            }
            _ => None,
        }
    };
    let mut abnormal_hits = vec![0usize; space.len()];
    let mut normal_hits = vec![0usize; space.len()];
    for &row in abnormal.indices() {
        if let Some(hits) = partition_of(row).and_then(|j| abnormal_hits.get_mut(j)) {
            *hits += 1;
        }
    }
    for &row in normal.indices() {
        if let Some(hits) = partition_of(row).and_then(|j| normal_hits.get_mut(j)) {
            *hits += 1;
        }
    }
    abnormal_hits
        .iter()
        .zip(&normal_hits)
        .map(|(&a, &n)| match space {
            // Purity rule: any mix demotes to Empty.
            PartitionSpace::Numeric { .. } => match (a, n) {
                (0, 0) => PartitionLabel::Empty,
                (_, 0) => PartitionLabel::Abnormal,
                (0, _) => PartitionLabel::Normal,
                _ => PartitionLabel::Empty,
            },
            // Majority rule: ties (including 0-0) are Empty.
            PartitionSpace::Categorical { .. } => match a.cmp(&n) {
                std::cmp::Ordering::Greater => PartitionLabel::Abnormal,
                std::cmp::Ordering::Less => PartitionLabel::Normal,
                std::cmp::Ordering::Equal => PartitionLabel::Empty,
            },
        })
        .collect()
}

/// Does partition `j` of `space` satisfy `predicate`?
///
/// The paper's confidence definition (Eq. 3) needs `Pred(P)` — "the set of
/// partitions in P that satisfy predicate Pred" — without pinning down
/// what it means for an interval partition to satisfy an interval
/// predicate. We test the partition's *midpoint* for numeric spaces (a
/// partition is far narrower than any predicate of interest at the default
/// R, so midpoint vs. overlap is immaterial) and the partition's category
/// label for categorical spaces.
pub(crate) fn partition_satisfies(
    predicate: &Predicate,
    space: &PartitionSpace,
    dataset: &Dataset,
    attr_id: usize,
    j: usize,
) -> bool {
    match space {
        PartitionSpace::Numeric { .. } => {
            space.midpoint(j).map(|m| predicate.op.matches_num(m)).unwrap_or(false)
        }
        PartitionSpace::Categorical { .. } => {
            let Ok((_, dict)) = dataset.categorical(attr_id) else {
                return false;
            };
            dict.label(j as u32).map(|l| predicate.op.matches_label(l)).unwrap_or(false)
        }
    }
}

/// Row-wise partition-space separation power (one Eq. 3 term): one
/// `partition_satisfies` call — a midpoint test or a dictionary lookup —
/// per labeled partition.
pub fn partition_separation_power(
    predicate: &Predicate,
    space: &PartitionSpace,
    labels: &[PartitionLabel],
    dataset: &Dataset,
    attr_id: usize,
) -> f64 {
    let mut abnormal_total = 0usize;
    let mut abnormal_hits = 0usize;
    let mut normal_total = 0usize;
    let mut normal_hits = 0usize;
    for (j, &label) in labels.iter().enumerate() {
        let sat = partition_satisfies(predicate, space, dataset, attr_id, j);
        match label {
            PartitionLabel::Abnormal => {
                abnormal_total += 1;
                if sat {
                    abnormal_hits += 1;
                }
            }
            PartitionLabel::Normal => {
                normal_total += 1;
                if sat {
                    normal_hits += 1;
                }
            }
            PartitionLabel::Empty => {}
        }
    }
    let ratio = |hits: usize, total: usize| {
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    };
    ratio(abnormal_hits, abnormal_total) - ratio(normal_hits, normal_total)
}

/// Buffered Eq. 2: collect the normalized finite values of each region
/// into an intermediate vector, then take its mean (the columnar kernel
/// fuses the normalize-and-sum; the summation order is identical).
pub(crate) fn normalized_mean_difference(
    dataset: &Dataset,
    attr_id: usize,
    abnormal: &Region,
    normal: &Region,
) -> Option<f64> {
    let (min, max) = finite_range(dataset, attr_id)?;
    let mean_of = |region: &Region| -> Option<f64> {
        let values: Vec<f64> = region
            .indices()
            .iter()
            .filter_map(|&r| {
                if r >= dataset.n_rows() {
                    return None;
                }
                value(dataset, r, attr_id).as_num()
            })
            .filter(|v| v.is_finite())
            .map(|v| dbsherlock_telemetry::stats::normalize(v, min, max))
            .collect();
        if values.is_empty() {
            None
        } else {
            Some(dbsherlock_telemetry::stats::mean(&values))
        }
    };
    let a = mean_of(abnormal)?;
    let n = mean_of(normal)?;
    Some((a - n).abs())
}

/// Row-wise Algorithm 1: a serial loop over the schema, each attribute
/// partitioned, labeled, filtered, filled, and extracted through the
/// per-cell kernels above. Gate order matches the columnar
/// `extract_for_attribute` exactly.
pub fn generate_predicates(
    dataset: &Dataset,
    abnormal: &Region,
    normal: &Region,
    params: &SherlockParams,
) -> Vec<GeneratedPredicate> {
    generate_predicates_ablated(dataset, abnormal, normal, params, AblationFlags::default())
}

/// [`generate_predicates`] with pipeline steps disabled.
pub fn generate_predicates_ablated(
    dataset: &Dataset,
    abnormal: &Region,
    normal: &Region,
    params: &SherlockParams,
    ablation: AblationFlags,
) -> Vec<GeneratedPredicate> {
    let abnormal = &abnormal.clip(dataset.n_rows());
    let normal = &normal.clip(dataset.n_rows());
    if abnormal.is_empty() || normal.is_empty() {
        return Vec::new();
    }
    dataset
        .schema()
        .iter()
        .filter_map(|(attr_id, attr)| {
            let space = partition_space(dataset, attr_id, params.n_partitions)?;
            let labels = label_partitions(dataset, attr_id, &space, abnormal, normal);
            match attr.kind {
                AttributeKind::Numeric => {
                    let d = normalized_mean_difference(dataset, attr_id, abnormal, normal)?;
                    if d <= params.theta {
                        return None;
                    }
                    let filtered =
                        if ablation.skip_filtering { labels } else { filter_partitions(&labels) };
                    let filled = if ablation.skip_filling {
                        filtered
                    } else {
                        let values = dataset.numeric(attr_id).unwrap_or(&[]);
                        fill_gaps_view(&filtered, params.delta, values, &space, normal)
                    };
                    let predicate = extract_numeric(&attr.name, &space, &filled)?;
                    let sp = separation_power(&predicate, dataset, abnormal, normal);
                    (sp >= params.min_separation_power).then_some(GeneratedPredicate {
                        predicate,
                        separation_power: sp,
                        normalized_diff: d,
                    })
                }
                AttributeKind::Categorical => {
                    let (_, dict) = dataset.categorical(attr_id).ok()?;
                    let predicate = extract_categorical_view(&attr.name, dict, &labels)?;
                    let sp = separation_power(&predicate, dataset, abnormal, normal);
                    (sp >= params.min_separation_power).then_some(GeneratedPredicate {
                        predicate,
                        separation_power: sp,
                        normalized_diff: 1.0,
                    })
                }
            }
        })
        .collect()
}

/// Row-wise Eq. 3: each predicate rebuilds and relabels its attribute's
/// partition space from scratch (no per-case index).
pub(crate) fn confidence(
    model: &CausalModel,
    dataset: &Dataset,
    abnormal: &Region,
    normal: &Region,
    params: &SherlockParams,
) -> f64 {
    // Keep the chaos tripwire so crash-torture comparisons see identical
    // panics on both paths.
    #[cfg(any(test, feature = "chaos"))]
    crate::chaos::scorer_tripwire(&model.cause, dataset);
    if model.predicates.is_empty() {
        return 0.0;
    }
    let total: f64 = model
        .predicates
        .iter()
        .map(|pred| {
            let Some(attr_id) = dataset.schema().id_of(&pred.attr) else {
                return 0.0;
            };
            let Some(space) = partition_space(dataset, attr_id, params.n_partitions) else {
                return 0.0;
            };
            let labels = label_partitions(dataset, attr_id, &space, abnormal, normal);
            partition_separation_power(pred, &space, &labels, dataset, attr_id)
        })
        .sum();
    total / model.predicates.len() as f64
}

/// Row-wise model's predicted region: a per-row conjunction of
/// `matches_row` calls.
pub fn predicted_region(model: &CausalModel, dataset: &Dataset) -> Region {
    if model.predicates.is_empty() {
        return Region::new();
    }
    Region::from_indices(
        (0..dataset.n_rows())
            .filter(|&row| model.predicates.iter().all(|p| matches_row(p, dataset, row))),
    )
}

/// Row-wise ranking: a serial loop of uncached [`confidence`] calls, with
/// the same decreasing-confidence / cause-name tie-break order.
pub(crate) fn rank(
    repository: &ModelRepository,
    dataset: &Dataset,
    abnormal: &Region,
    normal: &Region,
    params: &SherlockParams,
) -> Vec<RankedCause> {
    let mut ranked: Vec<RankedCause> = repository
        .models()
        .iter()
        .map(|m| RankedCause {
            cause: m.cause.clone(),
            confidence: confidence(m, dataset, abnormal, normal, params),
        })
        .collect();
    ranked
        .sort_by(|a, b| b.confidence.total_cmp(&a.confidence).then_with(|| a.cause.cmp(&b.cause)));
    ranked
}

/// §7 potential power (Eq. 4) as a fresh median per window: every
/// `tau`-window is copied and its median selected, and the scan always runs
/// to the end. The oracle for [`crate::detect::potential_power`] and
/// [`crate::detect::window_medians`].
pub fn potential_power(normalized: &[f64], tau: usize) -> f64 {
    if normalized.is_empty() || tau == 0 || tau > normalized.len() {
        return 0.0;
    }
    let global = stats::median(normalized);
    let mut scratch = vec![0.0; tau];
    let mut best: f64 = 0.0;
    for window in normalized.windows(tau) {
        scratch.copy_from_slice(window);
        let m = stats::median_in_place(&mut scratch);
        best = best.max((m - global).abs());
    }
    best
}

/// §7 automatic detection, serial and with every piece of work done where
/// the paper describes it: [`potential_power`] over each whole column, a
/// k-dist list that sorts each point's distances to all others
/// ([`kdist_of`]), and DBSCAN over the points recomputing every distance
/// it needs. The oracle for [`crate::detect::try_detect_anomaly`].
pub fn detect_anomaly(dataset: &Dataset, params: &SherlockParams) -> Option<Detection> {
    let selected: Vec<(usize, Vec<f64>)> = dataset
        .schema()
        .ids_of_kind(AttributeKind::Numeric)
        .into_iter()
        .filter_map(|attr_id| {
            let normalized = stats::normalize_slice(dataset.numeric(attr_id)?);
            (potential_power(&normalized, params.tau) > params.pp_t)
                .then_some((attr_id, normalized))
        })
        .collect();
    if selected.is_empty() {
        return None;
    }
    let columns: Vec<&[f64]> = selected.iter().map(|(_, col)| col.as_slice()).collect();
    let points = rows_from_columns(&columns);
    if points.len() < params.min_pts {
        return None;
    }
    let lk: Vec<f64> = (0..points.len()).map(|i| kdist_of(&points, i, params.min_pts)).collect();
    let max_lk = lk.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if max_lk <= 0.0 || !max_lk.is_finite() {
        return None;
    }
    let eps = (max_lk / 4.0).max(2.0 * stats::quantile(&lk, 0.99));
    let clustering = dbscan(&points, eps, params.min_pts);
    let n = points.len();
    let max_cluster = (params.max_anomaly_fraction * n as f64) as usize;
    let sizes = clustering.sizes();
    let rows: Vec<usize> = (0..n)
        .filter(|&row| match clustering.labels.get(row) {
            Some(Label::Cluster(id)) => sizes.get(*id).is_some_and(|&size| size < max_cluster),
            _ => false,
        })
        .collect();
    if rows.is_empty() || rows.len() >= n {
        return None;
    }
    Some(Detection {
        region: Region::from_indices(rows),
        selected_attrs: selected.into_iter().map(|(id, _)| id).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsherlock_telemetry::{AttributeMeta, Schema};

    fn dataset() -> (Dataset, Region, Region) {
        let schema = Schema::from_attrs([
            AttributeMeta::numeric("signal"),
            AttributeMeta::categorical("state"),
        ])
        .unwrap();
        let mut d = Dataset::new(schema);
        for i in 0..40 {
            let abnormal = (20..30).contains(&i);
            let signal = if abnormal { 90.0 + (i % 3) as f64 } else { 10.0 + (i % 5) as f64 };
            let state = d.intern(1, if abnormal { "bad" } else { "ok" }).unwrap();
            d.push_row(i as f64, &[Value::Num(signal), state]).unwrap();
        }
        let abnormal = Region::from_range(20..30);
        let normal = abnormal.complement(40);
        (d, abnormal, normal)
    }

    #[test]
    fn scalar_generate_matches_columnar() {
        let (d, abnormal, normal) = dataset();
        let params = SherlockParams::default();
        let scalar = generate_predicates(&d, &abnormal, &normal, &params);
        let columnar = crate::generate::generate_predicates(&d, &abnormal, &normal, &params);
        assert_eq!(scalar, columnar);
        assert!(!scalar.is_empty());
    }

    #[test]
    fn scalar_separation_matches_columnar() {
        let (d, abnormal, normal) = dataset();
        for p in [
            Predicate::gt("signal", 50.0),
            Predicate::lt("signal", 50.0),
            Predicate::between("signal", 5.0, 40.0),
            Predicate::in_set("state", ["bad".to_string()]),
            Predicate::gt("missing", 0.0),
        ] {
            let scalar = separation_power(&p, &d, &abnormal, &normal);
            let columnar = crate::separation::separation_power(&p, &d, &abnormal, &normal);
            assert_eq!(scalar.to_bits(), columnar.to_bits(), "{p}");
        }
    }

    #[test]
    fn scalar_rank_matches_columnar() {
        let (d, abnormal, normal) = dataset();
        let params = SherlockParams::default();
        let mut repo = ModelRepository::new();
        repo.add(CausalModel {
            cause: "hot".into(),
            predicates: vec![Predicate::gt("signal", 50.0)],
            merged_from: 1,
        });
        repo.add(CausalModel {
            cause: "cold".into(),
            predicates: vec![Predicate::lt("signal", 50.0)],
            merged_from: 1,
        });
        let scalar = rank(&repo, &d, &abnormal, &normal, &params);
        let columnar = repo.rank(&d, &abnormal, &normal, &params);
        assert_eq!(scalar, columnar);
    }

    #[test]
    fn partition_satisfaction_uses_midpoints() {
        let space = PartitionSpace::Numeric { min: 0.0, max: 100.0, r: 10 };
        let (d, _, _) = dataset();
        let p = Predicate::gt("signal", 45.0);
        // Partition 4 covers [40,50): midpoint 45 -> not > 45.
        assert!(!partition_satisfies(&p, &space, &d, 0, 4));
        // Partition 5 covers [50,60): midpoint 55 -> satisfied.
        assert!(partition_satisfies(&p, &space, &d, 0, 5));
    }

    #[test]
    fn scalar_predicted_region_matches_columnar() {
        let (d, _, _) = dataset();
        let m = CausalModel {
            cause: "hot".into(),
            predicates: vec![
                Predicate::gt("signal", 50.0),
                Predicate::in_set("state", ["bad".to_string()]),
            ],
            merged_from: 1,
        };
        assert_eq!(predicted_region(&m, &d), m.predicted_region(&d));
    }
}
