//! Separation power (paper Eq. 1) on tuples and on partition spaces.

use dbsherlock_telemetry::{ColumnView, Dataset, Region};

use crate::partition::{LabeledSpace, PartitionLabel, PartitionSpace};
use crate::predicate::Predicate;

/// Tuple-level separation power (Eq. 1):
/// `SP(Pred) = |Pred(T_A)| / |T_A|  −  |Pred(T_N)| / |T_N|`, in `[-1, 1]`.
/// Unknown attributes score `0`.
pub fn separation_power(
    predicate: &Predicate,
    dataset: &Dataset,
    abnormal: &Region,
    normal: &Region,
) -> f64 {
    let Some(attr_id) = dataset.schema().id_of(&predicate.attr) else {
        return 0.0;
    };
    separation_power_view(predicate, dataset.column(attr_id), abnormal, normal)
}

/// [`separation_power`] over an already-resolved column view: counts the
/// rows of each region that satisfy the predicate, with the comparisons
/// of `Predicate::fill_mask` and no column-length mask.
pub(crate) fn separation_power_view(
    predicate: &Predicate,
    view: ColumnView<'_>,
    abnormal: &Region,
    normal: &Region,
) -> f64 {
    let op = &predicate.op;
    // A numeric op on a categorical column gets an all-false table.
    let table = view.categorical().map(|(_, dict)| op.category_table(dict)).unwrap_or_default();
    let matches = |r: usize| match view {
        ColumnView::Numeric(v) => v.0.get(r).is_some_and(|&x| op.matches_num(x)),
        ColumnView::Categorical(c) => {
            c.ids.get(r).and_then(|&id| table.get(id as usize)) == Some(&true)
        }
    };
    let frac = |region: &Region| -> f64 {
        let rows = region.indices();
        if rows.is_empty() {
            return 0.0;
        }
        rows.iter().filter(|&&r| matches(r)).count() as f64 / rows.len() as f64
    };
    frac(abnormal) - frac(normal)
}

/// Partition-space separation power — one term of the causal-model
/// confidence (Eq. 3):
/// `|Pred(P_A)| / |P_A| − |Pred(P_N)| / |P_N|` over the *labeled*
/// partitions of the diagnosis-time dataset. A side with no partitions
/// contributes `0` to its ratio. A thin wrapper over
/// [`LabeledSpace::separation_power`], which defines what it means for a
/// partition to satisfy a predicate (DESIGN.md §1 item 4).
pub fn partition_separation_power(
    predicate: &Predicate,
    space: &PartitionSpace,
    labels: &[PartitionLabel],
    dataset: &Dataset,
    attr_id: usize,
) -> f64 {
    let dict = match space {
        PartitionSpace::Numeric { .. } => None,
        PartitionSpace::Categorical { .. } => dataset.categorical(attr_id).ok().map(|(_, d)| d),
    };
    LabeledSpace::new(space.clone(), labels.to_vec()).separation_power(&predicate.op, dict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::numeric_dataset as dataset;

    #[test]
    fn perfect_separator_scores_one() {
        let d = dataset(&[1.0, 2.0, 3.0, 10.0, 11.0, 12.0]);
        let abnormal = Region::from_range(3..6);
        let normal = Region::from_range(0..3);
        let p = Predicate::gt("x", 5.0);
        assert_eq!(separation_power(&p, &d, &abnormal, &normal), 1.0);
        // Inverted predicate scores -1.
        let q = Predicate::lt("x", 5.0);
        assert_eq!(separation_power(&q, &d, &abnormal, &normal), -1.0);
    }

    #[test]
    fn non_separating_predicate_scores_zero() {
        let d = dataset(&[1.0, 10.0, 1.0, 10.0]);
        let abnormal = Region::from_indices([0, 1]);
        let normal = Region::from_indices([2, 3]);
        let p = Predicate::gt("x", 5.0);
        assert_eq!(separation_power(&p, &d, &abnormal, &normal), 0.0);
    }

    #[test]
    fn separation_power_bounded() {
        let d = dataset(&[1.0, 2.0, 3.0, 4.0]);
        let p = Predicate::gt("x", 2.5);
        let sp = separation_power(&p, &d, &Region::from_range(0..2), &Region::from_range(2..4));
        assert!((-1.0..=1.0).contains(&sp));
    }

    #[test]
    fn partition_separation_power_full_split() {
        use crate::partition::PartitionLabel::{Abnormal as A, Empty as E, Normal as N};
        let space = PartitionSpace::Numeric { min: 0.0, max: 100.0, r: 4 };
        let d = dataset(&[0.0, 100.0]);
        let labels = [N, N, E, A];
        // Predicate matching only the top partition's midpoint (87.5).
        let p = Predicate::gt("x", 80.0);
        let sp = partition_separation_power(&p, &space, &labels, &d, 0);
        assert_eq!(sp, 1.0);
        // A predicate matching everything has zero separation power.
        let all = Predicate::gt("x", -1.0);
        assert_eq!(partition_separation_power(&all, &space, &labels, &d, 0), 0.0);
    }

    #[test]
    fn missing_sides_contribute_zero() {
        use crate::partition::PartitionLabel::{Abnormal as A, Empty as E};
        let space = PartitionSpace::Numeric { min: 0.0, max: 100.0, r: 2 };
        let d = dataset(&[0.0, 100.0]);
        let labels = [E, A];
        let p = Predicate::gt("x", 50.0);
        assert_eq!(partition_separation_power(&p, &space, &labels, &d, 0), 1.0);
    }
}
