//! Partition labeling (paper §4.2).
//!
//! Numeric attributes use the *purity* rule: a partition is `Abnormal` only
//! when every tuple it contains lies in the abnormal region, `Normal` only
//! when every tuple lies in the normal region, and `Empty` otherwise
//! (no tuples, or mixed). Categorical attributes — much less noisy — use a
//! *majority* rule on the abnormal/normal counts. Tuples outside both
//! regions are ignored entirely (§4).

use dbsherlock_telemetry::{ColumnView, Dataset, Region};

use crate::partition::{PartitionLabel, PartitionSpace};

/// Label every partition of `space` (built for `attr_id` over `dataset`)
/// from the user's `abnormal` and `normal` regions.
pub fn label_partitions(
    dataset: &Dataset,
    attr_id: usize,
    space: &PartitionSpace,
    abnormal: &Region,
    normal: &Region,
) -> Vec<PartitionLabel> {
    label_partitions_view(dataset.column(attr_id), space, abnormal, normal)
}

/// Columnar labeling kernel: two count passes over the region indices of
/// one attribute-contiguous column, then one purity/majority fold over
/// the hit counts. Kind mismatches between `view` and `space` yield all-
/// `Empty` labels rather than a panic; upstream generation never produces
/// one.
pub(crate) fn label_partitions_view(
    view: ColumnView<'_>,
    space: &PartitionSpace,
    abnormal: &Region,
    normal: &Region,
) -> Vec<PartitionLabel> {
    match (space, view) {
        (PartitionSpace::Numeric { .. }, ColumnView::Numeric(v)) => {
            label_numeric(v.as_slice(), space, abnormal, normal)
        }
        (PartitionSpace::Categorical { .. }, ColumnView::Categorical(c)) => {
            label_categorical(c.ids, space, abnormal, normal)
        }
        _ => vec![PartitionLabel::Empty; space.len()],
    }
}

fn label_numeric(
    values: &[f64],
    space: &PartitionSpace,
    abnormal: &Region,
    normal: &Region,
) -> Vec<PartitionLabel> {
    let Some(binner) = space.numeric_binner() else {
        return vec![PartitionLabel::Empty; space.len()];
    };
    // The purity rule needs only whether each side has a row in a
    // partition, not how many: flags, with no read-modify-write chain.
    let mut abnormal_seen = vec![false; space.len()];
    let mut normal_seen = vec![false; space.len()];
    // Rows outside the column (possible only on malformed regions) are
    // skipped, like non-finite values.
    for &row in abnormal.indices() {
        if let Some(j) = values.get(row).copied().and_then(|v| binner.bin(v)) {
            if let Some(seen) = abnormal_seen.get_mut(j) {
                *seen = true;
            }
        }
    }
    for &row in normal.indices() {
        if let Some(j) = values.get(row).copied().and_then(|v| binner.bin(v)) {
            if let Some(seen) = normal_seen.get_mut(j) {
                *seen = true;
            }
        }
    }
    abnormal_seen
        .iter()
        .zip(&normal_seen)
        .map(|(&a, &n)| match (a, n) {
            (true, false) => PartitionLabel::Abnormal,
            (false, true) => PartitionLabel::Normal,
            // Empty, or mixed: no separation signal.
            _ => PartitionLabel::Empty,
        })
        .collect()
}

fn label_categorical(
    ids: &[u32],
    space: &PartitionSpace,
    abnormal: &Region,
    normal: &Region,
) -> Vec<PartitionLabel> {
    let mut abnormal_hits = vec![0usize; space.len()];
    let mut normal_hits = vec![0usize; space.len()];
    for &row in abnormal.indices() {
        if let Some(hits) = ids.get(row).and_then(|&id| abnormal_hits.get_mut(id as usize)) {
            *hits += 1;
        }
    }
    for &row in normal.indices() {
        if let Some(hits) = ids.get(row).and_then(|&id| normal_hits.get_mut(id as usize)) {
            *hits += 1;
        }
    }
    abnormal_hits
        .iter()
        .zip(&normal_hits)
        .map(|(&a, &n)| {
            // Majority rule: P_j(A) > P_j(N) -> Abnormal, < -> Normal,
            // tie (including 0-0) -> Empty (§4.2).
            match a.cmp(&n) {
                std::cmp::Ordering::Greater => PartitionLabel::Abnormal,
                std::cmp::Ordering::Less => PartitionLabel::Normal,
                std::cmp::Ordering::Equal => PartitionLabel::Empty,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{categorical_dataset, numeric_dataset};

    #[test]
    fn numeric_purity_rule() {
        // Values 0..10; rows 0..5 normal (values 0-4), rows 5..10 abnormal
        // (values 5-9); 5 partitions of width 2 (domain [0,9]).
        let values: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let d = numeric_dataset(&values);
        let space = PartitionSpace::build(&d, 0, 3).unwrap(); // [0,3),[3,6),[6,9]
        let abnormal = Region::from_range(5..10);
        let normal = Region::from_range(0..5);
        let labels = label_partitions(&d, 0, &space, &abnormal, &normal);
        // Partition 0: values 0,1,2 all normal. Partition 1: values 3,4
        // normal but 5 abnormal -> mixed -> Empty. Partition 2: 6..9 all
        // abnormal.
        assert_eq!(
            labels,
            vec![PartitionLabel::Normal, PartitionLabel::Empty, PartitionLabel::Abnormal]
        );
    }

    #[test]
    fn rows_outside_both_regions_are_ignored() {
        let values = [0.0, 1.0, 8.0, 9.0];
        let d = numeric_dataset(&values);
        let space = PartitionSpace::build(&d, 0, 2).unwrap();
        // Row 1 (value 1.0) in neither region: partition 0 stays pure.
        let abnormal = Region::from_indices([2, 3]);
        let normal = Region::from_indices([0]);
        let labels = label_partitions(&d, 0, &space, &abnormal, &normal);
        assert_eq!(labels, vec![PartitionLabel::Normal, PartitionLabel::Abnormal]);
    }

    #[test]
    fn empty_partition_in_the_middle() {
        let values = [0.0, 0.5, 9.5, 10.0];
        let d = numeric_dataset(&values);
        let space = PartitionSpace::build(&d, 0, 5).unwrap();
        let abnormal = Region::from_indices([2, 3]);
        let normal = Region::from_indices([0, 1]);
        let labels = label_partitions(&d, 0, &space, &abnormal, &normal);
        assert_eq!(
            labels,
            vec![
                PartitionLabel::Normal,
                PartitionLabel::Empty,
                PartitionLabel::Empty,
                PartitionLabel::Empty,
                PartitionLabel::Abnormal
            ]
        );
    }

    #[test]
    fn categorical_majority_rule() {
        // "a" appears twice in abnormal, once in normal -> Abnormal.
        // "b" appears once each -> tie -> Empty.
        // "c" appears only in normal -> Normal.
        let d = categorical_dataset(&["a", "a", "b", "a", "b", "c"]);
        let abnormal = Region::from_indices([0, 1, 2]);
        let normal = Region::from_indices([3, 4, 5]);
        let space = PartitionSpace::build(&d, 0, 0).unwrap();
        let labels = label_partitions(&d, 0, &space, &abnormal, &normal);
        assert_eq!(
            labels,
            vec![PartitionLabel::Abnormal, PartitionLabel::Empty, PartitionLabel::Normal]
        );
    }
}
