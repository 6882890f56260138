//! Partition labeling (paper §4.2), fused with Eq. 2 (§4.5).
//!
//! Numeric attributes use the *purity* rule: a partition is `Abnormal` only
//! when every tuple it contains lies in the abnormal region, `Normal` only
//! when every tuple lies in the normal region, and `Empty` otherwise
//! (no tuples, or mixed). Categorical attributes — much less noisy — use a
//! *majority* rule on the abnormal/normal counts. Tuples outside both
//! regions are ignored entirely (§4).
//!
//! The numeric pass also computes Eq. 2's `|µ_A − µ_N|`: both need each
//! region cell's quotient `(v − Min) / (Max − Min)`, divided once per cell.

use dbsherlock_telemetry::{ColumnView, Dataset, Region};

use crate::partition::{NumericBinner, PartitionLabel, PartitionSpace};

/// Label every partition of `space` (built for `attr_id` over `dataset`)
/// from the user's `abnormal` and `normal` regions.
pub fn label_partitions(
    dataset: &Dataset,
    attr_id: usize,
    space: &PartitionSpace,
    abnormal: &Region,
    normal: &Region,
) -> Vec<PartitionLabel> {
    label_partitions_view(dataset.column(attr_id), space, abnormal, normal).0
}

/// Columnar labeling kernel: one pass over each region's rows of one
/// attribute-contiguous column, then one purity/majority fold. Returns
/// the labels and, for a numeric space, the Eq. 2 difference (`None` when
/// either region has no finite value). Kind mismatches between `view` and
/// `space` yield all-`Empty` labels rather than a panic; upstream
/// generation never produces one.
pub(crate) fn label_partitions_view(
    view: ColumnView<'_>,
    space: &PartitionSpace,
    abnormal: &Region,
    normal: &Region,
) -> (Vec<PartitionLabel>, Option<f64>) {
    match (space.numeric_binner(), view) {
        (Some(binner), ColumnView::Numeric(v)) => {
            label_numeric(v.as_slice(), binner, space.len(), abnormal, normal)
        }
        (None, ColumnView::Categorical(c)) => {
            (label_categorical(c.ids, space, abnormal, normal), None)
        }
        _ => (vec![PartitionLabel::Empty; space.len()], None),
    }
}

fn label_numeric(
    values: &[f64],
    binner: NumericBinner,
    r: usize,
    abnormal: &Region,
    normal: &Region,
) -> (Vec<PartitionLabel>, Option<f64>) {
    // The purity rule needs only whether each side has a row in a
    // partition, not how many: flags, with no read-modify-write chain.
    let mut abnormal_seen = vec![false; r];
    let mut normal_seen = vec![false; r];
    let abnormal_mean = scan_region(values, binner, abnormal, &mut abnormal_seen);
    let normal_mean = scan_region(values, binner, normal, &mut normal_seen);
    let labels = abnormal_seen
        .iter()
        .zip(&normal_seen)
        .map(|(&a, &n)| match (a, n) {
            (true, false) => PartitionLabel::Abnormal,
            (false, true) => PartitionLabel::Normal,
            // Empty, or mixed: no separation signal.
            _ => PartitionLabel::Empty,
        })
        .collect();
    (labels, abnormal_mean.zip(normal_mean).map(|(a, n)| (a - n).abs()))
}

/// One walk over `region`'s rows: flags the partition of every finite
/// cell and returns the mean of their normalized values, or `None` when
/// there is none. The quotient `q` is divided out once per cell;
/// `q.clamp(0, 1)` is exactly `stats::normalize`, summed in index order.
/// Rows outside the column (possible only on malformed regions) are
/// skipped, like non-finite values.
fn scan_region(
    values: &[f64],
    binner: NumericBinner,
    region: &Region,
    seen: &mut [bool],
) -> Option<f64> {
    let (mut sum, mut count) = (0.0f64, 0usize);
    for &row in region.indices() {
        let Some(&v) = values.get(row).filter(|v| v.is_finite()) else { continue };
        let q = binner.quotient(v);
        sum += q.clamp(0.0, 1.0);
        count += 1;
        if let Some(flag) = seen.get_mut(binner.bin_quotient(q)) {
            *flag = true;
        }
    }
    (count > 0).then(|| sum / count as f64)
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
    use crate::partition::LabeledSpace;
    use crate::scalar;

    /// The fused pass of a numeric `LabeledSpace` against the row-wise
    /// oracle: the same labels, and a bit-equal Eq. 2 difference.
    fn assert_fused_matches_oracle(d: &Dataset, abnormal: &Region, normal: &Region, r: usize) {
        let labeled = LabeledSpace::build(&d.snapshot(), 0, abnormal, normal, r).unwrap();
        let oracle_labels = scalar::label_partitions(d, 0, labeled.space(), abnormal, normal);
        assert_eq!(labeled.labels(), oracle_labels, "R = {r}");
        let oracle_difference = scalar::normalized_mean_difference(d, 0, abnormal, normal);
        assert_eq!(
            labeled.mean_difference().map(f64::to_bits),
            oracle_difference.map(f64::to_bits),
            "R = {r}"
        );
    }

    #[test]
    fn fused_pass_matches_row_wise_oracle() {
        // Domain [-3.7, 41.3], salted with NaN and ±∞; the column holds
        // `min`, `max` and every partition boundary for R = 3, 4 and 7.
        let (min, max) = (-3.7, 41.3);
        let mut values = vec![min, max, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 41.2];
        for r in [3, 4, 7] {
            // `lower_bound(j)` of the space over [min, max].
            values.extend((1..r).map(|j| min + (max - min) / r as f64 * j as f64));
        }
        values.extend((0..400).map(|i| {
            if i % 7 == 0 {
                f64::NAN
            } else {
                min + (i * 37 % 101) as f64 * 0.4457
            }
        }));
        let d = numeric_dataset(&values);
        let n = values.len();
        for abnormal in
            [Region::from_indices((0..n).filter(|i| i % 3 == 0)), Region::from_range(100..180)]
        {
            let normal = abnormal.complement(n);
            for r in [1, 2, 3, 4, 7, 100, 1000] {
                assert_fused_matches_oracle(&d, &abnormal, &normal, r);
                assert_fused_matches_oracle(&d, &normal, &abnormal, r);
            }
        }
        // A region with no finite value has no mean, so no difference.
        let non_finite = Region::from_indices([2, 3, 4]);
        let normal = non_finite.complement(n);
        for r in [1, 4] {
            assert_fused_matches_oracle(&d, &non_finite, &normal, r);
            assert_fused_matches_oracle(&d, &normal, &non_finite, r);
        }
        let labeled = LabeledSpace::build(&d.snapshot(), 0, &non_finite, &normal, 4).unwrap();
        assert_eq!(labeled.mean_difference(), None);
    }

    #[test]
    fn fused_difference_detects_shift() {
        let values: Vec<f64> =
            (0..10).map(|i| if i < 5 { 10.0 + i as f64 } else { 90.0 + i as f64 }).collect();
        let d = numeric_dataset(&values);
        let normal = Region::from_range(0..5);
        let abnormal = Region::from_range(5..10);
        let labeled = LabeledSpace::build(&d.snapshot(), 0, &abnormal, &normal, 10).unwrap();
        let diff = labeled.mean_difference().unwrap();
        assert!(diff > 0.8, "diff {diff}");
        // Empty region yields None.
        let labeled = LabeledSpace::build(&d.snapshot(), 0, &Region::new(), &normal, 10).unwrap();
        assert!(labeled.mean_difference().is_none());
    }

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
