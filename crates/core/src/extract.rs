//! Predicate extraction from a labeled partition space (paper §4.5).
//!
//! Numeric: a candidate is extracted only when (a) the filled space holds a
//! *single* block of consecutive `Abnormal` partitions and (b) the
//! normalized abnormal/normal means differ by more than `θ`. The block's
//! position determines the shape: touching the left edge gives `Attr < ub`,
//! the right edge gives `Attr > lb`, and an interior block gives
//! `lb < Attr < ub`.
//!
//! Categorical: every `Abnormal` partition contributes its category value
//! to an `Attr ∈ {...}` predicate (directly after labeling; no filtering
//! or gap-filling).

use dbsherlock_telemetry::{stats, Dictionary, Region};

use crate::partition::{PartitionLabel, PartitionSpace};
use crate::predicate::Predicate;

/// The single maximal run of `Abnormal` partitions, if there is exactly
/// one; `None` when there are zero or several runs.
pub(crate) fn single_abnormal_block(labels: &[PartitionLabel]) -> Option<std::ops::Range<usize>> {
    let mut block: Option<std::ops::Range<usize>> = None;
    let mut j = 0;
    while j < labels.len() {
        if labels[j] == PartitionLabel::Abnormal {
            let start = j;
            while j < labels.len() && labels[j] == PartitionLabel::Abnormal {
                j += 1;
            }
            if block.is_some() {
                return None; // second block
            }
            block = Some(start..j);
        } else {
            j += 1;
        }
    }
    block
}

/// Normalized mean difference `d = |µ_A − µ_N|` of a numeric attribute
/// (paper Eq. 2 + §4.5); `None` when either region contributes no finite
/// values. A fused normalize-and-sum scan per region over the
/// attribute-contiguous slice (no intermediate buffers), with `range`
/// supplied by the caller — the snapshot's memoized `(min, max)` on the
/// hot path. Summation order is the region's index order, matching the
/// buffered form bit for bit.
pub(crate) fn normalized_mean_difference_view(
    values: &[f64],
    (min, max): (f64, f64),
    abnormal: &Region,
    normal: &Region,
) -> Option<f64> {
    let mean_of = |region: &Region| -> Option<f64> {
        let mut sum = 0.0f64;
        let mut count = 0usize;
        for &r in region.indices() {
            let Some(&v) = values.get(r) else { continue };
            if v.is_finite() {
                sum += stats::normalize(v, min, max);
                count += 1;
            }
        }
        if count == 0 {
            None
        } else {
            Some(sum / count as f64)
        }
    };
    let a = mean_of(abnormal)?;
    let n = mean_of(normal)?;
    Some((a - n).abs())
}

/// Extract the numeric candidate predicate for the given filled labels, or
/// `None` when the single-block condition fails or the block spans the
/// whole space (no boundary to report).
pub(crate) fn extract_numeric(
    attr_name: &str,
    space: &PartitionSpace,
    filled: &[PartitionLabel],
) -> Option<Predicate> {
    let block = single_abnormal_block(filled)?;
    let r = space.len();
    let touches_left = block.start == 0;
    let touches_right = block.end == r;
    match (touches_left, touches_right) {
        (true, true) => None, // whole domain abnormal: no usable boundary
        (true, false) => Some(Predicate::lt(attr_name, space.upper_bound(block.end - 1)?)),
        (false, true) => Some(Predicate::gt(attr_name, space.lower_bound(block.start)?)),
        (false, false) => Some(Predicate::between(
            attr_name,
            space.lower_bound(block.start)?,
            space.upper_bound(block.end - 1)?,
        )),
    }
}

/// Extract the categorical candidate predicate: all `Abnormal` categories
/// of `dict`.
pub(crate) fn extract_categorical_view(
    attr_name: &str,
    dict: &Dictionary,
    labels: &[PartitionLabel],
) -> Option<Predicate> {
    let abnormal_labels: Vec<String> = labels
        .iter()
        .enumerate()
        .filter(|(_, &l)| l == PartitionLabel::Abnormal)
        .filter_map(|(j, _)| dict.label(j as u32).map(str::to_string))
        .collect();
    if abnormal_labels.is_empty() {
        None
    } else {
        Some(Predicate::in_set(attr_name, abnormal_labels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionLabel::{Abnormal as A, Normal as N};
    use dbsherlock_telemetry::{AttributeMeta, Dataset, Schema, Value};

    fn space_0_100(r: usize) -> PartitionSpace {
        PartitionSpace::Numeric { min: 0.0, max: 100.0, r }
    }

    #[test]
    fn block_detection() {
        assert_eq!(single_abnormal_block(&[N, A, A, N]), Some(1..3));
        assert_eq!(single_abnormal_block(&[A, A, A]), Some(0..3));
        assert_eq!(single_abnormal_block(&[N, N]), None);
        assert_eq!(single_abnormal_block(&[A, N, A]), None);
        assert_eq!(single_abnormal_block(&[]), None);
    }

    #[test]
    fn right_edge_block_gives_gt() {
        let space = space_0_100(5);
        let p = extract_numeric("x", &space, &[N, N, N, A, A]).unwrap();
        assert_eq!(p, Predicate::gt("x", 60.0));
    }

    #[test]
    fn left_edge_block_gives_lt() {
        let space = space_0_100(5);
        let p = extract_numeric("x", &space, &[A, A, N, N, N]).unwrap();
        assert_eq!(p, Predicate::lt("x", 40.0));
    }

    #[test]
    fn interior_block_gives_between() {
        let space = space_0_100(5);
        let p = extract_numeric("x", &space, &[N, A, A, N, N]).unwrap();
        assert_eq!(p, Predicate::between("x", 20.0, 60.0));
    }

    #[test]
    fn whole_domain_block_yields_nothing() {
        let space = space_0_100(3);
        assert_eq!(extract_numeric("x", &space, &[A, A, A]), None);
    }

    #[test]
    fn two_blocks_yield_nothing() {
        let space = space_0_100(5);
        assert_eq!(extract_numeric("x", &space, &[A, N, N, A, A]), None);
    }

    #[test]
    fn normalized_difference_detects_shift() {
        let schema = Schema::from_attrs([AttributeMeta::numeric("x")]).unwrap();
        let mut d = Dataset::new(schema);
        for i in 0..10 {
            let v = if i < 5 { 10.0 + i as f64 } else { 90.0 + i as f64 };
            d.push_row(i as f64, &[Value::Num(v)]).unwrap();
        }
        let normal = Region::from_range(0..5);
        let abnormal = Region::from_range(5..10);
        let (values, range) = (d.numeric(0).unwrap(), d.numeric_range(0).unwrap());
        let diff = normalized_mean_difference_view(values, range, &abnormal, &normal).unwrap();
        assert!(diff > 0.8, "diff {diff}");
        // Empty region yields None.
        assert!(normalized_mean_difference_view(values, range, &Region::new(), &normal).is_none());
    }

    #[test]
    fn categorical_extraction_collects_abnormal_values() {
        let schema = Schema::from_attrs([AttributeMeta::categorical("c")]).unwrap();
        let mut d = Dataset::new(schema);
        for l in ["a", "b", "c"] {
            let v = d.intern(0, l).unwrap();
            d.push_row(0.0, &[v]).unwrap();
        }
        let labels = [A, N, A];
        let dict = d.categorical(0).unwrap().1;
        let p = extract_categorical_view("c", dict, &labels).unwrap();
        assert_eq!(p, Predicate::in_set("c", ["a".to_string(), "c".to_string()]));
        assert_eq!(extract_categorical_view("c", dict, &[N, N, N]), None);
    }
}
