//! Partition spaces: discretized attribute domains (paper §4.1).
//!
//! For a numeric attribute, the domain `[Min, Max]` is cut into `R`
//! equi-width partitions; partition `P_j` contains values with
//! `lb(P_j) <= v < ub(P_j)` (the top partition also accepts `v = Max` so
//! the maximum isn't orphaned). For a categorical attribute there is one
//! partition per distinct value and order is irrelevant.
//!
//! A [`LabeledSpace`] pairs a space with its §4.2 labels and is built once
//! per attribute per case: Algorithm 1 filters and fills a copy of its
//! labels, and Eq. 3 (§6) scores every stored model against the same
//! labels through its prefix counts.

use std::ops::Range;

use dbsherlock_telemetry::{
    AttributeKind, ColumnView, ColumnarSnapshot, Dataset, Dictionary, Region,
};

use crate::label::label_partitions_view;
use crate::predicate::{Predicate, PredicateOp};

/// Label of one partition (paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionLabel {
    /// No tuples, or a mix of normal and abnormal tuples (numeric), or a
    /// tie (categorical).
    Empty,
    /// Exclusively/mostly normal tuples.
    Normal,
    /// Exclusively/mostly abnormal tuples.
    Abnormal,
}

/// The discretized domain of one attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionSpace {
    /// Equi-width numeric partitions.
    Numeric {
        /// Domain minimum over the whole dataset.
        min: f64,
        /// Domain maximum over the whole dataset.
        max: f64,
        /// Number of partitions `R`.
        r: usize,
    },
    /// One partition per category id.
    Categorical {
        /// Number of distinct categories.
        n: usize,
    },
}

impl PartitionSpace {
    /// Build the partition space for `attr_id` of `dataset`.
    ///
    /// Returns `None` when the attribute cannot be partitioned: an empty
    /// dataset, a numeric attribute with no finite values, or a degenerate
    /// (constant) numeric attribute — the latter mirrors the paper's
    /// limitation (ii): invariants cannot separate the regions.
    pub fn build(dataset: &Dataset, attr_id: usize, r: usize) -> Option<PartitionSpace> {
        match dataset.schema().attr(attr_id).kind {
            AttributeKind::Numeric => {
                Self::from_numeric_range(dataset.numeric_range(attr_id).ok(), r)
            }
            AttributeKind::Categorical => {
                let (_, dict) = dataset.categorical(attr_id).ok()?;
                Self::from_dictionary(dict)
            }
        }
    }

    /// Numeric space from a precomputed `(min, max)` range — e.g. the
    /// memoized `ColumnarSnapshot` cache — with the same degeneracy policy
    /// as [`build`](Self::build): `None` for a missing range, a constant
    /// attribute, or a non-finite width.
    pub fn from_numeric_range(range: Option<(f64, f64)>, r: usize) -> Option<PartitionSpace> {
        let (min, max) = range?;
        if max <= min || !(max - min).is_finite() {
            return None;
        }
        Some(PartitionSpace::Numeric { min, max, r: r.max(1) })
    }

    /// Categorical space from a column dictionary: one partition per
    /// distinct category; `None` for an empty dictionary.
    pub(crate) fn from_dictionary(dict: &Dictionary) -> Option<PartitionSpace> {
        if dict.is_empty() {
            return None;
        }
        Some(PartitionSpace::Categorical { n: dict.len() })
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        match *self {
            PartitionSpace::Numeric { r, .. } => r,
            PartitionSpace::Categorical { n } => n,
        }
    }

    /// True when there are no partitions (never for built spaces).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Width of each numeric partition.
    pub fn width(&self) -> Option<f64> {
        match *self {
            PartitionSpace::Numeric { min, max, r } => Some((max - min) / r as f64),
            PartitionSpace::Categorical { .. } => None,
        }
    }

    /// Partition index of a numeric value; `None` for NaN/∞ or categorical
    /// spaces. Values outside `[min, max]` clamp to the edge partitions
    /// (they can only appear when a predicate learned elsewhere is
    /// evaluated against this space).
    pub fn index_of_num(&self, v: f64) -> Option<usize> {
        self.numeric_binner()?.bin(v)
    }

    /// Monomorphic binner for numeric spaces: resolves the enum dispatch
    /// once so per-row loops in the columnar kernels bin values without
    /// re-matching on the space. `None` for categorical spaces.
    pub(crate) fn numeric_binner(&self) -> Option<NumericBinner> {
        match *self {
            PartitionSpace::Numeric { min, max, r } => Some(NumericBinner { min, max, r }),
            PartitionSpace::Categorical { .. } => None,
        }
    }

    /// Lower bound `lb(P_j)` of numeric partition `j`.
    pub fn lower_bound(&self, j: usize) -> Option<f64> {
        match *self {
            PartitionSpace::Numeric { min, max, r } => {
                Some(min + (max - min) / r as f64 * j as f64)
            }
            PartitionSpace::Categorical { .. } => None,
        }
    }

    /// Upper bound `ub(P_j)` of numeric partition `j`.
    pub fn upper_bound(&self, j: usize) -> Option<f64> {
        self.lower_bound(j + 1)
    }

    /// Midpoint of numeric partition `j` (used when testing whether a
    /// partition "satisfies" a predicate in the confidence computation,
    /// Eq. 3 — see [`LabeledSpace::separation_power`]).
    pub fn midpoint(&self, j: usize) -> Option<f64> {
        let lb = self.lower_bound(j)?;
        Some(lb + self.width()? / 2.0)
    }
}

/// Dispatch-free partition binning for one numeric space (see
/// `PartitionSpace::numeric_binner`). The truncate/clamp expression is
/// shared with [`PartitionSpace::index_of_num`] and is part of the
/// pipeline's bit-identity contract: it equals the paper's
/// `floor((v − Min) / (Max − Min) · R)` clamped to `[0, R − 1]`, because
/// truncation and floor differ only on negative non-integers, which the
/// clamp sends to 0 either way (`scalar.rs` keeps the floor form).
#[derive(Debug, Clone, Copy)]
pub struct NumericBinner {
    min: f64,
    max: f64,
    r: usize,
}

impl NumericBinner {
    /// Partition index of `v`; `None` for non-finite values, clamped to
    /// the edge partitions outside `[min, max]`.
    #[inline]
    pub(crate) fn bin(&self, v: f64) -> Option<usize> {
        if !v.is_finite() {
            return None;
        }
        // `as` truncates (and saturates); no `floor` call on the hot path.
        let idx = ((v - self.min) / (self.max - self.min) * self.r as f64) as isize;
        Some(idx.clamp(0, self.r as isize - 1) as usize)
    }
}

/// One attribute's partition space, its pre-filter labels (§4.2), and
/// prefix counts of its `Abnormal` and `Normal` labels — everything one
/// Eq. 3 term needs. Built once per attribute per case and shared by
/// predicate generation (which filters and fills a copy of the labels)
/// and cause ranking (which scores every model against the labels as
/// they are, per DESIGN.md §1 item 4).
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledSpace {
    space: PartitionSpace,
    labels: Vec<PartitionLabel>,
    /// `abnormal_before[j]`: `Abnormal` labels among partitions `0..j`
    /// (`labels.len() + 1` entries).
    abnormal_before: Vec<u32>,
    /// `normal_before[j]`: `Normal` labels among partitions `0..j`.
    normal_before: Vec<u32>,
}

impl LabeledSpace {
    /// Pair `space` with its `labels` and count them. The numeric Eq. 3
    /// term relies on `space` coming from [`PartitionSpace`]'s
    /// constructors (`max > min` with a finite width), which makes
    /// partition midpoints non-decreasing in the partition index.
    pub fn new(space: PartitionSpace, labels: Vec<PartitionLabel>) -> LabeledSpace {
        let prefix = |wanted: PartitionLabel| {
            let mut before = Vec::with_capacity(labels.len() + 1);
            let mut count = 0u32;
            before.push(count);
            for &label in &labels {
                count = count.saturating_add(u32::from(label == wanted));
                before.push(count);
            }
            before
        };
        let abnormal_before = prefix(PartitionLabel::Abnormal);
        let normal_before = prefix(PartitionLabel::Normal);
        LabeledSpace { space, labels, abnormal_before, normal_before }
    }

    /// Partition and label attribute `attr_id` of `snapshot` against the
    /// case's regions: the one builder behind generation, ranking and
    /// [`CausalModel::confidence`](crate::CausalModel::confidence).
    /// `None` when the attribute cannot be partitioned (see
    /// [`PartitionSpace::build`]).
    pub(crate) fn build(
        snapshot: &ColumnarSnapshot<'_>,
        attr_id: usize,
        abnormal: &Region,
        normal: &Region,
        r: usize,
    ) -> Option<LabeledSpace> {
        let view = snapshot.column(attr_id);
        let space = match view {
            ColumnView::Numeric(_) => {
                PartitionSpace::from_numeric_range(snapshot.numeric_range(attr_id), r)?
            }
            ColumnView::Categorical(c) => PartitionSpace::from_dictionary(c.dict)?,
        };
        let labels = label_partitions_view(view, &space, abnormal, normal);
        Some(LabeledSpace::new(space, labels))
    }

    /// The partition space.
    pub(crate) fn space(&self) -> &PartitionSpace {
        &self.space
    }

    /// The pre-filter labels, one per partition.
    pub(crate) fn labels(&self) -> &[PartitionLabel] {
        &self.labels
    }

    /// One Eq. 3 term: `|Pred(P_A)| / |P_A| − |Pred(P_N)| / |P_N|` over
    /// the labeled partitions, where a numeric partition satisfies `op`
    /// iff its midpoint does and a categorical one iff its label does
    /// (`dict` is the attribute's dictionary; `None` satisfies nothing).
    /// A side with no partitions contributes `0` to its ratio.
    ///
    /// Numeric terms cost two binary searches instead of a pass over the
    /// partitions; the hit counts are the same integers a pass would
    /// count, so the result is bit-identical (DESIGN.md §1 item 4).
    pub fn separation_power(&self, op: &PredicateOp, dict: Option<&Dictionary>) -> f64 {
        let (abnormal_hits, normal_hits) = match self.space {
            PartitionSpace::Numeric { .. } => {
                let run = self.numeric_run(op);
                let within = |before: &[u32]| match (before.get(run.start), before.get(run.end)) {
                    (Some(&lo), Some(&hi)) if run.start < run.end => hi - lo,
                    _ => 0,
                };
                (within(&self.abnormal_before), within(&self.normal_before))
            }
            PartitionSpace::Categorical { .. } => {
                let table = dict.map(|dict| op.category_table(dict)).unwrap_or_default();
                let mut hits = (0u32, 0u32);
                for (label, _) in self.labels.iter().zip(&table).filter(|(_, &sat)| sat) {
                    match label {
                        PartitionLabel::Abnormal => hits.0 += 1,
                        PartitionLabel::Normal => hits.1 += 1,
                        PartitionLabel::Empty => {}
                    }
                }
                hits
            }
        };
        let total = |before: &[u32]| before.last().copied().unwrap_or(0);
        let ratio = |hits: u32, total: u32| {
            if total == 0 {
                0.0
            } else {
                hits as f64 / total as f64
            }
        };
        ratio(abnormal_hits, total(&self.abnormal_before))
            - ratio(normal_hits, total(&self.normal_before))
    }

    /// The partitions whose midpoint satisfies a numeric `op`.
    ///
    /// `lower_bound(j) = min + w·j` and `midpoint(j) = lower_bound(j) + w/2`
    /// are non-decreasing in `j` for `w ≥ 0` (every step is a monotone
    /// rounding of a monotone exact value), so `m > lo` holds on a suffix
    /// of the partitions and `m < hi` on a prefix: `Gt`, `Lt` and
    /// `Between` select one contiguous run. Its ends are found by binary
    /// search with the exact [`PartitionSpace::midpoint`] and
    /// [`PredicateOp::matches_num`] expressions a per-partition loop would
    /// evaluate. A NaN threshold satisfies nothing and yields an empty run;
    /// so do `InSet` and a `Between` with `lo ≥ hi`.
    fn numeric_run(&self, op: &PredicateOp) -> Range<usize> {
        let n = self.labels.len();
        let satisfies = |bound: &PredicateOp, j: usize| {
            self.space.midpoint(j).is_some_and(|m| bound.matches_num(m))
        };
        let first_above = |lo: f64| partition_point(n, |j| !satisfies(&PredicateOp::Gt(lo), j));
        let first_not_below = |hi: f64| partition_point(n, |j| satisfies(&PredicateOp::Lt(hi), j));
        match *op {
            PredicateOp::Gt(lo) => first_above(lo)..n,
            PredicateOp::Lt(hi) => 0..first_not_below(hi),
            PredicateOp::Between(lo, hi) => first_above(lo)..first_not_below(hi),
            PredicateOp::InSet(_) => 0..0,
        }
    }
}

/// First index in `0..n` where `pred` is false, for a `pred` that is true
/// on a prefix of `0..n` and false after it.
fn partition_point(n: usize, pred: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The labeled partition spaces of one case: one slot per attribute id in
/// schema order, `None` where the attribute cannot be partitioned (or was
/// not needed). Predicate generation fills every slot as a by-product of
/// Algorithm 1 and hands the index to ranking, which therefore partitions
/// nothing itself.
#[derive(Debug)]
pub(crate) struct PartitionIndex<'a> {
    dataset: &'a Dataset,
    spaces: Vec<Option<LabeledSpace>>,
}

impl<'a> PartitionIndex<'a> {
    /// Index over `dataset` from per-attribute slots.
    pub(crate) fn new(dataset: &'a Dataset, spaces: Vec<Option<LabeledSpace>>) -> Self {
        PartitionIndex { dataset, spaces }
    }

    /// The dataset under diagnosis (the chaos tripwire inspects its schema).
    #[cfg(any(test, feature = "chaos"))]
    pub(crate) fn dataset(&self) -> &'a Dataset {
        self.dataset
    }

    /// The Eq. 3 term of `predicate` in this case; `0` for an attribute
    /// the dataset lacks or that cannot be partitioned.
    pub(crate) fn separation_power(&self, predicate: &Predicate) -> f64 {
        let Some(attr_id) = self.dataset.schema().id_of(&predicate.attr) else {
            return 0.0;
        };
        let Some(Some(labeled)) = self.spaces.get(attr_id) else {
            return 0.0;
        };
        let dict = self.dataset.column(attr_id).categorical().map(|(_, dict)| dict);
        labeled.separation_power(&predicate.op, dict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::numeric_dataset as dataset;

    #[test]
    fn numeric_space_covers_domain() {
        let d = dataset(&[0.0, 25.0, 100.0]);
        let s = PartitionSpace::build(&d, 0, 5).unwrap();
        assert_eq!(s.len(), 5);
        assert_eq!(s.width(), Some(20.0));
        assert_eq!(s.index_of_num(0.0), Some(0));
        assert_eq!(s.index_of_num(19.999), Some(0));
        assert_eq!(s.index_of_num(20.0), Some(1));
        // Max value lands in the top partition, not out of range.
        assert_eq!(s.index_of_num(100.0), Some(4));
        assert_eq!(s.lower_bound(2), Some(40.0));
        assert_eq!(s.upper_bound(2), Some(60.0));
        assert_eq!(s.midpoint(0), Some(10.0));
    }

    #[test]
    fn out_of_range_values_clamp() {
        let d = dataset(&[0.0, 100.0]);
        let s = PartitionSpace::build(&d, 0, 4).unwrap();
        assert_eq!(s.index_of_num(-5.0), Some(0));
        assert_eq!(s.index_of_num(500.0), Some(3));
        assert_eq!(s.index_of_num(f64::NAN), None);
    }

    #[test]
    fn binning_equals_the_floor_form() {
        let floor_form = |min: f64, max: f64, r: usize, v: f64| {
            let idx = ((v - min) / (max - min) * r as f64).floor() as isize;
            idx.clamp(0, r as isize - 1) as usize
        };
        for (min, max) in [(0.0, 100.0), (-7.5, -0.25), (-1e300, 1e300), (1e-310, 3e-310)] {
            for r in [1, 3, 250, 1000] {
                let s = PartitionSpace::from_numeric_range(Some((min, max)), r).unwrap();
                let step = (max - min) / 997.0;
                for k in -50..1050 {
                    let v = min + step * k as f64;
                    assert_eq!(s.index_of_num(v), Some(floor_form(min, max, r, v)), "{v}");
                }
                for v in [min, max, -0.0, f64::MIN, f64::MAX, s.lower_bound(1).unwrap()] {
                    assert_eq!(s.index_of_num(v), Some(floor_form(min, max, r, v)), "{v}");
                }
            }
        }
    }

    #[test]
    fn constant_attribute_has_no_space() {
        let d = dataset(&[7.0, 7.0, 7.0]);
        assert!(PartitionSpace::build(&d, 0, 10).is_none());
    }

    #[test]
    fn empty_dataset_has_no_space() {
        let d = dataset(&[]);
        assert!(PartitionSpace::build(&d, 0, 10).is_none());
    }

    #[test]
    fn categorical_space_one_per_value() {
        let d = crate::fixtures::categorical_dataset(&["a", "b"]);
        let s = PartitionSpace::build(&d, 0, 99).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.width(), None);
        assert_eq!(s.index_of_num(1.0), None);
    }
}
