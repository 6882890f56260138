//! Typed, borrow-checked column views for the columnar diagnosis path.
//!
//! The paper's predicate-generation algorithm (§4) is one-attribute-at-a-
//! time, and [`Dataset`] already stores columns — these
//! views close the gap by handing kernels an attribute-contiguous slice
//! (plus the dictionary for categorical attributes) so the hot loops run
//! branch-light over `&[f64]` / `&[u32]` instead of paying a `Value` enum
//! dispatch per cell.
//!
//! [`ColumnarSnapshot`] pins every column view of a dataset for a whole
//! diagnosis pass and memoizes per-attribute finite ranges, so partition-
//! space construction (§4.1) and normalized mean differences (§4.5) share
//! one min/max scan per attribute instead of re-scanning the column. The
//! scan is a lane-parallel fold that is bit-identical to a serial one
//! (see `NumericView::finite_range`).

use std::num::FpCategory;
use std::sync::OnceLock;

use crate::dataset::{Column, Dataset};
use crate::value::Dictionary;

/// Borrowed view of one numeric column: the unit the columnar kernels
/// scan. Wraps the attribute-contiguous `&[f64]` slice directly.
#[derive(Debug, Clone, Copy)]
pub struct NumericView<'a>(pub &'a [f64]);

impl<'a> NumericView<'a> {
    /// The underlying attribute-contiguous slice.
    pub fn as_slice(&self) -> &'a [f64] {
        self.0
    }

    /// `(min, max)` over the finite values, `None` when no value is finite.
    ///
    /// This is the single source of truth for the fold behind
    /// [`Dataset::numeric_range`] and the snapshot's range cache. Its
    /// output is part of the bit-identity contract of the diagnosis
    /// pipeline: it equals a serial left-to-right `f64::min`/`f64::max`
    /// fold over the finite values, bit for bit.
    ///
    /// The fold keeps [`RANGE_LANES`] independent lanes so the compiler
    /// can vectorise it, then reduces the lanes. A non-zero finite extreme
    /// has exactly one bit pattern, so lane order cannot change it; only
    /// the sign of a zero extreme depends on reduction order. When either
    /// extreme is `±0.0` the column is folded again serially, in the
    /// reference order.
    pub(crate) fn finite_range(&self) -> Option<(f64, f64)> {
        let chunks = self.0.chunks_exact(RANGE_LANES);
        let tail = chunks.remainder();
        let mut lo = [f64::INFINITY; RANGE_LANES];
        let mut hi = [f64::NEG_INFINITY; RANGE_LANES];
        for chunk in chunks {
            for ((l, h), &v) in lo.iter_mut().zip(hi.iter_mut()).zip(chunk) {
                let finite = v.is_finite();
                *l = if finite && v < *l { v } else { *l };
                *h = if finite && v > *h { v } else { *h };
            }
        }
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for (&l, &h) in lo.iter().zip(&hi) {
            min = if l < min { l } else { min };
            max = if h > max { h } else { max };
        }
        for &v in tail.iter().filter(|v| v.is_finite()) {
            min = if v < min { v } else { min };
            max = if v > max { v } else { max };
        }
        if min > max {
            return None; // no finite value: both are still the ±∞ seeds
        }
        if min.classify() == FpCategory::Zero || max.classify() == FpCategory::Zero {
            return self.serial_finite_range();
        }
        Some((min, max))
    }

    /// The reference fold: finite values in column order, reduced with
    /// `f64::min`/`f64::max`.
    fn serial_finite_range(&self) -> Option<(f64, f64)> {
        let mut it = self.0.iter().copied().filter(|v| v.is_finite());
        let first = it.next()?;
        Some(it.fold((first, first), |(lo, hi), v| (lo.min(v), hi.max(v))))
    }
}

/// Lanes of [`NumericView::finite_range`]'s fold: eight `f64`s, two
/// 256-bit vectors per extreme.
const RANGE_LANES: usize = 8;

/// Borrowed view of one categorical column: per-row dictionary ids plus
/// the dictionary they index into.
#[derive(Debug, Clone, Copy)]
pub struct CategoricalView<'a> {
    /// Dictionary id of each row's value.
    pub ids: &'a [u32],
    /// The column's label dictionary.
    pub dict: &'a Dictionary,
}

/// Borrowed view of one column of either kind — what
/// [`Dataset::column`] returns and what kind-polymorphic kernels
/// (labeling, predicate masks) match on **once per column** instead of
/// once per cell.
#[derive(Debug, Clone, Copy)]
pub enum ColumnView<'a> {
    /// Numeric column.
    Numeric(NumericView<'a>),
    /// Categorical column.
    Categorical(CategoricalView<'a>),
}

impl<'a> ColumnView<'a> {
    /// The numeric slice, if this is a numeric column.
    pub fn numeric(&self) -> Option<&'a [f64]> {
        match self {
            ColumnView::Numeric(v) => Some(v.0),
            ColumnView::Categorical(_) => None,
        }
    }

    /// `(ids, dictionary)`, if this is a categorical column.
    pub fn categorical(&self) -> Option<(&'a [u32], &'a Dictionary)> {
        match self {
            ColumnView::Numeric(_) => None,
            ColumnView::Categorical(c) => Some((c.ids, c.dict)),
        }
    }

    pub(crate) fn of(column: &'a Column) -> ColumnView<'a> {
        match column {
            Column::Numeric(v) => ColumnView::Numeric(NumericView(v)),
            Column::Categorical { ids, dict } => {
                ColumnView::Categorical(CategoricalView { ids, dict })
            }
        }
    }
}

/// Pinned column views of a whole dataset for one diagnosis pass.
///
/// # Lifetime model
///
/// A snapshot borrows the dataset immutably for `'a`; every view handed
/// out lives as long as the snapshot, so kernels can hold slices across
/// scoped-thread boundaries without re-resolving columns. The borrow
/// checker guarantees the dataset cannot be mutated (no `push_row`, no
/// noise injection) while any snapshot is alive — exactly the "frozen
/// inputs" property the deterministic executor relies on.
///
/// # Range cache
///
/// `numeric_range` is memoized per attribute via [`OnceLock`]: the first
/// caller pays the min/max scan, later callers (partition-space build,
/// normalized mean difference, anchor averaging) reuse the result. The
/// fold is `NumericView::finite_range`, so cached and uncached paths
/// are bit-identical; concurrent initialization races are benign because
/// every thread computes the same value. That fold runs in lanes and
/// falls back to the serial fold when an extreme is `±0.0`, the one case
/// where reduction order shows in the bits, so the cached range equals a
/// serial `f64::min`/`f64::max` fold bit for bit.
#[derive(Debug)]
pub struct ColumnarSnapshot<'a> {
    dataset: &'a Dataset,
    columns: Vec<ColumnView<'a>>,
    ranges: Vec<OnceLock<Option<(f64, f64)>>>,
}

impl<'a> ColumnarSnapshot<'a> {
    /// Pin all column views of `dataset`. Cheap: no column is scanned
    /// until its range is first requested.
    pub(crate) fn new(dataset: &'a Dataset) -> Self {
        let columns: Vec<ColumnView<'a>> =
            dataset.columns_internal().iter().map(ColumnView::of).collect();
        let ranges = columns.iter().map(|_| OnceLock::new()).collect();
        ColumnarSnapshot { dataset, columns, ranges }
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &'a Dataset {
        self.dataset
    }

    /// The attribute schema (timestamp excluded).
    pub fn schema(&self) -> &'a crate::attribute::Schema {
        self.dataset.schema()
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.dataset.n_rows()
    }

    /// View of attribute `attr_id`; an empty numeric view for an
    /// out-of-range id (mirrors [`Dataset::column`]).
    pub fn column(&self, attr_id: usize) -> ColumnView<'a> {
        match self.columns.get(attr_id) {
            Some(view) => *view,
            None => ColumnView::Numeric(NumericView(&[])),
        }
    }

    /// Memoized `(min, max)` over the finite values of a numeric
    /// attribute; `None` for categorical columns, out-of-range ids, and
    /// columns without a single finite value.
    pub fn numeric_range(&self, attr_id: usize) -> Option<(f64, f64)> {
        let slot = self.ranges.get(attr_id)?;
        *slot.get_or_init(|| match self.column(attr_id) {
            ColumnView::Numeric(v) => v.finite_range(),
            ColumnView::Categorical(_) => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::{AttributeMeta, Schema};
    use crate::value::Value;

    fn sample() -> Dataset {
        let schema =
            Schema::from_attrs([AttributeMeta::numeric("cpu"), AttributeMeta::categorical("job")])
                .unwrap();
        let mut d = Dataset::new(schema);
        let idle = d.intern(1, "idle").unwrap();
        let busy = d.intern(1, "busy").unwrap();
        d.push_row(0.0, &[Value::Num(10.0), idle]).unwrap();
        d.push_row(1.0, &[Value::Num(f64::NAN), busy]).unwrap();
        d.push_row(2.0, &[Value::Num(30.0), idle]).unwrap();
        d
    }

    #[test]
    fn snapshot_views_match_columns() {
        let d = sample();
        let snap = d.snapshot();
        assert_eq!(snap.n_rows(), 3);
        assert_eq!(snap.column(0).numeric().unwrap()[0], 10.0);
        let (ids, dict) = snap.column(1).categorical().unwrap();
        assert_eq!(ids, &[0, 1, 0]);
        assert_eq!(dict.label(1), Some("busy"));
        assert!(snap.column(1).numeric().is_none());
        assert!(snap.column(0).categorical().is_none());
    }

    #[test]
    fn snapshot_range_matches_dataset_fold() {
        let d = sample();
        let snap = d.snapshot();
        assert_eq!(snap.numeric_range(0), Some((10.0, 30.0)));
        // Memoized second read.
        assert_eq!(snap.numeric_range(0), Some((10.0, 30.0)));
        assert_eq!(snap.numeric_range(0), d.numeric_range(0).ok());
        assert_eq!(snap.numeric_range(1), None);
        assert_eq!(snap.numeric_range(99), None);
    }

    #[test]
    fn out_of_range_column_is_empty_numeric() {
        let d = sample();
        let snap = d.snapshot();
        assert_eq!(snap.column(99).numeric(), Some(&[][..]));
    }

    #[test]
    fn finite_range_ignores_non_finite() {
        let v = [f64::NAN, 5.0, f64::INFINITY, -1.0, 3.0];
        assert_eq!(NumericView(&v).finite_range(), Some((-1.0, 5.0)));
        assert_eq!(NumericView(&[f64::NAN]).finite_range(), None);
        assert_eq!(NumericView(&[]).finite_range(), None);
    }
}
