//! Column-major storage of aligned telemetry tuples.

use serde::{Deserialize, Serialize};

use crate::attribute::{AttributeKind, AttributeMeta, Schema};
use crate::error::{Result, TelemetryError};
use crate::region::Region;
use crate::value::{Dictionary, Value};
use crate::view::{ColumnView, ColumnarSnapshot, NumericView};

/// One column of observations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Column {
    /// Numeric measurements, one per row.
    Numeric(Vec<f64>),
    /// Categorical ids, one per row, plus the column's dictionary.
    Categorical {
        /// Dictionary id of each row's value.
        ids: Vec<u32>,
        /// The column's label dictionary.
        dict: Dictionary,
    },
}

impl Column {
    fn push(&mut self, value: Value, attr: &AttributeMeta) -> Result<()> {
        match (self, value) {
            (Column::Numeric(v), Value::Num(x)) => {
                v.push(x);
                Ok(())
            }
            (Column::Categorical { ids, .. }, Value::Cat(c)) => {
                ids.push(c);
                Ok(())
            }
            (Column::Numeric(_), Value::Cat(_)) => Err(TelemetryError::KindMismatch {
                attribute: attr.name.clone(),
                expected: "numeric",
            }),
            (Column::Categorical { .. }, Value::Num(_)) => Err(TelemetryError::KindMismatch {
                attribute: attr.name.clone(),
                expected: "categorical",
            }),
        }
    }
}

/// A set of aligned tuples `(Timestamp, Attr1, ..., Attrk)` (paper §2.1).
///
/// Rows correspond to fixed one-second collection intervals; `timestamps[i]`
/// marks the start of interval `i`. Storage is column-major because the
/// predicate-generation algorithm (paper §4) scans one attribute at a time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    schema: Schema,
    timestamps: Vec<f64>,
    columns: Vec<Column>,
}

impl Dataset {
    /// Empty dataset over `schema`.
    pub fn new(schema: Schema) -> Self {
        let columns = schema
            .iter()
            .map(|(_, a)| match a.kind {
                AttributeKind::Numeric => Column::Numeric(Vec::new()),
                AttributeKind::Categorical => {
                    Column::Categorical { ids: Vec::new(), dict: Dictionary::new() }
                }
            })
            .collect();
        Dataset { schema, timestamps: Vec::new(), columns }
    }

    /// The attribute schema (timestamp excluded).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows (`X` in the paper's complexity analysis, §4.6).
    pub fn n_rows(&self) -> usize {
        self.timestamps.len()
    }

    /// Per-row interval start times, in seconds.
    pub fn timestamps(&self) -> &[f64] {
        &self.timestamps
    }

    /// Append one aligned tuple. `values` must match the schema in arity and
    /// per-attribute kind.
    pub fn push_row(&mut self, timestamp: f64, values: &[Value]) -> Result<()> {
        if values.len() != self.schema.len() {
            return Err(TelemetryError::ArityMismatch {
                expected: self.schema.len(),
                found: values.len(),
            });
        }
        // Arity is checked above, so the three zips stay in lockstep.
        for ((column, &value), (_, attr)) in
            self.columns.iter_mut().zip(values.iter()).zip(self.schema.iter())
        {
            column.push(value, attr)?;
        }
        self.timestamps.push(timestamp);
        Ok(())
    }

    /// Intern `label` in the dictionary of categorical attribute `attr_id`,
    /// returning a [`Value::Cat`] suitable for [`push_row`](Self::push_row).
    pub fn intern(&mut self, attr_id: usize, label: &str) -> Result<Value> {
        match self.columns.get_mut(attr_id) {
            Some(Column::Categorical { dict, .. }) => Ok(Value::Cat(dict.intern(label))),
            _ => Err(TelemetryError::KindMismatch {
                attribute: self
                    .schema
                    .get(attr_id)
                    .map(|meta| meta.name.clone())
                    .unwrap_or_else(|| format!("<attr {attr_id}>")),
                expected: "categorical",
            }),
        }
    }

    /// Numeric column as a slice; `None` for categorical or out-of-range
    /// attributes. The columnar kernels' preferred numeric accessor.
    pub fn numeric(&self, attr_id: usize) -> Option<&[f64]> {
        match self.columns.get(attr_id) {
            Some(Column::Numeric(v)) => Some(v),
            _ => None,
        }
    }

    /// Typed view of one column — the entry point of the columnar API.
    /// Out-of-range ids yield an empty numeric view so callers can stay
    /// panic-free without an `Option` at every kernel boundary.
    pub fn column(&self, attr_id: usize) -> ColumnView<'_> {
        match self.columns.get(attr_id) {
            Some(Column::Numeric(v)) => ColumnView::Numeric(NumericView(v)),
            Some(Column::Categorical { ids, dict }) => {
                ColumnView::Categorical(crate::view::CategoricalView { ids, dict })
            }
            None => ColumnView::Numeric(NumericView(&[])),
        }
    }

    /// Pin every column view (plus a memoized range cache) for a whole
    /// diagnosis pass. See [`ColumnarSnapshot`] for the lifetime model.
    pub fn snapshot(&self) -> ColumnarSnapshot<'_> {
        ColumnarSnapshot::new(self)
    }

    pub(crate) fn columns_internal(&self) -> &[Column] {
        &self.columns
    }

    /// Categorical column as `(ids, dictionary)`.
    pub fn categorical(&self, attr_id: usize) -> Result<(&[u32], &Dictionary)> {
        match &self.columns[attr_id] {
            Column::Categorical { ids, dict } => Ok((ids, dict)),
            Column::Numeric(_) => Err(TelemetryError::KindMismatch {
                attribute: self.schema.attr(attr_id).name.clone(),
                expected: "categorical",
            }),
        }
    }

    /// Mutable access to a numeric column (used by noise injection).
    pub fn numeric_mut(&mut self, attr_id: usize) -> Result<&mut [f64]> {
        match &mut self.columns[attr_id] {
            Column::Numeric(v) => Ok(v),
            Column::Categorical { .. } => Err(TelemetryError::KindMismatch {
                attribute: self.schema.attr(attr_id).name.clone(),
                expected: "numeric",
            }),
        }
    }

    /// Convenience: numeric column by name.
    pub fn numeric_by_name(&self, name: &str) -> Result<&[f64]> {
        let attr_id = self.schema.require(name)?;
        self.numeric(attr_id).ok_or_else(|| TelemetryError::KindMismatch {
            attribute: self.schema.attr(attr_id).name.clone(),
            expected: "numeric",
        })
    }

    /// `(min, max)` of a numeric attribute over **all** rows, ignoring NaNs.
    ///
    /// Returns an error for categorical attributes and for columns without
    /// a single finite value; the partition space of an attribute (paper
    /// §4.1) spans exactly this range. The fold is
    /// `NumericView::finite_range`, shared with the snapshot cache.
    pub fn numeric_range(&self, attr_id: usize) -> Result<(f64, f64)> {
        let col = self.numeric(attr_id).ok_or_else(|| TelemetryError::KindMismatch {
            attribute: self.schema.attr(attr_id).name.clone(),
            expected: "numeric",
        })?;
        NumericView(col).finite_range().ok_or(TelemetryError::Empty("numeric column"))
    }

    /// Rows whose timestamp falls in `[lo, hi]`, as a [`Region`].
    ///
    /// This is how ground-truth anomaly windows survive telemetry corruption:
    /// row *indices* shift when rows are dropped or duplicated, but the wall
    /// clock does not, so experiments map their known anomaly intervals back
    /// onto a degraded dataset by time rather than by index. Non-finite
    /// timestamps never match.
    pub fn rows_in_time_range(&self, lo: f64, hi: f64) -> Region {
        let indices: Vec<usize> = self
            .timestamps
            .iter()
            .enumerate()
            .filter(|(_, &t)| t.is_finite() && t >= lo && t <= hi)
            .map(|(i, _)| i)
            .collect();
        Region::from_indices(indices)
    }

    /// Row `row` of `src` (same attribute layout) as values ready for this
    /// dataset's [`push_row`](Self::push_row). Categorical values are
    /// re-interned here by label, so the two datasets need not share
    /// dictionary ids.
    pub(crate) fn values_from(&mut self, src: &Dataset, row: usize) -> Result<Vec<Value>> {
        let out_of_bounds = || TelemetryError::RowOutOfBounds { index: row, len: src.n_rows() };
        let mut values = Vec::with_capacity(src.schema.len());
        for attr_id in 0..src.schema.len() {
            values.push(match src.column(attr_id) {
                ColumnView::Numeric(v) => Value::Num(*v.0.get(row).ok_or_else(out_of_bounds)?),
                ColumnView::Categorical(c) => {
                    let id = *c.ids.get(row).ok_or_else(out_of_bounds)?;
                    self.intern(attr_id, c.dict.label(id).unwrap_or("<unknown>"))?
                }
            });
        }
        Ok(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::from_attrs([AttributeMeta::numeric("cpu"), AttributeMeta::categorical("job")])
            .unwrap()
    }

    fn sample() -> Dataset {
        let mut d = Dataset::new(schema());
        let idle = d.intern(1, "idle").unwrap();
        let busy = d.intern(1, "busy").unwrap();
        d.push_row(0.0, &[Value::Num(10.0), idle]).unwrap();
        d.push_row(1.0, &[Value::Num(20.0), busy]).unwrap();
        d.push_row(2.0, &[Value::Num(30.0), idle]).unwrap();
        d
    }

    #[test]
    fn push_and_access() {
        let d = sample();
        assert_eq!(d.n_rows(), 3);
        assert_eq!(d.numeric(0).unwrap(), &[10.0, 20.0, 30.0]);
        let (ids, dict) = d.categorical(1).unwrap();
        assert_eq!(ids, &[0, 1, 0]);
        assert_eq!(dict.label(1), Some("busy"));
        assert_eq!(d.timestamps(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn arity_and_kind_checks() {
        let mut d = Dataset::new(schema());
        assert!(matches!(
            d.push_row(0.0, &[Value::Num(1.0)]),
            Err(TelemetryError::ArityMismatch { expected: 2, found: 1 })
        ));
        assert!(d.push_row(0.0, &[Value::Cat(0), Value::Cat(0)]).is_err());
        assert!(d.numeric(1).is_none());
        assert!(d.categorical(0).is_err());
        assert!(d.intern(0, "x").is_err());
    }

    #[test]
    fn numeric_range_ignores_nan() {
        let mut d = Dataset::new(Schema::from_attrs([AttributeMeta::numeric("x")]).unwrap());
        for v in [f64::NAN, 5.0, -1.0, 3.0] {
            d.push_row(0.0, &[Value::Num(v)]).unwrap();
        }
        assert_eq!(d.numeric_range(0).unwrap(), (-1.0, 5.0));
    }

    #[test]
    fn numeric_range_empty_errors() {
        let d = Dataset::new(Schema::from_attrs([AttributeMeta::numeric("x")]).unwrap());
        assert!(d.numeric_range(0).is_err());
    }

    #[test]
    fn extend_from_reinterns_labels() {
        let mut a = sample();
        let mut b = Dataset::new(schema());
        // In `b`, "backup" gets id 0 — must map to a fresh id in `a`.
        let backup = b.intern(1, "backup").unwrap();
        b.push_row(9.0, &[Value::Num(1.0), backup]).unwrap();
        let values = a.values_from(&b, 0).unwrap();
        a.push_row(9.0, &values).unwrap();
        assert_eq!(a.n_rows(), 4);
        let (ids, dict) = a.categorical(1).unwrap();
        assert_eq!(dict.label(ids[3]).unwrap(), "backup");
    }
}
