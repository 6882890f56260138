//! Scalar telemetry values and categorical dictionaries.

use serde::{Deserialize, Serialize};

/// A single scalar observation.
///
/// Categorical values are stored as small integer ids into a per-column
/// [`Dictionary`]; this keeps the hot loops of the algorithm allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Numeric measurement.
    Num(f64),
    /// Categorical value (dictionary id).
    Cat(u32),
}

impl Value {
    /// The numeric payload, if this is a numeric value.
    pub fn as_num(self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(v),
            Value::Cat(_) => None,
        }
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Num(v)
    }
}

/// Interned string dictionary for one categorical column.
///
/// Ids are dense and assigned in first-seen order, so a column's partition
/// space (one partition per distinct category, paper Section 4.1) can be
/// indexed directly by id.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dictionary {
    labels: Vec<String>,
}

impl Dictionary {
    /// Empty dictionary.
    pub(crate) fn new() -> Self {
        Dictionary::default()
    }

    /// Intern `label`, returning its stable id.
    pub(crate) fn intern(&mut self, label: &str) -> u32 {
        if let Some(id) = self.id_of(label) {
            return id;
        }
        self.labels.push(label.to_string());
        (self.labels.len() - 1) as u32
    }

    /// Id of an already-interned label.
    pub(crate) fn id_of(&self, label: &str) -> Option<u32> {
        self.labels.iter().position(|l| l == label).map(|i| i as u32)
    }

    /// Label for an id, if in range.
    pub fn label(&self, id: u32) -> Option<&str> {
        self.labels.get(id as usize).map(String::as_str)
    }

    /// Number of distinct categories (`|Unique(Attr_i)|` in the paper).
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when no category has been interned.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Iterate `(id, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.labels.iter().enumerate().map(|(i, l)| (i as u32, l.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Num(1.5).as_num(), Some(1.5));
        assert_eq!(Value::Cat(3).as_num(), None);
        assert_eq!(Value::from(2.0), Value::Num(2.0));
    }

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut d = Dictionary::new();
        let a = d.intern("idle");
        let b = d.intern("backup");
        let a2 = d.intern("idle");
        assert_eq!(a, a2);
        assert_eq!((a, b), (0, 1));
        assert_eq!(d.len(), 2);
        assert_eq!(d.label(1), Some("backup"));
        assert_eq!(d.label(2), None);
        assert_eq!(d.id_of("backup"), Some(1));
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut d = Dictionary::new();
        d.intern("a");
        d.intern("b");
        let pairs: Vec<_> = d.iter().collect();
        assert_eq!(pairs, vec![(0, "a"), (1, "b")]);
    }
}
