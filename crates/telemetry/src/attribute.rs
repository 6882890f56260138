//! Attribute metadata and schemas.
//!
//! DBSherlock operates on *aligned tuples* of the form
//! `(Timestamp, Attr1, ..., Attrk)` (paper, Section 2.1). Each attribute is
//! either **numeric** (OS/DBMS statistics, transaction aggregates) or
//! **categorical** (configuration values, discrete system states). The
//! algorithm treats the two kinds differently at almost every step, so the
//! kind is part of the schema rather than being inferred per-value.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::error::{Result, TelemetryError};

/// Whether an attribute holds continuous measurements or discrete categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttributeKind {
    /// Continuous statistic (e.g. `os_cpu_usage`, `dbms_lock_wait_ms`).
    Numeric,
    /// Discrete category (e.g. `active_external_job`, config values).
    Categorical,
}

impl AttributeKind {
    /// Short tag used in CSV headers (`num` / `cat`).
    pub fn tag(self) -> &'static str {
        match self {
            AttributeKind::Numeric => "num",
            AttributeKind::Categorical => "cat",
        }
    }

    /// Parse a CSV-header tag back into a kind.
    pub(crate) fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "num" => Some(AttributeKind::Numeric),
            "cat" => Some(AttributeKind::Categorical),
            _ => None,
        }
    }
}

/// Description of a single attribute in a telemetry schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttributeMeta {
    /// Unique attribute name, e.g. `"os_cpu_usage"`.
    pub name: String,
    /// Numeric or categorical.
    pub kind: AttributeKind,
}

impl AttributeMeta {
    /// Create a numeric attribute description.
    pub fn numeric(name: impl Into<String>) -> Self {
        AttributeMeta { name: name.into(), kind: AttributeKind::Numeric }
    }

    /// Create a categorical attribute description.
    pub fn categorical(name: impl Into<String>) -> Self {
        AttributeMeta { name: name.into(), kind: AttributeKind::Categorical }
    }

    /// The same attribute renamed under a `prefix.` namespace.
    ///
    /// Multi-source telemetry (one metric stream per cluster node) merges
    /// into a single aligned-tuple schema by namespacing each source:
    /// `os_cpu_usage` on node 2 becomes `node2.os_cpu_usage`.
    pub(crate) fn namespaced(&self, prefix: &str) -> Self {
        AttributeMeta { name: format!("{prefix}.{}", self.name), kind: self.kind }
    }
}

/// An ordered collection of attributes with O(1) lookup by name.
///
/// The schema intentionally does **not** include the timestamp: every
/// [`Dataset`](crate::dataset::Dataset) carries timestamps separately, one
/// per row.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Schema {
    attrs: Vec<AttributeMeta>,
    #[serde(skip)]
    index: HashMap<String, usize>,
}

impl Schema {
    /// Empty schema.
    pub fn new() -> Self {
        Schema::default()
    }

    /// Build a schema from attribute descriptions.
    ///
    /// Returns an error if two attributes share a name.
    pub fn from_attrs(attrs: impl IntoIterator<Item = AttributeMeta>) -> Result<Self> {
        let mut schema = Schema::new();
        for attr in attrs {
            schema.push(attr)?;
        }
        Ok(schema)
    }

    /// Append one attribute; errors on duplicate names.
    pub fn push(&mut self, attr: AttributeMeta) -> Result<usize> {
        if self.index.contains_key(&attr.name) {
            return Err(TelemetryError::DuplicateAttribute(attr.name.clone()));
        }
        let id = self.attrs.len();
        self.index.insert(attr.name.clone(), id);
        self.attrs.push(attr);
        Ok(id)
    }

    /// Number of attributes (`k` in the paper's notation).
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True when the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Attribute metadata by positional id.
    pub fn attr(&self, id: usize) -> &AttributeMeta {
        &self.attrs[id]
    }

    /// [`attr`](Self::attr) for callers that must stay panic-free on an
    /// out-of-range id (daemon ingest, row append).
    pub(crate) fn get(&self, id: usize) -> Option<&AttributeMeta> {
        self.attrs.get(id)
    }

    /// Positional id for a name, if present.
    pub fn id_of(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Positional id for a name, with a descriptive error otherwise.
    pub(crate) fn require(&self, name: &str) -> Result<usize> {
        self.id_of(name).ok_or_else(|| TelemetryError::UnknownAttribute(name.to_string()))
    }

    /// Iterate over `(id, meta)` pairs in schema order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &AttributeMeta)> {
        self.attrs.iter().enumerate()
    }

    /// Ids of all attributes of the given kind, in schema order.
    pub fn ids_of_kind(&self, kind: AttributeKind) -> Vec<usize> {
        self.iter().filter(|(_, a)| a.kind == kind).map(|(i, _)| i).collect()
    }

    /// Append every attribute of `other` under a `prefix.` namespace (see
    /// `AttributeMeta::namespaced`), returning the id of the first one.
    ///
    /// Errors on duplicate names, which with distinct prefixes can only
    /// happen if the same prefix is pushed twice.
    pub fn push_namespaced(&mut self, prefix: &str, other: &Schema) -> Result<usize> {
        let first = self.attrs.len();
        for (_, attr) in other.iter() {
            self.push(attr.namespaced(prefix))?;
        }
        Ok(first)
    }

    /// Structural equality on the attribute list (names + kinds, in order).
    pub fn same_layout(&self, other: &Schema) -> bool {
        self.attrs == other.attrs
    }
}

impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        self.same_layout(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_lookup() {
        let mut s = Schema::new();
        let a = s.push(AttributeMeta::numeric("cpu")).unwrap();
        let b = s.push(AttributeMeta::categorical("job")).unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(s.id_of("cpu"), Some(0));
        assert_eq!(s.id_of("job"), Some(1));
        assert_eq!(s.id_of("nope"), None);
        assert_eq!(s.attr(0).kind, AttributeKind::Numeric);
        assert_eq!(s.attr(1).kind, AttributeKind::Categorical);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut s = Schema::new();
        s.push(AttributeMeta::numeric("x")).unwrap();
        let err = s.push(AttributeMeta::categorical("x")).unwrap_err();
        assert_eq!(err, TelemetryError::DuplicateAttribute("x".into()));
    }

    #[test]
    fn require_gives_error_with_name() {
        let s = Schema::new();
        let err = s.require("missing").unwrap_err();
        assert!(err.to_string().contains("missing"));
    }

    #[test]
    fn ids_of_kind_filters() {
        let s = Schema::from_attrs([
            AttributeMeta::numeric("a"),
            AttributeMeta::categorical("b"),
            AttributeMeta::numeric("c"),
        ])
        .unwrap();
        assert_eq!(s.ids_of_kind(AttributeKind::Numeric), vec![0, 2]);
        assert_eq!(s.ids_of_kind(AttributeKind::Categorical), vec![1]);
    }

    #[test]
    fn kind_tags_round_trip() {
        for kind in [AttributeKind::Numeric, AttributeKind::Categorical] {
            assert_eq!(AttributeKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(AttributeKind::from_tag("bogus"), None);
    }

    #[test]
    fn namespacing_prefixes_names_and_keeps_kinds() {
        let node = Schema::from_attrs([
            AttributeMeta::numeric("os_cpu_usage"),
            AttributeMeta::categorical("checkpoint_state"),
        ])
        .unwrap();
        let mut merged = Schema::new();
        let first0 = merged.push_namespaced("node0", &node).unwrap();
        let first1 = merged.push_namespaced("node1", &node).unwrap();
        assert_eq!((first0, first1), (0, 2));
        assert_eq!(merged.id_of("node1.os_cpu_usage"), Some(2));
        assert_eq!(merged.attr(3).kind, AttributeKind::Categorical);
        assert_eq!(merged.attr(3).name, "node1.checkpoint_state");
        // Same prefix twice collides on every name.
        assert!(merged.push_namespaced("node0", &node).is_err());
    }

    #[test]
    fn same_layout_ignores_index_state() {
        let a = Schema::from_attrs([AttributeMeta::numeric("x")]).unwrap();
        let b = Schema { attrs: a.attrs.clone(), index: HashMap::new() };
        assert_eq!(a, b);
    }
}
