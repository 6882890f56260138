//! Pairwise featurization (PerfXplain, Khoussainova et al., PVLDB 2012).
//!
//! PerfXplain reasons about *pairs* of executions. For each attribute, a
//! pair `(t1, t2)` is summarized by a coarse comparison feature; an
//! explanation is a conjunction of `attribute = feature-value` tests over
//! pairs. Following the DBSherlock paper's re-implementation (§8.4), the
//! executions are telemetry tuples rather than MapReduce jobs.

use dbsherlock_telemetry::{AttributeKind, ColumnView, Dataset};

/// Coarse comparison of one attribute's values across a pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PairFeature {
    /// Values within the similarity tolerance (numeric) or equal labels
    /// (categorical).
    Similar,
    /// First value notably greater.
    Greater,
    /// First value notably less.
    Less,
    /// Different category labels.
    Different,
}

/// Relative tolerance under which two numeric values count as similar.
pub const SIMILARITY_TOLERANCE: f64 = 0.10;

/// Featurize one attribute of a pair of rows.
pub fn pair_feature(dataset: &Dataset, attr_id: usize, row_a: usize, row_b: usize) -> PairFeature {
    match dataset.column(attr_id) {
        ColumnView::Numeric(v) => match (v.0.get(row_a), v.0.get(row_b)) {
            (Some(&a), Some(&b)) => compare_numeric(a, b),
            _ => PairFeature::Different,
        },
        ColumnView::Categorical(c) => match (c.ids.get(row_a), c.ids.get(row_b)) {
            (Some(a), Some(b)) if a == b => PairFeature::Similar,
            _ => PairFeature::Different,
        },
    }
}

/// Numeric comparison with the 10% relative-tolerance similarity rule.
pub fn compare_numeric(a: f64, b: f64) -> PairFeature {
    let scale = a.abs().max(b.abs()).max(1e-9);
    if (a - b).abs() <= SIMILARITY_TOLERANCE * scale {
        PairFeature::Similar
    } else if a > b {
        PairFeature::Greater
    } else {
        PairFeature::Less
    }
}

/// Attribute ids usable as features: everything except the performance
/// indicator(s) the query is about — explaining a latency difference *by*
/// the latency difference is vacuous.
pub fn feature_attributes(dataset: &Dataset, excluded: &[&str]) -> Vec<usize> {
    dataset
        .schema()
        .iter()
        .filter(|(_, meta)| !excluded.contains(&meta.name.as_str()))
        .filter(|(_, meta)| {
            matches!(meta.kind, AttributeKind::Numeric | AttributeKind::Categorical)
        })
        .map(|(id, _)| id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsherlock_telemetry::{AttributeMeta, Schema, Value};

    #[test]
    fn numeric_comparisons() {
        assert_eq!(compare_numeric(100.0, 105.0), PairFeature::Similar);
        assert_eq!(compare_numeric(100.0, 50.0), PairFeature::Greater);
        assert_eq!(compare_numeric(50.0, 100.0), PairFeature::Less);
        assert_eq!(compare_numeric(0.0, 0.0), PairFeature::Similar);
    }

    #[test]
    fn features_from_dataset_pairs() {
        let schema =
            Schema::from_attrs([AttributeMeta::numeric("x"), AttributeMeta::categorical("c")])
                .unwrap();
        let mut d = Dataset::new(schema);
        let a = d.intern(1, "a").unwrap();
        let b = d.intern(1, "b").unwrap();
        d.push_row(0.0, &[Value::Num(10.0), a]).unwrap();
        d.push_row(1.0, &[Value::Num(30.0), b]).unwrap();
        d.push_row(2.0, &[Value::Num(10.5), a]).unwrap();
        assert_eq!(pair_feature(&d, 0, 0, 1), PairFeature::Less);
        assert_eq!(pair_feature(&d, 0, 0, 2), PairFeature::Similar);
        assert_eq!(pair_feature(&d, 1, 0, 1), PairFeature::Different);
        assert_eq!(pair_feature(&d, 1, 0, 2), PairFeature::Similar);
    }

    #[test]
    fn excluded_attributes_are_not_features() {
        let schema =
            Schema::from_attrs([AttributeMeta::numeric("latency"), AttributeMeta::numeric("cpu")])
                .unwrap();
        let d = Dataset::new(schema);
        let feats = feature_attributes(&d, &["latency"]);
        assert_eq!(feats, vec![1]);
    }
}
