//! Domain knowledge and secondary-symptom pruning (paper §5).
//!
//! A rule `Attr_i → Attr_j` says: when predicates on both attributes are
//! extracted, the one on `Attr_j` is *likely* a secondary symptom of the
//! one on `Attr_i`. Because domain knowledge can itself be imperfect, the
//! rule is only honoured when the data *confirms* the dependence: the two
//! attributes are discretized into `γ` bins, a joint histogram estimates
//! their joint distribution, and the independence factor
//! `κ = MI² / (H_i · H_j)` is compared against `κ_t`. If `κ >= κ_t`
//! (dependent) the rule fires and the effect predicate is pruned; if
//! `κ < κ_t` (the attributes pass the independence test) both predicates
//! stay.

use dbsherlock_telemetry::{stats, AttributeKind, Dataset};
use serde::{Deserialize, Serialize};

use crate::error::SherlockError;
use crate::generate::GeneratedPredicate;
use crate::params::SherlockParams;

/// One piece of domain knowledge: `cause → effect`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rule {
    /// Attribute whose predicate is the likely primary signal.
    pub cause: String,
    /// Attribute whose predicate is the likely secondary symptom.
    pub effect: String,
}

impl Rule {
    /// Construct a rule.
    pub fn new(cause: impl Into<String>, effect: impl Into<String>) -> Self {
        Rule { cause: cause.into(), effect: effect.into() }
    }
}

/// A consistent set of rules.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DomainKnowledge {
    rules: Vec<Rule>,
}

impl DomainKnowledge {
    /// Empty knowledge base (DBSherlock works fine without one, §8.6).
    pub fn none() -> Self {
        DomainKnowledge::default()
    }

    /// Build from rules, rejecting the forbidden symmetric pair
    /// `A → B` together with `B → A` (paper §5, condition ii).
    pub fn new(rules: impl IntoIterator<Item = Rule>) -> Result<Self, SherlockError> {
        let mut kb = DomainKnowledge::default();
        for rule in rules {
            kb.add(rule)?;
        }
        Ok(kb)
    }

    /// Add one rule; errors when its inverse is already present.
    pub(crate) fn add(&mut self, rule: Rule) -> Result<(), SherlockError> {
        if self.rules.iter().any(|r| r.cause == rule.effect && r.effect == rule.cause) {
            return Err(SherlockError::ConflictingRules {
                detail: format!(
                    "{} → {} and {} → {} cannot coexist",
                    rule.cause, rule.effect, rule.effect, rule.cause
                ),
            });
        }
        if !self.rules.contains(&rule) {
            self.rules.push(rule);
        }
        Ok(())
    }

    /// The paper's four default rules for MySQL on Linux (§5), phrased in
    /// our metric names: the DBMS/OS CPU subset relationship plus three
    /// complement relationships.
    pub fn mysql_linux() -> Self {
        // The fixed list above has no symmetric pair, so construction
        // cannot fail; an empty knowledge base is the harmless fallback.
        DomainKnowledge::new([
            Rule::new("dbms_cpu_usage", "os_cpu_usage"),
            Rule::new("os_pages_allocated", "os_pages_free"),
            Rule::new("os_swap_used_mb", "os_swap_free_mb"),
            Rule::new("os_cpu_usage", "os_cpu_idle"),
        ])
        .unwrap_or_default()
    }

    /// Prune secondary symptoms from `predicates`, returning the survivors
    /// (order preserved). For each rule whose cause and effect both have
    /// predicates, the effect predicate is removed iff the dependence test
    /// over `dataset` confirms the rule (`κ >= κ_t`).
    pub fn prune(
        &self,
        dataset: &Dataset,
        predicates: Vec<GeneratedPredicate>,
        params: &SherlockParams,
    ) -> Vec<GeneratedPredicate> {
        let mut pruned = vec![false; predicates.len()];
        for rule in &self.rules {
            let cause_present = predicates
                .iter()
                .enumerate()
                .any(|(i, p)| !pruned[i] && p.predicate.attr == rule.cause);
            if !cause_present {
                continue;
            }
            let Some(effect_idx) = predicates.iter().position(|p| p.predicate.attr == rule.effect)
            else {
                continue;
            };
            if pruned[effect_idx] {
                continue;
            }
            if let Some(kappa) = independence_factor(dataset, &rule.cause, &rule.effect, params) {
                if kappa >= params.kappa_t {
                    pruned[effect_idx] = true;
                }
            }
        }
        predicates
            .into_iter()
            .zip(pruned)
            .filter(|(_, was_pruned)| !was_pruned)
            .map(|(p, _)| p)
            .collect()
    }
}

/// The independence factor `κ(Attr_a, Attr_b)` over the full dataset,
/// or `None` if either attribute is missing or unpartitionable.
pub fn independence_factor(
    dataset: &Dataset,
    attr_a: &str,
    attr_b: &str,
    params: &SherlockParams,
) -> Option<f64> {
    let a = discretize(dataset, attr_a, params.gamma)?;
    let b = discretize(dataset, attr_b, params.gamma)?;
    if a.codes.len() != b.codes.len() || a.codes.is_empty() {
        return None;
    }
    let joint = stats::joint_histogram(&a.codes, &b.codes, a.bins, b.bins);
    Some(stats::independence_factor(&joint))
}

struct Discretized {
    codes: Vec<usize>,
    bins: usize,
}

/// Discretize an attribute: `γ` equi-width bins for numeric, category ids
/// for categorical (§5).
fn discretize(dataset: &Dataset, attr: &str, gamma: usize) -> Option<Discretized> {
    let attr_id = dataset.schema().id_of(attr)?;
    match dataset.schema().attr(attr_id).kind {
        AttributeKind::Numeric => {
            let values = dataset.numeric(attr_id)?;
            let (min, max) = dataset.numeric_range(attr_id).ok()?;
            let bins = gamma.max(1);
            let codes = values
                .iter()
                .map(|&v| if v.is_finite() { stats::bin_index(v, min, max, bins) } else { 0 })
                .collect();
            Some(Discretized { codes, bins })
        }
        AttributeKind::Categorical => {
            let (ids, dict) = dataset.categorical(attr_id).ok()?;
            if dict.is_empty() {
                return None;
            }
            Some(Discretized { codes: ids.iter().map(|&i| i as usize).collect(), bins: dict.len() })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use dbsherlock_telemetry::{AttributeMeta, Schema, Value};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn generated(attr: &str) -> GeneratedPredicate {
        GeneratedPredicate {
            predicate: Predicate::gt(attr, 1.0),
            separation_power: 1.0,
            normalized_diff: 1.0,
        }
    }

    /// `dep` tracks `base` exactly; `indep` is independent noise.
    fn dataset() -> Dataset {
        let schema = Schema::from_attrs([
            AttributeMeta::numeric("base"),
            AttributeMeta::numeric("dep"),
            AttributeMeta::numeric("indep"),
        ])
        .unwrap();
        let mut d = Dataset::new(schema);
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..400 {
            let base: f64 = rng.random::<f64>() * 100.0;
            let dep = base * 2.0 + 5.0;
            let indep: f64 = rng.random::<f64>() * 100.0;
            d.push_row(i as f64, &[Value::Num(base), Value::Num(dep), Value::Num(indep)]).unwrap();
        }
        d
    }

    #[test]
    fn kappa_high_for_dependent_low_for_independent() {
        let d = dataset();
        let params = SherlockParams::default();
        let dep = independence_factor(&d, "base", "dep", &params).unwrap();
        let indep = independence_factor(&d, "base", "indep", &params).unwrap();
        assert!(dep > 0.5, "dependent kappa {dep}");
        assert!(indep < 0.15, "independent kappa {indep}");
        assert!(independence_factor(&d, "base", "missing", &params).is_none());
    }

    #[test]
    fn prune_removes_confirmed_secondary_symptom() {
        let d = dataset();
        let kb = DomainKnowledge::new([Rule::new("base", "dep")]).unwrap();
        let survivors =
            kb.prune(&d, vec![generated("base"), generated("dep")], &SherlockParams::default());
        let names: Vec<&str> = survivors.iter().map(|p| p.predicate.attr.as_str()).collect();
        assert_eq!(names, vec!["base"]);
    }

    #[test]
    fn prune_keeps_effect_when_independent() {
        let d = dataset();
        let kb = DomainKnowledge::new([Rule::new("base", "indep")]).unwrap();
        let survivors =
            kb.prune(&d, vec![generated("base"), generated("indep")], &SherlockParams::default());
        assert_eq!(survivors.len(), 2, "independent attributes must both survive");
    }

    #[test]
    fn prune_requires_cause_predicate() {
        let d = dataset();
        let kb = DomainKnowledge::new([Rule::new("base", "dep")]).unwrap();
        // Only the effect predicate present: nothing to prune against.
        let survivors = kb.prune(&d, vec![generated("dep")], &SherlockParams::default());
        assert_eq!(survivors.len(), 1);
    }

    #[test]
    fn symmetric_rules_rejected() {
        let mut kb = DomainKnowledge::none();
        kb.add(Rule::new("a", "b")).unwrap();
        assert!(kb.add(Rule::new("b", "a")).is_err());
        // Duplicates are idempotent.
        kb.add(Rule::new("a", "b")).unwrap();
        assert_eq!(kb.rules.len(), 1);
    }

    #[test]
    fn default_rules_exist() {
        let kb = DomainKnowledge::mysql_linux();
        assert_eq!(kb.rules.len(), 4);
        assert!(kb.rules.iter().any(|r| r.cause == "dbms_cpu_usage"));
    }

    #[test]
    fn pruned_cause_does_not_cascade() {
        // a -> b and b -> c: if b is pruned by a's rule, b no longer counts
        // as a live cause for c.
        let schema = Schema::from_attrs([
            AttributeMeta::numeric("a"),
            AttributeMeta::numeric("b"),
            AttributeMeta::numeric("c"),
        ])
        .unwrap();
        let mut d = Dataset::new(schema);
        let mut rng = StdRng::seed_from_u64(9);
        for i in 0..400 {
            let a: f64 = rng.random::<f64>() * 10.0;
            // b depends on a; c independent of everything.
            let c: f64 = rng.random::<f64>() * 10.0;
            d.push_row(i as f64, &[Value::Num(a), Value::Num(a + 1.0), Value::Num(c)]).unwrap();
        }
        let kb = DomainKnowledge::new([Rule::new("a", "b"), Rule::new("b", "c")]).unwrap();
        let survivors = kb.prune(
            &d,
            vec![generated("a"), generated("b"), generated("c")],
            &SherlockParams::default(),
        );
        let names: Vec<&str> = survivors.iter().map(|p| p.predicate.attr.as_str()).collect();
        // b pruned (dependent on a); c survives: its would-be cause b is
        // already gone, and c is independent of b anyway.
        assert_eq!(names, vec!["a", "c"]);
    }
}
