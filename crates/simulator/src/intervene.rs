//! The simulator as an intervention backend: re-inject a diagnosed cause
//! and hand the re-run to core's intervention engine.
//!
//! [`ScenarioRunner`] implements
//! [`InterventionRunner`] by mapping a
//! ranked cause's *name* back to the fault that induces it — a Table 1
//! [`AnomalyKind`] for single-node incidents, a catalog
//! [`ClusterAnomalyKind`] for cluster incidents — and running a fresh
//! scenario with that fault injected in a fixed window. The paper's testbed
//! cannot do this (nobody re-breaks a production database to check a
//! diagnosis); the simulator substitution makes interventional validation
//! cheap, deterministic, and safe.
//!
//! One runner serves one incident *family* (single-node or cluster),
//! because the no-fault control run must share the incident's schema — the
//! symptom signature's predicates reference its attributes. Causes from the
//! other family report `can_inject == false` and are skipped by the engine
//! (nothing was tested, so no verdict is invented for them); core's
//! promotion then lets interventionally reproduced causes overtake them in
//! the ranking.

use dbsherlock_core::{InterventionRunner, SherlockError, TrialRun};
use dbsherlock_telemetry::Region;

use crate::anomaly::{AnomalyKind, Injection};
use crate::cluster::{ClusterAnomalyKind, ClusterConfig, ClusterInjection, ClusterScenario};
use crate::config::WorkloadConfig;
use crate::scenario::Scenario;

/// Which scenario family the runner re-runs.
#[derive(Debug, Clone)]
enum Family {
    /// Single-node Table 1 scenarios over this workload.
    SingleNode(WorkloadConfig),
    /// Multi-node catalog scenarios over this cluster shape.
    Cluster(ClusterConfig),
}

/// Re-runs simulator scenarios on behalf of core's intervention engine.
///
/// Every trial uses the same fault window (`start..start + fault_secs`), so
/// fault re-runs and controls are region-aligned: the engine scores the
/// symptom signature over the same rows in both, and only the injected
/// dynamics differ. Trials are deterministic in the engine-supplied seed.
#[derive(Debug, Clone)]
pub struct ScenarioRunner {
    family: Family,
    duration: usize,
    start: usize,
    fault_secs: usize,
}

impl ScenarioRunner {
    /// A runner for single-node incidents: 150-tick re-runs with the fault
    /// active in ticks 60..110 (the corpus's standard window).
    pub fn single_node(workload: WorkloadConfig) -> Self {
        ScenarioRunner {
            family: Family::SingleNode(workload),
            duration: 150,
            start: 60,
            fault_secs: 50,
        }
    }

    /// A runner for cluster incidents, same standard window.
    pub fn cluster(config: ClusterConfig) -> Self {
        ScenarioRunner { family: Family::Cluster(config), duration: 150, start: 60, fault_secs: 50 }
    }

    /// Override the re-run length (builder style).
    pub fn with_duration(mut self, duration: usize) -> Self {
        self.duration = duration;
        self
    }

    /// Override the fault window (builder style).
    pub fn with_window(mut self, start: usize, fault_secs: usize) -> Self {
        self.start = start;
        self.fault_secs = fault_secs;
        self
    }

    /// The would-be fault window, used as the control run's abnormal region.
    fn window(&self) -> Region {
        Region::from_range(self.start..self.start + self.fault_secs)
    }

    /// The Table 1 kind `cause` names, if this is a single-node runner.
    fn single_kind(&self, cause: &str) -> Option<AnomalyKind> {
        match self.family {
            Family::SingleNode(_) => AnomalyKind::ALL.into_iter().find(|k| k.name() == cause),
            Family::Cluster(_) => None,
        }
    }

    /// The cluster-catalog kind `cause` names, if this is a cluster runner.
    fn cluster_kind(&self, cause: &str) -> Option<ClusterAnomalyKind> {
        match self.family {
            Family::Cluster(_) => ClusterAnomalyKind::ALL.into_iter().find(|k| k.name() == cause),
            Family::SingleNode(_) => None,
        }
    }

    /// One re-run with `kind` injected (or a no-fault control for `None`).
    fn run(
        &self,
        single: Option<AnomalyKind>,
        cluster: Option<ClusterAnomalyKind>,
        seed: u64,
    ) -> Result<TrialRun, SherlockError> {
        match &self.family {
            Family::SingleNode(workload) => {
                let mut scenario = Scenario::new(workload.clone(), self.duration, seed);
                if let Some(kind) = single {
                    scenario =
                        scenario.with_injection(Injection::new(kind, self.start, self.fault_secs));
                }
                let labeled = scenario.run();
                let abnormal =
                    if single.is_some() { labeled.abnormal_region() } else { self.window() };
                let normal = abnormal.complement(labeled.data.n_rows());
                Ok(TrialRun { data: labeled.data, abnormal, normal })
            }
            Family::Cluster(config) => {
                let mut scenario = ClusterScenario::new(config.clone(), self.duration, seed);
                if let Some(kind) = cluster {
                    scenario = scenario.with_injection(ClusterInjection::new(
                        kind,
                        self.start,
                        self.fault_secs,
                    ));
                }
                let labeled = scenario.run()?;
                let abnormal =
                    if cluster.is_some() { labeled.abnormal_region() } else { self.window() };
                let normal = abnormal.complement(labeled.data.n_rows());
                Ok(TrialRun { data: labeled.data, abnormal, normal })
            }
        }
    }
}

impl InterventionRunner for ScenarioRunner {
    fn can_inject(&self, cause: &str) -> bool {
        self.single_kind(cause).is_some() || self.cluster_kind(cause).is_some()
    }

    fn inject(&self, cause: &str, seed: u64) -> Result<TrialRun, SherlockError> {
        let single = self.single_kind(cause);
        let cluster = self.cluster_kind(cause);
        if single.is_none() && cluster.is_none() {
            return Err(SherlockError::InvalidParam {
                name: "cause",
                value: cause.to_string(),
                reason: "no simulator fault induces this cause in this runner's family",
            });
        }
        self.run(single, cluster, seed)
    }

    fn control(&self, seed: u64) -> Result<TrialRun, SherlockError> {
        self.run(None, None, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsherlock_core::{
        validate_explanation, ExecPolicy, InterventionConfig, Sherlock, SherlockParams,
    };

    fn quick_workload() -> WorkloadConfig {
        WorkloadConfig { terminals: 48, ..WorkloadConfig::tpcc_default() }
    }

    /// Train one merged model per kind, diagnose a held-out incident, and
    /// let the intervention engine sort out which candidate is real.
    #[test]
    fn single_node_intervention_validates_the_true_cause() {
        let kinds = [AnomalyKind::CpuSaturation, AnomalyKind::NetworkCongestion];
        let mut sherlock = Sherlock::new(SherlockParams::default());
        for (i, kind) in kinds.iter().enumerate() {
            let labeled = Scenario::new(quick_workload(), 150, 1000 + i as u64)
                .with_injection(Injection::new(*kind, 60, 50))
                .run();
            let explanation = sherlock.explain(&labeled.data, &labeled.abnormal_region(), None);
            sherlock.feedback(kind.name(), &explanation.predicates);
        }

        let incident = Scenario::new(quick_workload(), 150, 777)
            .with_injection(Injection::new(AnomalyKind::CpuSaturation, 60, 50))
            .run();
        let mut explanation = sherlock.explain(&incident.data, &incident.abnormal_region(), None);
        assert_eq!(explanation.all_causes.len(), 2);

        let runner = ScenarioRunner::single_node(quick_workload());
        let cfg = InterventionConfig {
            trials: 2,
            top_k: 2,
            exec: ExecPolicy::Serial,
            ..InterventionConfig::default()
        };
        let report = validate_explanation(&mut explanation, &runner, sherlock.params(), &cfg);
        assert_eq!(report.candidates, 2);
        assert_eq!(report.panics_isolated, 0);
        assert_eq!(report.trial_failures, 0);

        let cpu = explanation
            .interventions
            .iter()
            .find(|v| v.cause == AnomalyKind::CpuSaturation.name())
            .unwrap();
        assert!(cpu.verdict.reproduced, "{:?}", explanation.interventions);
        // The validated cause leads the ranking after promotion.
        assert_eq!(explanation.all_causes[0].cause, AnomalyKind::CpuSaturation.name());
    }

    #[test]
    fn cluster_intervention_validates_the_true_cause() {
        let config = ClusterConfig::three_node(quick_workload());
        let kinds = [ClusterAnomalyKind::ReplicationLag, ClusterAnomalyKind::HotShard];
        let mut sherlock = Sherlock::new(SherlockParams::default());
        for (i, kind) in kinds.iter().enumerate() {
            let labeled = ClusterScenario::new(config.clone(), 150, 2000 + i as u64)
                .with_injection(ClusterInjection::new(*kind, 60, 50))
                .run()
                .unwrap();
            let explanation = sherlock.explain(&labeled.data, &labeled.abnormal_region(), None);
            sherlock.feedback(kind.name(), &explanation.predicates);
        }

        let incident = ClusterScenario::new(config.clone(), 150, 555)
            .with_injection(ClusterInjection::new(ClusterAnomalyKind::ReplicationLag, 60, 50))
            .run()
            .unwrap();
        let mut explanation = sherlock.explain(&incident.data, &incident.abnormal_region(), None);

        let runner = ScenarioRunner::cluster(config);
        let cfg = InterventionConfig {
            trials: 2,
            top_k: 2,
            exec: ExecPolicy::Serial,
            ..InterventionConfig::default()
        };
        let report = validate_explanation(&mut explanation, &runner, sherlock.params(), &cfg);
        assert_eq!(report.candidates, 2);
        assert_eq!(report.trial_failures, 0);
        let lag = explanation
            .interventions
            .iter()
            .find(|v| v.cause == ClusterAnomalyKind::ReplicationLag.name())
            .unwrap();
        assert!(lag.verdict.reproduced, "{:?}", explanation.interventions);
    }

    #[test]
    fn runners_reject_the_other_family() {
        let single = ScenarioRunner::single_node(quick_workload());
        let cluster = ScenarioRunner::cluster(ClusterConfig::three_node(quick_workload()));
        assert!(single.can_inject(AnomalyKind::LockContention.name()));
        assert!(!single.can_inject(ClusterAnomalyKind::NetworkPartition.name()));
        assert!(cluster.can_inject(ClusterAnomalyKind::NetworkPartition.name()));
        assert!(!cluster.can_inject(AnomalyKind::LockContention.name()));
        assert!(matches!(
            single.inject(ClusterAnomalyKind::NetworkPartition.name(), 1),
            Err(SherlockError::InvalidParam { name: "cause", .. })
        ));
    }

    #[test]
    fn trials_are_deterministic_in_the_seed() {
        let runner = ScenarioRunner::single_node(quick_workload());
        let a = runner.inject(AnomalyKind::IoSaturation.name(), 99).unwrap();
        let b = runner.inject(AnomalyKind::IoSaturation.name(), 99).unwrap();
        for (id, _) in a.data.schema().iter() {
            if let (Some(x), Some(y)) = (a.data.numeric(id), b.data.numeric(id)) {
                assert_eq!(x, y);
            }
        }
        assert_eq!(a.abnormal, b.abnormal);
    }
}
