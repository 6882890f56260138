//! Lock-contention model.
//!
//! OLTP performance collapses under contention super-linearly: with `n`
//! concurrent transactions touching a hot set of rows, the expected number
//! of conflicts grows roughly with `n²` times the probability that two
//! transactions collide (which access skew concentrates). This captures the
//! paper's Lock Contention anomaly (§8.2: "NewOrder transactions only on a
//! single warehouse and district") and the lock-wait signature of Workload
//! Spike (§1: "an increase in the number of lock waits and running DBMS
//! threads").

/// What the lock manager reports for one tick.
#[derive(Debug, Clone, Copy, Default)]
pub struct LockTick {
    /// Total lock wait time accumulated across all transactions this
    /// second, in milliseconds (MySQL reports the aggregate, §1).
    pub total_wait_ms: f64,
    /// Number of lock waits that occurred.
    pub lock_waits: f64,
    /// Transactions currently blocked on row locks.
    pub current_waits: f64,
    /// Deadlocks detected this second.
    pub deadlocks: f64,
}

/// Stateless contention model evaluated per tick.
#[derive(Debug, Clone)]
pub struct LockModel {
    /// Mean time a conflicting waiter holds its victim, ms.
    pub mean_hold_ms: f64,
}

impl Default for LockModel {
    fn default() -> Self {
        LockModel { mean_hold_ms: 6.0 }
    }
}

impl LockModel {
    /// Evaluate contention for one second.
    ///
    /// * `concurrency` — transactions in flight (running threads).
    /// * `skew` — fraction of row accesses hitting the hottest partition
    ///   (the [`WorkloadConfig::access_skew`](crate::config::WorkloadConfig)
    ///   knob; the Lock Contention anomaly raises it towards 1).
    /// * `lock_weight` — the mix's average lock footprint per transaction.
    /// * `throughput` — transactions completing this second.
    pub(crate) fn tick(
        &self,
        concurrency: f64,
        skew: f64,
        lock_weight: f64,
        throughput: f64,
    ) -> LockTick {
        let concurrency = concurrency.max(0.0);
        let skew = skew.clamp(0.0, 1.0);
        // Probability a given pair of in-flight transactions conflicts.
        let pair_conflict = (skew * lock_weight).min(1.0);
        // Expected conflicting pairs: n(n-1)/2 * p, softened so that the
        // model stays sane at very high concurrency.
        let pairs = concurrency * (concurrency - 1.0).max(0.0) / 2.0;
        let conflicts = pairs * pair_conflict;
        // Each conflict produces a wait of roughly the hold time, stretched
        // when waiters pile up (convoy effect).
        let convoy = 1.0 + (conflicts / concurrency.max(1.0)).min(20.0);
        let total_wait_ms = conflicts * self.mean_hold_ms * convoy;
        let lock_waits = conflicts.min(throughput.max(0.0) * 4.0);
        let current_waits = (conflicts * self.mean_hold_ms / 1000.0).min(concurrency);
        // Deadlocks are rare even under contention: a small quadratic tail.
        let deadlocks = (pair_conflict * pair_conflict * pairs * 1e-3).min(throughput.max(0.0));
        LockTick { total_wait_ms, lock_waits, current_waits, deadlocks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_concurrency_no_contention() {
        let m = LockModel::default();
        let t = m.tick(1.0, 0.5, 1.0, 100.0);
        assert_eq!(t.total_wait_ms, 0.0);
        let t = m.tick(0.0, 0.5, 1.0, 0.0);
        assert_eq!(t.total_wait_ms, 0.0);
    }

    #[test]
    fn wait_grows_superlinearly_with_concurrency() {
        let m = LockModel::default();
        let low = m.tick(16.0, 0.05, 0.5, 500.0);
        let high = m.tick(64.0, 0.05, 0.5, 500.0);
        assert!(high.total_wait_ms > low.total_wait_ms * 4.0);
    }

    #[test]
    fn skew_drives_contention() {
        let m = LockModel::default();
        let uniform = m.tick(64.0, 0.01, 0.8, 500.0);
        let skewed = m.tick(64.0, 0.9, 0.8, 500.0);
        assert!(skewed.total_wait_ms > uniform.total_wait_ms * 10.0);
        assert!(skewed.deadlocks > uniform.deadlocks);
    }

    #[test]
    fn read_only_mix_locks_nothing() {
        let m = LockModel::default();
        let t = m.tick(64.0, 0.5, 0.0, 500.0);
        assert_eq!(t.total_wait_ms, 0.0);
    }

    #[test]
    fn current_waits_bounded_by_concurrency() {
        let m = LockModel::default();
        let t = m.tick(32.0, 1.0, 1.0, 100.0);
        assert!(t.current_waits <= 32.0);
    }
}
