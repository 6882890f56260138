//! The ten anomaly classes of the paper's Table 1, as latent-state
//! perturbations.
//!
//! Each class perturbs the *inputs* of the server model (extra processes,
//! changed mixes, network delays) rather than painting output metrics, so
//! its telemetry signature — and its overlap with other classes' signatures
//! — emerges from the same queueing dynamics as normal operation.

use serde::{Deserialize, Serialize};

use crate::txn::Mix;

/// The ten anomaly classes (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AnomalyKind {
    /// Execute a poorly written JOIN query that scans instead of seeking.
    PoorlyWrittenQuery,
    /// Unnecessary index on insert-heavy tables.
    PoorPhysicalDesign,
    /// Greatly increased rate and client count (128 extra terminals).
    WorkloadSpike,
    /// External processes spinning on write()/unlink()/sync() (stress-ng).
    IoSaturation,
    /// mysqldump of the database to a client over the network.
    DatabaseBackup,
    /// Re-loading a pre-dumped table into the database.
    TableRestore,
    /// External processes stressing the CPU (stress-ng poll()).
    CpuSaturation,
    /// `flush-logs` / `refresh`: flush all tables and logs.
    FlushLogTable,
    /// 300 ms artificial delay on all network traffic (tc).
    NetworkCongestion,
    /// NewOrder-only mix against a single warehouse and district.
    LockContention,
}

impl AnomalyKind {
    /// All ten classes, in Table 1 order.
    pub const ALL: [AnomalyKind; 10] = [
        AnomalyKind::PoorlyWrittenQuery,
        AnomalyKind::PoorPhysicalDesign,
        AnomalyKind::WorkloadSpike,
        AnomalyKind::IoSaturation,
        AnomalyKind::DatabaseBackup,
        AnomalyKind::TableRestore,
        AnomalyKind::CpuSaturation,
        AnomalyKind::FlushLogTable,
        AnomalyKind::NetworkCongestion,
        AnomalyKind::LockContention,
    ];

    /// Human-readable name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            AnomalyKind::PoorlyWrittenQuery => "Poorly Written Query",
            AnomalyKind::PoorPhysicalDesign => "Poor Physical Design",
            AnomalyKind::WorkloadSpike => "Workload Spike",
            AnomalyKind::IoSaturation => "I/O Saturation",
            AnomalyKind::DatabaseBackup => "DB Backup",
            AnomalyKind::TableRestore => "Table Restore",
            AnomalyKind::CpuSaturation => "CPU Saturation",
            AnomalyKind::FlushLogTable => "Flush Log/Table",
            AnomalyKind::NetworkCongestion => "Network Congestion",
            AnomalyKind::LockContention => "Lock Contention",
        }
    }

    /// Table 1's description of how the anomaly is induced.
    pub fn description(self) -> &'static str {
        match self {
            AnomalyKind::PoorlyWrittenQuery => {
                "Execute a poorly written JOIN query, which would run efficiently if written properly."
            }
            AnomalyKind::PoorPhysicalDesign => {
                "Create an unnecessary index on tables where mostly INSERT statements are executed."
            }
            AnomalyKind::WorkloadSpike => {
                "Greatly increase the rate of transactions and the number of simulated clients."
            }
            AnomalyKind::IoSaturation => {
                "Spawn multiple processes that spin on write()/unlink()/sync() system calls."
            }
            AnomalyKind::DatabaseBackup => {
                "Dump the database to the client machine over the network."
            }
            AnomalyKind::TableRestore => {
                "Dump the pre-dumped history table back into the database instance."
            }
            AnomalyKind::CpuSaturation => {
                "Spawn multiple processes calling poll() system calls to stress CPU resources."
            }
            AnomalyKind::FlushLogTable => {
                "Flush all tables and logs (mysqladmin 'flush-logs' and 'refresh')."
            }
            AnomalyKind::NetworkCongestion => {
                "Add an artificial 300-millisecond delay to all network traffic."
            }
            AnomalyKind::LockContention => {
                "Execute NewOrder transactions only on a single warehouse and district."
            }
        }
    }

    /// Whether the experiment corpus varies the anomaly's *duration*
    /// (controllable stress) or its *start time* (jobs whose duration the
    /// operator cannot control, e.g. mysqldump — paper §8.2).
    pub(crate) fn duration_controllable(self) -> bool {
        !matches!(
            self,
            AnomalyKind::DatabaseBackup | AnomalyKind::TableRestore | AnomalyKind::FlushLogTable
        )
    }
}

/// One injected anomaly occurrence within a scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Injection {
    /// Which anomaly.
    pub kind: AnomalyKind,
    /// First affected tick (seconds from scenario start).
    pub start: usize,
    /// Number of affected ticks.
    pub duration: usize,
    /// Relative severity; 1.0 is the paper-like default.
    pub intensity: f64,
}

impl Injection {
    /// Injection with default intensity.
    pub fn new(kind: AnomalyKind, start: usize, duration: usize) -> Self {
        Injection { kind, start, duration, intensity: 1.0 }
    }

    /// Is `tick` inside this injection's window?
    pub(crate) fn active_at(&self, tick: usize) -> bool {
        tick >= self.start && tick < self.start + self.duration
    }
}

/// Aggregated latent-state perturbation for one tick; the identity value
/// means "no anomaly active".
#[derive(Debug, Clone)]
pub struct Perturbation {
    /// Additional client terminals (Workload Spike).
    pub extra_terminals: f64,
    /// Multiplier on client request eagerness (shrinks think time).
    pub rate_multiplier: f64,
    /// CPU work units per second consumed by non-DBMS processes.
    pub external_cpu: f64,
    /// Random IOPS consumed by non-DBMS processes.
    pub external_disk_iops: f64,
    /// Sequential disk MB/s consumed by non-DBMS processes.
    pub external_disk_mb: f64,
    /// Network MB/s consumed by non-DBMS processes.
    pub external_net_mb: f64,
    /// Added round-trip latency, ms (Network Congestion).
    pub added_rtt_ms: f64,
    /// Cap on usable network bandwidth, MB/s.
    pub net_bandwidth_cap_mb: Option<f64>,
    /// Override of the access-skew knob (Lock Contention).
    pub skew_override: Option<f64>,
    /// Override of the transaction mix (Lock Contention).
    pub mix_override: Option<Mix>,
    /// Extra row read requests per second from scan-style queries.
    pub scan_row_reads: f64,
    /// Extra logical page reads per second from scan-style queries.
    pub scan_logical_reads: f64,
    /// Extra DBMS CPU work from scan-style queries.
    pub scan_cpu: f64,
    /// Full table scans per second initiated by bad queries.
    pub full_scans: f64,
    /// Multiplier (≥ 1) on per-write maintenance cost (Poor Physical Design).
    pub index_overhead: f64,
    /// Pages the DBMS is forced to flush this tick (Flush Log/Table).
    pub forced_flush_pages: f64,
    /// Table-flush operations this tick.
    pub table_flushes: f64,
    /// Sequential MB/s read by a dump job (DB Backup); also leaves the box
    /// over the network.
    pub dump_read_mb: f64,
    /// Rows per second bulk-inserted by a restore job (Table Restore).
    pub bulk_insert_rows: f64,
}

impl Default for Perturbation {
    fn default() -> Self {
        Perturbation {
            extra_terminals: 0.0,
            rate_multiplier: 1.0,
            external_cpu: 0.0,
            external_disk_iops: 0.0,
            external_disk_mb: 0.0,
            external_net_mb: 0.0,
            added_rtt_ms: 0.0,
            net_bandwidth_cap_mb: None,
            skew_override: None,
            mix_override: None,
            scan_row_reads: 0.0,
            scan_logical_reads: 0.0,
            scan_cpu: 0.0,
            full_scans: 0.0,
            index_overhead: 1.0,
            forced_flush_pages: 0.0,
            table_flushes: 0.0,
            dump_read_mb: 0.0,
            bulk_insert_rows: 0.0,
        }
    }
}

impl Perturbation {
    /// Fold `injection`'s effect for `tick` into this perturbation.
    /// `base_mix` is consulted for mix overrides; `pool_pages` sizes flush
    /// storms.
    pub(crate) fn apply(
        &mut self,
        injection: &Injection,
        tick: usize,
        base_mix: &Mix,
        pool_pages: f64,
    ) {
        if !injection.active_at(tick) {
            return;
        }
        let s = injection.intensity;
        match injection.kind {
            AnomalyKind::PoorlyWrittenQuery => {
                // A JOIN missing its index: enormous row touches and CPU,
                // mostly from buffer-resident pages.
                self.scan_row_reads += 600_000.0 * s;
                self.scan_logical_reads += 14_000.0 * s;
                self.scan_cpu += 2_300.0 * s;
                self.full_scans += 40.0 * s;
            }
            AnomalyKind::PoorPhysicalDesign => {
                // Every insert maintains a useless index: more CPU and
                // dirty pages per write.
                self.index_overhead *= 1.0 + 2.2 * s;
            }
            AnomalyKind::WorkloadSpike => {
                // 128 additional terminals at high request rate (§8.2).
                self.extra_terminals += 128.0 * s;
                self.rate_multiplier *= 1.0 + 2.0 * s;
            }
            AnomalyKind::IoSaturation => {
                self.external_disk_iops += 1_400.0 * s;
                self.external_disk_mb += 30.0 * s;
            }
            AnomalyKind::DatabaseBackup => {
                self.dump_read_mb += 70.0 * s;
            }
            AnomalyKind::TableRestore => {
                self.bulk_insert_rows += 25_000.0 * s;
            }
            AnomalyKind::CpuSaturation => {
                self.external_cpu += 3_400.0 * s;
            }
            AnomalyKind::FlushLogTable => {
                // Flush everything: dirty pages plus table caches.
                self.forced_flush_pages += pool_pages * 0.006 * s;
                self.table_flushes += 30.0 * s;
            }
            AnomalyKind::NetworkCongestion => {
                self.added_rtt_ms += 300.0 * s;
                self.net_bandwidth_cap_mb = Some(match self.net_bandwidth_cap_mb {
                    Some(cap) => cap.min(12.0 / s.max(0.1)),
                    None => 12.0 / s.max(0.1),
                });
            }
            AnomalyKind::LockContention => {
                // All NewOrder on one warehouse/district: extreme skew.
                self.skew_override = Some(0.85_f64.min(0.6 + 0.25 * s));
                if self.mix_override.is_none() {
                    self.mix_override = base_mix
                        .single_class("new_order")
                        .or_else(|| base_mix.single_class("trade_order"));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Benchmark;

    #[test]
    fn all_ten_classes_present() {
        assert_eq!(AnomalyKind::ALL.len(), 10);
        let mut names: Vec<&str> = AnomalyKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn injection_window() {
        let inj = Injection::new(AnomalyKind::CpuSaturation, 60, 30);
        assert!(!inj.active_at(59));
        assert!(inj.active_at(60));
        assert!(inj.active_at(89));
        assert!(!inj.active_at(90));
    }

    #[test]
    fn inactive_injection_is_identity() {
        let mix = Mix::for_benchmark(Benchmark::TpccLike);
        let mut p = Perturbation::default();
        let inj = Injection::new(AnomalyKind::WorkloadSpike, 60, 30);
        p.apply(&inj, 10, &mix, 1000.0);
        assert_eq!(p.extra_terminals, 0.0);
        assert_eq!(p.rate_multiplier, 1.0);
    }

    #[test]
    fn workload_spike_adds_terminals() {
        let mix = Mix::for_benchmark(Benchmark::TpccLike);
        let mut p = Perturbation::default();
        p.apply(&Injection::new(AnomalyKind::WorkloadSpike, 0, 10), 5, &mix, 1000.0);
        assert_eq!(p.extra_terminals, 128.0);
        assert!(p.rate_multiplier > 1.0);
    }

    #[test]
    fn lock_contention_switches_mix_and_skew() {
        let mix = Mix::for_benchmark(Benchmark::TpccLike);
        let mut p = Perturbation::default();
        p.apply(&Injection::new(AnomalyKind::LockContention, 0, 10), 0, &mix, 1000.0);
        assert!(p.skew_override.unwrap() > 0.5);
        assert_eq!(p.mix_override.as_ref().unwrap().classes[0].name, "new_order");
    }

    #[test]
    fn lock_contention_falls_back_for_tpce() {
        let mix = Mix::for_benchmark(Benchmark::TpceLike);
        let mut p = Perturbation::default();
        p.apply(&Injection::new(AnomalyKind::LockContention, 0, 10), 0, &mix, 1000.0);
        assert_eq!(p.mix_override.as_ref().unwrap().classes[0].name, "trade_order");
    }

    #[test]
    fn compound_injections_accumulate() {
        let mix = Mix::for_benchmark(Benchmark::TpccLike);
        let mut p = Perturbation::default();
        p.apply(&Injection::new(AnomalyKind::CpuSaturation, 0, 10), 0, &mix, 1000.0);
        p.apply(&Injection::new(AnomalyKind::IoSaturation, 0, 10), 0, &mix, 1000.0);
        p.apply(&Injection::new(AnomalyKind::NetworkCongestion, 0, 10), 0, &mix, 1000.0);
        assert!(p.external_cpu > 0.0);
        assert!(p.external_disk_iops > 0.0);
        assert_eq!(p.added_rtt_ms, 300.0);
        assert!(p.net_bandwidth_cap_mb.is_some());
    }

    #[test]
    fn intensity_scales_effects() {
        let mix = Mix::for_benchmark(Benchmark::TpccLike);
        let mut weak = Perturbation::default();
        let mut strong = Perturbation::default();
        let mut inj = Injection::new(AnomalyKind::CpuSaturation, 0, 10);
        inj.intensity = 0.5;
        weak.apply(&inj, 0, &mix, 1000.0);
        inj.intensity = 2.0;
        strong.apply(&inj, 0, &mix, 1000.0);
        assert!(strong.external_cpu > weak.external_cpu * 3.9);
    }

    #[test]
    fn duration_controllability_split_matches_paper() {
        assert!(AnomalyKind::CpuSaturation.duration_controllable());
        assert!(!AnomalyKind::DatabaseBackup.duration_controllable());
        assert!(!AnomalyKind::FlushLogTable.duration_controllable());
    }
}
