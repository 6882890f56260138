//! The per-second server model.
//!
//! Clients form a closed interactive queueing network: each of `N`
//! terminals thinks for `Z` ms, submits a transaction, and waits for the
//! response (`R` ms), so offered throughput is `N / (Z + R)`. The server
//! admits up to the binding capacity (CPU, disk, network, or lock
//! serialization); past that point Little's law drives response time up as
//! `R = N/X - Z`. Every emitted metric is derived from this latent state,
//! then perturbed with measurement noise.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::anomaly::Perturbation;
use crate::bufferpool::BufferPool;
use crate::config::{ServerConfig, WorkloadConfig};
use crate::locks::{LockModel, LockTick};
use crate::metrics::{CategoricalMetrics, NumericMetrics};
use crate::noise::NoiseModel;
use crate::redo::RedoLog;
use crate::resources::{offered_utilization, wait_factor};
use crate::txn::Mix;

/// Latency floor representing parsing/optimizing/committing overheads, ms.
const BASE_OVERHEAD_MS: f64 = 0.8;
/// Pages dirtied per row written (rows coalesce onto shared pages).
const PAGES_PER_ROW: f64 = 0.10;
/// Fraction of a spilled (over-capacity) request mix that becomes visible
/// queueing in `dbms_queries_queued`.
const QUEUE_VISIBILITY: f64 = 0.5;

/// The simulated server, advanced one second at a time.
#[derive(Debug)]
pub struct Engine {
    server: ServerConfig,
    workload: WorkloadConfig,
    base_mix: Mix,
    pool: BufferPool,
    redo: RedoLog,
    locks: LockModel,
    noise: NoiseModel,
    rng: StdRng,
    /// Previous tick's response time, seeding the closed-loop iteration.
    prev_latency_ms: f64,
    /// Previous tick's throughput.
    prev_tps: f64,
    /// Previous tick's page-flush rate (feeds back into disk pressure:
    /// flushing is asynchronous, so it competes with foreground reads as
    /// background load rather than per-transaction demand).
    prev_flushed: f64,
    tick: usize,
}

/// Full output of one tick.
#[derive(Debug, Clone)]
pub struct TickOutput {
    /// Numeric metrics (noisy, as a monitoring agent would report).
    pub numeric: NumericMetrics,
    /// Categorical state attributes.
    pub categorical: CategoricalMetrics,
}

impl Engine {
    /// Create an engine.
    pub fn new(
        server: ServerConfig,
        workload: WorkloadConfig,
        noise: NoiseModel,
        seed: u64,
    ) -> Self {
        let base_mix = Mix::for_benchmark(workload.benchmark);
        let pool =
            BufferPool::new(server.buffer_pool_mb, server.page_size_kb, workload.data_size_mb());
        let redo = RedoLog::new(server.redo_log_mb, server.adaptive_flushing);
        Engine {
            server,
            workload,
            base_mix,
            pool,
            redo,
            locks: LockModel::default(),
            noise,
            rng: StdRng::seed_from_u64(seed),
            prev_latency_ms: 5.0,
            prev_tps: 100.0,
            prev_flushed: 0.0,
            tick: 0,
        }
    }

    /// The buffer pool's total page count (used to size flush storms).
    pub(crate) fn pool_pages(&self) -> f64 {
        self.pool.total_pages
    }

    /// The base transaction mix.
    pub(crate) fn base_mix(&self) -> &Mix {
        &self.base_mix
    }

    /// Advance one second under `perturbation` and emit metrics.
    pub fn step(&mut self, p: &Perturbation) -> TickOutput {
        let mix = p.mix_override.as_ref().unwrap_or(&self.base_mix);
        let skew = p.skew_override.unwrap_or(self.workload.access_skew);
        let terminals = self.workload.terminals as f64 + p.extra_terminals;
        let think_ms = self.workload.think_time_ms / p.rate_multiplier.max(0.05);
        let rtt_ms = self.server.network_rtt_ms + p.added_rtt_ms;

        // Per-transaction demands.
        let cpu_per_txn = {
            let base = mix.average(|c| c.cpu_work);
            // Index maintenance overheads load the write path's CPU share.
            let write_share = 0.3;
            base * (1.0 + write_share * (p.index_overhead - 1.0))
        };
        let logical_reads_per_txn = mix.average(|c| c.logical_reads);
        let rows_written_per_txn = mix.average(|c| c.rows_written) * p.index_overhead;
        let log_kb_per_txn = mix.average(|c| c.log_kb) * p.index_overhead.sqrt();
        let net_kb_per_txn = mix.average(|c| c.net_kb);
        let lock_weight = mix.average(|c| c.lock_weight);
        let miss_rate = 1.0 - self.pool.hit_ratio();
        // Only read misses are synchronous per-transaction disk work;
        // page writes are deferred to background flushing (below).
        let phys_io_per_txn = logical_reads_per_txn * miss_rate;

        // Background (non-terminal) work: restore jobs, scan queries, dumps.
        // Bulk loads append in order, so many rows share each page.
        const RESTORE_PAGES_PER_ROW: f64 = 0.02;
        let restore_rows = p.bulk_insert_rows;
        let restore_pages_dirtied = restore_rows * RESTORE_PAGES_PER_ROW;
        let restore_log_kb = restore_rows * 0.15;
        let restore_cpu = restore_rows * 0.004;
        let restore_net_in_mb = restore_rows * 0.1 / 1024.0;
        let scan_phys_reads = p.scan_logical_reads * miss_rate;
        let dump_cpu = if p.dump_read_mb > 0.0 { 250.0 } else { 0.0 };

        // Capacity pools.
        // Fair scheduling: external processes cannot starve the DBMS
        // below a guaranteed share of each resource (Linux CFS / block
        // schedulers arbitrate competing processes), so saturation
        // anomalies inflate latency a lot but throttle throughput only
        // moderately — the regime the paper's Figure 1 shows.
        const FG_CPU_SHARE: f64 = 0.35;
        const FG_DISK_SHARE: f64 = 0.80;
        let cpu_capacity = self.server.cpu_cores as f64 * self.server.core_capacity;
        let background_cpu = p.external_cpu + p.scan_cpu + restore_cpu + dump_cpu;
        let cpu_for_txns = (cpu_capacity - background_cpu).max(cpu_capacity * FG_CPU_SHARE);

        let disk_iops_capacity = self.server.disk_iops;
        let background_iops = p.external_disk_iops
            + scan_phys_reads
            + restore_pages_dirtied
            + p.forced_flush_pages
            + self.prev_flushed;
        // Sequential streams consume IOPS headroom proportionally to
        // bandwidth share.
        let seq_mb = p.external_disk_mb + p.dump_read_mb;
        let seq_iops_equiv = seq_mb / self.server.disk_bandwidth_mb * disk_iops_capacity;
        let disk_for_txns = (disk_iops_capacity - background_iops - seq_iops_equiv)
            .max(disk_iops_capacity * FG_DISK_SHARE);

        let net_capacity_mb = p
            .net_bandwidth_cap_mb
            .unwrap_or(self.server.network_bandwidth_mb)
            .min(self.server.network_bandwidth_mb);
        let background_net_mb = p.external_net_mb + p.dump_read_mb + restore_net_in_mb;
        let net_for_txns = (net_capacity_mb - background_net_mb).max(net_capacity_mb * 0.02);

        // Hard throughput caps.
        let cap_cpu = cpu_for_txns / cpu_per_txn.max(1e-6);
        let cap_disk = disk_for_txns / phys_io_per_txn.max(1e-6);
        let cap_net = net_for_txns * 1024.0 / net_kb_per_txn.max(1e-6);
        // Lock serialization: with conflict probability q = skew * weight,
        // the hot partition admits at most one conflicting transaction per
        // hold time, i.e. throughput <= (1000 / hold_ms) / q.
        let conflict_prob = (skew * lock_weight).clamp(0.0, 1.0);
        let cap_lock = if conflict_prob > 1e-6 {
            (1000.0 / self.locks.mean_hold_ms) / conflict_prob
        } else {
            f64::INFINITY
        };
        let cap = cap_cpu.min(cap_disk).min(cap_net).min(cap_lock);

        // Closed-loop fixed point: start from the previous tick and iterate
        // throughput -> utilization -> inflated latency -> throughput.
        let rho_cpu_at = |tps: f64| {
            offered_utilization(tps * cpu_per_txn + background_cpu, cpu_capacity).min(4.0)
        };
        let rho_disk_at = |tps: f64| {
            offered_utilization(
                tps * phys_io_per_txn + background_iops + seq_iops_equiv,
                disk_iops_capacity,
            )
            .min(4.0)
        };
        // Each transaction is a conversation of several statements; every
        // few statements costs a client round trip. This is what makes a
        // 300 ms network delay devastating for OLTP (paper §1).
        let statements_per_txn = mix.average(|c| {
            c.statements.selects
                + c.statements.updates
                + c.statements.inserts
                + c.statements.deletes
        });
        let round_trips_per_txn = (statements_per_txn / 3.0).max(1.0);

        let mut tps = self.prev_tps.max(1.0);
        let mut latency_ms = self.prev_latency_ms;
        for _ in 0..6 {
            // Below-saturation congestion only; saturation itself is
            // expressed through the hard cap + Little's law, so clamp the
            // utilization fed to the wait factor to keep the fixed point
            // stable.
            let rho_cpu = rho_cpu_at(tps).min(0.97);
            let rho_disk = rho_disk_at(tps).min(0.97);
            let cpu_ms = cpu_per_txn / self.server.core_capacity
                * 1000.0
                * wait_factor(rho_cpu, self.server.cpu_cores as f64);
            // Only read misses sit on the transaction's critical path;
            // flushing happens in the background.
            let sync_io_ops = logical_reads_per_txn * miss_rate;
            let io_ms = sync_io_ops * (1000.0 / disk_iops_capacity) * wait_factor(rho_disk, 1.0);
            let log_ms = 0.6 * wait_factor(rho_disk, 1.0).min(20.0);
            let net_ms = rtt_ms * round_trips_per_txn
                + net_kb_per_txn / 1024.0 / net_for_txns.max(1e-3) * 1000.0;
            let service_ms = BASE_OVERHEAD_MS + cpu_ms + io_ms + log_ms + net_ms;
            let offered = terminals / ((think_ms + service_ms) / 1000.0);
            let (next_tps, next_latency) = if offered <= cap {
                (offered, service_ms)
            } else {
                // Little's law for the closed network at the capacity cap.
                (cap, (terminals / cap * 1000.0 - think_ms).max(service_ms))
            };
            // Damped update for a stable fixed point.
            tps = 0.5 * (tps + next_tps);
            latency_ms = 0.5 * (latency_ms + next_latency);
        }
        self.prev_tps = tps;
        self.prev_latency_ms = latency_ms;
        let rho_disk = rho_disk_at(tps);

        // Concurrency and lock accounting.
        let concurrency = (tps * latency_ms / 1000.0).min(terminals);
        let lock_tick: LockTick = self.locks.tick(concurrency, skew, lock_weight, tps);
        // When lock serialization is the binding cap, the whole queueing
        // delay is lock wait.
        let lock_bound = cap_lock <= cap_cpu.min(cap_disk).min(cap_net) && tps >= cap_lock * 0.98;
        let extra_lock_wait_ms =
            if lock_bound { (latency_ms - BASE_OVERHEAD_MS).max(0.0) * tps } else { 0.0 };
        let total_lock_wait_ms = lock_tick.total_wait_ms + extra_lock_wait_ms;

        // Buffer pool and redo log.
        let pages_dirtied = tps * rows_written_per_txn * PAGES_PER_ROW + restore_pages_dirtied;
        let pool_tick = self.pool.tick(
            tps * logical_reads_per_txn + p.scan_logical_reads,
            pages_dirtied,
            p.forced_flush_pages,
        );
        let redo_tick =
            self.redo.tick(tps * log_kb_per_txn + restore_log_kb, self.pool.dirty_pages);
        if redo_tick.forced_flush_pages > 0.0 {
            // Rotation checkpoint drains synchronously this same second.
            self.pool.tick(0.0, 0.0, redo_tick.forced_flush_pages);
        }
        self.prev_flushed = pool_tick.flushed_pages + redo_tick.forced_flush_pages;

        // Disk traffic decomposition.
        let disk_read_iops =
            pool_tick.physical_reads + scan_phys_reads + p.external_disk_iops / 2.0;
        let disk_write_iops = pool_tick.flushed_pages
            + redo_tick.forced_flush_pages
            + restore_pages_dirtied
            + p.external_disk_iops / 2.0;
        let disk_read_mb = disk_read_iops * self.server.page_size_kb / 1024.0
            + p.dump_read_mb
            + p.external_disk_mb / 2.0;
        let disk_write_mb = disk_write_iops * self.server.page_size_kb / 1024.0
            + redo_tick.written_kb / 1024.0
            + p.external_disk_mb / 2.0;
        let disk_util_frac = rho_disk.min(1.0);

        // Network traffic decomposition (server perspective).
        let txn_net_mb = tps * net_kb_per_txn / 1024.0;
        let net_send_kb = (txn_net_mb * 0.6 + p.dump_read_mb + p.external_net_mb / 2.0) * 1024.0;
        let net_recv_kb = (txn_net_mb * 0.4 + restore_net_in_mb + p.external_net_mb / 2.0) * 1024.0;

        // CPU decomposition.
        let db_cpu_frac = (tps * cpu_per_txn + p.scan_cpu + restore_cpu) / cpu_capacity;
        let total_cpu_frac = (db_cpu_frac + (p.external_cpu + dump_cpu) / cpu_capacity).min(1.0);
        let iowait_frac =
            ((rho_disk - total_cpu_frac).clamp(0.0, 1.0) * 0.35 * (1.0 - total_cpu_frac))
                .clamp(0.0, 1.0 - total_cpu_frac);
        let idle_frac = (1.0 - total_cpu_frac - iowait_frac).max(0.0);

        // External process pressure (stress-ng spawns many workers).
        let external_procs = (p.external_cpu / 400.0)
            + (p.external_disk_iops / 400.0)
            + if p.dump_read_mb > 0.0 { 1.0 } else { 0.0 }
            + if p.bulk_insert_rows > 0.0 { 1.0 } else { 0.0 };

        let queued =
            ((terminals / (think_ms + latency_ms) * 1000.0) - tps).max(0.0) * QUEUE_VISIBILITY;

        let m = &mut NumericMetrics::default();
        let n = &self.noise;
        let rng = &mut self.rng;

        // Latency aggregates are heavy-tailed in real systems: convoy
        // effects, checkpoint stalls, and fsync bursts inflate a second's
        // average latency several-fold regardless of any anomaly. These
        // stalls are what make naive pair-labeling ("are these two seconds
        // significantly different?") noisy — the regime where DBSherlock's
        // region-based predicates beat PerfXplain (paper §8.4).
        let stall = if rng.random::<f64>() < 0.20 { 1.3 + 3.0 * rng.random::<f64>() } else { 1.0 };

        // --- OS: CPU ---
        m.os_cpu_usage = n.apply_capped(rng, total_cpu_frac * 100.0, 100.0);
        // Per-core usage: the scheduler spreads load, with jitter.
        for core in [
            &mut m.os_cpu_usage_core0,
            &mut m.os_cpu_usage_core1,
            &mut m.os_cpu_usage_core2,
            &mut m.os_cpu_usage_core3,
        ] {
            *core = n.apply_capped(rng, total_cpu_frac * 100.0, 100.0);
        }
        m.os_cpu_user = n.apply_capped(rng, total_cpu_frac * 78.0, 100.0);
        m.os_cpu_sys = n.apply_capped(rng, total_cpu_frac * 22.0, 100.0);
        m.os_cpu_iowait = n.apply_capped(rng, iowait_frac * 100.0, 100.0);
        m.os_cpu_idle = n.apply_capped(rng, idle_frac * 100.0, 100.0);
        m.os_load_avg = n.apply(rng, total_cpu_frac * 4.0 + rho_disk * 1.5 + external_procs * 0.5);
        // --- OS: disk ---
        m.os_disk_read_iops = n.apply(rng, disk_read_iops);
        m.os_disk_write_iops = n.apply(rng, disk_write_iops);
        m.os_disk_read_mb = n.apply(rng, disk_read_mb);
        m.os_disk_write_mb = n.apply(rng, disk_write_mb);
        m.os_disk_queue_depth = n.apply(rng, rho_disk * rho_disk * 8.0);
        m.os_disk_util = n.apply_capped(rng, disk_util_frac * 100.0, 100.0);
        // --- OS: network ---
        m.os_net_send_kb = n.apply(rng, net_send_kb);
        m.os_net_recv_kb = n.apply(rng, net_recv_kb);
        m.os_net_send_packets = n.apply(rng, net_send_kb / 1.4 + tps * 2.0);
        m.os_net_recv_packets = n.apply(rng, net_recv_kb / 1.4 + tps * 2.0);
        m.os_net_rtt_ms = n.apply(rng, rtt_ms);
        m.os_net_retrans = n.apply(rng, p.added_rtt_ms * 0.05);
        // --- OS: memory ---
        m.os_page_faults_minor = n.apply(rng, tps * 40.0 + external_procs * 200.0);
        m.os_page_faults_major = n.apply(rng, pool_tick.physical_reads * 0.02);
        let pool_pages = self.pool.total_pages;
        m.os_pages_allocated =
            n.apply(rng, pool_pages + external_procs * 2000.0 + concurrency * 40.0);
        let total_os_pages = self.server.ram_mb * 1024.0 / 4.0;
        m.os_pages_free = n.apply(rng, (total_os_pages - m.os_pages_allocated).max(0.0));
        m.os_swap_used_mb = n.apply(rng, (external_procs * 8.0 - 5.0).max(0.0));
        m.os_swap_free_mb = n.apply(rng, 2048.0 - m.os_swap_used_mb);
        m.os_mem_cached_mb = n.apply(rng, 1200.0 + p.dump_read_mb * 3.0);
        // --- OS: scheduler ---
        m.os_context_switches =
            n.apply(rng, tps * 18.0 + disk_read_iops + disk_write_iops + external_procs * 900.0);
        m.os_interrupts = n.apply(rng, (net_send_kb + net_recv_kb) / 2.0 + disk_read_iops);
        m.os_procs_running = n.apply(rng, concurrency * 0.4 + external_procs + 2.0);
        m.os_procs_blocked = n.apply(rng, iowait_frac * 12.0 + lock_tick.current_waits * 0.2);
        // --- DBMS ---
        m.dbms_cpu_usage = n.apply_capped(rng, db_cpu_frac * 100.0, 100.0);
        m.dbms_threads_running = n.apply(rng, concurrency);
        m.dbms_threads_connected = n.apply(rng, terminals);
        m.dbms_queries_queued = n.apply(rng, queued);
        m.dbms_logical_reads = n.apply(rng, pool_tick.read_requests);
        m.dbms_physical_reads = n.apply(rng, pool_tick.physical_reads + scan_phys_reads);
        m.dbms_physical_writes =
            n.apply(rng, pool_tick.flushed_pages + redo_tick.forced_flush_pages);
        m.dbms_row_read_requests =
            n.apply(rng, tps * mix.average(|c| c.row_reads) + p.scan_row_reads);
        m.dbms_rows_inserted =
            n.apply(rng, tps * mix.average(|c| c.statements.inserts) + restore_rows);
        m.dbms_rows_updated = n.apply(rng, tps * mix.average(|c| c.statements.updates) * 1.4);
        m.dbms_rows_deleted = n.apply(rng, tps * mix.average(|c| c.statements.deletes));
        m.dbms_num_selects =
            n.apply(rng, tps * mix.average(|c| c.statements.selects) + p.full_scans);
        m.dbms_num_updates = n.apply(rng, tps * mix.average(|c| c.statements.updates));
        m.dbms_num_inserts =
            n.apply(rng, tps * mix.average(|c| c.statements.inserts) + restore_rows / 100.0);
        m.dbms_num_deletes = n.apply(rng, tps * mix.average(|c| c.statements.deletes));
        m.dbms_num_commits = n.apply(rng, tps + restore_rows / 1000.0);
        m.dbms_full_table_scans = n.apply(rng, p.full_scans + tps * 0.002);
        m.dbms_index_lookups = n.apply(rng, tps * statements_per_txn * 1.5 * p.index_overhead);
        m.dbms_tmp_tables = n.apply(rng, tps * 0.02 + p.full_scans * 1.5);
        m.dbms_dirty_pages = n.apply(rng, pool_tick.dirty_pages);
        m.dbms_flushed_pages = n.apply(rng, pool_tick.flushed_pages + redo_tick.forced_flush_pages);
        m.dbms_buffer_hit_ratio = n.apply_capped(rng, pool_tick.hit_ratio * 100.0, 100.0);
        m.dbms_buffer_pages_free = n.apply(rng, pool_tick.free_pages);
        m.dbms_lock_wait_ms = n.apply(rng, total_lock_wait_ms);
        m.dbms_lock_waits =
            n.apply(rng, lock_tick.lock_waits + if lock_bound { tps * 0.8 } else { 0.0 });
        m.dbms_row_lock_current_waits = n
            .apply(rng, lock_tick.current_waits + if lock_bound { concurrency * 0.7 } else { 0.0 });
        m.dbms_deadlocks = n.apply(rng, lock_tick.deadlocks);
        m.dbms_redo_written_kb = n.apply(rng, redo_tick.written_kb);
        m.dbms_redo_used_pct = n.apply_capped(rng, redo_tick.used_fraction * 100.0, 100.0);
        m.dbms_log_rotations = redo_tick.rotations + if p.table_flushes > 0.0 { 1.0 } else { 0.0 };
        m.dbms_table_flushes = n.apply(rng, p.table_flushes);
        // --- Transaction aggregates ---
        m.txn_throughput = n.apply(rng, tps);
        m.txn_avg_latency_ms = n.apply(rng, latency_ms * stall);
        m.txn_p99_latency_ms =
            n.apply(rng, (latency_ms * 3.2 + total_lock_wait_ms / tps.max(1.0)) * stall);
        m.client_wait_ms = n.apply(rng, (rtt_ms * 2.0 + latency_ms) * stall);
        m.active_clients = n.apply(rng, terminals);
        let class_rates = [
            &mut m.txn_rate_class0,
            &mut m.txn_rate_class1,
            &mut m.txn_rate_class2,
            &mut m.txn_rate_class3,
            &mut m.txn_rate_class4,
        ];
        for (i, slot) in class_rates.into_iter().enumerate() {
            let base_class = &self.base_mix.classes[i];
            let weight = mix
                .classes
                .iter()
                .zip(&mix.weights)
                .find(|(c, _)| c.name == base_class.name)
                .map(|(_, w)| *w)
                .unwrap_or(0.0);
            *slot = n.apply(rng, tps * weight);
        }
        m.query_avg_cost = n.apply(
            rng,
            logical_reads_per_txn * 2.0
                + if tps > 0.0 { p.scan_logical_reads / tps * 2.0 } else { 0.0 },
        );

        let categorical = CategoricalMetrics {
            log_rotation_state: if m.dbms_log_rotations > 0.0 { "rotating" } else { "steady" },
            checkpoint_state: if p.forced_flush_pages > 0.0
                || redo_tick.forced_flush_pages > 0.0
                || pool_tick.dirty_pages / pool_pages > 0.75
            {
                "active"
            } else {
                "idle"
            },
            ..CategoricalMetrics::default()
        };

        self.tick += 1;
        TickOutput { numeric: std::mem::take(m), categorical }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anomaly::{AnomalyKind, Injection};

    fn quiet_engine() -> Engine {
        Engine::new(
            ServerConfig::default(),
            WorkloadConfig { think_time_ms: 150.0, ..WorkloadConfig::tpcc_default() },
            NoiseModel::none(),
            42,
        )
    }

    fn warmed(engine: &mut Engine, ticks: usize) -> NumericMetrics {
        let p = Perturbation::default();
        let mut last = engine.step(&p);
        for _ in 1..ticks {
            last = engine.step(&p);
        }
        last.numeric
    }

    #[test]
    fn normal_operation_is_healthy() {
        let mut e = quiet_engine();
        let m = warmed(&mut e, 30);
        assert!(m.txn_throughput > 300.0, "tps {}", m.txn_throughput);
        assert!(m.txn_avg_latency_ms < 50.0, "latency {}", m.txn_avg_latency_ms);
        assert!(m.os_cpu_usage < 80.0, "cpu {}", m.os_cpu_usage);
        assert!(m.os_disk_util < 95.0, "disk {}", m.os_disk_util);
        assert!(m.dbms_lock_wait_ms < 100.0, "locks {}", m.dbms_lock_wait_ms);
    }

    #[test]
    fn throughput_stabilizes() {
        let mut e = quiet_engine();
        let p = Perturbation::default();
        for _ in 0..20 {
            e.step(&p);
        }
        let a = e.step(&p).numeric.txn_throughput;
        let b = e.step(&p).numeric.txn_throughput;
        assert!((a - b).abs() / a < 0.02, "tps should be steady: {a} vs {b}");
    }

    fn perturbed_metrics(kind: AnomalyKind) -> (NumericMetrics, NumericMetrics) {
        let mut e = quiet_engine();
        let normal = warmed(&mut e, 30);
        let inj = Injection::new(kind, 0, 1000);
        let mix = e.base_mix().clone();
        let pages = e.pool_pages();
        let mut out = NumericMetrics::default();
        for t in 0..30 {
            let mut p = Perturbation::default();
            p.apply(&inj, t, &mix, pages);
            out = e.step(&p).numeric;
        }
        (normal, out)
    }

    #[test]
    fn cpu_saturation_starves_the_dbms() {
        let (normal, anom) = perturbed_metrics(AnomalyKind::CpuSaturation);
        assert!(anom.os_cpu_usage > 90.0, "cpu {}", anom.os_cpu_usage);
        // Fair scheduling guarantees the DBMS a CPU share, so throughput
        // dips only mildly while queueing inflates latency (paper Fig. 1).
        assert!(anom.txn_throughput < normal.txn_throughput);
        assert!(
            anom.txn_avg_latency_ms > normal.txn_avg_latency_ms * 1.5,
            "latency {} vs {}",
            anom.txn_avg_latency_ms,
            normal.txn_avg_latency_ms
        );
    }

    #[test]
    fn io_saturation_shows_iowait_and_disk_util() {
        let (normal, anom) = perturbed_metrics(AnomalyKind::IoSaturation);
        assert!(anom.os_disk_util > 95.0);
        assert!(anom.os_cpu_iowait > normal.os_cpu_iowait);
        assert!(anom.txn_avg_latency_ms > normal.txn_avg_latency_ms * 1.5);
    }

    #[test]
    fn network_congestion_quiets_the_box() {
        let (normal, anom) = perturbed_metrics(AnomalyKind::NetworkCongestion);
        // The paper's §1 example: fewer packets, low CPU, waiting clients.
        assert!(anom.os_net_send_kb < normal.os_net_send_kb * 0.5);
        assert!(anom.os_cpu_usage < normal.os_cpu_usage);
        assert!(anom.client_wait_ms > 300.0);
        assert!(anom.txn_throughput < normal.txn_throughput * 0.3);
    }

    #[test]
    fn lock_contention_serializes() {
        let (normal, anom) = perturbed_metrics(AnomalyKind::LockContention);
        assert!(anom.dbms_lock_wait_ms > normal.dbms_lock_wait_ms * 10.0);
        assert!(anom.txn_throughput < normal.txn_throughput * 0.6);
        assert!(anom.dbms_threads_running > normal.dbms_threads_running * 2.0);
    }

    #[test]
    fn workload_spike_raises_threads_and_locks() {
        let (normal, anom) = perturbed_metrics(AnomalyKind::WorkloadSpike);
        assert!(anom.dbms_threads_running > normal.dbms_threads_running * 3.0);
        assert!(anom.dbms_lock_wait_ms > normal.dbms_lock_wait_ms);
        assert!(anom.txn_throughput > normal.txn_throughput);
    }

    #[test]
    fn poorly_written_query_scans_rows() {
        let (normal, anom) = perturbed_metrics(AnomalyKind::PoorlyWrittenQuery);
        assert!(anom.dbms_row_read_requests > normal.dbms_row_read_requests * 5.0);
        assert!(anom.dbms_cpu_usage > normal.dbms_cpu_usage * 1.5);
    }

    #[test]
    fn backup_reads_and_ships_bytes() {
        let (normal, anom) = perturbed_metrics(AnomalyKind::DatabaseBackup);
        assert!(anom.os_disk_read_mb > normal.os_disk_read_mb * 3.0);
        assert!(anom.os_net_send_kb > normal.os_net_send_kb * 3.0);
    }

    #[test]
    fn restore_writes_heavily() {
        let (normal, anom) = perturbed_metrics(AnomalyKind::TableRestore);
        assert!(anom.dbms_rows_inserted > normal.dbms_rows_inserted * 5.0);
        assert!(anom.os_disk_write_iops > normal.os_disk_write_iops * 1.5);
    }

    #[test]
    fn flush_forces_writes_and_rotation_state() {
        let mut e = quiet_engine();
        warmed(&mut e, 30);
        let inj = Injection::new(AnomalyKind::FlushLogTable, 0, 1000);
        let mix = e.base_mix().clone();
        let pages = e.pool_pages();
        let mut p = Perturbation::default();
        p.apply(&inj, 0, &mix, pages);
        let out = e.step(&p);
        assert!(out.numeric.dbms_table_flushes > 10.0);
        assert_eq!(out.categorical.log_rotation_state, "rotating");
        assert_eq!(out.categorical.checkpoint_state, "active");
    }

    #[test]
    fn tpce_runs_healthy_too() {
        let mut e = Engine::new(
            ServerConfig::default(),
            WorkloadConfig { think_time_ms: 150.0, ..WorkloadConfig::tpce_default() },
            NoiseModel::none(),
            7,
        );
        let m = warmed(&mut e, 30);
        assert!(m.txn_throughput > 300.0);
        assert!(m.txn_avg_latency_ms < 50.0);
    }

    #[test]
    fn latency_metric_has_heavy_tail_stalls() {
        // With the default noise model, a healthy steady state still shows
        // occasional several-fold latency spikes (convoy/checkpoint
        // stalls) — the volatility that makes pair labeling noisy (§8.4).
        let mut e = Engine::new(
            ServerConfig::default(),
            WorkloadConfig::tpcc_default(),
            NoiseModel::default(),
            23,
        );
        let p = Perturbation::default();
        for _ in 0..30 {
            e.step(&p);
        }
        let samples: Vec<f64> = (0..300).map(|_| e.step(&p).numeric.txn_avg_latency_ms).collect();
        let median = {
            let mut v = samples.clone();
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let stalls = samples.iter().filter(|&&s| s > 2.0 * median).count();
        // ~20% stall probability with factors up to 4.3x: expect a solid
        // minority of stalled seconds, but never the majority.
        assert!(stalls > 15, "only {stalls}/300 stalled seconds");
        assert!(stalls < 150, "{stalls}/300 stalled seconds is too many");
    }

    #[test]
    fn flush_writes_feed_back_into_disk_pressure() {
        // A write-heavy perturbation must raise measured disk writes
        // without collapsing throughput (asynchronous flushing).
        let mut e = quiet_engine();
        let normal = warmed(&mut e, 30);
        let p = Perturbation { index_overhead: 3.0, ..Default::default() };
        let mut out = NumericMetrics::default();
        for _ in 0..30 {
            out = e.step(&p).numeric;
        }
        assert!(out.os_disk_write_iops > normal.os_disk_write_iops * 1.8);
        assert!(out.txn_throughput > normal.txn_throughput * 0.5);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut e = Engine::new(
                ServerConfig::default(),
                WorkloadConfig::tpcc_default(),
                NoiseModel::default(),
                seed,
            );
            warmed(&mut e, 10).values()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
