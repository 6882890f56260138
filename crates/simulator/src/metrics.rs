//! The emitted telemetry schema.
//!
//! One row is produced per simulated second, mirroring what DBSeer collects
//! from Linux `/proc` and MySQL's global status variables (paper §2.1):
//! OS resource-consumption statistics, DBMS workload statistics, and
//! transaction aggregates, plus a few categorical state/configuration
//! attributes. Field order here *is* the schema order.

use dbsherlock_telemetry::{AttributeMeta, Schema};

macro_rules! numeric_metrics {
    ($($(#[$doc:meta])* $field:ident => $name:literal),* $(,)?) => {
        /// All numeric metrics for one tick, in schema order.
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct NumericMetrics {
            $($(#[$doc])* pub $field: f64,)*
        }

        impl NumericMetrics {
            /// Attribute names, in schema order.
            pub const NAMES: &'static [&'static str] = &[$($name),*];

            /// Values in schema order (parallel to [`Self::NAMES`]).
            pub(crate) fn values(&self) -> Vec<f64> {
                vec![$(self.$field),*]
            }
        }
    };
}

numeric_metrics! {
    // ---- OS: CPU ----
    /// Average CPU busy % across cores.
    os_cpu_usage => "os_cpu_usage",
    /// Core 0 busy %.
    os_cpu_usage_core0 => "os_cpu_usage_core0",
    /// Core 1 busy %.
    os_cpu_usage_core1 => "os_cpu_usage_core1",
    /// Core 2 busy %.
    os_cpu_usage_core2 => "os_cpu_usage_core2",
    /// Core 3 busy %.
    os_cpu_usage_core3 => "os_cpu_usage_core3",
    /// User-mode CPU %.
    os_cpu_user => "os_cpu_user",
    /// Kernel-mode CPU %.
    os_cpu_sys => "os_cpu_sys",
    /// Idle CPU % (complement of usage; the §5 domain rule
    /// `OS CPU Usage -> OS CPU Idle` prunes this as a secondary symptom).
    os_cpu_idle => "os_cpu_idle",
    /// CPU time waiting on I/O, %.
    os_cpu_iowait => "os_cpu_iowait",
    /// 1-minute load average.
    os_load_avg => "os_load_avg",
    // ---- OS: disk ----
    /// Random read operations per second.
    os_disk_read_iops => "os_disk_read_iops",
    /// Random write operations per second.
    os_disk_write_iops => "os_disk_write_iops",
    /// Sequential read MB/s.
    os_disk_read_mb => "os_disk_read_mb",
    /// Sequential write MB/s.
    os_disk_write_mb => "os_disk_write_mb",
    /// Device queue depth.
    os_disk_queue_depth => "os_disk_queue_depth",
    /// Device utilization %.
    os_disk_util => "os_disk_util",
    // ---- OS: network ----
    /// Outbound KB/s.
    os_net_send_kb => "os_net_send_kb",
    /// Inbound KB/s.
    os_net_recv_kb => "os_net_recv_kb",
    /// Outbound packets/s.
    os_net_send_packets => "os_net_send_packets",
    /// Inbound packets/s.
    os_net_recv_packets => "os_net_recv_packets",
    /// Measured client round-trip time, ms.
    os_net_rtt_ms => "os_net_rtt_ms",
    /// TCP retransmits/s.
    os_net_retrans => "os_net_retrans",
    // ---- OS: memory ----
    /// Minor page faults/s.
    os_page_faults_minor => "os_page_faults_minor",
    /// Major page faults/s.
    os_page_faults_major => "os_page_faults_major",
    /// Pages allocated (in use).
    os_pages_allocated => "os_pages_allocated",
    /// Pages free (complement; pruned by domain rule 2).
    os_pages_free => "os_pages_free",
    /// Swap used, MB.
    os_swap_used_mb => "os_swap_used_mb",
    /// Swap free, MB (complement; pruned by domain rule 3).
    os_swap_free_mb => "os_swap_free_mb",
    /// Cached file pages, MB.
    os_mem_cached_mb => "os_mem_cached_mb",
    // ---- OS: scheduler ----
    /// Context switches/s.
    os_context_switches => "os_context_switches",
    /// Hardware interrupts/s.
    os_interrupts => "os_interrupts",
    /// Runnable processes.
    os_procs_running => "os_procs_running",
    /// Processes blocked on I/O.
    os_procs_blocked => "os_procs_blocked",
    // ---- DBMS: CPU & threads ----
    /// CPU % consumed by the DBMS process (domain rule 1 marks
    /// `dbms_cpu_usage -> os_cpu_usage`).
    dbms_cpu_usage => "dbms_cpu_usage",
    /// Threads actively executing.
    dbms_threads_running => "dbms_threads_running",
    /// Client connections.
    dbms_threads_connected => "dbms_threads_connected",
    /// Queries waiting for a thread.
    dbms_queries_queued => "dbms_queries_queued",
    // ---- DBMS: logical work ----
    /// Buffer-pool read requests/s (logical reads).
    dbms_logical_reads => "dbms_logical_reads",
    /// Physical page reads/s.
    dbms_physical_reads => "dbms_physical_reads",
    /// Physical page writes/s.
    dbms_physical_writes => "dbms_physical_writes",
    /// Row read requests/s (the paper's "next-row-read-requests", §1).
    dbms_row_read_requests => "dbms_row_read_requests",
    /// Rows inserted/s.
    dbms_rows_inserted => "dbms_rows_inserted",
    /// Rows updated/s.
    dbms_rows_updated => "dbms_rows_updated",
    /// Rows deleted/s.
    dbms_rows_deleted => "dbms_rows_deleted",
    // ---- DBMS: statements ----
    /// SELECT statements/s.
    dbms_num_selects => "dbms_num_selects",
    /// UPDATE statements/s.
    dbms_num_updates => "dbms_num_updates",
    /// INSERT statements/s.
    dbms_num_inserts => "dbms_num_inserts",
    /// DELETE statements/s.
    dbms_num_deletes => "dbms_num_deletes",
    /// Commits/s.
    dbms_num_commits => "dbms_num_commits",
    /// Full table scans/s.
    dbms_full_table_scans => "dbms_full_table_scans",
    /// Index lookups/s.
    dbms_index_lookups => "dbms_index_lookups",
    /// Temp tables created/s.
    dbms_tmp_tables => "dbms_tmp_tables",
    // ---- DBMS: buffer pool ----
    /// Dirty pages in the pool.
    dbms_dirty_pages => "dbms_dirty_pages",
    /// Pages flushed/s.
    dbms_flushed_pages => "dbms_flushed_pages",
    /// Buffer-pool hit ratio %.
    dbms_buffer_hit_ratio => "dbms_buffer_hit_ratio",
    /// Free pages in the pool.
    dbms_buffer_pages_free => "dbms_buffer_pages_free",
    // ---- DBMS: locking ----
    /// Total lock wait time across all transactions, ms/s (aggregate only,
    /// as MySQL/Postgres record it — paper §1).
    dbms_lock_wait_ms => "dbms_lock_wait_ms",
    /// Lock waits/s.
    dbms_lock_waits => "dbms_lock_waits",
    /// Transactions currently waiting on row locks.
    dbms_row_lock_current_waits => "dbms_row_lock_current_waits",
    /// Deadlocks/s.
    dbms_deadlocks => "dbms_deadlocks",
    // ---- DBMS: logging ----
    /// Redo bytes written, KB/s.
    dbms_redo_written_kb => "dbms_redo_written_kb",
    /// Redo log space used, %.
    dbms_redo_used_pct => "dbms_redo_used_pct",
    /// Log rotations this second.
    dbms_log_rotations => "dbms_log_rotations",
    /// Table flush operations this second.
    dbms_table_flushes => "dbms_table_flushes",
    // ---- Transaction aggregates (DBSeer-computed, §2.1) ----
    /// Committed transactions/s.
    txn_throughput => "txn_throughput",
    /// Mean transaction latency, ms.
    txn_avg_latency_ms => "txn_avg_latency_ms",
    /// 99th-percentile transaction latency, ms.
    txn_p99_latency_ms => "txn_p99_latency_ms",
    /// Mean time clients spend waiting per request (network + queueing), ms.
    client_wait_ms => "client_wait_ms",
    /// Client terminals currently active.
    active_clients => "active_clients",
    /// NewOrder-class transactions/s (first mix class).
    txn_rate_class0 => "txn_rate_class0",
    /// Payment-class transactions/s (second mix class).
    txn_rate_class1 => "txn_rate_class1",
    /// OrderStatus-class transactions/s (third mix class).
    txn_rate_class2 => "txn_rate_class2",
    /// Delivery-class transactions/s (fourth mix class).
    txn_rate_class3 => "txn_rate_class3",
    /// StockLevel-class transactions/s (fifth mix class).
    txn_rate_class4 => "txn_rate_class4",
    /// Average optimizer cost estimate of queries this second (aggregate
    /// plan statistic, §2.1 footnote 3).
    query_avg_cost => "query_avg_cost",
}

/// Categorical attribute names, in schema order (after all numeric ones).
pub const CATEGORICAL_NAMES: &[&str] = &[
    // Invariant configuration (paper §2.4: invariants are never causes).
    "config_flush_method",
    "config_io_scheduler",
    // Discrete DBMS states that do change.
    "log_rotation_state",
    "checkpoint_state",
];

/// Categorical values for one tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CategoricalMetrics {
    /// Fixed config value (always `"fdatasync"`).
    pub config_flush_method: &'static str,
    /// Fixed config value (always `"deadline"`).
    pub config_io_scheduler: &'static str,
    /// `"steady"` or `"rotating"`.
    pub log_rotation_state: &'static str,
    /// `"idle"` or `"active"`.
    pub checkpoint_state: &'static str,
}

impl Default for CategoricalMetrics {
    fn default() -> Self {
        CategoricalMetrics {
            config_flush_method: "fdatasync",
            config_io_scheduler: "deadline",
            log_rotation_state: "steady",
            checkpoint_state: "idle",
        }
    }
}

impl CategoricalMetrics {
    /// Labels in schema order (parallel to [`CATEGORICAL_NAMES`]).
    pub(crate) fn labels(&self) -> [&'static str; 4] {
        [
            self.config_flush_method,
            self.config_io_scheduler,
            self.log_rotation_state,
            self.checkpoint_state,
        ]
    }
}

/// Build the full telemetry schema: all numeric metrics, then all
/// categorical ones.
pub fn metrics_schema() -> Schema {
    let mut attrs: Vec<AttributeMeta> =
        NumericMetrics::NAMES.iter().map(|n| AttributeMeta::numeric(*n)).collect();
    attrs.extend(CATEGORICAL_NAMES.iter().map(|n| AttributeMeta::categorical(*n)));
    // The static name lists are duplicate-free (asserted by the tests
    // below), so construction cannot fail.
    #[allow(clippy::expect_used)]
    Schema::from_attrs(attrs).expect("metric names are unique") // sherlock-lint: allow(panic-path): static invariant
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_has_expected_shape() {
        let schema = metrics_schema();
        assert_eq!(schema.len(), NumericMetrics::NAMES.len() + CATEGORICAL_NAMES.len());
        assert!(
            schema.len() >= 75,
            "paper analyses hundreds of statistics; we model {}",
            schema.len()
        );
        assert_eq!(schema.id_of("os_cpu_usage"), Some(0));
        assert!(schema.id_of("config_flush_method").is_some());
    }

    #[test]
    fn values_parallel_names() {
        let m = NumericMetrics { os_cpu_usage: 42.0, ..Default::default() };
        let values = m.values();
        assert_eq!(values.len(), NumericMetrics::NAMES.len());
        assert_eq!(values[0], 42.0);
        // sherlock-lint: allow(nan-unsafe): Default zeros are exact
        assert!(values[1..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = NumericMetrics::NAMES.to_vec();
        names.extend(CATEGORICAL_NAMES);
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len());
    }

    #[test]
    fn categorical_defaults_are_steady_state() {
        let c = CategoricalMetrics::default();
        assert_eq!(c.labels(), ["fdatasync", "deadline", "steady", "idle"]);
    }
}
