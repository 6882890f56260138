//! Server and workload configuration.
//!
//! Defaults mirror the paper's testbed (§8.1): a Microsoft Azure A3-tier
//! instance — 4 cores at 2.1 GHz, 7 GB RAM — running MySQL 5.6 against a
//! TPC-C database of scale factor 500 with 128 terminals.

use serde::{Deserialize, Serialize};

/// Which benchmark-style transaction mix the clients submit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Benchmark {
    /// TPC-C-like: write-heavy order-entry mix (5 transaction classes).
    TpccLike,
    /// TPC-E-like: much more read-intensive brokerage mix (paper App. A,
    /// citing Chen et al.'s TPC-E vs TPC-C I/O study).
    TpceLike,
}

/// Static description of the simulated database server.
///
/// These are the *invariants* of the system (paper §2.4): they shape how
/// anomalies manifest but are never themselves reported as causes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Number of CPU cores.
    pub cpu_cores: u32,
    /// Abstract work units one core completes per second. Transaction CPU
    /// demands are denominated in the same units.
    pub core_capacity: f64,
    /// Disk random-I/O capacity, operations per second.
    pub disk_iops: f64,
    /// Disk sequential bandwidth, MB/s.
    pub disk_bandwidth_mb: f64,
    /// Network bandwidth, MB/s (both directions).
    pub network_bandwidth_mb: f64,
    /// Baseline network round-trip time between clients and server, ms.
    pub network_rtt_ms: f64,
    /// Physical memory, MB.
    pub ram_mb: f64,
    /// InnoDB-style buffer pool size, MB.
    pub buffer_pool_mb: f64,
    /// Page size, KB.
    pub page_size_kb: f64,
    /// Redo-log capacity, MB. Filling it forces a rotation.
    pub redo_log_mb: f64,
    /// When false, log rotation triggers a synchronous flush storm
    /// (the paper's footnote 8: hiccups with adaptive flushing disabled).
    pub adaptive_flushing: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            cpu_cores: 4,
            core_capacity: 1000.0,
            disk_iops: 2400.0,
            disk_bandwidth_mb: 120.0,
            network_bandwidth_mb: 100.0,
            network_rtt_ms: 0.5,
            ram_mb: 7168.0,
            buffer_pool_mb: 4096.0,
            page_size_kb: 16.0,
            redo_log_mb: 512.0,
            adaptive_flushing: false,
        }
    }
}

/// Client-side workload description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Transaction mix.
    pub benchmark: Benchmark,
    /// Scale factor (TPC-C warehouses / TPC-E customers ÷ 1000-ish).
    /// Controls the data size relative to the buffer pool.
    pub scale_factor: u32,
    /// Number of simulated client terminals.
    pub terminals: u32,
    /// Mean client think time between transactions, ms.
    pub think_time_ms: f64,
    /// Fraction of row accesses concentrated on the hottest item
    /// (drives lock contention; the Lock Contention anomaly raises it).
    pub access_skew: f64,
}

impl WorkloadConfig {
    /// The paper's default TPC-C setting: scale factor 500 (≈50 GB),
    /// 128 terminals.
    pub fn tpcc_default() -> Self {
        WorkloadConfig {
            benchmark: Benchmark::TpccLike,
            scale_factor: 500,
            terminals: 128,
            think_time_ms: 150.0,
            access_skew: 0.02,
        }
    }

    /// The paper's TPC-E setting (App. A): 3000 customers, ≈50 GB.
    pub fn tpce_default() -> Self {
        WorkloadConfig {
            benchmark: Benchmark::TpceLike,
            scale_factor: 3000,
            terminals: 128,
            think_time_ms: 150.0,
            access_skew: 0.01,
        }
    }

    /// Approximate on-disk data size in MB implied by the scale factor.
    pub(crate) fn data_size_mb(&self) -> f64 {
        match self.benchmark {
            // TPC-C: ~100 MB per warehouse (SF 500 ≈ 50 GB, §8.1).
            Benchmark::TpccLike => self.scale_factor as f64 * 100.0,
            // TPC-E: ~16.7 MB per customer-thousandth (3000 ≈ 50 GB).
            Benchmark::TpceLike => self.scale_factor as f64 * 50_000.0 / 3000.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_papers_testbed() {
        let s = ServerConfig::default();
        assert_eq!(s.cpu_cores, 4);
        assert_eq!(s.ram_mb, 7168.0);
        let w = WorkloadConfig::tpcc_default();
        assert_eq!(w.scale_factor, 500);
        assert_eq!(w.terminals, 128);
    }

    #[test]
    fn data_sizes_are_about_fifty_gb() {
        let tpcc = WorkloadConfig::tpcc_default().data_size_mb();
        let tpce = WorkloadConfig::tpce_default().data_size_mb();
        assert!((tpcc - 50_000.0).abs() < 1.0);
        assert!((tpce - 50_000.0).abs() < 1.0);
    }

    #[test]
    fn config_serializes() {
        let s = ServerConfig::default();
        let json = serde_json::to_string(&s).unwrap();
        let back: ServerConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
