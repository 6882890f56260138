//! Transaction classes, resource-demand vectors, and benchmark mixes.
//!
//! Each transaction class carries an abstract demand vector: CPU work,
//! logical page reads, row touches, rows written, log bytes, and network
//! payload. The engine turns per-second class rates into resource pressure.

use serde::Serialize;

use crate::config::Benchmark;

/// Statement-count profile of one transaction class (how many SELECT /
/// UPDATE / INSERT / DELETE statements it executes). Feeds the DBMS
/// per-statement counters that MySQL's global status would report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct StatementProfile {
    /// SELECT statements per transaction.
    pub selects: f64,
    /// UPDATE statements per transaction.
    pub updates: f64,
    /// INSERT statements per transaction.
    pub inserts: f64,
    /// DELETE statements per transaction.
    pub deletes: f64,
}

/// Abstract per-transaction resource demand.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TxnClass {
    /// Class name (for per-class throughput metrics).
    pub name: &'static str,
    /// CPU work units consumed (same denomination as
    /// [`ServerConfig::core_capacity`](crate::config::ServerConfig)).
    pub cpu_work: f64,
    /// Logical page reads (buffer-pool read requests).
    pub logical_reads: f64,
    /// Individual row read requests (MySQL's `Innodb_rows_read` /
    /// next-row-read style counter; huge for table scans).
    pub row_reads: f64,
    /// Rows written (insert + update + delete).
    pub rows_written: f64,
    /// Redo-log bytes generated, KB.
    pub log_kb: f64,
    /// Network bytes in + out, KB.
    pub net_kb: f64,
    /// Relative weight of this class's lock footprint (how much it
    /// contributes to hot-row contention).
    pub lock_weight: f64,
    /// Statement counts.
    pub statements: StatementProfile,
}

/// A benchmark mix: transaction classes plus their probability weights.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Mix {
    /// The classes.
    pub classes: Vec<TxnClass>,
    /// Probability of each class; sums to 1.
    pub weights: Vec<f64>,
}

impl Mix {
    /// The standard mix for a benchmark.
    pub(crate) fn for_benchmark(benchmark: Benchmark) -> Mix {
        match benchmark {
            Benchmark::TpccLike => tpcc_mix(),
            Benchmark::TpceLike => tpce_mix(),
        }
    }

    /// Weighted average of a per-class quantity.
    pub(crate) fn average(&self, f: impl Fn(&TxnClass) -> f64) -> f64 {
        self.classes.iter().zip(&self.weights).map(|(c, w)| f(c) * w).sum()
    }

    /// Replace the mix with a single-class mix (used by the Lock Contention
    /// anomaly, which switches to NewOrder-only on one warehouse, §8.2).
    pub(crate) fn single_class(&self, name: &str) -> Option<Mix> {
        let class = self.classes.iter().find(|c| c.name == name)?.clone();
        Some(Mix { classes: vec![class], weights: vec![1.0] })
    }
}

/// The TPC-C-like mix: standard weights (45/43/4/4/4).
fn tpcc_mix() -> Mix {
    let classes = vec![
        TxnClass {
            name: "new_order",
            cpu_work: 1.4,
            logical_reads: 46.0,
            row_reads: 60.0,
            rows_written: 12.0,
            log_kb: 4.0,
            net_kb: 2.4,
            lock_weight: 1.0,
            statements: StatementProfile {
                selects: 13.0,
                updates: 11.0,
                inserts: 12.0,
                deletes: 0.0,
            },
        },
        TxnClass {
            name: "payment",
            cpu_work: 0.7,
            logical_reads: 18.0,
            row_reads: 20.0,
            rows_written: 4.0,
            log_kb: 1.5,
            net_kb: 1.0,
            lock_weight: 0.7,
            statements: StatementProfile { selects: 4.0, updates: 3.0, inserts: 1.0, deletes: 0.0 },
        },
        TxnClass {
            name: "order_status",
            cpu_work: 0.5,
            logical_reads: 14.0,
            row_reads: 25.0,
            rows_written: 0.0,
            log_kb: 0.0,
            net_kb: 1.2,
            lock_weight: 0.1,
            statements: StatementProfile { selects: 4.0, updates: 0.0, inserts: 0.0, deletes: 0.0 },
        },
        TxnClass {
            name: "delivery",
            cpu_work: 2.0,
            logical_reads: 60.0,
            row_reads: 130.0,
            rows_written: 30.0,
            log_kb: 6.0,
            net_kb: 0.4,
            lock_weight: 0.9,
            statements: StatementProfile {
                selects: 10.0,
                updates: 20.0,
                inserts: 0.0,
                deletes: 10.0,
            },
        },
        TxnClass {
            name: "stock_level",
            cpu_work: 1.1,
            logical_reads: 90.0,
            row_reads: 380.0,
            rows_written: 0.0,
            log_kb: 0.0,
            net_kb: 0.6,
            lock_weight: 0.05,
            statements: StatementProfile { selects: 2.0, updates: 0.0, inserts: 0.0, deletes: 0.0 },
        },
    ];
    Mix { classes, weights: vec![0.45, 0.43, 0.04, 0.04, 0.04] }
}

/// The TPC-E-like mix: read-intensive brokerage transactions. Roughly 90%
/// of statements are reads, matching the I/O character App. A relies on.
fn tpce_mix() -> Mix {
    let classes = vec![
        TxnClass {
            name: "trade_status",
            cpu_work: 0.6,
            logical_reads: 30.0,
            row_reads: 60.0,
            rows_written: 0.0,
            log_kb: 0.0,
            net_kb: 2.0,
            lock_weight: 0.05,
            statements: StatementProfile { selects: 6.0, updates: 0.0, inserts: 0.0, deletes: 0.0 },
        },
        TxnClass {
            name: "customer_position",
            cpu_work: 0.9,
            logical_reads: 45.0,
            row_reads: 110.0,
            rows_written: 0.0,
            log_kb: 0.0,
            net_kb: 3.0,
            lock_weight: 0.05,
            statements: StatementProfile { selects: 8.0, updates: 0.0, inserts: 0.0, deletes: 0.0 },
        },
        TxnClass {
            name: "market_watch",
            cpu_work: 0.8,
            logical_reads: 55.0,
            row_reads: 200.0,
            rows_written: 0.0,
            log_kb: 0.0,
            net_kb: 1.5,
            lock_weight: 0.02,
            statements: StatementProfile { selects: 3.0, updates: 0.0, inserts: 0.0, deletes: 0.0 },
        },
        TxnClass {
            name: "trade_order",
            cpu_work: 1.6,
            logical_reads: 40.0,
            row_reads: 50.0,
            rows_written: 8.0,
            log_kb: 3.0,
            net_kb: 2.0,
            lock_weight: 0.6,
            statements: StatementProfile { selects: 9.0, updates: 2.0, inserts: 5.0, deletes: 0.0 },
        },
        TxnClass {
            name: "trade_result",
            cpu_work: 1.8,
            logical_reads: 50.0,
            row_reads: 60.0,
            rows_written: 10.0,
            log_kb: 4.0,
            net_kb: 1.0,
            lock_weight: 0.7,
            statements: StatementProfile {
                selects: 10.0,
                updates: 6.0,
                inserts: 3.0,
                deletes: 0.0,
            },
        },
    ];
    Mix { classes, weights: vec![0.30, 0.20, 0.22, 0.15, 0.13] }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_one() {
        for b in [Benchmark::TpccLike, Benchmark::TpceLike] {
            let mix = Mix::for_benchmark(b);
            let sum: f64 = mix.weights.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{b:?} weights sum to {sum}");
            assert_eq!(mix.classes.len(), mix.weights.len());
        }
    }

    #[test]
    fn tpce_is_more_read_intensive_than_tpcc() {
        // Share of SELECTs among all statements.
        let read_fraction = |benchmark| {
            let mix = Mix::for_benchmark(benchmark);
            let reads = mix.average(|c| c.statements.selects);
            let writes =
                mix.average(|c| c.statements.updates + c.statements.inserts + c.statements.deletes);
            reads / (reads + writes)
        };
        let (tpcc, tpce) = (read_fraction(Benchmark::TpccLike), read_fraction(Benchmark::TpceLike));
        assert!(tpce > tpcc + 0.2, "tpce {tpce} vs tpcc {tpcc}");
        assert!(tpce > 0.70);
    }

    #[test]
    fn average_weights_quantities() {
        let mix = Mix { classes: tpcc_mix().classes, weights: vec![1.0, 0.0, 0.0, 0.0, 0.0] };
        assert_eq!(mix.average(|c| c.cpu_work), 1.4);
    }

    #[test]
    fn single_class_restriction() {
        let mix = Mix::for_benchmark(Benchmark::TpccLike);
        let only = mix.single_class("new_order").unwrap();
        assert_eq!(only.classes.len(), 1);
        assert_eq!(only.weights, vec![1.0]);
        assert!(mix.single_class("nope").is_none());
    }
}
