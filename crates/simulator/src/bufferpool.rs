//! Buffer-pool dynamics: hit ratio, dirty-page accumulation, flushing.
//!
//! The paper's §2.4 example is exactly this sub-model: "with a small buffer
//! pool, dirty pages are flushed to disk frequently. Thus, when the number
//! of concurrent transactions spikes, the pages may be flushed even more
//! frequently. The increase in disk IOs may then affect transaction
//! latencies."

/// InnoDB-style buffer-pool model, advanced once per one-second tick.
#[derive(Debug, Clone)]
pub struct BufferPool {
    /// Total pages in the pool.
    pub total_pages: f64,
    /// Currently dirty pages.
    pub dirty_pages: f64,
    /// Fraction of the working set resident (drives the hit ratio).
    resident_fraction: f64,
    /// Background flush capacity, pages per second.
    flush_capacity: f64,
    /// Dirty-page fraction that triggers aggressive flushing.
    high_watermark: f64,
}

/// What the pool did during one tick.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolTick {
    /// Buffer-pool read requests (logical reads offered).
    pub read_requests: f64,
    /// Physical page reads (misses).
    pub physical_reads: f64,
    /// Pages flushed to disk this tick.
    pub flushed_pages: f64,
    /// Dirty pages at end of tick.
    pub dirty_pages: f64,
    /// Hit ratio in `[0, 1]`.
    pub hit_ratio: f64,
    /// Free (clean, evictable) pages.
    pub free_pages: f64,
}

impl BufferPool {
    /// Create a pool of `pool_mb` megabytes with `page_kb` pages, caching a
    /// working set of `data_mb` megabytes.
    pub(crate) fn new(pool_mb: f64, page_kb: f64, data_mb: f64) -> Self {
        let total_pages = (pool_mb * 1024.0 / page_kb).max(1.0);
        // Residency saturates as the pool approaches the data size. The 3x
        // factor models access locality: a pool 1/3 the data size already
        // captures most of the hot set.
        let resident_fraction = (3.0 * pool_mb / data_mb.max(1.0)).min(1.0);
        BufferPool {
            total_pages,
            dirty_pages: 0.0,
            resident_fraction,
            flush_capacity: total_pages * 0.004,
            high_watermark: 0.75,
        }
    }

    /// Steady-state hit ratio implied by residency.
    ///
    /// OLTP access is highly skewed, so even a pool far smaller than the
    /// data keeps the hot set resident: the base miss rate is a few
    /// percent, shrinking linearly as residency grows.
    pub(crate) fn hit_ratio(&self) -> f64 {
        (1.0 - 0.06 * (1.0 - self.resident_fraction)).min(0.998)
    }

    /// Advance one second: `logical_reads` page requests arrive and
    /// `pages_dirtied` pages are written. `forced_flush` demands an
    /// immediate checkpoint of that many pages on top of background
    /// flushing (used by the Flush Log/Table anomaly and log rotation).
    pub(crate) fn tick(
        &mut self,
        logical_reads: f64,
        pages_dirtied: f64,
        forced_flush: f64,
    ) -> PoolTick {
        let hit_ratio = self.hit_ratio();
        let physical_reads = logical_reads * (1.0 - hit_ratio);
        self.dirty_pages = (self.dirty_pages + pages_dirtied).min(self.total_pages);

        // Adaptive flushing: a baseline rate plus a term proportional to
        // the dirty backlog (InnoDB's adaptive flushing similarly targets
        // a flush rate matching the redo generation rate), so sustained
        // write pressure reaches a flushed≈dirtied equilibrium within
        // tens of seconds instead of stalling until a watermark cliff.
        let mut flush_rate = self.flush_capacity + self.dirty_pages * 0.05;
        let dirty_fraction = self.dirty_pages / self.total_pages;
        if dirty_fraction > self.high_watermark {
            // Emergency ramp past the watermark.
            let pressure = (dirty_fraction - self.high_watermark) / (1.0 - self.high_watermark);
            flush_rate += self.flush_capacity * 8.0 * pressure;
        }
        let flushed = (flush_rate + forced_flush).min(self.dirty_pages);
        self.dirty_pages -= flushed;

        PoolTick {
            read_requests: logical_reads,
            physical_reads,
            flushed_pages: flushed,
            dirty_pages: self.dirty_pages,
            hit_ratio,
            free_pages: (self.total_pages - self.dirty_pages).max(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigger_pool_hits_more() {
        let small = BufferPool::new(512.0, 16.0, 50_000.0);
        let large = BufferPool::new(8192.0, 16.0, 50_000.0);
        assert!(large.hit_ratio() > small.hit_ratio());
        assert!(small.hit_ratio() > 0.5);
        assert!(large.hit_ratio() <= 0.998);
    }

    #[test]
    fn pool_covering_data_is_near_perfect() {
        let pool = BufferPool::new(50_000.0, 16.0, 50_000.0);
        assert!(pool.hit_ratio() > 0.99);
    }

    #[test]
    fn dirty_pages_accumulate_and_flush() {
        let mut pool = BufferPool::new(4096.0, 16.0, 50_000.0);
        let t1 = pool.tick(1000.0, 5000.0, 0.0);
        assert!(t1.dirty_pages > 0.0);
        assert!(t1.flushed_pages > 0.0);
        // With no new writes, dirty pages drain monotonically.
        let mut prev = t1.dirty_pages;
        for _ in 0..50 {
            let t = pool.tick(1000.0, 0.0, 0.0);
            assert!(t.dirty_pages <= prev);
            prev = t.dirty_pages;
        }
        assert!(prev < t1.dirty_pages);
    }

    #[test]
    fn watermark_triggers_aggressive_flushing() {
        let mut pool = BufferPool::new(64.0, 16.0, 50_000.0);
        // Saturate dirty pages.
        pool.tick(0.0, pool.total_pages * 2.0, 0.0);
        let aggressive = pool.tick(0.0, pool.total_pages, 0.0);
        let mut calm_pool = BufferPool::new(64.0, 16.0, 50_000.0);
        let calm = calm_pool.tick(0.0, 1.0, 0.0);
        assert!(aggressive.flushed_pages > calm.flushed_pages * 4.0);
    }

    #[test]
    fn forced_flush_drains_immediately() {
        let mut pool = BufferPool::new(4096.0, 16.0, 50_000.0);
        pool.tick(0.0, 10_000.0, 0.0);
        let dirty_before = pool.dirty_pages;
        let t = pool.tick(0.0, 0.0, dirty_before);
        assert!(t.dirty_pages < 1e-9);
        assert!(t.flushed_pages >= dirty_before * 0.99);
    }

    #[test]
    fn misses_proportional_to_logical_reads() {
        let mut pool = BufferPool::new(2048.0, 16.0, 50_000.0);
        let a = pool.tick(1000.0, 0.0, 0.0);
        let b = pool.tick(2000.0, 0.0, 0.0);
        assert!((b.physical_reads / a.physical_reads - 2.0).abs() < 1e-9);
    }
}
