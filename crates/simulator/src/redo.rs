//! Redo-log model: fill, rotation, and rotation-induced flush storms.
//!
//! The paper's running causal-model example (Fig. 6) is "Log Rotation" with
//! effects on latency, disk writes, and CPU wait; footnote 8 notes that in
//! MySQL "log rotations can cause performance hiccups when the adaptive
//! flushing option is disabled". This model reproduces that mechanism: the
//! redo log fills with write traffic and, on rotation without adaptive
//! flushing, forces a synchronous checkpoint of dirty pages.

/// What the redo log did during one tick.
#[derive(Debug, Clone, Copy, Default)]
pub struct RedoTick {
    /// Log bytes written this second, KB.
    pub written_kb: f64,
    /// Log space in use at end of tick, MB.
    pub used_mb: f64,
    /// Fraction of log capacity in use, `[0, 1]`.
    pub used_fraction: f64,
    /// Rotations completed this tick (0 or 1).
    pub rotations: f64,
    /// Synchronous flush demand (pages) imposed on the buffer pool by a
    /// rotation without adaptive flushing.
    pub forced_flush_pages: f64,
}

/// Cyclic redo log.
#[derive(Debug, Clone)]
pub struct RedoLog {
    capacity_mb: f64,
    used_mb: f64,
    adaptive_flushing: bool,
}

impl RedoLog {
    /// New log of `capacity_mb` megabytes.
    pub(crate) fn new(capacity_mb: f64, adaptive_flushing: bool) -> Self {
        RedoLog { capacity_mb: capacity_mb.max(1.0), used_mb: 0.0, adaptive_flushing }
    }

    /// Advance one second: `written_kb` of log records arrive;
    /// `dirty_pages` is the buffer pool's current dirty count, used to size
    /// a rotation's forced checkpoint.
    pub(crate) fn tick(&mut self, written_kb: f64, dirty_pages: f64) -> RedoTick {
        self.used_mb += written_kb.max(0.0) / 1024.0;
        let mut rotations = 0.0;
        let mut forced_flush_pages = 0.0;
        if self.used_mb >= self.capacity_mb {
            self.used_mb -= self.capacity_mb;
            rotations = 1.0;
            if !self.adaptive_flushing {
                // Synchronous checkpoint: most dirty pages must reach disk
                // before the old log segment can be reused.
                forced_flush_pages = dirty_pages * 0.8;
            }
        }
        RedoTick {
            written_kb: written_kb.max(0.0),
            used_mb: self.used_mb,
            used_fraction: (self.used_mb / self.capacity_mb).clamp(0.0, 1.0),
            rotations,
            forced_flush_pages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_fills_then_rotates() {
        let mut log = RedoLog::new(1.0, true); // 1 MB capacity
        let t = log.tick(512.0, 100.0); // 0.5 MB
        assert_eq!(t.rotations, 0.0);
        assert!((t.used_fraction - 0.5).abs() < 1e-9);
        let t = log.tick(600.0, 100.0); // crosses 1 MB
        assert_eq!(t.rotations, 1.0);
        assert!(t.used_mb < 1.0);
    }

    #[test]
    fn adaptive_flushing_suppresses_storms() {
        let mut adaptive = RedoLog::new(1.0, true);
        let mut sync = RedoLog::new(1.0, false);
        let a = adaptive.tick(2048.0, 500.0);
        let s = sync.tick(2048.0, 500.0);
        assert_eq!(a.rotations, 1.0);
        assert_eq!(s.rotations, 1.0);
        assert_eq!(a.forced_flush_pages, 0.0);
        assert!(s.forced_flush_pages > 0.0);
    }

    #[test]
    fn negative_writes_ignored() {
        let mut log = RedoLog::new(1.0, true);
        let t = log.tick(-100.0, 0.0);
        assert_eq!(t.written_kb, 0.0);
        assert_eq!(t.used_mb, 0.0);
    }

    #[test]
    fn steady_write_rate_rotates_periodically() {
        let mut log = RedoLog::new(1.0, false);
        let mut rotations = 0.0;
        for _ in 0..100 {
            rotations += log.tick(102.4, 50.0).rotations; // 0.1 MB/s
        }
        // 100 ticks * 0.1 MB = 10 MB through a 1 MB log ≈ 10 rotations.
        assert!((rotations - 10.0).abs() <= 1.0, "rotations = {rotations}");
    }
}
