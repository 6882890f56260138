//! Shared queueing-theory helpers for the resource sub-models.
//!
//! The simulator treats each physical resource (CPU, disk, network) as a
//! multi-server queue. Per tick it computes the offered utilization and
//! inflates service times with an M/M/c-style wait factor; past saturation,
//! throughput is clamped and a backlog builds. These are the non-linear,
//! "previously abundant resources become scarce" dynamics the paper's
//! introduction describes.

/// Utilization of a resource given offered demand and capacity, uncapped
/// (values above 1 mean the resource is oversubscribed).
pub(crate) fn offered_utilization(demand: f64, capacity: f64) -> f64 {
    if capacity <= 0.0 {
        return if demand > 0.0 { f64::INFINITY } else { 0.0 };
    }
    (demand / capacity).max(0.0)
}

/// Multiplier (≥ 1) applied to a request's service time at utilization
/// `rho` on a resource with `servers` parallel servers.
///
/// Uses the Sakasegawa approximation of the M/M/c waiting factor:
/// `W/S = ρ^(√(2(c+1)))/(c(1-ρ))`, smooth and well-behaved for the
/// moderate utilizations the simulator lives at, and clamped near
/// saturation so latency stays finite.
pub(crate) fn wait_factor(rho: f64, servers: f64) -> f64 {
    const MAX_FACTOR: f64 = 250.0;
    if rho <= 0.0 {
        return 1.0;
    }
    let servers = servers.max(1.0);
    if rho >= 0.995 {
        return MAX_FACTOR;
    }
    let exponent = (2.0 * (servers + 1.0)).sqrt();
    let factor = 1.0 + rho.powf(exponent) / (servers * (1.0 - rho));
    factor.min(MAX_FACTOR)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_basics() {
        assert_eq!(offered_utilization(50.0, 100.0), 0.5);
        assert_eq!(offered_utilization(0.0, 0.0), 0.0);
        assert!(offered_utilization(1.0, 0.0).is_infinite());
        assert_eq!(offered_utilization(-5.0, 10.0), 0.0);
    }

    #[test]
    fn wait_factor_monotone_in_rho() {
        let mut prev = 0.0;
        for i in 1..99 {
            let rho = i as f64 / 100.0;
            let f = wait_factor(rho, 4.0);
            assert!(f >= 1.0);
            assert!(f >= prev, "wait factor must be monotone at rho={rho}");
            prev = f;
        }
    }

    #[test]
    fn wait_factor_idle_and_saturated() {
        assert_eq!(wait_factor(0.0, 4.0), 1.0);
        assert_eq!(wait_factor(1.5, 4.0), 250.0);
        assert_eq!(wait_factor(0.999, 1.0), 250.0);
    }

    #[test]
    fn more_servers_wait_less() {
        let one = wait_factor(0.8, 1.0);
        let four = wait_factor(0.8, 4.0);
        assert!(four < one);
    }
}
