//! Randomness helpers: Gaussian sampling and measurement noise.
//!
//! The paper stresses that "real-world datasets and OS logs are noisy and
//! attribute values often fluctuate regardless of the anomaly" (§3); the
//! filtering step of Algorithm 1 exists precisely to cope with that. The
//! simulator therefore perturbs every emitted metric with multiplicative
//! and additive Gaussian noise so the algorithm's noise handling is
//! genuinely exercised.
//!
//! We sample normals with a hand-rolled Box–Muller transform to keep the
//! dependency set down to `rand` itself.

use rand::Rng;

/// Draw one standard-normal sample via Box–Muller.
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by keeping u1 in (0, 1].
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Draw a `N(mean, std_dev²)` sample.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    mean + std_dev * standard_normal(rng)
}

/// Measurement-noise model applied to emitted metrics.
#[derive(Debug, Clone, Copy)]
pub struct NoiseModel {
    /// Relative (multiplicative) noise: each value is scaled by
    /// `1 + N(0, relative²)`.
    pub relative: f64,
    /// Absolute (additive) noise floor.
    pub absolute: f64,
    /// Probability that a sample is an upward burst (real `/proc`-style
    /// counters spike on scheduler hiccups, batched flushes, GC pauses…).
    /// Bursts matter to DBSherlock: they stretch an attribute's min–max
    /// range, which attenuates the *normalized* mean difference (Eq. 2)
    /// of weakly-affected attributes below the θ gate — exactly the noise
    /// regime the paper's filtering machinery is built for.
    pub spike_prob: f64,
    /// Burst magnitude: a spiked sample is scaled by `1 + U(0, spike_scale)`.
    pub spike_scale: f64,
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel { relative: 0.12, absolute: 0.02, spike_prob: 0.02, spike_scale: 1.0 }
    }
}

impl NoiseModel {
    /// Noise-free model (for deterministic tests).
    pub fn none() -> Self {
        NoiseModel { relative: 0.0, absolute: 0.0, spike_prob: 0.0, spike_scale: 0.0 }
    }

    /// Apply noise to a non-negative metric, clamping at zero.
    pub(crate) fn apply<R: Rng + ?Sized>(&self, rng: &mut R, value: f64) -> f64 {
        let mut scaled = value * (1.0 + self.relative * standard_normal(rng));
        if self.spike_prob > 0.0 && rng.random::<f64>() < self.spike_prob {
            scaled *= 1.0 + self.spike_scale * rng.random::<f64>();
        }
        let shifted = scaled + self.absolute * standard_normal(rng);
        shifted.max(0.0)
    }

    /// Apply noise and clamp the result into `[0, cap]` (for percentages
    /// and utilizations).
    pub(crate) fn apply_capped<R: Rng + ?Sized>(&self, rng: &mut R, value: f64, cap: f64) -> f64 {
        self.apply(rng, value).min(cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn normal_shifts_and_scales() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng, 100.0, 10.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn noise_never_goes_negative() {
        let mut rng = StdRng::seed_from_u64(3);
        let noise = NoiseModel { relative: 0.5, absolute: 1.0, ..NoiseModel::none() };
        for _ in 0..1000 {
            assert!(noise.apply(&mut rng, 0.1) >= 0.0);
        }
    }

    #[test]
    fn capped_noise_respects_cap() {
        let mut rng = StdRng::seed_from_u64(5);
        let noise = NoiseModel { relative: 0.3, absolute: 0.0, ..NoiseModel::none() };
        for _ in 0..1000 {
            let v = noise.apply_capped(&mut rng, 99.0, 100.0);
            assert!((0.0..=100.0).contains(&v));
        }
    }

    #[test]
    fn zero_noise_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(NoiseModel::none().apply(&mut rng, 42.0), 42.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..5).map(|_| standard_normal(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..5).map(|_| standard_normal(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
