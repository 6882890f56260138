//! Small numeric-statistics toolkit shared across the workspace.
//!
//! Everything here is deliberately dependency-free: means, medians,
//! quantiles, the paper's min–max normalization (Eq. 2), equi-width
//! binning, and the entropy/mutual-information machinery behind the
//! domain-knowledge independence test (paper §5).

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median via partial sort of a scratch copy; `0.0` for an empty slice.
/// Even-length inputs return the mean of the two middle elements.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut scratch: Vec<f64> = values.to_vec();
    median_in_place(&mut scratch)
}

/// Median that reuses the caller's buffer (sorted as a side effect).
/// Useful in the sliding-window median filter of the anomaly detector,
/// where allocating per window would dominate.
pub fn median_in_place(scratch: &mut [f64]) -> f64 {
    if scratch.is_empty() {
        return 0.0;
    }
    let n = scratch.len();
    let mid = n / 2;
    let (_, upper_mid, _) = scratch.select_nth_unstable_by(mid, |a, b| a.total_cmp(b));
    let upper = *upper_mid;
    if n % 2 == 1 {
        upper
    } else {
        // Largest element of the lower half.
        let lower = scratch[..mid].iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (lower + upper) / 2.0
    }
}

/// Empirical quantile `q ∈ [0, 1]` with linear interpolation between order
/// statistics (the "type 7" estimator); `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Empirical quantile over an **already sorted** slice (same estimator as
/// [`quantile`], without the sort). Callers maintaining incremental sorted
/// windows (e.g. the PerfAugur baseline) use this on their hot path.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Min–max normalization of one value into `[0, 1]` (paper Eq. 2):
/// `(v - min) / (max - min)`. Returns `0.0` for degenerate ranges so that
/// constant attributes normalize to a constant rather than NaN.
pub fn normalize(value: f64, min: f64, max: f64) -> f64 {
    let range = max - min;
    if range <= 0.0 || !range.is_finite() {
        0.0
    } else {
        ((value - min) / range).clamp(0.0, 1.0)
    }
}

/// Normalize a whole slice against its own range (paper Eq. 2 applied
/// attribute-wise). Constant slices map to all-zeros.
pub fn normalize_slice(values: &[f64]) -> Vec<f64> {
    if values.is_empty() {
        return Vec::new();
    }
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return vec![0.0; values.len()];
    }
    let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let max = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    values.iter().map(|&v| if v.is_finite() { normalize(v, min, max) } else { 0.0 }).collect()
}

/// Index of the equi-width bin of `value` among `bins` bins over
/// `[min, max]`; values at `max` land in the last bin (the paper's partition
/// containment rule `lb <= val < ub` with a closed top partition so the
/// maximum is not lost).
pub fn bin_index(value: f64, min: f64, max: f64, bins: usize) -> usize {
    debug_assert!(bins > 0);
    let range = max - min;
    if range <= 0.0 || !value.is_finite() {
        return 0;
    }
    let raw = ((value - min) / range * bins as f64).floor() as isize;
    raw.clamp(0, bins as isize - 1) as usize
}

/// Shannon entropy (nats) of a count vector.
pub fn entropy_of_counts(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / total;
            -p * p.ln()
        })
        .sum()
}

/// Joint histogram of two discretized sequences with `(bins_a, bins_b)`
/// cells. Sequences must have equal length.
pub fn joint_histogram(a: &[usize], b: &[usize], bins_a: usize, bins_b: usize) -> Vec<Vec<usize>> {
    debug_assert_eq!(a.len(), b.len());
    let mut joint = vec![vec![0usize; bins_b]; bins_a];
    for (&x, &y) in a.iter().zip(b) {
        joint[x.min(bins_a - 1)][y.min(bins_b - 1)] += 1;
    }
    joint
}

/// Mutual information `MI(A, B) = H(A) + H(B) - H(A, B)` (nats) from a joint
/// count table (paper §5).
pub(crate) fn mutual_information(joint: &[Vec<usize>]) -> f64 {
    let marg_a: Vec<usize> = joint.iter().map(|row| row.iter().sum()).collect();
    let bins_b = joint.first().map_or(0, Vec::len);
    let marg_b: Vec<usize> = (0..bins_b).map(|j| joint.iter().map(|row| row[j]).sum()).collect();
    let flat: Vec<usize> = joint.iter().flatten().copied().collect();
    entropy_of_counts(&marg_a) + entropy_of_counts(&marg_b) - entropy_of_counts(&flat)
}

/// The paper's independence factor
/// `κ(A, B) = MI(A, B)² / (H(A) · H(B))` (§5): `0` for independent
/// attributes, approaching `1` with strong dependence. Degenerate marginals
/// (zero entropy) yield `0`.
pub fn independence_factor(joint: &[Vec<usize>]) -> f64 {
    let marg_a: Vec<usize> = joint.iter().map(|row| row.iter().sum()).collect();
    let bins_b = joint.first().map_or(0, Vec::len);
    let marg_b: Vec<usize> = (0..bins_b).map(|j| joint.iter().map(|row| row[j]).sum()).collect();
    let ha = entropy_of_counts(&marg_a);
    let hb = entropy_of_counts(&marg_b);
    if ha <= 0.0 || hb <= 0.0 {
        return 0.0;
    }
    let mi = mutual_information(joint);
    (mi * mi / (ha * hb)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn median_in_place_matches_median() {
        let data = [9.0, -1.0, 4.0, 4.0, 7.0, 0.5];
        let mut scratch = data.to_vec();
        assert_eq!(median_in_place(&mut scratch), median(&data));
    }

    #[test]
    fn quantile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 1.0), 40.0);
        assert_eq!(quantile(&v, 0.5), 25.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn normalize_handles_degenerate_range() {
        assert_eq!(normalize(5.0, 0.0, 10.0), 0.5);
        assert_eq!(normalize(5.0, 5.0, 5.0), 0.0);
        let n = normalize_slice(&[0.0, 5.0, 10.0]);
        assert_eq!(n, vec![0.0, 0.5, 1.0]);
        assert_eq!(normalize_slice(&[7.0, 7.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn bin_index_covers_range() {
        assert_eq!(bin_index(0.0, 0.0, 10.0, 5), 0);
        assert_eq!(bin_index(9.99, 0.0, 10.0, 5), 4);
        // Max value included in the top bin, not dropped.
        assert_eq!(bin_index(10.0, 0.0, 10.0, 5), 4);
        assert_eq!(bin_index(3.0, 3.0, 3.0, 5), 0);
    }

    #[test]
    fn entropy_of_uniform_and_point_mass() {
        assert_eq!(entropy_of_counts(&[10, 0, 0]), 0.0);
        let h = entropy_of_counts(&[5, 5]);
        assert!((h - std::f64::consts::LN_2).abs() < 1e-12);
        assert_eq!(entropy_of_counts(&[]), 0.0);
    }

    #[test]
    fn mi_of_identical_equals_entropy() {
        // A == B, two symbols, uniform: MI = H = ln 2, kappa = 1.
        let joint = vec![vec![50, 0], vec![0, 50]];
        let mi = mutual_information(&joint);
        assert!((mi - std::f64::consts::LN_2).abs() < 1e-9);
        assert!((independence_factor(&joint) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mi_of_independent_is_zero() {
        // Product distribution: independent.
        let joint = vec![vec![25, 25], vec![25, 25]];
        assert!(mutual_information(&joint).abs() < 1e-9);
        assert!(independence_factor(&joint) < 1e-9);
    }

    #[test]
    fn independence_factor_degenerate_marginal() {
        let joint = vec![vec![100, 0], vec![0, 0]];
        assert_eq!(independence_factor(&joint), 0.0);
    }
}
