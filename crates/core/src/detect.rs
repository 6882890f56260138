//! Automatic anomaly detection (paper §7).
//!
//! 1. Min–max-normalize every numeric attribute (Eq. 2).
//! 2. Compute each attribute's **potential power** (Eq. 4): the maximum
//!    absolute difference between the attribute's overall median and the
//!    median within any sliding window of size `τ` — a median filter that
//!    responds to abrupt, sustained level shifts while ignoring isolated
//!    spikes. Keep attributes with `PP > PP_t`. The window stays sorted
//!    as it slides (the leaving value is replaced by the entering one in
//!    place), and an attribute's scan stops at the first window past
//!    `PP_t`.
//! 3. Cluster the rows (as points over the selected attributes) with
//!    DBSCAN, `minPts = 3` and `ε = max(L_3)/4` from the k-dist list.
//!    One `n × n` distance matrix serves both: each point's row yields its
//!    k-dist by selection, and DBSCAN's neighbourhoods read the same rows.
//!    One refinement over the paper's rule: `ε` is floored at twice the
//!    99th percentile of `L_3`, so it never drops below the data's own
//!    local density (with step-shaped anomalies there are no transition
//!    points between the normal and abnormal blobs, `max(L_3)` collapses
//!    to the intra-blob spacing, and the bare `/4` rule would shatter both
//!    blobs into noise).
//! 4. Report the rows of every cluster smaller than 20% of all rows —
//!    anomalies are assumed to be a small minority (§7). Points DBSCAN
//!    labels as noise are not reported, per the paper.

use dbsherlock_cluster::{dbscan_by, euclidean, Label};
use dbsherlock_telemetry::{stats, AttributeKind, Dataset, Region};

use crate::budget::ArmedBudget;
use crate::error::SherlockError;
use crate::exec::try_par_map_indexed;
use crate::params::SherlockParams;

/// Potential power of a normalized series (Eq. 4): the largest absolute
/// deviation of any `tau`-window median from the global median.
pub fn potential_power(normalized: &[f64], tau: usize) -> f64 {
    window_medians(normalized, tau, f64::INFINITY)
}

/// Scan the `tau`-window medians of `normalized` left to right and return
/// the largest `|window median − global median|` seen, stopping at the
/// first window whose deviation exceeds `stop_above`. Hence
/// `window_medians(x, τ, t) > t` exactly when `potential_power(x, τ) > t`,
/// and with `stop_above = ∞` the result *is* the potential power.
///
/// The window is kept sorted and each slide replaces the leaving value by
/// the entering one in place (`replace_sorted`), instead of copying the
/// window and selecting its median afresh. The median of the sorted window
/// is the same order statistic (and the same even-`τ` average) that
/// [`stats::median_in_place`] computes.
pub fn window_medians(normalized: &[f64], tau: usize, stop_above: f64) -> f64 {
    let (Some(first), Some(entering)) = (normalized.get(..tau), normalized.get(tau..)) else {
        return 0.0;
    };
    if first.is_empty() {
        return 0.0;
    }
    let global = stats::median(normalized);
    let mut window = first.to_vec();
    window.sort_by(f64::total_cmp);
    let mut best: f64 = 0.0;
    // Window k+1 drops `normalized[k]` and takes `normalized[k + tau]`.
    let mut slides = normalized.iter().zip(entering);
    loop {
        best = best.max((sorted_median(&window) - global).abs());
        if best > stop_above {
            break;
        }
        let Some((&leaving, &entering)) = slides.next() else { break };
        replace_sorted(&mut window, leaving, entering);
    }
    best
}

/// Replace one copy of `leaving` in the ascending (`total_cmp`) `window`
/// by `entering`, keeping it sorted: the vacated slot, found by binary
/// search, moves toward `entering`'s place, shifting each element it
/// passes by one.
fn replace_sorted(window: &mut [f64], leaving: f64, entering: f64) {
    let mut at = window.partition_point(|v| v.total_cmp(&leaving).is_lt());
    while let Some(&next) = window.get(at + 1).filter(|v| v.total_cmp(&entering).is_lt()) {
        if let Some(slot) = window.get_mut(at) {
            *slot = next;
        }
        at += 1;
    }
    while let Some(&prev) =
        at.checked_sub(1).and_then(|lo| window.get(lo)).filter(|v| v.total_cmp(&entering).is_gt())
    {
        if let Some(slot) = window.get_mut(at) {
            *slot = prev;
        }
        at -= 1;
    }
    if let Some(slot) = window.get_mut(at) {
        *slot = entering;
    }
}

/// Median of an ascending (`total_cmp`) slice: the middle element, or the
/// mean of the two middle elements for even lengths.
fn sorted_median(sorted: &[f64]) -> f64 {
    let mid = sorted.len() / 2;
    let upper = sorted.get(mid).copied().unwrap_or(0.0);
    if sorted.len() % 2 == 1 {
        return upper;
    }
    let lower = mid.checked_sub(1).and_then(|lo| sorted.get(lo)).copied().unwrap_or(upper);
    (lower + upper) / 2.0
}

/// Attribute ids whose potential power exceeds `PP_t`, with their
/// normalized columns. The per-attribute median filter is the detector's
/// first O(rows × attrs) stage, so it fans out across the thread budget;
/// collection by index keeps schema order. Each scan stops at the first
/// window past `PP_t`, since only `PP > PP_t` matters here. Budget-checked
/// per attribute; panics are caught at the attribute slot.
fn select_attributes(
    dataset: &Dataset,
    params: &SherlockParams,
    budget: &ArmedBudget,
) -> Result<Vec<(usize, Vec<f64>)>, SherlockError> {
    let numeric = dataset.schema().ids_of_kind(AttributeKind::Numeric);
    let slots = try_par_map_indexed(params.exec, "detect", &numeric, |_, &attr_id| {
        budget.check("detect")?;
        let Some(values) = dataset.numeric(attr_id) else { return Ok(None) };
        let normalized = stats::normalize_slice(values);
        let pp = window_medians(&normalized, params.tau, params.pp_t);
        Ok((pp > params.pp_t).then_some((attr_id, normalized)))
    });
    let mut selected = Vec::new();
    for slot in slots {
        if let Some(entry) = slot? {
            selected.push(entry);
        }
    }
    Ok(selected)
}

/// Distance from point `i` to its `k`-th nearest *other* point, read from
/// `row` (point `i`'s distances to every point, itself included) by
/// selection rather than a sort. Same conventions as
/// [`kdist_of`](dbsherlock_cluster::kdist_of): fewer than `k` neighbours
/// report the farthest, a singleton reports `0`.
fn kdist_from_row(row: &[f64], i: usize, k: usize) -> f64 {
    let mut others = row.to_vec();
    if i < others.len() {
        others.swap_remove(i);
    }
    let Some(last) = others.len().checked_sub(1) else { return 0.0 };
    let (_, kth, _) = others.select_nth_unstable_by(k.saturating_sub(1).min(last), f64::total_cmp);
    *kth
}

/// Result of automatic detection.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Proposed abnormal rows.
    pub region: Region,
    /// Attributes (by id) that passed the potential-power filter.
    pub selected_attrs: Vec<usize>,
}

/// Run automatic anomaly detection over `dataset`. Returns `None` when no
/// attribute shows enough potential power or when clustering finds nothing
/// small enough to call anomalous.
///
/// Runs with an unlimited budget, and degrades an internal failure (a
/// caught panic) to `None` — detection is advisory, so "nothing detected"
/// is its graceful floor. Callers that need the distinction, or a real
/// budget, use [`try_detect_anomaly`].
pub fn detect_anomaly(dataset: &Dataset, params: &SherlockParams) -> Option<Detection> {
    try_detect_anomaly(dataset, params, &ArmedBudget::unlimited()).unwrap_or(None)
}

/// [`detect_anomaly`] under a [`DiagnosisBudget`](crate::DiagnosisBudget):
/// cooperative deadline/cancellation checks before each attribute's median
/// filter and each point's distance row, size admission up front, and
/// per-slot panic isolation. Within budget, output is identical to
/// [`detect_anomaly`].
pub fn try_detect_anomaly(
    dataset: &Dataset,
    params: &SherlockParams,
    budget: &ArmedBudget,
) -> Result<Option<Detection>, SherlockError> {
    budget.admit(dataset.n_rows(), params.n_partitions)?;
    let selected = select_attributes(dataset, params, budget)?;
    if selected.is_empty() {
        return Ok(None);
    }
    let n = selected.first().map_or(0, |(_, col)| col.len());
    if n < params.min_pts {
        return Ok(None);
    }
    // The selected columns as one row-major n × d point buffer.
    let d = selected.len();
    let points: Vec<f64> = (0..n)
        .flat_map(|r| selected.iter().map(move |(_, col)| col.get(r).copied().unwrap_or(0.0)))
        .collect();
    let point = |i: usize| points.get(i * d..(i + 1) * d).unwrap_or_default();
    // The O(n²) pairwise scan, one independent row per point, mapped
    // across the thread budget. No distance is computed anywhere else:
    // the k-dist list and DBSCAN both read this matrix.
    let indices: Vec<usize> = (0..n).collect();
    let row_slots = try_par_map_indexed(params.exec, "detect", &indices, |_, &i| {
        budget.check("detect")?;
        let row: Vec<f64> = (0..n).map(|j| euclidean(point(i), point(j))).collect();
        let lk = kdist_from_row(&row, i, params.min_pts);
        Ok((row, lk))
    });
    let mut matrix: Vec<Vec<f64>> = Vec::with_capacity(n);
    let mut lk: Vec<f64> = Vec::with_capacity(n);
    for slot in row_slots {
        let (row, dist) = slot?;
        matrix.push(row);
        lk.push(dist);
    }
    let max_lk = lk.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if max_lk <= 0.0 || !max_lk.is_finite() {
        return Ok(None);
    }
    // The paper's rule with a local-density floor (see module docs): ε
    // never drops below twice the 99th percentile of L_k, so clusters stay
    // internally connected even when there are no transition points to
    // prop up max(L_k).
    let eps = (max_lk / 4.0).max(2.0 * stats::quantile(&lk, 0.99));
    let clustering = dbscan_by(n, params.min_pts, |i, j| {
        matrix.get(i).and_then(|row| row.get(j)).is_some_and(|&dist| dist <= eps)
    });
    let max_cluster = (params.max_anomaly_fraction * n as f64) as usize;
    let sizes = clustering.sizes();
    let rows: Vec<usize> = (0..n)
        .filter(|&row| match clustering.labels.get(row) {
            Some(Label::Cluster(id)) => sizes.get(*id).is_some_and(|&size| size < max_cluster),
            _ => false,
        })
        .collect();
    if rows.is_empty() || rows.len() >= n {
        return Ok(None);
    }
    Ok(Some(Detection {
        region: Region::from_indices(rows),
        selected_attrs: selected.into_iter().map(|(id, _)| id).collect(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsherlock_telemetry::{AttributeMeta, Schema, Value};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn potential_power_of_level_shift() {
        // 100 points at 0, then 30 at 1: window of 20 inside the shifted
        // block has median 1; global median 0.
        let mut series = vec![0.0; 100];
        series.extend(vec![1.0; 30]);
        assert!((potential_power(&series, 20) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn potential_power_ignores_isolated_spike() {
        // A single-sample spike cannot dominate a 20-sample median.
        let mut series = vec![0.0; 100];
        series[50] = 1.0;
        assert_eq!(potential_power(&series, 20), 0.0);
    }

    #[test]
    fn potential_power_degenerate_inputs() {
        assert_eq!(potential_power(&[], 20), 0.0);
        assert_eq!(potential_power(&[1.0, 2.0], 20), 0.0);
        assert_eq!(potential_power(&[1.0, 2.0, 3.0], 0), 0.0);
    }

    /// 300 rows of noisy baseline with a 40-row level shift in two
    /// attributes; one pure-noise attribute.
    fn dataset_with_shift() -> (Dataset, Region) {
        let schema = Schema::from_attrs([
            AttributeMeta::numeric("a"),
            AttributeMeta::numeric("b"),
            AttributeMeta::numeric("noise"),
        ])
        .unwrap();
        let mut d = Dataset::new(schema);
        let mut rng = StdRng::seed_from_u64(77);
        for i in 0..300 {
            let shifted = (200..240).contains(&i);
            let a = if shifted { 95.0 } else { 10.0 } + rng.random::<f64>() * 4.0;
            let b = if shifted { 3.0 } else { 70.0 } + rng.random::<f64>() * 4.0;
            // Bell-ish noise: min–max normalization stretches any series
            // to [0, 1], so a realistic noise attribute concentrates its
            // mass near the middle instead of being uniform over the range.
            let noise =
                (rng.random::<f64>() + rng.random::<f64>() + rng.random::<f64>()) / 3.0 * 100.0;
            d.push_row(i as f64, &[Value::Num(a), Value::Num(b), Value::Num(noise)]).unwrap();
        }
        (d, Region::from_range(200..240))
    }

    #[test]
    fn detects_the_shifted_block() {
        let (d, truth) = dataset_with_shift();
        let detection = detect_anomaly(&d, &SherlockParams::default()).unwrap();
        let iou = detection.region.iou(&truth);
        assert!(iou > 0.8, "IoU {iou}, detected {:?}", detection.region.intervals());
        // The pure-noise attribute must not be selected.
        let noise_id = d.schema().id_of("noise").unwrap();
        assert!(!detection.selected_attrs.contains(&noise_id));
        assert_eq!(detection.selected_attrs.len(), 2);
    }

    #[test]
    fn budgeted_detect_matches_unbudgeted_and_enforces_limits() {
        let (d, _) = dataset_with_shift();
        let params = SherlockParams::default();
        let plain = detect_anomaly(&d, &params);
        let budgeted =
            try_detect_anomaly(&d, &params, &crate::budget::ArmedBudget::unlimited()).unwrap();
        assert_eq!(plain, budgeted);
        assert!(plain.is_some());

        let tight = crate::budget::DiagnosisBudget::unlimited().with_max_rows(10).arm();
        assert!(matches!(
            try_detect_anomaly(&d, &params, &tight),
            Err(SherlockError::BudgetExceeded { what: "rows", .. })
        ));
        let expired = crate::budget::DiagnosisBudget::unlimited().with_deadline_ms(0).arm();
        assert!(matches!(
            try_detect_anomaly(&d, &params, &expired),
            Err(SherlockError::DeadlineExceeded { stage: "detect", .. })
        ));
    }

    #[test]
    fn no_detection_on_steady_data() {
        let schema = Schema::from_attrs([AttributeMeta::numeric("x")]).unwrap();
        let mut d = Dataset::new(schema);
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..200 {
            d.push_row(i as f64, &[Value::Num(50.0 + rng.random::<f64>())]).unwrap();
        }
        assert!(detect_anomaly(&d, &SherlockParams::default()).is_none());
    }

    #[test]
    fn no_detection_when_anomaly_is_majority() {
        // A 50/50 split: neither cluster is under 20%, no noise points.
        let schema = Schema::from_attrs([AttributeMeta::numeric("x")]).unwrap();
        let mut d = Dataset::new(schema);
        let mut rng = StdRng::seed_from_u64(4);
        for i in 0..200 {
            let base = if i < 100 { 10.0 } else { 90.0 };
            d.push_row(i as f64, &[Value::Num(base + rng.random::<f64>())]).unwrap();
        }
        let detection = detect_anomaly(&d, &SherlockParams::default());
        if let Some(det) = detection {
            // Only stray noise points may be reported, never a whole half.
            assert!(det.region.len() < 20, "{:?}", det.region.intervals());
        }
    }
}
