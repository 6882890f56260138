//! Aligning raw log streams into fixed-interval tuples (paper Fig. 2, step 2).
//!
//! DBSeer collects OS statistics, DBMS counters, and per-query logs at
//! slightly different cadences. Before DBSherlock can run, everything is
//! summarized into one-second buckets and joined on the bucket timestamp,
//! producing the `(Timestamp, Attr1, ..., Attrk)` matrix of §2.1. This
//! module implements that preprocessing for arbitrary streams.

use crate::attribute::{AttributeMeta, Schema};
use crate::dataset::Dataset;
use crate::error::{IngestWarning, Result, TelemetryError};
use crate::value::Value;

/// How samples falling into the same bucket are summarized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// Average of the samples (gauges: CPU %, queue depth).
    Mean,
    /// Sum of the samples (counters-per-bucket: bytes sent, commits).
    Sum,
    /// Last sample wins (sampled state: free pages).
    Last,
    /// Number of samples (event streams: queries started).
    Count,
    /// Maximum sample (peaks: p100 latency).
    Max,
}

/// A raw numeric log stream: `(time_seconds, value)` samples, not
/// necessarily sorted or regularly spaced.
#[derive(Debug, Clone)]
pub struct NumericStream {
    /// Attribute name in the aligned output.
    pub name: String,
    /// Bucket summarization policy.
    pub agg: Aggregation,
    /// Raw samples.
    pub samples: Vec<(f64, f64)>,
}

/// A raw categorical log stream; the last sample in a bucket wins.
#[derive(Debug, Clone)]
pub struct CategoricalStream {
    /// Attribute name in the aligned output.
    pub name: String,
    /// Raw samples.
    pub samples: Vec<(f64, String)>,
}

/// Options controlling alignment.
#[derive(Debug, Clone)]
pub struct AlignOptions {
    /// Bucket width in seconds (the paper uses 1.0).
    pub interval: f64,
    /// Value used for numeric buckets with no samples and no prior value.
    pub numeric_fill: f64,
    /// Label used for categorical buckets with no samples and no prior value.
    pub categorical_fill: String,
    /// When true, empty buckets repeat the previous bucket's value
    /// (carry-forward) instead of using the fill value.
    pub carry_forward: bool,
}

impl Default for AlignOptions {
    fn default() -> Self {
        AlignOptions {
            interval: 1.0,
            numeric_fill: 0.0,
            categorical_fill: "<none>".to_string(),
            carry_forward: true,
        }
    }
}

/// Align raw streams into a [`Dataset`] of fixed-interval tuples.
///
/// The output covers `floor(min_t / interval) .. ceil((max_t + ε) / interval)`
/// buckets over the union of all stream time ranges. Returns an error when
/// every stream is empty or a name repeats.
pub fn align(
    numeric: &[NumericStream],
    categorical: &[CategoricalStream],
    options: &AlignOptions,
) -> Result<Dataset> {
    if options.interval <= 0.0 {
        return Err(TelemetryError::Parse { line: 0, message: "interval must be positive".into() });
    }
    let times = numeric
        .iter()
        .flat_map(|s| s.samples.iter().map(|&(t, _)| t))
        .chain(categorical.iter().flat_map(|s| s.samples.iter().map(|&(t, _)| t)));
    let (mut min_t, mut max_t) = (f64::INFINITY, f64::NEG_INFINITY);
    for t in times {
        min_t = min_t.min(t);
        max_t = max_t.max(t);
    }
    if !min_t.is_finite() {
        return Err(TelemetryError::Empty("log streams"));
    }
    let first_bucket = (min_t / options.interval).floor() as i64;
    let last_bucket = (max_t / options.interval).floor() as i64;
    let n_buckets = (last_bucket - first_bucket + 1) as usize;

    let mut schema = Schema::new();
    for s in numeric {
        schema.push(AttributeMeta::numeric(&s.name))?;
    }
    for s in categorical {
        schema.push(AttributeMeta::categorical(&s.name))?;
    }
    let mut dataset = Dataset::new(schema);

    // Bucketize each stream up front.
    let numeric_buckets: Vec<Vec<Option<f64>>> = numeric
        .iter()
        .map(|s| bucketize_numeric(s, first_bucket, n_buckets, options.interval))
        .collect();
    let categorical_buckets: Vec<Vec<Option<String>>> = categorical
        .iter()
        .map(|s| bucketize_categorical(s, first_bucket, n_buckets, options.interval))
        .collect();

    let mut last_numeric: Vec<f64> = vec![options.numeric_fill; numeric.len()];
    let mut last_categorical: Vec<String> =
        vec![options.categorical_fill.clone(); categorical.len()];
    for bucket in 0..n_buckets {
        let mut values: Vec<Value> = Vec::with_capacity(dataset.schema().len());
        for (i, buckets) in numeric_buckets.iter().enumerate() {
            let v = match buckets[bucket] {
                Some(v) => {
                    last_numeric[i] = v;
                    v
                }
                None if options.carry_forward => last_numeric[i],
                None => options.numeric_fill,
            };
            values.push(Value::Num(v));
        }
        for (i, buckets) in categorical_buckets.iter().enumerate() {
            let label = match &buckets[bucket] {
                Some(l) => {
                    last_categorical[i] = l.clone();
                    l.clone()
                }
                None if options.carry_forward => last_categorical[i].clone(),
                None => options.categorical_fill.clone(),
            };
            let attr_id = numeric.len() + i;
            values.push(dataset.intern(attr_id, &label)?);
        }
        let timestamp = (first_bucket + bucket as i64) as f64 * options.interval;
        dataset.push_row(timestamp, &values)?;
    }
    Ok(dataset)
}

/// Options controlling [`repair_alignment`].
#[derive(Debug, Clone)]
pub struct RepairOptions {
    /// Expected collection interval in seconds (the paper uses 1.0). Rows
    /// are snapped to this grid and rows landing on the same grid point are
    /// collapsed.
    pub interval: f64,
    /// When true (default), timestamps are snapped to the nearest multiple
    /// of `interval`; when false, original timestamps are preserved (only
    /// ordering and duplicates are repaired).
    pub snap_to_grid: bool,
}

impl Default for RepairOptions {
    fn default() -> Self {
        RepairOptions { interval: 1.0, snap_to_grid: true }
    }
}

/// Repair the time axis of a degraded dataset.
///
/// Corrupted collectors produce rows that are out of order (clock jitter),
/// duplicated (retried flushes), clock-skewed onto ragged timestamps, or
/// stamped with garbage. This pass restores the invariants the diagnosis
/// pipeline assumes — strictly increasing, grid-aligned timestamps — without
/// fabricating data:
///
/// 1. rows with non-finite timestamps are dropped,
/// 2. rows are stably sorted by timestamp,
/// 3. timestamps are snapped to the `interval` grid (when `snap_to_grid`),
/// 4. rows colliding on the same grid point are collapsed (first one wins).
///
/// Gaps are left as gaps; filling them in is a modeling decision that belongs
/// to [`align`] and its carry-forward policy, not to repair. Every dropped or
/// collapsed row is reported as an [`IngestWarning`] whose line number
/// follows the CSV convention (row `i` is line `i + 2`). The result may be
/// empty if every timestamp was garbage — callers must tolerate that.
pub fn repair_alignment(
    dataset: &Dataset,
    options: &RepairOptions,
) -> Result<(Dataset, Vec<IngestWarning>)> {
    if options.interval <= 0.0 {
        return Err(TelemetryError::Parse { line: 0, message: "interval must be positive".into() });
    }
    let mut warnings = Vec::new();
    let timestamps = dataset.timestamps();

    // 1. Keep only rows with usable timestamps.
    let mut keyed: Vec<(usize, f64)> = Vec::with_capacity(timestamps.len());
    for (row, &t) in timestamps.iter().enumerate() {
        if t.is_finite() {
            keyed.push((row, t));
        } else {
            warnings.push(IngestWarning::SkippedRow {
                line: row + 2,
                reason: format!("non-finite timestamp {t}"),
            });
        }
    }

    // 2. Stable sort by timestamp; report rows that were out of order.
    for pair in keyed.windows(2) {
        if pair[1].1 < pair[0].1 {
            warnings.push(IngestWarning::NonMonotonicTimestamp {
                line: pair[1].0 + 2,
                timestamp: pair[1].1,
            });
        }
    }
    keyed.sort_by(|a, b| a.1.total_cmp(&b.1));

    // 3 + 4. Snap to the grid and collapse collisions.
    let mut out = Dataset::new(dataset.schema().clone());
    let mut last_key: Option<i64> = None;
    let mut last_exact: Option<f64> = None;
    for (row, t) in keyed {
        let (snapped, collided) = if options.snap_to_grid {
            let key = (t / options.interval).round() as i64;
            let hit = last_key == Some(key);
            last_key = Some(key);
            (key as f64 * options.interval, hit)
        } else {
            let hit = last_exact == Some(t);
            last_exact = Some(t);
            (t, hit)
        };
        if collided {
            warnings.push(IngestWarning::SkippedRow {
                line: row + 2,
                reason: format!("duplicate sample for second {snapped}"),
            });
            continue;
        }
        let values = out.values_from(dataset, row)?;
        out.push_row(snapped, &values)?;
    }
    Ok((out, warnings))
}

fn bucket_of(t: f64, first_bucket: i64, interval: f64) -> usize {
    ((t / interval).floor() as i64 - first_bucket) as usize
}

fn bucketize_numeric(
    stream: &NumericStream,
    first_bucket: i64,
    n_buckets: usize,
    interval: f64,
) -> Vec<Option<f64>> {
    let mut acc: Vec<Vec<f64>> = vec![Vec::new(); n_buckets];
    for &(t, v) in &stream.samples {
        let b = bucket_of(t, first_bucket, interval);
        if b < n_buckets {
            acc[b].push(v);
        }
    }
    acc.into_iter()
        .map(|samples| {
            if samples.is_empty() {
                return match stream.agg {
                    Aggregation::Count => Some(0.0),
                    _ => None,
                };
            }
            Some(match stream.agg {
                Aggregation::Mean => samples.iter().sum::<f64>() / samples.len() as f64,
                Aggregation::Sum => samples.iter().sum(),
                Aggregation::Last => samples.last().copied().unwrap_or(f64::NAN),
                Aggregation::Count => samples.len() as f64,
                Aggregation::Max => samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            })
        })
        .collect()
}

fn bucketize_categorical(
    stream: &CategoricalStream,
    first_bucket: i64,
    n_buckets: usize,
    interval: f64,
) -> Vec<Option<String>> {
    let mut out: Vec<Option<String>> = vec![None; n_buckets];
    for (t, label) in &stream.samples {
        let b = bucket_of(*t, first_bucket, interval);
        if b < n_buckets {
            out[b] = Some(label.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(name: &str, agg: Aggregation, samples: &[(f64, f64)]) -> NumericStream {
        NumericStream { name: name.into(), agg, samples: samples.to_vec() }
    }

    #[test]
    fn aggregations_summarize_buckets() {
        let opts = AlignOptions::default();
        let d = align(
            &[
                stream("mean", Aggregation::Mean, &[(0.1, 2.0), (0.9, 4.0), (1.5, 10.0)]),
                stream("sum", Aggregation::Sum, &[(0.1, 2.0), (0.9, 4.0), (1.5, 10.0)]),
                stream("last", Aggregation::Last, &[(0.1, 2.0), (0.9, 4.0), (1.5, 10.0)]),
                stream("count", Aggregation::Count, &[(0.1, 2.0), (0.9, 4.0), (1.5, 10.0)]),
                stream("max", Aggregation::Max, &[(0.1, 2.0), (0.9, 4.0), (1.5, 10.0)]),
            ],
            &[],
            &opts,
        )
        .unwrap();
        assert_eq!(d.n_rows(), 2);
        assert_eq!(d.numeric_by_name("mean").unwrap(), &[3.0, 10.0]);
        assert_eq!(d.numeric_by_name("sum").unwrap(), &[6.0, 10.0]);
        assert_eq!(d.numeric_by_name("last").unwrap(), &[4.0, 10.0]);
        assert_eq!(d.numeric_by_name("count").unwrap(), &[2.0, 1.0]);
        assert_eq!(d.numeric_by_name("max").unwrap(), &[4.0, 10.0]);
    }

    #[test]
    fn carry_forward_fills_gaps() {
        let opts = AlignOptions::default();
        let d = align(&[stream("g", Aggregation::Mean, &[(0.0, 5.0), (3.0, 9.0)])], &[], &opts)
            .unwrap();
        // Buckets 1 and 2 empty -> carry forward 5.0.
        assert_eq!(d.numeric_by_name("g").unwrap(), &[5.0, 5.0, 5.0, 9.0]);
    }

    #[test]
    fn count_streams_report_zero_for_empty_buckets() {
        let opts = AlignOptions::default();
        let d =
            align(&[stream("events", Aggregation::Count, &[(0.0, 1.0), (2.5, 1.0)])], &[], &opts)
                .unwrap();
        assert_eq!(d.numeric_by_name("events").unwrap(), &[1.0, 0.0, 1.0]);
    }

    #[test]
    fn categorical_last_wins_and_carries() {
        let opts = AlignOptions::default();
        let d = align(
            &[stream("x", Aggregation::Mean, &[(0.0, 0.0), (2.9, 0.0)])],
            &[CategoricalStream {
                name: "job".into(),
                samples: vec![(0.2, "a".into()), (0.8, "b".into())],
            }],
            &opts,
        )
        .unwrap();
        let id = d.schema().require("job").unwrap();
        let (ids, dict) = d.categorical(id).unwrap();
        let labels: Vec<&str> = ids.iter().map(|&i| dict.label(i).unwrap()).collect();
        assert_eq!(labels, vec!["b", "b", "b"]);
    }

    #[test]
    fn timestamps_align_to_bucket_starts() {
        let opts = AlignOptions { interval: 2.0, ..AlignOptions::default() };
        let d = align(&[stream("x", Aggregation::Mean, &[(3.0, 1.0), (7.9, 2.0)])], &[], &opts)
            .unwrap();
        assert_eq!(d.timestamps(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn empty_streams_rejected() {
        assert!(align(&[], &[], &AlignOptions::default()).is_err());
        assert!(matches!(
            align(&[stream("x", Aggregation::Mean, &[])], &[], &AlignOptions::default()),
            Err(TelemetryError::Empty(_))
        ));
    }

    #[test]
    fn nonpositive_interval_rejected() {
        let opts = AlignOptions { interval: 0.0, ..AlignOptions::default() };
        assert!(align(&[stream("x", Aggregation::Mean, &[(0.0, 1.0)])], &[], &opts).is_err());
    }

    fn dataset_with_timestamps(ts: &[f64]) -> Dataset {
        let schema =
            Schema::from_attrs([AttributeMeta::numeric("v"), AttributeMeta::categorical("job")])
                .unwrap();
        let mut d = Dataset::new(schema);
        for (i, &t) in ts.iter().enumerate() {
            let job = d.intern(1, if i % 2 == 0 { "a" } else { "b" }).unwrap();
            d.push_row(t, &[Value::Num(i as f64), job]).unwrap();
        }
        d
    }

    #[test]
    fn repair_sorts_and_snaps() {
        let d = dataset_with_timestamps(&[2.4, 0.1, 1.2]);
        let (r, warnings) = repair_alignment(&d, &RepairOptions::default()).unwrap();
        assert_eq!(r.timestamps(), &[0.0, 1.0, 2.0]);
        // Values follow their rows through the sort.
        assert_eq!(r.numeric(0).unwrap(), &[1.0, 2.0, 0.0]);
        assert!(warnings.iter().any(|w| matches!(w, IngestWarning::NonMonotonicTimestamp { .. })));
    }

    #[test]
    fn repair_collapses_duplicates_first_wins() {
        let d = dataset_with_timestamps(&[0.0, 1.0, 1.1, 2.0]);
        let (r, warnings) = repair_alignment(&d, &RepairOptions::default()).unwrap();
        assert_eq!(r.timestamps(), &[0.0, 1.0, 2.0]);
        assert_eq!(r.numeric(0).unwrap(), &[0.0, 1.0, 3.0]);
        assert_eq!(
            warnings.iter().filter(|w| matches!(w, IngestWarning::SkippedRow { .. })).count(),
            1
        );
    }

    #[test]
    fn repair_drops_garbage_timestamps() {
        let d = dataset_with_timestamps(&[0.0, f64::NAN, 2.0, f64::INFINITY]);
        let (r, warnings) = repair_alignment(&d, &RepairOptions::default()).unwrap();
        assert_eq!(r.timestamps(), &[0.0, 2.0]);
        assert_eq!(warnings.len(), 2);
    }

    #[test]
    fn repair_of_all_garbage_yields_empty_dataset() {
        let d = dataset_with_timestamps(&[f64::NAN, f64::NAN]);
        let (r, _) = repair_alignment(&d, &RepairOptions::default()).unwrap();
        assert_eq!(r.n_rows(), 0);
    }

    #[test]
    fn repair_preserves_categorical_labels() {
        let d = dataset_with_timestamps(&[3.0, 1.0, 2.0]);
        let (r, _) = repair_alignment(&d, &RepairOptions::default()).unwrap();
        let (ids, dict) = r.categorical(1).unwrap();
        let labels: Vec<&str> = ids.iter().map(|&i| dict.label(i).unwrap()).collect();
        // Original rows 0/1/2 had labels a/b/a; sorted order is rows 1, 2, 0.
        assert_eq!(labels, vec!["b", "a", "a"]);
    }

    #[test]
    fn repair_without_snapping_keeps_exact_times() {
        let d = dataset_with_timestamps(&[1.5, 0.4]);
        let opts = RepairOptions { snap_to_grid: false, ..RepairOptions::default() };
        let (r, _) = repair_alignment(&d, &opts).unwrap();
        assert_eq!(r.timestamps(), &[0.4, 1.5]);
    }
}
