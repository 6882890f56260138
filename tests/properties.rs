//! Property-based tests over the core invariants (proptest).

use dbsherlock::core::filter::filter_partitions;
use dbsherlock::core::{
    generate_predicates, merge_predicates, partition_separation_power, separation_power,
    PartitionLabel, PartitionSpace, Predicate, SherlockParams,
};
use dbsherlock::telemetry::faults::{FaultKind, FaultPlan};
use dbsherlock::telemetry::{
    from_csv_lossy, stats, to_csv, AttributeMeta, Dataset, Region, Schema, Value,
};
use proptest::prelude::*;

fn dataset_from(values: &[f64]) -> Dataset {
    let schema = Schema::from_attrs([AttributeMeta::numeric("x")]).unwrap();
    let mut d = Dataset::new(schema);
    for (i, &v) in values.iter().enumerate() {
        d.push_row(i as f64, &[Value::Num(v)]).unwrap();
    }
    d
}

/// A two-numeric-column dataset with the 1 Hz timestamps every scenario
/// trace uses (row `i` stamped `i`).
fn two_column_dataset(a: &[f64], b: &[f64]) -> Dataset {
    let schema =
        Schema::from_attrs([AttributeMeta::numeric("a"), AttributeMeta::numeric("b")]).unwrap();
    let mut d = Dataset::new(schema);
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        d.push_row(i as f64, &[Value::Num(x), Value::Num(y)]).unwrap();
    }
    d
}

proptest! {
    /// Every finite value lands in exactly one partition, inside bounds.
    #[test]
    fn partition_space_covers_all_values(
        values in proptest::collection::vec(-1e6_f64..1e6, 2..200),
        r in 1usize..500,
    ) {
        let d = dataset_from(&values);
        if let Some(space) = PartitionSpace::build(&d, 0, r) {
            prop_assert_eq!(space.len(), r);
            for &v in &values {
                let j = space.index_of_num(v).unwrap();
                prop_assert!(j < r);
                let lb = space.lower_bound(j).unwrap();
                let ub = space.upper_bound(j).unwrap();
                // Containment up to float rounding at partition edges.
                let w = space.width().unwrap();
                prop_assert!(v >= lb - w * 1e-9 && v <= ub + w * 1e-9);
            }
        }
    }

    /// Separation power is always within [-1, 1] and antisymmetric under
    /// region swap.
    #[test]
    fn separation_power_bounded_and_antisymmetric(
        values in proptest::collection::vec(0.0_f64..100.0, 10..120),
        cut in 1usize..9,
        threshold in 0.0_f64..100.0,
    ) {
        let d = dataset_from(&values);
        let split = values.len() * cut / 10;
        let a = Region::from_range(0..split.max(1));
        let b = a.complement(values.len());
        prop_assume!(!b.is_empty());
        let p = Predicate::gt("x", threshold);
        let sp_ab = separation_power(&p, &d, &a, &b);
        let sp_ba = separation_power(&p, &d, &b, &a);
        prop_assert!((-1.0..=1.0).contains(&sp_ab));
        prop_assert!((sp_ab + sp_ba).abs() < 1e-12);
    }

    /// Filtering only ever erases labels (never invents or flips them),
    /// and is idempotent after one round on already-clean data.
    #[test]
    fn filtering_only_erases(labels_raw in proptest::collection::vec(0u8..3, 0..64)) {
        let labels: Vec<PartitionLabel> = labels_raw.iter().map(|&x| match x {
            0 => PartitionLabel::Empty,
            1 => PartitionLabel::Normal,
            _ => PartitionLabel::Abnormal,
        }).collect();
        let filtered = filter_partitions(&labels);
        prop_assert_eq!(filtered.len(), labels.len());
        for (before, after) in labels.iter().zip(&filtered) {
            prop_assert!(*after == *before || *after == PartitionLabel::Empty);
        }
    }

    /// Merging two same-direction numeric predicates yields a predicate
    /// implied by either input (union of matched regions).
    #[test]
    fn merged_predicate_is_a_superset(
        x in -1e3_f64..1e3,
        y in -1e3_f64..1e3,
        probe in -2e3_f64..2e3,
        upward in proptest::bool::ANY,
    ) {
        let (a, b) = if upward {
            (Predicate::gt("v", x), Predicate::gt("v", y))
        } else {
            (Predicate::lt("v", x), Predicate::lt("v", y))
        };
        let merged = merge_predicates(&a, &b).unwrap();
        if a.op.matches_num(probe) || b.op.matches_num(probe) {
            prop_assert!(merged.op.matches_num(probe));
        }
    }

    /// Region perturbation stays within bounds and keeps ordering.
    #[test]
    fn region_perturb_invariants(
        start in 0usize..100,
        width in 1usize..50,
        fraction in -0.9_f64..0.9,
    ) {
        let n = 200usize;
        let end = (start + width).min(n);
        prop_assume!(start < end);
        let region = Region::from_range(start..end);
        let perturbed = region.perturb(fraction, n);
        prop_assert!(!perturbed.is_empty());
        if let Some(&max) = perturbed.indices().last() {
            prop_assert!(max < n);
        }
        // Growing keeps all original rows.
        if fraction >= 0.0 {
            for &row in region.indices() {
                prop_assert!(perturbed.contains(row));
            }
        }
    }

    /// Normalization (Eq. 2) maps into [0, 1] and preserves order.
    #[test]
    fn normalization_into_unit_interval(
        values in proptest::collection::vec(-1e9_f64..1e9, 2..100),
    ) {
        let normalized = stats::normalize_slice(&values);
        prop_assert_eq!(normalized.len(), values.len());
        for &v in &normalized {
            prop_assert!((0.0..=1.0).contains(&v));
        }
        for i in 0..values.len() {
            for j in 0..values.len() {
                if values[i] < values[j] {
                    prop_assert!(normalized[i] <= normalized[j] + 1e-12);
                }
            }
        }
    }

    /// Generated predicates always satisfy the SP floor and θ gate, on any
    /// step-shaped random data.
    #[test]
    fn generated_predicates_respect_gates(
        base in 1.0_f64..100.0,
        jump in 1.5_f64..10.0,
        seedish in 0u64..1000,
    ) {
        let values: Vec<f64> = (0..80).map(|i| {
            let wiggle = (((i as u64 * 31 + seedish) % 17) as f64) / 17.0;
            if (50..70).contains(&i) { base * jump + wiggle } else { base + wiggle }
        }).collect();
        let d = dataset_from(&values);
        let abnormal = Region::from_range(50..70);
        let normal = abnormal.complement(80);
        let params = SherlockParams::default();
        for generated in generate_predicates(&d, &abnormal, &normal, &params) {
            prop_assert!(generated.separation_power >= params.min_separation_power());
            prop_assert!(generated.normalized_diff > params.theta());
        }
    }

    /// Lossy ingestion is the identity on clean CSV: `from_csv_lossy ∘
    /// to_csv` reproduces every row and value with zero warnings
    /// (`write_num` uses shortest-round-trip float formatting).
    #[test]
    fn lossy_ingest_round_trips_clean_csv(
        a in proptest::collection::vec(-1e12_f64..1e12, 1..80),
        b in proptest::collection::vec(-1e-3_f64..1e-3, 1..80),
    ) {
        let n = a.len().min(b.len());
        let d = two_column_dataset(&a[..n], &b[..n]);
        let (back, warnings) = from_csv_lossy(&to_csv(&d)).unwrap();
        prop_assert!(warnings.is_empty(), "clean input warned: {:?}", warnings);
        prop_assert_eq!(back.n_rows(), d.n_rows());
        prop_assert_eq!(back.schema().len(), d.schema().len());
        prop_assert_eq!(back.timestamps(), d.timestamps());
        for attr_id in 0..d.schema().len() {
            prop_assert_eq!(
                back.numeric(attr_id).unwrap(),
                d.numeric(attr_id).unwrap()
            );
        }
    }

    /// Any single-fault plan at any intensity yields bytes that lossy
    /// ingestion survives without panicking, never producing more rows
    /// than corruption could have added (duplication at most doubles).
    #[test]
    fn lossy_ingest_survives_any_fault(
        kind_idx in 0usize..FaultKind::ALL.len(),
        intensity in 0.0_f64..=1.0,
        seed in 0u64..1_000_000_000,
        values in proptest::collection::vec(0.0_f64..1e6, 2..60),
    ) {
        let d = two_column_dataset(&values, &values);
        let plan = FaultPlan::single(FaultKind::ALL[kind_idx], intensity, seed);
        let (corrupted, report) = plan.apply_csv(&to_csv(&d));
        if intensity > 0.0 {
            let _ = report.total(); // report is well-formed even when empty
        }
        // Lossy ingestion must either salvage a dataset or return a typed
        // error (e.g. everything truncated away) — never panic.
        if let Ok((back, _warnings)) = from_csv_lossy(&corrupted) {
            prop_assert!(
                back.n_rows() <= 2 * d.n_rows(),
                "{} rows from {} originals",
                back.n_rows(),
                d.n_rows()
            );
        }
    }

    /// Partition-space separation power (the Eq. 3 term) is bounded.
    #[test]
    fn partition_sp_bounded(
        values in proptest::collection::vec(0.0_f64..100.0, 20..100),
        threshold in 0.0_f64..100.0,
    ) {
        let d = dataset_from(&values);
        let n = values.len();
        let abnormal = Region::from_range(0..n / 2);
        let normal = abnormal.complement(n);
        if let Some(space) = PartitionSpace::build(&d, 0, 50) {
            let labels = dbsherlock::core::label::label_partitions(&d, 0, &space, &abnormal, &normal);
            let p = Predicate::gt("x", threshold);
            let sp = partition_separation_power(&p, &space, &labels, &d, 0);
            prop_assert!((-1.0..=1.0).contains(&sp));
        }
    }
}
