//! Determinism suite: the parallel execution layer must be invisible in the
//! output. `explain` under `ExecPolicy::Serial` and `ExecPolicy::Threads(4)`
//! must produce bit-identical predicates, ranking, and confidences on
//! arbitrary data, and `explain_batch` must return results in case order.

use dbsherlock::core::{
    partition_separation_power, AblationFlags, LabeledSpace, PartitionLabel, PartitionSpace,
};
use dbsherlock::prelude::*;
use proptest::prelude::*;

/// A three-attribute dataset with a level shift of pseudo-random magnitude
/// in a pseudo-random window. The deterministic "wiggle" keeps values
/// distinct without needing an RNG inside the property.
fn dataset_from(base: f64, jump: f64, shift_at: usize, seedish: u64) -> (Dataset, Region) {
    let schema = Schema::from_attrs([
        AttributeMeta::numeric("shifty"),
        AttributeMeta::numeric("drifty"),
        AttributeMeta::numeric("steady"),
    ])
    .unwrap();
    let mut d = Dataset::new(schema);
    let shift = shift_at..(shift_at + 20);
    for i in 0..100usize {
        let wiggle = (((i as u64).wrapping_mul(37).wrapping_add(seedish)) % 23) as f64 / 23.0;
        let shifty = if shift.contains(&i) { base * jump } else { base } + wiggle;
        let drifty = base + i as f64 * 0.01 + wiggle * 0.5;
        let steady = 42.0 + wiggle;
        d.push_row(i as f64, &[Value::Num(shifty), Value::Num(drifty), Value::Num(steady)])
            .unwrap();
    }
    (d, Region::from_indices(shift))
}

/// An engine with enough stored models for ranking to matter, at the given
/// execution policy.
fn engine(exec: ExecPolicy, d: &Dataset, abnormal: &Region) -> Sherlock {
    let params = SherlockParams::builder().exec(exec).build().unwrap();
    let mut sherlock = Sherlock::new(params);
    let explanation = sherlock.explain(d, abnormal, None);
    sherlock.feedback("true cause", &explanation.predicates);
    sherlock.feedback("same predicates, later name", &explanation.predicates);
    sherlock.feedback("also tied", &explanation.predicates);
    sherlock
}

/// Ranked causes with bit-exact confidences: `(cause, confidence.to_bits())`.
type CauseBits = Vec<(String, u64)>;

/// Everything observable about an explanation, bit-exact (confidences via
/// `to_bits`, so `-0.0` vs `0.0` or any ULP drift would be caught).
fn observe(e: &Explanation) -> (String, CauseBits, CauseBits) {
    let bits = |causes: &[RankedCause]| {
        causes.iter().map(|c| (c.cause.clone(), c.confidence.to_bits())).collect::<Vec<_>>()
    };
    (e.predicates_display(), bits(&e.causes), bits(&e.all_causes))
}

/// Mixed-kind dataset for the columnar/scalar parity properties: a clean
/// shifting attribute, a NaN-salted noisy attribute, and a categorical
/// attribute that leans "bad" inside the shift window (so numeric,
/// non-finite, and dictionary code paths are all on the diffed path).
fn mixed_dataset_from(
    base: f64,
    jump: f64,
    shift_at: usize,
    seedish: u64,
    nan_every: usize,
) -> (Dataset, Region) {
    let schema = Schema::from_attrs([
        AttributeMeta::numeric("shifty"),
        AttributeMeta::numeric("noisy"),
        AttributeMeta::categorical("state"),
    ])
    .unwrap();
    let mut d = Dataset::new(schema);
    let shift = shift_at..(shift_at + 20);
    for i in 0..100usize {
        let wiggle = (((i as u64).wrapping_mul(37).wrapping_add(seedish)) % 23) as f64 / 23.0;
        let shifty = if shift.contains(&i) { base * jump } else { base } + wiggle;
        let noisy = if i % nan_every == 0 { f64::NAN } else { base + wiggle * 3.0 };
        let label = if shift.contains(&i) && i % 4 != 0 { "bad" } else { "ok" };
        let state = d.intern(2, label).unwrap();
        d.push_row(i as f64, &[Value::Num(shifty), Value::Num(noisy), state]).unwrap();
    }
    (d, Region::from_indices(shift))
}

/// Like [`dataset_from`], but the schema carries the in-band chaos trigger
/// [`dbsherlock::core::chaos::PANIC_ATTR`], so scoring any causal model
/// against the dataset panics inside the real rank stage — poisoning the
/// whole case.
fn poisoned_dataset_from(base: f64, jump: f64, shift_at: usize, seedish: u64) -> Dataset {
    let schema = Schema::from_attrs([
        AttributeMeta::numeric("shifty"),
        AttributeMeta::numeric(dbsherlock::core::chaos::PANIC_ATTR),
    ])
    .unwrap();
    let mut d = Dataset::new(schema);
    let shift = shift_at..(shift_at + 20);
    for i in 0..100usize {
        let wiggle = (((i as u64).wrapping_mul(37).wrapping_add(seedish)) % 23) as f64 / 23.0;
        let shifty = if shift.contains(&i) { base * jump } else { base } + wiggle;
        d.push_row(i as f64, &[Value::Num(shifty), Value::Num(1.0)]).unwrap();
    }
    d
}

proptest! {
    /// ISSUE 4 acceptance: a panicking case in `explain_batch` returns a
    /// per-slot error while all other cases produce bit-identical results
    /// to a clean serial run — for an arbitrary poison pattern.
    #[test]
    fn poisoned_cases_are_isolated_and_neighbours_stay_bit_identical(
        base in 1.0_f64..100.0,
        jump in 2.0_f64..10.0,
        seedish in 0u64..1000,
        poison_mask in 1u8..=255,
    ) {
        let poisoned_at = |i: usize| poison_mask & (1 << i) != 0;
        let built: Vec<(Dataset, Region)> = (0..8)
            .map(|i| {
                let (clean, region) = dataset_from(base, jump, 15 + 8 * i, seedish + i as u64);
                if poisoned_at(i) {
                    (poisoned_dataset_from(base, jump, 15 + 8 * i, seedish + i as u64), region)
                } else {
                    (clean, region)
                }
            })
            .collect();
        let cases: Vec<Case<'_>> = built.iter().map(|(d, r)| Case::new(d, r)).collect();

        // Both engines trained on the same clean dataset -> identical models.
        let (train_d, train_r) = dataset_from(base, jump, 40, seedish);
        let threaded = engine(ExecPolicy::Threads(4), &train_d, &train_r);
        let serial = engine(ExecPolicy::Serial, &train_d, &train_r);

        // The chaos panics are caught per slot; keep the default hook from
        // spamming stderr while they fire. `quiet_panics` serialises the
        // hook swap against other tests on parallel threads.
        let batch = dbsherlock::core::chaos::quiet_panics(|| threaded.explain_batch(&cases));

        for (i, result) in batch.iter().enumerate() {
            if poisoned_at(i) {
                prop_assert!(
                    matches!(result, Err(SherlockError::TaskPanicked { stage: "rank", .. })),
                    "case {}: expected TaskPanicked, got {:?}", i, result
                );
            } else {
                let (d, r) = &built[i];
                let reference = serial.try_explain(d, r, None).unwrap();
                let got = result.as_ref().unwrap();
                prop_assert_eq!(observe(got), observe(&reference), "case {}", i);
            }
        }
    }

    /// Serial and 4-thread explains are bit-identical on random data.
    #[test]
    fn explain_is_identical_across_policies(
        base in 1.0_f64..100.0,
        jump in 2.0_f64..10.0,
        shift_at in 10usize..70,
        seedish in 0u64..1000,
    ) {
        let (d, abnormal) = dataset_from(base, jump, shift_at, seedish);
        let serial = engine(ExecPolicy::Serial, &d, &abnormal);
        let threaded = engine(ExecPolicy::Threads(4), &d, &abnormal);
        let a = serial.explain(&d, &abnormal, None);
        let b = threaded.explain(&d, &abnormal, None);
        prop_assert_eq!(observe(&a), observe(&b));
    }

    /// ISSUE 8 acceptance: the columnar kernels are bit-identical to the
    /// retained row-wise scalar shim — on random mixed-kind data with
    /// NaN-riddled columns, categorical columns, and regions that clip —
    /// at both `Serial` and `Threads(4)`.
    #[test]
    fn columnar_path_is_bit_identical_to_scalar_shim(
        base in 1.0_f64..100.0,
        jump in 2.0_f64..10.0,
        shift_at in 5usize..78,
        seedish in 0u64..1000,
        nan_every in 2usize..13,
        overhang in 0usize..40,
    ) {
        let (d, abnormal) = mixed_dataset_from(base, jump, shift_at, seedish, nan_every);
        // An abnormal region reaching past the dataset must clip the same
        // way on both paths.
        let abnormal = abnormal.union(&Region::from_range(100..100 + overhang));

        for exec in [ExecPolicy::Serial, ExecPolicy::Threads(4)] {
            let sherlock = engine(exec, &d, &abnormal);
            let columnar = sherlock.try_explain(&d, &abnormal, None).unwrap();
            let scalar = sherlock.explain_scalar(&d, &abnormal, None).unwrap();
            prop_assert_eq!(observe(&columnar), observe(&scalar), "exec {:?}", exec);
        }

        // Same at the generation layer, without the façade, under every
        // Appendix D ablation and both policies.
        let normal = abnormal.clip(100).complement(100);
        for skip_filtering in [false, true] {
            for skip_filling in [false, true] {
                let ablation = AblationFlags { skip_filtering, skip_filling };
                let scalar_preds = dbsherlock::core::scalar::generate_predicates_ablated(
                    &d, &abnormal, &normal, &SherlockParams::default(), ablation,
                );
                for exec in [ExecPolicy::Serial, ExecPolicy::Threads(4)] {
                    let params = SherlockParams::default().with_exec(exec);
                    let columnar_preds = dbsherlock::core::generate_predicates_ablated(
                        &d, &abnormal, &normal, &params, ablation,
                    );
                    prop_assert_eq!(&columnar_preds, &scalar_preds, "{:?} {:?}", ablation, exec);
                }
            }
        }
    }

    /// Automatic detection is policy-independent too (potential power and
    /// the k-dist scan run on the pool).
    #[test]
    fn detect_is_identical_across_policies(
        base in 1.0_f64..100.0,
        jump in 3.0_f64..10.0,
        seedish in 0u64..1000,
    ) {
        let (d, _) = dataset_from(base, jump, 40, seedish);
        let serial = Sherlock::new(SherlockParams::default().with_exec(ExecPolicy::Serial));
        let threaded = Sherlock::new(SherlockParams::default().with_exec(ExecPolicy::Threads(4)));
        let a = serial.detect(&d);
        let b = threaded.detect(&d);
        prop_assert_eq!(a, b);
    }
}

#[test]
fn scalar_and_columnar_agree_on_degenerate_regions() {
    let (d, abnormal) = mixed_dataset_from(10.0, 5.0, 30, 7, 5);
    let sherlock = engine(ExecPolicy::Serial, &d, &abnormal);
    // Empty abnormal region: both paths refuse identically.
    let empty = Region::new();
    assert!(matches!(
        sherlock.try_explain(&d, &empty, None),
        Err(SherlockError::EmptyRegion { what: "abnormal", .. })
    ));
    assert!(matches!(
        sherlock.explain_scalar(&d, &empty, None),
        Err(SherlockError::EmptyRegion { what: "abnormal", .. })
    ));
    // Abnormal covering every row: the implicit normal complement is empty
    // on both paths.
    let everything = Region::from_range(0..100);
    assert!(matches!(
        sherlock.try_explain(&d, &everything, None),
        Err(SherlockError::EmptyRegion { what: "normal", .. })
    ));
    assert!(matches!(
        sherlock.explain_scalar(&d, &everything, None),
        Err(SherlockError::EmptyRegion { what: "normal", .. })
    ));
    // At the generation layer an empty region yields no predicates, columnar
    // and scalar alike.
    let params = SherlockParams::default();
    assert!(dbsherlock::core::generate_predicates(&d, &empty, &everything, &params).is_empty());
    assert!(
        dbsherlock::core::scalar::generate_predicates(&d, &empty, &everything, &params).is_empty()
    );
}

#[test]
fn explain_batch_preserves_input_order() {
    // Distinguishable cases: each dataset shifts at a different row, so the
    // result at index `i` is attributable to the case at index `i`.
    let built: Vec<(Dataset, Region)> =
        (0..8).map(|i| dataset_from(10.0, 5.0, 15 + 8 * i, i as u64)).collect();
    let cases: Vec<Case<'_>> = built.iter().map(|(d, r)| Case::new(d, r)).collect();

    let sherlock = Sherlock::new(SherlockParams::default().with_exec(ExecPolicy::Threads(4)));
    let batch = sherlock.explain_batch(&cases);
    assert_eq!(batch.len(), cases.len());
    for ((d, r), result) in built.iter().zip(&batch) {
        let expected = sherlock.try_explain(d, r, None).unwrap();
        let got = result.as_ref().unwrap();
        assert_eq!(observe(got), observe(&expected));
    }
}

#[test]
fn explain_batch_equals_serial_loop_bit_for_bit() {
    let built: Vec<(Dataset, Region)> =
        (0..5).map(|i| dataset_from(20.0, 4.0, 20 + 10 * i, 99 + i as u64)).collect();
    let cases: Vec<Case<'_>> = built.iter().map(|(d, r)| Case::new(d, r)).collect();

    let serial = engine(ExecPolicy::Serial, &built[0].0, &built[0].1);
    let threaded = engine(ExecPolicy::Threads(4), &built[0].0, &built[0].1);

    let looped: Vec<_> = cases
        .iter()
        .map(|c| serial.try_explain(c.dataset, c.abnormal, c.normal).unwrap())
        .collect();
    let batched = threaded.explain_batch(&cases);
    for (a, b) in looped.iter().zip(&batched) {
        assert_eq!(observe(a), observe(b.as_ref().unwrap()));
    }
}

/// Splitmix64 step: the label and threshold draws of the Eq. 3 term
/// properties, derived from one drawn seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` random partition labels; `empty_per_mille` of them `Empty`, the
/// rest split evenly between `Abnormal` and `Normal`.
fn random_labels(n: usize, empty_per_mille: u64, state: &mut u64) -> Vec<PartitionLabel> {
    (0..n)
        .map(|_| {
            let draw = splitmix(state) % 2000;
            if draw < 2 * empty_per_mille {
                PartitionLabel::Empty
            } else if draw & 1 == 0 {
                PartitionLabel::Abnormal
            } else {
                PartitionLabel::Normal
            }
        })
        .collect()
}

/// The numeric domain of shape `shape`: 0 ordinary, 1 tiny (subnormal
/// partition widths, so neighbouring midpoints tie), 2 huge (width near
/// `f64::MAX`), 3 all-negative, 4 symmetric about zero.
fn numeric_domain(shape: usize, a: f64, b: f64) -> (f64, f64) {
    match shape {
        0 => (a * 1000.0, a * 1000.0 + (b + 1e-3) * 1000.0),
        1 => (a * 1e-300, a * 1e-300 + (b + 1e-3) * 1e-305),
        2 => (-(b + 0.1) * 8e307, (a.abs() + 0.1) * 8e307),
        3 => (-1e6 * (1.0 + b), -1e6 * (1.0 + b) + (a.abs() + 1e-3) * 1e3),
        _ => (-(b + 1e-3), b + 1e-3),
    }
}

/// Thresholds for numeric ops over `space`: partition midpoints (exact
/// ties with the satisfaction test), their neighbouring floats, the
/// domain ends, signed zeros, infinities and NaN.
fn thresholds(space: &PartitionSpace, state: &mut u64) -> Vec<f64> {
    let n = space.len();
    let mut out = vec![0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    if let PartitionSpace::Numeric { min, max, .. } = *space {
        out.extend([min, max]);
    }
    for _ in 0..6 {
        let j = (splitmix(state) % n as u64) as usize;
        let m = space.midpoint(j).unwrap();
        out.extend([m, f64::from_bits(m.to_bits().wrapping_add(1)), -m]);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The shared Eq. 3 term over a `LabeledSpace` (binary search over
    /// midpoints, prefix counts) is bit-identical to the scalar oracle's
    /// per-partition loop, for every op kind — including ops whose kind
    /// does not match the space.
    #[test]
    fn labeled_space_term_is_bit_identical_to_scalar_oracle(
        r in 1usize..=1000,
        shape in 0usize..5,
        a in -1.0_f64..1.0,
        b in 0.0_f64..1.0,
        empty_per_mille in 0u64..=1000,
        seed in 0u64..u64::MAX,
    ) {
        use dbsherlock::core::scalar;
        let mut state = seed;
        let (min, max) = numeric_domain(shape, a, b);
        let space = PartitionSpace::from_numeric_range(Some((min, max)), r);
        prop_assume!(space.is_some());
        let space = space.unwrap();
        let labels = random_labels(space.len(), empty_per_mille, &mut state);
        let labeled = LabeledSpace::new(space.clone(), labels.clone());
        let d = Dataset::new(Schema::from_attrs([AttributeMeta::numeric("x")]).unwrap());

        let cuts = thresholds(&space, &mut state);
        let mut ops: Vec<PredicateOp> = vec![PredicateOp::InSet(vec!["x".into()])];
        for (i, &x) in cuts.iter().enumerate() {
            ops.push(PredicateOp::Gt(x));
            ops.push(PredicateOp::Lt(x));
            let y = cuts[(splitmix(&mut state) as usize) % cuts.len()];
            ops.push(PredicateOp::Between(x, y));
            ops.push(PredicateOp::Between(y, x));
            ops.push(PredicateOp::Between(x, cuts[(i + 1) % cuts.len()]));
            ops.push(PredicateOp::Between(x, x));
        }
        for op in ops {
            let pred = Predicate { attr: "x".into(), op };
            let oracle = scalar::partition_separation_power(&pred, &space, &labels, &d, 0);
            let indexed = labeled.separation_power(&pred.op, None);
            let wrapped = partition_separation_power(&pred, &space, &labels, &d, 0);
            prop_assert_eq!(indexed.to_bits(), oracle.to_bits(), "{:?} over {:?}", pred.op, space);
            prop_assert_eq!(wrapped.to_bits(), oracle.to_bits(), "{:?} over {:?}", pred.op, space);
        }
    }

    /// Same for categorical spaces: `InSet` terms resolve through the
    /// dictionary, numeric ops on a categorical space satisfy nothing.
    #[test]
    fn categorical_term_is_bit_identical_to_scalar_oracle(
        n in 1usize..40,
        empty_per_mille in 0u64..=1000,
        seed in 0u64..u64::MAX,
    ) {
        use dbsherlock::core::scalar;
        let mut state = seed;
        let mut d = Dataset::new(Schema::from_attrs([AttributeMeta::categorical("c")]).unwrap());
        for k in 0..n {
            let id = d.intern(0, &format!("c{k}")).unwrap();
            d.push_row(k as f64, &[id]).unwrap();
        }
        let space = PartitionSpace::build(&d, 0, 250).unwrap();
        let labels = random_labels(space.len(), empty_per_mille, &mut state);
        let labeled = LabeledSpace::new(space.clone(), labels.clone());
        let dict = d.categorical(0).ok().map(|(_, dict)| dict);

        let mut ops = vec![
            PredicateOp::InSet(Vec::new()),
            PredicateOp::InSet(vec!["not a category".into()]),
            PredicateOp::Gt(0.5),
            PredicateOp::Lt(f64::INFINITY),
            PredicateOp::Between(f64::NEG_INFINITY, f64::INFINITY),
        ];
        for _ in 0..4 {
            let set = (0..n)
                .filter(|_| splitmix(&mut state) % 3 == 1)
                .map(|k| format!("c{k}"))
                .collect();
            ops.push(PredicateOp::InSet(set));
        }
        for op in ops {
            let pred = Predicate { attr: "c".into(), op };
            let oracle = scalar::partition_separation_power(&pred, &space, &labels, &d, 0);
            let indexed = labeled.separation_power(&pred.op, dict);
            let wrapped = partition_separation_power(&pred, &space, &labels, &d, 0);
            prop_assert_eq!(indexed.to_bits(), oracle.to_bits(), "{:?}", pred.op);
            prop_assert_eq!(wrapped.to_bits(), oracle.to_bits(), "{:?}", pred.op);
        }
    }
}

/// A random §7 detection input: `rows` rows of `attrs` numeric attributes,
/// each drawn from `state` as one of four shapes — a noisy level shift over
/// a random block, a constant column, pure noise, or a two-valued step (no
/// noise, so rows repeat exactly and the detector sees duplicate points).
fn detection_dataset(rows: usize, attrs: usize, state: &mut u64) -> Dataset {
    let names: Vec<String> = (0..attrs).map(|a| format!("a{a}")).collect();
    let schema = Schema::from_attrs(names.iter().map(AttributeMeta::numeric)).unwrap();
    let shift_len = 1 + (splitmix(state) % (rows as u64 / 6)) as usize;
    let shift_at = (splitmix(state) % (rows - shift_len + 1) as u64) as usize;
    let shifted = |r: usize| (shift_at..shift_at + shift_len).contains(&r);
    let columns: Vec<Vec<f64>> = (0..attrs)
        .map(|_| {
            let shape = splitmix(state) % 4;
            let base = (splitmix(state) % 1000) as f64 / 10.0;
            let jump = (splitmix(state) % 200) as f64 - 100.0;
            (0..rows)
                .map(|r| {
                    let noise = (splitmix(state) % 1000) as f64 / 100.0;
                    let step = if shifted(r) { jump } else { 0.0 };
                    match shape {
                        0 => base + step + noise,
                        1 => base,
                        2 => base + noise,
                        _ => base + step,
                    }
                })
                .collect()
        })
        .collect();
    let mut d = Dataset::new(schema);
    for r in 0..rows {
        let row: Vec<Value> = columns.iter().map(|c| Value::Num(c[r])).collect();
        d.push_row(r as f64, &row).unwrap();
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The shared-matrix detector (sliding-window potential power with an
    /// early exit, selection-based k-dist, DBSCAN from the matrix) returns
    /// exactly the detection of the scalar oracle, and every column's
    /// potential power is bit-identical to the oracle's — including
    /// constant columns, duplicate points and `τ` longer than the series.
    #[test]
    fn detection_is_bit_identical_to_scalar_oracle(
        rows in 20usize..=700,
        attrs in 1usize..=12,
        tau in 1usize..=48,
        threaded in any::<bool>(),
        seed in 0u64..u64::MAX,
    ) {
        use dbsherlock::core::{potential_power, scalar, try_detect_anomaly, ArmedBudget};
        let mut state = seed;
        let d = detection_dataset(rows, attrs, &mut state);
        // One draw in six runs a window longer than the series.
        let tau = if tau > 40 { rows + 1 } else { tau };
        let exec = if threaded { ExecPolicy::Threads(2) } else { ExecPolicy::Serial };
        let params = SherlockParams::builder().tau(tau).exec(exec).build().unwrap();
        for attr in 0..attrs {
            let normalized = dbsherlock::telemetry::stats::normalize_slice(d.numeric(attr).unwrap());
            prop_assert_eq!(
                potential_power(&normalized, tau).to_bits(),
                scalar::potential_power(&normalized, tau).to_bits(),
                "attribute {}", attr
            );
        }
        let fast = try_detect_anomaly(&d, &params, &ArmedBudget::unlimited()).unwrap();
        prop_assert_eq!(fast, scalar::detect_anomaly(&d, &params));
    }

    /// The early exit never changes the selection: a scan stopped at the
    /// first window past `t` is above `t` exactly when the full potential
    /// power is, for thresholds at, just around, and away from the oracle's
    /// value.
    #[test]
    fn early_exit_agrees_with_full_potential_power(
        rows in 20usize..=300,
        tau in 1usize..=40,
        t in 0.0_f64..1.0,
        seed in 0u64..u64::MAX,
    ) {
        use dbsherlock::core::{scalar, window_medians};
        let mut state = seed;
        let d = detection_dataset(rows, 1, &mut state);
        let x = dbsherlock::telemetry::stats::normalize_slice(d.numeric(0).unwrap());
        let oracle = scalar::potential_power(&x, tau);
        let around = [
            t,
            oracle,
            f64::from_bits(oracle.to_bits().wrapping_sub(1)),
            f64::from_bits(oracle.to_bits() + 1),
            0.0,
        ];
        for threshold in around {
            prop_assert_eq!(
                window_medians(&x, tau, threshold) > threshold,
                oracle > threshold,
                "t = {}, oracle = {}", threshold, oracle
            );
        }
    }
}
