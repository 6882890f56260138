//! Property-based tests for the telemetry substrate.

use dbsherlock_telemetry::{
    from_csv, parse_line_lossy, split_line, stats, to_csv, AttributeKind, AttributeMeta, Dataset,
    IngestWarning, RawCell, Region, Schema, Value,
};
use proptest::prelude::*;
use std::num::FpCategory;

fn finite_f64() -> impl Strategy<Value = f64> {
    // Avoid exotic values whose Display/parse round-trip is lossy by
    // construction (NaN/∞); everything finite must survive CSV.
    prop::num::f64::NORMAL | prop::num::f64::ZERO | prop::num::f64::NEGATIVE
}

proptest! {
    /// CSV round-trips arbitrary numeric data and arbitrary labels.
    #[test]
    fn csv_round_trip(
        rows in proptest::collection::vec((finite_f64(), "[a-z,\"\\PC]{0,12}"), 0..40),
    ) {
        let schema = Schema::from_attrs([
            AttributeMeta::numeric("x"),
            AttributeMeta::categorical("label"),
        ]).unwrap();
        let mut d = Dataset::new(schema);
        for (i, (x, label)) in rows.iter().enumerate() {
            let label = label.replace(['\n', '\r'], "_");
            let v = d.intern(1, &label).unwrap();
            d.push_row(i as f64, &[Value::Num(*x), v]).unwrap();
        }
        let text = to_csv(&d);
        let back = from_csv(&text).unwrap();
        prop_assert_eq!(back.n_rows(), d.n_rows());
        prop_assert_eq!(back.numeric(0).unwrap(), d.numeric(0).unwrap());
        for row in 0..d.n_rows() {
            let (ids_a, dict_a) = d.categorical(1).unwrap();
            let (ids_b, dict_b) = back.categorical(1).unwrap();
            prop_assert_eq!(dict_a.label(ids_a[row]), dict_b.label(ids_b[row]));
        }
    }

    /// Region algebra: complement is an involution partitioning 0..n.
    #[test]
    fn region_complement_partitions(
        indices in proptest::collection::btree_set(0usize..300, 0..120),
        n in 300usize..400,
    ) {
        let region = Region::from_indices(indices.iter().copied());
        let complement = region.complement(n);
        prop_assert_eq!(region.len() + complement.len(), n);
        prop_assert!(region.intersect(&complement).is_empty());
        prop_assert_eq!(complement.complement(n), region.clone());
        prop_assert_eq!(region.union(&complement).len(), n);
        // IoU of disjoint non-empty regions is 0; of a region with itself is 1.
        if !region.is_empty() {
            prop_assert!((region.iou(&region) - 1.0).abs() < 1e-12);
            prop_assert_eq!(region.iou(&complement), 0.0);
        }
    }

    /// Intervals reconstruct the region exactly.
    #[test]
    fn intervals_reconstruct(indices in proptest::collection::btree_set(0usize..200, 0..80)) {
        let region = Region::from_indices(indices.iter().copied());
        let rebuilt = Region::from_ranges(region.intervals());
        prop_assert_eq!(rebuilt, region);
    }

    /// Median is order-insensitive and lies within [min, max].
    #[test]
    fn median_properties(mut values in proptest::collection::vec(-1e6_f64..1e6, 1..80)) {
        let m = stats::median(&values);
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo && m <= hi);
        values.reverse();
        prop_assert!((stats::median(&values) - m).abs() < 1e-9);
    }

    /// quantile_sorted agrees with quantile on sorted input.
    #[test]
    fn quantile_sorted_matches(
        mut values in proptest::collection::vec(-1e6_f64..1e6, 1..60),
        q in 0.0_f64..1.0,
    ) {
        let expected = stats::quantile(&values, q);
        values.sort_by(f64::total_cmp);
        let got = stats::quantile_sorted(&values, q);
        prop_assert!((got - expected).abs() < 1e-9);
    }

    /// Entropy is non-negative and maximal for uniform counts.
    #[test]
    fn entropy_bounds(counts in proptest::collection::vec(0usize..100, 1..30)) {
        let h = stats::entropy_of_counts(&counts);
        prop_assert!(h >= 0.0);
        let nonzero = counts.iter().filter(|&&c| c > 0).count();
        if nonzero > 0 {
            prop_assert!(h <= (nonzero as f64).ln() + 1e-9);
        }
    }

    /// The independence factor is in [0, 1] for any joint histogram.
    #[test]
    fn kappa_in_unit_interval(
        joint in proptest::collection::vec(
            proptest::collection::vec(0usize..50, 4),
            4,
        ),
    ) {
        let kappa = stats::independence_factor(&joint);
        prop_assert!((0.0..=1.0).contains(&kappa), "kappa {kappa}");
    }
}

/// Oracle: the char-at-a-time CSV splitter `split_line` replaced. It
/// builds one owned field per cell; `Err(())` is an unterminated quote.
fn oracle_split_line(line: &str) -> Result<Vec<String>, ()> {
    let mut fields = Vec::new();
    let mut current = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(ch) = chars.next() {
        match (in_quotes, ch) {
            (false, ',') => fields.push(std::mem::take(&mut current)),
            (false, '"') if current.is_empty() => in_quotes = true,
            (false, c) => current.push(c),
            (true, '"') => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    current.push('"');
                } else {
                    in_quotes = false;
                }
            }
            (true, c) => current.push(c),
        }
    }
    if in_quotes {
        return Err(());
    }
    fields.push(current);
    Ok(fields)
}

/// Oracle: `parse_line_lossy` over [`oracle_split_line`]'s owned fields,
/// as it read before fields were borrowed.
fn oracle_parse_line_lossy(
    schema: &Schema,
    line: &str,
    line_no: usize,
    warnings: &mut Vec<IngestWarning>,
) -> Option<(f64, Vec<RawCell>)> {
    let Ok(mut fields) = oracle_split_line(line) else {
        warnings.push(IngestWarning::TruncatedInput { line: line_no });
        return None;
    };
    let expected = schema.len() + 1;
    if fields.len() != expected {
        warnings.push(IngestWarning::ArityRepair { line: line_no, expected, found: fields.len() });
        fields.resize(expected, String::new());
    }
    let ts_text = fields[0].as_str();
    let timestamp = match ts_text.trim().parse::<f64>() {
        Ok(t) if t.is_finite() => t,
        _ => {
            warnings.push(IngestWarning::SkippedRow {
                line: line_no,
                reason: format!("unusable timestamp {ts_text:?}"),
            });
            return None;
        }
    };
    let mut cells = Vec::new();
    for (attr_id, field) in fields.iter().skip(1).enumerate() {
        let meta = schema.attr(attr_id);
        let cell = match meta.kind {
            AttributeKind::Numeric => match field.trim().parse::<f64>() {
                Ok(v) => {
                    if !v.is_finite() {
                        warnings.push(IngestWarning::NonFiniteCell {
                            line: line_no,
                            attribute: meta.name.clone(),
                        });
                    }
                    RawCell::Num(v)
                }
                Err(_) => {
                    warnings.push(IngestWarning::RepairedCell {
                        line: line_no,
                        attribute: meta.name.clone(),
                        reason: if field.trim().is_empty() {
                            "empty cell".to_string()
                        } else {
                            format!("invalid number {field:?}")
                        },
                    });
                    RawCell::Num(f64::NAN)
                }
            },
            AttributeKind::Categorical if field.is_empty() => {
                warnings.push(IngestWarning::RepairedCell {
                    line: line_no,
                    attribute: meta.name.clone(),
                    reason: "empty cell".to_string(),
                });
                RawCell::Label("<missing>".to_string())
            }
            AttributeKind::Categorical => RawCell::Label(field.clone()),
        };
        cells.push(cell);
    }
    Some((timestamp, cells))
}

/// Oracle: the row-wise `to_csv` writer, one formatted `String` per
/// numeric cell, reading the `numeric`/`categorical` slices.
fn oracle_to_csv(d: &Dataset) -> String {
    fn fmt_num(v: f64) -> String {
        if v.is_finite() && v == v.trunc() && v.abs() < 1e15 {
            format!("{}", v as i64)
        } else {
            format!("{v}")
        }
    }
    fn write_field(out: &mut String, field: &str) {
        if field.contains([',', '"', '\n', '\r']) {
            out.push('"');
            out.push_str(&field.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(field);
        }
    }
    let mut out = String::from("timestamp");
    for (_, attr) in d.schema().iter() {
        out.push(',');
        write_field(&mut out, &format!("{}:{}", attr.name, attr.kind.tag()));
    }
    out.push('\n');
    for row in 0..d.n_rows() {
        out.push_str(&fmt_num(d.timestamps()[row]));
        for (attr_id, attr) in d.schema().iter() {
            out.push(',');
            match attr.kind {
                AttributeKind::Numeric => out.push_str(&fmt_num(d.numeric(attr_id).unwrap()[row])),
                AttributeKind::Categorical => {
                    let (ids, dict) = d.categorical(attr_id).unwrap();
                    write_field(&mut out, dict.label(ids[row]).unwrap());
                }
            }
        }
        out.push('\n');
    }
    out
}

/// The characters that steer the splitter: separators, quotes, number
/// pieces, whitespace and a multi-byte letter.
const LINE_CHARS: [char; 9] = ['a', '1', '.', '-', ' ', '\t', ',', '"', 'é'];

/// A line of [`LINE_CHARS`] picks. A stamped line opens with a parseable
/// timestamp so the per-cell repairs get exercised.
fn csv_line(picks: &[usize], stamped: bool) -> String {
    let body = picks.iter().filter_map(|&i| LINE_CHARS.get(i));
    if stamped {
        "1,".chars().chain(body.copied()).collect()
    } else {
        body.collect()
    }
}

/// Raw draws for one [`csv_number`].
type NumberDraw = (usize, f64, f64, u64, i64, bool);

fn number_draw() -> impl Strategy<Value = NumberDraw> {
    (
        0usize..7,
        -2e15_f64..2e15,
        prop::num::f64::ANY,
        0u64..(1 << 52),
        -(1i64 << 62)..(1 << 62),
        any::<bool>(),
    )
}

/// A number at the edges of `to_csv`'s integer/shortest-float rule:
/// small integers, integers around 1e15, wide uniform values,
/// subnormals, arbitrary finite values, big integers and specials.
fn csv_number((kind, uniform, finite, mantissa, int, negative): NumberDraw) -> f64 {
    const SPECIALS: [f64; 9] = [
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        f64::MIN_POSITIVE,
        1e16,
        -1e15,
    ];
    let sign = if negative { -1.0 } else { 1.0 };
    match kind {
        0 => (int % 1000) as f64,
        1 => sign * (1e15 + (int % 3) as f64),
        2 => uniform,
        3 => sign * f64::from_bits(mantissa),
        4 => finite,
        5 => int as f64,
        _ => SPECIALS[int.unsigned_abs() as usize % SPECIALS.len()],
    }
}

proptest! {
    /// The borrowing splitter yields the oracle's fields, and fails
    /// exactly where the oracle finds an unterminated quote.
    #[test]
    fn split_line_matches_char_oracle(
        picks in proptest::collection::vec(0usize..LINE_CHARS.len(), 0..40),
        stamped in any::<bool>(),
    ) {
        let line = csv_line(&picks, stamped);
        let fields = split_line(&line, 1)
            .map(|fields| fields.iter().map(|f| f.to_string()).collect::<Vec<_>>())
            .map_err(|_| ());
        prop_assert_eq!(fields, oracle_split_line(&line), "line {:?}", line);
    }

    /// Lossy row parsing over borrowed fields gives the oracle's numbers
    /// (bit for bit), labels and warnings.
    #[test]
    fn parse_line_lossy_matches_oracle(
        picks in proptest::collection::vec(0usize..LINE_CHARS.len(), 0..40),
        stamped in any::<bool>(),
    ) {
        let line = csv_line(&picks, stamped);
        let schema = Schema::from_attrs([
            AttributeMeta::numeric("x"),
            AttributeMeta::categorical("job"),
            AttributeMeta::numeric("y"),
        ]).unwrap();
        let (mut got_warnings, mut want_warnings) = (Vec::new(), Vec::new());
        let got = parse_line_lossy(&schema, &line, 7, &mut got_warnings);
        let want = oracle_parse_line_lossy(&schema, &line, 7, &mut want_warnings);
        prop_assert_eq!(got_warnings, want_warnings, "line {:?}", line);
        prop_assert_eq!(got.is_some(), want.is_some(), "line {:?}", line);
        if let (Some((got_ts, got_cells)), Some((want_ts, want_cells))) = (got, want) {
            prop_assert_eq!(got_ts.to_bits(), want_ts.to_bits());
            prop_assert_eq!(got_cells.len(), want_cells.len());
            for (got, want) in got_cells.iter().zip(&want_cells) {
                match (got, want) {
                    (RawCell::Num(a), RawCell::Num(b)) => prop_assert_eq!(a.to_bits(), b.to_bits()),
                    (RawCell::Label(a), RawCell::Label(b)) => prop_assert_eq!(a, b),
                    _ => prop_assert!(false, "cell kinds differ: {:?} vs {:?}", got, want),
                }
            }
        }
    }

    /// The columnar `to_csv` is byte-identical to the row-wise oracle over
    /// mixed schemas, edge-case numbers and labels that need quoting.
    #[test]
    fn to_csv_matches_row_oracle(
        kinds in proptest::collection::vec(any::<bool>(), 1..5),
        rows in proptest::collection::vec(
            (number_draw(), proptest::collection::vec((number_draw(), "[a-z,\"é ]{0,6}"), 5)),
            0..12,
        ),
    ) {
        let schema = Schema::from_attrs(kinds.iter().enumerate().map(|(i, &numeric)| {
            if numeric {
                AttributeMeta::numeric(format!("n{i}"))
            } else {
                AttributeMeta::categorical(format!("c,\"{i}"))
            }
        })).unwrap();
        let mut d = Dataset::new(schema);
        for (timestamp, cells) in &rows {
            let mut values = Vec::new();
            for (attr_id, (&numeric, (num, label))) in kinds.iter().zip(cells).enumerate() {
                values.push(if numeric {
                    Value::Num(csv_number(*num))
                } else {
                    d.intern(attr_id, label).unwrap()
                });
            }
            d.push_row(csv_number(*timestamp), &values).unwrap();
        }
        prop_assert_eq!(to_csv(&d), oracle_to_csv(&d));
    }
}

/// The values where a min/max fold can go wrong: signed zeros, NaN, ±∞,
/// subnormals and the extremes.
const RANGE_EDGES: [f64; 9] = [
    0.0,
    -0.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MIN_POSITIVE / 4.0,
    -f64::MIN_POSITIVE / 4.0,
    f64::MIN,
    f64::MAX,
];

/// The serial fold `finite_range` must equal: finite values in column
/// order, reduced with `f64::min`/`f64::max`.
fn serial_finite_range(values: &[f64]) -> Option<(f64, f64)> {
    let mut it = values.iter().copied().filter(|v| v.is_finite());
    let first = it.next()?;
    let (mut lo, mut hi) = (first, first);
    for v in it {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    Some((lo, hi))
}

proptest! {
    /// The lane-parallel range fold behind `Dataset::numeric_range` and
    /// the snapshot cache equals the serial fold bit for bit, zero signs
    /// included, at every column length from empty to three full
    /// eight-lane chunks plus the longest remainder. Each column is also
    /// checked with its non-zero values made positive, then negative, so
    /// that a zero is often the minimum or the maximum.
    #[test]
    fn finite_range_matches_serial_fold(
        draws in proptest::collection::vec((0usize..12, prop::num::f64::NORMAL), 31),
    ) {
        // Three picks in four land on an edge value, the rest on a normal one.
        let cells: Vec<f64> =
            draws.iter().map(|&(pick, v)| RANGE_EDGES.get(pick).copied().unwrap_or(v)).collect();
        let bits = |range: Option<(f64, f64)>| range.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()));
        let signs: [fn(f64) -> f64; 3] = [|v| v, f64::abs, |v| -v.abs()];
        for sign in signs {
            // Zeros keep their sign: it is what the fold could get wrong.
            let signed: Vec<f64> =
                cells.iter().map(|&v| if v.classify() == FpCategory::Zero { v } else { sign(v) }).collect();
            for len in 0..=signed.len() {
                let column = &signed[..len];
                let mut d =
                    Dataset::new(Schema::from_attrs([AttributeMeta::numeric("x")]).unwrap());
                for (i, &v) in column.iter().enumerate() {
                    d.push_row(i as f64, &[Value::Num(v)]).unwrap();
                }
                let expected = bits(serial_finite_range(column));
                prop_assert_eq!(bits(d.numeric_range(0).ok()), expected, "{:?}", column);
                prop_assert_eq!(bits(d.snapshot().numeric_range(0)), expected, "{:?}", column);
            }
        }
    }
}
