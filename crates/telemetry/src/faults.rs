//! Telemetry fault injection: a seeded, composable chaos layer.
//!
//! Real DBSeer-style collectors do not fail the way the paper's robustness
//! study (§8.5, Table 5) perturbs data — they drop whole seconds, duplicate
//! flushes, skew clocks, report stuck sensors, emit NaN/Inf/empty cells,
//! truncate files mid-row, and drift their schemas between versions. A
//! [`FaultPlan`] describes a reproducible combination of such faults and can
//! be applied to raw CSV text ([`FaultPlan::apply_csv`]) or any [`Dataset`]
//! ([`FaultPlan::apply_to_dataset`], which round-trips through the CSV layer
//! so the lossy reader is exercised too). Every mutation is recorded in a
//! [`CorruptionReport`] so experiments can correlate degradation with the
//! injected ground truth.
//!
//! The injector carries its own splitmix64 PRNG: identical plans over
//! identical input produce identical corruption, and the telemetry crate
//! gains no new dependencies.

use std::fmt;

use crate::csv::{from_csv_lossy, to_csv};
use crate::dataset::Dataset;
use crate::error::{IngestWarning, Result};

/// One family of telemetry corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Whole seconds (rows) vanish, as when a collector misses flushes.
    DropRows,
    /// Rows are emitted twice (duplicate flush / retry).
    DuplicateRows,
    /// All timestamps shift by a constant offset (collector clock skew).
    ClockSkew,
    /// Per-row timestamp noise (jittery clock, delayed writes).
    ClockJitter,
    /// A sensor column freezes and repeats its last value for a stretch.
    StuckSensor,
    /// Numeric cells are replaced by `NaN`.
    NanCells,
    /// Numeric cells are replaced by `inf`.
    InfCells,
    /// Cells are replaced by the empty string.
    EmptyCells,
    /// The file loses its tail and ends mid-row.
    TruncateTail,
    /// Schema drift: an unexpected extra column appears.
    ExtraColumn,
    /// Schema drift: an expected column disappears.
    DropColumn,
    /// Schema drift: a column is renamed.
    RenameColumn,
}

impl FaultKind {
    /// Every fault kind, for sweeps.
    pub const ALL: [FaultKind; 12] = [
        FaultKind::DropRows,
        FaultKind::DuplicateRows,
        FaultKind::ClockSkew,
        FaultKind::ClockJitter,
        FaultKind::StuckSensor,
        FaultKind::NanCells,
        FaultKind::InfCells,
        FaultKind::EmptyCells,
        FaultKind::TruncateTail,
        FaultKind::ExtraColumn,
        FaultKind::DropColumn,
        FaultKind::RenameColumn,
    ];

    /// Stable snake_case name (used in reports and experiment JSON).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::DropRows => "drop_rows",
            FaultKind::DuplicateRows => "duplicate_rows",
            FaultKind::ClockSkew => "clock_skew",
            FaultKind::ClockJitter => "clock_jitter",
            FaultKind::StuckSensor => "stuck_sensor",
            FaultKind::NanCells => "nan_cells",
            FaultKind::InfCells => "inf_cells",
            FaultKind::EmptyCells => "empty_cells",
            FaultKind::TruncateTail => "truncate_tail",
            FaultKind::ExtraColumn => "extra_column",
            FaultKind::DropColumn => "drop_column",
            FaultKind::RenameColumn => "rename_column",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One fault with its intensity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// The corruption family.
    pub kind: FaultKind,
    /// Fraction in `[0, 1]` of the targetable unit (rows, cells, or columns)
    /// affected. For [`FaultKind::ClockSkew`] it scales the constant offset
    /// (up to ±30 s at 1.0); for [`FaultKind::ClockJitter`] the per-row
    /// amplitude (up to ±5 s at 1.0).
    pub intensity: f64,
}

/// A reproducible, composable set of faults.
///
/// Faults are applied in the order they were added, each drawing from the
/// same seeded PRNG stream; a plan is a pure function of `(seed, specs,
/// input)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub(crate) fn new(seed: u64) -> Self {
        FaultPlan { seed, specs: Vec::new() }
    }

    /// A plan containing a single fault.
    pub fn single(kind: FaultKind, intensity: f64, seed: u64) -> Self {
        FaultPlan::new(seed).with(kind, intensity)
    }

    /// Add a fault to the plan (builder style).
    pub(crate) fn with(mut self, kind: FaultKind, intensity: f64) -> Self {
        self.specs.push(FaultSpec { kind, intensity: intensity.clamp(0.0, 1.0) });
        self
    }

    /// Apply the plan to raw CSV text, returning the corrupted text and a
    /// report of every mutation.
    pub fn apply_csv(&self, text: &str) -> (String, CorruptionReport) {
        let mut report = CorruptionReport::new(self.seed);
        let mut rng = SplitMix::new(self.seed);
        let mut table = CsvTable::parse(text);
        for spec in &self.specs {
            apply_spec(&mut table, *spec, &mut rng, &mut report);
        }
        (table.render(), report)
    }

    /// Apply the plan to a dataset by round-tripping through the CSV layer:
    /// serialize, corrupt the text, then re-ingest with
    /// [`from_csv_lossy`]. Returns the degraded dataset, the corruption
    /// report, and the ingest warnings the lossy reader emitted while
    /// swallowing the damage.
    pub fn apply_to_dataset(
        &self,
        dataset: &Dataset,
    ) -> Result<(Dataset, CorruptionReport, Vec<IngestWarning>)> {
        let text = to_csv(dataset);
        let (corrupted, report) = self.apply_csv(&text);
        let (degraded, warnings) = from_csv_lossy(&corrupted)?;
        Ok((degraded, report, warnings))
    }
}

/// One recorded mutation.
#[derive(Debug, Clone, PartialEq)]
pub struct CorruptionEvent {
    /// Which fault family produced the mutation.
    pub kind: FaultKind,
    /// 1-based data-line number affected, when row-scoped (the header is
    /// line 1, so the first data row is line 2).
    pub line: Option<usize>,
    /// Column header affected, when column-scoped.
    pub column: Option<String>,
    /// Human-readable description.
    pub detail: String,
}

/// Everything a [`FaultPlan`] did to one input.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CorruptionReport {
    /// The plan's seed (for reproduction).
    pub seed: u64,
    /// Each individual mutation, in application order.
    pub events: Vec<CorruptionEvent>,
}

impl CorruptionReport {
    fn new(seed: u64) -> Self {
        CorruptionReport { seed, events: Vec::new() }
    }

    /// Number of mutations of one kind.
    pub fn count(&self, kind: FaultKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Total number of mutations.
    pub fn total(&self) -> usize {
        self.events.len()
    }

    fn push(
        &mut self,
        kind: FaultKind,
        line: Option<usize>,
        column: Option<String>,
        detail: impl Into<String>,
    ) {
        self.events.push(CorruptionEvent { kind, line, column, detail: detail.into() });
    }
}

impl fmt::Display for CorruptionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "corruption report (seed {}): {} mutations", self.seed, self.total())?;
        for kind in FaultKind::ALL {
            let n = self.count(kind);
            if n > 0 {
                writeln!(f, "  {kind}: {n}")?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Internal PRNG (no external dependency)
// ---------------------------------------------------------------------------

struct SplitMix {
    state: u64,
}

impl SplitMix {
    fn new(seed: u64) -> Self {
        SplitMix { state: seed ^ 0x9e3779b97f4a7c15 }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in [0, n). Returns 0 for n == 0.
    fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            ((self.next_u64() as u128 * n as u128) >> 64) as usize
        }
    }
}

// ---------------------------------------------------------------------------
// Textual CSV model
// ---------------------------------------------------------------------------

/// A lightly-parsed CSV: a header line and raw data lines. Faults operate on
/// this level so they can produce exactly the malformed bytes a broken
/// collector would (including rows that no longer split cleanly).
struct CsvTable {
    header: String,
    /// Data lines, in order. Each entry is the raw text of one line.
    rows: Vec<String>,
    /// Set when `TruncateTail` chopped the final row mid-byte; rendering
    /// then omits the trailing newline to emulate a cut-off file.
    truncated_mid_row: bool,
}

impl CsvTable {
    fn parse(text: &str) -> Self {
        let mut lines = text.lines();
        let header = lines.next().unwrap_or_default().to_string();
        let rows = lines.filter(|l| !l.trim().is_empty()).map(str::to_string).collect();
        CsvTable { header, rows, truncated_mid_row: false }
    }

    fn render(&self) -> String {
        let mut out = String::with_capacity(
            self.header.len() + self.rows.iter().map(|r| r.len() + 1).sum::<usize>() + 1,
        );
        out.push_str(&self.header);
        out.push('\n');
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(row);
            if !(self.truncated_mid_row && i + 1 == self.rows.len()) {
                out.push('\n');
            }
        }
        out
    }

    /// Header fields (naive split is fine: our headers never contain quoted
    /// commas).
    fn header_fields(&self) -> Vec<String> {
        self.header.split(',').map(str::to_string).collect()
    }

    /// 1-based file line number of data row `i`.
    fn line_no(i: usize) -> usize {
        i + 2
    }
}

/// Split a data line naively on commas outside quotes.
fn split_cells(line: &str) -> Vec<String> {
    let mut cells = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    for ch in line.chars() {
        match ch {
            '"' => {
                in_quotes = !in_quotes;
                current.push(ch);
            }
            ',' if !in_quotes => cells.push(std::mem::take(&mut current)),
            c => current.push(c),
        }
    }
    cells.push(current);
    cells
}

fn join_cells(cells: &[String]) -> String {
    cells.join(",")
}

// ---------------------------------------------------------------------------
// Fault application
// ---------------------------------------------------------------------------

fn apply_spec(
    table: &mut CsvTable,
    spec: FaultSpec,
    rng: &mut SplitMix,
    report: &mut CorruptionReport,
) {
    if spec.intensity <= 0.0 || table.rows.is_empty() {
        return;
    }
    match spec.kind {
        FaultKind::DropRows => drop_rows(table, spec.intensity, rng, report),
        FaultKind::DuplicateRows => duplicate_rows(table, spec.intensity, rng, report),
        FaultKind::ClockSkew => clock_skew(table, spec.intensity, rng, report),
        FaultKind::ClockJitter => clock_jitter(table, spec.intensity, rng, report),
        FaultKind::StuckSensor => stuck_sensor(table, spec.intensity, rng, report),
        FaultKind::NanCells => cell_fault(table, spec, "NaN", rng, report),
        FaultKind::InfCells => cell_fault(table, spec, "inf", rng, report),
        FaultKind::EmptyCells => cell_fault(table, spec, "", rng, report),
        FaultKind::TruncateTail => truncate_tail(table, spec.intensity, rng, report),
        FaultKind::ExtraColumn => extra_column(table, rng, report),
        FaultKind::DropColumn => drop_column(table, rng, report),
        FaultKind::RenameColumn => rename_column(table, rng, report),
    }
}

fn drop_rows(
    table: &mut CsvTable,
    intensity: f64,
    rng: &mut SplitMix,
    report: &mut CorruptionReport,
) {
    let mut kept = Vec::with_capacity(table.rows.len());
    for (i, row) in table.rows.drain(..).enumerate() {
        if rng.unit() < intensity {
            report.push(FaultKind::DropRows, Some(CsvTable::line_no(i)), None, "row dropped");
        } else {
            kept.push(row);
        }
    }
    table.rows = kept;
}

fn duplicate_rows(
    table: &mut CsvTable,
    intensity: f64,
    rng: &mut SplitMix,
    report: &mut CorruptionReport,
) {
    let mut out = Vec::with_capacity(table.rows.len() * 2);
    for (i, row) in table.rows.drain(..).enumerate() {
        let dup = rng.unit() < intensity;
        if dup {
            report.push(
                FaultKind::DuplicateRows,
                Some(CsvTable::line_no(i)),
                None,
                "row duplicated",
            );
            out.push(row.clone());
        }
        out.push(row);
    }
    table.rows = out;
}

fn shift_timestamp(row: &str, offset: f64) -> Option<String> {
    let mut cells = split_cells(row);
    let ts: f64 = cells.first()?.trim().parse().ok()?;
    let shifted = ts + offset;
    cells[0] = if shifted == shifted.trunc() && shifted.abs() < 1e15 {
        format!("{}", shifted as i64)
    } else {
        format!("{shifted}")
    };
    Some(join_cells(&cells))
}

fn clock_skew(
    table: &mut CsvTable,
    intensity: f64,
    rng: &mut SplitMix,
    report: &mut CorruptionReport,
) {
    let sign = if rng.unit() < 0.5 { -1.0 } else { 1.0 };
    let offset = (sign * intensity * 30.0).round();
    // sherlock-lint: allow(nan-unsafe): offset is `.round()`ed, exact-zero check intended
    if offset == 0.0 {
        return;
    }
    let mut shifted = 0usize;
    for row in &mut table.rows {
        if let Some(new_row) = shift_timestamp(row, offset) {
            *row = new_row;
            shifted += 1;
        }
    }
    report.push(
        FaultKind::ClockSkew,
        None,
        None,
        format!("all timestamps shifted by {offset:+} s ({shifted} rows)"),
    );
}

fn clock_jitter(
    table: &mut CsvTable,
    intensity: f64,
    rng: &mut SplitMix,
    report: &mut CorruptionReport,
) {
    let amplitude = intensity * 5.0;
    let mut jittered = 0usize;
    for row in &mut table.rows {
        let offset = (rng.unit() * 2.0 - 1.0) * amplitude;
        if let Some(new_row) = shift_timestamp(row, offset) {
            *row = new_row;
            jittered += 1;
        }
    }
    report.push(
        FaultKind::ClockJitter,
        None,
        None,
        format!("timestamps jittered by up to ±{amplitude:.1} s ({jittered} rows)"),
    );
}

fn stuck_sensor(
    table: &mut CsvTable,
    intensity: f64,
    rng: &mut SplitMix,
    report: &mut CorruptionReport,
) {
    let n_cols = table.header_fields().len();
    if n_cols < 2 || table.rows.len() < 2 {
        return;
    }
    let headers = table.header_fields();
    // Freeze ceil(intensity * data columns) sensors, each over its own run.
    let n_frozen = ((n_cols - 1) as f64 * intensity).ceil() as usize;
    for _ in 0..n_frozen.max(1).min(n_cols - 1) {
        let col = 1 + rng.below(n_cols - 1);
        let run_len =
            ((table.rows.len() as f64 * intensity).ceil() as usize).clamp(2, table.rows.len());
        let start = rng.below(table.rows.len() - run_len + 1);
        let stuck_value = split_cells(&table.rows[start]).get(col).cloned();
        let Some(stuck_value) = stuck_value else {
            continue;
        };
        for row in &mut table.rows[start + 1..start + run_len] {
            let mut cells = split_cells(row);
            if let Some(cell) = cells.get_mut(col) {
                *cell = stuck_value.clone();
                *row = join_cells(&cells);
            }
        }
        report.push(
            FaultKind::StuckSensor,
            Some(CsvTable::line_no(start)),
            headers.get(col).cloned(),
            format!("column stuck at {stuck_value:?} for {run_len} rows"),
        );
    }
}

fn cell_fault(
    table: &mut CsvTable,
    spec: FaultSpec,
    replacement: &str,
    rng: &mut SplitMix,
    report: &mut CorruptionReport,
) {
    let headers = table.header_fields();
    let n_cols = headers.len();
    if n_cols < 2 {
        return;
    }
    for (i, row) in table.rows.iter_mut().enumerate() {
        let mut cells = split_cells(row);
        let mut changed = false;
        // Skip the timestamp cell: timestamp damage is the clock faults' job.
        for col in 1..cells.len().min(n_cols) {
            if rng.unit() < spec.intensity {
                cells[col] = replacement.to_string();
                changed = true;
                report.push(
                    spec.kind,
                    Some(CsvTable::line_no(i)),
                    headers.get(col).cloned(),
                    format!("cell replaced with {replacement:?}"),
                );
            }
        }
        if changed {
            *row = join_cells(&cells);
        }
    }
}

fn truncate_tail(
    table: &mut CsvTable,
    intensity: f64,
    rng: &mut SplitMix,
    report: &mut CorruptionReport,
) {
    let n = table.rows.len();
    let cut_rows = ((n as f64 * intensity).ceil() as usize).min(n.saturating_sub(1));
    if cut_rows > 0 {
        table.rows.truncate(n - cut_rows);
        report.push(
            FaultKind::TruncateTail,
            Some(CsvTable::line_no(n - cut_rows)),
            None,
            format!("dropped the last {cut_rows} rows"),
        );
    }
    // Chop the (new) final row mid-way, as if the file ended mid-write.
    let line = CsvTable::line_no(table.rows.len().saturating_sub(1));
    if let Some(last) = table.rows.last_mut() {
        if last.len() > 2 {
            let cut = 1 + rng.below(last.len() - 1);
            let byte_cut = last
                .char_indices()
                .map(|(i, _)| i)
                .filter(|&i| i > 0)
                .nth(cut.saturating_sub(1))
                .unwrap_or(last.len() / 2);
            last.truncate(byte_cut);
            // Leave an unterminated quote so the damage is structural, not
            // just a short row.
            last.push('"');
            table.truncated_mid_row = true;
            report.push(FaultKind::TruncateTail, Some(line), None, "final row cut mid-write");
        }
    }
}

fn extra_column(table: &mut CsvTable, rng: &mut SplitMix, report: &mut CorruptionReport) {
    let n_cols = table.header_fields().len();
    // Insert after the timestamp at a random position.
    let pos = 1 + rng.below(n_cols.max(1));
    let mut headers = table.header_fields();
    let name = format!("ghost_metric_{}:num", rng.below(1000));
    headers.insert(pos.min(headers.len()), name.clone());
    table.header = join_cells(&headers);
    for row in &mut table.rows {
        let mut cells = split_cells(row);
        let value = format!("{:.2}", rng.unit() * 100.0);
        cells.insert(pos.min(cells.len()), value);
        *row = join_cells(&cells);
    }
    report.push(FaultKind::ExtraColumn, None, Some(name), "unexpected column appeared");
}

fn drop_column(table: &mut CsvTable, rng: &mut SplitMix, report: &mut CorruptionReport) {
    let headers = table.header_fields();
    if headers.len() < 3 {
        // Never drop the timestamp or the only data column.
        return;
    }
    let col = 1 + rng.below(headers.len() - 1);
    let name = headers[col].clone();
    let mut new_headers = headers;
    new_headers.remove(col);
    table.header = join_cells(&new_headers);
    for row in &mut table.rows {
        let mut cells = split_cells(row);
        if col < cells.len() {
            cells.remove(col);
            *row = join_cells(&cells);
        }
    }
    report.push(FaultKind::DropColumn, None, Some(name), "column disappeared");
}

fn rename_column(table: &mut CsvTable, rng: &mut SplitMix, report: &mut CorruptionReport) {
    let mut headers = table.header_fields();
    if headers.len() < 2 {
        return;
    }
    let col = 1 + rng.below(headers.len() - 1);
    let old = headers[col].clone();
    // Keep the kind tag so the file still parses; the *name* drifts.
    let (name, tag) = old.rsplit_once(':').unwrap_or((old.as_str(), "num"));
    let renamed = format!("{}_v2:{}", name, tag);
    headers[col] = renamed.clone();
    table.header = join_cells(&headers);
    report.push(
        FaultKind::RenameColumn,
        None,
        Some(old.clone()),
        format!("column renamed to {renamed:?}"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::{AttributeMeta, Schema};
    use crate::csv::{from_csv_lossy, to_csv};
    use crate::value::Value;

    fn sample(rows: usize) -> Dataset {
        let schema = Schema::from_attrs([
            AttributeMeta::numeric("cpu"),
            AttributeMeta::numeric("io"),
            AttributeMeta::categorical("job"),
        ])
        .expect("schema");
        let mut d = Dataset::new(schema);
        for i in 0..rows {
            let job = d.intern(2, if i % 5 == 0 { "backup" } else { "idle" }).expect("intern");
            d.push_row(i as f64, &[Value::Num(50.0 + i as f64), Value::Num(5.0), job])
                .expect("push");
        }
        d
    }

    #[test]
    fn plans_are_deterministic() {
        let text = to_csv(&sample(50));
        let plan = FaultPlan::new(7).with(FaultKind::DropRows, 0.2).with(FaultKind::NanCells, 0.1);
        let (a, ra) = plan.apply_csv(&text);
        let (b, rb) = plan.apply_csv(&text);
        assert_eq!(a, b);
        assert_eq!(ra.total(), rb.total());
    }

    #[test]
    fn drop_rows_reduces_row_count() {
        let d = sample(100);
        let plan = FaultPlan::single(FaultKind::DropRows, 0.3, 1);
        let (degraded, report, _) = plan.apply_to_dataset(&d).expect("apply");
        assert!(degraded.n_rows() < 100);
        assert_eq!(degraded.n_rows(), 100 - report.count(FaultKind::DropRows));
    }

    #[test]
    fn duplicates_collapse_under_repair() {
        let d = sample(60);
        let plan = FaultPlan::single(FaultKind::DuplicateRows, 0.5, 3);
        let text = to_csv(&d);
        let (corrupted, report) = plan.apply_csv(&text);
        assert!(report.count(FaultKind::DuplicateRows) > 0);
        let (degraded, warnings) = from_csv_lossy(&corrupted).expect("lossy");
        // Duplicates survive ingestion (with warnings); alignment repair is
        // what collapses them.
        assert_eq!(degraded.n_rows(), 60 + report.count(FaultKind::DuplicateRows));
        assert!(warnings
            .iter()
            .any(|w| matches!(w, crate::IngestWarning::NonMonotonicTimestamp { .. })));
    }

    #[test]
    fn nan_cells_become_non_finite_values() {
        let d = sample(80);
        let plan = FaultPlan::single(FaultKind::NanCells, 0.2, 5);
        let (degraded, report, _) = plan.apply_to_dataset(&d).expect("apply");
        assert!(report.count(FaultKind::NanCells) > 0);
        let nan_count: usize = (0..2)
            .map(|a| degraded.numeric(a).expect("num").iter().filter(|v| v.is_nan()).count())
            .sum();
        assert!(nan_count > 0);
    }

    #[test]
    fn truncation_never_yields_more_rows() {
        let d = sample(50);
        for seed in 0..5 {
            let plan = FaultPlan::single(FaultKind::TruncateTail, 0.3, seed);
            let (degraded, _, _) = plan.apply_to_dataset(&d).expect("apply");
            assert!(degraded.n_rows() < 50);
        }
    }

    #[test]
    fn schema_drift_is_survivable() {
        let d = sample(40);
        for kind in [FaultKind::ExtraColumn, FaultKind::DropColumn, FaultKind::RenameColumn] {
            let plan = FaultPlan::single(kind, 1.0, 9);
            let (degraded, report, _) = plan.apply_to_dataset(&d).expect("apply");
            assert_eq!(report.count(kind), 1, "{kind}");
            assert_eq!(degraded.n_rows(), 40, "{kind}");
        }
    }

    #[test]
    fn every_kind_survives_end_to_end_at_full_intensity() {
        let d = sample(60);
        for kind in FaultKind::ALL {
            for seed in [0, 1, 2] {
                let plan = FaultPlan::single(kind, 1.0, seed);
                let (degraded, _, _) = plan.apply_to_dataset(&d).expect("apply");
                assert!(degraded.n_rows() <= 2 * 60, "{kind} exploded the dataset");
            }
        }
    }

    #[test]
    fn report_display_summarizes() {
        let d = sample(30);
        let plan =
            FaultPlan::new(11).with(FaultKind::DropRows, 0.5).with(FaultKind::EmptyCells, 0.3);
        let (_, report, _) = plan.apply_to_dataset(&d).expect("apply");
        let text = report.to_string();
        assert!(text.contains("drop_rows"));
        assert!(text.contains("empty_cells"));
    }

    #[test]
    fn zero_intensity_is_identity() {
        let text = to_csv(&sample(25));
        let plan = FaultPlan::new(1).with(FaultKind::DropRows, 0.0).with(FaultKind::NanCells, 0.0);
        let (out, report) = plan.apply_csv(&text);
        assert_eq!(out, text);
        assert_eq!(report.total(), 0);
    }
}
