//! Shared, `clap`-free command-line parsing for the workspace binaries.
//!
//! `dbsherlock-cli` and `sherlockd` both speak the same small dialect of
//! flags — `--deadline-ms`, `--threads`, `--strict`, … — and before this
//! module each binary hand-rolled its own `--name value` scanner. The
//! duplication was harmless until the daemon arrived with a dozen more
//! knobs; now both front ends parse through [`ArgScan`] and share the
//! budget/exec helpers, so a flag means the same thing (and fails the same
//! way) everywhere.
//!
//! Deliberately tiny: positionals-first conventions, `--name value`
//! options, bare `--name` flags. Errors are plain `String`s — each binary
//! wraps them in its own error/exit-code scheme.

use std::str::FromStr;

use crate::budget::DiagnosisBudget;
use crate::exec::ExecPolicy;

/// A borrowed view over `std::env::args().skip(1)`-style argument lists.
#[derive(Debug, Clone, Copy)]
pub struct ArgScan<'a> {
    args: &'a [String],
}

impl<'a> ArgScan<'a> {
    /// Scan over an argument slice.
    pub fn new(args: &'a [String]) -> Self {
        ArgScan { args }
    }

    /// The value following `--name`, if present.
    pub fn option(&self, name: &str) -> Option<&'a str> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    /// Is the bare flag `--name` present?
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// `--name value` parsed as `T`; `Ok(None)` when absent, `Err` with a
    /// uniform message when present but unparseable.
    pub fn parsed<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.option(name) {
            None => Ok(None),
            Some(raw) => raw.parse::<T>().map(Some).map_err(|_| format!("bad {name} {raw:?}")),
        }
    }

    /// Like [`parsed`](Self::parsed) with a default for the absent case.
    pub fn parsed_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.parsed(name)?.unwrap_or(default))
    }

    /// The `i`-th leading positional (arguments before the first `--flag`).
    pub fn positional(&self, i: usize) -> Option<&'a str> {
        self.args.iter().take_while(|a| !a.starts_with("--")).nth(i).map(String::as_str)
    }

    /// `--threads <N|serial|auto>` as an [`ExecPolicy`]; `None` when absent.
    pub fn exec_policy(&self) -> Result<Option<ExecPolicy>, String> {
        let Some(raw) = self.option("--threads") else { return Ok(None) };
        let policy = match raw {
            "auto" => ExecPolicy::Auto,
            "serial" | "1" => ExecPolicy::Serial,
            n => ExecPolicy::Threads(n.parse().map_err(|_| format!("bad --threads {raw:?}"))?),
        };
        Ok(Some(policy))
    }

    /// The budget flags — `--deadline-ms N`, `--max-rows N`,
    /// `--max-partitions N` — folded into one [`DiagnosisBudget`]; `None`
    /// when no budget flag is present.
    pub fn budget(&self) -> Result<Option<DiagnosisBudget>, String> {
        let deadline: Option<u64> = self.parsed("--deadline-ms")?;
        let max_rows: Option<usize> = self.parsed("--max-rows")?;
        let max_partitions: Option<usize> = self.parsed("--max-partitions")?;
        if deadline.is_none() && max_rows.is_none() && max_partitions.is_none() {
            return Ok(None);
        }
        let mut budget = DiagnosisBudget::unlimited();
        if let Some(ms) = deadline {
            budget = budget.with_deadline_ms(ms);
        }
        if let Some(rows) = max_rows {
            budget = budget.with_max_rows(rows);
        }
        if let Some(parts) = max_partitions {
            budget = budget.with_max_partitions(parts);
        }
        Ok(Some(budget))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn options_flags_and_positionals() {
        let argv = args(&["incident.csv", "extra", "--abnormal", "60..110", "--strict"]);
        let scan = ArgScan::new(&argv);
        assert_eq!(scan.option("--abnormal"), Some("60..110"));
        assert_eq!(scan.option("--normal"), None);
        assert!(scan.flag("--strict"));
        assert!(!scan.flag("--quiet"));
        assert_eq!(scan.positional(0), Some("incident.csv"));
        assert_eq!(scan.positional(1), Some("extra"));
        assert_eq!(scan.positional(2), None);
    }

    #[test]
    fn typed_parsing_reports_uniform_errors() {
        let argv = args(&["--port", "not-a-number", "--len", "42"]);
        let scan = ArgScan::new(&argv);
        assert_eq!(scan.parsed::<u16>("--len"), Ok(Some(42)));
        assert_eq!(scan.parsed::<u16>("--port"), Err("bad --port \"not-a-number\"".into()));
        assert_eq!(scan.parsed_or::<u16>("--missing", 7), Ok(7));
    }

    #[test]
    fn exec_policy_spellings() {
        for (raw, expect) in [
            ("auto", ExecPolicy::Auto),
            ("serial", ExecPolicy::Serial),
            ("1", ExecPolicy::Serial),
            ("4", ExecPolicy::Threads(4)),
        ] {
            let argv = args(&["--threads", raw]);
            assert_eq!(ArgScan::new(&argv).exec_policy(), Ok(Some(expect)), "{raw}");
        }
        let empty = args(&[]);
        assert_eq!(ArgScan::new(&empty).exec_policy(), Ok(None));
        let bad = args(&["--threads", "many"]);
        assert!(ArgScan::new(&bad).exec_policy().is_err());
    }

    #[test]
    fn budget_folds_all_three_axes() {
        let argv = args(&["--deadline-ms", "250", "--max-rows", "10000", "--max-partitions", "64"]);
        let budget = ArgScan::new(&argv).budget().unwrap().unwrap();
        let expect = DiagnosisBudget::unlimited()
            .with_deadline_ms(250)
            .with_max_rows(10000)
            .with_max_partitions(64);
        assert_eq!(budget, expect);

        let empty = args(&[]);
        assert_eq!(ArgScan::new(&empty).budget(), Ok(None));
        let bad = args(&["--deadline-ms", "soon"]);
        assert!(ArgScan::new(&bad).budget().is_err());
    }
}
