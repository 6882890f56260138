//! Integration tests: run the rule engine over the checked-in fixture
//! files and assert that exactly the `REAL`-marked lines are reported.
//!
//! The fixtures live under `tests/fixtures/` (excluded from workspace
//! scans by `workspace::SKIP_DIRS`), so they can contain deliberate
//! violations without polluting the real baseline.

use std::path::Path;

use sherlock_lint::{
    baseline::Baseline,
    rules::{check_deny_header, scan_source, FileClass, Finding, RuleKind},
    workspace::{find_workspace_root, scan_workspace, ScanConfig},
};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn scan_fixture(name: &str, class: FileClass) -> (String, Vec<Finding>) {
    let source = fixture(name);
    let findings = scan_source(name, &source, class, &RuleKind::ALL);
    (source, findings)
}

/// Every finding must anchor to a line carrying the `REAL` marker, and
/// every marked line must be found — so fixtures document themselves.
fn assert_matches_markers(source: &str, findings: &[Finding], rule: RuleKind) {
    let marked: Vec<u32> = source
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("// REAL"))
        .map(|(i, _)| i as u32 + 1)
        .collect();
    let mut reported: Vec<u32> =
        findings.iter().filter(|f| f.rule == rule).map(|f| f.line).collect();
    reported.sort_unstable();
    reported.dedup();
    assert_eq!(reported, marked, "findings: {findings:#?}");
}

#[test]
fn raw_strings_do_not_hide_or_fake_findings() {
    let (source, findings) = scan_fixture("raw_strings.rs", FileClass::Lib);
    assert_matches_markers(&source, &findings, RuleKind::PanicPath);
    assert_eq!(findings.len(), 1, "{findings:#?}");
}

#[test]
fn nested_block_comments_are_skipped() {
    let (source, findings) = scan_fixture("nested_comments.rs", FileClass::Lib);
    assert_matches_markers(&source, &findings, RuleKind::PanicPath);
    assert_eq!(findings.len(), 1, "{findings:#?}");
}

#[test]
fn char_literals_do_not_desync_the_lexer() {
    let (source, findings) = scan_fixture("char_literals.rs", FileClass::Lib);
    assert_matches_markers(&source, &findings, RuleKind::PanicPath);
    assert_eq!(findings.len(), 1, "{findings:#?}");
}

#[test]
fn cfg_test_items_are_exempt_but_shipped_code_is_not() {
    let (source, findings) = scan_fixture("cfg_test_module.rs", FileClass::Lib);
    assert_matches_markers(&source, &findings, RuleKind::PanicPath);
    // before(), cfg(not(test)) mod, after() — the two test mods are exempt.
    assert_eq!(findings.len(), 3, "{findings:#?}");
}

#[test]
fn panic_path_catches_every_pattern() {
    let (source, findings) = scan_fixture("panic_path.rs", FileClass::Lib);
    assert!(findings.iter().all(|f| f.rule == RuleKind::PanicPath), "{findings:#?}");
    // unwrap, expect, panic!, unreachable!, v[3], m[&7].
    assert_eq!(findings.len(), 6, "{findings:#?}");
    // unwrap_or / unwrap_or_else / unwrap_or_default never fire.
    assert!(findings.iter().all(|f| !f.snippet.contains("unwrap_or")), "{findings:#?}");
    let _ = source;
}

#[test]
fn panic_path_is_waived_outside_lib_code() {
    let (_, findings) = scan_fixture("panic_path.rs", FileClass::Other);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn nan_unsafe_catches_every_pattern() {
    let (_, findings) = scan_fixture("nan_unsafe.rs", FileClass::Other);
    assert!(findings.iter().all(|f| f.rule == RuleKind::NanUnsafe), "{findings:#?}");
    // ==, !=, == f64::NAN, partial_cmp().unwrap(), partial_cmp in sort_by.
    assert_eq!(findings.len(), 5, "{findings:#?}");
    assert!(findings.iter().all(|f| !f.snippet.contains("total_cmp")), "{findings:#?}");
}

#[test]
fn unseeded_rng_catches_every_pattern() {
    let (_, findings) = scan_fixture("unseeded_rng.rs", FileClass::Other);
    assert!(findings.iter().all(|f| f.rule == RuleKind::UnseededRng), "{findings:#?}");
    // thread_rng, from_entropy, rand::random, rand::rng.
    assert_eq!(findings.len(), 4, "{findings:#?}");
    assert!(findings.iter().all(|f| !f.snippet.contains("seed_from_u64")), "{findings:#?}");
}

#[test]
fn raw_spawn_fires_only_on_path_spawns_in_lib_code() {
    let (source, findings) = scan_fixture("raw_spawn.rs", FileClass::Lib);
    assert_matches_markers(&source, &findings, RuleKind::RawSpawn);
    // std::thread::spawn, std::thread::scope, thread::spawn; the escape,
    // the scope-handle method and the #[cfg(test)] spawn stay silent.
    assert_eq!(findings.len(), 3, "{findings:#?}");
    // Bin/bench/test files may spawn freely.
    let (_, other) = scan_fixture("raw_spawn.rs", FileClass::Other);
    assert!(other.is_empty(), "{other:#?}");
}

#[test]
fn raw_fs_write_fires_only_on_fs_path_writes_in_lib_code() {
    let (source, findings) = scan_fixture("raw_fs_write.rs", FileClass::Lib);
    assert_matches_markers(&source, &findings, RuleKind::RawFsWrite);
    // std::fs::write + fs::write; reads, writer methods, the escape, and
    // the #[cfg(test)] write stay silent. (The semantic
    // `unsynced-store-write` upgrade fires on more of this fixture — the
    // rename and the raw-fs-write-only escape — so count per rule.)
    let token_rule = findings.iter().filter(|f| f.rule == RuleKind::RawFsWrite).count();
    assert_eq!(token_rule, 2, "{findings:#?}");
    // Bin/bench/test files may write freely.
    let (_, other) = scan_fixture("raw_fs_write.rs", FileClass::Other);
    assert!(other.is_empty(), "{other:#?}");
}

#[test]
fn nondet_iteration_fixture_flags_exactly_the_marked_lines() {
    let (source, findings) = scan_fixture("nondet_iteration.rs", FileClass::Lib);
    assert_matches_markers(&source, &findings, RuleKind::NondetIteration);
    // Sorted copy, reducers, order-free sinks and the allow escape are silent.
    assert_eq!(findings.len(), 2, "{findings:#?}");
    let (_, other) = scan_fixture("nondet_iteration.rs", FileClass::Other);
    assert!(other.is_empty(), "{other:#?}");
}

#[test]
fn raw_panic_hook_fixture_flags_exactly_the_marked_lines() {
    let (source, findings) = scan_fixture("raw_panic_hook.rs", FileClass::Lib);
    assert_matches_markers(&source, &findings, RuleKind::RawPanicHook);
    // quiet_panics, the unrelated method, and the allow escape are silent.
    assert_eq!(findings.len(), 3, "{findings:#?}");
    // Hooks are process-global: the rule applies outside lib code too.
    let (_, other) = scan_fixture("raw_panic_hook.rs", FileClass::Other);
    assert_eq!(other.len(), 3, "{other:#?}");
}

#[test]
fn budget_blind_loop_fixture_flags_exactly_the_marked_lines() {
    let (source, findings) = scan_fixture("budget_blind_loop.rs", FileClass::Lib);
    assert_matches_markers(&source, &findings, RuleKind::BudgetBlindLoop);
    // The polling stage, header poll, trivial collector, allow escape and
    // the loop delegating to a budget-polling callee are silent; the loop
    // passing the handle to a non-polling callee is not.
    assert_eq!(findings.len(), 3, "{findings:#?}");
    let (_, other) = scan_fixture("budget_blind_loop.rs", FileClass::Other);
    assert!(other.is_empty(), "{other:#?}");
}

#[test]
fn lock_order_inversion_fixture_flags_exactly_the_marked_lines() {
    let (source, findings) = scan_fixture("lock_order_inversion.rs", FileClass::Lib);
    assert_matches_markers(&source, &findings, RuleKind::LockOrderInversion);
    // Consistent-order and drop-before-second pairs are silent; the
    // interprocedural site names the callee it reaches the lock through.
    assert_eq!(findings.len(), 2, "{findings:#?}");
    assert!(
        findings.iter().any(|f| f.message.contains("via call to `backward_inner`")),
        "{findings:#?}"
    );
    let (_, other) = scan_fixture("lock_order_inversion.rs", FileClass::Other);
    assert!(other.is_empty(), "{other:#?}");
}

#[test]
fn qualified_call_edges_survive_alias_shadowing() {
    // The fixture aliases every callee's bare name (`use … as …`), so the
    // edges only exist if `Self::`-, `crate::`- and `prelude::`-qualified
    // calls keep their literal target instead of the alias resolution.
    let (source, findings) = scan_fixture("call_graph_qualified.rs", FileClass::Lib);
    let marked = |tag: &str| -> Vec<u32> {
        source
            .lines()
            .enumerate()
            .filter(|(_, l)| l.contains(&format!("// REAL {tag}")))
            .map(|(i, _)| i as u32 + 1)
            .collect()
    };
    let reported = |rule: RuleKind| -> Vec<u32> {
        let mut lines: Vec<u32> =
            findings.iter().filter(|f| f.rule == rule).map(|f| f.line).collect();
        lines.sort_unstable();
        lines.dedup();
        lines
    };
    // The inversion spans a `Self::`-qualified call and a module-qualified
    // `sync::lock(` acquisition.
    assert_eq!(
        reported(RuleKind::LockOrderInversion),
        marked("lock-order-inversion"),
        "{findings:#?}"
    );
    // Loops delegating to polling callees through `crate::`/`prelude::`
    // paths are silent; the qualified edge to a non-polling callee fires.
    assert_eq!(reported(RuleKind::BudgetBlindLoop), marked("budget-blind-loop"), "{findings:#?}");
}

#[test]
fn guard_across_blocking_fixture_flags_exactly_the_marked_lines() {
    let (source, findings) = scan_fixture("guard_across_blocking.rs", FileClass::Lib);
    assert_matches_markers(&source, &findings, RuleKind::GuardAcrossBlocking);
    // Drop-before-write, inner-scope, consumed-probe and condvar-wait
    // shapes are silent.
    assert_eq!(findings.len(), 2, "{findings:#?}");
    let (_, other) = scan_fixture("guard_across_blocking.rs", FileClass::Other);
    assert!(other.is_empty(), "{other:#?}");
}

#[test]
fn swallowed_error_fixture_flags_exactly_the_marked_lines() {
    let (source, findings) = scan_fixture("swallowed_error.rs", FileClass::Lib);
    assert_matches_markers(&source, &findings, RuleKind::SwallowedError);
    // `?`-propagation, counted errors, the drain path, Path::join and the
    // test module are silent.
    assert_eq!(findings.len(), 3, "{findings:#?}");
    let (_, other) = scan_fixture("swallowed_error.rs", FileClass::Other);
    assert!(other.is_empty(), "{other:#?}");
}

#[test]
fn unsynced_store_write_fixture_flags_exactly_the_marked_lines() {
    let (source, findings) = scan_fixture("unsynced_store_write.rs", FileClass::Lib);
    assert_matches_markers(&source, &findings, RuleKind::UnsyncedStoreWrite);
    // Reads, read-only OpenOptions, the allow escape and the test module
    // are silent.
    assert_eq!(findings.len(), 4, "{findings:#?}");
    let (_, other) = scan_fixture("unsynced_store_write.rs", FileClass::Other);
    assert!(other.is_empty(), "{other:#?}");
}

#[test]
fn unbounded_channel_fixture_flags_exactly_the_marked_lines() {
    // The rule is path-scoped to the daemon crate, so label the fixture
    // as sherlockd source instead of using `scan_fixture`.
    let source = fixture("unbounded_channel.rs");
    let findings = scan_source(
        "crates/sherlockd/src/unbounded_channel.rs",
        &source,
        FileClass::Lib,
        &RuleKind::ALL,
    );
    assert_matches_markers(&source, &findings, RuleKind::UnboundedChannel);
    // The drained field, shed queue, retained handles, non-loop pushes,
    // String receiver, the allow escape and the test module are silent.
    let rule_hits = findings.iter().filter(|f| f.rule == RuleKind::UnboundedChannel).count();
    assert_eq!(rule_hits, 2, "{findings:#?}");
    // Outside the daemon crate the same source is out of scope.
    let elsewhere = scan_source("crates/core/src/x.rs", &source, FileClass::Lib, &RuleKind::ALL);
    assert!(!elsewhere.iter().any(|f| f.rule == RuleKind::UnboundedChannel), "{elsewhere:#?}");
    // Bin/bench/test files may accumulate freely.
    let other = scan_source(
        "crates/sherlockd/src/unbounded_channel.rs",
        &source,
        FileClass::Other,
        &RuleKind::ALL,
    );
    assert!(!other.iter().any(|f| f.rule == RuleKind::UnboundedChannel), "{other:#?}");
}

#[test]
fn unbounded_retry_fixture_flags_exactly_the_marked_lines() {
    let (source, findings) = scan_fixture("unbounded_retry.rs", FileClass::Lib);
    assert_matches_markers(&source, &findings, RuleKind::UnboundedRetry);
    // The attempt-counted backoff, deadline-capped drain, shutdown-polled
    // accept loop, `for` loops, sleepless spins, the allow escape and the
    // test module are silent.
    let rule_hits = findings.iter().filter(|f| f.rule == RuleKind::UnboundedRetry).count();
    assert_eq!(rule_hits, 2, "{findings:#?}");
    // Bin/bench/test files may poll freely.
    let (_, other) = scan_fixture("unbounded_retry.rs", FileClass::Other);
    assert!(!other.iter().any(|f| f.rule == RuleKind::UnboundedRetry), "{other:#?}");
}

#[test]
fn github_annotations_escape_workflow_metacharacters() {
    let f = Finding {
        rule: RuleKind::PanicPath,
        path: "crates/a,b/src/x:y.rs".to_string(),
        line: 7,
        snippet: "let x = 100%;".to_string(),
        message: "multi\nline".to_string(),
        trace: Vec::new(),
    };
    assert_eq!(
        f.render_github(),
        "::error file=crates/a%2Cb/src/x%3Ay.rs,line=7,\
         title=sherlock-lint[panic-path]::multi%0Aline — `let x = 100%25;`"
    );
}

/// The full workspace scan must be byte-identical across runs (ISSUE PR 5
/// acceptance): stable file order, stable `(path, line, rule-name)` finding
/// order, no iteration-order leaks in the engine itself.
#[test]
fn workspace_scan_output_is_deterministic() {
    let here = std::env::current_dir().unwrap();
    let root = find_workspace_root(&here).expect("workspace root");
    let config = ScanConfig::all_rules(root);
    let render = |findings: &[Finding]| -> String {
        findings.iter().map(|f| format!("{}\n{}\n", f.render(), f.render_github())).collect()
    };
    let first = scan_workspace(&config).expect("scan 1");
    let second = scan_workspace(&config).expect("scan 2");
    assert_eq!(render(&first), render(&second));
    // Sanity: the scan actually visited the workspace.
    assert!(!first.is_empty(), "expected at least the baselined findings");
}

#[test]
fn allow_escapes_suppress_only_the_named_rule() {
    let (source, findings) = scan_fixture("allow_escape.rs", FileClass::Lib);
    assert_matches_markers(&source, &findings, RuleKind::PanicPath);
    // wrong_rule (escape names nan-unsafe) + unescaped.
    assert_eq!(findings.len(), 2, "{findings:#?}");
}

#[test]
fn deny_header_requires_the_clippy_policy() {
    let with = "#![warn(missing_docs)]\n\
                #![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]\n\
                pub fn f() {}\n";
    assert!(check_deny_header("crates/x/src/lib.rs", with).is_none());
    let without = "#![warn(missing_docs)]\npub fn f() {}\n";
    let finding = check_deny_header("crates/x/src/lib.rs", without).expect("must flag");
    assert_eq!(finding.rule, RuleKind::DenyHeader);
    assert_eq!(finding.line, 1);
}

#[test]
fn baseline_absorbs_fixture_findings_across_line_drift() {
    let (source, findings) = scan_fixture("panic_path.rs", FileClass::Lib);
    let dir = std::env::temp_dir().join(format!("sherlock-lint-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("baseline.txt");
    Baseline::write(&path, &findings).unwrap();
    let baseline = Baseline::load(&path).unwrap();

    // Shift every line down by injecting a comment block up top; the
    // snippet-keyed baseline still absorbs everything.
    let shifted_src = format!("// pad\n// pad\n// pad\n{source}");
    let shifted = scan_source("panic_path.rs", &shifted_src, FileClass::Lib, &RuleKind::ALL);
    let diff = baseline.diff(&shifted);
    assert!(diff.new.is_empty(), "{:#?}", diff.new);
    assert_eq!(diff.baselined, findings.len());
    assert_eq!(diff.stale, 0);

    // A brand-new violation is not absorbed.
    let grown_src = format!("{shifted_src}\npub fn extra(v: Option<u8>) -> u8 {{ v.unwrap() }}\n");
    let grown = scan_source("panic_path.rs", &grown_src, FileClass::Lib, &RuleKind::ALL);
    let diff = baseline.diff(&grown);
    assert_eq!(diff.new.len(), 1, "{:#?}", diff.new);
}

#[test]
fn taint_determinism_fixture_matches_markers() {
    let (source, findings) = scan_fixture("taint_determinism.rs", FileClass::Lib);
    assert_matches_markers(&source, &findings, RuleKind::TaintDeterminism);
}

#[test]
fn taint_determinism_findings_carry_source_to_sink_traces() {
    use sherlock_lint::rules::TraceKind;
    let (_, findings) = scan_fixture("taint_determinism.rs", FileClass::Lib);
    let taint: Vec<&Finding> =
        findings.iter().filter(|f| f.rule == RuleKind::TaintDeterminism).collect();
    assert!(!taint.is_empty());
    for f in taint {
        let last = f.trace.last().unwrap_or_else(|| panic!("empty trace: {f:#?}"));
        assert_eq!(last.kind, TraceKind::Sink, "{f:#?}");
        assert!(
            f.trace.iter().any(|s| s.kind == TraceKind::SanitizerMiss),
            "no sanitizer-miss hop: {f:#?}"
        );
    }
}

#[test]
fn unisolated_panic_fixture_matches_markers() {
    let (source, findings) = scan_fixture("unisolated_panic.rs", FileClass::Lib);
    assert_matches_markers(&source, &findings, RuleKind::UnisolatedPanic);
}

#[test]
fn unisolated_panic_findings_carry_entry_to_panic_traces() {
    use sherlock_lint::rules::TraceKind;
    let (_, findings) = scan_fixture("unisolated_panic.rs", FileClass::Lib);
    let panics: Vec<&Finding> =
        findings.iter().filter(|f| f.rule == RuleKind::UnisolatedPanic).collect();
    assert!(!panics.is_empty());
    for f in panics {
        let first = f.trace.first().unwrap_or_else(|| panic!("empty trace: {f:#?}"));
        assert_eq!(first.kind, TraceKind::Entry, "{f:#?}");
        assert_eq!(f.trace.last().map(|s| s.kind), Some(TraceKind::Panic), "{f:#?}");
    }
}

/// The taint layer only certifies library code: tests and binaries may
/// panic and may be nondeterministic.
#[test]
fn taint_rules_skip_non_lib_files() {
    for fixture_name in ["taint_determinism.rs", "unisolated_panic.rs"] {
        let (_, findings) = scan_fixture(fixture_name, FileClass::Other);
        assert!(
            findings.iter().all(
                |f| f.rule != RuleKind::TaintDeterminism && f.rule != RuleKind::UnisolatedPanic
            ),
            "{fixture_name}: {findings:#?}"
        );
    }
}
