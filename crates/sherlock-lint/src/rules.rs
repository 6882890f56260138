//! The rule engine: token-level rules walk the stream from
//! [`crate::lexer`] with just enough structural context (attributes,
//! `#[cfg(test)]` item spans, paren depth); the semantic rules run on the
//! [`crate::syntax`] layer via [`crate::semantic`], sharing this module's
//! emit path so allow-escapes and baselining behave identically.

use std::fmt;

use crate::flow::{FileFlow, FlowIndex};
use crate::lexer::{lex, Tok, Token};
use crate::syntax::FileSyntax;
use crate::taint::TaintIndex;

/// The rules sherlock-lint knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RuleKind {
    /// `unwrap()` / `expect()` / `panic!` / `unreachable!` / `[]`-indexing
    /// in non-test library code.
    PanicPath,
    /// Float `==`/`!=`, `partial_cmp(..).unwrap()`, bare `partial_cmp` in
    /// sort comparators.
    NanUnsafe,
    /// Entropy-seeded RNG construction (`thread_rng()`, `from_entropy()`, …).
    UnseededRng,
    /// Crate roots must deny `clippy::unwrap_used`/`expect_used` outside tests.
    DenyHeader,
    /// Bare `thread::spawn` / `thread::scope` in library code outside the
    /// execution layer (`crates/core/src/exec.rs`). Parallelism must route
    /// through `par_map_indexed` so ordering and determinism stay centralised.
    RawSpawn,
    /// Bare `fs::write` in library code outside the crash-safe store
    /// (`crates/core/src/store.rs`). A plain truncating write torn by a
    /// crash destroys the artifact; repository/result persistence must go
    /// through `ModelStore` (temp + fsync + atomic rename).
    RawFsWrite,
    /// Semantic: iterating a binding the syntax layer resolves to a
    /// `HashMap`/`HashSet` into ordered output without an intervening
    /// sort. Arbitrary iteration order is the classic silent threat to
    /// the engine's bit-identical-at-any-thread-count guarantee.
    NondetIteration,
    /// Semantic: `panic::set_hook`/`take_hook` anywhere outside
    /// `chaos::quiet_panics`. Hook swaps mutate process-global state and
    /// race the parallel test harness — this rule applies to test code
    /// too, unlike the other panic rules.
    RawPanicHook,
    /// Semantic: a loop in a function holding an `ArmedBudget` /
    /// `DiagnosisBudget` / `CancelFlag` that does non-trivial work but
    /// never mentions the handle — deadlines and cancellation cannot
    /// interrupt it.
    BudgetBlindLoop,
    /// Semantic: filesystem mutation (`fs::write`/`rename`/…,
    /// `File::create`, writable `OpenOptions`) in library code outside
    /// `store.rs` — the scope-aware upgrade of `raw-fs-write`.
    UnsyncedStoreWrite,
    /// Semantic: `Vec`/`VecDeque` growth (`push`/`push_back`/`extend`)
    /// inside a loop in `sherlockd` library code with no capacity check on
    /// the same container. A daemon buffer that grows per iteration of a
    /// connection loop without a bound is how a flooding client pins the
    /// process — every accumulator must check, shed, or drain.
    UnboundedChannel,
    /// Semantic: a `loop`/`while` that sleeps between iterations (a retry
    /// or backoff loop) without an attempt counter or a deadline/shutdown
    /// poll in reach. A retry loop that can spin forever turns one
    /// persistent fault into a hung drain; every backoff must be bounded
    /// by attempts or by time.
    UnboundedRetry,
    /// Flow: the same two mutexes acquired in opposite orders on different
    /// paths (including one interprocedural call-graph step) — the classic
    /// deadlock recipe between `tenants` and `queue`.
    LockOrderInversion,
    /// Flow: a live `MutexGuard` spans a blocking call (`join`, `accept`,
    /// `read*`, `write_all`, `recv`, `sleep`, …) — one stalled peer then
    /// pins every thread waiting on that lock. Condvar waits are exempt
    /// (they release the guard atomically).
    GuardAcrossBlocking,
    /// Flow: `let _ =` / `.ok()` on a fallible store/net/protocol write
    /// outside shutdown paths — failures must be counted, logged, or
    /// propagated.
    SwallowedError,
    /// Taint: a nondeterministic value (entropy RNG, wall clock, hash
    /// iteration order, thread id, pointer address) flows into a
    /// serialized output (`Explanation`/`Response` construction,
    /// ModelStore records, bench JSON writers) without a sanitizer (sort,
    /// order-free reduction, seed-derived stream). Findings carry a
    /// source → sanitizer-miss → sink trace.
    TaintDeterminism,
    /// Taint: an `unwrap`/`expect`/`panic!`/`[]`-indexing site reachable
    /// from a certified entry point (`explain_batch`,
    /// `try_explain_validated`, the sherlockd ingest loop) along a call
    /// path that never crosses a `catch_unwind`/`try_par_map_indexed`
    /// isolation boundary. Findings carry the witness call chain.
    UnisolatedPanic,
}

impl RuleKind {
    /// All rules, in reporting order (token rules, then semantic rules,
    /// then flow rules).
    pub const ALL: [RuleKind; 17] = [
        RuleKind::PanicPath,
        RuleKind::NanUnsafe,
        RuleKind::UnseededRng,
        RuleKind::DenyHeader,
        RuleKind::RawSpawn,
        RuleKind::RawFsWrite,
        RuleKind::NondetIteration,
        RuleKind::RawPanicHook,
        RuleKind::BudgetBlindLoop,
        RuleKind::UnsyncedStoreWrite,
        RuleKind::UnboundedChannel,
        RuleKind::UnboundedRetry,
        RuleKind::LockOrderInversion,
        RuleKind::GuardAcrossBlocking,
        RuleKind::SwallowedError,
        RuleKind::TaintDeterminism,
        RuleKind::UnisolatedPanic,
    ];

    /// Stable kebab-case name (used in baselines and allow-escapes).
    pub fn name(self) -> &'static str {
        match self {
            RuleKind::PanicPath => "panic-path",
            RuleKind::NanUnsafe => "nan-unsafe",
            RuleKind::UnseededRng => "unseeded-rng",
            RuleKind::DenyHeader => "deny-header",
            RuleKind::RawSpawn => "raw-spawn",
            RuleKind::RawFsWrite => "raw-fs-write",
            RuleKind::NondetIteration => "nondeterministic-iteration",
            RuleKind::RawPanicHook => "raw-panic-hook",
            RuleKind::BudgetBlindLoop => "budget-blind-loop",
            RuleKind::UnsyncedStoreWrite => "unsynced-store-write",
            RuleKind::UnboundedChannel => "unbounded-channel",
            RuleKind::UnboundedRetry => "unbounded-retry",
            RuleKind::LockOrderInversion => "lock-order-inversion",
            RuleKind::GuardAcrossBlocking => "guard-across-blocking",
            RuleKind::SwallowedError => "swallowed-error",
            RuleKind::TaintDeterminism => "taint-determinism",
            RuleKind::UnisolatedPanic => "unisolated-panic",
        }
    }

    /// One-line description (SARIF rule metadata; also the catalog hook).
    pub fn summary(self) -> &'static str {
        match self {
            RuleKind::PanicPath => "unwrap/expect/panic!/[]-indexing in non-test library code",
            RuleKind::NanUnsafe => {
                "NaN-unsafe float comparison or partial_cmp in a sort comparator"
            }
            RuleKind::UnseededRng => "entropy-seeded RNG construction breaks reproducibility",
            RuleKind::DenyHeader => "crate root missing the clippy panic-policy deny header",
            RuleKind::RawSpawn => "bare thread::spawn/scope outside the execution layer",
            RuleKind::RawFsWrite => "bare fs::write outside the crash-safe store",
            RuleKind::NondetIteration => {
                "HashMap/HashSet iteration feeding ordered output without a sort"
            }
            RuleKind::RawPanicHook => "panic hook swap outside chaos::quiet_panics",
            RuleKind::BudgetBlindLoop => {
                "loop in a budget-carrying stage that neither polls the budget \
                 nor calls anything that does"
            }
            RuleKind::UnsyncedStoreWrite => "filesystem mutation outside the store module",
            RuleKind::UnboundedChannel => "unbounded buffer growth in a daemon loop",
            RuleKind::UnboundedRetry => "retry/backoff loop with no attempt bound or deadline poll",
            RuleKind::LockOrderInversion => {
                "two mutexes acquired in opposite orders on different call paths"
            }
            RuleKind::GuardAcrossBlocking => "a live MutexGuard spans a blocking call",
            RuleKind::SwallowedError => "let _ = / .ok() discards a fallible store/net write",
            RuleKind::TaintDeterminism => {
                "nondeterministic value reaches a serialized output without a sanitizer"
            }
            RuleKind::UnisolatedPanic => {
                "panic site reachable from a certified entry point without an \
                 isolation boundary"
            }
        }
    }

    /// Parse a rule name.
    pub fn from_name(name: &str) -> Option<RuleKind> {
        RuleKind::ALL.into_iter().find(|r| r.name() == name)
    }
}

impl fmt::Display for RuleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How a file is classified for rule scoping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library code of a workspace crate: every rule applies.
    Lib,
    /// Tests, benches, examples, binaries: `panic-path` is waived (panicking
    /// on violated test expectations or bad CLI input is fine), the
    /// numeric/determinism rules still apply.
    Other,
}

/// What a [`TraceStep`] represents along a taint or panic witness path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Where the nondeterministic value is produced.
    Source,
    /// An intermediate hop (a binding, a callee's return value).
    Propagation,
    /// Where a sanitizer was expected but missing.
    SanitizerMiss,
    /// The serialization boundary the value crosses.
    Sink,
    /// A certified entry point (panic traces).
    Entry,
    /// An unisolated call edge (panic traces).
    Call,
    /// The panic site itself.
    Panic,
}

impl TraceKind {
    /// Stable kebab-case label (SARIF step messages, annotations).
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::Source => "source",
            TraceKind::Propagation => "propagation",
            TraceKind::SanitizerMiss => "sanitizer-miss",
            TraceKind::Sink => "sink",
            TraceKind::Entry => "entry",
            TraceKind::Call => "call",
            TraceKind::Panic => "panic",
        }
    }
}

/// One hop in a finding's witness path (taint flow or panic call chain).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// Workspace-relative path of the hop.
    pub path: String,
    /// 1-indexed line.
    pub line: u32,
    /// Role of this hop.
    pub kind: TraceKind,
    /// Short human note (`entropy-seeded thread_rng()`, `via binding x`).
    pub note: String,
}

/// One violation, anchored to `path:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Violated rule.
    pub rule: RuleKind,
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-indexed line.
    pub line: u32,
    /// Trimmed source line (the baseline key, robust to line drift).
    pub snippet: String,
    /// Human explanation.
    pub message: String,
    /// Witness path for the taint rules (empty for the other layers):
    /// source → sanitizer-miss → sink, or entry → calls → panic site.
    pub trace: Vec<TraceStep>,
}

impl Finding {
    /// `path:line: [rule] message` — the human report line, with the
    /// witness path indented below it when one exists.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}:{}: [{}] {} — `{}`",
            self.path, self.line, self.rule, self.message, self.snippet
        );
        for step in &self.trace {
            out.push_str(&format!(
                "\n    ↳ {}:{} {}: {}",
                step.path,
                step.line,
                step.kind.label(),
                step.note
            ));
        }
        out
    }

    /// GitHub Actions workflow-command annotation:
    /// `::error file=…,line=…,title=sherlock-lint[rule]::message`.
    /// GitHub surfaces these inline on the PR diff when printed to stdout
    /// inside a workflow step. The trace rides along in the message body;
    /// workflow commands are single-line, so every metacharacter in the
    /// (potentially multi-line) trace notes is %-escaped.
    pub fn render_github(&self) -> String {
        let trace = if self.trace.is_empty() {
            String::new()
        } else {
            let steps: Vec<String> = self
                .trace
                .iter()
                .map(|s| format!("{} {}:{} ({})", s.kind.label(), s.path, s.line, s.note))
                .collect();
            format!(" — trace: {}", steps.join(" -> "))
        };
        format!(
            "::error file={},line={},title=sherlock-lint[{}]::{} — `{}`{}",
            github_escape_property(&self.path),
            self.line,
            self.rule,
            github_escape_data(&self.message),
            github_escape_data(&self.snippet),
            github_escape_data(&trace),
        )
    }
}

/// Escape the free-text part of a workflow command (`%`, CR, LF).
fn github_escape_data(s: &str) -> String {
    s.replace('%', "%25").replace('\r', "%0D").replace('\n', "%0A")
}

/// Escape a workflow-command property value (data escapes plus `:`, `,`).
fn github_escape_property(s: &str) -> String {
    github_escape_data(s).replace(':', "%3A").replace(',', "%2C")
}

/// Keywords that may directly precede a `[` without it being an index
/// expression (`let [a, b] = …`, `for x in [..]`, `return [0; 4]`).
pub(crate) const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "do", "dyn", "else",
    "enum", "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "static", "struct", "super", "trait", "type", "union", "unsafe",
    "use", "where", "while", "yield",
];

/// Methods whose comparator closure must be total over floats.
const SORTERS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "select_nth_unstable_by",
    "binary_search_by",
    "max_by",
    "min_by",
];

/// Idents that construct entropy-seeded (irreproducible) RNGs.
const ENTROPY_RNGS: &[&str] = &["thread_rng", "from_entropy", "from_os_rng", "try_from_os_rng"];

/// Float constants whose `==` comparison is a NaN/∞ smell.
const FLOAT_CONSTS: &[&str] = &["NAN", "INFINITY", "NEG_INFINITY"];

/// The flow-layer rules (plus `budget-blind-loop`, whose interprocedural
/// poll check consumes the same index): any of these forces the flow
/// analysis on.
pub(crate) const FLOW: [RuleKind; 4] = [
    RuleKind::LockOrderInversion,
    RuleKind::GuardAcrossBlocking,
    RuleKind::SwallowedError,
    RuleKind::BudgetBlindLoop,
];

/// The taint-layer rules: any of these forces the layer-4 analysis on.
pub(crate) const TAINT: [RuleKind; 2] = [RuleKind::TaintDeterminism, RuleKind::UnisolatedPanic];

/// Scan one file's source. `path` is only used to label findings. Flow
/// and taint rules run against file-local call-graph indexes; workspace
/// scans use [`scan_source_indexed`] with the shared indexes instead.
pub fn scan_source(path: &str, source: &str, class: FileClass, rules: &[RuleKind]) -> Vec<Finding> {
    scan_source_indexed(path, source, class, rules, None, None)
}

/// [`scan_source`] with optional pre-built workspace indexes
/// ([`FlowIndex`], [`TaintIndex`]) so interprocedural facts cross file
/// boundaries.
pub fn scan_source_indexed(
    path: &str,
    source: &str,
    class: FileClass,
    rules: &[RuleKind],
    index: Option<&FlowIndex>,
    taint: Option<&TaintIndex>,
) -> Vec<Finding> {
    let lexed = lex(source);
    let toks = &lexed.tokens;
    let lines: Vec<&str> = source.lines().collect();
    let (attr_mask, test_mask) = structure_masks(toks);

    let mut findings = Vec::new();
    // The single filtered push path every layer funnels through: rule
    // selection, allow-escapes, snippet extraction.
    let mut push = |rule: RuleKind, line: u32, message: String, trace: Vec<TraceStep>| {
        if !rules.contains(&rule) {
            return;
        }
        if lexed.file_allows.iter().any(|a| a == rule.name()) {
            return;
        }
        // A `// sherlock-lint: allow(rule)` on the finding's line or the
        // line above acknowledges it.
        for l in [line, line.saturating_sub(1)] {
            if lexed.allows.get(&l).is_some_and(|rs| rs.iter().any(|a| a == rule.name())) {
                return;
            }
        }
        let snippet = line
            .checked_sub(1)
            .and_then(|l| lines.get(l as usize))
            .map(|l| l.trim().to_string())
            .unwrap_or_default();
        findings.push(Finding { rule, path: path.to_string(), line, snippet, message, trace });
    };
    let mut emit =
        |rule: RuleKind, line: u32, message: String| push(rule, line, message, Vec::new());

    let ident = |i: usize| match toks.get(i).map(|t| &t.kind) {
        Some(Tok::Ident(name)) => Some(name.as_str()),
        _ => None,
    };
    let op =
        |i: usize, s: &str| matches!(toks.get(i).map(|t| &t.kind), Some(Tok::Op(o)) if *o == s);
    let is_float_operand = |mut i: usize| -> bool {
        // Walk path prefixes (`f64::NAN`, `std::f64::INFINITY`): the
        // interesting segment is the last one.
        while ident(i).is_some() && op(i + 1, "::") {
            i += 2;
        }
        match toks.get(i).map(|t| &t.kind) {
            Some(Tok::Float) => true,
            Some(Tok::Ident(name)) => FLOAT_CONSTS.contains(&name.as_str()),
            _ => false,
        }
    };

    let mut paren_depth = 0_usize;
    // Paren depths at which a SORTERS call opened: non-empty ⇒ we are
    // lexically inside a sort comparator.
    let mut cmp_stack: Vec<usize> = Vec::new();

    for (i, tok) in toks.iter().enumerate() {
        let in_attr = attr_mask.get(i).copied().unwrap_or(false);
        let in_test = test_mask.get(i).copied().unwrap_or(false);
        let prev_kind = i.checked_sub(1).and_then(|p| toks.get(p)).map(|t| &t.kind);
        match &tok.kind {
            Tok::Op("(") => {
                if !in_attr {
                    if let Some(Tok::Ident(name)) = prev_kind {
                        if SORTERS.contains(&name.as_str()) {
                            cmp_stack.push(paren_depth);
                        }
                    }
                }
                paren_depth += 1;
            }
            Tok::Op(")") => {
                paren_depth = paren_depth.saturating_sub(1);
                while cmp_stack.last().is_some_and(|&d| d >= paren_depth) {
                    cmp_stack.pop();
                }
            }
            Tok::Op("[") if !in_attr && class == FileClass::Lib && !in_test => {
                let indexing = match prev_kind {
                    Some(Tok::Ident(name)) => !KEYWORDS.contains(&name.as_str()),
                    Some(Tok::Op(o)) => matches!(*o, ")" | "]" | "?"),
                    _ => false,
                };
                if indexing {
                    emit(
                        RuleKind::PanicPath,
                        tok.line,
                        "`[]`-indexing can panic; use .get()/.get_mut() or an iterator".to_string(),
                    );
                }
            }
            Tok::Op(eq @ ("==" | "!=")) if !in_attr => {
                let lhs = i.checked_sub(1).is_some_and(|p| is_float_operand_ending_at(toks, p));
                let rhs_at = if op(i + 1, "-") { i + 2 } else { i + 1 };
                if lhs || is_float_operand(rhs_at) {
                    emit(
                        RuleKind::NanUnsafe,
                        tok.line,
                        format!(
                            "float `{eq}` is NaN-unsafe; compare with a tolerance or total_cmp"
                        ),
                    );
                }
            }
            Tok::Ident(name) => {
                let prev_dot = matches!(prev_kind, Some(Tok::Op(".")));
                match name.as_str() {
                    "unwrap"
                        if class == FileClass::Lib
                            && !in_test
                            && prev_dot
                            && op(i + 1, "(")
                            && op(i + 2, ")") =>
                    {
                        emit(
                            RuleKind::PanicPath,
                            tok.line,
                            "`.unwrap()` in library code; propagate the error or handle None"
                                .to_string(),
                        );
                    }
                    "expect"
                        if class == FileClass::Lib && !in_test && prev_dot && op(i + 1, "(") =>
                    {
                        emit(
                            RuleKind::PanicPath,
                            tok.line,
                            "`.expect()` in library code; propagate the error or handle None"
                                .to_string(),
                        );
                    }
                    "panic" | "unreachable" | "todo" | "unimplemented"
                        if class == FileClass::Lib && !in_test && !in_attr && op(i + 1, "!") =>
                    {
                        emit(
                            RuleKind::PanicPath,
                            tok.line,
                            format!("`{name}!` in library code; return an error instead"),
                        );
                    }
                    "partial_cmp" if prev_dot => {
                        if !cmp_stack.is_empty() {
                            emit(
                                RuleKind::NanUnsafe,
                                tok.line,
                                "`partial_cmp` inside a sort comparator; use f64::total_cmp"
                                    .to_string(),
                            );
                        } else if let Some(close) = matching_paren(toks, i + 1) {
                            if op(close + 1, ".") && ident(close + 2) == Some("unwrap") {
                                emit(
                                    RuleKind::NanUnsafe,
                                    tok.line,
                                    "`partial_cmp(..).unwrap()` panics on NaN; use f64::total_cmp"
                                        .to_string(),
                                );
                            }
                        }
                    }
                    "spawn" | "scope"
                        if class == FileClass::Lib
                            && !in_test
                            && matches!(prev_kind, Some(Tok::Op("::")))
                            && i >= 2
                            && ident(i - 2) == Some("thread") =>
                    {
                        emit(
                            RuleKind::RawSpawn,
                            tok.line,
                            format!(
                                "bare `thread::{name}` outside the execution layer; \
                                 route work through dbsherlock_core::par_map_indexed"
                            ),
                        );
                    }
                    "write"
                        if class == FileClass::Lib
                            && !in_test
                            && matches!(prev_kind, Some(Tok::Op("::")))
                            && i >= 2
                            && ident(i - 2) == Some("fs") =>
                    {
                        emit(
                            RuleKind::RawFsWrite,
                            tok.line,
                            "bare `fs::write` outside the store module; a crash mid-write \
                             tears the artifact — persist through \
                             dbsherlock_core::store::ModelStore"
                                .to_string(),
                        );
                    }
                    rng if ENTROPY_RNGS.contains(&rng) => {
                        emit(
                            RuleKind::UnseededRng,
                            tok.line,
                            format!("`{rng}` is entropy-seeded; thread an explicit seed instead"),
                        );
                    }
                    "rng" | "random" => {
                        // The free functions `rand::rng()` / `rand::random()`.
                        let qualified = matches!(prev_kind, Some(Tok::Op("::")))
                            && i >= 2
                            && ident(i - 2) == Some("rand");
                        if qualified {
                            emit(
                                RuleKind::UnseededRng,
                                tok.line,
                                format!(
                                    "`rand::{name}` is entropy-seeded; thread an explicit seed instead"
                                ),
                            );
                        }
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }

    // The semantic layer: built only when a semantic rule is requested —
    // the syntax analysis costs another pass over the tokens.
    const SEMANTIC: [RuleKind; 6] = [
        RuleKind::NondetIteration,
        RuleKind::RawPanicHook,
        RuleKind::BudgetBlindLoop,
        RuleKind::UnsyncedStoreWrite,
        RuleKind::UnboundedChannel,
        RuleKind::UnboundedRetry,
    ];
    let needs_semantic = rules.iter().any(|r| SEMANTIC.contains(r));
    let needs_flow = rules.iter().any(|r| FLOW.contains(r));
    let needs_taint = rules.iter().any(|r| TAINT.contains(r));
    let syntax = (needs_semantic || needs_flow || needs_taint).then(|| FileSyntax::analyze(toks));
    if let Some(syntax) = syntax.as_ref().filter(|_| needs_semantic || needs_flow) {
        let flow = needs_flow.then(|| FileFlow::analyze(toks, syntax, &test_mask));
        // No workspace index supplied: fall back to a file-local one so
        // single-file scans (fixtures, tests) still get call-graph facts.
        let local = match (&flow, index) {
            (Some(f), None) => Some(FlowIndex::from_file(path, f)),
            _ => None,
        };
        let idx = index.or(local.as_ref());
        if needs_semantic {
            crate::semantic::scan_semantic(
                path, toks, syntax, class, &test_mask, rules, idx, &mut emit,
            );
        }
        if let (Some(flow), Some(idx)) = (&flow, idx) {
            crate::flow::scan_flow(
                path, toks, syntax, flow, class, &test_mask, rules, idx, &mut emit,
            );
        }
    }
    // Layer 4: taint + panic reachability. Uses the traced push path
    // directly (the other layers' findings carry no trace).
    if let Some(syntax) = syntax.as_ref().filter(|_| needs_taint) {
        let local = taint.is_none().then(|| {
            crate::taint::TaintIndex::from_file(path, &lexed, syntax, &test_mask, &attr_mask)
        });
        if let Some(idx) = taint.or(local.as_ref()) {
            crate::taint::scan_taint(
                path, &lexed, syntax, class, &test_mask, &attr_mask, rules, idx, &mut push,
            );
        }
    }
    findings
}

/// Like the `is_float_operand` forward walk, but for the token *ending* a
/// left-hand operand: `f64::NAN == x` has `NAN` directly before `==`.
fn is_float_operand_ending_at(toks: &[Token], i: usize) -> bool {
    match toks.get(i).map(|t| &t.kind) {
        Some(Tok::Float) => true,
        Some(Tok::Ident(name)) => FLOAT_CONSTS.contains(&name.as_str()),
        _ => false,
    }
}

/// `deny-header` check for a crate root (`lib.rs`): the file must carry the
/// clippy panic-policy header. Returns at most one finding.
pub fn check_deny_header(path: &str, source: &str) -> Option<Finding> {
    let squashed: String = source.chars().filter(|c| !c.is_whitespace()).collect();
    let header = "#![cfg_attr(not(test),deny(clippy::unwrap_used,clippy::expect_used";
    if squashed.contains(header) {
        return None;
    }
    Some(Finding {
        rule: RuleKind::DenyHeader,
        path: path.to_string(),
        line: 1,
        snippet: "(crate root)".to_string(),
        message: "missing `#![cfg_attr(not(test), deny(clippy::unwrap_used, \
                  clippy::expect_used))]` header"
            .to_string(),
        trace: Vec::new(),
    })
}

/// Index of the `)` matching the `(` expected at `open`; `None` when
/// `toks[open]` is not `(` or the stream ends first.
pub(crate) fn matching_paren(toks: &[Token], open: usize) -> Option<usize> {
    if !matches!(toks.get(open).map(|t| &t.kind), Some(Tok::Op("("))) {
        return None;
    }
    let mut depth = 0_usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        match t.kind {
            Tok::Op("(") => depth += 1,
            Tok::Op(")") => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Per-token masks: (inside an attribute, inside `#[cfg(test)]`-gated code).
pub(crate) fn structure_masks(toks: &[Token]) -> (Vec<bool>, Vec<bool>) {
    let mut attr_mask = vec![false; toks.len()];
    let mut test_mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if parse_attr(toks, i).is_none() {
            i += 1;
            continue;
        }
        // Consume the whole attribute stack on this item, OR-ing the
        // cfg(test) gates so `#[allow(..)] #[cfg(test)] mod t` works in any
        // attribute order.
        let mut outer_gate = false;
        let mut inner_gate = false;
        let mut next = i;
        while let Some(attr) = parse_attr(toks, next) {
            mark(&mut attr_mask, next, attr.end);
            let content = toks.get(attr.content.0..attr.content.1).unwrap_or_default();
            if cfg_contains_test(content) {
                if attr.inner {
                    inner_gate = true;
                } else {
                    outer_gate = true;
                }
            }
            next = attr.end + 1;
        }
        if inner_gate {
            // `#![cfg(test)]`: the whole file is test code.
            test_mask.iter_mut().for_each(|m| *m = true);
            return (attr_mask, test_mask);
        }
        if outer_gate {
            let end = item_end(toks, next);
            mark(&mut test_mask, next, end);
            i = end + 1;
        } else {
            i = next;
        }
    }
    (attr_mask, test_mask)
}

fn mark(mask: &mut [bool], from: usize, to: usize) {
    for m in mask.iter_mut().take(to + 1).skip(from) {
        *m = true;
    }
}

struct AttrSpan {
    /// Index of the closing `]`.
    end: usize,
    /// `#![…]` (inner) vs `#[…]` (outer).
    inner: bool,
    /// Token range strictly inside the brackets.
    content: (usize, usize),
}

/// Parse an attribute starting at `toks[i] == '#'`; `None` if not an attribute.
fn parse_attr(toks: &[Token], i: usize) -> Option<AttrSpan> {
    if !matches!(toks.get(i).map(|t| &t.kind), Some(Tok::Op("#"))) {
        return None;
    }
    let (inner, open) = match toks.get(i + 1).map(|t| &t.kind) {
        Some(Tok::Op("!")) => (true, i + 2),
        _ => (false, i + 1),
    };
    if !matches!(toks.get(open).map(|t| &t.kind), Some(Tok::Op("["))) {
        return None;
    }
    let mut depth = 0_usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.kind {
            Tok::Op("[") => depth += 1,
            Tok::Op("]") => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return Some(AttrSpan { end: j, inner, content: (open + 1, j) });
                }
            }
            _ => {}
        }
    }
    None
}

/// Does a `cfg(…)` attribute body enable the code under `test`? True for
/// `cfg(test)`, `cfg(any(test, feature = "x"))`; false for `cfg(not(test))`
/// and non-cfg attributes.
fn cfg_contains_test(content: &[Token]) -> bool {
    if !matches!(content.first().map(|t| &t.kind), Some(Tok::Ident(name)) if name == "cfg") {
        return false;
    }
    // Track whether each open paren group is a `not(…)` group; `test` only
    // counts outside every `not`.
    let mut stack: Vec<bool> = Vec::new();
    let mut prev_ident: Option<&str> = None;
    for t in content {
        match &t.kind {
            Tok::Op("(") => {
                stack.push(prev_ident == Some("not"));
                prev_ident = None;
            }
            Tok::Op(")") => {
                stack.pop();
                prev_ident = None;
            }
            Tok::Ident(name) => {
                if name == "test" && !stack.iter().any(|&n| n) {
                    return true;
                }
                prev_ident = Some(name);
            }
            _ => prev_ident = None,
        }
    }
    false
}

/// Index of the last token of the item starting at `start`: either a `;`
/// before any brace, or the brace matching the item's first `{`.
fn item_end(toks: &[Token], start: usize) -> usize {
    let mut depth = 0_usize;
    let mut seen_brace = false;
    for (i, t) in toks.iter().enumerate().skip(start) {
        match t.kind {
            Tok::Op("{") => {
                depth += 1;
                seen_brace = true;
            }
            Tok::Op("}") => {
                depth = depth.saturating_sub(1);
                if seen_brace && depth == 0 {
                    return i;
                }
            }
            Tok::Op(";") if !seen_brace => return i,
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: &[RuleKind] = &RuleKind::ALL;

    fn rules_of(src: &str, class: FileClass) -> Vec<(RuleKind, u32)> {
        scan_source("test.rs", src, class, ALL).into_iter().map(|f| (f.rule, f.line)).collect()
    }

    #[test]
    fn unwrap_expect_panics_flagged_in_lib() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"boom\"); unreachable!(); }";
        let got = rules_of(src, FileClass::Lib);
        assert_eq!(got.iter().filter(|(r, _)| *r == RuleKind::PanicPath).count(), 4);
        // …but not in test/bench/bin code.
        assert!(rules_of(src, FileClass::Other).is_empty());
    }

    #[test]
    fn unwrap_or_and_similar_not_flagged() {
        let src = "fn f() { x.unwrap_or(0); x.unwrap_or_else(|| 0); x.unwrap_or_default(); }";
        assert!(rules_of(src, FileClass::Lib).is_empty());
    }

    #[test]
    fn indexing_heuristics() {
        let flagged = ["fn f() { v[0] }", "fn f() { g()[1] }", "fn f() { m[k] += 1; }"];
        for src in flagged {
            assert_eq!(rules_of(src, FileClass::Lib).len(), 1, "{src}");
        }
        let clean = [
            "fn f() { let [a, b] = pair; }",
            "fn f() { for x in [1, 2] {} }",
            "fn f(x: [u8; 4]) -> Vec<[u8; 2]> { vec![] }",
            "#[derive(Clone)] struct S;",
            "fn f() { return [0; 4]; }",
            "fn f() { match x { [a] => a, _ => 0 } }",
        ];
        for src in clean {
            assert!(rules_of(src, FileClass::Lib).is_empty(), "{src}");
        }
    }

    #[test]
    fn cfg_test_items_are_exempt_from_panic_path() {
        let src = r#"
pub fn lib_code(v: &[u8]) -> u8 { v[0] }
#[cfg(test)]
mod tests {
    fn helper() { x.unwrap(); v[0]; panic!(); }
}
pub fn more_lib(v: &[u8]) -> u8 { v[1] }
"#;
        let got = rules_of(src, FileClass::Lib);
        assert_eq!(got, vec![(RuleKind::PanicPath, 2), (RuleKind::PanicPath, 7)]);
    }

    #[test]
    fn cfg_not_test_is_still_live_code() {
        let src = "#[cfg(not(test))] fn f() { x.unwrap(); }";
        assert_eq!(rules_of(src, FileClass::Lib).len(), 1);
    }

    #[test]
    fn cfg_any_test_is_exempt() {
        let src = "#[cfg(any(test, feature = \"x\"))] fn f() { x.unwrap(); }";
        assert!(rules_of(src, FileClass::Lib).is_empty());
    }

    #[test]
    fn stacked_attributes_before_test_item() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod t { fn f() { x.unwrap(); } }";
        assert!(rules_of(src, FileClass::Lib).is_empty());
        let src = "#[allow(dead_code)]\n#[cfg(test)]\nmod t { fn f() { x.unwrap(); } }";
        assert!(rules_of(src, FileClass::Lib).is_empty());
    }

    #[test]
    fn inner_cfg_test_marks_whole_file() {
        let src = "#![cfg(test)]\nfn f() { x.unwrap(); v[0]; }";
        assert!(rules_of(src, FileClass::Lib).is_empty());
    }

    #[test]
    fn float_eq_flagged_everywhere() {
        for src in [
            "fn f() { a == 0.0 }",
            "fn f() { 1.5 != b }",
            "fn f() { x == -1.0 }",
            "fn f() { x == f64::NAN }",
            "fn f() { f64::NAN == x }",
        ] {
            assert_eq!(rules_of(src, FileClass::Other), vec![(RuleKind::NanUnsafe, 1)], "{src}");
        }
        // Integer comparison and epsilon-style code are fine.
        assert!(rules_of("fn f() { a == 0 }", FileClass::Other).is_empty());
        assert!(rules_of("fn f() { (a - b).abs() < 1e-9 }", FileClass::Other).is_empty());
    }

    #[test]
    fn partial_cmp_patterns() {
        let unwrap = "fn f() { a.partial_cmp(&b).unwrap() }";
        assert_eq!(rules_of(unwrap, FileClass::Other), vec![(RuleKind::NanUnsafe, 1)]);
        let in_sort = "fn f() { v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal)); }";
        assert_eq!(rules_of(in_sort, FileClass::Other), vec![(RuleKind::NanUnsafe, 1)]);
        let total = "fn f() { v.sort_by(|a, b| a.total_cmp(b)); }";
        assert!(rules_of(total, FileClass::Other).is_empty());
        // partial_cmp with an explicit policy outside comparators is fine.
        let policy = "fn f() { a.partial_cmp(&b).unwrap_or(Ordering::Less) }";
        assert!(rules_of(policy, FileClass::Other).is_empty());
        // Comparator context closes with its parens.
        let after = "fn f() { v.sort_by(key); a.partial_cmp(&b); }";
        assert!(rules_of(after, FileClass::Other).is_empty());
    }

    #[test]
    fn unseeded_rng_patterns() {
        for src in [
            "fn f() { let mut r = thread_rng(); }",
            "fn f() { let r = StdRng::from_entropy(); }",
            "fn f() { let r = SmallRng::from_os_rng(); }",
            "fn f() { let r = rand::rng(); }",
            "fn f() { let x: u8 = rand::random(); }",
            "use rand::rng;",
        ] {
            assert_eq!(rules_of(src, FileClass::Other), vec![(RuleKind::UnseededRng, 1)], "{src}");
        }
        for src in [
            "fn f() { let r = StdRng::seed_from_u64(7); }",
            "fn f() { use rand::rngs::StdRng; }",
            "fn f(rng: &mut StdRng) { rng.random_range(0..4); }",
        ] {
            assert!(rules_of(src, FileClass::Other).is_empty(), "{src}");
        }
    }

    #[test]
    fn raw_spawn_patterns() {
        let spawn = "fn f() { std::thread::spawn(|| work()); }";
        assert_eq!(rules_of(spawn, FileClass::Lib), vec![(RuleKind::RawSpawn, 1)]);
        let scope = "fn f() { thread::scope(|s| { s.spawn(|| work()); }); }";
        assert_eq!(rules_of(scope, FileClass::Lib), vec![(RuleKind::RawSpawn, 1)]);
        // Test, bench, example, and bin code may spawn freely.
        assert!(rules_of(spawn, FileClass::Other).is_empty());
        let in_test = "#[cfg(test)]\nmod t { fn f() { std::thread::spawn(|| ()); } }";
        assert!(rules_of(in_test, FileClass::Lib).is_empty());
        // Handle methods and unrelated idents are not `thread::` paths.
        for src in [
            "fn f(s: &Scope) { s.spawn(|| ()); }",
            "fn f() { let scope = 1; }",
            "fn f() { tracing::span!(); }",
        ] {
            assert!(rules_of(src, FileClass::Lib).is_empty(), "{src}");
        }
        // The in-band escape acknowledges the sanctioned site.
        let allowed =
            "fn f() { std::thread::scope(|s| ()) } // sherlock-lint: allow(raw-spawn): exec layer";
        assert!(rules_of(allowed, FileClass::Lib).is_empty());
    }

    #[test]
    fn raw_fs_write_patterns() {
        // Scope to the token rule: the semantic `unsynced-store-write`
        // upgrade fires on these sites too and has its own tests.
        let only = |src: &str, class| {
            scan_source("test.rs", src, class, &[RuleKind::RawFsWrite])
                .into_iter()
                .map(|f| (f.rule, f.line))
                .collect::<Vec<_>>()
        };
        let qualified = "fn f() { std::fs::write(path, body); }";
        assert_eq!(only(qualified, FileClass::Lib), vec![(RuleKind::RawFsWrite, 1)]);
        let bare = "fn f() { fs::write(path, body); }";
        assert_eq!(only(bare, FileClass::Lib), vec![(RuleKind::RawFsWrite, 1)]);
        // Bin/bench/test code may write freely; so do other fs calls and
        // writer *methods*.
        assert!(only(qualified, FileClass::Other).is_empty());
        for src in [
            "fn f() { fs::read(path); fs::rename(a, b); }",
            "fn f() { file.write(buf); w.write_all(buf); }",
            "#[cfg(test)]\nmod t { fn f() { std::fs::write(p, b); } }",
        ] {
            assert!(only(src, FileClass::Lib).is_empty(), "{src}");
        }
        let allowed =
            "fn f() { fs::write(p, b) } // sherlock-lint: allow(raw-fs-write): store internals";
        assert!(only(allowed, FileClass::Lib).is_empty());
    }

    #[test]
    fn allow_escapes() {
        let same_line = "fn f() { v[0] } // sherlock-lint: allow(panic-path): bounds checked";
        assert!(rules_of(same_line, FileClass::Lib).is_empty());
        let line_above = "// sherlock-lint: allow(panic-path): bounds checked\nfn f() { v[0] }";
        assert!(rules_of(line_above, FileClass::Lib).is_empty());
        let wrong_rule = "fn f() { v[0] } // sherlock-lint: allow(nan-unsafe)";
        assert_eq!(rules_of(wrong_rule, FileClass::Lib).len(), 1);
        let file_wide = "// sherlock-lint: allow-file(panic-path)\nfn f() { v[0]; w.unwrap(); }";
        assert!(rules_of(file_wide, FileClass::Lib).is_empty());
    }

    #[test]
    fn deny_header_check() {
        let ok = "#![warn(missing_docs)]\n#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]\n";
        assert!(check_deny_header("lib.rs", ok).is_none());
        let missing = "#![warn(missing_docs)]\n";
        let f = check_deny_header("lib.rs", missing);
        assert_eq!(f.map(|f| f.rule), Some(RuleKind::DenyHeader));
    }

    #[test]
    fn findings_carry_anchors_and_snippets() {
        let src = "fn f() {\n    x.unwrap();\n}";
        let got = scan_source("crates/x/src/lib.rs", src, FileClass::Lib, ALL);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].line, 2);
        assert_eq!(got[0].snippet, "x.unwrap();");
        assert!(got[0].render().starts_with("crates/x/src/lib.rs:2: [panic-path]"));
    }
}
