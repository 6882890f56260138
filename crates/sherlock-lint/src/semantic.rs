//! Scope-aware rules over the [`crate::syntax`] layer.
//!
//! Token rules ask "does this *look* like a violation"; semantic rules ask
//! "is this name *actually* a `HashMap` / an `ArmedBudget` / a hook swap
//! outside the sanctioned wrapper". Each rule here walks the
//! [`FileSyntax`] binding and import tables instead of raw tokens, which
//! is what lets the baselines for `nondeterministic-iteration` and
//! `raw-panic-hook` stay *empty*: the rules are precise enough that every
//! real site is either fixed or carries an inline justification.
//!
//! Findings are funneled through the same emit path as the token rules
//! (`rules::scan_source`), so allow-escapes, file allows, rule selection
//! and baselining behave identically for both layers.

use crate::lexer::{Tok, Token};
use crate::rules::{FileClass, RuleKind};
use crate::syntax::FileSyntax;

/// Container types whose iteration order is arbitrary.
pub(crate) const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Containers whose *contents* are order-insensitive: collecting a hash
/// iteration into one of these launders no ordering into the output.
pub(crate) const ORDER_FREE_SINKS: &[&str] = &["HashMap", "HashSet", "BTreeMap", "BTreeSet"];

/// Iterator-producing methods on the hash containers.
pub(crate) const ITER_HEADS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Chain methods that impose an order downstream of the iteration.
pub(crate) const SORTERS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "sorted",
    "sorted_by",
    "sorted_by_key",
];

/// Terminal reducers whose result does not depend on iteration order.
pub(crate) const REDUCERS: &[&str] = &[
    "count",
    "sum",
    "product",
    "min",
    "max",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "any",
    "all",
];

/// Budget/cancellation handle types a pipeline stage is expected to poll.
pub(crate) const BUDGET_TYPES: &[&str] = &["ArmedBudget", "DiagnosisBudget", "CancelFlag"];

/// Calls too cheap to make a loop "real work" for `budget-blind-loop`:
/// pure collection plumbing, as in the ubiquitous result-collector loops
/// (`for slot in slots { out.push(slot?); }`).
const TRIVIAL_CALLS: &[&str] = &[
    "push",
    "extend",
    "insert",
    "append",
    "pop",
    "push_str",
    "clone",
    "cloned",
    "copied",
    "to_string",
];

/// Identifiers followed by `(` that are not function calls doing work:
/// control keywords heading parenthesised conditions. Capitalized
/// identifiers (`Some(`, `Label::Cluster(`) are excluded separately —
/// they are enum-variant patterns or tuple-struct construction, not work.
pub(crate) const NON_CALL_IDENTS: &[&str] =
    &["if", "while", "for", "match", "return", "in", "let", "loop", "move", "else"];

/// `std::fs` free functions that mutate the filesystem.
const FS_MUTATORS: &[&str] =
    &["write", "rename", "remove_file", "remove_dir_all", "copy", "set_permissions"];

/// Methods that grow a container (`unbounded-channel`).
const GROWERS: &[&str] = &["push", "push_back", "push_front", "extend", "append"];

/// Container types whose unbounded growth is the daemon hazard.
const GROWABLE_TYPES: &[&str] = &["Vec", "VecDeque"];

/// Blocking waits that mark a loop as a retry/backoff loop
/// (`unbounded-retry`): a loop that sleeps between iterations is waiting
/// for something external to change, and must bound how long it waits.
const RETRY_SLEEPS: &[&str] = &["sleep", "sleep_ms", "park_timeout"];

/// Identifier substrings that show a retry loop is bounded: an attempt
/// counter, a deadline/elapsed-time poll, a budget handle, or a
/// shutdown/cancellation flag. Matched case-insensitively as substrings so
/// `max_attempts`, `save_attempts`, `n_retries`, `drain_deadline_ms` all
/// count. False negatives are the safe direction here — the rule must
/// hold the workspace at zero findings without baseline support.
const RETRY_GUARDS: &[&str] = &[
    "attempt",
    "tries",
    "retr",
    "deadline",
    "elapsed",
    "budget",
    "timeout",
    "instant",
    "shutdown",
    "cancel",
    "stop",
    "remaining",
    "expire",
];

/// Methods that bound, shed, or drain a container: seeing one of these on
/// the growth receiver means the author is managing capacity.
const BOUNDERS: &[&str] = &[
    "len",
    "capacity",
    "is_empty",
    "truncate",
    "clear",
    "drain",
    "pop",
    "pop_front",
    "pop_back",
    "retain",
    "remove",
    "swap_remove",
];

/// Run every requested semantic rule over one file, reporting through
/// `emit(rule, line, message)` (the same closure the token rules use, so
/// allow-escapes and baselining apply uniformly).
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_semantic(
    path: &str,
    toks: &[Token],
    syn: &FileSyntax,
    class: FileClass,
    test_mask: &[bool],
    rules: &[RuleKind],
    index: Option<&crate::flow::FlowIndex>,
    emit: &mut dyn FnMut(RuleKind, u32, String),
) {
    let ctx = Ctx { toks, syn, test_mask };
    if rules.contains(&RuleKind::NondetIteration) && class == FileClass::Lib {
        nondet_iteration(&ctx, emit);
    }
    if rules.contains(&RuleKind::RawPanicHook) {
        raw_panic_hook(&ctx, emit);
    }
    if rules.contains(&RuleKind::BudgetBlindLoop) && class == FileClass::Lib {
        budget_blind_loop(&ctx, index, emit);
    }
    if rules.contains(&RuleKind::UnsyncedStoreWrite)
        && class == FileClass::Lib
        && !path.ends_with("store.rs")
    {
        unsynced_store_write(&ctx, emit);
    }
    // Scoped to the daemon crate: batch tools build unbounded vectors all
    // the time (and are bounded by their finite inputs); only code sitting
    // behind a socket accumulates attacker-paced input.
    if rules.contains(&RuleKind::UnboundedChannel)
        && class == FileClass::Lib
        && path.contains("crates/sherlockd/")
    {
        unbounded_channel(&ctx, emit);
    }
    // Library-wide (unlike `unbounded-channel`): a retry loop that can
    // spin forever is a hang wherever it lives — store saves, drains,
    // intervention trials. Binaries and tests may poll freely.
    if rules.contains(&RuleKind::UnboundedRetry) && class == FileClass::Lib {
        unbounded_retry(&ctx, emit);
    }
}

struct Ctx<'a> {
    toks: &'a [Token],
    syn: &'a FileSyntax,
    test_mask: &'a [bool],
}

impl Ctx<'_> {
    fn ident(&self, i: usize) -> Option<&str> {
        match self.toks.get(i).map(|t| &t.kind) {
            Some(Tok::Ident(name)) => Some(name.as_str()),
            _ => None,
        }
    }

    fn op(&self, i: usize, s: &str) -> bool {
        matches!(self.toks.get(i).map(|t| &t.kind), Some(Tok::Op(o)) if *o == s)
    }

    fn in_test(&self, i: usize) -> bool {
        self.test_mask.get(i).copied().unwrap_or(false)
    }

    /// Is token `i` a method call `.name(` or `.name::<…>(`?
    fn is_method_call(&self, i: usize, names: &[&str]) -> bool {
        i >= 1
            && self.op(i - 1, ".")
            && (self.op(i + 1, "(") || (self.op(i + 1, "::") && self.op(i + 2, "<")))
            && self.ident(i).is_some_and(|n| names.contains(&n))
    }

    /// Nearest enclosing *brace* group of token `i` — paren/bracket groups
    /// are sub-expressions, not statement scopes.
    fn stmt_scope(&self, i: usize) -> Option<usize> {
        let mut scope = self.syn.enclosing.get(i).copied().flatten();
        while let Some(id) = scope {
            if self.syn.groups[id].delim == crate::syntax::Delim::Brace {
                break;
            }
            scope = self.syn.groups[id].parent;
        }
        scope
    }

    /// `[start, end)` token span of the statement containing `i`: bounded
    /// by `;`/`{`/`}` at the nearest brace scope (nested groups — including
    /// the call parens `i` may sit inside — stay inside the span).
    fn stmt_span(&self, i: usize) -> (usize, usize) {
        let scope = self.stmt_scope(i);
        let (scope_open, scope_close) = match scope {
            Some(id) => (self.syn.groups[id].open, self.syn.groups[id].close),
            None => (0, self.toks.len()),
        };
        let at_scope = |k: usize| self.syn.enclosing.get(k).copied().flatten() == scope;
        let boundary = |k: usize| matches!(self.toks[k].kind, Tok::Op(";" | "{" | "}"));
        let mut start = i;
        while start > scope_open + usize::from(scope.is_some()) {
            if at_scope(start - 1) && boundary(start - 1) {
                break;
            }
            start -= 1;
        }
        let mut end = i;
        while end < scope_close.min(self.toks.len()) {
            if at_scope(end) && boundary(end) {
                break;
            }
            end += 1;
        }
        (start, end)
    }

    /// End of the statement scope (nearest brace group) containing `i`.
    fn scope_close(&self, i: usize) -> usize {
        match self.stmt_scope(i) {
            Some(id) => self.syn.groups[id].close,
            None => self.toks.len(),
        }
    }
}

// ----- nondeterministic-iteration --------------------------------------

fn nondet_iteration(ctx: &Ctx<'_>, emit: &mut dyn FnMut(RuleKind, u32, String)) {
    for i in 0..ctx.toks.len() {
        if ctx.in_test(i) {
            continue;
        }
        // Method-chain iteration: `recv.iter()`, `self.field.keys()`, ….
        if ctx.is_method_call(i, ITER_HEADS) && i >= 2 {
            if let Some(ty) = ctx.syn.receiver_type(ctx.toks, i - 2) {
                if HASH_TYPES.contains(&ty) && !iteration_is_ordered_safe(ctx, i) {
                    let ty = ty.to_string();
                    let head = ctx.ident(i).unwrap_or_default();
                    emit(
                        RuleKind::NondetIteration,
                        ctx.toks[i].line,
                        format!(
                            "`.{head}()` on a `{ty}` yields arbitrary order; sort the \
                             results or use a BTreeMap/BTreeSet"
                        ),
                    );
                }
            }
        }
        // Bare for-loop iteration: `for x in &set`, `for (k, v) in self.map`.
        if ctx.ident(i) == Some("for") {
            if let Some((recv, ty)) = for_loop_hash_source(ctx, i) {
                emit(
                    RuleKind::NondetIteration,
                    ctx.toks[i].line,
                    format!(
                        "`for` over `{recv}` (a `{ty}`) visits entries in arbitrary \
                         order; iterate a sorted copy or use a BTreeMap/BTreeSet"
                    ),
                );
            }
        }
    }
}

/// Does anything in (or after) the statement make the iteration at `i`
/// order-safe? Checks, in rough cost order: an ordering/sorting call or an
/// order-insensitive reducer in the same statement, collecting into an
/// order-free container (turbofish or `let` annotation), feeding an
/// `.extend()` of an order-free container, or a later `name.sort*()` on
/// the `let`-bound result within the same scope.
fn iteration_is_ordered_safe(ctx: &Ctx<'_>, i: usize) -> bool {
    let (start, end) = ctx.stmt_span(i);
    for k in start..end {
        if ctx.is_method_call(k, SORTERS) || ctx.is_method_call(k, REDUCERS) {
            return true;
        }
        // `collect::<Sink<…>>()`
        if ctx.ident(k) == Some("collect") && ctx.op(k + 1, "::") && ctx.op(k + 2, "<") {
            let sink = ctx.syn.type_head(ctx.toks, k + 3, end);
            if ORDER_FREE_SINKS.contains(&sink.as_str()) {
                return true;
            }
        }
        // `order_free.extend(map.iter())`
        if ctx.is_method_call(k, &["extend"]) && k >= 2 {
            if let Some(recv_ty) = ctx.syn.receiver_type(ctx.toks, k - 2) {
                if ORDER_FREE_SINKS.contains(&recv_ty) {
                    return true;
                }
            }
        }
    }
    // `let [mut] name [: Sink] = …` — annotation sink, or a later sort.
    if ctx.ident(start) == Some("let") {
        let mut n = start + 1;
        if ctx.ident(n) == Some("mut") {
            n += 1;
        }
        if let Some(name) = ctx.ident(n) {
            if ctx.op(n + 1, ":") {
                let sink = ctx.syn.type_head(ctx.toks, n + 2, end);
                if ORDER_FREE_SINKS.contains(&sink.as_str()) {
                    return true;
                }
            }
            // `name.sort*()` later in the same scope.
            for k in end..ctx.scope_close(i) {
                if ctx.ident(k) == Some(name)
                    && ctx.op(k + 1, ".")
                    && ctx.toks.get(k + 2).map(|t| &t.kind).is_some_and(
                        |kind| matches!(kind, Tok::Ident(m) if SORTERS.contains(&m.as_str())),
                    )
                {
                    return true;
                }
            }
        }
    }
    false
}

/// If token `i` starts a `for … in <place> {` loop whose source place is a
/// hash-typed binding or field (no method calls in the expression), return
/// `(rendered place, type head)`.
fn for_loop_hash_source(ctx: &Ctx<'_>, i: usize) -> Option<(String, &'static str)> {
    let scope = ctx.syn.enclosing.get(i).copied().flatten();
    let at_scope = |k: usize| ctx.syn.enclosing.get(k).copied().flatten() == scope;
    // Find `in` at the loop's own scope, before the body `{`.
    let mut k = i + 1;
    loop {
        match ctx.toks.get(k).map(|t| &t.kind) {
            None | Some(Tok::Op("{" | ";" | "}")) if at_scope(k) => return None,
            Some(Tok::Ident(name)) if name == "in" && at_scope(k) => break,
            Some(_) => k += 1,
            None => return None,
        }
    }
    // Source expression: `[&][mut] ident(.ident)*` directly followed by `{`.
    let mut j = k + 1;
    while ctx.op(j, "&") || ctx.ident(j) == Some("mut") {
        j += 1;
    }
    let first = j;
    let mut last = None;
    while ctx.ident(j).is_some() {
        last = Some(j);
        if ctx.op(j + 1, ".") && ctx.ident(j + 2).is_some() {
            j += 2;
        } else {
            j += 1;
            break;
        }
    }
    let last = last?;
    if !ctx.op(j, "{") {
        return None; // method calls / ranges / richer expressions
    }
    let ty = ctx.syn.receiver_type(ctx.toks, last)?;
    let ty = HASH_TYPES.iter().find(|t| **t == ty)?;
    let place: Vec<&str> = (first..=last).filter_map(|t| ctx.ident(t)).collect();
    Some((place.join("."), ty))
}

// ----- raw-panic-hook ---------------------------------------------------

fn raw_panic_hook(ctx: &Ctx<'_>, emit: &mut dyn FnMut(RuleKind, u32, String)) {
    for i in 0..ctx.toks.len() {
        let Some(name @ ("set_hook" | "take_hook")) = ctx.ident(i) else { continue };
        if !ctx.op(i + 1, "(") {
            continue;
        }
        // Qualified `panic::set_hook(` / `std::panic::take_hook(`, or the
        // bare name imported from `std::panic`.
        let qualified = i >= 2 && ctx.op(i - 1, "::") && ctx.ident(i - 2) == Some("panic");
        let imported =
            !ctx.op(i.wrapping_sub(1), "::") && ctx.syn.resolves_into(name, &["std", "panic"]);
        if !qualified && !imported {
            continue;
        }
        // The one sanctioned home for hook swaps (applies in tests too:
        // the hook is process-global and the test harness is parallel).
        if ctx.syn.enclosing_fn(i).is_some_and(|f| f.name == "quiet_panics") {
            continue;
        }
        emit(
            RuleKind::RawPanicHook,
            ctx.toks[i].line,
            format!(
                "`panic::{name}` swaps process-global state and races concurrent \
                 tests; wrap the region in chaos::quiet_panics instead"
            ),
        );
    }
}

// ----- budget-blind-loop ------------------------------------------------

fn budget_blind_loop(
    ctx: &Ctx<'_>,
    index: Option<&crate::flow::FlowIndex>,
    emit: &mut dyn FnMut(RuleKind, u32, String),
) {
    for f in &ctx.syn.fns {
        let Some((body_open, body_close)) = f.body else { continue };
        // Handles this stage is expected to poll: budget-typed parameters
        // plus budget-typed local bindings inside the body.
        let mut handles: Vec<&str> = f
            .params
            .iter()
            .filter(|(_, ty)| BUDGET_TYPES.contains(&ty.as_str()))
            .map(|(name, _)| name.as_str())
            .collect();
        handles.extend(
            ctx.syn
                .bindings
                .iter()
                .filter(|b| {
                    b.tok > body_open && b.tok < body_close && BUDGET_TYPES.contains(&b.ty.as_str())
                })
                .map(|b| b.name.as_str()),
        );
        if handles.is_empty() {
            continue;
        }
        for i in body_open + 1..body_close.min(ctx.toks.len()) {
            if ctx.in_test(i) {
                continue;
            }
            let Some(kw @ ("for" | "while" | "loop")) = ctx.ident(i) else { continue };
            let Some((lb_open, lb_close)) = loop_body(ctx, i, kw) else { continue };
            let body = lb_open + 1..lb_close.min(ctx.toks.len());
            // A *direct* poll is a method call on the handle (`budget.check(…)`,
            // `!cancel.is_set()`) — in the loop body or its header. Merely
            // passing the handle along as an argument no longer counts; what
            // it is passed *to* is judged by the call-graph check below.
            let polls = (i + 1..lb_close.min(ctx.toks.len()))
                .any(|k| ctx.ident(k).is_some_and(|n| handles.contains(&n)) && ctx.op(k + 1, "."));
            if polls {
                continue;
            }
            // Interprocedural: the loop is safe if anything it calls
            // (transitively, via the flow index's reachability fixpoint)
            // polls a budget handle.
            let delegates = index.is_some_and(|idx| {
                body.clone().any(|k| {
                    ctx.op(k + 1, "(")
                        && ctx.ident(k).is_some_and(|n| {
                            // Path-qualified callees keep their literal name
                            // (the alias map only governs bare imports).
                            let callee = if ctx.op(k.wrapping_sub(1), "::") {
                                n
                            } else {
                                ctx.syn.resolve(n)
                            };
                            !NON_CALL_IDENTS.contains(&n) && idx.polls_reachable(callee)
                        })
                })
            });
            if delegates {
                continue;
            }
            let works = body.clone().any(|k| {
                ctx.op(k + 1, "(")
                    && ctx.ident(k).is_some_and(|n| {
                        !TRIVIAL_CALLS.contains(&n)
                            && !NON_CALL_IDENTS.contains(&n)
                            && !n.starts_with(|c: char| c.is_uppercase())
                    })
            });
            if works {
                emit(
                    RuleKind::BudgetBlindLoop,
                    ctx.toks[i].line,
                    format!(
                        "`{kw}` loop in a budget-carrying stage never polls `{}`; \
                         check the budget (or CancelFlag) each iteration so \
                         deadlines and cancellation can interrupt it",
                        handles.join("`/`")
                    ),
                );
            }
        }
    }
}

/// Body brace group of the loop keyword at `i`, if recognisable: for
/// `loop` the very next token must open it; for `for`/`while` it is the
/// first `{` at the keyword's own scope.
fn loop_body(ctx: &Ctx<'_>, i: usize, kw: &str) -> Option<(usize, usize)> {
    let scope = ctx.syn.enclosing.get(i).copied().flatten();
    if kw == "loop" {
        if !ctx.op(i + 1, "{") {
            return None;
        }
        let id = ctx.syn.group_at_opener(i + 1)?;
        return Some((ctx.syn.groups[id].open, ctx.syn.groups[id].close));
    }
    let mut k = i + 1;
    while k < ctx.toks.len() {
        let at_scope = ctx.syn.enclosing.get(k).copied().flatten() == scope;
        match &ctx.toks[k].kind {
            Tok::Op("{") if at_scope => {
                let id = ctx.syn.group_at_opener(k)?;
                return Some((ctx.syn.groups[id].open, ctx.syn.groups[id].close));
            }
            Tok::Op(";" | "}") if at_scope => return None,
            _ => k += 1,
        }
    }
    None
}

// ----- unbounded-channel --------------------------------------------------

fn unbounded_channel(ctx: &Ctx<'_>, emit: &mut dyn FnMut(RuleKind, u32, String)) {
    // Loop-body spans, computed once: a growth site is "in a loop" when any
    // span contains it.
    let mut loops: Vec<(usize, usize)> = Vec::new();
    for i in 0..ctx.toks.len() {
        if let Some(kw @ ("for" | "while" | "loop")) = ctx.ident(i) {
            if let Some(span) = loop_body(ctx, i, kw) {
                loops.push(span);
            }
        }
    }
    for i in 0..ctx.toks.len() {
        if ctx.in_test(i) || !ctx.is_method_call(i, GROWERS) || i < 2 {
            continue;
        }
        if !loops.iter().any(|&(open, close)| i > open && i < close) {
            continue;
        }
        let Some(recv) = ctx.ident(i - 2) else { continue };
        let Some(ty) = ctx.syn.receiver_type(ctx.toks, i - 2) else { continue };
        if !GROWABLE_TYPES.contains(&ty) {
            continue;
        }
        // Where must the capacity management live? A field (`self.queue`)
        // may legitimately drain in a sibling method of the same type, so
        // fields are checked file-wide; a local binding must be bounded
        // inside its own function.
        let field = i >= 4 && ctx.op(i - 3, ".");
        let (start, end) = if field {
            (0, ctx.toks.len())
        } else {
            match ctx.syn.enclosing_fn(i).and_then(|f| f.body) {
                Some((open, close)) => (open, close.min(ctx.toks.len())),
                None => (0, ctx.toks.len()),
            }
        };
        let bounded = (start..end).any(|k| {
            k != i - 2
                && ctx.ident(k) == Some(recv)
                && ctx.op(k + 1, ".")
                && ctx.toks.get(k + 2).map(|t| &t.kind).is_some_and(
                    |kind| matches!(kind, Tok::Ident(m) if BOUNDERS.contains(&m.as_str())),
                )
        });
        if !bounded {
            let grower = ctx.ident(i).unwrap_or_default();
            emit(
                RuleKind::UnboundedChannel,
                // sherlock-lint: allow(panic-path): i is a scanned token index
                ctx.toks[i].line,
                format!(
                    "`{recv}.{grower}` grows a `{ty}` every loop iteration with no \
                     capacity check on `{recv}`; daemon buffers fed by clients must \
                     bound, shed, or drain (check len()/pop/truncate) before growing"
                ),
            );
        }
    }
}

// ----- unbounded-retry ----------------------------------------------------

fn unbounded_retry(ctx: &Ctx<'_>, emit: &mut dyn FnMut(RuleKind, u32, String)) {
    for i in 0..ctx.toks.len() {
        if ctx.in_test(i) {
            continue;
        }
        // Only `loop` and `while`: a `for` loop is bounded by its iterator.
        let Some(kw @ ("while" | "loop")) = ctx.ident(i) else { continue };
        // `while` heads a condition before its body; skip `.loop(` /
        // `while`-as-ident false positives by requiring a recognisable body.
        let Some((open, close)) = loop_body(ctx, i, kw) else { continue };
        // The scanned span runs from the keyword so a `while attempts < N`
        // condition or a `while !shutdown.load(..)` poll counts as a guard.
        let span = i..close.min(ctx.toks.len());
        let sleep_line = span.clone().find_map(|k| {
            // The sleep must be *inside the body*: a sleep in the
            // condition is not this pattern.
            (k > open
                && ctx.ident(k).is_some_and(|n| RETRY_SLEEPS.contains(&n))
                && ctx.op(k + 1, "("))
            .then(|| ctx.toks[k].line) // sherlock-lint: allow(panic-path): scanned index
        });
        let Some(line) = sleep_line else { continue };
        let guarded = span.clone().any(|k| {
            ctx.ident(k).is_some_and(|n| {
                let lower = n.to_ascii_lowercase();
                RETRY_GUARDS.iter().any(|g| lower.contains(g))
            })
        });
        if !guarded {
            emit(
                RuleKind::UnboundedRetry,
                line,
                format!(
                    "`{kw}` loop sleeps between iterations with no attempt bound or \
                     deadline in reach; a persistent fault spins it forever — count \
                     attempts, poll a deadline/budget, or check a shutdown flag"
                ),
            );
        }
    }
}

// ----- unsynced-store-write ---------------------------------------------

fn unsynced_store_write(ctx: &Ctx<'_>, emit: &mut dyn FnMut(RuleKind, u32, String)) {
    for i in 0..ctx.toks.len() {
        if ctx.in_test(i) {
            continue;
        }
        let Some(name) = ctx.ident(i) else { continue };
        if !ctx.op(i + 1, "(") {
            continue;
        }
        let qualified_by =
            |module: &str| i >= 2 && ctx.op(i - 1, "::") && ctx.ident(i - 2) == Some(module);
        // `fs::write(…)` & friends, or the bare import from std::fs.
        if FS_MUTATORS.contains(&name) {
            let bare_import =
                !ctx.op(i.wrapping_sub(1), "::") && ctx.syn.resolves_into(name, &["std", "fs"]);
            if qualified_by("fs") || bare_import {
                emit(
                    RuleKind::UnsyncedStoreWrite,
                    ctx.toks[i].line,
                    format!(
                        "`fs::{name}` mutates the filesystem outside the store module; \
                         a crash mid-operation tears the artifact — persist through \
                         dbsherlock_core::store::ModelStore"
                    ),
                );
            }
            continue;
        }
        // `File::create(…)` — creation truncates.
        if name == "create" && qualified_by("File") {
            let is_fs_file = ctx.syn.resolves_into("File", &["std", "fs"])
                || (i >= 4 && ctx.op(i - 3, "::") && ctx.ident(i - 4) == Some("fs"))
                || !ctx.syn.imports.contains_key("File");
            if is_fs_file {
                emit(
                    RuleKind::UnsyncedStoreWrite,
                    ctx.toks[i].line,
                    "`File::create` truncates in place outside the store module; \
                     persist through dbsherlock_core::store::ModelStore"
                        .to_string(),
                );
            }
            continue;
        }
        // `OpenOptions::new()…` with a write/append/truncate/create flag in
        // the same statement.
        if name == "new" && qualified_by("OpenOptions") {
            let (start, end) = ctx.stmt_span(i);
            let writable = (start..end).any(|k| {
                ctx.is_method_call(k, &["write", "append", "truncate", "create", "create_new"])
            });
            if writable {
                emit(
                    RuleKind::UnsyncedStoreWrite,
                    ctx.toks[i].line,
                    "writable `OpenOptions` outside the store module; persist through \
                     dbsherlock_core::store::ModelStore"
                        .to_string(),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::rules::{scan_source, FileClass, RuleKind};

    fn hits(src: &str, rule: RuleKind, class: FileClass) -> Vec<u32> {
        scan_source("crates/x/src/a.rs", src, class, &[rule]).into_iter().map(|f| f.line).collect()
    }

    // ----- nondeterministic-iteration -----------------------------------

    const USE_MAPS: &str = "use std::collections::{HashMap, HashSet};\n";

    #[test]
    fn nondet_flags_hash_iteration_into_ordered_output() {
        let src = format!(
            "{USE_MAPS}fn f(m: &HashMap<String, u8>) -> Vec<String> {{\n\
             let v: Vec<String> = m.keys().cloned().collect();\n\
             v\n}}"
        );
        assert_eq!(hits(&src, RuleKind::NondetIteration, FileClass::Lib), vec![3]);
    }

    #[test]
    fn nondet_flags_bare_for_loop_over_hash() {
        let src = format!(
            "{USE_MAPS}fn f(set: &HashSet<u8>, out: &mut Vec<u8>) {{\n\
             for x in set {{ out.push(*x); }}\n}}"
        );
        assert_eq!(hits(&src, RuleKind::NondetIteration, FileClass::Lib), vec![3]);
        // Fields too: `for (k, v) in &self.map`.
        let src = format!(
            "{USE_MAPS}struct S {{ map: HashMap<u8, u8> }}\n\
             impl S {{ fn g(&self, out: &mut Vec<u8>) {{\n\
             for (k, _v) in &self.map {{ out.push(*k); }}\n}} }}"
        );
        assert_eq!(hits(&src, RuleKind::NondetIteration, FileClass::Lib), vec![4]);
    }

    #[test]
    fn nondet_sorted_in_chain_is_clean() {
        let src = format!(
            "{USE_MAPS}fn f(m: &HashMap<String, u8>) -> Vec<String> {{\n\
             let mut v: Vec<String> = m.keys().cloned().collect();\n\
             v.sort();\n\
             v\n}}"
        );
        assert!(hits(&src, RuleKind::NondetIteration, FileClass::Lib).is_empty());
    }

    #[test]
    fn nondet_order_free_sinks_are_clean() {
        for stmt in [
            // Order-insensitive reducers.
            "let n = m.values().copied().sum::<u64>();",
            "let c = m.keys().count();",
            // Collecting into an order-free container.
            "let s = m.keys().cloned().collect::<std::collections::BTreeSet<String>>();",
            "let s: HashSet<String> = m.keys().cloned().collect();",
            // Feeding an order-free extend.
            "acc.extend(m.keys().cloned());",
        ] {
            let src = format!(
                "{USE_MAPS}fn f(m: &HashMap<String, u64>, acc: &mut HashSet<String>) {{\n{stmt}\n}}"
            );
            assert!(hits(&src, RuleKind::NondetIteration, FileClass::Lib).is_empty(), "{stmt}");
        }
    }

    #[test]
    fn nondet_needs_a_hash_type_not_just_a_method_name() {
        // Same method names on a Vec / unknown receiver: no finding.
        let src = "fn f(v: &Vec<u8>) -> Vec<u8> { v.iter().copied().collect() }";
        assert!(hits(src, RuleKind::NondetIteration, FileClass::Lib).is_empty());
        let src = "fn f() { for x in items() { use_it(x); } }";
        assert!(hits(src, RuleKind::NondetIteration, FileClass::Lib).is_empty());
    }

    #[test]
    fn nondet_respects_allow_and_class() {
        let src = format!(
            "{USE_MAPS}fn f(m: &HashMap<u8, u8>, out: &mut Vec<u8>) {{\n\
             // sherlock-lint: allow(nondeterministic-iteration): commutative fold\n\
             for (k, _) in m {{ out.push(*k); }}\n}}"
        );
        assert!(hits(&src, RuleKind::NondetIteration, FileClass::Lib).is_empty());
        let unallowed = format!(
            "{USE_MAPS}fn f(m: &HashMap<u8, u8>, out: &mut Vec<u8>) {{\n\
             for (k, _) in m {{ out.push(*k); }}\n}}"
        );
        // Tests/benches/bins are exempt: ordering there fails loudly.
        assert!(hits(&unallowed, RuleKind::NondetIteration, FileClass::Other).is_empty());
        assert_eq!(hits(&unallowed, RuleKind::NondetIteration, FileClass::Lib).len(), 1);
    }

    // ----- raw-panic-hook ------------------------------------------------

    #[test]
    fn panic_hook_flagged_qualified_and_imported() {
        let qualified = "fn f() { let h = std::panic::take_hook(); std::panic::set_hook(h); }";
        assert_eq!(hits(qualified, RuleKind::RawPanicHook, FileClass::Lib).len(), 2);
        let imported = "use std::panic::set_hook;\nfn f() { set_hook(Box::new(|_| {})); }";
        assert_eq!(hits(imported, RuleKind::RawPanicHook, FileClass::Lib), vec![2]);
        // Applies to test code and non-lib files too: hooks are process-global.
        let in_test = "#[cfg(test)]\nmod t { fn f() { std::panic::set_hook(Box::new(|_| {})); } }";
        assert_eq!(hits(in_test, RuleKind::RawPanicHook, FileClass::Other).len(), 1);
    }

    #[test]
    fn panic_hook_quiet_panics_is_the_sanctioned_home() {
        let src = "pub fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {\n\
                   let hook = std::panic::take_hook();\n\
                   std::panic::set_hook(Box::new(|_| {}));\n\
                   let out = f();\n\
                   std::panic::set_hook(hook);\n\
                   out\n}";
        assert!(hits(src, RuleKind::RawPanicHook, FileClass::Lib).is_empty());
        // Unrelated `set_hook` methods (no panic path, no import) are not ours.
        let method = "fn f(reg: &mut Registry) { reg.set_hook(h); }";
        assert!(hits(method, RuleKind::RawPanicHook, FileClass::Lib).is_empty());
    }

    // ----- budget-blind-loop ---------------------------------------------

    #[test]
    fn budget_blind_loop_flags_working_loop_without_poll() {
        let src = "fn stage(parts: &[P], budget: &ArmedBudget) -> Result<Vec<R>, E> {\n\
                   let mut out = Vec::new();\n\
                   for p in parts {\n\
                   out.push(expensive_transform(p));\n\
                   }\n\
                   Ok(out)\n}";
        assert_eq!(hits(src, RuleKind::BudgetBlindLoop, FileClass::Lib), vec![3]);
    }

    #[test]
    fn budget_blind_loop_polling_loop_is_clean() {
        let src = "fn stage(parts: &[P], budget: &ArmedBudget) -> Result<Vec<R>, E> {\n\
                   let mut out = Vec::new();\n\
                   for p in parts {\n\
                   budget.check(\"stage\")?;\n\
                   out.push(expensive_transform(p));\n\
                   }\n\
                   Ok(out)\n}";
        assert!(hits(src, RuleKind::BudgetBlindLoop, FileClass::Lib).is_empty());
    }

    #[test]
    fn budget_blind_loop_ignores_trivial_collectors_and_unbudgeted_fns() {
        // The ubiquitous result-collector loop: only trivial calls.
        let collector = "fn gather(slots: Vec<Result<R, E>>, budget: &ArmedBudget)\n\
                         -> Result<Vec<R>, E> {\n\
                         let mut out = Vec::new();\n\
                         for slot in slots {\n\
                         out.push(slot?);\n\
                         }\n\
                         Ok(out)\n}";
        assert!(hits(collector, RuleKind::BudgetBlindLoop, FileClass::Lib).is_empty());
        // No budget handle in scope: not a pipeline stage.
        let unbudgeted = "fn f(parts: &[P]) { for p in parts { expensive(p); } }";
        assert!(hits(unbudgeted, RuleKind::BudgetBlindLoop, FileClass::Lib).is_empty());
    }

    #[test]
    fn budget_blind_loop_sees_local_cancel_flags_and_while_loops() {
        let src = "fn stage(parts: &[P]) {\n\
                   let cancel = CancelFlag::new();\n\
                   while has_more() {\n\
                   expensive_step();\n\
                   }\n}";
        assert_eq!(hits(src, RuleKind::BudgetBlindLoop, FileClass::Lib), vec![3]);
        let polls = "fn stage(parts: &[P]) {\n\
                     let cancel = CancelFlag::new();\n\
                     while !cancel.is_set() {\n\
                     expensive_step();\n\
                     }\n}";
        // The poll is in the condition — outside the body braces — so the
        // body scan alone must not flag it… the condition mention counts.
        assert!(hits(polls, RuleKind::BudgetBlindLoop, FileClass::Lib).is_empty());
    }

    #[test]
    fn budget_blind_loop_accepts_polling_through_a_callee() {
        // The loop never touches `budget.` itself, but `helper` does: the
        // call-graph summary marks it polling and the loop is safe.
        let src = "fn helper(budget: &ArmedBudget) -> Result<(), E> { budget.check(\"stage\") }\n\
                   fn stage(parts: &[P], budget: &ArmedBudget) -> Result<(), E> {\n\
                   for p in parts {\n\
                   helper(budget)?;\n\
                   expensive_transform(p);\n\
                   }\n\
                   Ok(())\n}";
        assert!(hits(src, RuleKind::BudgetBlindLoop, FileClass::Lib).is_empty());
    }

    #[test]
    fn budget_blind_loop_rejects_blind_delegation() {
        // Passing the handle to a callee that never polls it used to count
        // as a poll under the file-wide mention heuristic; it must not.
        let src = "fn helper(budget: &ArmedBudget) -> Result<(), E> { noop() }\n\
                   fn stage(parts: &[P], budget: &ArmedBudget) -> Result<(), E> {\n\
                   for p in parts {\n\
                   helper(budget)?;\n\
                   expensive_transform(p);\n\
                   }\n\
                   Ok(())\n}";
        assert_eq!(hits(src, RuleKind::BudgetBlindLoop, FileClass::Lib), vec![3]);
    }

    // ----- unbounded-channel ----------------------------------------------

    const DAEMON_PATH: &str = "crates/sherlockd/src/conn.rs";

    fn daemon_hits(src: &str, class: FileClass) -> Vec<u32> {
        scan_source(DAEMON_PATH, src, class, &[RuleKind::UnboundedChannel])
            .into_iter()
            .map(|f| f.line)
            .collect()
    }

    #[test]
    fn unbounded_channel_flags_growth_in_connection_loops() {
        let src = "fn serve(lines: Lines) {\n\
                   let mut backlog: Vec<String> = Vec::new();\n\
                   for line in lines {\n\
                   backlog.push(line);\n\
                   }\n}";
        assert_eq!(daemon_hits(src, FileClass::Lib), vec![4]);
        let deque = "fn pump(events: Events) {\n\
                     let mut queue = std::collections::VecDeque::new();\n\
                     while has_more() {\n\
                     queue.push_back(next_event());\n\
                     }\n}";
        assert_eq!(daemon_hits(deque, FileClass::Lib), vec![4]);
    }

    #[test]
    fn unbounded_channel_capacity_checks_are_clean() {
        // Shed-oldest before growing: the daemon's enqueue pattern.
        let shed = "fn pump(events: Events) {\n\
                    let mut queue = std::collections::VecDeque::new();\n\
                    loop {\n\
                    if queue.len() >= MAX_PENDING { queue.pop_front(); }\n\
                    queue.push_back(next_event());\n\
                    }\n}";
        assert!(daemon_hits(shed, FileClass::Lib).is_empty());
        // Pruning with retain counts too (the accept loop's pattern).
        let retain = "fn accept(listener: L) {\n\
                      let mut handles = Vec::new();\n\
                      loop {\n\
                      handles.push(spawn_conn());\n\
                      handles.retain(|h| !h.is_finished());\n\
                      }\n}";
        assert!(daemon_hits(retain, FileClass::Lib).is_empty());
    }

    #[test]
    fn unbounded_channel_fields_may_drain_in_sibling_methods() {
        let src = "struct Reader { pending: std::collections::VecDeque<Event> }\n\
                   impl Reader {\n\
                   fn ingest(&mut self, chunk: &[u8]) {\n\
                   while let Some(e) = split(chunk) {\n\
                   self.pending.push_back(e);\n\
                   }\n}\n\
                   fn next(&mut self) -> Option<Event> { self.pending.pop_front() }\n\
                   }";
        assert!(daemon_hits(src, FileClass::Lib).is_empty());
        // …but a field nobody ever drains is still a leak.
        let leak = "struct Reader { pending: std::collections::VecDeque<Event> }\n\
                    impl Reader {\n\
                    fn ingest(&mut self, chunk: &[u8]) {\n\
                    while let Some(e) = split(chunk) {\n\
                    self.pending.push_back(e);\n\
                    }\n}\n\
                    }";
        assert_eq!(daemon_hits(leak, FileClass::Lib), vec![5]);
    }

    #[test]
    fn unbounded_channel_scoping_and_exemptions() {
        let src = "fn serve(lines: Lines) {\n\
                   let mut backlog: Vec<String> = Vec::new();\n\
                   for line in lines {\n\
                   backlog.push(line);\n\
                   }\n}";
        // Only sherlockd library code is in scope: batch tools build
        // unbounded vectors from finite inputs all the time.
        assert!(scan_source(
            "crates/core/src/predicate.rs",
            src,
            FileClass::Lib,
            &[RuleKind::UnboundedChannel]
        )
        .is_empty());
        assert!(daemon_hits(src, FileClass::Other).is_empty());
        // Growth outside any loop is one bounded allocation, not a channel.
        let straightline = "fn f() { let mut v = Vec::new(); v.push(1); v.push(2); }";
        assert!(daemon_hits(straightline, FileClass::Lib).is_empty());
        // Unknown receiver types (String, custom ring) are not ours.
        let string = "fn f(cs: Chars) { let mut s = String::new(); for c in cs { s.push(c); } }";
        assert!(daemon_hits(string, FileClass::Lib).is_empty());
        // The escape hatch documents a genuinely bounded accumulator.
        let allowed = "fn f(rows: Rows) {\n\
                       let mut seqs = Vec::with_capacity(rows.len());\n\
                       for row in rows {\n\
                       // sherlock-lint: allow(unbounded-channel): one per buffered row\n\
                       seqs.push(row.seq);\n\
                       }\n}";
        assert!(daemon_hits(allowed, FileClass::Lib).is_empty());
    }

    // ----- unbounded-retry ------------------------------------------------

    #[test]
    fn unbounded_retry_flags_sleep_loops_without_bounds() {
        let forever = "fn f(store: &Store) {\n\
                       loop {\n\
                       if store.save().is_ok() { break; }\n\
                       std::thread::sleep(Duration::from_millis(10));\n\
                       }\n}";
        assert_eq!(hits(forever, RuleKind::UnboundedRetry, FileClass::Lib), vec![4]);
        let poll = "fn f(peer: &Peer) {\n\
                    while !peer.is_ready() {\n\
                    thread::sleep(POLL_INTERVAL);\n\
                    }\n}";
        assert_eq!(hits(poll, RuleKind::UnboundedRetry, FileClass::Lib), vec![3]);
    }

    #[test]
    fn unbounded_retry_bounded_loops_are_clean() {
        // An attempt counter anywhere in the loop (condition or body).
        let counted = "fn f() {\n\
                       let mut attempts = 0;\n\
                       loop {\n\
                       attempts += 1;\n\
                       if attempts >= MAX { break; }\n\
                       std::thread::sleep(BACKOFF);\n\
                       }\n}";
        assert!(hits(counted, RuleKind::UnboundedRetry, FileClass::Lib).is_empty());
        // A deadline poll; `Instant::now() >= deadline` counts twice over.
        let deadline = "fn f(deadline: Instant) {\n\
                        while Instant::now() < deadline {\n\
                        std::thread::sleep(TICK);\n\
                        }\n}";
        assert!(hits(deadline, RuleKind::UnboundedRetry, FileClass::Lib).is_empty());
        // A shutdown-flag poll marks a service loop, not a runaway retry.
        let service = "fn f(shutdown: &AtomicBool) {\n\
                       while !shutdown.load(Ordering::SeqCst) {\n\
                       std::thread::sleep(IDLE);\n\
                       }\n}";
        assert!(hits(service, RuleKind::UnboundedRetry, FileClass::Lib).is_empty());
        // Guard substrings match inside longer names (`n_retries`).
        let retries = "fn f() {\n\
                       let mut n_retries = 0;\n\
                       while n_retries < 3 {\n\
                       n_retries += 1;\n\
                       std::thread::sleep(BACKOFF);\n\
                       }\n}";
        assert!(hits(retries, RuleKind::UnboundedRetry, FileClass::Lib).is_empty());
    }

    #[test]
    fn unbounded_retry_scoping_and_exemptions() {
        // `for` loops are bounded by their iterator.
        let staged = "fn f(xs: &[S]) { for x in xs { x.go(); std::thread::sleep(GAP); } }";
        assert!(hits(staged, RuleKind::UnboundedRetry, FileClass::Lib).is_empty());
        // No sleep, no retry loop — spins belong to other rules.
        let busy = "fn f(s: &mut Stack) { while let Some(x) = s.pop() { work(x); } }";
        assert!(hits(busy, RuleKind::UnboundedRetry, FileClass::Lib).is_empty());
        // A sleep in the *condition* (exotic, but possible via a helper
        // chain) is not a body sleep.
        let cond = "fn f() { while sleep_then_probe() { tick(); } }";
        assert!(hits(cond, RuleKind::UnboundedRetry, FileClass::Lib).is_empty());
        // Binaries/tests may poll freely.
        let forever = "fn f() { loop { std::thread::sleep(T); } }";
        assert!(hits(forever, RuleKind::UnboundedRetry, FileClass::Other).is_empty());
        let in_test = "#[cfg(test)]\nmod t { fn f() { loop { std::thread::sleep(T); } } }";
        assert!(hits(in_test, RuleKind::UnboundedRetry, FileClass::Lib).is_empty());
        // The escape documents externally-bounded waits.
        let allowed = "fn f(gate: &Gate) {\n\
                       while gate.is_closed() {\n\
                       // sherlock-lint: allow(unbounded-retry): watchdog-bounded\n\
                       std::thread::sleep(TICK);\n\
                       }\n}";
        assert!(hits(allowed, RuleKind::UnboundedRetry, FileClass::Lib).is_empty());
        // An unguarded inner retry inside a guarded service loop still
        // fires — the outer flag cannot interrupt the inner spin.
        let nested = "fn f(shutdown: &Flag) {\n\
                      while !shutdown.get() {\n\
                      loop {\n\
                      if save().is_ok() { break; }\n\
                      std::thread::sleep(B);\n\
                      }\n\
                      }\n}";
        assert_eq!(hits(nested, RuleKind::UnboundedRetry, FileClass::Lib), vec![5]);
    }

    // ----- unsynced-store-write ------------------------------------------

    #[test]
    fn unsynced_store_write_flags_fs_mutation_family() {
        let src = "fn save(p: &Path) {\n\
                   std::fs::write(p, b\"x\");\n\
                   std::fs::rename(p, q);\n\
                   std::fs::remove_file(p);\n}";
        assert_eq!(hits(src, RuleKind::UnsyncedStoreWrite, FileClass::Lib), vec![2, 3, 4]);
        let imported = "use std::fs::write;\nfn save(p: &Path) { write(p, b\"x\"); }";
        assert_eq!(hits(imported, RuleKind::UnsyncedStoreWrite, FileClass::Lib), vec![2]);
        let file = "use std::fs::File;\nfn save(p: &Path) { let f = File::create(p); }";
        assert_eq!(hits(file, RuleKind::UnsyncedStoreWrite, FileClass::Lib), vec![2]);
        let oo = "use std::fs::OpenOptions;\n\
                  fn save(p: &Path) { let f = OpenOptions::new().append(true).open(p); }";
        assert_eq!(hits(oo, RuleKind::UnsyncedStoreWrite, FileClass::Lib), vec![2]);
    }

    #[test]
    fn unsynced_store_write_exemptions() {
        let src = "fn save(p: &Path) { std::fs::write(p, b\"x\"); }";
        // store.rs is the sanctioned writer.
        assert!(scan_source(
            "crates/core/src/store.rs",
            src,
            FileClass::Lib,
            &[RuleKind::UnsyncedStoreWrite]
        )
        .is_empty());
        // Reads, read-only OpenOptions, bins/benches/tests: all clean.
        let reads = "use std::fs::OpenOptions;\nfn load(p: &Path) {\n\
                     let t = std::fs::read_to_string(p);\n\
                     let f = OpenOptions::new().read(true).open(p);\n}";
        assert!(hits(reads, RuleKind::UnsyncedStoreWrite, FileClass::Lib).is_empty());
        assert!(hits(src, RuleKind::UnsyncedStoreWrite, FileClass::Other).is_empty());
        let allowed = "fn save(p: &Path) {\n\
                       // sherlock-lint: allow(unsynced-store-write): lint baseline file\n\
                       std::fs::write(p, b\"x\");\n}";
        assert!(hits(allowed, RuleKind::UnsyncedStoreWrite, FileClass::Lib).is_empty());
    }
}
