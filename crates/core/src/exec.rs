//! Deterministic scoped-thread execution layer.
//!
//! DBSherlock's hot loops are embarrassingly parallel: Algorithm 1 builds a
//! partition space and extracts a predicate *per attribute* independently
//! (§§3–4), cause ranking scores confidence *per causal model* independently
//! (§6, Eq. 3), and anomaly detection computes potential power and k-distances
//! per attribute / per point (§7). This module provides the one sanctioned way
//! to fan that work out: [`ExecPolicy`] selects a thread budget and
//! [`par_map_indexed`] maps a function over a slice on scoped threads,
//! collecting results *by index* so output order — and therefore every
//! downstream sort, threshold, and tie-break — is byte-identical to the serial
//! run. Determinism is the correctness bar, enforced by the determinism test
//! suite.
//!
//! Raw `std::thread::spawn` / `std::thread::scope` elsewhere in the workspace
//! is rejected by sherlock-lint's `raw-spawn` rule; route new parallelism
//! through here.
//!
//! Two mapping primitives share one private deterministic scheduler, which
//! holds the workspace's only spawn site. A fan-out on `T` threads spawns
//! `T − 1` scoped helpers and makes the calling thread the `T`-th worker;
//! every worker claims the next unclaimed index from one shared cursor:
//!
//! * [`par_map_indexed`] — infallible `f`; a panic in any task propagates to
//!   the caller exactly as the serial loop would surface it.
//! * [`try_par_map_indexed`] — fallible `f`; a panic in any task is caught at
//!   the slot boundary and surfaced as that slot's
//!   [`SherlockError::TaskPanicked`], so one poisoned input can never take
//!   down the rest of a batch.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::error::SherlockError;

/// How many worker threads a pipeline stage may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecPolicy {
    /// Run on the calling thread only. Guaranteed allocation-free of any
    /// thread machinery; the reference against which parallel output is
    /// checked bit-for-bit.
    Serial,
    /// Use exactly `n` worker threads (clamped to at least 1): the calling
    /// thread plus `n − 1` spawned helpers.
    Threads(usize),
    /// Use one thread per available CPU, the calling thread included, as
    /// reported by [`std::thread::available_parallelism`]; falls back to
    /// serial when the parallelism cannot be determined. The count is read
    /// once per process, as rayon sizes its global pool.
    #[default]
    Auto,
}

impl ExecPolicy {
    /// Resolve the policy to a concrete thread count (always ≥ 1). `Auto`
    /// queries the CPU count on first use and reuses it thereafter.
    pub fn resolve(self) -> usize {
        static CPUS: OnceLock<usize> = OnceLock::new();
        match self {
            ExecPolicy::Serial => 1,
            ExecPolicy::Threads(n) => n.max(1),
            ExecPolicy::Auto => {
                *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
            }
        }
    }
}

impl std::fmt::Display for ExecPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecPolicy::Serial => write!(f, "serial"),
            ExecPolicy::Threads(n) => write!(f, "threads({n})"),
            ExecPolicy::Auto => write!(f, "auto"),
        }
    }
}

/// Map `f` over `items`, possibly in parallel, returning results in input
/// order.
///
/// On `T` threads the calling thread works beside `T − 1` scoped helpers.
/// Each worker claims the next unclaimed index from one shared cursor and
/// keeps `(index, result)` pairs, which are merged and sorted by index
/// afterwards. Because `f` receives the index and the item — never any
/// cross-item state — the output is identical under any [`ExecPolicy`] and
/// any schedule, which the determinism suite asserts.
///
/// A panic in `f` is propagated to the caller with its original payload (the
/// same behavior as the serial loop), whichever worker ran the item.
pub fn par_map_indexed<T, U, F>(policy: ExecPolicy, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    map(policy, items, f)
}

/// The one scheduler behind both public maps: serial on the calling thread
/// when the policy resolves to one thread (no thread machinery built),
/// otherwise the shared-cursor fan-out described on [`par_map_indexed`].
fn map<T, U, F>(policy: ExecPolicy, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let threads = policy.resolve().min(items.len().max(1));
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }

    // The cursor only hands out indices; results reach the caller through
    // the join, so `Relaxed` suffices.
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut chunk = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { return chunk };
            chunk.push((i, f(i, item)));
        }
    };
    let mut indexed: Vec<(usize, U)> = Vec::with_capacity(items.len());
    // A panic on the calling thread unwinds out of the scope once the helpers
    // are joined, carrying the caller's own payload.
    // sherlock-lint: allow(raw-spawn): this is the one sanctioned spawn site
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        indexed.extend(work());
        for helper in helpers {
            // Re-raise a helper panic with its own payload, exactly as the
            // serial loop would surface it.
            match helper.join() {
                Ok(chunk) => indexed.extend(chunk),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, value)| value).collect()
}

/// Render a caught panic payload as a human-readable message.
///
/// `panic!("...")` carries a `&'static str` or (with formatting) a `String`;
/// anything else gets a placeholder rather than being dropped silently.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// [`par_map_indexed`] for fallible tasks, with per-slot panic isolation.
///
/// Each task runs under [`std::panic::catch_unwind`]: a panic becomes that
/// slot's [`SherlockError::TaskPanicked`] (tagged with `stage`) instead of
/// aborting the whole map. Results come back in input order under any
/// [`ExecPolicy`], exactly like [`par_map_indexed`] — the serial and
/// threaded paths share the same isolation semantics, which the determinism
/// suite asserts.
pub fn try_par_map_indexed<T, U, F>(
    policy: ExecPolicy,
    stage: &'static str,
    items: &[T],
    f: F,
) -> Vec<Result<U, SherlockError>>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> Result<U, SherlockError> + Sync,
{
    // `f` only sees `&T` and shared captures; if a panic tears its internal
    // state mid-task, the whole slot is discarded as `TaskPanicked`, so no
    // broken invariant is ever observed afterwards.
    let guarded = |i: usize, item: &T| {
        catch_unwind(AssertUnwindSafe(|| f(i, item))).unwrap_or_else(|payload| {
            Err(SherlockError::TaskPanicked { stage, message: panic_message(payload.as_ref()) })
        })
    };
    map(policy, items, guarded)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_floors_at_one() {
        assert_eq!(ExecPolicy::Serial.resolve(), 1);
        assert_eq!(ExecPolicy::Threads(0).resolve(), 1);
        assert_eq!(ExecPolicy::Threads(7).resolve(), 7);
        assert!(ExecPolicy::Auto.resolve() >= 1);
        assert_eq!(ExecPolicy::Auto.resolve(), ExecPolicy::Auto.resolve());
    }

    #[test]
    fn default_is_auto() {
        assert_eq!(ExecPolicy::default(), ExecPolicy::Auto);
    }

    #[test]
    fn serial_and_parallel_agree() {
        // Every index is evaluated exactly once and comes back in input
        // order, whichever worker claimed it.
        for threads in (1..=8).chain([16, 200]) {
            for len in [0usize, 1, 2, 3, 7, 64, 101] {
                let items: Vec<usize> = (0..len).map(|i| i * 3).collect();
                let policy = ExecPolicy::Threads(threads);
                let square = |i: usize, x: &usize| i * 1000 + x * x;
                let serial = par_map_indexed(ExecPolicy::Serial, &items, square);

                let calls: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
                let counted = |i: usize, x: &usize| {
                    calls[i].fetch_add(1, Ordering::Relaxed);
                    square(i, x)
                };
                assert_eq!(par_map_indexed(policy, &items, counted), serial, "{policy}, {len}");
                let fallible = try_par_map_indexed(policy, "t", &items, |i, x| Ok(counted(i, x)));
                let fallible: Vec<usize> = fallible.into_iter().map(|r| r.unwrap()).collect();
                assert_eq!(fallible, serial, "try {policy}, {len}");
                assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 2), "{policy}, {len}");
            }
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u8> = par_map_indexed(ExecPolicy::Threads(4), &[] as &[u8], |_, x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let items = [1, 2, 3];
        let out = par_map_indexed(ExecPolicy::Threads(64), &items, |_, x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    /// The distinct threads that ran `f` over 64 items under `policy`.
    fn worker_threads(policy: ExecPolicy) -> Vec<std::thread::ThreadId> {
        let seen = std::sync::Mutex::new(Vec::new());
        let items = [0u8; 64];
        par_map_indexed(policy, &items, |_, _| {
            std::thread::sleep(std::time::Duration::from_micros(50));
            let id = std::thread::current().id();
            let mut seen = seen.lock().unwrap();
            if !seen.contains(&id) {
                seen.push(id);
            }
        });
        seen.into_inner().unwrap()
    }

    #[test]
    fn threads_n_runs_on_at_most_n_threads() {
        for n in 1..=8 {
            let seen = worker_threads(ExecPolicy::Threads(n));
            assert!(!seen.is_empty() && seen.len() <= n, "threads({n}) ran on {}", seen.len());
        }
        assert_eq!(worker_threads(ExecPolicy::Serial), vec![std::thread::current().id()]);
        assert_eq!(worker_threads(ExecPolicy::Threads(1)), vec![std::thread::current().id()]);
    }

    use crate::chaos::quiet_panics;

    #[test]
    fn try_map_matches_infallible_map_on_clean_input() {
        let items: Vec<u64> = (0..57).collect();
        let serial =
            try_par_map_indexed(ExecPolicy::Serial, "t", &items, |i, x| Ok((i as u64) * 100 + x));
        for threads in [2, 5, 64] {
            let parallel =
                try_par_map_indexed(ExecPolicy::Threads(threads), "t", &items, |i, x| {
                    Ok((i as u64) * 100 + x)
                });
            assert_eq!(serial, parallel, "threads={threads}");
        }
        let plain = par_map_indexed(ExecPolicy::Serial, &items, |i, x| (i as u64) * 100 + x);
        let unwrapped: Vec<u64> = serial.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(unwrapped, plain);
    }

    #[test]
    fn panics_are_isolated_per_slot() {
        let items: Vec<u32> = (0..20).collect();
        for policy in [ExecPolicy::Serial, ExecPolicy::Threads(4)] {
            let results = quiet_panics(|| {
                try_par_map_indexed(policy, "square", &items, |_, &x| {
                    if x % 7 == 3 {
                        panic!("poison at {x}");
                    }
                    Ok(x * x)
                })
            });
            for (i, result) in results.iter().enumerate() {
                if i % 7 == 3 {
                    match result {
                        Err(SherlockError::TaskPanicked { stage, message }) => {
                            assert_eq!(*stage, "square");
                            assert_eq!(message, &format!("poison at {i}"));
                        }
                        other => panic!("slot {i}: expected TaskPanicked, got {other:?}"),
                    }
                } else {
                    assert_eq!(result.as_ref().unwrap(), &((i * i) as u32), "{policy}");
                }
            }
        }
    }

    #[test]
    fn worker_panics_keep_their_payload() {
        let items: Vec<usize> = (0..33).collect();
        for policy in [ExecPolicy::Serial, ExecPolicy::Threads(2), ExecPolicy::Threads(4)] {
            for poison in [0, items.len() / 2, items.len() - 1] {
                // Either the caller or a helper may claim the poisoned index;
                // repeat so both get their turn, and hold the payload either way.
                for _ in 0..16 {
                    let payload = quiet_panics(|| {
                        std::panic::catch_unwind(|| {
                            par_map_indexed(policy, &items, |i, &x| {
                                if i == poison {
                                    panic!("poison at {i}");
                                }
                                x
                            })
                        })
                    })
                    .expect_err("the poisoned item must panic");
                    let message = panic_message(payload.as_ref());
                    assert_eq!(message, format!("poison at {poison}"), "{policy}");

                    let results = quiet_panics(|| {
                        try_par_map_indexed(policy, "p", &items, |i, &x| {
                            if i == poison {
                                panic!("poison at {i}");
                            }
                            Ok(x)
                        })
                    });
                    for (i, result) in results.iter().enumerate() {
                        match result {
                            Err(SherlockError::TaskPanicked { message, .. }) if i == poison => {
                                assert_eq!(message, &format!("poison at {poison}"), "{policy}");
                            }
                            Ok(x) if i != poison => assert_eq!(*x, i, "{policy}"),
                            other => panic!("{policy} slot {i}: unexpected {other:?}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn errors_pass_through_untouched() {
        let items = [1u8, 2, 3];
        let results = try_par_map_indexed(ExecPolicy::Threads(2), "s", &items, |_, &x| {
            if x == 2 {
                Err(SherlockError::EmptyInput("two"))
            } else {
                Ok(x)
            }
        });
        assert!(matches!(results[1], Err(SherlockError::EmptyInput("two"))));
        assert_eq!(results[0], Ok(1));
        assert_eq!(results[2], Ok(3));
    }

    #[test]
    fn non_string_panic_payloads_get_a_placeholder() {
        let results = quiet_panics(|| {
            try_par_map_indexed(
                ExecPolicy::Serial,
                "s",
                &[0u8],
                |_, _| -> Result<u8, SherlockError> { std::panic::panic_any(42_i32) },
            )
        });
        match &results[0] {
            Err(SherlockError::TaskPanicked { message, .. }) => {
                assert_eq!(message, "non-string panic payload");
            }
            other => panic!("expected TaskPanicked, got {other:?}"),
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(ExecPolicy::Serial.to_string(), "serial");
        assert_eq!(ExecPolicy::Threads(4).to_string(), "threads(4)");
        assert_eq!(ExecPolicy::Auto.to_string(), "auto");
    }
}
