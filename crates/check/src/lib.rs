//! Deterministic interleaving checker for the fairmpi lock-free core.
//!
//! The runtime's concurrency-critical crates are written against the
//! [`fairmpi_sync`] facade. This crate turns that facade's `model` backend
//! into a test harness: a [`Checker`] runs a closed concurrent program
//! under every thread interleaving within a preemption bound (CHESS-style
//! bounded-preemption DFS), serializing real OS threads so each lock
//! acquisition, atomic access, and condvar operation becomes a scheduling
//! decision point. A failing schedule is returned as a
//! [`Counterexample`] — the exact sequence of thread ids granted at each
//! decision point — and can be re-executed verbatim with
//! [`Checker::replay`].
//!
//! What is covered (see the `tests/` directory):
//!
//! * the real [`fairmpi_offload::TicketRing`] MPSC command ring under
//!   racing producers and a concurrent consumer,
//! * a miniature of the paper's Algorithm 2 progress loop
//!   (dedicated-instance drain with round-robin fallback sweep), and the
//!   real [`fairmpi_progress::ProgressEngine`]'s sweep visiting every
//!   instance of a real [`fairmpi_cri::CriPool`] once per pass,
//! * the real [`fairmpi::DedupWindow`] receiver-side duplicate
//!   suppression under racing deliveries,
//! * the real [`fairmpi::RequestSlab`] generation rule: a stale completion
//!   racing a reap-and-reallocate, and two racing reapers of one token;
//!   and its sharded free list: a slot freed on another thread's shard is
//!   stolen before the slab grows, and two racing stealers take different
//!   slots,
//! * the real [`fairmpi_fabric::NetworkContext`] rx ring under racing
//!   deliveries and a concurrent drainer (exactly-once FIFO delivery and
//!   watermark depths), and its drain guard under racing claims.
//!
//! The [`mutants`] module carries deliberately-broken variants of each
//! algorithm; the test suite asserts the checker produces a reproducible
//! counterexample for every one of them. That closes the loop on the
//! checker itself: a checker that cannot catch a seeded bug proves
//! nothing by passing.
//!
//! The model explores *scheduling* nondeterminism only: operations are
//! executed by serialized threads on real memory, so semantics are
//! sequentially consistent regardless of the `Ordering` arguments.
//! Weak-memory reorderings are out of scope (DESIGN.md §10).
//!
//! Quick start:
//!
//! ```
//! use fairmpi_check::{spawn, Checker};
//! use fairmpi_sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let outcome = Checker::new().check(|| {
//!     let n = Arc::new(AtomicU64::new(0));
//!     let handles: Vec<_> = (0..2)
//!         .map(|_| {
//!             let n = Arc::clone(&n);
//!             spawn(move || n.fetch_add(1, Ordering::Relaxed))
//!         })
//!         .collect();
//!     for h in handles {
//!         h.join();
//!     }
//!     assert_eq!(n.load(Ordering::Relaxed), 2);
//! });
//! outcome.assert_pass("two incrementing threads");
//! ```

pub use fairmpi_sync::model::{
    spawn, thread_id, yield_now, Checker, Counterexample, JoinHandle, Outcome,
};

use fairmpi_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

pub mod mutants;

/// Assert that `outcome` passed and that the bounded schedule space was
/// exhausted (not cut short by `max_schedules`), then print its size.
pub fn assert_exhaustive(outcome: Outcome, what: &str) {
    outcome.assert_pass(what);
    if let Outcome::Pass {
        schedules,
        complete,
    } = outcome
    {
        assert!(complete, "bounded schedule space was not exhausted");
        println!("{what}: {schedules} schedules, exhaustive");
    }
}

/// Two threads race to claim `target`'s drain side; `hold` claims it,
/// runs the callback while holding the claim, then releases it. A claim
/// that panics with "concurrent drain" (the drain guard's debug assertion)
/// is tolerated; any other panic propagates. Asserts that no schedule
/// hands out two live claims, and returns whether the assertion fired in
/// this one.
pub fn race_drain_claims<T: Send + Sync + 'static>(
    target: Arc<T>,
    hold: fn(&T, &dyn Fn()),
) -> bool {
    let live = Arc::new(AtomicU64::new(0));
    let overlapped = Arc::new(AtomicBool::new(false));
    let racers: Vec<_> = (0..2)
        .map(|_| {
            let (target, live, overlapped) = (target.clone(), live.clone(), overlapped.clone());
            spawn(move || {
                let held = || {
                    if live.fetch_add(1, Ordering::SeqCst) > 0 {
                        overlapped.store(true, Ordering::SeqCst);
                    }
                    live.fetch_sub(1, Ordering::SeqCst);
                };
                match catch_unwind(AssertUnwindSafe(|| hold(&target, &held))) {
                    Ok(()) => false,
                    Err(payload) if is_concurrent_drain(payload.as_ref()) => true,
                    Err(payload) => resume_unwind(payload),
                }
            })
        })
        .collect();
    let fired = racers.into_iter().fold(false, |fired, r| r.join() | fired);
    assert!(
        !overlapped.load(Ordering::SeqCst),
        "two live drain guards and no concurrent-drain assertion"
    );
    fired
}

fn is_concurrent_drain(payload: &(dyn std::any::Any + Send)) -> bool {
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
    message.is_some_and(|m| m.contains("concurrent drain"))
}

/// Assert that `outcome` is a failure and that replaying its counterexample
/// schedule reproduces a failure. Returns the counterexample for further
/// inspection. This is the contract every seeded-mutant test relies on:
/// finding a bug is only useful if the finding is reproducible.
pub fn assert_reproducible_failure(
    checker: &Checker,
    outcome: &Outcome,
    f: impl Fn() + Send + Sync + 'static,
    what: &str,
) -> Counterexample {
    let ce = outcome
        .counterexample()
        .unwrap_or_else(|| panic!("checker missed the seeded bug in '{what}'"))
        .clone();
    let replayed = checker.replay(&ce.schedule, f);
    assert!(
        replayed.is_fail(),
        "counterexample for '{what}' did not reproduce under replay\n{ce}"
    );
    ce
}
