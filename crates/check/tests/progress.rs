//! Exhaustive interleaving check of the Algorithm 2 progress shape:
//! dedicated-instance drain first, unconditional round-robin fallback
//! sweep when the dedicated drain produced nothing. The miniature covers
//! the shape; the last test runs the real `CriPool` and `ProgressEngine`.

use fairmpi_check::mutants::MiniPool;
use fairmpi_check::{assert_exhaustive, spawn, yield_now, Checker};
use fairmpi_cri::{Assignment, CriPool};
use fairmpi_fabric::{Completion, Envelope, Fabric, FabricConfig, Packet};
use fairmpi_progress::{ProgressEngine, ProgressHandler, ProgressMode};
use fairmpi_spc::SpcSet;
use std::sync::Arc;

/// A completion posted to an instance nobody is dedicated to is still
/// extracted, in every schedule: the fallback sweep runs unconditionally,
/// so no cross-thread signal can be lost.
#[test]
fn algorithm2_fallback_sweep_extracts_stranded_completion() {
    let checker = Checker::new();
    let outcome = checker.check(|| {
        let pool = Arc::new(MiniPool::new(2, false));
        let poster = {
            let pool = Arc::clone(&pool);
            // The fabric delivers a completion to instance 1 — which no
            // progress thread is dedicated to.
            spawn(move || pool.post(1, 7))
        };
        // The main thread is the progress thread dedicated to instance 0.
        // A few passes overlap the posting...
        let mut out = Vec::new();
        for _ in 0..2 {
            pool.pass(0, &mut out);
            if !out.is_empty() {
                break;
            }
            yield_now();
        }
        poster.join();
        // ...and one pass after the post is visible must find it.
        if out.is_empty() {
            pool.pass(0, &mut out);
        }
        assert_eq!(out, vec![7], "stranded completion extracted by the sweep");
    });
    assert_exhaustive(outcome, "Algorithm 2 fallback sweep");
}

/// Two progress threads with different dedicated instances never deadlock
/// and never double-extract a completion (try-lock contention on one
/// instance leaves the completion for the lock holder).
#[test]
fn algorithm2_two_progress_threads_extract_exactly_once() {
    let checker = Checker::new();
    let outcome = checker.check(|| {
        let pool = Arc::new(MiniPool::new(2, false));
        pool.post(1, 7);
        let other = {
            let pool = Arc::clone(&pool);
            spawn(move || {
                let mut out = Vec::new();
                pool.pass(1, &mut out);
                out
            })
        };
        let mut out = Vec::new();
        pool.pass(0, &mut out);
        let mut all = other.join();
        all.append(&mut out);
        // Between the dedicated owner and the sweeping thread, exactly one
        // extracts the completion.
        assert_eq!(all, vec![7], "completion extracted exactly once");
    });
    outcome.assert_pass("Algorithm 2 two progress threads");
}

/// Counts every drained item as one user-visible completion.
struct CountAll;

impl ProgressHandler for CountAll {
    fn on_packet(&self, _: Packet) -> usize {
        1
    }
    fn on_completion(&self, _: Completion) -> usize {
        1
    }
}

/// The real engine's fallback sweep visits each instance once per pass,
/// in every schedule, even while another thread draws from the shared
/// round-robin counter: a packet stranded on instance 1 is found by the
/// one pass of the thread dedicated to instance 0. (Drawing the next
/// instance from the shared counter at every step lets that thread land
/// on instance 0 twice and miss instance 1.)
#[test]
fn real_fallback_sweep_visits_every_instance_once() {
    let outcome = Checker::new().check(|| {
        let fabric = Fabric::new(1, 2, FabricConfig::test_default());
        let pool = Arc::new(CriPool::new(&fabric, 0, 2, Arc::new(SpcSet::new())));
        assert_eq!(pool.dedicated_id(), 0, "the main thread owns instance 0");
        // An earlier round-robin send leaves the counter at 2.
        pool.round_robin_id();
        let envelope = Envelope {
            src: 0,
            dst: 0,
            comm: 0,
            tag: 0,
            seq: 0,
        };
        fabric
            .context(0, 1)
            .post_rx(Packet::eager(envelope, vec![]));
        let sender = {
            let pool = Arc::clone(&pool);
            spawn(move || {
                pool.round_robin_id();
            })
        };
        let engine = ProgressEngine::new(Arc::clone(&pool), ProgressMode::Concurrent, 0);
        let found = engine.progress(Assignment::Dedicated, &CountAll);
        sender.join();
        assert_eq!(found, 1, "one pass extracts the stranded packet");
    });
    assert_exhaustive(outcome, "real Algorithm 2 fallback sweep");
}
