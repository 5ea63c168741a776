//! Exhaustive interleaving checks of the real request slab
//! (`fairmpi::RequestSlab`): the generation rule that keeps a stale token
//! away from its slot's next occupant, single-winner reaping, and the
//! sharded free list's steal path. Inside a model execution each thread's
//! free-list shard is its model thread id, so the root thread is shard 0
//! and the n-th spawned thread is shard n.

use fairmpi::{Delivery, Message, MpiError, RequestSlab};
use fairmpi_check::{assert_exhaustive, spawn, Checker};
use std::sync::Arc;

/// The progress path delivers a late completion (a duplicate `SendDone`,
/// then a failure) for a request while the application thread completes,
/// reaps and reallocates the same slot. In every schedule the new occupant
/// stays pending: the stale token never completes it.
#[test]
fn stale_completion_never_reaches_the_next_occupant() {
    let outcome = Checker::new().check(|| {
        let slab = Arc::new(RequestSlab::new(0));
        let old = slab.alloc_send(0, 1, None);
        let progress = {
            let slab = Arc::clone(&slab);
            spawn(move || {
                slab.complete_send(old);
                slab.fail(old, MpiError::InstanceFailed);
            })
        };
        slab.complete_send(old);
        let ack = slab.try_reap(old).expect("a completed request reaps");
        assert!(ack.is_ok(), "the send completed, so it cannot also fail");
        let new = slab.alloc_recv(8);
        assert_eq!(new as u32, old as u32, "the freed slot is reused");
        progress.join();
        assert!(
            !slab.is_done(new),
            "the slot's new occupant was completed by a stale token"
        );
        assert_eq!(slab.len(), 1);
    });
    assert_exhaustive(outcome, "RequestSlab stale completion vs reuse");
}

/// Two threads reap one finished token: exactly one gets the message, the
/// other gets `InvalidRequest`, and the slot is freed once.
#[test]
fn racing_reapers_take_the_outcome_exactly_once() {
    let outcome = Checker::new().check(|| {
        let slab = Arc::new(RequestSlab::new(0));
        let token = slab.alloc_recv(8);
        let msg = Message {
            data: vec![7],
            src: 1,
            tag: 2,
        };
        assert_eq!(slab.deliver(token, msg.clone()), Delivery::Completed);
        let reapers: Vec<_> = (0..2)
            .map(|_| {
                let slab = Arc::clone(&slab);
                spawn(move || slab.try_reap(token))
            })
            .collect();
        let mut outcomes: Vec<_> = reapers.into_iter().map(|r| r.join()).collect();
        outcomes.sort_by_key(|o| matches!(o, Some(Err(_))));
        assert_eq!(
            outcomes,
            vec![Some(Ok(msg)), Some(Err(MpiError::InvalidRequest(token)))]
        );
        assert!(slab.is_empty(), "the slot was freed exactly once");
    });
    assert_exhaustive(outcome, "RequestSlab racing reapers");
}

/// Slot index a token names.
fn slot(token: u64) -> u32 {
    token as u32 - 1
}

/// The root thread's request is reaped on another thread, so its slot goes
/// to that thread's shard, while a third thread allocates. Whichever
/// allocation comes second steals the freed slot instead of growing the
/// slab: the two live requests occupy exactly slots 0 and 1, and `len()`
/// is exact.
#[test]
fn a_slot_freed_on_another_shard_is_reused_before_growing() {
    let outcome = Checker::new().check(|| {
        let slab = Arc::new(RequestSlab::new(0));
        let first = slab.alloc_send(0, 1, None);
        assert!(slab.complete_send(first));
        let reaper = {
            let slab = Arc::clone(&slab);
            spawn(move || slab.try_reap(first).expect("finished").expect("a send ack"))
        };
        let allocator = {
            let slab = Arc::clone(&slab);
            spawn(move || slab.alloc_recv(8))
        };
        reaper.join();
        let racing = allocator.join();
        let last = slab.alloc_recv(8);
        let mut slots = [slot(racing), slot(last)];
        slots.sort_unstable();
        assert_eq!(slots, [0, 1], "the slab grew past a free slot");
        assert_eq!(slab.len(), 2);
    });
    assert_exhaustive(outcome, "RequestSlab steal before growth");
}

/// Two threads allocate at once while both free slots sit in a third
/// thread's shard: both steal, they take different slots, and the slab
/// does not grow.
#[test]
fn racing_stealers_take_different_slots() {
    let outcome = Checker::new().check(|| {
        let slab = Arc::new(RequestSlab::new(0));
        let freer = {
            let slab = Arc::clone(&slab);
            spawn(move || {
                let tokens = [slab.alloc_send(0, 1, None), slab.alloc_send(0, 1, None)];
                for token in tokens {
                    assert!(slab.complete_send(token));
                    slab.try_reap(token).expect("finished").expect("a send ack");
                }
            })
        };
        freer.join();
        let stealers: Vec<_> = (0..2)
            .map(|_| {
                let slab = Arc::clone(&slab);
                spawn(move || slab.alloc_recv(8))
            })
            .collect();
        let mut slots: Vec<u32> = stealers.into_iter().map(|s| slot(s.join())).collect();
        slots.sort_unstable();
        assert_eq!(slots, [0, 1], "one free slot was handed out twice");
        assert_eq!(slab.len(), 2);
    });
    assert_exhaustive(outcome, "RequestSlab racing stealers");
}
