//! Exhaustive interleaving checks of the real request slab
//! (`fairmpi::RequestSlab`): the generation rule that keeps a stale token
//! away from its slot's next occupant, and single-winner reaping.

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
