//! The checker's own regression suite: eight deliberately seeded
//! concurrency bugs (see `fairmpi_check::mutants`), each of which the
//! checker must catch with a reproducible counterexample. A checker that
//! passes correct code proves nothing unless it also fails broken code.

use fairmpi_check::mutants::{
    MiniDrainFlag, MiniPool, MiniRx, MiniShardedFree, MiniSlab, ModelRing, Pop, RacyDedup, RingBug,
    RxBug, SlabBug, StealBug,
};
use fairmpi_check::{
    assert_reproducible_failure, race_drain_claims, spawn, yield_now, Checker, Counterexample,
};
use fairmpi_sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// --- scenario bodies (fn items so check and replay run the same code) ---

fn ring_publish_before_write() {
    let ring = Arc::new(ModelRing::new(4, RingBug::PublishBeforeWrite));
    let producer = {
        let ring = Arc::clone(&ring);
        spawn(move || assert!(ring.try_push(7)))
    };
    let mut got = None;
    for _ in 0..3 {
        match ring.try_pop() {
            Pop::Value(v) => {
                got = Some(v);
                break;
            }
            Pop::Torn => panic!("popped a published but unwritten slot"),
            Pop::Empty => yield_now(),
        }
    }
    producer.join();
    if got.is_none() {
        match ring.try_pop() {
            Pop::Value(v) => got = Some(v),
            other => panic!("expected the pushed value after join, got {other:?}"),
        }
    }
    assert_eq!(got, Some(7));
}

fn ring_ticket_without_cas() {
    let ring = Arc::new(ModelRing::new(4, RingBug::TicketWithoutCas));
    let producers: Vec<_> = (1..=2u64)
        .map(|v| {
            let ring = Arc::clone(&ring);
            spawn(move || assert!(ring.try_push(v)))
        })
        .collect();
    for p in producers {
        p.join();
    }
    let mut got = Vec::new();
    for _ in 0..2 {
        match ring.try_pop() {
            Pop::Value(v) => got.push(v),
            Pop::Empty => panic!("a pushed value was lost ({} of 2 popped)", got.len()),
            Pop::Torn => panic!("popped a published but unwritten slot"),
        }
    }
    got.sort_unstable();
    assert_eq!(got, vec![1, 2], "no value duplicated or lost");
}

fn progress_lost_wakeup() {
    let pool = Arc::new(MiniPool::new(2, true));
    let poster = {
        let pool = Arc::clone(&pool);
        spawn(move || pool.post(1, 7))
    };
    let mut out = Vec::new();
    for _ in 0..2 {
        pool.pass(0, &mut out);
        if !out.is_empty() {
            break;
        }
        yield_now();
    }
    poster.join();
    // Give the mutant every chance: two full passes after the post is
    // complete. Once its pending signal is consumed, no number of passes
    // recovers the stranded completion.
    for _ in 0..2 {
        if out.is_empty() {
            pool.pass(0, &mut out);
        }
    }
    assert_eq!(
        out,
        vec![7],
        "the posted completion is eventually extracted"
    );
}

fn dedup_check_then_insert() {
    let dedup = Arc::new(RacyDedup::new());
    let accepted = Arc::new(AtomicU64::new(0));
    let deliveries: Vec<_> = (0..2)
        .map(|_| {
            let dedup = Arc::clone(&dedup);
            let accepted = Arc::clone(&accepted);
            spawn(move || {
                if dedup.accept(1) {
                    accepted.fetch_add(1, Ordering::SeqCst);
                }
            })
        })
        .collect();
    for d in deliveries {
        d.join();
    }
    assert_eq!(
        accepted.load(Ordering::SeqCst),
        1,
        "exactly one delivery of tseq 1 accepted"
    );
}

/// A late completion of a reaped request races the reap and the
/// reallocation of its slot (the shape of `fairmpi-check`'s real-slab
/// test). Shared by the mutant and the correct-protocol check.
fn stale_completion_after_reuse(bug: SlabBug) {
    let slab = Arc::new(MiniSlab::new(1, bug));
    let old = slab.alloc();
    let late = {
        let slab = Arc::clone(&slab);
        spawn(move || {
            slab.complete(old);
        })
    };
    slab.complete(old);
    assert_eq!(
        slab.try_reap(old),
        Some(true),
        "the finished request is reaped"
    );
    let new = slab.alloc();
    late.join();
    assert!(
        slab.is_pending(new),
        "the slot's new occupant was completed by a stale token"
    );
}

fn slab_reap_without_bump() {
    stale_completion_after_reuse(SlabBug::ReapWithoutBump);
}

/// Two threads allocate at once while both free slots sit in a third
/// thread's shard (the shape of `fairmpi-check`'s real-slab steal test):
/// both steal, and they must take different slots.
fn racing_steals_take_different_slots(bug: StealBug) {
    let free = Arc::new(MiniShardedFree::new(3, bug));
    assert_eq!((free.alloc(2), free.alloc(2)), (0, 1));
    free.free(2, 0);
    free.free(2, 1);
    let stealers: Vec<_> = (0..2)
        .map(|home| {
            let free = Arc::clone(&free);
            spawn(move || free.alloc(home))
        })
        .collect();
    let mut got: Vec<u64> = stealers.into_iter().map(|s| s.join()).collect();
    got.sort_unstable();
    assert_eq!(got, vec![0, 1], "one free slot was handed out twice");
}

fn steal_top_then_pop() {
    racing_steals_take_different_slots(StealBug::TopThenPop);
}

/// Two racing deliveries into an undrained ring produce depths 1 and 2
/// (the shape of `fairmpi-check`'s real-ring watermark test).
fn racing_deliveries_record_their_depths(bug: RxBug) {
    let rx = Arc::new(MiniRx::new(bug));
    let producers: Vec<_> = (1..=2u64)
        .map(|v| {
            let rx = Arc::clone(&rx);
            spawn(move || rx.post(v))
        })
        .collect();
    for p in producers {
        p.join();
    }
    assert_eq!(
        (rx.depth().low(), rx.depth().high()),
        (1, 2),
        "a delivery recorded a depth it did not produce"
    );
}

fn rx_depth_in_second_section() {
    racing_deliveries_record_their_depths(RxBug::DepthInSecondSection);
}

/// Two threads race to claim one drain flag (the shape of
/// `fairmpi-check`'s real drain-guard test).
fn racing_drain_claims(load_then_store: bool) {
    race_drain_claims(
        Arc::new(MiniDrainFlag::new(load_then_store)),
        |flag, held| {
            let _guard = flag.begin();
            held();
        },
    );
}

fn drain_claim_load_then_store() {
    racing_drain_claims(true);
}

// --- catchers: explore, then replay the counterexample verbatim ---

fn catch(what: &str, scenario: fn()) -> Counterexample {
    let checker = Checker::new();
    let outcome = checker.check(scenario);
    let ce = assert_reproducible_failure(&checker, &outcome, scenario, what);
    println!(
        "caught '{what}' after {} schedule(s)",
        ce.schedules_explored
    );
    ce
}

#[test]
fn mutant_ring_publish_before_write_caught() {
    catch("ring publish-before-write", ring_publish_before_write);
}

#[test]
fn mutant_ring_ticket_without_cas_caught() {
    catch("ring ticket-without-CAS", ring_ticket_without_cas);
}

#[test]
fn mutant_progress_lost_wakeup_caught() {
    catch("progress lost-wakeup", progress_lost_wakeup);
}

#[test]
fn mutant_dedup_check_then_insert_caught() {
    catch("dedup check-then-insert", dedup_check_then_insert);
}

#[test]
fn mutant_slab_reap_without_bump_caught() {
    catch("slab reap-without-bump", slab_reap_without_bump);
}

#[test]
fn mutant_rx_depth_in_second_section_caught() {
    catch("rx depth-in-second-section", rx_depth_in_second_section);
}

#[test]
fn mutant_drain_claim_load_then_store_caught() {
    catch("drain claim load-then-store", drain_claim_load_then_store);
}

#[test]
fn mutant_steal_top_then_pop_caught() {
    catch("steal top-then-pop", steal_top_then_pop);
}

/// The gate ci.sh greps for: every seeded mutant produced a reproducible
/// counterexample.
#[test]
fn all_seeded_mutants_caught() {
    let mutants: [(&str, fn()); 8] = [
        ("ring publish-before-write", ring_publish_before_write),
        ("ring ticket-without-CAS", ring_ticket_without_cas),
        ("progress lost-wakeup", progress_lost_wakeup),
        ("dedup check-then-insert", dedup_check_then_insert),
        ("slab reap-without-bump", slab_reap_without_bump),
        ("rx depth-in-second-section", rx_depth_in_second_section),
        ("drain claim load-then-store", drain_claim_load_then_store),
        ("steal top-then-pop", steal_top_then_pop),
    ];
    for (what, scenario) in mutants {
        let ce = catch(what, scenario);
        assert!(!ce.schedule.is_empty(), "counterexample has a schedule");
    }
    println!("all {} seeded mutants caught", mutants.len());
}

/// The miniature rx ring and drain flag without their seeded bugs pass
/// the scenarios their mutants fail.
#[test]
fn miniature_rx_and_drain_flag_correct_protocols_pass() {
    Checker::new()
        .check(|| racing_deliveries_record_their_depths(RxBug::None))
        .assert_pass("miniature rx ring, correct protocol");
    Checker::new()
        .check(|| racing_drain_claims(false))
        .assert_pass("miniature drain flag, correct protocol");
}

/// The miniature slab with the generation bump passes the scenario its
/// mutant fails, and so does the sharded free list with one-guard pops.
#[test]
fn miniature_slab_correct_protocol_passes() {
    Checker::new()
        .check(|| stale_completion_after_reuse(SlabBug::None))
        .assert_pass("miniature slab, correct protocol");
    Checker::new()
        .check(|| racing_steals_take_different_slots(StealBug::None))
        .assert_pass("miniature sharded free list, correct protocol");
}

/// The miniature ring with no seeded bug upholds the same properties the
/// mutants violate — evidence the miniature (and not an artifact of it)
/// is what the mutants break.
#[test]
fn miniature_ring_correct_protocol_passes() {
    let checker = Checker::new();
    checker
        .check(|| {
            let ring = Arc::new(ModelRing::new(4, RingBug::None));
            let producers: Vec<_> = (1..=2u64)
                .map(|v| {
                    let ring = Arc::clone(&ring);
                    spawn(move || assert!(ring.try_push(v)))
                })
                .collect();
            let mut got = Vec::new();
            for _ in 0..3 {
                match ring.try_pop() {
                    Pop::Value(v) => got.push(v),
                    Pop::Torn => panic!("popped a published but unwritten slot"),
                    Pop::Empty => yield_now(),
                }
                if got.len() == 2 {
                    break;
                }
            }
            for p in producers {
                p.join();
            }
            loop {
                match ring.try_pop() {
                    Pop::Value(v) => got.push(v),
                    Pop::Torn => panic!("popped a published but unwritten slot"),
                    Pop::Empty => break,
                }
            }
            got.sort_unstable();
            assert_eq!(got, vec![1, 2]);
        })
        .assert_pass("miniature ring, correct protocol");
}
