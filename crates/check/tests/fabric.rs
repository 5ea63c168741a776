//! Exhaustive interleaving checks of a real fabric context
//! (`fairmpi_fabric::NetworkContext`): the rx ring every sender to the
//! context delivers into, its depth watermark, and the drain guard that
//! keeps the pop side single-threaded.

use fairmpi_check::{assert_exhaustive, race_drain_claims, spawn, yield_now, Checker, JoinHandle};
use fairmpi_fabric::{Envelope, Fabric, FabricConfig, NetworkContext, Packet, Rank};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Rank 1's only context, with ranks 0 and 2 as the producers.
fn receiver() -> Arc<NetworkContext> {
    Arc::clone(Fabric::new(3, 1, FabricConfig::test_default()).context(1, 0))
}

/// Ranks 0 and 2 each deliver packets with seq 0 and 1 into `ctx`.
fn spawn_producers(ctx: &Arc<NetworkContext>) -> Vec<JoinHandle<()>> {
    [0, 2]
        .map(|src| {
            let ctx = Arc::clone(ctx);
            spawn(move || {
                for seq in 0..2 {
                    let envelope = Envelope {
                        src,
                        dst: 1,
                        comm: 0,
                        tag: 0,
                        seq,
                    };
                    ctx.post_rx(Packet::eager(envelope, vec![]));
                }
            })
        })
        .into()
}

/// Two producers deliver two packets each while the drainer pops
/// concurrently: every packet arrives exactly once, each producer's
/// packets in order, and every sampled depth is one a delivery produced
/// (at least its own packet, at most all four).
#[test]
fn rx_ring_delivers_exactly_once_in_producer_order() {
    let outcome = Checker::new().check(|| {
        let ctx = receiver();
        let producers = spawn_producers(&ctx);
        let mut got = Vec::new();
        for _ in 0..2 {
            got.extend(ctx.begin_drain().pop_rx());
            yield_now();
        }
        for p in producers {
            p.join();
        }
        let mut drain = ctx.begin_drain();
        while let Some(p) = drain.pop_rx() {
            got.push(p);
        }
        let from = |src: Rank| -> Vec<u64> {
            got.iter()
                .filter(|p| p.envelope.src == src)
                .map(|p| p.envelope.seq)
                .collect()
        };
        assert_eq!(from(0), vec![0, 1], "rank 0's packets once, in order");
        assert_eq!(from(2), vec![0, 1], "rank 2's packets once, in order");
        let depth = ctx.rx_watermark();
        assert!(
            1 <= depth.low() && depth.high() <= 4,
            "sampled depths {}..{} include one no delivery produced",
            depth.low(),
            depth.high()
        );
    });
    assert_exhaustive(outcome, "rx ring 2 producers x 1 drainer");
}

/// With no drainer the deliveries produce depths 1 through 4 in some
/// order, so the watermark must read exactly low 1 and high 4.
#[test]
fn rx_watermark_records_the_depth_each_delivery_produced() {
    let outcome = Checker::new().check(|| {
        let ctx = receiver();
        for p in spawn_producers(&ctx) {
            p.join();
        }
        let depth = ctx.rx_watermark();
        assert_eq!((depth.low(), depth.high()), (1, 4));
    });
    assert_exhaustive(outcome, "rx watermark 2 producers");
}

/// Two threads race `begin_drain` on one context: no schedule hands out
/// two live guards, and the schedules where the claims overlap trip the
/// concurrent-drain debug assertion.
#[cfg(debug_assertions)]
#[test]
fn racing_drain_claims_never_hand_out_two_guards() {
    static FIRED: AtomicBool = AtomicBool::new(false);
    let outcome = Checker::new().check(|| {
        let fired = race_drain_claims(receiver(), |ctx, held| {
            let _guard = ctx.begin_drain();
            held();
        });
        FIRED.fetch_or(fired, Ordering::Relaxed);
    });
    assert_exhaustive(outcome, "drain guard 2 racing claims");
    assert!(
        FIRED.load(Ordering::Relaxed),
        "no schedule overlapped the two claims"
    );
}
