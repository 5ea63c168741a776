//! The fabric: all ranks' contexts plus routing.

use std::sync::{Arc, OnceLock};

use fairmpi_chaos::{ChaosEngine, Delivery, FaultPlan};
use fairmpi_spc::{Counter, SpcSet};
use fairmpi_sync::Mutex;

use crate::{FabricConfig, NetworkContext, Packet, Rank};

/// Runtime of an armed fault plan: the seeded decision engine plus the
/// holdback buffer that realizes reorder/delay faults (a held packet is
/// released after the next on-time delivery, i.e. out of order).
#[derive(Debug)]
struct ChaosState {
    engine: ChaosEngine,
    holdback: Mutex<Vec<(Packet, usize)>>,
}

/// The simulated interconnect connecting a set of ranks.
///
/// Each rank owns a table of [`NetworkContext`]s. Routing follows the
/// paper's BTL/uct arrangement: a packet injected on source context *k*
/// lands in destination context `k % contexts(dst)`, so the receiver drains
/// context *k* by progressing CRI *k*.
#[derive(Debug)]
pub struct Fabric {
    config: FabricConfig,
    ranks: Vec<Vec<Arc<NetworkContext>>>,
    chaos: OnceLock<ChaosState>,
}

impl Fabric {
    /// Build a fabric with the same number of contexts on every rank.
    ///
    /// The requested context count is clamped to the configured hardware
    /// limit ([`FabricConfig::max_contexts`]), as on Cray Aries.
    pub fn new(num_ranks: usize, contexts_per_rank: usize, config: FabricConfig) -> Self {
        let counts = vec![contexts_per_rank; num_ranks];
        Self::with_context_counts(&counts, config)
    }

    /// Build a fabric with a per-rank context count.
    pub fn with_context_counts(counts: &[usize], config: FabricConfig) -> Self {
        assert!(!counts.is_empty(), "a fabric needs at least one rank");
        let ranks = counts
            .iter()
            .enumerate()
            .map(|(rank, &n)| {
                let n = config.clamp_contexts(n);
                (0..n)
                    .map(|i| Arc::new(NetworkContext::new(rank as Rank, i)))
                    .collect()
            })
            .collect();
        Self {
            config,
            ranks,
            chaos: OnceLock::new(),
        }
    }

    /// The cost model.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Number of ranks connected by this fabric.
    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Number of contexts a rank owns.
    pub fn num_contexts(&self, rank: Rank) -> usize {
        self.ranks[rank as usize].len()
    }

    /// A rank's context by index.
    pub fn context(&self, rank: Rank, index: usize) -> &Arc<NetworkContext> {
        &self.ranks[rank as usize][index]
    }

    /// All contexts of a rank.
    pub fn contexts(&self, rank: Rank) -> &[Arc<NetworkContext>] {
        &self.ranks[rank as usize]
    }

    /// The destination context a packet injected on source context
    /// `src_ctx_index` is routed to. When the preferred destination port is
    /// dead (fault injection), delivery fails over to the next surviving
    /// context of the same rank — the receiver's progress engine drains all
    /// of them anyway, only the drain affinity is lost.
    pub fn route(&self, dst: Rank, src_ctx_index: usize) -> &Arc<NetworkContext> {
        let table = &self.ranks[dst as usize];
        let preferred = src_ctx_index % table.len();
        if table[preferred].is_alive() {
            return &table[preferred];
        }
        table
            .iter()
            .cycle()
            .skip(preferred + 1)
            .take(table.len() - 1)
            .find(|c| c.is_alive())
            .unwrap_or(&table[preferred])
    }

    /// Deposit `packet` into the destination rank's ring for the given
    /// source context. This is the wire's delivery step; in native mode the
    /// caller has already charged injection/serialization costs.
    pub fn deliver(&self, packet: Packet, src_ctx_index: usize) {
        fairmpi_trace::instant("fabric.inject");
        let dst = packet.envelope.dst;
        debug_assert!((dst as usize) < self.ranks.len(), "rank {dst} out of range");
        self.route(dst, src_ctx_index).post_rx(packet);
    }

    /// Arm a fault plan on this fabric. Callable at most once, before
    /// traffic flows; with no plan armed the fabric is a perfect wire.
    pub fn enable_chaos(&self, plan: FaultPlan) {
        let armed = self
            .chaos
            .set(ChaosState {
                engine: ChaosEngine::new(plan),
                holdback: Mutex::named(Vec::new(), || "fabric.chaos_holdback".to_string()),
            })
            .is_ok();
        assert!(armed, "a fault plan can only be armed once per fabric");
    }

    /// The armed fault-plan engine, if any.
    pub fn chaos(&self) -> Option<&ChaosEngine> {
        self.chaos.get().map(|c| &c.engine)
    }

    /// Deliver through the armed fault plan: the wire may drop, duplicate,
    /// delay, or reorder the packet, and the plan's context-death trigger
    /// fires here. Identical to [`Fabric::deliver`] when no plan is armed.
    /// Injected fault events are charged to the caller's SPC set.
    pub fn deliver_observed(&self, packet: Packet, src_ctx_index: usize, spc: &SpcSet) {
        let Some(chaos) = self.chaos.get() else {
            self.deliver(packet, src_ctx_index);
            return;
        };
        if let Some(kill) = chaos.engine.observe_send() {
            if (kill.rank as usize) < self.ranks.len() {
                let table = &self.ranks[kill.rank as usize];
                table[kill.context % table.len()].kill();
            }
        }
        match chaos.engine.decide_delivery() {
            Delivery::Deliver => {
                self.deliver(packet, src_ctx_index);
                self.flush_holdback(chaos);
            }
            Delivery::Drop => {
                fairmpi_trace::instant("chaos.drop");
                spc.inc(Counter::ChaosDrops);
            }
            Delivery::Duplicate => {
                fairmpi_trace::instant("chaos.dup");
                spc.inc(Counter::ChaosDups);
                self.deliver(packet.clone(), src_ctx_index);
                self.deliver(packet, src_ctx_index);
                self.flush_holdback(chaos);
            }
            Delivery::Reorder => {
                fairmpi_trace::instant("chaos.reorder");
                spc.inc(Counter::ChaosReorders);
                chaos.holdback.lock().push((packet, src_ctx_index));
            }
            Delivery::Delay(_) => {
                // The native wire has no timer; a delay is a short holdback
                // released by the next on-time delivery.
                fairmpi_trace::instant("chaos.delay");
                chaos.holdback.lock().push((packet, src_ctx_index));
            }
        }
    }

    /// Release every held-back packet (they now arrive *after* a later
    /// packet — the reorder/delay fault made real). A holdback stranded by
    /// the end of traffic acts as a drop, which retransmission repairs.
    fn flush_holdback(&self, chaos: &ChaosState) {
        let held = std::mem::take(&mut *chaos.holdback.lock());
        for (p, src_ctx) in held {
            self.deliver(p, src_ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Envelope, FabricConfig};

    fn packet(dst: Rank, seq: u64) -> Packet {
        Packet::eager(
            Envelope {
                src: 0,
                dst,
                comm: 0,
                tag: 0,
                seq,
            },
            vec![],
        )
    }

    #[test]
    fn routing_is_modulo_destination_contexts() {
        let fabric = Fabric::with_context_counts(&[4, 2], FabricConfig::test_default());
        // src ctx 3 -> dst rank 1, which has 2 contexts -> ctx 1.
        assert_eq!(fabric.route(1, 3).index(), 1);
        assert_eq!(fabric.route(1, 2).index(), 0);
        // Toward rank 0 (4 contexts) the index is preserved.
        assert_eq!(fabric.route(0, 3).index(), 3);
    }

    #[test]
    fn deliver_lands_in_routed_context() {
        let fabric = Fabric::new(2, 3, FabricConfig::test_default());
        fabric.deliver(packet(1, 7), 2);
        let ctx = fabric.context(1, 2);
        let mut drain = ctx.begin_drain();
        assert_eq!(drain.pop_rx().unwrap().envelope.seq, 7);
        // Other contexts stay empty.
        drop(drain);
        assert!(!fabric.context(1, 0).has_work());
        assert!(!fabric.context(1, 1).has_work());
    }

    #[test]
    fn context_count_respects_hardware_cap() {
        let mut cfg = FabricConfig::test_default();
        cfg.max_contexts = Some(8);
        let fabric = Fabric::new(2, 72, cfg);
        assert_eq!(fabric.num_contexts(0), 8);
    }

    #[test]
    fn per_rank_counts() {
        let fabric = Fabric::with_context_counts(&[1, 5], FabricConfig::test_default());
        assert_eq!(fabric.num_contexts(0), 1);
        assert_eq!(fabric.num_contexts(1), 5);
        assert_eq!(fabric.num_ranks(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn empty_fabric_rejected() {
        let _ = Fabric::with_context_counts(&[], FabricConfig::test_default());
    }

    #[test]
    fn observed_delivery_without_a_plan_is_a_perfect_wire() {
        let fabric = Fabric::new(2, 2, FabricConfig::test_default());
        let spc = SpcSet::new();
        fabric.deliver_observed(packet(1, 3), 0, &spc);
        assert!(fabric.context(1, 0).has_work());
        assert_eq!(spc.get(Counter::ChaosDrops), 0);
    }

    #[test]
    fn certain_drop_loses_every_packet_and_counts_them() {
        let fabric = Fabric::new(2, 1, FabricConfig::test_default());
        fabric.enable_chaos(FaultPlan::seeded(11).drop(1000));
        let spc = SpcSet::new();
        for seq in 0..10 {
            fabric.deliver_observed(packet(1, seq), 0, &spc);
        }
        assert!(!fabric.context(1, 0).has_work(), "all packets dropped");
        assert_eq!(spc.get(Counter::ChaosDrops), 10);
    }

    #[test]
    fn reordered_packet_arrives_after_a_later_one() {
        let fabric = Fabric::new(2, 1, FabricConfig::test_default());
        // Find a seed whose first draw reorders and second delivers.
        fabric.enable_chaos(FaultPlan::seeded(1).reorder(500));
        let spc = SpcSet::new();
        let mut sent = 0;
        while spc.get(Counter::ChaosReorders) == 0 {
            fabric.deliver_observed(packet(1, sent), 0, &spc);
            sent += 1;
        }
        let held = sent - 1; // the last send was held back
                             // Half the draws deliver normally, and every normal delivery
                             // flushes the holdback behind itself — 100 more sends guarantee
                             // (deterministically, same seed same schedule) the held packet
                             // reappears after a later one.
        for _ in 0..100 {
            fabric.deliver_observed(packet(1, sent), 0, &spc);
            sent += 1;
        }
        let mut order = Vec::new();
        let mut drain = fabric.context(1, 0).begin_drain();
        while let Some(p) = drain.pop_rx() {
            order.push(p.envelope.seq);
        }
        let pos_held = order.iter().position(|&s| s == held).expect("held seq");
        assert!(
            order[..pos_held].iter().any(|&s| s > held),
            "seq {held} must arrive after a later packet, order {order:?}"
        );
    }

    #[test]
    fn dead_destination_port_fails_over_routing() {
        let fabric = Fabric::new(2, 3, FabricConfig::test_default());
        assert_eq!(fabric.route(1, 1).index(), 1);
        fabric.context(1, 1).kill();
        assert_eq!(
            fabric.route(1, 1).index(),
            2,
            "delivery fails over to the next surviving context"
        );
        fabric.context(1, 2).kill();
        assert_eq!(fabric.route(1, 1).index(), 0);
    }

    #[test]
    fn kill_trigger_fires_at_the_observation_threshold() {
        let fabric = Fabric::new(2, 2, FabricConfig::test_default());
        fabric.enable_chaos(FaultPlan::seeded(4).kill(1, 1, 5));
        let spc = SpcSet::new();
        for seq in 0..5 {
            fabric.deliver_observed(packet(1, seq), 0, &spc);
            assert!(fabric.context(1, 1).is_alive());
        }
        fabric.deliver_observed(packet(1, 5), 0, &spc);
        assert!(
            !fabric.context(1, 1).is_alive(),
            "kill fires past threshold"
        );
        assert!(fabric.context(1, 0).is_alive(), "only the victim dies");
    }

    #[test]
    #[should_panic(expected = "armed once")]
    fn double_chaos_arming_is_rejected() {
        let fabric = Fabric::new(2, 1, FabricConfig::test_default());
        fabric.enable_chaos(FaultPlan::seeded(1));
        fabric.enable_chaos(FaultPlan::seeded(2));
    }
}
