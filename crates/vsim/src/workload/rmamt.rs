//! RMA-MT under virtual time.
//!
//! Paper §IV-F: N benchmark threads, each bound to a core, perform 1000
//! `MPI_Put` operations per message size and then synchronize with
//! `MPI_Win_flush`. One-sided traffic needs no matching; the only points of
//! contention are the instances themselves, which is why dedicated
//! assignment scales almost perfectly while a single shared instance
//! collapses (Figs. 6 and 7).

use std::collections::VecDeque;
use std::sync::Arc;

use fairmpi_cri::Assignment;
use fairmpi_progress::ProgressMode;
use fairmpi_spc::{Counter, SpcSet, SpcSnapshot};

use crate::cost::CostModel;
use crate::engine::{Action, Actor, LockId, Resume, Sim, WorldAccess};
use crate::machine::Machine;
use crate::workload::{idle_backoff_ns, pick_instance, Sweep};

/// An RMA-MT experiment (one message size).
#[derive(Debug, Clone)]
pub struct RmamtSim {
    /// Simulated testbed.
    pub machine: Machine,
    /// Origin-side threads issuing puts.
    pub threads: usize,
    /// Payload bytes per put.
    pub msg_size: usize,
    /// Puts per thread before the flush (paper: 1000).
    pub ops_per_thread: usize,
    /// Instances on the origin rank (1 = the "single" series; the paper's
    /// ugni BTL defaults to one per core).
    pub instances: usize,
    /// Instance assignment strategy.
    pub assignment: Assignment,
    /// Progress-engine design used while flushing.
    pub progress: ProgressMode,
    /// RNG seed.
    pub seed: u64,
}

/// Result of one RMA-MT run.
#[derive(Debug, Clone)]
pub struct RmamtResult {
    /// Aggregate put rate over the virtual makespan, after the shared-link
    /// capacity cap.
    pub msg_rate_per_s: f64,
    /// The same rate before applying the link cap (diagnostic).
    pub uncapped_rate_per_s: f64,
    /// Link-level theoretical peak for this message size (the black line).
    pub theoretical_peak_per_s: f64,
    /// Virtual makespan in nanoseconds.
    pub makespan_ns: u64,
    /// Total puts.
    pub total_ops: u64,
    /// Origin-side counters.
    pub spc: SpcSnapshot,
    /// Simulator events run (see [`Sim::events`]).
    pub events: u64,
}

/// Shared state: per-instance origin completion queues.
struct RmaWorld {
    cqs: Vec<VecDeque<u64>>,
    /// Outstanding ops per thread.
    pending: Vec<u64>,
    rr: u64,
    spc: Arc<SpcSet>,
}

impl WorldAccess for RmaWorld {
    fn deliver(&mut self, mailbox: usize, payload: u64) {
        self.cqs[mailbox].push_back(payload);
    }
}

const DRAIN_BATCH: usize = 32;

enum PState {
    /// Issue the next put, or move to the flush.
    Next,
    /// Acquire the chosen instance.
    Inject,
    /// Charge injection (DMA) time under the lock.
    PostCompletion,
    /// Release the instance.
    Release,
    /// Flush: check pending, run progress passes until drained.
    Flush,
    /// Serial flush: gate try-lock result.
    GateTried,
    /// Concurrent flush: instance try-lock result.
    ConcTried,
    /// Holding an instance: drain a batch of completions.
    Drain,
    /// Release the instance after draining.
    DrainUnlock,
    /// Advance the sweep.
    NextInstance,
    /// Release the serial gate.
    ReleaseGate,
    /// Nothing drained anywhere: charge an idle poll, then yield.
    IdlePoll,
    IdleYield,
}

struct Putter {
    id: usize,
    remaining: u64,
    msg_size: usize,
    state: PState,
    cost: CostModel,
    assignment: Assignment,
    progress: ProgressMode,
    instances: usize,
    inst_locks: Arc<[LockId]>,
    gate: LockId,
    cur_instance: usize,
    sweep: Sweep,
    drained_this_pass: usize,
    holding_gate: bool,
    idle_streak: u32,
}

impl Putter {
    /// Whether this thread's completions can only live on its own
    /// instance (dedicated assignment injects every put there).
    fn flush_is_local(&self) -> bool {
        matches!(self.assignment, Assignment::Dedicated)
    }

    /// Plan a flush pass. A local flush visits only the dedicated instance
    /// that holds our CQEs.
    fn plan_sweep(&mut self, world: &mut RmaWorld, all: bool) {
        self.drained_this_pass = 0;
        let own = self.flush_is_local().then_some(self.id % self.instances);
        let (assignment, id, instances) = (self.assignment, self.id, self.instances);
        let first = || pick_instance(assignment, id, instances, &mut world.rr);
        self.sweep.plan(own, all, instances, first);
        self.cur_instance = self.sweep.current();
    }

    /// Pop completions from the held instance; returns extraction cost.
    fn drain(&mut self, world: &mut RmaWorld) -> u64 {
        let mut n = 0usize;
        while n < DRAIN_BATCH {
            match world.cqs[self.cur_instance].pop_front() {
                Some(owner) => {
                    world.pending[owner as usize] -= 1;
                    n += 1;
                }
                None => break,
            }
        }
        self.drained_this_pass += n;
        world.spc.add(Counter::CompletionsDrained, n as u64);
        self.cost.cqe_drain_ns * n as u64
    }
}

impl Actor<RmaWorld> for Putter {
    fn step(&mut self, resume: Resume, _now: u64, world: &mut RmaWorld) -> Action {
        loop {
            match self.state {
                PState::Next => {
                    if self.remaining == 0 {
                        self.state = PState::Flush;
                        continue;
                    }
                    self.remaining -= 1;
                    self.cur_instance =
                        pick_instance(self.assignment, self.id, self.instances, &mut world.rr);
                    self.state = PState::Inject;
                    return Action::Lock(self.inst_locks[self.cur_instance]);
                }
                PState::Inject => {
                    self.state = PState::PostCompletion;
                    return Action::Compute(self.cost.injection_time_ns(self.msg_size, 0));
                }
                PState::PostCompletion => {
                    world.pending[self.id] += 1;
                    world.spc.inc(Counter::RmaPuts);
                    self.state = PState::Release;
                    // The origin-side completion surfaces on this
                    // instance's CQ after the wire round-trips the ack.
                    return Action::Post {
                        mailbox: self.cur_instance,
                        payload: self.id as u64,
                        delay_ns: self.cost.wire_latency_ns * 2,
                    };
                }
                PState::Release => {
                    self.state = PState::Next;
                    return Action::Unlock(self.inst_locks[self.cur_instance]);
                }
                PState::Flush => {
                    if world.pending[self.id] == 0 {
                        world.spc.inc(Counter::RmaFlushes);
                        return Action::Done;
                    }
                    // Dedicated assignment: all our completions are on our
                    // own instance, so flush drains it directly (the BTL's
                    // local RDMA completion path — this is why the paper
                    // sees little difference between serial and concurrent
                    // progress for one-sided traffic).
                    if self.flush_is_local() {
                        self.plan_sweep(world, false);
                        self.state = PState::ConcTried;
                        return Action::TryLock(self.inst_locks[self.cur_instance]);
                    }
                    // Round-robin scattered the completions everywhere; a
                    // full sweep is needed — serialized behind the global
                    // gate under serial progress, try-lock based otherwise.
                    match self.progress {
                        ProgressMode::Serial => {
                            self.state = PState::GateTried;
                            return Action::TryLock(self.gate);
                        }
                        ProgressMode::Concurrent => {
                            self.plan_sweep(world, false);
                            self.state = PState::ConcTried;
                            return Action::TryLock(self.inst_locks[self.cur_instance]);
                        }
                    }
                }
                PState::GateTried => {
                    let Resume::TryLockResult(got) = resume else {
                        unreachable!("gate resume carries a try-lock result");
                    };
                    if !got {
                        self.state = PState::IdlePoll;
                        continue;
                    }
                    // The gate holder blocks on each instance in turn.
                    self.holding_gate = true;
                    self.plan_sweep(world, true);
                    self.state = PState::Drain;
                    return Action::Lock(self.inst_locks[self.cur_instance]);
                }
                PState::ConcTried => {
                    let Resume::TryLockResult(got) = resume else {
                        unreachable!("instance resume carries a try-lock result");
                    };
                    if !got {
                        world.spc.inc(Counter::InstanceTryLockFailures);
                        self.state = PState::NextInstance;
                        continue;
                    }
                    self.state = PState::Drain;
                }
                PState::Drain => {
                    let cost = self.drain(world);
                    self.state = PState::DrainUnlock;
                    return Action::Compute(cost.max(1));
                }
                PState::DrainUnlock => {
                    self.state = PState::NextInstance;
                    return Action::Unlock(self.inst_locks[self.cur_instance]);
                }
                PState::NextInstance => {
                    let early_stop = !self.holding_gate && self.drained_this_pass > 0;
                    if !self.sweep.advance() || early_stop {
                        if self.holding_gate {
                            self.state = PState::ReleaseGate;
                        } else {
                            self.state = if self.drained_this_pass == 0 {
                                PState::IdlePoll
                            } else {
                                PState::Flush
                            };
                        }
                        continue;
                    }
                    self.cur_instance = self.sweep.current();
                    if self.holding_gate {
                        self.state = PState::Drain;
                        return Action::Lock(self.inst_locks[self.cur_instance]);
                    }
                    self.state = PState::ConcTried;
                    return Action::TryLock(self.inst_locks[self.cur_instance]);
                }
                PState::ReleaseGate => {
                    self.holding_gate = false;
                    self.state = if self.drained_this_pass == 0 {
                        PState::IdlePoll
                    } else {
                        PState::Flush
                    };
                    return Action::Unlock(self.gate);
                }
                PState::IdlePoll => {
                    self.state = PState::IdleYield;
                    return Action::Compute(self.cost.poll_empty_ns);
                }
                PState::IdleYield => {
                    self.state = PState::Flush;
                    return Action::Sleep(idle_backoff_ns(&mut self.idle_streak));
                }
            }
        }
    }
}

impl RmamtSim {
    /// Link-level theoretical peak for this size (the black line in the
    /// paper's figures).
    pub fn theoretical_peak(&self) -> f64 {
        CostModel::for_fabric(&self.machine.fabric).link_peak_msg_rate(self.msg_size, 0)
    }

    /// Execute the experiment.
    pub fn run(&self) -> RmamtResult {
        assert!(self.threads >= 1 && self.ops_per_thread >= 1 && self.instances >= 1);
        let cost = CostModel::for_fabric(&self.machine.fabric);
        let spc = Arc::new(SpcSet::new());
        let instances = self.machine.fabric.clamp_contexts(self.instances);

        let world = RmaWorld {
            cqs: vec![VecDeque::new(); instances],
            pending: vec![0; self.threads],
            rr: 0,
            spc: Arc::clone(&spc),
        };

        let mut params = self.machine.sched;
        params.seed = self.seed;
        let mut sim = Sim::new(params, world);
        let inst_locks: Arc<[LockId]> = (0..instances).map(|_| sim.add_lock()).collect();
        let gate = sim.add_lock();

        for id in 0..self.threads {
            sim.add_actor(Box::new(Putter {
                id,
                remaining: self.ops_per_thread as u64,
                msg_size: self.msg_size,
                state: PState::Next,
                cost,
                assignment: self.assignment,
                progress: self.progress,
                instances,
                inst_locks: Arc::clone(&inst_locks),
                gate,
                cur_instance: 0,
                sweep: Sweep::default(),
                drained_this_pass: 0,
                holding_gate: false,
                idle_streak: 0,
            }));
        }

        let total = (self.threads * self.ops_per_thread) as u64;
        let makespan = sim.run(total.saturating_mul(400) + 20_000_000);
        let uncapped = total as f64 / (makespan as f64 / 1e9);
        let peak = self.theoretical_peak();
        RmamtResult {
            msg_rate_per_s: uncapped.min(peak),
            uncapped_rate_per_s: uncapped,
            theoretical_peak_per_s: peak,
            makespan_ns: makespan,
            total_ops: total,
            spc: spc.snapshot(),
            events: sim.events(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, MachinePreset};

    fn sim(threads: usize, instances: usize, assignment: Assignment) -> RmamtSim {
        RmamtSim {
            machine: Machine::preset(MachinePreset::TrinititeHaswell),
            threads,
            msg_size: 1,
            ops_per_thread: 100,
            instances,
            assignment,
            progress: ProgressMode::Serial,
            seed: 11,
        }
    }

    #[test]
    fn all_puts_complete() {
        let r = sim(4, 4, Assignment::Dedicated).run();
        assert_eq!(r.total_ops, 400);
        assert_eq!(r.spc[Counter::RmaPuts], 400);
        assert_eq!(r.spc[Counter::RmaFlushes], 4);
    }

    #[test]
    fn dedicated_scales_with_threads() {
        let r1 = sim(1, 32, Assignment::Dedicated).run();
        let r16 = sim(16, 32, Assignment::Dedicated).run();
        assert!(
            r16.msg_rate_per_s > 8.0 * r1.msg_rate_per_s,
            "dedicated should scale: 1 thr {:.0}/s vs 16 thr {:.0}/s",
            r1.msg_rate_per_s,
            r16.msg_rate_per_s
        );
    }

    #[test]
    fn single_instance_degrades_under_threads() {
        let r1 = sim(1, 1, Assignment::Dedicated).run();
        let r16 = sim(16, 1, Assignment::Dedicated).run();
        assert!(
            r16.msg_rate_per_s < 1.5 * r1.msg_rate_per_s,
            "one shared instance cannot scale: {:.0}/s vs {:.0}/s",
            r1.msg_rate_per_s,
            r16.msg_rate_per_s
        );
    }

    #[test]
    fn dedicated_beats_round_robin() {
        let d = sim(16, 32, Assignment::Dedicated).run();
        let rr = sim(16, 32, Assignment::RoundRobin).run();
        assert!(
            d.msg_rate_per_s > rr.msg_rate_per_s,
            "dedicated {:.0}/s must beat round-robin {:.0}/s",
            d.msg_rate_per_s,
            rr.msg_rate_per_s
        );
    }

    #[test]
    fn large_messages_hit_the_bandwidth_peak() {
        let mut s = sim(16, 32, Assignment::Dedicated);
        s.msg_size = 16 * 1024;
        let r = s.run();
        assert!(
            r.msg_rate_per_s <= r.theoretical_peak_per_s + 1.0,
            "rate can never exceed the link peak"
        );
        assert!(
            r.msg_rate_per_s > 0.5 * r.theoretical_peak_per_s,
            "16 KiB puts from 16 threads should saturate the link: \
             {:.0}/s of peak {:.0}/s",
            r.msg_rate_per_s,
            r.theoretical_peak_per_s
        );
    }

    #[test]
    fn deterministic() {
        let a = sim(8, 8, Assignment::RoundRobin).run();
        let b = sim(8, 8, Assignment::RoundRobin).run();
        assert_eq!(a.makespan_ns, b.makespan_ns);
    }

    #[test]
    fn aries_context_cap_applies() {
        // Requesting more instances than the Aries hardware limit clamps.
        let mut s = sim(4, 4096, Assignment::Dedicated);
        s.ops_per_thread = 10;
        let r = s.run();
        assert_eq!(r.spc[Counter::RmaPuts], 40, "still completes");
    }
}
