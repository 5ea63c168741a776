//! Multirate–pairwise under virtual time.
//!
//! N sender threads on rank 0 stream 0-byte messages to N receiver threads
//! on rank 1 (paper Fig. 2, thread↔thread mode; process mode replaces the
//! threads with independent single-threaded processes). The actors run the
//! **real** matching engine and the **real** send-side sequence counters;
//! only time, locks and cores are virtual. Out-of-sequence percentages and
//! match times (Table II) therefore come out of the actual data structures.
//!
//! Each protocol step is written once, as a sub-machine the actors embed:
//! `Section` (a request-pool visit or a receive post), `Injector` (lock,
//! inject, ship through the chaos wire, retransmit), `ProgressPass`
//! (try-lock, extract, match over a `Sweep`) and `CmdBatch` (an offload
//! worker's command-queue drain).

use std::cell::RefCell;
use std::collections::{HashSet, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

use fairmpi_chaos::{XorShift64, Xoshiro256};

use fairmpi_cri::Assignment;
use fairmpi_fabric::{Envelope, Packet, ANY_TAG};
use fairmpi_matching::{MatchEvent, Matcher, PostOutcome, PostedRecv, SendSequencer};
use fairmpi_progress::ProgressMode;
use fairmpi_spc::{Counter, Histogram, SpcSeries, SpcSet, SpcSnapshot, Watermark};

use crate::cost::CostModel;
use crate::engine::{Action, Actor, LockId, Resume, Sim, WorldAccess};
use crate::machine::Machine;
use crate::workload::{idle_backoff_ns, pick_instance, Sweep};

/// How matching state is laid out across pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimMatchLayout {
    /// All pairs share one communicator (one matcher, one matching lock) —
    /// the configuration of paper Figs. 3a/3b.
    SingleComm,
    /// One communicator per pair (a matcher and lock each) — the
    /// "concurrent matching" configuration of Fig. 3c.
    CommPerPair,
}

/// One design point of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimDesign {
    /// Number of CRIs per rank.
    pub instances: usize,
    /// Instance assignment strategy (Algorithm 1).
    pub assignment: Assignment,
    /// Progress-engine design (Algorithm 2 or the serial original).
    pub progress: ProgressMode,
    /// Matching layout.
    pub matching: SimMatchLayout,
    /// `mpi_assert_allow_overtaking`: skip sequence validation (Fig. 4).
    pub allow_overtaking: bool,
    /// Receivers post `MPI_ANY_TAG` so every message matches the head of
    /// the posted queue (Fig. 4's queue-search elimination).
    pub any_tag: bool,
    /// Emulate a big-lock implementation: one process-wide critical
    /// section around the send path and each whole progress pass (the
    /// IMPI / MPICH threaded baselines of Fig. 5).
    pub big_lock: bool,
    /// Process mode: each pair is a pair of single-threaded processes with
    /// private resources (the process-mode baselines of Fig. 5).
    pub process_mode: bool,
    /// Software offload: this many dedicated communication workers per
    /// side, each owning one instance. Application threads only enqueue
    /// command descriptors (lock-free) and poll completions; the workers
    /// do all injection, extraction and matching. 0 disables offload
    /// (and it is ignored under `big_lock` or `process_mode`).
    pub offload_workers: usize,
    /// Chaos: per-mille probability that a shipped frame is dropped on
    /// the wire, repaired by timeout-and-retransmit at the cost model's
    /// `retransmit_timeout_ns` with exponential backoff. 0 disables.
    pub chaos_drop_pm: u16,
    /// Chaos: per-mille probability that a shipped frame arrives twice;
    /// the receive path suppresses the duplicate. 0 disables.
    pub chaos_dup_pm: u16,
    /// Seed of the chaos RNG stream. Deliberately separate from the run
    /// seed so arming chaos never perturbs the scheduler's draws.
    pub chaos_seed: u64,
}

impl SimDesign {
    /// The original Open MPI threaded design (the red baseline of Fig. 3).
    pub fn baseline() -> Self {
        Self {
            instances: 1,
            assignment: Assignment::RoundRobin,
            progress: ProgressMode::Serial,
            matching: SimMatchLayout::SingleComm,
            allow_overtaking: false,
            any_tag: false,
            big_lock: false,
            process_mode: false,
            offload_workers: 0,
            chaos_drop_pm: 0,
            chaos_dup_pm: 0,
            chaos_seed: 0,
        }
    }

    /// Process-mode baseline (pairs of single-threaded processes).
    pub fn process_mode() -> Self {
        Self {
            process_mode: true,
            matching: SimMatchLayout::CommPerPair,
            ..Self::baseline()
        }
    }

    /// The software-offload design point: `workers` dedicated communication
    /// threads per side, each with a dedicated instance (mirrors
    /// `DesignConfig::builder().offload(n)` in `fairmpi`). Composes with per-communicator
    /// matching — without it every pair's posted receives share one PRQ and
    /// the workers' match traversals grow with the pair count, burying the
    /// benefit of the lock-free submission path.
    pub fn offload(workers: usize) -> Self {
        let workers = workers.max(1);
        Self {
            instances: workers,
            assignment: Assignment::Dedicated,
            progress: ProgressMode::Concurrent,
            matching: SimMatchLayout::CommPerPair,
            offload_workers: workers,
            ..Self::baseline()
        }
    }

    /// Arm the lossy-wire model on this design (the degradation grids
    /// sweep `drop_pm` through this).
    pub fn chaos(mut self, drop_pm: u16, dup_pm: u16, seed: u64) -> Self {
        self.chaos_drop_pm = drop_pm;
        self.chaos_dup_pm = dup_pm;
        self.chaos_seed = seed;
        self
    }
}

/// A Multirate–pairwise experiment.
#[derive(Debug, Clone)]
pub struct MultirateSim {
    /// Simulated testbed.
    pub machine: Machine,
    /// Number of communicating pairs (threads or processes per side).
    pub pairs: usize,
    /// Outstanding-receive window (the paper uses 128).
    pub window: usize,
    /// Windows per pair; total messages = pairs × window × iterations.
    pub iterations: usize,
    /// Design under test.
    pub design: SimDesign,
    /// RNG seed (wire jitter).
    pub seed: u64,
    /// Override the cost model (default: derived from the machine's
    /// fabric). Used by the Fig. 5 harness to apply per-implementation
    /// software-overhead emulation constants.
    pub cost: Option<CostModel>,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct MultirateResult {
    /// Aggregate message rate over the virtual makespan.
    pub msg_rate_per_s: f64,
    /// Virtual makespan in nanoseconds.
    pub makespan_ns: u64,
    /// Messages transferred.
    pub total_messages: u64,
    /// Counters (out-of-sequence, match time, ...), receiver side included.
    pub spc: SpcSnapshot,
    /// Simulator events run (see [`Sim::events`]).
    pub events: u64,
}

// ---------------------------------------------------------------------
// Shared world
// ---------------------------------------------------------------------

const DRAIN_BATCH: usize = 32;

/// Simulated offload command-queue capacity (the native default of
/// `fairmpi_offload::OffloadConfig`). Enqueues against a full queue stall
/// and count [`Counter::OffloadBackpressureStalls`].
const OFFLOAD_QUEUE_CAP: usize = 1024;

fn pack(comm: u32, tag: u16, seq: u64) -> u64 {
    debug_assert!(comm < 1 << 15, "too many communicators to pack");
    debug_assert!(seq < 1 << 32, "sequence number overflows packing");
    ((comm as u64) << 48) | ((tag as u64) << 32) | seq
}

fn unpack(payload: u64) -> Packet {
    let comm = (payload >> 48) as u32;
    let tag = ((payload >> 32) & 0xffff) as i32;
    let seq = payload & 0xffff_ffff;
    Packet::eager(
        Envelope {
            src: 0,
            dst: 1,
            comm,
            tag,
            seq,
        },
        Vec::new(),
    )
}

fn payload_comm(payload: u64) -> usize {
    (payload >> 48) as usize
}

/// The simulated lossy wire: the fault schedule's own deterministic RNG
/// stream (never the scheduler's — arming chaos must not perturb the
/// jitter draws of an otherwise identical run) plus the receiver-side
/// duplicate-suppression set.
struct ChaosWire {
    rng: XorShift64,
    drop_pm: u16,
    dup_pm: u16,
    /// Payload words already matched once (dedup key: the packed
    /// (comm, tag, seq) word, unique per logical message).
    seen: HashSet<u64>,
}

/// What the chaos wire did to one shipped frame.
#[derive(Clone, Copy, PartialEq, Eq)]
enum WireVerdict {
    Deliver,
    Drop,
    Duplicate,
}

/// Shared state: receiver rings, the real matchers and sequencers (one
/// of each per communicator, indexed by communicator id).
pub(crate) struct MrWorld {
    chaos: Option<ChaosWire>,
    rings: Vec<VecDeque<u64>>,
    matchers: Vec<Matcher>,
    sequencers: Vec<SendSequencer>,
    spc: Arc<SpcSet>,
    /// Completed receives per receiver thread (request tokens == thread id).
    recv_done: Vec<u64>,
    /// Sum of `recv_done` (the offload workers' termination check).
    received: u64,
    /// Offload: send command descriptors awaiting a worker (payload words).
    cmd_send: VecDeque<u64>,
    /// Offload: receive-post commands awaiting a worker (receiver ids).
    cmd_recv: VecDeque<usize>,
    /// Senders that have finished enqueueing (offload workers drain until
    /// every sender is done *and* the command queue is empty).
    senders_done: usize,
    rr_send: u64,
    rr_recv: u64,
    rng: Xoshiro256,
    scratch: Vec<MatchEvent>,
}

impl WorldAccess for MrWorld {
    fn deliver(&mut self, mailbox: usize, payload: u64) {
        self.rings[mailbox].push_back(payload);
        self.spc
            .record_level(Watermark::InstanceRxDepth, self.rings[mailbox].len() as u64);
    }
}

impl MrWorld {
    fn note_received(&mut self, token: usize) {
        self.recv_done[token] += 1;
        self.received += 1;
    }

    /// Wire verdict for one shipped frame: a single per-mille draw with
    /// cumulative bands, mutually exclusive, exactly like the native
    /// fabric's chaos hook.
    fn chaos_ship(&mut self) -> WireVerdict {
        let Some(chaos) = &mut self.chaos else {
            return WireVerdict::Deliver;
        };
        let r = chaos.rng.draw_pm();
        if r < chaos.drop_pm {
            self.spc.inc(Counter::ChaosDrops);
            WireVerdict::Drop
        } else if r < chaos.drop_pm + chaos.dup_pm {
            self.spc.inc(Counter::ChaosDups);
            WireVerdict::Duplicate
        } else {
            WireVerdict::Deliver
        }
    }

    /// Post receiver `id`'s next receive through the real matcher and
    /// charge its match time, including the `waited` ns spent on the
    /// matching lock (as OMPI's SPC does: the Table II number). Returns the
    /// virtual cost of the post itself.
    fn post(&mut self, id: usize, w: &Wiring, waited: u64) -> u64 {
        let comm = w.comm_of(id);
        let recv = PostedRecv {
            token: id as u64,
            comm,
            src: 0,
            tag: if w.design.any_tag { ANY_TAG } else { id as i32 },
        };
        let (outcome, work) = self.matchers[comm as usize].post_recv(recv);
        if let PostOutcome::Matched(_) = outcome {
            self.note_received(id);
        }
        let cost = w.cost.match_time_ns(&work);
        self.spc.add(Counter::MatchTimeNanos, cost + waited);
        cost
    }

    /// Deliver one drained packet through the real matcher; returns the
    /// virtual cost of the work performed and the completions it produced.
    fn match_deliver(&mut self, payload: u64, cost: &CostModel) -> (u64, usize) {
        if let Some(chaos) = &mut self.chaos {
            // Reliable-transport dedup: a duplicated frame is recognized
            // and discarded before it reaches the matcher, for no more
            // than its extraction cost.
            if !chaos.seen.insert(payload) {
                self.spc.inc(Counter::DuplicatesSuppressed);
                return (cost.extraction_ns, 0);
            }
        }
        let packet = unpack(payload);
        let comm = packet.envelope.comm as usize;
        let mut events = std::mem::take(&mut self.scratch);
        events.clear();
        let work = self.matchers[comm].deliver(packet, &mut events);
        let got = events.len();
        for ev in events.drain(..) {
            self.note_received(ev.token as usize);
        }
        self.scratch = events;
        let cost_ns = cost.match_time_ns(&work);
        self.spc.add(Counter::MatchTimeNanos, cost_ns);
        (cost_ns, got)
    }
}

/// Lock-free offload command enqueue (the whole point: no lock action
/// here). Returns false — after counting a backpressure stall — when full.
fn offload_enqueue<T>(queue: &mut VecDeque<T>, cmd: T, spc: &SpcSet) -> bool {
    if queue.len() >= OFFLOAD_QUEUE_CAP {
        spc.inc(Counter::OffloadBackpressureStalls);
        return false;
    }
    queue.push_back(cmd);
    spc.inc(Counter::OffloadCommands);
    spc.record_level(Watermark::OffloadQueueDepth, queue.len() as u64);
    true
}

/// The run's fixed parameters and locks, shared by every actor.
struct Wiring {
    design: SimDesign,
    cost: CostModel,
    pairs: usize,
    /// Outstanding-receive window.
    window: u64,
    /// Messages each pair transfers.
    per_pair: u64,
    instances: usize,
    send_locks: Vec<LockId>,
    recv_locks: Vec<LockId>,
    /// Matching locks, one per communicator.
    match_locks: Vec<LockId>,
    gate: LockId,
    big: LockId,
    /// Send-side request-pool locks (one per process: a single entry in
    /// thread mode, one per pair in process mode).
    send_pools: Vec<LockId>,
    /// Receive-side request-pool locks.
    recv_pools: Vec<LockId>,
}

impl Wiring {
    /// The communicator pair `pair` talks on.
    fn comm_of(&self, pair: usize) -> u32 {
        match self.design.matching {
            SimMatchLayout::SingleComm => 0,
            SimMatchLayout::CommPerPair => pair as u32,
        }
    }

    /// Algorithm 1 for thread `id`, round-robin drawing from `rr`.
    fn pick(&self, id: usize, rr: &mut u64) -> usize {
        pick_instance(self.design.assignment, id, self.instances, rr)
    }

    /// The lock a receive post holds: the big lock, or the matching lock
    /// of the poster's communicator.
    fn post_lock(&self, id: usize) -> LockId {
        if self.design.big_lock {
            self.big
        } else {
            self.match_locks[self.comm_of(id) as usize]
        }
    }

    /// The lock an injection through `instance` holds.
    fn inject_lock(&self, instance: usize) -> LockId {
        if self.design.big_lock {
            self.big
        } else {
            self.send_locks[instance]
        }
    }

    /// Wire delay of one shipped frame: latency plus a jitter draw.
    fn wire_delay(&self, world: &mut MrWorld) -> u64 {
        // No draw at all without jitter: the RNG stream stays untouched.
        let max = self.cost.delivery_jitter_ns;
        let jitter = (max > 0).then(|| world.rng.below(max + 1));
        self.cost.wire_latency_ns + jitter.unwrap_or(0)
    }
}

// ---------------------------------------------------------------------
// Protocol sub-machines
// ---------------------------------------------------------------------
//
// Each `step` below runs once per simulated event and is inlined into its
// actors' `step`: left as out-of-line calls they slowed the simulator's
// wall clock by about 15 % on the CRIs* grid point.

#[derive(Clone, Copy, Default)]
enum SectionStage {
    #[default]
    Enter,
    Charge,
    Exit,
}

/// A blocking critical section around one charged step: `Lock`, one
/// `Compute`, `Unlock`. Request-pool visits and receive posts are both
/// this shape.
#[derive(Default)]
struct Section {
    lock: LockId,
    since: u64,
    stage: SectionStage,
}

impl Section {
    fn new(lock: LockId) -> Self {
        Self {
            lock,
            ..Self::default()
        }
    }

    /// The next action, and whether it is the section's last. `charge`
    /// runs under the lock: it gets the ns spent waiting for the lock and
    /// returns the virtual cost of the work done there.
    #[inline(always)]
    fn step(&mut self, now: u64, charge: impl FnOnce(u64) -> u64) -> (Action, bool) {
        match self.stage {
            SectionStage::Enter => {
                self.since = now;
                self.stage = SectionStage::Charge;
                (Action::Lock(self.lock), false)
            }
            SectionStage::Charge => {
                self.stage = SectionStage::Exit;
                (Action::Compute(charge(now - self.since)), false)
            }
            SectionStage::Exit => (Action::Unlock(self.lock), true),
        }
    }
}

#[derive(Clone, Copy, Default)]
enum InjectStage {
    /// Pick an instance (Algorithm 1, or a worker's own) and lock it.
    #[default]
    Acquire,
    /// Lock granted: charge injection.
    Inject,
    /// Injection done: ship through the chaos wire.
    Ship,
    /// Chaos duplicated the frame: post the second copy.
    ShipDup,
    /// Chaos dropped the frame: the (virtual) ack timeout elapsed with
    /// nothing to show; back off, then re-acquire and re-inject.
    Backoff,
    /// Shipped: release the lock.
    Release,
}

/// Injecting one frame: lock the instance, charge injection, ship it
/// (post, duplicate post, or drop followed by a retransmit backoff and a
/// fresh attempt), release.
#[derive(Default)]
struct Injector {
    stage: InjectStage,
    lock: LockId,
    mailbox: usize,
    frame: u64,
    /// Retransmit attempts for the in-hand frame (chaos only).
    attempt: u32,
}

impl Injector {
    /// Hand over the next frame.
    fn load(&mut self, frame: u64) {
        self.frame = frame;
        self.stage = InjectStage::Acquire;
    }

    /// The next action, and whether it is the last (the release once the
    /// frame is on the wire). `pick` chooses the instance of each attempt.
    #[inline(always)]
    fn step(
        &mut self,
        world: &mut MrWorld,
        w: &Wiring,
        pick: impl FnOnce(&mut MrWorld) -> usize,
    ) -> (Action, bool) {
        let ship = |world: &mut MrWorld, frame: u64, mailbox: usize| Action::Post {
            mailbox,
            payload: frame,
            delay_ns: w.wire_delay(world),
        };
        let action = match self.stage {
            InjectStage::Acquire => {
                self.mailbox = pick(world);
                self.lock = w.inject_lock(self.mailbox);
                self.stage = InjectStage::Inject;
                Action::Lock(self.lock)
            }
            InjectStage::Inject => {
                self.stage = InjectStage::Ship;
                Action::Compute(w.cost.injection_time_ns(0, 28))
            }
            InjectStage::Ship => {
                // A unique message counts as sent on its first injection,
                // whatever the wire then does to it; retransmits don't.
                if self.attempt == 0 {
                    world.spc.inc(Counter::MessagesSent);
                }
                let verdict = world.chaos_ship();
                if verdict == WireVerdict::Drop {
                    // The sender only learns of the loss when the ack
                    // timeout fires: release the instance and back off.
                    self.stage = InjectStage::Backoff;
                    return (Action::Unlock(self.lock), false);
                }
                self.attempt = 0;
                self.stage = if verdict == WireVerdict::Duplicate {
                    InjectStage::ShipDup
                } else {
                    InjectStage::Release
                };
                ship(world, self.frame, self.mailbox)
            }
            InjectStage::ShipDup => {
                self.stage = InjectStage::Release;
                ship(world, self.frame, self.mailbox)
            }
            InjectStage::Backoff => {
                let backoff = w.cost.retransmit_timeout_ns << self.attempt.min(6);
                self.attempt += 1;
                world.spc.inc(Counter::Retransmits);
                world.spc.add(Counter::RetryBackoffNanos, backoff);
                self.stage = InjectStage::Acquire;
                Action::Sleep(backoff)
            }
            InjectStage::Release => {
                self.stage = InjectStage::Acquire;
                return (Action::Unlock(self.lock), true);
            }
        };
        (action, false)
    }
}

#[derive(Clone, Copy, Default)]
enum PassStage {
    /// At the sweep's current instance: try-lock it (or, inside the big
    /// lock, extract at once).
    #[default]
    Visit,
    /// Result of the instance try-lock.
    Tried,
    /// Batch extracted: release the instance, then match the batch.
    Extracted,
    /// Match the next drained packet, or move on when the batch is done.
    Matching,
    /// Holding the match lock: deliver through the real matcher, charge.
    MatchCharge,
    /// Release the match lock, continue the batch.
    MatchUnlock,
}

/// One progress pass over a [`Sweep`]: try-lock each instance, extract a
/// batch, release, match each packet under its communicator's lock.
/// Algorithm 2 ends the pass at the first instance that yielded
/// completions; an exhaustive pass (the serial gate holder) visits every
/// instance. Inside the big lock there are no inner locks to take.
#[derive(Default)]
struct ProgressPass {
    stage: PassStage,
    sweep: Sweep,
    exhaustive: bool,
    big: bool,
    batch: Vec<u64>,
    batch_pos: usize,
    /// Completions this pass produced.
    got: usize,
    /// When the current match-lock acquisition started, for charging lock
    /// wait into the match-time counter (as OMPI's SPC does).
    match_wait_from: u64,
}

impl ProgressPass {
    /// Arm a pass over the sweep just planned.
    fn begin(&mut self, exhaustive: bool, big: bool) {
        self.stage = PassStage::Visit;
        self.exhaustive = exhaustive;
        self.big = big;
        self.got = 0;
    }

    /// Move to the next instance; `None` when the pass is over.
    fn next_instance(&mut self) -> Option<()> {
        let early_stop = !self.exhaustive && self.got > 0;
        self.stage = PassStage::Visit;
        (self.sweep.advance() && !early_stop).then_some(())
    }

    /// Pop up to `DRAIN_BATCH` packets from the current instance's ring
    /// and charge their extraction.
    fn extract(&mut self, world: &mut MrWorld, w: &Wiring) -> Action {
        // A pop loop: `VecDeque::drain` slowed these mostly empty polls.
        let ring = &mut world.rings[self.sweep.current()];
        self.batch.clear();
        while self.batch.len() < DRAIN_BATCH {
            let Some(payload) = ring.pop_front() else {
                break;
            };
            self.batch.push(payload);
        }
        let n = self.batch.len();
        self.batch_pos = 0;
        self.stage = PassStage::Extracted;
        world.spc.add(Counter::CompletionsDrained, n as u64);
        world.spc.record_hist(Histogram::DrainBatchSize, n as u64);
        Action::Compute(w.cost.extraction_ns * n as u64)
    }

    fn match_one(&mut self, world: &mut MrWorld, w: &Wiring) -> u64 {
        let payload = self.batch[self.batch_pos];
        self.batch_pos += 1;
        let (cost, got) = world.match_deliver(payload, &w.cost);
        self.got += got;
        cost
    }

    /// The pass's next action; `None` once it is over (`got` holds its
    /// completions).
    #[inline(always)]
    fn step(
        &mut self,
        resume: Resume,
        now: u64,
        world: &mut MrWorld,
        w: &Wiring,
    ) -> Option<Action> {
        loop {
            match self.stage {
                PassStage::Visit => {
                    if self.big {
                        return Some(self.extract(world, w));
                    }
                    self.stage = PassStage::Tried;
                    return Some(Action::TryLock(w.recv_locks[self.sweep.current()]));
                }
                PassStage::Tried => {
                    let Resume::TryLockResult(got) = resume else {
                        unreachable!("instance resume must carry a try-lock result");
                    };
                    if got {
                        return Some(self.extract(world, w));
                    }
                    world.spc.inc(Counter::InstanceTryLockFailures);
                    self.next_instance()?;
                }
                PassStage::Extracted => {
                    self.stage = PassStage::Matching;
                    if !self.big {
                        return Some(Action::Unlock(w.recv_locks[self.sweep.current()]));
                    }
                }
                PassStage::Matching => {
                    if self.batch_pos >= self.batch.len() {
                        self.next_instance()?;
                        continue;
                    }
                    if self.big {
                        return Some(Action::Compute(self.match_one(world, w)));
                    }
                    let comm = payload_comm(self.batch[self.batch_pos]);
                    self.stage = PassStage::MatchCharge;
                    self.match_wait_from = now;
                    return Some(Action::Lock(w.match_locks[comm]));
                }
                PassStage::MatchCharge => {
                    let cost = self.match_one(world, w);
                    let waited = now - self.match_wait_from;
                    world.spc.add(Counter::MatchTimeNanos, waited);
                    self.stage = PassStage::MatchUnlock;
                    return Some(Action::Compute(cost));
                }
                PassStage::MatchUnlock => {
                    let comm = payload_comm(self.batch[self.batch_pos - 1]);
                    self.stage = PassStage::Matching;
                    return Some(Action::Unlock(w.match_locks[comm]));
                }
            }
        }
    }
}

/// An offload worker's private command batch, refilled from a shared
/// command queue up to `DRAIN_BATCH` at a time, plus the worker's idle
/// bookkeeping (a wake-up after a nap costs `offload_wakeup_ns`).
#[derive(Default)]
struct CmdBatch<T> {
    batch: VecDeque<T>,
    idle_streak: u32,
    was_idle: bool,
}

impl<T> CmdBatch<T> {
    /// Refill the empty batch from `queue`: the drain's `Compute`, or
    /// `None` when the queue was empty too.
    fn refill(&mut self, queue: &mut VecDeque<T>, spc: &SpcSet, w: &Wiring) -> Option<Action> {
        let popped = queue.len().min(DRAIN_BATCH);
        if popped == 0 {
            return None;
        }
        self.batch.extend(queue.drain(..popped));
        spc.inc(Counter::OffloadBatches);
        let wake = u64::from(self.was_idle) * w.cost.offload_wakeup_ns;
        let drain = w.cost.offload_drain_ns * popped as u64;
        self.was_idle = false;
        self.idle_streak = 0;
        Some(Action::Compute(wake + drain))
    }

    /// Nothing to do: charge an empty poll (the nap follows).
    fn idle(&mut self, cost: &CostModel) -> Action {
        self.was_idle = true;
        Action::Compute(cost.poll_empty_ns)
    }

    fn nap(&mut self) -> Action {
        Action::Sleep(idle_backoff_ns(&mut self.idle_streak))
    }
}

// ---------------------------------------------------------------------
// Sender actor
// ---------------------------------------------------------------------

enum SState {
    /// Pick the next message (draw seq) or finish.
    Next,
    /// In the shared request pool.
    Pool,
    /// Offload mode: lock-free enqueue onto the command queue (retried
    /// with a short nap when the queue is full — backpressure).
    Enqueue,
    /// Injecting the frame.
    Inject,
}

struct Sender {
    pair: usize,
    remaining: u64,
    state: SState,
    w: Rc<Wiring>,
    pool: Section,
    inj: Injector,
}

impl Actor<MrWorld> for Sender {
    fn step(&mut self, _resume: Resume, now: u64, world: &mut MrWorld) -> Action {
        let w = &*self.w;
        match self.state {
            SState::Next => {
                if self.remaining == 0 {
                    world.senders_done += 1;
                    return Action::Done;
                }
                self.remaining -= 1;
                // Draw the sequence number *now*, before acquiring the
                // instance — the variable delay between the draw and
                // the injection is what lets threads overtake each
                // other and produce out-of-sequence arrivals. (In offload
                // mode the draw happens at enqueue time, in program order,
                // exactly like the native runtime.)
                let comm = w.comm_of(self.pair);
                let seq = world.sequencers[comm as usize].next(0);
                self.inj.load(pack(comm, self.pair as u16, seq));
                self.state = if w.design.big_lock {
                    // The big lock already serializes everything; the
                    // pool is not a separate bottleneck there.
                    SState::Inject
                } else if w.design.offload_workers > 0 {
                    // Offload: the descriptor *is* the command-ring slot,
                    // so submission never touches the process-shared
                    // request pool — the serialization that pins every
                    // other thread-mode design to the pool ceiling.
                    SState::Enqueue
                } else {
                    self.pool = Section::new(w.send_pools[self.pair % w.send_pools.len()]);
                    SState::Pool
                };
                Action::Compute(w.cost.send_software_ns)
            }
            SState::Pool => {
                let (action, last) = self.pool.step(now, |_| w.cost.request_pool_ns);
                if last {
                    self.state = SState::Inject;
                }
                action
            }
            SState::Enqueue => {
                if offload_enqueue(&mut world.cmd_send, self.inj.frame, &world.spc) {
                    self.state = SState::Next;
                    Action::Compute(w.cost.offload_enqueue_ns)
                } else {
                    // Queue full: nap and retry (the Yield backpressure
                    // policy). The descriptor and its seq are kept.
                    Action::Sleep(500)
                }
            }
            SState::Inject => {
                let pick = |world: &mut MrWorld| w.pick(self.pair, &mut world.rr_send);
                let (action, last) = self.inj.step(world, w, pick);
                if last {
                    self.state = SState::Next;
                }
                action
            }
        }
    }
}

// ---------------------------------------------------------------------
// Receiver actor
// ---------------------------------------------------------------------

enum RState {
    /// Top of the loop: post, progress, or finish.
    Idle,
    /// In the receive-side request pool before posting.
    Pool,
    /// Posting one receive.
    Post,
    /// Offload mode: lock-free enqueue of a receive-post command.
    Enqueue,
    /// Serial mode: result of the global gate try-lock.
    GateTried,
    /// Running a progress pass.
    Pass,
    /// Nothing found: charge an empty poll.
    IdlePoll,
    /// Then yield the core.
    IdleYield,
}

struct Receiver {
    id: usize,
    w: Rc<Wiring>,
    state: RState,
    /// Receives posted so far; each full window is waited for.
    posted: u64,
    section: Section,
    pass: ProgressPass,
    /// The gate or big lock held around the current pass.
    held: Option<LockId>,
    /// Consecutive empty progress passes, for poll backoff.
    idle_streak: u32,
}

impl Receiver {
    /// Start a progress pass inside `held` (the serial gate or the big
    /// lock: both sweep every instance) or, without it, Algorithm 2 from
    /// the Algorithm-1 pick. A process polls only its private instance.
    fn start_pass(&mut self, world: &mut MrWorld, held: Option<LockId>) {
        let (w, id) = (&*self.w, self.id);
        let own = w.design.process_mode.then_some(id % w.instances);
        let first = || w.pick(id, &mut world.rr_recv);
        self.pass
            .sweep
            .plan(own, held.is_some(), w.instances, first);
        self.pass.begin(held.is_some(), held == Some(w.big));
        self.held = held;
        self.state = RState::Pass;
    }
}

impl Actor<MrWorld> for Receiver {
    fn step(&mut self, resume: Resume, now: u64, world: &mut MrWorld) -> Action {
        let w = Rc::clone(&self.w);
        loop {
            match self.state {
                RState::Idle => {
                    let done = world.recv_done[self.id];
                    if done >= w.per_pair {
                        return Action::Done;
                    }
                    let wait_target = self.posted / w.window * w.window;
                    if self.posted < w.per_pair && done >= wait_target {
                        self.state = if w.design.big_lock {
                            self.section = Section::new(w.post_lock(self.id));
                            RState::Post
                        } else if w.design.offload_workers > 0 {
                            // Offload: the recv descriptor rides in the
                            // ring slot; no shared-pool visit.
                            RState::Enqueue
                        } else {
                            self.section = Section::new(w.recv_pools[self.id % w.recv_pools.len()]);
                            RState::Pool
                        };
                        return Action::Compute(w.cost.recv_software_ns);
                    }
                    if w.design.offload_workers > 0 {
                        // Offload: the workers progress; the application
                        // thread only polls its completion queue (an
                        // empty-poll charge plus backoff — the CQ read is
                        // the cqe cost).
                        self.state = RState::IdlePoll;
                        continue;
                    }
                    world.spc.inc(Counter::ProgressCalls);
                    if w.design.big_lock {
                        self.start_pass(world, Some(w.big));
                        return Action::Lock(w.big);
                    }
                    if !w.design.process_mode && w.design.progress == ProgressMode::Serial {
                        self.state = RState::GateTried;
                        return Action::TryLock(w.gate);
                    }
                    self.start_pass(world, None);
                }
                RState::Pool => {
                    let (action, last) = self.section.step(now, |_| w.cost.request_pool_ns);
                    if last {
                        self.section = Section::new(w.post_lock(self.id));
                        self.state = RState::Post;
                    }
                    return action;
                }
                RState::Post => {
                    let id = self.id;
                    let (action, last) =
                        self.section.step(now, |waited| world.post(id, &w, waited));
                    if last {
                        self.posted += 1;
                        self.state = RState::Idle;
                    }
                    return action;
                }
                RState::Enqueue => {
                    if offload_enqueue(&mut world.cmd_recv, self.id, &world.spc) {
                        self.posted += 1;
                        self.idle_streak = 0;
                        self.state = RState::Idle;
                        return Action::Compute(w.cost.offload_enqueue_ns);
                    }
                    return Action::Sleep(500);
                }
                RState::GateTried => {
                    let Resume::TryLockResult(got) = resume else {
                        unreachable!("gate resume must carry a try-lock result");
                    };
                    if !got {
                        // Someone else is progressing; bail out like
                        // opal_progress.
                        self.state = RState::IdlePoll;
                        continue;
                    }
                    // The gate holder try-locks each instance: an instance
                    // busy with a sender is skipped and revisited on the
                    // next pass rather than queued behind the convoy.
                    self.start_pass(world, Some(w.gate));
                }
                RState::Pass => {
                    if let Some(action) = self.pass.step(resume, now, world, &w) {
                        return action;
                    }
                    // Book the pass as useful or wasted (the
                    // polling-overhead share the paper's designs trade
                    // off), then release the gate or big lock around it.
                    self.state = if self.pass.got == 0 {
                        world.spc.inc(Counter::ProgressWastedPasses);
                        RState::IdlePoll
                    } else {
                        world.spc.inc(Counter::ProgressUsefulPasses);
                        self.idle_streak = 0;
                        RState::Idle
                    };
                    if let Some(lock) = self.held.take() {
                        return Action::Unlock(lock);
                    }
                }
                RState::IdlePoll => {
                    self.state = RState::IdleYield;
                    return Action::Compute(w.cost.poll_empty_ns);
                }
                RState::IdleYield => {
                    self.state = RState::Idle;
                    return Action::Sleep(idle_backoff_ns(&mut self.idle_streak));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Offload worker actors
// ---------------------------------------------------------------------

enum WsState {
    /// Take the next command from the batch, refill the batch, or finish.
    Drain,
    /// Nothing queued: nap before polling again.
    IdleSleep,
    /// Injecting a commanded frame.
    Inject,
}

/// A dedicated send-side communication thread: batch-drains the command
/// queue and injects through its own instance. Application threads never
/// touch instance locks in offload mode — this actor is the only sender
/// contending (with nobody) for `instance[w].send`.
struct SendWorker {
    instance: usize,
    w: Rc<Wiring>,
    state: WsState,
    cmds: CmdBatch<u64>,
    inj: Injector,
}

impl Actor<MrWorld> for SendWorker {
    fn step(&mut self, _resume: Resume, _now: u64, world: &mut MrWorld) -> Action {
        let w = &*self.w;
        loop {
            match self.state {
                WsState::Drain => {
                    if let Some(frame) = self.cmds.batch.pop_front() {
                        self.inj.load(frame);
                        self.state = WsState::Inject;
                        continue;
                    }
                    if let Some(drain) = self.cmds.refill(&mut world.cmd_send, &world.spc, w) {
                        return drain;
                    }
                    if world.senders_done == w.pairs {
                        return Action::Done;
                    }
                    self.state = WsState::IdleSleep;
                    return self.cmds.idle(&w.cost);
                }
                WsState::IdleSleep => {
                    self.state = WsState::Drain;
                    return self.cmds.nap();
                }
                WsState::Inject => {
                    let (action, last) = self.inj.step(world, w, |_| self.instance);
                    if last {
                        self.state = WsState::Drain;
                    }
                    return action;
                }
            }
        }
    }
}

#[derive(Clone, Copy)]
enum WrState {
    /// Post a commanded receive, refill the batch, run a progress pass, or
    /// finish.
    Top,
    /// Posting a commanded receive for this receiver.
    Post(usize),
    /// Running a progress pass.
    Pass,
    /// Empty pass: nap before polling again.
    IdleSleep,
}

/// A dedicated receive-side communication thread: posts the receives the
/// application enqueued (no per-thread ordering protocol needed here —
/// a pair's postings are interchangeable in this workload) and runs the
/// progress engine over its dedicated instance, falling back to the rest
/// of the sweep exactly like Algorithm 2.
struct RecvWorker {
    instance: usize,
    w: Rc<Wiring>,
    state: WrState,
    cmds: CmdBatch<usize>,
    section: Section,
    pass: ProgressPass,
}

impl Actor<MrWorld> for RecvWorker {
    fn step(&mut self, resume: Resume, now: u64, world: &mut MrWorld) -> Action {
        let w = &*self.w;
        loop {
            match self.state {
                WrState::Top => {
                    if let Some(id) = self.cmds.batch.pop_front() {
                        self.section = Section::new(w.post_lock(id));
                        self.state = WrState::Post(id);
                        continue;
                    }
                    if let Some(drain) = self.cmds.refill(&mut world.cmd_recv, &world.spc, w) {
                        return drain;
                    }
                    if world.received >= w.per_pair * w.pairs as u64 {
                        return Action::Done;
                    }
                    // Progress pass: dedicated instance first, round-robin
                    // fallback over the others (Algorithm 2).
                    world.spc.inc(Counter::ProgressCalls);
                    let first = self.instance;
                    self.pass.sweep.plan(None, false, w.instances, || first);
                    self.pass.begin(false, false);
                    self.state = WrState::Pass;
                }
                WrState::Post(id) => {
                    let (action, last) = self.section.step(now, |waited| world.post(id, w, waited));
                    if last {
                        self.state = WrState::Top;
                    }
                    return action;
                }
                WrState::Pass => {
                    if let Some(action) = self.pass.step(resume, now, world, w) {
                        return action;
                    }
                    if self.pass.got == 0 {
                        world.spc.inc(Counter::ProgressWastedPasses);
                        self.state = WrState::IdleSleep;
                        return self.cmds.idle(&w.cost);
                    }
                    world.spc.inc(Counter::ProgressUsefulPasses);
                    self.cmds.idle_streak = 0;
                    self.state = WrState::Top;
                }
                WrState::IdleSleep => {
                    self.state = WrState::Top;
                    return self.cmds.nap();
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------

/// Add `n` locks made by `add`, named for traces by `name(i)`.
fn add_locks(
    sim: &mut Sim<MrWorld>,
    n: usize,
    add: impl Fn(&mut Sim<MrWorld>) -> LockId,
    name: impl Fn(usize) -> String,
) -> Vec<LockId> {
    let locks: Vec<LockId> = (0..n).map(|_| add(sim)).collect();
    for (i, &lock) in locks.iter().enumerate() {
        sim.name_lock(lock, &name(i));
    }
    locks
}

/// Observation plumbing for one run (all fields optional; the default
/// observes nothing).
///
/// The external-`spc` hook is what connects the MPI_T layer: a caller
/// builds a `fairmpi_mpit::PvarRegistry` over its own `Arc<SpcSet>`,
/// passes a clone here, and every pvar read during and after the run sees
/// the exact cells the simulation updates — no copying, no translation.
#[derive(Default)]
pub struct RunHooks {
    /// Accumulate into this counter set instead of a fresh internal one.
    /// Pass a freshly created set unless deliberately aggregating runs.
    pub spc: Option<Arc<SpcSet>>,
    /// Sample the counter set every this many virtual ns into an
    /// [`SpcSeries`].
    pub series_interval_ns: Option<u64>,
    /// `(interval_ns, f)`: call `f(boundary_ns, &spc)` as virtual time
    /// crosses each interval boundary — the MPI_T-session scrape hook.
    #[allow(clippy::type_complexity)]
    pub scrape: Option<(u64, Box<dyn FnMut(u64, &SpcSet)>)>,
}

impl MultirateSim {
    /// Execute the experiment and report the virtual-time result.
    pub fn run(&self) -> MultirateResult {
        self.run_observed(None).0
    }

    /// Like [`run`](Self::run), but optionally sample the SPC set every
    /// `series_interval_ns` of virtual time for a rate time-series. Lock
    /// and actor trace tracks carry workload names (`instance[0].send`,
    /// `sender[3]`, ...) either way; the series costs nothing when tracing
    /// or sampling is off.
    pub fn run_observed(
        &self,
        series_interval_ns: Option<u64>,
    ) -> (MultirateResult, Option<SpcSeries>) {
        self.run_hooked(RunHooks {
            series_interval_ns,
            ..RunHooks::default()
        })
    }

    /// Full-control variant: external counter set, SPC series and a
    /// periodic scrape callback (see [`RunHooks`]).
    pub fn run_hooked(&self, hooks: RunHooks) -> (MultirateResult, Option<SpcSeries>) {
        assert!(self.pairs >= 1 && self.window >= 1 && self.iterations >= 1);
        let mut design = self.design;
        if design.process_mode {
            // Private resources per pair: one instance (which its thread
            // always uses) and one matching domain each.
            design.instances = self.pairs;
            design.assignment = Assignment::Dedicated;
            design.matching = SimMatchLayout::CommPerPair;
        }
        // Offload is a thread-mode design axis: single-threaded processes
        // and big-lock emulations have no command queue to model.
        if design.process_mode || design.big_lock {
            design.offload_workers = 0;
        }
        let instances = design.instances.max(1);
        let cost = self
            .cost
            .unwrap_or_else(|| CostModel::for_fabric(&self.machine.fabric));
        let spc = hooks.spc.unwrap_or_else(|| Arc::new(SpcSet::new()));
        let series_interval_ns = hooks.series_interval_ns;

        let num_comms = match design.matching {
            SimMatchLayout::SingleComm => 1,
            SimMatchLayout::CommPerPair => self.pairs,
        };
        let matchers: Vec<Matcher> = (0..num_comms)
            .map(|_| Matcher::new(Arc::clone(&spc), design.allow_overtaking))
            .collect();
        let sequencers: Vec<SendSequencer> =
            (0..num_comms).map(|_| SendSequencer::new(1)).collect();

        let world = MrWorld {
            chaos: (design.chaos_drop_pm > 0 || design.chaos_dup_pm > 0).then(|| ChaosWire {
                rng: XorShift64::new(design.chaos_seed),
                drop_pm: design.chaos_drop_pm,
                dup_pm: design.chaos_dup_pm,
                seen: HashSet::new(),
            }),
            rings: vec![VecDeque::new(); instances],
            matchers,
            sequencers,
            spc: Arc::clone(&spc),
            recv_done: vec![0; self.pairs],
            received: 0,
            cmd_send: VecDeque::new(),
            cmd_recv: VecDeque::new(),
            senders_done: 0,
            rr_send: 0,
            rr_recv: 0,
            rng: Xoshiro256::seed_from_u64(self.seed ^ 0x9E37_79B9),
            scratch: Vec::new(),
        };

        // Two nodes' worth of cores: senders live on node 0, receivers on
        // node 1.
        let mut params = self.machine.sched;
        params.cores = self.machine.sched.cores * 2;
        params.seed = self.seed;
        let mut sim = Sim::new(params, world);

        // Contention profiles. Instance and big locks are pthread-style
        // mutexes: heavily crowded hand-offs go through futex wake-ups
        // (the parked regime) — this is what collapses 20 threads sharing
        // one instance. Matching locks see short bursts (posting windows),
        // so they park later and cheaper. Request pools are atomic LIFOs:
        // hand-offs are cache-line transfers only. The mutexes bounce by the
        // machine's scheduler profile, so sweeping it moves them.
        let (bounce_ns, bounce_cap) = (params.lock_bounce_ns, params.lock_bounce_cap);
        let mutex = |sim: &mut Sim<MrWorld>| sim.add_lock_full(bounce_ns, bounce_cap, 3, 2_200);
        let match_mutex = |sim: &mut Sim<MrWorld>| sim.add_lock_full(60, 8, 6, 700);
        let cas = |sim: &mut Sim<MrWorld>| sim.add_lock_with(25, 8);
        let num_pools = if design.process_mode { self.pairs } else { 1 };
        let send_locks = add_locks(&mut sim, instances, mutex, |i| {
            format!("instance[{i}].send")
        });
        let recv_locks = add_locks(&mut sim, instances, mutex, |i| {
            format!("instance[{i}].recv")
        });
        let match_locks = add_locks(&mut sim, num_comms, match_mutex, |i| format!("match[{i}]"));
        let gate = sim.add_lock();
        sim.name_lock(gate, "progress.gate");
        let big = mutex(&mut sim);
        sim.name_lock(big, "big_lock");
        let send_pools = add_locks(&mut sim, num_pools, cas, |i| format!("pool.send[{i}]"));
        let recv_pools = add_locks(&mut sim, num_pools, cas, |i| format!("pool.recv[{i}]"));

        let series = series_interval_ns.map(|ns| Rc::new(RefCell::new(SpcSeries::new(ns))));
        if let Some(series) = &series {
            let series = Rc::clone(series);
            let spc = Arc::clone(&spc);
            sim.add_tick_hook(
                series_interval_ns.unwrap(),
                Box::new(move |boundary_ns, _world| {
                    series.borrow_mut().sample(boundary_ns, &spc);
                }),
            );
        }
        if let Some((interval_ns, mut scrape)) = hooks.scrape {
            let spc = Arc::clone(&spc);
            sim.add_tick_hook(
                interval_ns,
                Box::new(move |boundary_ns, _world| scrape(boundary_ns, &spc)),
            );
        }

        let per_pair = (self.window * self.iterations) as u64;
        let total = per_pair * self.pairs as u64;
        let w = Rc::new(Wiring {
            design,
            cost,
            pairs: self.pairs,
            window: self.window as u64,
            per_pair,
            instances,
            send_locks,
            recv_locks,
            match_locks,
            gate,
            big,
            send_pools,
            recv_pools,
        });

        for pair in 0..self.pairs {
            sim.add_actor_named(
                &format!("sender[{pair}]"),
                Box::new(Sender {
                    pair,
                    remaining: per_pair,
                    state: SState::Next,
                    w: Rc::clone(&w),
                    pool: Section::default(),
                    inj: Injector::default(),
                }),
            );
            sim.add_actor_named(
                &format!("recv[{pair}]"),
                Box::new(Receiver {
                    id: pair,
                    w: Rc::clone(&w),
                    state: RState::Idle,
                    posted: 0,
                    section: Section::default(),
                    pass: ProgressPass::default(),
                    held: None,
                    idle_streak: 0,
                }),
            );
        }

        for worker in 0..design.offload_workers {
            sim.add_actor_named(
                &format!("offload.send[{worker}]"),
                Box::new(SendWorker {
                    instance: worker % instances,
                    w: Rc::clone(&w),
                    state: WsState::Drain,
                    cmds: CmdBatch::default(),
                    inj: Injector::default(),
                }),
            );
            sim.add_actor_named(
                &format!("offload.recv[{worker}]"),
                Box::new(RecvWorker {
                    instance: worker % instances,
                    w: Rc::clone(&w),
                    state: WrState::Top,
                    cmds: CmdBatch::default(),
                    section: Section::default(),
                    pass: ProgressPass::default(),
                }),
            );
        }

        let max_events = total.saturating_mul(400) + 20_000_000;
        let makespan = sim.run(max_events);
        let events = sim.events();
        drop(sim); // release the tick hook's Rc clone
        let result = MultirateResult {
            msg_rate_per_s: total as f64 / (makespan as f64 / 1e9),
            makespan_ns: makespan,
            total_messages: total,
            spc: spc.snapshot(),
            events,
        };
        let series = series.map(|s| {
            Rc::try_unwrap(s)
                .expect("tick hook dropped with the sim")
                .into_inner()
        });
        (result, series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, MachinePreset};

    fn sim(pairs: usize, design: SimDesign) -> MultirateSim {
        MultirateSim {
            machine: Machine::preset(MachinePreset::Alembert),
            pairs,
            window: 16,
            iterations: 4,
            design,
            seed: 7,
            cost: None,
        }
    }

    #[test]
    fn single_pair_baseline_completes_all_messages() {
        let r = sim(1, SimDesign::baseline()).run();
        assert_eq!(r.total_messages, 64);
        assert_eq!(r.spc[Counter::MessagesReceived], 64);
        assert!(r.msg_rate_per_s > 0.0);
    }

    #[test]
    fn results_are_deterministic() {
        let a = sim(4, SimDesign::baseline()).run();
        let b = sim(4, SimDesign::baseline()).run();
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(
            a.spc[Counter::OutOfSequenceMessages],
            b.spc[Counter::OutOfSequenceMessages]
        );
    }

    #[test]
    fn instance_mutexes_follow_the_machine_bounce_penalty() {
        // 8 pairs crowd one shared instance: a dearer hand-off per waiter
        // must cost throughput.
        let rate = |bounce_ns: u64| {
            let mut s = sim(8, SimDesign::baseline());
            s.machine.sched.lock_bounce_ns = bounce_ns;
            s.run().msg_rate_per_s
        };
        let (free, dear) = (rate(0), rate(300));
        assert!(
            free > dear,
            "bounce 0: {free:.0}/s, bounce 300: {dear:.0}/s"
        );
    }

    #[test]
    fn concurrent_senders_produce_out_of_sequence_messages() {
        let mut d = SimDesign::baseline();
        d.instances = 8;
        d.assignment = Assignment::Dedicated;
        let r = sim(8, d).run();
        assert_eq!(r.spc[Counter::MessagesReceived], r.total_messages);
        assert!(
            r.spc[Counter::OutOfSequenceMessages] > 0,
            "8 senders on one communicator must overtake each other"
        );
    }

    #[test]
    fn comm_per_pair_eliminates_out_of_sequence() {
        let mut d = SimDesign::baseline();
        d.instances = 8;
        d.assignment = Assignment::Dedicated;
        d.progress = ProgressMode::Concurrent;
        d.matching = SimMatchLayout::CommPerPair;
        let r = sim(8, d).run();
        assert_eq!(r.spc[Counter::MessagesReceived], r.total_messages);
        // One sender per comm, dedicated instance: in-order per stream up
        // to wire jitter; OOS should be rare compared to the shared case.
        let shared = {
            let mut d2 = SimDesign::baseline();
            d2.instances = 8;
            d2.assignment = Assignment::Dedicated;
            sim(8, d2).run()
        };
        assert!(
            r.spc[Counter::OutOfSequenceMessages] < shared.spc[Counter::OutOfSequenceMessages] / 4,
            "per-pair comms: {} OOS, shared comm: {} OOS",
            r.spc[Counter::OutOfSequenceMessages],
            shared.spc[Counter::OutOfSequenceMessages]
        );
    }

    #[test]
    fn overtaking_design_never_counts_oos() {
        let mut d = SimDesign::baseline();
        d.instances = 8;
        d.allow_overtaking = true;
        d.any_tag = true;
        let r = sim(8, d).run();
        assert_eq!(r.spc[Counter::OutOfSequenceMessages], 0);
        assert_eq!(r.spc[Counter::MessagesReceived], r.total_messages);
        assert!(r.spc[Counter::OvertakenMessages] > 0);
    }

    #[test]
    fn process_mode_completes_and_scales() {
        let r1 = sim(1, SimDesign::process_mode()).run();
        let r8 = sim(8, SimDesign::process_mode()).run();
        assert_eq!(r8.spc[Counter::MessagesReceived], r8.total_messages);
        // Independent pairs: aggregate rate should grow clearly.
        assert!(
            r8.msg_rate_per_s > 4.0 * r1.msg_rate_per_s,
            "process mode should scale: 1 pair {:.0}/s, 8 pairs {:.0}/s",
            r1.msg_rate_per_s,
            r8.msg_rate_per_s
        );
    }

    #[test]
    fn run_hooked_feeds_external_set_and_scrapes_periodically() {
        use std::sync::Mutex;
        let spc = Arc::new(SpcSet::new());
        let scrapes: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&scrapes);
        let (r, series) = sim(2, SimDesign::baseline()).run_hooked(RunHooks {
            spc: Some(Arc::clone(&spc)),
            series_interval_ns: None,
            scrape: Some((
                20_000,
                Box::new(move |t, set| {
                    sink.lock()
                        .unwrap()
                        .push((t, set.get(Counter::MessagesSent)));
                }),
            )),
        });
        assert!(series.is_none());
        // The external set IS the run's set: totals agree exactly.
        assert_eq!(spc.get(Counter::MessagesReceived), r.total_messages);
        assert_eq!(spc.snapshot(), r.spc);
        let scrapes = scrapes.lock().unwrap();
        assert!(!scrapes.is_empty(), "scrape hook must fire");
        assert!(
            scrapes
                .windows(2)
                .all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1),
            "boundaries and counter values must be monotonic"
        );
        assert_eq!(scrapes.last().unwrap().1, r.total_messages);
    }

    #[test]
    fn offload_design_completes_and_counts_queue_activity() {
        let spc = Arc::new(SpcSet::new());
        let (r, _) = sim(8, SimDesign::offload(2)).run_hooked(RunHooks {
            spc: Some(Arc::clone(&spc)),
            ..RunHooks::default()
        });
        assert_eq!(r.spc[Counter::MessagesReceived], r.total_messages);
        // One send command and one receive-post command per message.
        assert_eq!(r.spc[Counter::OffloadCommands], 2 * r.total_messages);
        assert!(r.spc[Counter::OffloadBatches] >= 2, "workers must batch");
        assert!(
            r.spc[Counter::OffloadBatches] <= r.spc[Counter::OffloadCommands],
            "a batch carries at least one command"
        );
        assert!(spc.watermark(Watermark::OffloadQueueDepth).high() >= 1);
    }

    #[test]
    fn offload_runs_are_deterministic() {
        let a = sim(6, SimDesign::offload(2)).run();
        let b = sim(6, SimDesign::offload(2)).run();
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(a.spc, b.spc);
    }

    #[test]
    fn offload_outpaces_the_big_lock_at_high_thread_counts() {
        let pairs = 20;
        let offload = sim(pairs, SimDesign::offload(2)).run();
        let mut big = SimDesign::baseline();
        big.big_lock = true;
        let big = sim(pairs, big).run();
        assert_eq!(
            offload.spc[Counter::MessagesReceived],
            offload.total_messages
        );
        assert!(
            offload.msg_rate_per_s > big.msg_rate_per_s,
            "offload {:.0}/s must beat the big lock {:.0}/s at {pairs} pairs",
            offload.msg_rate_per_s,
            big.msg_rate_per_s
        );
    }

    #[test]
    fn big_lock_design_completes() {
        let mut d = SimDesign::baseline();
        d.big_lock = true;
        let r = sim(4, d).run();
        assert_eq!(r.spc[Counter::MessagesReceived], r.total_messages);
    }

    #[test]
    fn chaos_drops_are_repaired_and_runs_stay_deterministic() {
        let mut d = SimDesign::baseline().chaos(100, 50, 5);
        d.instances = 2;
        d.assignment = Assignment::Dedicated;
        d.progress = ProgressMode::Concurrent;
        let a = sim(4, d).run();
        assert_eq!(
            a.spc[Counter::MessagesReceived],
            a.total_messages,
            "every message must survive the lossy wire exactly once"
        );
        assert!(a.spc[Counter::ChaosDrops] > 0, "the plan must drop");
        assert!(a.spc[Counter::Retransmits] > 0);
        assert!(a.spc[Counter::RetryBackoffNanos] > 0);
        assert!(a.spc[Counter::ChaosDups] > 0, "the plan must duplicate");
        assert!(a.spc[Counter::DuplicatesSuppressed] > 0);
        let b = sim(4, d).run();
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(a.spc, b.spc);
    }

    #[test]
    fn chaos_degrades_rate_gracefully_not_to_zero() {
        let clean = sim(4, SimDesign::baseline()).run();
        let lossy = sim(4, SimDesign::baseline().chaos(400, 0, 9)).run();
        assert_eq!(lossy.spc[Counter::MessagesReceived], lossy.total_messages);
        assert!(
            lossy.makespan_ns > clean.makespan_ns,
            "retransmission must cost virtual time"
        );
        assert!(
            lossy.msg_rate_per_s > clean.msg_rate_per_s / 10.0,
            "40% drop must degrade, not collapse: clean {:.0}/s lossy {:.0}/s",
            clean.msg_rate_per_s,
            lossy.msg_rate_per_s
        );
    }

    #[test]
    fn chaos_reaches_the_offload_workers_too() {
        let r = sim(4, SimDesign::offload(2).chaos(100, 50, 13)).run();
        assert_eq!(r.spc[Counter::MessagesReceived], r.total_messages);
        assert!(r.spc[Counter::Retransmits] > 0);
        assert!(r.spc[Counter::DuplicatesSuppressed] > 0);
    }

    #[test]
    fn every_design_combination_terminates() {
        for instances in [1usize, 3] {
            for assignment in [Assignment::RoundRobin, Assignment::Dedicated] {
                for progress in [ProgressMode::Serial, ProgressMode::Concurrent] {
                    for matching in [SimMatchLayout::SingleComm, SimMatchLayout::CommPerPair] {
                        for allow in [false, true] {
                            let d = SimDesign {
                                instances,
                                assignment,
                                progress,
                                matching,
                                allow_overtaking: allow,
                                any_tag: allow,
                                big_lock: false,
                                process_mode: false,
                                offload_workers: 0,
                                chaos_drop_pm: 0,
                                chaos_dup_pm: 0,
                                chaos_seed: 0,
                            };
                            let r = MultirateSim {
                                machine: Machine::preset(MachinePreset::Alembert),
                                pairs: 3,
                                window: 8,
                                iterations: 2,
                                design: d,
                                seed: 3,
                                cost: None,
                            }
                            .run();
                            assert_eq!(r.spc[Counter::MessagesReceived], r.total_messages, "{d:?}");
                        }
                    }
                }
            }
        }
    }
}
