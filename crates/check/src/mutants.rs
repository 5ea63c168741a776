//! Deliberately-broken miniatures of the runtime's concurrency kernels.
//!
//! Each type here mirrors the *shape* of a real fairmpi algorithm —
//! small enough for exhaustive schedule exploration, faithful enough
//! that the seeded bug is the same bug a regression in the real code
//! would introduce. The test suite asserts that [`crate::Checker`]
//! produces a reproducible counterexample for every mutant, which is the
//! evidence that the checker would catch the corresponding real
//! regression. **Nothing in this module is used by the runtime.**
//!
//! The eight seeded bugs:
//!
//! 1. [`RingBug::PublishBeforeWrite`] — the MPSC ring publishes a slot's
//!    sequence number before storing the value, so a concurrent consumer
//!    can pop an unwritten slot ([`Pop::Torn`]).
//! 2. [`RingBug::TicketWithoutCas`] — the producer claims its ticket with
//!    a load + store instead of a compare-exchange, so two producers can
//!    claim the same slot and one value is lost.
//! 3. [`MiniPool`] with `lost_wakeup = true` — Algorithm 2's fallback
//!    sweep is gated on a pending flag that the poster raises *before*
//!    inserting the completion; a sweep in the window consumes the flag,
//!    finds nothing, and the completion is stranded forever.
//! 4. [`RacyDedup`] — receiver-side duplicate suppression as a
//!    check-then-insert across two lock acquisitions, so two racing
//!    deliveries of the same `tseq` are both accepted.
//! 5. [`SlabBug::ReapWithoutBump`] — the request slab returns a reaped slot
//!    to the free list without bumping its generation, so the next
//!    occupant gets the old token back and a late completion of the old
//!    request completes the new one.
//! 6. [`RxBug::DepthInSecondSection`] — the fabric rx ring samples its
//!    depth for the watermark in a second critical section after the
//!    push, so two racing deliveries both record the later depth and the
//!    low watermark reports a depth no delivery produced.
//! 7. [`MiniDrainFlag`] with `load_then_store = true` — the context's
//!    drain guard is claimed with a load + store instead of a swap, so two
//!    racing drainers can both see the flag clear and both hold a guard
//!    without the concurrent-drain assertion firing.
//! 8. [`StealBug::TopThenPop`] — the request slab's sharded free list
//!    steals from another shard by reading the victim's top index under
//!    one guard and popping under a second guard, so two racing stealers
//!    can both take the same slot.

use fairmpi_spc::WatermarkCell;
use fairmpi_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use fairmpi_sync::Mutex;
use std::collections::{BTreeSet, VecDeque};

// ---------------------------------------------------------------------------
// Miniature MPSC ticket ring (mirrors fairmpi_offload::TicketRing)
// ---------------------------------------------------------------------------

/// Which bug, if any, to seed into [`ModelRing`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingBug {
    /// Correct protocol (used to validate the miniature itself).
    None,
    /// Publish the slot sequence before writing the value.
    PublishBeforeWrite,
    /// Claim the producer ticket with load + store instead of CAS.
    TicketWithoutCas,
}

/// Result of [`ModelRing::try_pop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pop {
    /// Ring empty (slot not yet published).
    Empty,
    /// A published value.
    Value(u64),
    /// The slot was published but its value was never written — the
    /// observable symptom of [`RingBug::PublishBeforeWrite`]. The real
    /// ring stores through an `UnsafeCell`, where this is a read of
    /// uninitialized memory; the miniature keeps it safe (and visible)
    /// with an `Option`.
    Torn,
}

struct Slot {
    seq: AtomicU64,
    value: Mutex<Option<u64>>,
}

/// Single-consumer miniature of the Vyukov-style command ring, with an
/// optional seeded bug. Capacity must be a power of two and at least the
/// total number of pushes in the test (no wraparound paths — the mutants
/// live in the claim/publish protocol, not in index arithmetic).
pub struct ModelRing {
    bug: RingBug,
    mask: u64,
    capacity: u64,
    tail: AtomicU64,
    head: AtomicU64,
    slots: Vec<Slot>,
}

impl ModelRing {
    /// New ring with `capacity` slots (power of two).
    pub fn new(capacity: usize, bug: RingBug) -> Self {
        assert!(capacity.is_power_of_two());
        Self {
            bug,
            mask: capacity as u64 - 1,
            capacity: capacity as u64,
            tail: AtomicU64::new(0),
            head: AtomicU64::new(0),
            slots: (0..capacity)
                .map(|i| Slot {
                    seq: AtomicU64::new(i as u64),
                    value: Mutex::new(None),
                })
                .collect(),
        }
    }

    /// Push from any producer thread. Returns `false` when full.
    pub fn try_push(&self, value: u64) -> bool {
        loop {
            let ticket = self.tail.load(Ordering::Acquire);
            let slot = &self.slots[(ticket & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == ticket {
                let claimed = match self.bug {
                    RingBug::TicketWithoutCas => {
                        // Seeded bug: non-atomic claim. Two producers can
                        // both read the same ticket and both "win" it.
                        self.tail.store(ticket + 1, Ordering::Release);
                        true
                    }
                    _ => self
                        .tail
                        .compare_exchange(ticket, ticket + 1, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok(),
                };
                if !claimed {
                    continue;
                }
                if self.bug == RingBug::PublishBeforeWrite {
                    // Seeded bug: the consumer may observe seq == ticket+1
                    // while the value below is still unwritten.
                    slot.seq.store(ticket + 1, Ordering::Release);
                    *slot.value.lock() = Some(value);
                } else {
                    *slot.value.lock() = Some(value);
                    slot.seq.store(ticket + 1, Ordering::Release);
                }
                return true;
            }
            if seq < ticket {
                return false;
            }
            // seq > ticket: another producer advanced tail; retry.
        }
    }

    /// Pop from the single consumer thread.
    pub fn try_pop(&self) -> Pop {
        let head = self.head.load(Ordering::Acquire);
        let slot = &self.slots[(head & self.mask) as usize];
        if slot.seq.load(Ordering::Acquire) != head + 1 {
            return Pop::Empty;
        }
        let taken = slot.value.lock().take();
        slot.seq.store(head + self.capacity, Ordering::Release);
        self.head.store(head + 1, Ordering::Release);
        match taken {
            Some(v) => Pop::Value(v),
            None => Pop::Torn,
        }
    }
}

// ---------------------------------------------------------------------------
// Miniature Algorithm 2 progress loop (mirrors fairmpi_progress)
// ---------------------------------------------------------------------------

/// Miniature of the paper's Algorithm 2: each progress pass drains the
/// caller's dedicated instance first and, when that produced nothing,
/// sweeps every instance round-robin so a completion stranded on an
/// unattended instance is still extracted.
///
/// With `lost_wakeup = true` the sweep is gated on a pending flag that
/// posters raise *before* inserting (a classic lost-wakeup window): a
/// sweep between the flag store and the insert consumes the signal, finds
/// nothing, and every later pass skips the sweep — the completion is
/// stranded. The correct design runs the sweep unconditionally, which is
/// exactly why Algorithm 2 does not rely on cross-thread signaling.
pub struct MiniPool {
    lost_wakeup: bool,
    has_pending: AtomicU64,
    round_robin: AtomicU64,
    instances: Vec<Mutex<Vec<u64>>>,
}

impl MiniPool {
    /// `n` instances; `lost_wakeup` seeds the mutant.
    pub fn new(n: usize, lost_wakeup: bool) -> Self {
        Self {
            lost_wakeup,
            has_pending: AtomicU64::new(0),
            round_robin: AtomicU64::new(0),
            instances: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Deliver a completion to instance `k` (fabric side).
    pub fn post(&self, k: usize, completion: u64) {
        if self.lost_wakeup {
            // Seeded bug: signal before the completion is visible.
            self.has_pending.store(1, Ordering::SeqCst);
            self.instances[k].lock().push(completion);
        } else {
            self.instances[k].lock().push(completion);
            self.has_pending.store(1, Ordering::SeqCst);
        }
    }

    fn drain_one(&self, k: usize, out: &mut Vec<u64>) -> usize {
        let Some(mut q) = self.instances[k].try_lock() else {
            // Another thread is working this instance (paper §III-C).
            return 0;
        };
        let n = q.len();
        out.append(&mut q);
        n
    }

    /// One progress pass by the thread assigned to instance `assigned`.
    /// Returns the number of completions extracted into `out`.
    pub fn pass(&self, assigned: usize, out: &mut Vec<u64>) -> usize {
        let mut count = self.drain_one(assigned, out);
        if count == 0 {
            if self.lost_wakeup && self.has_pending.swap(0, Ordering::SeqCst) == 0 {
                // Seeded bug: no signal, skip the fallback sweep.
                return 0;
            }
            for _ in 0..self.instances.len() {
                let k = self.round_robin.fetch_add(1, Ordering::Relaxed) as usize
                    % self.instances.len();
                count += self.drain_one(k, out);
                if count > 0 {
                    break;
                }
            }
        }
        count
    }
}

// ---------------------------------------------------------------------------
// Racy duplicate suppression (mirrors fairmpi::DedupWindow misuse)
// ---------------------------------------------------------------------------

/// Receiver-side duplicate suppression with a seeded check-then-insert
/// race: membership is tested under one lock acquisition and recorded
/// under a second, so two racing deliveries of the same `tseq` can both
/// observe "new" and both be accepted. The correct design (the runtime's
/// `Reliability::accept`) holds one lock across the whole
/// [`fairmpi::DedupWindow::accept`] test-and-record.
pub struct RacyDedup {
    seen: Mutex<BTreeSet<u64>>,
}

impl RacyDedup {
    /// Empty window.
    pub fn new() -> Self {
        Self {
            seen: Mutex::new(BTreeSet::new()),
        }
    }

    /// `true` if this `tseq` is (apparently) new.
    pub fn accept(&self, tseq: u64) -> bool {
        if self.seen.lock().contains(&tseq) {
            return false;
        }
        // Seeded bug: the lock was dropped — another delivery of the same
        // tseq can pass the check above before the insert below lands.
        self.seen.lock().insert(tseq);
        true
    }
}

impl Default for RacyDedup {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// Generation-checked request slab (mirrors fairmpi::RequestSlab)
// ---------------------------------------------------------------------------

/// Which bug, if any, to seed into [`MiniSlab`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlabBug {
    /// Correct protocol: reaping bumps the slot's generation.
    None,
    /// Reap without bumping the generation.
    ReapWithoutBump,
}

const SLOT_FREE: u64 = 0;
const SLOT_PENDING: u64 = 1;
const SLOT_COMPLETE: u64 = 2;

/// Miniature of the request slab's state-word protocol: each slot's state
/// packs `(generation << 32) | status`, a token packs
/// `(generation << 32) | index`, completion is a compare-exchange from the
/// token's `(generation, PENDING)`, and reaping moves a finished slot to
/// `(generation + 1, FREE)` before returning it to a LIFO free list. The
/// request bodies are left out: the seeded bug lives in the generation
/// rule, not in what a slot carries.
pub struct MiniSlab {
    bug: SlabBug,
    states: Vec<AtomicU64>,
    free: Mutex<Vec<u64>>,
}

impl MiniSlab {
    /// A slab of `slots` free slots; `bug` seeds the mutant.
    pub fn new(slots: usize, bug: SlabBug) -> Self {
        Self {
            bug,
            states: (0..slots).map(|_| AtomicU64::new(SLOT_FREE)).collect(),
            free: Mutex::new((0..slots as u64).rev().collect()),
        }
    }

    fn split(token: u64) -> (usize, u64) {
        ((token & 0xffff_ffff) as usize, token >> 32)
    }

    /// Allocate a pending request and return its token.
    pub fn alloc(&self) -> u64 {
        let index = self.free.lock().pop().expect("a free slot");
        let generation = self.states[index as usize].load(Ordering::SeqCst) >> 32;
        self.states[index as usize].store(generation << 32 | SLOT_PENDING, Ordering::SeqCst);
        generation << 32 | index
    }

    /// Complete the request `token` names, if it is still pending.
    pub fn complete(&self, token: u64) -> bool {
        let (index, generation) = Self::split(token);
        self.states[index]
            .compare_exchange(
                generation << 32 | SLOT_PENDING,
                generation << 32 | SLOT_COMPLETE,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
    }

    /// Whether `token` names a request that is still pending.
    pub fn is_pending(&self, token: u64) -> bool {
        let (index, generation) = Self::split(token);
        self.states[index].load(Ordering::SeqCst) == generation << 32 | SLOT_PENDING
    }

    /// `None` while pending, `Some(true)` when this call reaped the
    /// request, `Some(false)` for a stale token.
    pub fn try_reap(&self, token: u64) -> Option<bool> {
        let (index, generation) = Self::split(token);
        let state = self.states[index].load(Ordering::SeqCst);
        if state >> 32 != generation || state & 0xffff_ffff == SLOT_FREE {
            return Some(false);
        }
        if state & 0xffff_ffff == SLOT_PENDING {
            return None;
        }
        let next = match self.bug {
            SlabBug::None => generation + 1,
            // Seeded bug: the slot's next occupant reuses this generation,
            // so it is named by the very token just reaped.
            SlabBug::ReapWithoutBump => generation,
        };
        if self.states[index]
            .compare_exchange(
                state,
                next << 32 | SLOT_FREE,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_err()
        {
            return Some(false);
        }
        self.free.lock().push(index as u64);
        Some(true)
    }
}

// ---------------------------------------------------------------------------
// Sharded free list with stealing (mirrors fairmpi::RequestSlab's)
// ---------------------------------------------------------------------------

/// Which bug, if any, to seed into [`MiniShardedFree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StealBug {
    /// Correct protocol: each pop happens under one guard.
    None,
    /// Read the victim's top index under one guard, pop under a second.
    TopThenPop,
}

/// Miniature of the request slab's free list: one locked LIFO list of slot
/// indices per shard plus a counter of indices never handed out. A thread
/// pops its home shard, then steals from the others in shard order, then
/// grows.
pub struct MiniShardedFree {
    bug: StealBug,
    shards: Vec<Mutex<Vec<u64>>>,
    next: AtomicU64,
}

impl MiniShardedFree {
    /// `shards` empty shards and no slot handed out; `bug` seeds the mutant.
    pub fn new(shards: usize, bug: StealBug) -> Self {
        Self {
            bug,
            shards: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            next: AtomicU64::new(0),
        }
    }

    /// Return slot `index` to shard `home`.
    pub fn free(&self, home: usize, index: u64) {
        self.shards[home].lock().push(index);
    }

    /// Take a slot for a thread whose shard is `home`.
    pub fn alloc(&self, home: usize) -> u64 {
        let n = self.shards.len();
        (0..n)
            .find_map(|k| self.pop(&self.shards[(home + k) % n]))
            .unwrap_or_else(|| self.next.fetch_add(1, Ordering::SeqCst))
    }

    fn pop(&self, shard: &Mutex<Vec<u64>>) -> Option<u64> {
        if self.bug == StealBug::None {
            return shard.lock().pop();
        }
        // Seeded bug: another stealer can read the same top index between
        // these two critical sections.
        let top = shard.lock().last().copied()?;
        shard.lock().pop();
        Some(top)
    }
}

// ---------------------------------------------------------------------------
// Fabric rx ring and drain guard (mirror fairmpi_fabric::NetworkContext)
// ---------------------------------------------------------------------------

/// Which bug, if any, to seed into [`MiniRx`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxBug {
    /// Correct protocol: push and depth sample under one guard.
    None,
    /// Sample the depth in a second critical section after the push.
    DepthInSecondSection,
}

/// Miniature of a network context's rx ring: a locked FIFO whose depth is
/// sampled into a [`WatermarkCell`] at every delivery.
pub struct MiniRx {
    bug: RxBug,
    ring: Mutex<VecDeque<u64>>,
    depth: WatermarkCell,
}

impl MiniRx {
    /// Empty ring; `bug` seeds the mutant.
    pub fn new(bug: RxBug) -> Self {
        Self {
            bug,
            ring: Mutex::new(VecDeque::new()),
            depth: WatermarkCell::new(),
        }
    }

    /// Deliver one packet (any thread).
    pub fn post(&self, packet: u64) {
        let mut ring = self.ring.lock();
        ring.push_back(packet);
        if self.bug == RxBug::None {
            self.depth.record(ring.len() as u64);
            return;
        }
        drop(ring);
        // Seeded bug: another delivery can land between the push above
        // and the sample below.
        let depth = self.ring.lock().len();
        self.depth.record(depth as u64);
    }

    /// Extremes of the depths sampled at deliveries.
    pub fn depth(&self) -> &WatermarkCell {
        &self.depth
    }
}

/// Miniature of a network context's drain flag. [`MiniDrainFlag::begin`]
/// panics with "concurrent drain" when it finds the flag already set, as
/// the real guard's debug assertion does.
pub struct MiniDrainFlag {
    load_then_store: bool,
    draining: AtomicBool,
}

/// Guard returned by [`MiniDrainFlag::begin`]; clears the flag on drop.
pub struct MiniDrain<'a> {
    flag: &'a MiniDrainFlag,
}

impl MiniDrainFlag {
    /// Clear flag; `load_then_store` seeds the mutant.
    pub fn new(load_then_store: bool) -> Self {
        Self {
            load_then_store,
            draining: AtomicBool::new(false),
        }
    }

    /// Claim the drain side.
    pub fn begin(&self) -> MiniDrain<'_> {
        let was = if self.load_then_store {
            // Seeded bug: both racers can load `false` before either stores.
            let was = self.draining.load(Ordering::Acquire);
            self.draining.store(true, Ordering::Release);
            was
        } else {
            self.draining.swap(true, Ordering::Acquire)
        };
        assert!(!was, "concurrent drain");
        MiniDrain { flag: self }
    }
}

impl Drop for MiniDrain<'_> {
    fn drop(&mut self) {
        self.flag.draining.store(false, Ordering::Release);
    }
}
