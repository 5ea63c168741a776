//! Requests: the handles behind nonblocking operations.
//!
//! Every live request occupies one slot of a per-rank [`RequestSlab`]. A
//! request's token names the slot *and* the slot's generation at
//! allocation time (DESIGN.md §3.6):
//!
//! ```text
//!   63            32 31             0
//!  +----------------+----------------+
//!  |   generation   |   index + 1    |
//!  +----------------+----------------+
//! ```
//!
//! The low half is never 0, so no request token collides with the "no
//! request behind this packet" token 0 of the progress path. Reaping a
//! request bumps its slot's generation before the slot returns to the free
//! list, so a stale token — reaped, or completed late by the progress
//! path — can never reach the slot's next occupant.

use fairmpi_sync::atomic::{AtomicU32, AtomicU64, Ordering};
use fairmpi_sync::{thread_shard, CachePadded, Mutex, SHARDS};

use fairmpi_fabric::{Rank, Tag};

use crate::error::MpiError;
use crate::segments::{Segments, CAPACITY};

/// A completed point-to-point message, as returned by [`crate::Proc::recv`]
/// and [`crate::Proc::wait`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Payload bytes.
    pub data: Vec<u8>,
    /// Sending rank (useful with `ANY_SOURCE`).
    pub src: Rank,
    /// Message tag (useful with `ANY_TAG`).
    pub tag: Tag,
}

impl Message {
    /// The acknowledgment returned when waiting on a *send* request.
    pub(crate) fn send_ack(src: Rank, tag: Tag) -> Self {
        Self {
            data: Vec::new(),
            src,
            tag,
        }
    }
}

/// Opaque handle to a pending nonblocking operation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Request {
    pub(crate) token: u64,
}

/// What a request is for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum ReqKind {
    #[default]
    Send,
    Recv,
}

// Slot status, in the low half of the state word.
const FREE: u64 = 0;
const PENDING: u64 = 1;
const COMPLETE: u64 = 2;
const CANCELLED: u64 = 3;
const FAILED: u64 = 4;
const STATUS_MASK: u64 = 0xffff_ffff;

fn pack(generation: u32, status: u64) -> u64 {
    (u64::from(generation) << 32) | status
}

fn generation_of(state: u64) -> u32 {
    (state >> 32) as u32
}

/// What a request carries besides its status.
#[derive(Debug, Default)]
struct Body {
    kind: ReqKind,
    /// Receive-buffer capacity (recv requests only).
    capacity: usize,
    /// Identity of the requester, for send acks.
    src: Rank,
    tag: Tag,
    /// Completed message (recv) — filled exactly once at completion.
    payload: Option<Message>,
    /// Rendezvous send payload parked until the CTS arrives.
    stash: Option<Vec<u8>>,
    /// Failure cause, if the request errored.
    error: Option<MpiError>,
}

/// One request slot. The state word packs `(generation, status)` so a
/// waiter polls it without a lock; the body sits behind the slot's lock.
#[derive(Debug, Default)]
struct Slot {
    state: AtomicU64,
    body: Mutex<Body>,
}

/// How [`RequestSlab::deliver`] disposed of a received message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The receive completed with the message.
    Completed,
    /// The message exceeded the receive's capacity; the receive failed.
    Truncated,
    /// The token no longer names a pending receive; nothing changed.
    Stale,
}

/// The per-rank table of live requests: a slab of generation-checked slots
/// addressed by token.
///
/// * **Allocation** pops a slot off the free list (or takes a fresh one),
///   fills its body and publishes `(generation, PENDING)`. The free list
///   has one lock per thread shard ([`fairmpi_sync::thread_shard`]): a
///   thread pops its own shard, then steals from the others in shard order
///   after its own, each under that shard's lock, and only then grows the
///   slab.
/// * **Completion** ([`complete_send`](Self::complete_send),
///   [`deliver`](Self::deliver), [`fail`](Self::fail),
///   [`cancel`](Self::cancel)) takes effect only while the token's
///   generation matches the slot's and the request is still pending;
///   otherwise it is a no-op that reports `false`.
/// * **Reaping** ([`try_reap`](Self::try_reap)) moves a finished slot to
///   `(generation + 1, FREE)` with one compare-exchange — so exactly one
///   reaper wins — takes the outcome and returns the slot to the reaper's
///   shard of the free list.
///
/// All synchronisation goes through `fairmpi-sync`, so `fairmpi-check`
/// explores the slab's races exhaustively.
pub struct RequestSlab {
    slots: Segments<Slot>,
    /// Indices of reusable slots, one LIFO list per thread shard.
    free: [CachePadded<Mutex<Vec<u32>>>; SHARDS],
    /// The first index never handed out.
    next: AtomicU32,
}

impl std::fmt::Debug for RequestSlab {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequestSlab")
            .field("live", &self.len())
            .finish()
    }
}

impl RequestSlab {
    /// An empty slab whose free-list locks are traced under `rank`'s name.
    pub fn new(rank: Rank) -> Self {
        Self {
            slots: Segments::default(),
            free: std::array::from_fn(|shard| {
                CachePadded::new(Mutex::named(Vec::new(), move || {
                    format!("core.requests.free[rank={rank},shard={shard}]")
                }))
            }),
            next: AtomicU32::new(0),
        }
    }

    /// The slot `token` names and the generation it expects, if the token
    /// is well formed and its slot exists.
    #[inline]
    fn slot(&self, token: u64) -> Option<(&Slot, u32)> {
        let index = (token as u32).checked_sub(1)?;
        let slot = self.slots.get(index as usize)?;
        Some((slot, (token >> 32) as u32))
    }

    /// Pop a reusable slot: the caller's own shard first, then the others
    /// in shard order, each under its own lock (never two at once).
    fn pop_free(&self) -> Option<u32> {
        let home = thread_shard();
        (0..SHARDS).find_map(|k| self.free[(home + k) % SHARDS].lock().pop())
    }

    fn alloc(&self, body: Body) -> u64 {
        let index = self.pop_free().unwrap_or_else(|| {
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            assert!((index as usize) < CAPACITY, "request slab exhausted");
            index
        });
        let slot = self.slots.get_or_grow(index as usize);
        // The slot is FREE and ours alone: no other thread writes its state
        // until the PENDING store below publishes the new token.
        let generation = generation_of(slot.state.load(Ordering::Acquire));
        *slot.body.lock() = body;
        slot.state
            .store(pack(generation, PENDING), Ordering::Release);
        (u64::from(generation) << 32) | u64::from(index + 1)
    }

    /// Register a new send request; `stash` carries the payload for
    /// rendezvous sends (None for eager). Returns its token.
    pub fn alloc_send(&self, src: Rank, tag: Tag, stash: Option<Vec<u8>>) -> u64 {
        self.alloc(Body {
            kind: ReqKind::Send,
            src,
            tag,
            stash,
            ..Body::default()
        })
    }

    /// Register a new receive request with the given buffer capacity.
    /// Returns its token.
    pub fn alloc_recv(&self, capacity: usize) -> u64 {
        self.alloc(Body {
            kind: ReqKind::Recv,
            capacity,
            ..Body::default()
        })
    }

    /// Move a pending request to `status` without touching its body.
    fn transition(&self, token: u64, status: u64) -> bool {
        let Some((slot, generation)) = self.slot(token) else {
            return false;
        };
        slot.state
            .compare_exchange(
                pack(generation, PENDING),
                pack(generation, status),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Write the body with `f` (which returns the final status) and finish
    /// the pending request. The body write is undone if a lock-free
    /// transition finished the request first.
    fn finish(&self, token: u64, f: impl FnOnce(&mut Body) -> u64) -> Option<u64> {
        let (slot, generation) = self.slot(token)?;
        let pending = pack(generation, PENDING);
        let mut body = slot.body.lock();
        if slot.state.load(Ordering::Acquire) != pending {
            return None;
        }
        let status = f(&mut body);
        match slot.state.compare_exchange(
            pending,
            pack(generation, status),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => Some(status),
            Err(_) => {
                body.payload = None;
                body.error = None;
                None
            }
        }
    }

    /// Mark a send complete. False if `token` is not a pending request.
    pub fn complete_send(&self, token: u64) -> bool {
        self.transition(token, COMPLETE)
    }

    /// Mark a pending receive cancelled.
    pub fn cancel(&self, token: u64) -> bool {
        self.transition(token, CANCELLED)
    }

    /// Fail a pending request with `err`.
    pub fn fail(&self, token: u64, err: MpiError) -> bool {
        self.finish(token, |body| {
            body.error = Some(err);
            FAILED
        })
        .is_some()
    }

    /// Complete a pending receive with `msg`, failing it with
    /// [`MpiError::Truncated`] instead when the message exceeds the
    /// receive's capacity.
    pub fn deliver(&self, token: u64, msg: Message) -> Delivery {
        let outcome = self.finish(token, |body| {
            if msg.data.len() > body.capacity {
                body.error = Some(MpiError::Truncated {
                    message_len: msg.data.len(),
                    capacity: body.capacity,
                });
                FAILED
            } else {
                body.payload = Some(msg);
                COMPLETE
            }
        });
        match outcome {
            Some(COMPLETE) => Delivery::Completed,
            Some(_) => Delivery::Truncated,
            None => Delivery::Stale,
        }
    }

    /// Take the rendezvous payload of a pending send (once).
    pub(crate) fn take_stash(&self, token: u64) -> Option<Vec<u8>> {
        let (slot, generation) = self.slot(token)?;
        let mut body = slot.body.lock();
        if slot.state.load(Ordering::Acquire) != pack(generation, PENDING) {
            return None;
        }
        body.stash.take()
    }

    /// The live status behind `token`, or `None` if the token is stale.
    fn status(&self, token: u64) -> Option<u64> {
        let (slot, generation) = self.slot(token)?;
        let state = slot.state.load(Ordering::Acquire);
        let status = state & STATUS_MASK;
        (generation_of(state) == generation && status != FREE).then_some(status)
    }

    /// Whether `token` names a live request (pending or finished but not
    /// yet reaped).
    pub fn is_live(&self, token: u64) -> bool {
        self.status(token).is_some()
    }

    /// Whether the request is no longer pending. Reaped and stale tokens
    /// count as done: nobody can be waiting on them.
    pub fn is_done(&self, token: u64) -> bool {
        self.status(token) != Some(PENDING)
    }

    /// Whether a live request was cancelled; `InvalidRequest` if stale.
    pub fn is_cancelled(&self, token: u64) -> Result<bool, MpiError> {
        self.status(token)
            .map(|status| status == CANCELLED)
            .ok_or(MpiError::InvalidRequest(token))
    }

    /// Reap a finished request: `None` while it is pending, its outcome
    /// once it finished, and `InvalidRequest` for a stale token — including
    /// the loser of two racing reapers.
    pub fn try_reap(&self, token: u64) -> Option<Result<Message, MpiError>> {
        let Some((slot, generation)) = self.slot(token) else {
            return Some(Err(MpiError::InvalidRequest(token)));
        };
        let state = slot.state.load(Ordering::Acquire);
        let status = state & STATUS_MASK;
        if generation_of(state) != generation || status == FREE {
            return Some(Err(MpiError::InvalidRequest(token)));
        }
        if status == PENDING {
            return None;
        }
        // A finished state changes only by being reaped, so losing this
        // exchange means another reaper took the outcome.
        if slot
            .state
            .compare_exchange(
                state,
                pack(generation.wrapping_add(1), FREE),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_err()
        {
            return Some(Err(MpiError::InvalidRequest(token)));
        }
        let outcome = {
            let mut body = slot.body.lock();
            let body = std::mem::take(&mut *body);
            match (status, body.kind) {
                (COMPLETE, ReqKind::Recv) => {
                    Ok(body.payload.expect("completed recv carries a message"))
                }
                (COMPLETE, ReqKind::Send) => Ok(Message::send_ack(body.src, body.tag)),
                (CANCELLED, _) => Err(MpiError::Cancelled),
                _ => Err(body.error.expect("failed request carries an error")),
            }
        };
        self.free[thread_shard()].lock().push(token as u32 - 1);
        Some(outcome)
    }

    /// Number of live requests: allocated and not yet reaped. Exact while
    /// no thread allocates or reaps; the free shards are counted one lock
    /// at a time, so a racing call may miscount.
    pub fn len(&self) -> usize {
        let free: usize = self.free.iter().map(|shard| shard.lock().len()).sum();
        (self.next.load(Ordering::Relaxed) as usize).saturating_sub(free)
    }

    /// Whether no request is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(data: &[u8]) -> Message {
        Message {
            data: data.to_vec(),
            src: 3,
            tag: 4,
        }
    }

    #[test]
    fn tokens_are_unique_among_live_requests() {
        let t = RequestSlab::new(0);
        let mut live: Vec<u64> = (0..100).map(|i| t.alloc_recv(i)).collect();
        // Free every other slot and refill: reused slots get new tokens.
        for token in live.iter().step_by(2) {
            assert!(t.cancel(*token));
            assert_eq!(t.try_reap(*token), Some(Err(MpiError::Cancelled)));
        }
        let reaped: Vec<u64> = live.iter().step_by(2).copied().collect();
        live.retain(|token| !reaped.contains(token));
        for _ in 0..50 {
            live.push(t.alloc_send(0, 0, None));
        }
        let mut sorted = live.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), live.len(), "duplicate live token");
        assert!(live.iter().all(|token| !reaped.contains(token)));
        assert!(live.iter().all(|&token| token as u32 != 0));
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn recv_lifecycle() {
        let t = RequestSlab::new(0);
        let r = t.alloc_recv(16);
        assert!(!t.is_done(r));
        assert_eq!(t.try_reap(r), None, "pending requests are not reaped");
        assert_eq!(t.deliver(r, msg(&[1, 2])), Delivery::Completed);
        assert!(t.is_done(r));
        let got = t.try_reap(r).unwrap().unwrap();
        assert_eq!(got.data, vec![1, 2]);
        assert_eq!(got.src, 3);
        assert!(!t.is_live(r));
        assert!(t.is_empty());
    }

    #[test]
    fn reaped_tokens_are_invalid_requests() {
        let t = RequestSlab::new(0);
        let r = t.alloc_send(7, 9, None);
        assert!(t.complete_send(r));
        assert!(t.try_reap(r).unwrap().is_ok());
        assert_eq!(t.try_reap(r), Some(Err(MpiError::InvalidRequest(r))));
        assert_eq!(t.is_cancelled(r), Err(MpiError::InvalidRequest(r)));
        // Still invalid after the slot is reused by a new request.
        let next = t.alloc_recv(4);
        assert_eq!(next as u32, r as u32, "the freed slot is reused");
        assert_ne!(next, r);
        assert_eq!(t.try_reap(r), Some(Err(MpiError::InvalidRequest(r))));
        // Tokens that never named a slot are invalid too.
        for bogus in [0, u64::from(u32::MAX), next + 1] {
            assert_eq!(
                t.try_reap(bogus),
                Some(Err(MpiError::InvalidRequest(bogus)))
            );
        }
    }

    #[test]
    fn late_completions_for_a_reused_slot_are_ignored() {
        let t = RequestSlab::new(0);
        let send = t.alloc_send(0, 0, None);
        assert!(t.complete_send(send));
        t.try_reap(send).unwrap().unwrap();
        let recv = t.alloc_recv(8);
        assert_eq!(recv as u32, send as u32, "same slot, next generation");
        // A late SendDone, failure or delivery for the old token.
        assert!(!t.complete_send(send));
        assert!(!t.fail(send, MpiError::InstanceFailed));
        assert!(!t.cancel(send));
        assert_eq!(t.deliver(send, msg(b"stale")), Delivery::Stale);
        assert!(!t.is_done(recv), "the new occupant stays pending");
        assert_eq!(t.deliver(recv, msg(b"fresh")), Delivery::Completed);
        assert_eq!(t.try_reap(recv).unwrap().unwrap().data, b"fresh");
        // A second completion of a finished request is ignored as well.
        let again = t.alloc_send(0, 0, None);
        assert!(t.complete_send(again));
        assert!(!t.fail(again, MpiError::InstanceFailed));
        assert!(t.try_reap(again).unwrap().is_ok());
    }

    #[test]
    fn pending_count_is_exact() {
        let t = RequestSlab::new(0);
        let tokens: Vec<u64> = (0..70).map(|_| t.alloc_send(0, 0, None)).collect();
        assert_eq!(t.len(), 70);
        for (i, token) in tokens.iter().enumerate() {
            t.complete_send(*token);
            t.try_reap(*token).unwrap().unwrap();
            assert_eq!(t.len(), 70 - i - 1);
        }
        let a = t.alloc_recv(1);
        let b = t.alloc_recv(1);
        t.cancel(a);
        t.try_reap(a);
        t.try_reap(a);
        assert_eq!(t.len(), 1);
        t.cancel(b);
        t.try_reap(b);
        assert!(t.is_empty());
    }

    #[test]
    fn send_outcome_is_an_ack() {
        let t = RequestSlab::new(0);
        let r = t.alloc_send(7, 9, None);
        assert!(t.complete_send(r));
        let ack = t.try_reap(r).unwrap().unwrap();
        assert!(ack.data.is_empty());
        assert_eq!((ack.src, ack.tag), (7, 9));
    }

    #[test]
    fn cancel_fail_and_truncation_propagate() {
        let t = RequestSlab::new(0);
        let r = t.alloc_recv(4);
        assert!(t.cancel(r));
        assert_eq!(t.is_cancelled(r), Ok(true));
        assert_eq!(t.try_reap(r), Some(Err(MpiError::Cancelled)));
        let r2 = t.alloc_recv(4);
        assert!(t.fail(r2, MpiError::InstanceFailed));
        assert_eq!(t.try_reap(r2), Some(Err(MpiError::InstanceFailed)));
        let r3 = t.alloc_recv(4);
        assert_eq!(t.deliver(r3, msg(&[0; 8])), Delivery::Truncated);
        assert_eq!(
            t.try_reap(r3),
            Some(Err(MpiError::Truncated {
                message_len: 8,
                capacity: 4
            }))
        );
    }

    #[test]
    fn stash_holds_rendezvous_payload() {
        let t = RequestSlab::new(0);
        let r = t.alloc_send(0, 0, Some(vec![9; 100]));
        assert_eq!(t.take_stash(r).map(|p| p.len()), Some(100));
        assert_eq!(t.take_stash(r), None, "stash consumed once");
    }
}
