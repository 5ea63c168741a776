//! Dense per-thread shard indices for core-local runtime state.
//!
//! Per-rank structures that every thread updates on every message (the SPC
//! set, the request slab's free list) are split into [`SHARDS`] shards, and
//! each thread works on the shard [`thread_shard`] names. A thread claims
//! the lowest index no live thread holds the first time it asks, and gives
//! it back when it exits, so live threads share a shard only when more than
//! [`SHARDS`] of them are alive. Sharing a shard is slower, never wrong:
//! every sharded structure stays correct under any index assignment.

use std::cell::Cell;
use std::sync::{Mutex, PoisonError};

/// Number of shards per sharded structure; [`thread_shard`] is always
/// below it.
pub const SHARDS: usize = 8;

/// Live threads per shard index.
static LIVE: Mutex<[usize; SHARDS]> = Mutex::new([0; SHARDS]);

/// A thread's claim on one shard index, released when the thread exits.
struct Claim(usize);

impl Claim {
    fn take() -> Self {
        let mut live = LIVE.lock().unwrap_or_else(PoisonError::into_inner);
        // The lowest index among the least-shared ones: a free index
        // whenever fewer than SHARDS threads hold one.
        let index = (0..SHARDS)
            .min_by_key(|&i| live[i])
            .expect("SHARDS is nonzero");
        live[index] += 1;
        Claim(index)
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        LIVE.lock().unwrap_or_else(PoisonError::into_inner)[self.0] -= 1;
    }
}

thread_local! {
    /// The claimed index, cached where reading it costs one thread-local
    /// load; `SHARDS` until the first claim.
    static SHARD: Cell<usize> = const { Cell::new(SHARDS) };
    static CLAIM: Claim = Claim::take();
}

/// The calling thread's shard index, below [`SHARDS`].
///
/// Inside a `model` execution this is the model thread id (modulo
/// [`SHARDS`]), so a schedule replays with the same shard assignment. A
/// thread that first asks while tearing down its thread-locals uses
/// shard 0.
#[inline]
pub fn thread_shard() -> usize {
    #[cfg(feature = "model")]
    if let Some(id) = crate::model::thread_id() {
        return id % SHARDS;
    }
    let shard = SHARD.with(Cell::get);
    if shard < SHARDS {
        shard
    } else {
        // Already below SHARDS; the modulo lets callers' index checks fold.
        claim_shard() % SHARDS
    }
}

#[cold]
#[inline(never)]
fn claim_shard() -> usize {
    let shard = CLAIM.try_with(|claim| claim.0).unwrap_or(0);
    SHARD.with(|cached| cached.set(shard));
    shard
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_thread_keeps_its_index() {
        let first = thread_shard();
        assert!(first < SHARDS);
        assert_eq!(thread_shard(), first);
    }

    #[test]
    fn live_threads_get_distinct_indices_until_shards_run_out() {
        use std::sync::{Arc, Barrier};
        // Other tests' threads may hold indices too, so only distinctness
        // among this test's live threads is asserted.
        let threads = SHARDS / 2;
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let shard = thread_shard();
                    // Everyone holds a claim before anyone exits.
                    barrier.wait();
                    shard
                })
            })
            .collect();
        let mut shards: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        shards.sort_unstable();
        shards.dedup();
        assert_eq!(shards.len(), threads, "two live threads shared a shard");
    }

    #[test]
    fn an_exited_thread_returns_its_index() {
        let claimed = || std::thread::spawn(thread_shard).join().unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..4 * SHARDS {
            seen.insert(claimed());
        }
        // Sequential threads reuse released indices instead of walking
        // through every shard (other tests may hold a few meanwhile).
        assert!(seen.len() < SHARDS, "released indices were not reused");
    }
}
