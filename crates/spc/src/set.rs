//! The live counter storage.

use fairmpi_sync::{thread_shard, CachePadded, SHARDS};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::{
    Counter, Histogram, HistogramCell, HistogramValue, SpcSnapshot, Watermark, WatermarkCell,
    WatermarkValue,
};

/// One thread's copy of every counter, watermark and histogram.
#[derive(Debug)]
struct Shard {
    counters: [AtomicU64; Counter::COUNT],
    watermarks: [WatermarkCell; Watermark::COUNT],
    histograms: [HistogramCell; Histogram::COUNT],
}

impl Shard {
    const fn new() -> Self {
        Self {
            counters: [const { AtomicU64::new(0) }; Counter::COUNT],
            watermarks: [const { WatermarkCell::new() }; Watermark::COUNT],
            histograms: [const { HistogramCell::new() }; Histogram::COUNT],
        }
    }

    fn reset(&self) {
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
        for w in &self.watermarks {
            w.reset();
        }
        for h in &self.histograms {
            h.reset();
        }
    }
}

/// A set of live software performance counters, watermarks and histograms.
///
/// One `SpcSet` exists per simulated MPI process. It holds
/// [`SHARDS`](fairmpi_sync::SHARDS) cache-padded shards, each with every
/// counter, watermark and histogram, and a thread updates only the shard
/// [`fairmpi_sync::thread_shard`] names, with a relaxed atomic
/// read-modify-write. So threads of one process do not bounce counter
/// cache lines between cores unless more threads are alive than there are
/// shards; then some share a shard, which is slower but still exact. The
/// instrumentation must not perturb the very contention effects the study
/// measures.
///
/// Reads merge the shards: counters sum (timers saturating at `u64::MAX`,
/// high-water marks by max), watermarks take the max of the highs and the
/// min of the lows, histograms add up.
///
/// Beyond the original monotonic [`Counter`]s, a set carries one
/// [`WatermarkCell`] per [`Watermark`] (high/low extremes of a level) and
/// one [`HistogramCell`] per [`Histogram`] (log2-bucket distributions) —
/// the cell classes behind the `fairmpi-mpit` pvar registry's
/// HIGHWATERMARK / LOWWATERMARK / HISTOGRAM classes.
pub struct SpcSet {
    shards: Box<[CachePadded<Shard>; SHARDS]>,
}

impl std::fmt::Debug for SpcSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpcSet")
            .field("counters", &self.snapshot())
            .finish_non_exhaustive()
    }
}

impl Default for SpcSet {
    fn default() -> Self {
        Self::new()
    }
}

impl SpcSet {
    /// Create a zeroed counter set.
    pub fn new() -> Self {
        Self {
            shards: Box::new([const { CachePadded::new(Shard::new()) }; SHARDS]),
        }
    }

    /// The calling thread's shard.
    #[inline]
    fn local(&self) -> &Shard {
        &self.shards[thread_shard()]
    }

    /// Add `delta` to a counter. Adding 0 touches no shard.
    #[inline]
    pub fn add(&self, counter: Counter, delta: u64) {
        if delta == 0 {
            return;
        }
        self.local().counters[counter.index()].fetch_add(delta, Ordering::Relaxed);
    }

    /// Add `delta` to a counter, saturating at `u64::MAX` instead of
    /// wrapping. Time accumulators use this: a run long enough to overflow
    /// the nanosecond sum must pin at the ceiling, not report a tiny total.
    #[inline]
    pub fn add_saturating(&self, counter: Counter, delta: u64) {
        self.local().counters[counter.index()]
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(delta))
            })
            .ok();
    }

    /// Increment a counter by one.
    #[inline]
    pub fn inc(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Raise a high-water-mark counter to at least `value`.
    #[inline]
    pub fn record_max(&self, counter: Counter, value: u64) {
        self.local().counters[counter.index()].fetch_max(value, Ordering::Relaxed);
    }

    /// Current value of one counter, merged over the shards.
    pub fn get(&self, counter: Counter) -> u64 {
        let values = self
            .shards
            .iter()
            .map(|s| s.counters[counter.index()].load(Ordering::Relaxed));
        if counter.is_high_water() {
            values.max().unwrap_or(0)
        } else if counter.is_timer() {
            values.fold(0, u64::saturating_add)
        } else {
            values.fold(0, u64::wrapping_add)
        }
    }

    /// Record one observation of a watermarked level (updates both the high
    /// and the low extreme).
    #[inline]
    pub fn record_level(&self, watermark: Watermark, level: u64) {
        self.local().watermarks[watermark.index()].record(level);
    }

    /// Both extremes of one level, merged over the shards.
    pub fn watermark(&self, watermark: Watermark) -> WatermarkValue {
        self.shards
            .iter()
            .map(|s| s.watermarks[watermark.index()].value())
            .fold(WatermarkValue::default(), WatermarkValue::merge)
    }

    /// Record one observation into a histogram.
    #[inline]
    pub fn record_hist(&self, histogram: Histogram, value: u64) {
        self.local().histograms[histogram.index()].record(value);
    }

    /// One distribution, merged over the shards.
    pub fn histogram(&self, histogram: Histogram) -> HistogramValue {
        self.shards
            .iter()
            .map(|s| s.histograms[histogram.index()].value())
            .fold(HistogramValue::default(), HistogramValue::merge)
    }

    /// Reset every counter, watermark and histogram of every shard to its
    /// initial state.
    ///
    /// # Concurrency contract
    ///
    /// Each individual slot is a word-sized atomic, so a [`snapshot`]
    /// (or [`get`]) racing a `reset` observes, **per slot**, either the
    /// pre-reset value or a post-reset value (zero plus whatever updates
    /// landed after that slot was cleared) — never a torn mix of bits.
    /// There is **no atomicity across slots** (or across one counter's
    /// shards): a concurrent snapshot may combine pre-reset values for
    /// some counters with post-reset values for others, and updates
    /// arriving while `reset` walks the slots may survive in slots the walk
    /// already passed. As with OMPI's SPC reset, call it while the measured
    /// phase is quiescent when cross-counter consistency matters.
    ///
    /// [`snapshot`]: Self::snapshot
    /// [`get`]: Self::get
    pub fn reset(&self) {
        for shard in self.shards.iter() {
            shard.reset();
        }
    }

    /// Capture a point-in-time copy of all counters, merged over the
    /// shards.
    ///
    /// The snapshot is not atomic across counters; as with OMPI's SPCs it is
    /// intended to be read while the measured phase is quiescent. Concurrent
    /// with a [`reset`](Self::reset), every individual value is still
    /// well-formed (see the reset concurrency contract), but values from
    /// before and after the reset may appear side by side.
    pub fn snapshot(&self) -> SpcSnapshot {
        SpcSnapshot::from_values(Counter::ALL.map(|c| self.get(c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero() {
        let spc = SpcSet::new();
        for c in Counter::ALL {
            assert_eq!(spc.get(c), 0, "{}", c.name());
        }
    }

    #[test]
    fn add_and_inc_accumulate() {
        let spc = SpcSet::new();
        spc.inc(Counter::MessagesSent);
        spc.add(Counter::MessagesSent, 41);
        assert_eq!(spc.get(Counter::MessagesSent), 42);
        // Other counters untouched.
        assert_eq!(spc.get(Counter::MessagesReceived), 0);
    }

    #[test]
    fn adding_zero_changes_nothing() {
        let spc = SpcSet::new();
        spc.add(Counter::CompletionsDrained, 3);
        let before = spc.snapshot();
        for c in Counter::ALL {
            spc.add(c, 0);
        }
        assert_eq!(spc.snapshot(), before);
        assert_eq!(spc.get(Counter::CompletionsDrained), 3);
    }

    #[test]
    fn record_max_keeps_high_water_mark() {
        let spc = SpcSet::new();
        spc.record_max(Counter::MaxPostedRecvQueueLen, 7);
        spc.record_max(Counter::MaxPostedRecvQueueLen, 3);
        assert_eq!(spc.get(Counter::MaxPostedRecvQueueLen), 7);
        spc.record_max(Counter::MaxPostedRecvQueueLen, 11);
        assert_eq!(spc.get(Counter::MaxPostedRecvQueueLen), 11);
    }

    #[test]
    fn reset_zeroes_everything() {
        let spc = SpcSet::new();
        for c in Counter::ALL {
            spc.add(c, 5);
        }
        spc.reset();
        for c in Counter::ALL {
            assert_eq!(spc.get(c), 0);
        }
    }

    #[test]
    fn add_saturating_pins_at_ceiling() {
        let spc = SpcSet::new();
        spc.add(Counter::MatchTimeNanos, u64::MAX - 10);
        spc.add_saturating(Counter::MatchTimeNanos, 100);
        assert_eq!(spc.get(Counter::MatchTimeNanos), u64::MAX);
        spc.add_saturating(Counter::MatchTimeNanos, 1);
        assert_eq!(spc.get(Counter::MatchTimeNanos), u64::MAX);
    }

    #[test]
    fn watermark_and_histogram_cells_reset_with_the_set() {
        let spc = SpcSet::new();
        spc.record_level(Watermark::UnexpectedQueueDepth, 12);
        spc.record_hist(Histogram::MatchPostAttempts, 5);
        assert_eq!(spc.watermark(Watermark::UnexpectedQueueDepth).high(), 12);
        assert_eq!(spc.histogram(Histogram::MatchPostAttempts).count, 1);
        spc.reset();
        assert_eq!(spc.watermark(Watermark::UnexpectedQueueDepth).high(), 0);
        assert_eq!(spc.histogram(Histogram::MatchPostAttempts).count, 0);
    }

    /// The documented reset contract: per-slot values seen by a snapshot
    /// racing `reset` are either pre-reset or post-reset — a counter that
    /// only ever moves 0 → N can therefore never be observed above N or
    /// between 0 and the smallest post-reset partial sum in a torn state.
    #[test]
    fn snapshot_concurrent_with_reset_stays_within_bounds() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        const PER_THREAD: u64 = 50_000;
        let spc = Arc::new(SpcSet::new());
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let spc = Arc::clone(&spc);
                std::thread::spawn(move || {
                    for _ in 0..PER_THREAD {
                        spc.inc(Counter::MessagesSent);
                    }
                })
            })
            .collect();
        let observer = {
            let spc = Arc::clone(&spc);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut snaps = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let v = spc.snapshot()[Counter::MessagesSent];
                    // Every observed value is one some interleaving of
                    // increments and resets could produce: at most the
                    // total increment count, never torn bits.
                    assert!(v <= 4 * PER_THREAD, "impossible value {v}");
                    spc.reset();
                    snaps += 1;
                }
                snaps
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        assert!(observer.join().unwrap() > 0);
        // Quiescent now: one final reset leaves exactly zero.
        spc.reset();
        assert_eq!(spc.get(Counter::MessagesSent), 0);
    }

    /// Run `a` and `b` on two threads that are alive at once, so each
    /// updates its own shard (unless more than `SHARDS` threads are alive
    /// in the test process; then the merged values below still hold).
    fn on_two_threads(
        spc: &SpcSet,
        a: impl FnOnce(&SpcSet) + Send,
        b: impl FnOnce(&SpcSet) + Send,
    ) {
        let both = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                a(spc);
                both.wait();
            });
            s.spawn(|| {
                b(spc);
                both.wait();
            });
        });
    }

    #[test]
    fn high_water_counters_merge_by_max_not_sum() {
        let spc = SpcSet::new();
        on_two_threads(
            &spc,
            |s| s.record_max(Counter::MaxPostedRecvQueueLen, 7),
            |s| s.record_max(Counter::MaxPostedRecvQueueLen, 3),
        );
        assert_eq!(spc.get(Counter::MaxPostedRecvQueueLen), 7);
        assert_eq!(spc.snapshot()[Counter::MaxPostedRecvQueueLen], 7);
    }

    #[test]
    fn watermarks_merge_highs_by_max_and_lows_by_min() {
        let spc = SpcSet::new();
        let w = Watermark::UnexpectedQueueDepth;
        on_two_threads(&spc, |s| s.record_level(w, 5), |s| s.record_level(w, 7));
        let merged = spc.watermark(w);
        // The untouched shards' sentinel never drags the low to 0.
        assert_eq!((merged.low(), merged.high()), (5, 7));
        assert!(!spc.watermark(Watermark::OffloadQueueDepth).touched());
    }

    #[test]
    fn histograms_add_across_shards() {
        let spc = SpcSet::new();
        let h = Histogram::DrainBatchSize;
        on_two_threads(
            &spc,
            |s| {
                s.record_hist(h, 1);
                s.record_hist(h, 1);
            },
            |s| s.record_hist(h, 1024),
        );
        let merged = spc.histogram(h);
        assert_eq!((merged.count, merged.sum), (3, 1026));
        assert_eq!(merged.buckets[1], 2);
        assert_eq!(merged.buckets[11], 1);
    }

    #[test]
    fn add_saturating_pins_at_ceiling_after_the_merge() {
        let spc = SpcSet::new();
        on_two_threads(
            &spc,
            |s| s.add(Counter::MatchTimeNanos, u64::MAX - 10),
            |s| s.add_saturating(Counter::MatchTimeNanos, 100),
        );
        assert_eq!(spc.get(Counter::MatchTimeNanos), u64::MAX);
        assert_eq!(spc.snapshot()[Counter::MatchTimeNanos], u64::MAX);
    }

    #[test]
    fn reset_clears_every_shard() {
        let spc = SpcSet::new();
        let touch = |s: &SpcSet| {
            s.inc(Counter::MessagesSent);
            s.record_max(Counter::MaxUnexpectedQueueLen, 4);
            s.record_level(Watermark::PostedRecvQueueDepth, 2);
            s.record_hist(Histogram::MatchPostAttempts, 3);
        };
        on_two_threads(&spc, touch, touch);
        assert_eq!(spc.get(Counter::MessagesSent), 2);
        spc.reset();
        assert!(Counter::ALL.iter().all(|&c| spc.get(c) == 0));
        assert!(!spc.watermark(Watermark::PostedRecvQueueDepth).touched());
        assert_eq!(
            spc.histogram(Histogram::MatchPostAttempts),
            HistogramValue::default()
        );
    }

    #[test]
    fn concurrent_updates_do_not_lose_increments() {
        use std::sync::Arc;
        let spc = Arc::new(SpcSet::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let spc = Arc::clone(&spc);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        spc.inc(Counter::ProgressCalls);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(spc.get(Counter::ProgressCalls), 40_000);
    }
}
