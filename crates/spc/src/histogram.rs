//! Log2-bucket histogram cells.
//!
//! Some internals (queue-search lengths, drain batch sizes) are badly
//! summarized by a single counter: the paper's matching pathology is a
//! *distribution* question — most searches are short, a heavy tail is what
//! burns the match time. Each [`Histogram`] id owns a fixed array of
//! power-of-two buckets in an [`crate::SpcSet`]; recording is one relaxed
//! `fetch_add`, so the probe stays as cheap as a counter bump.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets per histogram: bucket 0 holds zeros, bucket `b ≥ 1`
/// holds values in `[2^(b-1), 2^b - 1]`, and the last bucket absorbs the
/// overflow tail.
pub const HISTOGRAM_BUCKETS: usize = 16;

/// Identifier of one histogram.
///
/// Like [`crate::Counter`], the discriminant doubles as the cell index, so
/// the enum must stay dense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(usize)]
pub enum Histogram {
    /// Posted-receive-queue entries inspected per incoming-message match
    /// attempt (the PRQ search length distribution).
    MatchDeliverAttempts,
    /// Unexpected-queue entries inspected per posted receive (the UMQ
    /// search length distribution).
    MatchPostAttempts,
    /// Items extracted from an instance per progress-engine visit.
    DrainBatchSize,
    /// Out-of-sequence messages replayed per in-sequence arrival (the
    /// reorder-chain length distribution).
    OosReplayChain,
}

impl Histogram {
    /// Total number of histograms in every [`crate::SpcSet`].
    pub const COUNT: usize = Histogram::OosReplayChain as usize + 1;

    /// All histograms in index order.
    pub const ALL: [Histogram; Histogram::COUNT] = [
        Histogram::MatchDeliverAttempts,
        Histogram::MatchPostAttempts,
        Histogram::DrainBatchSize,
        Histogram::OosReplayChain,
    ];

    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Histogram::MatchDeliverAttempts => "match_deliver_attempts",
            Histogram::MatchPostAttempts => "match_post_attempts",
            Histogram::DrainBatchSize => "drain_batch_size",
            Histogram::OosReplayChain => "oos_replay_chain",
        }
    }

    /// Index of the cell inside an [`crate::SpcSet`].
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Bucket index for a recorded value: 0 for 0, `floor(log2(v)) + 1`
/// otherwise, saturating into the last bucket.
#[inline]
pub fn bucket_for(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `b` (`None` for the overflow bucket).
pub fn bucket_upper_bound(b: usize) -> Option<u64> {
    if b + 1 >= HISTOGRAM_BUCKETS {
        None
    } else {
        Some((1u64 << b) - 1)
    }
}

/// One live histogram: bucket counts plus sum/count for mean derivation.
///
/// Buckets share the cell's cache line(s) rather than getting a line each —
/// a histogram update touches exactly one bucket plus sum and count, and
/// the `SpcSet` pads whole cells against *neighboring* cells instead.
#[derive(Debug)]
pub struct HistogramCell {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for HistogramCell {
    fn default() -> Self {
        Self::new()
    }
}

impl HistogramCell {
    /// An empty histogram.
    pub const fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_for(value)].fetch_add(1, Ordering::Relaxed);
        // Saturating: a histogram that has absorbed 2^64 ns of samples must
        // pin at the ceiling, not wrap to a tiny sum. A zero sample leaves
        // the sum as it is, so it skips the compare-and-swap loop.
        if value != 0 {
            self.sum
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                    Some(s.saturating_add(value))
                })
                .ok();
        }
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of buckets, sum and count.
    pub fn value(&self) -> HistogramValue {
        HistogramValue {
            buckets: self.buckets.each_ref().map(|b| b.load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }

    /// Forget all observations (see [`crate::SpcSet::reset`] for the
    /// concurrency contract).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
    }
}

/// A histogram at one point in time; what [`crate::SpcSet::histogram`]
/// returns after merging its shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramValue {
    /// Observations per bucket.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of all observations (saturating).
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramValue {
    /// The distribution of both sets of observations.
    pub fn merge(mut self, other: Self) -> Self {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets) {
            *b += o;
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.count += other.count;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_at_powers_of_two() {
        assert_eq!(bucket_for(0), 0);
        for k in 0..12u32 {
            let p = 1u64 << k;
            // 2^k opens bucket k+1 ...
            assert_eq!(
                bucket_for(p),
                (k as usize + 1).min(HISTOGRAM_BUCKETS - 1),
                "2^{k}"
            );
            // ... and 2^k - 1 still belongs to bucket k (for k ≥ 1).
            if k >= 1 {
                assert_eq!(
                    bucket_for(p - 1),
                    (k as usize).min(HISTOGRAM_BUCKETS - 1),
                    "2^{k}-1"
                );
            }
        }
        // The tail saturates into the last bucket.
        assert_eq!(bucket_for(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn bucket_upper_bounds_match_bucket_for() {
        for b in 0..HISTOGRAM_BUCKETS - 1 {
            let ub = bucket_upper_bound(b).unwrap();
            assert_eq!(bucket_for(ub), b, "upper bound of bucket {b}");
            assert_eq!(bucket_for(ub + 1), b + 1, "first value past bucket {b}");
        }
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), None);
    }

    #[test]
    fn record_fills_buckets_sum_count() {
        let h = HistogramCell::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        let v = h.value();
        assert_eq!(v.buckets[0], 1); // the zero
        assert_eq!(v.buckets[1], 1); // 1
        assert_eq!(v.buckets[2], 2); // 2 and 3
        assert_eq!(v.buckets[11], 1); // 1024 = 2^10 → bucket 11
        assert_eq!(v.count, 5);
        assert_eq!(v.sum, 1030);
    }

    #[test]
    fn sum_saturates_instead_of_wrapping() {
        let h = HistogramCell::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.value().sum, u64::MAX);
        assert_eq!(h.value().count, 2);
    }

    #[test]
    fn zero_samples_count_without_moving_the_sum() {
        let h = HistogramCell::new();
        h.record(5);
        h.record(0);
        h.record(0);
        let v = h.value();
        assert_eq!(v.buckets[0], 2);
        assert_eq!(v.count, 3);
        assert_eq!(v.sum, 5);
        // A saturated sum stays saturated through zeros and further samples.
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.value().sum, u64::MAX);
        h.record(1);
        assert_eq!(h.value().sum, u64::MAX);
        assert_eq!(h.value().count, 6);
        assert_eq!(h.value().buckets[0], 3);
    }

    #[test]
    fn histogram_ids_are_dense() {
        for (i, h) in Histogram::ALL.iter().enumerate() {
            assert_eq!(h.index(), i);
        }
        let mut names: Vec<&str> = Histogram::ALL.iter().map(|h| h.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Histogram::COUNT);
    }
}
