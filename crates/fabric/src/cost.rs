//! Calibrated busy-waiting for the native (real-thread) execution mode.
//!
//! When the runtime executes on real OS threads, per-message hardware costs
//! (NIC injection, wire serialization) are emulated by spinning for the
//! configured number of nanoseconds *while holding the same locks the real
//! operation would hold*, so that contention behaves like the real system.
//! The virtual-time executor never calls these; it advances a virtual clock
//! instead.

use fairmpi_sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Iterations of the calibration loop per nanosecond, fixed-point ×1024.
/// 0 means "not calibrated yet".
static SPIN_PER_NS_X1024: AtomicU64 = AtomicU64::new(0);

#[inline]
fn spin_chunk(iters: u64) {
    for _ in 0..iters {
        std::hint::spin_loop();
    }
}

/// Measure how many spin iterations one nanosecond costs on this host and
/// cache the result. Returns iterations/ns ×1024.
pub fn calibrate_spin() -> u64 {
    let cached = SPIN_PER_NS_X1024.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    // Time a fixed number of iterations, take the median of a few runs.
    const ITERS: u64 = 200_000;
    let mut samples = [0u64; 5];
    for s in samples.iter_mut() {
        let start = Instant::now();
        spin_chunk(ITERS);
        let ns = start.elapsed().as_nanos().max(1) as u64;
        *s = ITERS * 1024 / ns;
    }
    samples.sort_unstable();
    let rate = samples[2].max(1);
    SPIN_PER_NS_X1024.store(rate, Ordering::Relaxed);
    rate
}

/// Busy-wait for approximately `ns` nanoseconds.
///
/// Uses the calibrated spin rate for short waits to avoid the syscall cost of
/// reading the clock in a loop; falls back to clock-polling for long waits
/// where accuracy matters more than overhead.
pub fn busy_wait_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    if ns >= 50_000 {
        // Long wait: poll the clock.
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
        return;
    }
    let rate = calibrate_spin();
    spin_chunk((ns * rate) / 1024);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_returns_nonzero_and_caches() {
        let a = calibrate_spin();
        assert!(a > 0);
        let b = calibrate_spin();
        assert_eq!(a, b, "second call must hit the cache");
    }

    #[test]
    fn zero_wait_is_free() {
        let start = Instant::now();
        busy_wait_ns(0);
        assert!(start.elapsed().as_micros() < 1_000);
    }

    #[test]
    fn long_wait_is_roughly_accurate() {
        let start = Instant::now();
        busy_wait_ns(200_000); // 200 us, clock-polled.
        let elapsed = start.elapsed().as_nanos() as u64;
        assert!(elapsed >= 200_000, "waited only {elapsed} ns");
        // Generous upper bound: CI machines are noisy.
        assert!(elapsed < 20_000_000, "waited {elapsed} ns");
    }

    #[test]
    fn short_wait_terminates() {
        // Mostly checking it doesn't spin forever or panic.
        for _ in 0..100 {
            busy_wait_ns(300);
        }
    }
}
