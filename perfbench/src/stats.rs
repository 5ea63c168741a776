//! Order statistics and the seeded input generator.

/// The `p`-quantile (0 ≤ p ≤ 1) of `samples` by linear interpolation
/// between closest ranks (the NumPy default); NaN, which reports as not
/// measured, when there are no samples. Sorts in place.
pub fn quantile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

/// The median of `samples`. Sorts in place.
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `num / den`, or 0 when there is nothing to divide by (a counter ratio
/// over a run that issued no such operation).
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// SplitMix64: one 64-bit mixing step. Every generated input (tags,
/// payload keys, put values, replay order) is a pure function of the
/// workload seed through this, so one seed always yields one input set.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded stream of 64-bit draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams of the same seed
    /// by `lane`.
    pub fn new(seed: u64, lane: u64) -> Self {
        Self(mix(seed ^ mix(lane)))
    }

    /// Next draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// A uniform random sample of at most [`Reservoir::CAPACITY`] of the
/// values pushed (Vitter's algorithm R). Its memory is fixed and touched
/// when it is made, so a run's peak RSS does not depend on how many
/// samples it took; its quantiles are quantiles of exact samples.
pub struct Reservoir {
    samples: Vec<f64>,
    seen: u64,
    rng: Rng,
}

impl Reservoir {
    pub const CAPACITY: usize = 1 << 12;

    pub fn new(seed: u64) -> Self {
        let mut samples = vec![0.0; Self::CAPACITY];
        samples.clear();
        Self {
            samples,
            seen: 0,
            rng: Rng::new(seed, 0x5a3b1e),
        }
    }

    pub fn push(&mut self, v: f64) {
        if self.samples.len() < Self::CAPACITY {
            self.samples.push(v);
        } else {
            let j = self.rng.next_u64() % (self.seen + 1);
            if (j as usize) < Self::CAPACITY {
                self.samples[j as usize] = v;
            }
        }
        self.seen += 1;
    }

    /// The retained sample.
    pub fn into_samples(self) -> Vec<f64> {
        self.samples
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert!((quantile(&mut v, 0.9) - 3.7).abs() < 1e-12);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn streams_are_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]), "same seed, same draws");
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::new(1);
        let n = 4 * Reservoir::CAPACITY as u64;
        for i in 0..n {
            r.push(i as f64);
        }
        let mut s = r.into_samples();
        assert_eq!(s.len(), Reservoir::CAPACITY);
        let mid = median(&mut s) / n as f64;
        assert!((mid - 0.5).abs() < 0.03, "median at {mid} of the range");
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3, 0), 0.0);
        assert_eq!(ratio(1, 4), 0.25);
    }
}
