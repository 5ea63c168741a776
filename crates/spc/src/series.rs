//! Time-series sampling of an [`SpcSet`]: periodic snapshots that turn the
//! cumulative counters into per-interval rates (message rate over virtual
//! time, match-time share per window, ...).

use std::fmt::Write as _;

use crate::{Counter, SpcSet, SpcSnapshot};

/// Periodic [`SpcSnapshot`] samples over (virtual or wall) time.
#[derive(Debug, Clone)]
pub struct SpcSeries {
    /// Sampling interval in nanoseconds.
    pub interval_ns: u64,
    /// `(sample_time_ns, cumulative_snapshot)` rows, oldest first.
    pub rows: Vec<(u64, SpcSnapshot)>,
    next_due_ns: u64,
}

impl SpcSeries {
    /// A series sampling every `interval_ns` nanoseconds.
    pub fn new(interval_ns: u64) -> Self {
        Self {
            interval_ns: interval_ns.max(1),
            rows: Vec::new(),
            next_due_ns: 0,
        }
    }

    /// Record a sample unconditionally.
    pub fn sample(&mut self, now_ns: u64, spc: &SpcSet) {
        self.rows.push((now_ns, spc.snapshot()));
        self.next_due_ns = now_ns.saturating_add(self.interval_ns);
    }

    /// Record a sample only if at least one interval elapsed since the last
    /// one. Returns whether a sample was taken.
    pub fn maybe_sample(&mut self, now_ns: u64, spc: &SpcSet) -> bool {
        if now_ns < self.next_due_ns {
            return false;
        }
        self.sample(now_ns, spc);
        true
    }

    /// Number of samples collected.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no samples were collected.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as CSV. Each row reports the **delta** over the preceding
    /// interval (high-water counters keep their cumulative value), plus
    /// derived per-second send/receive rates for quick plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_s");
        for c in Counter::ALL {
            let _ = write!(out, ",{}", c.name());
        }
        out.push_str(",sent_per_s,received_per_s\n");

        let mut prev_ts = 0u64;
        let mut prev = SpcSnapshot::zero();
        for (ts, snap) in &self.rows {
            let delta = snap.delta_since(&prev);
            let dt_s = ts.saturating_sub(prev_ts) as f64 / 1e9;
            let _ = write!(out, "{:.6}", *ts as f64 / 1e9);
            for c in Counter::ALL {
                let _ = write!(out, ",{}", delta[c]);
            }
            let (sent_rate, recv_rate) = if dt_s > 0.0 {
                (
                    delta[Counter::MessagesSent] as f64 / dt_s,
                    delta[Counter::MessagesReceived] as f64 / dt_s,
                )
            } else {
                (0.0, 0.0)
            };
            let _ = writeln!(out, ",{sent_rate:.1},{recv_rate:.1}");
            prev_ts = *ts;
            prev = snap.clone();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maybe_sample_respects_interval() {
        let spc = SpcSet::new();
        let mut series = SpcSeries::new(1_000);
        assert!(series.maybe_sample(0, &spc));
        assert!(!series.maybe_sample(999, &spc));
        assert!(series.maybe_sample(1_000, &spc));
        assert!(series.maybe_sample(5_000, &spc));
        assert_eq!(series.len(), 3);
    }

    #[test]
    fn csv_reports_per_interval_deltas_and_rates() {
        let spc = SpcSet::new();
        let mut series = SpcSeries::new(1_000_000);
        spc.add(Counter::MessagesSent, 10);
        series.sample(1_000_000_000, &spc); // t = 1 s, 10 msgs total
        spc.add(Counter::MessagesSent, 30);
        series.sample(2_000_000_000, &spc); // t = 2 s, +30 msgs
        let csv = series.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("time_s,messages_sent,"));
        assert!(header.ends_with("sent_per_s,received_per_s"));
        let row1: Vec<&str> = lines.next().unwrap().split(',').collect();
        let row2: Vec<&str> = lines.next().unwrap().split(',').collect();
        assert_eq!(row1[0], "1.000000");
        assert_eq!(row1[1], "10"); // delta from zero
        assert_eq!(row2[1], "30"); // delta from previous row
                                   // 30 msgs over the second interval second → 30/s.
        assert_eq!(row2.last().copied(), Some("0.0"));
        assert_eq!(row2[row2.len() - 2], "30.0");
        assert_eq!(lines.next(), None);
    }
}
