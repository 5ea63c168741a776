//! The traced run's span recorder.
//!
//! Workload loops are generic over [`Tracer`]. End-to-end runs pass
//! [`NoTrace`], whose hooks inline to nothing, so the measured loop is the
//! plain sequence of runtime calls. Traced runs pass a [`SpanLog`], which
//! keeps one span per window and one per public `fairmpi` call (name,
//! start, end, parent, message id) in memory; the log is written out only
//! after the run ends, so file I/O never lands inside a measured window.
//!
//! Span edges are read from the time-stamp counter where there is one
//! (about half the cost of `Instant::now` on x86-64, which keeps the
//! recorder's own time small next to the calls it times) and converted to
//! nanoseconds by [`SpanLog::finish`], calibrated against `Instant` over
//! the log's lifetime.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Hooks a workload loop calls around each window and each runtime call.
pub trait Tracer {
    /// Run one window (the parent of the calls made inside it).
    fn window<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R;
    /// Run one public runtime call on behalf of message `msg`.
    fn call<R>(&mut self, name: &'static str, msg: u64, f: impl FnOnce() -> R) -> R;
}

/// The end-to-end tracer: records nothing.
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn window<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }

    #[inline(always)]
    fn call<R>(&mut self, _name: &'static str, _msg: u64, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Parent index of a root span.
const ROOT: u32 = u32::MAX;

/// Time-stamp counter ticks.
#[cfg(target_arch = "x86_64")]
fn ticks() -> u64 {
    // SAFETY: `rdtsc` has no preconditions on x86-64.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// Monotonic ns where there is no time-stamp counter.
#[cfg(not(target_arch = "x86_64"))]
fn ticks() -> u64 {
    use std::sync::OnceLock;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded span; times are ticks until [`SpanLog::finish`], then ns
/// since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub msg: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span log of one thread.
pub struct SpanLog {
    epoch: Instant,
    born: Instant,
    born_ticks: u64,
    parent: u32,
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log with room for `capacity` spans; `epoch` is the run's
    /// time origin, shared by every thread's log.
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        // Touch the whole buffer now, so no page fault lands inside a span.
        let blank = Span {
            name: "",
            start_ns: 0,
            end_ns: 0,
            parent: ROOT,
            msg: 0,
        };
        let mut spans = vec![blank; capacity];
        spans.clear();
        Self {
            epoch,
            born: Instant::now(),
            born_ticks: ticks(),
            parent: ROOT,
            spans,
        }
    }

    fn now(&self) -> u64 {
        ticks()
    }

    /// Convert every span edge from ticks to ns since the epoch.
    pub fn finish(&mut self) {
        let elapsed = self.born.elapsed().as_nanos() as f64;
        let ns_per_tick = elapsed / (ticks() - self.born_ticks).max(1) as f64;
        let offset = self.born.duration_since(self.epoch).as_nanos() as f64;
        let ns = |t: u64| (offset + (t - self.born_ticks) as f64 * ns_per_tick) as u64;
        for s in &mut self.spans {
            (s.start_ns, s.end_ns) = (ns(s.start_ns), ns(s.end_ns));
        }
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Per window: its duration, the part of it spent inside child spans,
    /// and the number of child spans. A window's children follow it in the
    /// log, since windows do not nest.
    pub fn windows(&self) -> Vec<(u64, u64, usize)> {
        let mut out: Vec<(u64, u64, usize)> = Vec::new();
        for s in &self.spans {
            match out.last_mut() {
                Some(w) if s.parent != ROOT => {
                    w.1 += s.dur_ns();
                    w.2 += 1;
                }
                _ => out.push((s.dur_ns(), 0, 0)),
            }
        }
        out
    }
}

/// The recorder's own time between two consecutive call spans: the median
/// gap between spans around calls that do nothing.
pub fn recorder_gap_ns() -> f64 {
    const CALLS: usize = 4096;
    let mut log = SpanLog::new(Instant::now(), CALLS + 1);
    log.window(|t| {
        for i in 0..CALLS as u64 {
            t.call("empty", i, || std::hint::black_box(i));
        }
    });
    log.finish();
    let mut gaps: Vec<f64> = log.spans[1..]
        .windows(2)
        .map(|p| (p[1].start_ns - p[0].end_ns) as f64)
        .collect();
    crate::stats::median(&mut gaps)
}

impl Tracer for SpanLog {
    fn window<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name: "window",
            start_ns,
            end_ns: start_ns,
            parent: ROOT,
            msg: 0,
        });
        let outer = std::mem::replace(&mut self.parent, idx);
        let r = f(self);
        self.parent = outer;
        self.spans[idx as usize].end_ns = self.now();
        r
    }

    fn call<R>(&mut self, name: &'static str, msg: u64, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now();
        let r = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.parent,
            msg,
        });
        r
    }
}

/// Write the logs of every thread as CSV
/// (`thread,index,name,start_ns,end_ns,parent,msg_id`).
pub fn write_csv(path: &Path, logs: &[SpanLog]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread,index,name,start_ns,end_ns,parent,msg_id")?;
    for (t, log) in logs.iter().enumerate() {
        for (i, s) in log.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{t},{i},{},{},{},{parent},{}",
                s.name, s.start_ns, s.end_ns, s.msg
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calls_nest_under_their_window() {
        let mut log = SpanLog::new(Instant::now(), 3);
        log.window(|t| {
            t.call("isend", 7, || ());
            t.call("wait", 7, || ());
        });
        log.finish();
        assert_eq!(log.spans.len(), 3);
        assert_eq!(log.spans[0].parent, ROOT);
        assert!(log.spans[1..].iter().all(|s| s.parent == 0 && s.msg == 7));
        let [(window, covered, calls)] = log.windows()[..] else {
            panic!("one window expected");
        };
        assert!(covered <= window);
        assert_eq!(calls, 2);
        assert_eq!(log.durations("isend").len(), 1);
    }
}
