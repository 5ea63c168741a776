//! The one-sided workload `rma_2t` (RMA-MT: `put` + `flush`).
//!
//! Every origin thread owns a disjoint block of 8-byte slots in rank 1's
//! window. A window of work is [`WINDOW`] puts, one per slot, then a flush;
//! each put writes a value that encodes the seed, the thread, the epoch
//! (window number) and the slot, so the final target bytes prove that the
//! last epoch of every thread landed whole and in the right place.

use std::time::Instant;

use fairmpi::{Counter, DesignConfig, Window, World};

use crate::checks;
use crate::session::{self, Net, SESSIONS};
use crate::spans::{NoTrace, SpanLog, Tracer};
use crate::stats::{mix, Reservoir};
use crate::{E2e, Outcome};

/// Puts per flush.
pub const WINDOW: usize = 64;
/// Warm-up windows per worker and session.
const WARM_WINDOWS: usize = 256;
/// Slots per thread: a block for the windows plus one latency slot.
const SLOTS: usize = WINDOW + 1;

/// A one-sided workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub design: DesignConfig,
    pub threads: usize,
}

impl Shape {
    /// World plus a window with [`SLOTS`] slots per thread on every rank.
    pub fn build(&self) -> Net {
        let world = World::builder().design(self.design).build();
        let window = world.allocate_window(self.threads * SLOTS * 8);
        Net {
            world,
            comms: Vec::new(),
            window: Some(window),
        }
    }
}

/// One origin thread's put stream.
pub struct Origin {
    win: Window,
    thread: usize,
    key: u64,
    /// Windows completed so far (the next epoch).
    epochs: u64,
    /// Single-put epochs completed so far.
    singles: u64,
}

impl Origin {
    pub fn new(net: &Net, thread: usize, seed: u64) -> Result<Self, String> {
        let id = net.window.expect("RMA net has a window");
        let win = net
            .world
            .proc(0)
            .window(id)
            .map_err(|e| format!("window: {e}"))?;
        Ok(Self {
            win,
            thread,
            key: mix(seed),
            epochs: 0,
            singles: 0,
        })
    }

    /// The value thread `thread` puts into `slot` in `epoch`.
    pub fn value(key: u64, thread: usize, epoch: u64, slot: usize) -> u64 {
        mix(key ^ ((thread as u64) << 56) ^ (epoch << 8) ^ slot as u64)
    }

    fn offset(&self, slot: usize) -> usize {
        (self.thread * SLOTS + slot) * 8
    }

    /// One window: a put to each of the thread's slots, then a flush.
    pub fn window<T: Tracer>(&mut self, t: &mut T) -> Result<(), String> {
        let epoch = self.epochs;
        t.window(|t| {
            for slot in 0..WINDOW {
                let v = Self::value(self.key, self.thread, epoch, slot).to_le_bytes();
                let msg = epoch * WINDOW as u64 + slot as u64;
                t.call("put", msg, || self.win.put(1, self.offset(slot), &v))
                    .map_err(|e| format!("put: {e}"))?;
            }
            t.call("flush", epoch, || self.win.flush(1))
                .map_err(|e| format!("flush: {e}"))
        })?;
        self.epochs += 1;
        Ok(())
    }

    /// One put to the latency slot, then a flush.
    pub fn single(&mut self) -> Result<(), String> {
        let v = Self::value(self.key, self.thread, self.singles, WINDOW).to_le_bytes();
        self.win
            .put(1, self.offset(WINDOW), &v)
            .and_then(|()| self.win.flush(1))
            .map_err(|e| format!("put+flush: {e}"))?;
        self.singles += 1;
        Ok(())
    }

    /// What this thread's slots must hold now.
    pub fn expected(&self) -> Vec<u64> {
        let mut slots: Vec<u64> = (0..WINDOW)
            .map(|s| Self::value(self.key, self.thread, self.epochs.saturating_sub(1), s))
            .collect();
        // An untouched latency slot still holds the window's initial zeros.
        slots.push(match self.singles {
            0 => 0,
            n => Self::value(self.key, self.thread, n - 1, WINDOW),
        });
        slots
    }

    /// Check the thread's slots in the target's window.
    pub fn verify(&self, net: &Net) -> Result<(), String> {
        let id = net.window.expect("RMA net has a window");
        let target = net
            .world
            .proc(1)
            .window(id)
            .map_err(|e| format!("window: {e}"))?;
        let bytes = target
            .read_local(self.offset(0), SLOTS * 8)
            .map_err(|e| format!("read_local: {e}"))?;
        checks::window_bytes(&bytes, &self.expected())
    }

    fn warm(mut self) -> Result<Self, String> {
        for _ in 0..WARM_WINDOWS {
            self.window(&mut NoTrace)?;
        }
        Ok(self)
    }

    fn windows_until(&mut self, until: Instant) -> Result<Vec<f64>, String> {
        let mut samples = Reservoir::new(self.key);
        while Instant::now() < until {
            let t0 = Instant::now();
            self.window(&mut NoTrace)?;
            samples.push(t0.elapsed().as_nanos() as f64);
        }
        Ok(samples.into_samples())
    }

    fn singles_until(&mut self, until: Instant) -> Result<Vec<f64>, String> {
        let mut samples = Reservoir::new(self.key);
        while Instant::now() < until {
            let t0 = Instant::now();
            self.single()?;
            samples.push(t0.elapsed().as_nanos() as f64);
        }
        Ok(samples.into_samples())
    }
}

/// Puts and flushes one origin issued since the counters were reset.
fn issued(o: &Origin) -> (u64, u64) {
    let windows = o.epochs - WARM_WINDOWS as u64;
    (windows * WINDOW as u64 + o.singles, windows + o.singles)
}

/// Check the counters against what the origins issued.
fn check_counts(spc: &fairmpi::SpcSnapshot, puts: u64, flushes: u64, out: &mut Outcome) {
    out.attempted += puts + flushes;
    out.check(checks::spc_count(
        "rma_puts",
        spc.get(Counter::RmaPuts),
        puts,
    ));
    out.check(checks::spc_count(
        "rma_flushes",
        spc.get(Counter::RmaFlushes),
        flushes,
    ));
}

/// End-to-end run of `rma_2t`: [`SESSIONS`] sessions, each measured for
/// its share of `seconds`.
pub fn run(shape: Shape, seed: u64, seconds: f64, out: &mut Outcome) -> E2e {
    let seconds = seconds / SESSIONS as f64;
    let sessions = session::run(
        SESSIONS,
        shape.threads,
        || shape.build(),
        |net, i| Origin::new(net, i, seed)?.warm(),
        |net, _, mut origin, phase| {
            let windows = origin.windows_until(session::deadline(seconds, 0.75));
            phase.wait();
            // The block is final now: verify it before the latency phase.
            let block = windows.and_then(|w| origin.verify(net).map(|()| w));
            let latencies = origin.singles_until(session::deadline(seconds, 0.25))?;
            origin.verify(net)?;
            Ok((block?, latencies, issued(&origin)))
        },
    );
    let mut setup_s = Vec::new();
    let mut samples = Vec::new();
    for s in sessions {
        setup_s.push(s.setup_s);
        let (mut windows, mut latencies) = (Vec::new(), Vec::new());
        let (mut puts, mut flushes) = (0, 0);
        for r in s.results {
            match r {
                Ok((w, l, (p, f))) => {
                    windows.extend(w);
                    latencies.extend(l);
                    puts += p;
                    flushes += f;
                }
                Err(e) => out.fail(e),
            }
        }
        check_counts(&s.spc, puts, flushes, out);
        samples.push((windows, latencies));
    }
    E2e::from_sessions((WINDOW * shape.threads) as f64, samples, setup_s)
}

/// Traced run: untraced windows for `seconds`, then `traced_windows`
/// windows per worker under the span recorder.
pub fn traced(
    shape: Shape,
    seed: u64,
    seconds: f64,
    traced_windows: usize,
    out: &mut Outcome,
) -> crate::p2p::Traced {
    let epoch = Instant::now();
    let mut sessions = session::run(
        1,
        shape.threads,
        || shape.build(),
        |net, i| Origin::new(net, i, seed)?.warm(),
        |net, i, mut origin, phase| {
            let plain = origin.windows_until(session::deadline(seconds, 1.0));
            phase.wait();
            let spc = (i == 0).then(|| net.world.spc_merged());
            phase.wait();
            let mut log = SpanLog::new(epoch, traced_windows * (WINDOW + 2));
            for _ in 0..traced_windows {
                origin.window(&mut log)?;
            }
            log.finish();
            origin.verify(net)?;
            Ok((plain?, log, spc, issued(&origin)))
        },
    );
    let mut traced = crate::p2p::Traced {
        plain: Vec::new(),
        logs: Vec::new(),
        spc: fairmpi::SpcSnapshot::zero(),
        per_window: (WINDOW * shape.threads) as f64,
    };
    let session = sessions.pop().expect("one session");
    let (mut puts, mut flushes) = (0, 0);
    for r in session.results {
        match r {
            Ok((p, log, spc, (n_puts, n_flushes))) => {
                traced.plain.extend(p);
                traced.logs.push(log);
                if let Some(spc) = spc {
                    traced.spc = spc;
                }
                puts += n_puts;
                flushes += n_flushes;
            }
            Err(e) => out.fail(e),
        }
    }
    check_counts(&session.spc, puts, flushes, out);
    traced
}
