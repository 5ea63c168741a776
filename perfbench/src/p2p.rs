//! The two-sided workloads `p2p_1t` and `p2p_2t`.
//!
//! A lane is one thread's closed loop over one communicator: post a window
//! of receives on rank 1, send the window from rank 0, wait for all of it,
//! and check every received message against the seeded stream.

use std::time::Instant;

use fairmpi::{Communicator, Counter, DesignConfig, Proc, Request, Tag, World, ANY_TAG};

use crate::checks;
use crate::session::{self, Net, SESSIONS};
use crate::spans::{NoTrace, SpanLog, Tracer};
use crate::stats::{mix, Reservoir, Rng};
use crate::{E2e, Outcome};

/// Messages per window (the receive window a Multirate thread keeps).
pub const WINDOW: usize = 64;
/// Warm-up windows per worker and session.
pub const WARM_WINDOWS: usize = 256;
/// The tag that ends the ping-pong.
const STOP: Tag = 1 << 20;

/// A two-sided workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub design: DesignConfig,
    pub threads: usize,
    pub payload: usize,
}

impl Shape {
    /// `p2p_1t`: the original design, one thread, 8-byte payloads.
    pub fn one_thread() -> Self {
        Self {
            design: DesignConfig::default(),
            threads: 1,
            payload: 8,
        }
    }

    /// `p2p_2t`: the proposed design with two instances, two threads with
    /// one communicator each, 0-byte messages.
    pub fn two_threads() -> Self {
        Self {
            design: proposed2(),
            threads: 2,
            payload: 0,
        }
    }

    /// World with one communicator per lane plus one for the ping-pong.
    pub fn build(&self) -> Net {
        let world = World::builder().design(self.design).build();
        let comms = (0..=self.threads).map(|_| world.new_comm()).collect();
        Net {
            world,
            comms,
            window: None,
        }
    }
}

/// The paper's proposed design with two instances.
pub fn proposed2() -> DesignConfig {
    DesignConfig::builder()
        .proposed(2)
        .build()
        .expect("proposed(2) is a valid design")
}

/// One lane's seeded message stream: the tag and payload of message `n`.
#[derive(Debug, Clone, Copy)]
pub struct Stream {
    /// Payload bytes per message (0 or 8).
    pub len: usize,
    tag_key: u64,
    payload_key: u64,
}

impl Stream {
    pub fn new(seed: u64, lane: usize, len: usize) -> Self {
        let mut rng = Rng::new(seed, lane as u64);
        Self {
            len,
            tag_key: rng.next_u64(),
            payload_key: rng.next_u64(),
        }
    }

    /// Seeded tag of message `n`.
    pub fn tag(&self, n: u64) -> Tag {
        (mix(self.tag_key ^ n) % 4096) as Tag
    }

    /// Payload of message `n`: its number masked by the seed key; the
    /// message carries the first [`Stream::len`] bytes.
    pub fn payload(&self, n: u64) -> [u8; 8] {
        (n ^ self.payload_key).to_le_bytes()
    }
}

/// One thread's closed loop over one communicator.
pub struct Lane {
    p0: Proc,
    p1: Proc,
    comm: Communicator,
    stream: Stream,
    next: u64,
    recvs: Vec<Request>,
    sends: Vec<Request>,
}

impl Lane {
    /// Lane `lane` of `net`, on the lane's own communicator.
    pub fn new(net: &Net, lane: usize, seed: u64, payload: usize) -> Self {
        Self {
            p0: net.world.proc(0),
            p1: net.world.proc(1),
            comm: net.comms[lane],
            stream: Stream::new(seed, lane, payload),
            next: 0,
            recvs: Vec::with_capacity(WINDOW),
            sends: Vec::with_capacity(WINDOW),
        }
    }

    /// Messages sent so far.
    pub fn sent(&self) -> u64 {
        self.next
    }

    /// One closed window of `size` messages.
    pub fn window<T: Tracer>(&mut self, t: &mut T, size: usize) -> Result<(), String> {
        let base = self.next;
        let stream = self.stream;
        t.window(|t| {
            for n in base..base + size as u64 {
                let tag = stream.tag(n);
                let r = t.call("irecv", n, || self.p1.irecv(stream.len, 0, tag, self.comm));
                self.recvs.push(r.map_err(|e| format!("irecv: {e}"))?);
            }
            for n in base..base + size as u64 {
                let (tag, buf) = (stream.tag(n), stream.payload(n));
                let r = t.call("isend", n, || {
                    self.p0.isend(&buf[..stream.len], 1, tag, self.comm)
                });
                self.sends.push(r.map_err(|e| format!("isend: {e}"))?);
            }
            for (n, r) in (base..).zip(self.sends.drain(..)) {
                t.call("wait", n, || self.p0.wait(&r))
                    .map_err(|e| format!("wait(send): {e}"))?;
            }
            for (n, r) in (base..).zip(self.recvs.drain(..)) {
                let m = t
                    .call("wait", n, || self.p1.wait(&r))
                    .map_err(|e| format!("wait(recv): {e}"))?;
                checks::fifo(
                    stream.tag(n),
                    &stream.payload(n)[..stream.len],
                    m.tag,
                    &m.data,
                )?;
            }
            Ok::<(), String>(())
        })?;
        self.next += size as u64;
        Ok(())
    }

    /// Windows of `size` until `until`; a sample of their elapsed ns.
    pub fn windows_until(&mut self, size: usize, until: Instant) -> Result<Vec<f64>, String> {
        let mut samples = Reservoir::new(self.next);
        while Instant::now() < until {
            let t0 = Instant::now();
            self.window(&mut NoTrace, size)?;
            samples.push(t0.elapsed().as_nanos() as f64);
        }
        Ok(samples.into_samples())
    }

    /// Warm up with [`WARM_WINDOWS`] windows.
    pub fn warm(mut self) -> Result<Self, String> {
        for _ in 0..WARM_WINDOWS {
            self.window(&mut NoTrace, WINDOW)?;
        }
        Ok(self)
    }
}

/// What one worker of an end-to-end run measured.
struct Worker {
    windows: Vec<f64>,
    latencies: Vec<f64>,
    messages: u64,
}

/// Blocking 8-byte ping-pong between rank 0 (`role` 0, which times each
/// round trip) and rank 1 (`role` 1, which echoes until told to stop).
/// Returns half round-trip times in ns and the messages sent.
fn ping_pong(
    world: &World,
    role: usize,
    comm: Communicator,
    seed: u64,
    until: Instant,
) -> Result<(Vec<f64>, u64), String> {
    let mut samples = Reservoir::new(seed);
    if role == 1 {
        let p1 = world.proc(1);
        let mut sent = 0;
        loop {
            let m = p1
                .recv(8, 0, ANY_TAG, comm)
                .map_err(|e| format!("recv(pong): {e}"))?;
            if m.tag == STOP {
                return Ok((Vec::new(), sent));
            }
            p1.send(&m.data, 0, m.tag, comm)
                .map_err(|e| format!("send(pong): {e}"))?;
            sent += 1;
        }
    }
    let p0 = world.proc(0);
    let mut rng = Rng::new(seed, 0x9106);
    let mut sent = 0;
    let mut result = Ok(());
    while Instant::now() < until {
        let ping = rng.next_u64().to_le_bytes();
        let tag = (sent % 4096) as Tag;
        let t0 = Instant::now();
        let reply = p0
            .send(&ping, 1, tag, comm)
            .and_then(|()| p0.recv(8, 1, tag, comm));
        let rtt = t0.elapsed().as_nanos() as f64;
        sent += 1;
        result = reply
            .map_err(|e| format!("ping: {e}"))
            .and_then(|m| checks::echo(&ping, &m.data));
        if result.is_err() {
            break;
        }
        samples.push(rtt / 2.0);
    }
    // Always release the echoing thread, even after a failure.
    p0.send(&[], 1, STOP, comm)
        .map_err(|e| format!("send(stop): {e}"))?;
    result.map(|()| (samples.into_samples(), sent + 1))
}

/// End-to-end run of `p2p_1t` or `p2p_2t`: [`SESSIONS`] sessions, each
/// measured for its share of `seconds`.
pub fn run(shape: Shape, seed: u64, seconds: f64, out: &mut Outcome) -> E2e {
    let threads = shape.threads;
    let seconds = seconds / SESSIONS as f64;
    let sessions = session::run(
        SESSIONS,
        threads,
        || shape.build(),
        |net, i| Lane::new(net, i, seed, shape.payload).warm(),
        |net, i, mut lane, phase| {
            // Phase 1: the window loop on every lane at once.
            let share = if threads == 1 { 0.75 } else { 0.6 };
            let windows = lane.windows_until(WINDOW, session::deadline(seconds, share));
            phase.wait();
            // Phase 2: single-message latency (one thread drives both
            // ranks) or the ping-pong (one thread per rank).
            let until = session::deadline(seconds, 1.0 - share);
            let latency = if threads == 1 {
                lane.windows_until(1, until).map(|l| (l, 0))
            } else {
                ping_pong(&net.world, i, net.comms[threads], seed, until)
            };
            let (latencies, pp_sent) = latency?;
            Ok(Worker {
                windows: windows?,
                latencies,
                // Warm-up traffic was reset away.
                messages: lane.sent() - (WARM_WINDOWS * WINDOW) as u64 + pp_sent,
            })
        },
    );

    let mut setup_s = Vec::new();
    let mut samples = Vec::new();
    let mut verdicts = Vec::new();
    for s in sessions {
        setup_s.push(s.setup_s);
        let (mut windows, mut latencies, mut expected) = (Vec::new(), Vec::new(), 0);
        for r in s.results {
            match r {
                Ok(w) => {
                    windows.extend(w.windows);
                    latencies.extend(w.latencies);
                    expected += w.messages;
                }
                Err(e) => out.fail(e),
            }
        }
        out.attempted += expected;
        out.check(checks::spc_counts(
            s.spc.get(Counter::MessagesSent),
            s.spc.get(Counter::MessagesReceived),
            expected,
        ));
        verdicts.push(binding(&s.spc));
        samples.push((windows, latencies));
    }
    if threads == 2 {
        println!("{}", binding_report(&verdicts));
    }
    E2e::from_sessions((WINDOW * threads) as f64, samples, setup_s)
}

/// Whether the two threads shared a dedicated instance in one session,
/// judged from the try-lock failure ratio and the out-of-sequence arrivals
/// per message that the session counted: `(shared, ratio, per message)`.
/// Separate instances fail almost no try-lock and see out-of-sequence
/// arrivals only when a fallback sweep happens to drain the other thread's
/// instance.
pub fn binding(spc: &fairmpi::SpcSnapshot) -> (bool, f64, f64) {
    let fail = spc.get(Counter::InstanceTryLockFailures);
    let acq = spc.get(Counter::InstanceLockAcquisitions);
    let fail_ratio = crate::stats::ratio(fail, fail + acq);
    let oos = crate::stats::ratio(
        spc.get(Counter::OutOfSequenceMessages),
        spc.get(Counter::MessagesReceived),
    );
    (fail_ratio >= 0.01 || oos >= 0.001, fail_ratio, oos)
}

/// One line summing up the sessions' [`binding`] verdicts.
pub fn binding_report(verdicts: &[(bool, f64, f64)]) -> String {
    let shared = verdicts.iter().filter(|v| v.0).count();
    let fail = verdicts.iter().map(|v| v.1).fold(0.0, f64::max);
    let oos = verdicts.iter().map(|v| v.2).fold(0.0, f64::max);
    format!(
        "dedicated-binding collisions: {shared} of {} sessions (largest try-lock \
         failure ratio {fail:.4}, largest out-of-sequence per message {oos:.4})",
        verdicts.len()
    )
}

/// What a traced run of a lane loop recorded.
pub struct Traced {
    /// Untraced window times, ns.
    pub plain: Vec<f64>,
    /// Span logs of the traced windows, one per worker.
    pub logs: Vec<SpanLog>,
    /// Counters of the untraced phase.
    pub spc: fairmpi::SpcSnapshot,
    /// Messages in one window across all workers.
    pub per_window: f64,
}

/// Traced run of the window loop: untraced windows for `seconds`, then
/// `traced_windows` windows per worker under the span recorder.
pub fn traced(
    shape: Shape,
    seed: u64,
    seconds: f64,
    traced_windows: usize,
    out: &mut Outcome,
) -> Traced {
    let epoch = Instant::now();
    let mut sessions = session::run(
        1,
        shape.threads,
        || shape.build(),
        |net, i| Lane::new(net, i, seed, shape.payload).warm(),
        |net, i, mut lane, phase| {
            let plain = lane.windows_until(WINDOW, session::deadline(seconds, 1.0));
            let sent = lane.sent();
            phase.wait();
            let spc = (i == 0).then(|| net.world.spc_merged());
            phase.wait();
            // Four calls per message (irecv, isend and two waits) plus the window.
            let mut log = SpanLog::new(epoch, traced_windows * (4 * WINDOW + 1));
            for _ in 0..traced_windows {
                lane.window(&mut log, WINDOW)?;
            }
            log.finish();
            Ok((plain?, log, spc, sent))
        },
    );
    let session = sessions.pop().expect("one session");
    let mut plain = Vec::new();
    let mut logs = Vec::new();
    let mut spc = fairmpi::SpcSnapshot::zero();
    let mut expected = 0;
    for r in session.results {
        match r {
            Ok((p, log, s, sent)) => {
                plain.extend(p);
                logs.push(log);
                if let Some(s) = s {
                    spc = s;
                }
                expected += sent - (WARM_WINDOWS * WINDOW) as u64;
            }
            Err(e) => out.fail(e),
        }
    }
    expected += (traced_windows * WINDOW * logs.len()) as u64;
    out.attempted += expected;
    out.check(checks::spc_counts(
        session.spc.get(Counter::MessagesSent),
        session.spc.get(Counter::MessagesReceived),
        expected,
    ));
    Traced {
        plain,
        logs,
        spc,
        per_window: (WINDOW * shape.threads) as f64,
    }
}
