//! Per-layer replays: a workload's envelope stream driven straight through
//! each layer crate's public API, timed in batches of one window.
//!
//! Calls cost tens of nanoseconds, so each sample is a batch of
//! [`BATCH`] calls divided by the batch size; a metric is the median
//! sample. Replays are single-threaded except the `_2t` ones, where a
//! second thread works the same resource at the same time.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fairmpi::{Assignment, CommId, DesignConfig};
use fairmpi_cri::CriPool;
use fairmpi_fabric::{Completion, CompletionKind, Envelope, Fabric, FabricConfig, Packet};
use fairmpi_matching::{Matcher, PostedRecv, SendSequencer};
use fairmpi_progress::{ProgressEngine, ProgressHandler};
use fairmpi_spc::SpcSet;

use crate::p2p::Stream;
use crate::stats::{median, Rng};
use crate::Metrics;

/// Calls per timed batch (one window).
pub const BATCH: usize = 64;

/// The stream a replay drives: the workload's design, one lane's seeded
/// stream and the communicator it travels on.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    pub design: DesignConfig,
    pub stream: Stream,
    pub comm: CommId,
}

/// Time `batch` repeatedly until `budget` elapses (at least 16 batches);
/// the median ns per call.
fn per_call(budget: Duration, mut batch: impl FnMut() -> Duration) -> f64 {
    let until = Instant::now() + budget;
    let mut samples = Vec::new();
    while samples.len() < 16 || Instant::now() < until {
        samples.push(batch().as_nanos() as f64 / BATCH as f64);
    }
    median(&mut samples)
}

fn packet(r: &Replay, n: u64, seq: u64) -> Packet {
    Packet::eager(
        Envelope {
            src: 0,
            dst: 1,
            comm: r.comm,
            tag: r.stream.tag(n),
            seq,
        },
        r.stream.payload(n)[..r.stream.len].to_vec(),
    )
}

/// `Matcher::post_recv`, `Matcher::deliver` and `SendSequencer::next`
/// over the stream: each window posts its receives, draws its sequence
/// numbers, then delivers its packets in order.
fn matching(r: &Replay, budget: Duration) -> Result<Metrics, String> {
    let mut matcher = Matcher::new(Arc::new(SpcSet::new()), r.design.allow_overtaking);
    let seq = SendSequencer::new(2);
    let (mut post, mut deliver, mut draw) = (Vec::new(), Vec::new(), Vec::new());
    let mut events = Vec::with_capacity(BATCH);
    let mut seqs = [0u64; BATCH];
    let until = Instant::now() + budget;
    let mut n = 0u64;
    while post.len() < 16 || Instant::now() < until {
        let t0 = Instant::now();
        for i in 0..BATCH as u64 {
            black_box(matcher.post_recv(PostedRecv {
                token: n + i,
                comm: r.comm,
                src: 0,
                tag: r.stream.tag(n + i),
            }));
        }
        post.push(t0.elapsed());
        let t0 = Instant::now();
        for s in seqs.iter_mut() {
            *s = seq.next(1);
        }
        draw.push(t0.elapsed());
        let packets: Vec<Packet> = (0..BATCH as u64)
            .map(|i| packet(r, n + i, seqs[i as usize]))
            .collect();
        let t0 = Instant::now();
        for p in packets {
            matcher.deliver(p, &mut events);
        }
        deliver.push(t0.elapsed());
        // The replay itself must match in order, one receive per packet.
        if events.len() != BATCH || events.iter().zip(n..).any(|(e, tok)| e.token != tok) {
            return Err(format!("matcher replay out of order at message {n}"));
        }
        events.clear();
        n += BATCH as u64;
    }
    let med = |v: Vec<Duration>| {
        let mut ns: Vec<f64> = v
            .iter()
            .map(|d| d.as_nanos() as f64 / BATCH as f64)
            .collect();
        median(&mut ns)
    };
    Ok(vec![
        ("matching.post_recv_ns", med(post)),
        ("matching.deliver_ns", med(deliver)),
        ("matching.seq_next_ns", med(draw)),
    ])
}

/// A rank-0 instance pool of the design's size over a zero-cost fabric.
fn pool(design: &DesignConfig) -> (Arc<Fabric>, Arc<CriPool>) {
    let n = design.num_instances;
    let fabric = Arc::new(Fabric::new(2, n, FabricConfig::test_default()));
    let pool = Arc::new(CriPool::new(&fabric, 0, n, Arc::new(SpcSet::new())));
    (fabric, pool)
}

/// Pop everything from rank 1's contexts and the pool's completion queues.
fn drain_all(fabric: &Fabric, pool: &CriPool) {
    for ctx in fabric.contexts(1) {
        let mut d = ctx.begin_drain();
        while d.pop_rx().is_some() {}
    }
    for cri in pool.instances() {
        let mut d = cri.context().begin_drain();
        while d.pop_completion().is_some() {
            d.context().op_finished();
        }
    }
}

/// `CriPool::instance_id`, `Cri::lock` and `CriGuard::send`, then the
/// lock's wait time while a second thread injects through the same
/// instance.
fn cri(r: &Replay, budget: Duration) -> Metrics {
    let (fabric, pool) = pool(&r.design);
    let spc = Arc::clone(pool.spc());
    let assignment = r.design.assignment;
    let assign = per_call(budget, || {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            black_box(pool.instance_id(assignment));
        }
        t0.elapsed()
    });
    let cri = Arc::clone(pool.instance(0));
    let lock = per_call(budget, || {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            drop(black_box(cri.lock(&spc)));
        }
        t0.elapsed()
    });
    let mut n = 0u64;
    let inject = per_call(budget, || {
        let packets: Vec<Packet> = (0..BATCH as u64).map(|i| packet(r, n + i, n + i)).collect();
        n += BATCH as u64;
        let guard = cri.lock(&spc);
        let t0 = Instant::now();
        for p in packets {
            guard.send(&fabric, p, 0, &spc);
        }
        let t = t0.elapsed();
        drop(guard);
        drain_all(&fabric, &pool);
        t
    });
    let wait = two_threads(budget, |_, stop| {
        let mut waits = Vec::new();
        let mut k = 0u64;
        while !stop.load(Ordering::Relaxed) {
            let p = packet(r, k, k);
            let t0 = Instant::now();
            let guard = cri.lock(&spc);
            waits.push(t0.elapsed().as_nanos() as f64);
            guard.send(&fabric, p, 0, &spc);
            k += 1;
            if k.is_multiple_of(BATCH as u64) {
                // Keep the rings short; still under the instance lock.
                for ctx in fabric.contexts(1) {
                    let mut d = ctx.begin_drain();
                    while d.pop_rx().is_some() {}
                }
                let mut d = guard.begin_drain();
                while d.pop_completion().is_some() {
                    d.context().op_finished();
                }
            }
        }
        waits
    });
    vec![
        ("cri.assign_ns", assign),
        ("cri.lock_ns", lock),
        ("cri.inject_ns", inject),
        ("cri.lock_wait_ns_2t", wait),
    ]
}

/// Run `f(thread, stop)` on two threads for `budget`; the median of every
/// sample both return.
fn two_threads(budget: Duration, f: impl Fn(usize, &AtomicBool) -> Vec<f64> + Sync) -> f64 {
    let stop = AtomicBool::new(false);
    let mut all = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|i| {
                let (f, stop) = (&f, &stop);
                s.spawn(move || f(i, stop))
            })
            .collect();
        std::thread::sleep(budget);
        stop.store(true, Ordering::Relaxed);
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("replay thread panicked"))
            .collect::<Vec<f64>>()
    });
    median(&mut all)
}

/// `Fabric::deliver`, `DrainGuard::pop_rx`, `DrainGuard::pop_completion`,
/// and the rx-ring handoff latency from a delivering thread to a draining
/// one.
fn fabric(r: &Replay, budget: Duration) -> Metrics {
    let fabric = Fabric::new(2, r.design.num_instances, FabricConfig::test_default());
    let dst = Arc::clone(fabric.route(1, 0));
    let deliver = per_call(budget, || {
        let packets: Vec<Packet> = (0..BATCH as u64).map(|i| packet(r, i, i)).collect();
        let t0 = Instant::now();
        for p in packets {
            fabric.deliver(p, 0);
        }
        let t = t0.elapsed();
        let mut d = dst.begin_drain();
        while d.pop_rx().is_some() {}
        t
    });
    let pop_rx = per_call(budget, || {
        for i in 0..BATCH as u64 {
            fabric.deliver(packet(r, i, i), 0);
        }
        let mut d = dst.begin_drain();
        let t0 = Instant::now();
        for _ in 0..BATCH {
            black_box(d.pop_rx());
        }
        t0.elapsed()
    });
    let cq = Arc::clone(fabric.context(0, 0));
    let pop_cq = per_call(budget, || {
        for token in 0..BATCH as u64 {
            cq.post_completion(Completion {
                token,
                kind: CompletionKind::SendDone,
            });
        }
        let mut d = cq.begin_drain();
        let t0 = Instant::now();
        for _ in 0..BATCH {
            black_box(d.pop_completion());
        }
        t0.elapsed()
    });
    // One packet in flight at a time; the sequence field carries the
    // delivery timestamp.
    let epoch = Instant::now();
    let consumed = AtomicU64::new(0);
    let handoff = two_threads(budget, |thread, stop| {
        let mut lat = Vec::new();
        let mut k = 0u64;
        if thread == 0 {
            while !stop.load(Ordering::Relaxed) {
                let mut p = packet(r, k, 0);
                p.envelope.seq = epoch.elapsed().as_nanos() as u64;
                fabric.deliver(p, 0);
                k += 1;
                while consumed.load(Ordering::Acquire) < k && !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            }
        } else {
            while !stop.load(Ordering::Relaxed) {
                let popped = dst.begin_drain().pop_rx();
                match popped {
                    Some(p) => {
                        lat.push((epoch.elapsed().as_nanos() as u64 - p.envelope.seq) as f64);
                        consumed.fetch_add(1, Ordering::Release);
                    }
                    // An idle poll, as a progress pass makes between
                    // visits; a tight re-lock would starve the producer.
                    None => std::hint::spin_loop(),
                }
            }
        }
        lat
    });
    vec![
        ("fabric.deliver_ns", deliver),
        ("fabric.pop_rx_ns", pop_rx),
        ("fabric.pop_cq_ns", pop_cq),
        ("fabric.handoff_ns_2t", handoff),
    ]
}

/// Counts every drained item as one completion and drops it.
struct Noop;

impl ProgressHandler for Noop {
    fn on_packet(&self, packet: Packet) -> usize {
        black_box(packet);
        1
    }

    fn on_completion(&self, completion: Completion) -> usize {
        black_box(completion);
        1
    }
}

/// `ProgressEngine::progress` over an instance holding one window of
/// packets (per item), and over idle instances (per pass).
fn progress(r: &Replay, budget: Duration) -> Result<Metrics, String> {
    let (fabric, pool) = pool(&r.design);
    let engine = ProgressEngine::new(Arc::clone(&pool), r.design.progress, 0);
    let assignment = r.design.assignment;
    // The instance this thread's progress call visits first.
    let home = match assignment {
        Assignment::Dedicated => pool.instance_id(assignment),
        Assignment::RoundRobin => 0,
    };
    let ctx = Arc::clone(fabric.context(0, home));
    let mut short = None;
    let mut n = 0u64;
    let item = per_call(budget, || {
        for i in 0..BATCH as u64 {
            ctx.post_rx(packet(r, n + i, n + i));
        }
        n += BATCH as u64;
        let t0 = Instant::now();
        let got = engine.progress(assignment, &Noop);
        let t = t0.elapsed();
        if got != BATCH {
            short = Some(got);
        }
        t
    });
    if let Some(got) = short {
        return Err(format!("progress pass drained {got} of {BATCH} items"));
    }
    let empty = per_call(budget, || {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            black_box(engine.progress(assignment, &Noop));
        }
        t0.elapsed()
    });
    Ok(vec![
        ("progress.item_ns", item),
        ("progress.empty_pass_ns", empty),
    ])
}

/// Every replay, in a seeded order, each within `budget`.
pub fn replay(r: &Replay, seed: u64, budget: Duration) -> Result<Metrics, String> {
    let mut order = [0usize, 1, 2, 3];
    Rng::new(seed, 0x1a7e).shuffle(&mut order);
    let mut all = Vec::new();
    for layer in order {
        all.extend(match layer {
            0 => matching(r, budget)?,
            1 => cri(r, budget),
            2 => fabric(r, budget),
            _ => progress(r, budget)?,
        });
    }
    Ok(all)
}
