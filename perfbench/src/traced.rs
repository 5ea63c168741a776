//! The traced run: per-layer metrics of one workload.
//!
//! * `core.*`: spans around every public `fairmpi` call of the workload's
//!   own loop (and of a single-thread companion loop for the calls the
//!   workload does not make), with the window as parent span.
//! * Layer replays ([`crate::layers`]) of the workload's envelope stream.
//! * Counter ratios from the SPC snapshot of the workload's untraced phase
//!   (`World::spc_merged`), or of the simulated grid for `vsim_grid`.
//! * Wall ns per simulated message of each `vsim_grid` point.

use std::path::PathBuf;
use std::time::Duration;

use fairmpi::{Counter, DesignConfig, SpcSnapshot};
use fairmpi_fabric::FabricConfig;
use fairmpi_vsim::{CostModel, Machine, MachinePreset};

use crate::grid;
use crate::layers::{self, Replay};
use crate::p2p::{self, Stream, Traced};
use crate::rma;
use crate::spans;
use crate::stats::{median, ratio};
use crate::{Metrics, Outcome};

/// Per-layer metrics and their units.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("core.isend_ns", "ns"),
    ("core.irecv_ns", "ns"),
    ("core.wait_ns", "ns"),
    ("core.put_ns", "ns"),
    ("core.flush_ns", "ns"),
    ("core.span_coverage", "ratio"),
    ("core.unattributed_ns_per_msg", "ns/msg"),
    ("core.tracing_overhead", "ratio"),
    ("matching.post_recv_ns", "ns"),
    ("matching.deliver_ns", "ns"),
    ("matching.seq_next_ns", "ns"),
    ("matching.match_ns_per_msg", "ns/msg"),
    ("matching.oos_per_msg", "1/msg"),
    ("matching.unexpected_per_msg", "1/msg"),
    ("matching.traversals_per_msg", "1/msg"),
    ("cri.assign_ns", "ns"),
    ("cri.lock_ns", "ns"),
    ("cri.lock_wait_ns_2t", "ns"),
    ("cri.inject_ns", "ns"),
    ("cri.trylock_fail_ratio", "ratio"),
    ("cri.lock_acq_per_msg", "1/msg"),
    ("fabric.deliver_ns", "ns"),
    ("fabric.pop_rx_ns", "ns"),
    ("fabric.pop_cq_ns", "ns"),
    ("fabric.handoff_ns_2t", "ns"),
    ("progress.item_ns", "ns"),
    ("progress.empty_pass_ns", "ns"),
    ("progress.useful_ratio", "ratio"),
    ("progress.calls_per_msg", "1/msg"),
    ("progress.fallback_per_msg", "1/msg"),
    ("vsim.ns_per_msg.process", "ns/msg"),
    ("vsim.ns_per_msg.big_lock", "ns/msg"),
    ("vsim.ns_per_msg.cris", "ns/msg"),
    ("vsim.ns_per_msg.cris_star", "ns/msg"),
    ("vsim.ns_per_msg.offload2", "ns/msg"),
];

/// ROADMAP item 1's ceiling on time the spans leave unexplained.
const MAX_RESIDUAL: f64 = 0.10;
/// Traced windows per worker (bounds the in-memory span log).
const TRACED_WINDOWS: usize = 300;

/// Where span logs are written.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Median span duration of each named call across the workers' logs.
fn call_ns(t: &Traced, name: &str) -> f64 {
    median(
        &mut t
            .logs
            .iter()
            .flat_map(|l| l.durations(name))
            .collect::<Vec<_>>(),
    )
}

/// Coverage, unattributed time per message and tracing overhead of the
/// workload's own loop, as medians over its traced windows. Time between
/// call spans that the recorder itself spends is explained; what remains
/// is checked against [`MAX_RESIDUAL`] of the window.
fn accounting(t: &Traced) -> Metrics {
    let gap = spans::recorder_gap_ns();
    let per_window = t.per_window / t.logs.len().max(1) as f64;
    let (mut coverage, mut residual, mut per_msg) = (Vec::new(), Vec::new(), Vec::new());
    for (window, covered, calls) in t.logs.iter().flat_map(|l| l.windows()) {
        let unexplained = (window - covered) as f64 - calls as f64 * gap;
        coverage.push(covered as f64 / window as f64);
        residual.push(unexplained / window as f64);
        per_msg.push(unexplained / per_window);
    }
    let mut traced: Vec<f64> = t.logs.iter().flat_map(|l| l.durations("window")).collect();
    let overhead = median(&mut traced) / median(&mut t.plain.clone());
    let residual = median(&mut residual);
    println!(
        "[check] span coverage {:.4}, recorder {gap:.1} ns per call: unexplained residual \
         {:.2}% <= {:.0}% ... {}",
        median(&mut coverage),
        residual * 100.0,
        MAX_RESIDUAL * 100.0,
        if residual <= MAX_RESIDUAL {
            "PASS"
        } else {
            "FAIL"
        }
    );
    vec![
        ("core.span_coverage", median(&mut coverage)),
        ("core.unattributed_ns_per_msg", median(&mut per_msg)),
        ("core.tracing_overhead", overhead),
    ]
}

/// Counter ratios over `msgs` messages (or puts).
fn spc_metrics(spc: &SpcSnapshot, msgs: u64) -> Metrics {
    let per = |c| ratio(spc.get(c), msgs);
    let fail = spc.get(Counter::InstanceTryLockFailures);
    let acq = spc.get(Counter::InstanceLockAcquisitions);
    let useful = spc.get(Counter::ProgressUsefulPasses);
    let wasted = spc.get(Counter::ProgressWastedPasses);
    vec![
        ("matching.match_ns_per_msg", per(Counter::MatchTimeNanos)),
        ("matching.oos_per_msg", per(Counter::OutOfSequenceMessages)),
        (
            "matching.unexpected_per_msg",
            per(Counter::UnexpectedMessages),
        ),
        (
            "matching.traversals_per_msg",
            per(Counter::MatchQueueTraversals),
        ),
        ("cri.trylock_fail_ratio", ratio(fail, fail + acq)),
        (
            "cri.lock_acq_per_msg",
            per(Counter::InstanceLockAcquisitions),
        ),
        ("progress.useful_ratio", ratio(useful, useful + wasted)),
        ("progress.calls_per_msg", per(Counter::ProgressCalls)),
        (
            "progress.fallback_per_msg",
            per(Counter::ProgressFallbackSweeps),
        ),
    ]
}

/// Wall ns per simulated message of each grid point over `reps` seeds;
/// with every seed, also the committed-mean check and the grid's counters.
fn vsim(reps: usize, out: &mut Outcome) -> (Metrics, SpcSnapshot, u64) {
    let machine = Machine::preset(MachinePreset::Alembert);
    let points = grid::points();
    let runs = grid::run_grid(&machine, &points, reps);
    if reps == grid::REPS {
        match grid::committed_csv() {
            Ok(csv) => grid::check_means(&csv, &points, &runs, out),
            Err(e) => out.fail(e),
        }
    }
    let mut spc = SpcSnapshot::zero();
    let mut msgs = 0;
    for r in &runs {
        spc = spc.merged_with(&r.spc);
        msgs += r.messages;
    }
    let metrics = points
        .iter()
        .enumerate()
        .map(|(p, point)| {
            let mut per_msg: Vec<f64> = runs
                .iter()
                .filter(|r| r.point == p)
                .map(|r| r.wall_ns / r.messages as f64)
                .collect();
            (point.metric, median(&mut per_msg))
        })
        .collect();
    (metrics, spc, msgs)
}

/// Print each replayed layer next to the vsim cost constant charged for
/// it: the budget the hot-path work aims at.
fn budget_view(m: &Metrics) {
    let get = |name: &str| m.iter().find(|(n, _)| *n == name).map_or(f64::NAN, |p| p.1);
    let c = CostModel::for_fabric(&FabricConfig::test_default());
    let below_isend = get("matching.seq_next_ns")
        + get("cri.assign_ns")
        + get("cri.lock_ns")
        + get("cri.inject_ns");
    let rows = [
        (
            "core.isend_ns",
            get("core.isend_ns"),
            "send_software_ns",
            c.send_software_ns,
        ),
        (
            "core.irecv_ns",
            get("core.irecv_ns"),
            "recv_software_ns",
            c.recv_software_ns,
        ),
        (
            "core.isend_ns minus seq/assign/lock/inject (request setup)",
            get("core.isend_ns") - below_isend,
            "request_pool_ns",
            c.request_pool_ns,
        ),
        (
            "matching.seq_next_ns",
            get("matching.seq_next_ns"),
            "seq_check_ns",
            c.seq_check_ns,
        ),
        (
            "matching.deliver_ns",
            get("matching.deliver_ns"),
            "match_base_ns",
            c.match_base_ns,
        ),
        (
            "core.wait_ns",
            get("core.wait_ns"),
            "complete_ns",
            c.complete_ns,
        ),
        (
            "fabric.pop_cq_ns",
            get("fabric.pop_cq_ns"),
            "cqe_drain_ns",
            c.cqe_drain_ns,
        ),
        (
            "progress.empty_pass_ns",
            get("progress.empty_pass_ns"),
            "poll_empty_ns",
            c.poll_empty_ns,
        ),
    ];
    println!("budget view: measured layer vs the CostModel constant charged for it");
    for (layer, ns, constant, budget) in rows {
        println!(
            "  {layer:<58} {ns:>9.1} ns   {constant:<17} {budget:>5} ns   x{:.2}",
            ns / budget as f64
        );
    }
}

/// Traced run of `workload`; returns every [`PER_LAYER`] metric.
pub fn run(workload: &str, seed: u64, seconds: f64, out: &mut Outcome) -> Metrics {
    let (design, payload) = match workload {
        "p2p_2t" => (p2p::proposed2(), 0),
        "rma_2t" => (p2p::proposed2(), 8),
        _ => (DesignConfig::default(), 8),
    };
    // The workload's own loop, whose spans the accounting describes, and a
    // short single-thread companion loop on the same design for the calls
    // it does not make. `vsim_grid` makes no runtime calls: both of its
    // loops are companions on the default design.
    let p2p_one = p2p::Shape {
        design,
        threads: 1,
        payload,
    };
    let rma_shape = |threads| rma::Shape { design, threads };
    let (own, companion) = (seconds * 0.3, seconds * 0.05);
    let (p2p_t, rma_t, own_is_rma) = match workload {
        "p2p_1t" | "p2p_2t" => {
            let shape = if workload == "p2p_1t" {
                p2p_one
            } else {
                p2p::Shape::two_threads()
            };
            let p = p2p::traced(shape, seed, own, TRACED_WINDOWS, out);
            let r = rma::traced(rma_shape(1), seed, companion, TRACED_WINDOWS, out);
            (p, r, false)
        }
        "rma_2t" => {
            let r = rma::traced(rma_shape(2), seed, own, TRACED_WINDOWS, out);
            let p = p2p::traced(p2p_one, seed, companion, TRACED_WINDOWS, out);
            (p, r, true)
        }
        _ => {
            let p = p2p::traced(p2p_one, seed, companion, TRACED_WINDOWS, out);
            let r = rma::traced(rma_shape(1), seed, companion, TRACED_WINDOWS, out);
            (p, r, false)
        }
    };
    let mut m: Metrics = vec![
        ("core.isend_ns", call_ns(&p2p_t, "isend")),
        ("core.irecv_ns", call_ns(&p2p_t, "irecv")),
        ("core.wait_ns", call_ns(&p2p_t, "wait")),
        ("core.put_ns", call_ns(&rma_t, "put")),
        ("core.flush_ns", call_ns(&rma_t, "flush")),
    ];
    m.extend(accounting(if own_is_rma { &rma_t } else { &p2p_t }));
    if workload == "p2p_2t" {
        println!("{}", p2p::binding_report(&[p2p::binding(&p2p_t.spc)]));
    }

    let replay = Replay {
        design,
        stream: Stream::new(seed, 0, payload),
        comm: 1,
    };
    match layers::replay(&replay, seed, Duration::from_secs_f64(seconds * 0.02)) {
        Ok(t) => m.extend(t),
        Err(e) => out.fail(e),
    }

    let (vsim_m, grid_spc, grid_msgs) = vsim(
        if workload == "vsim_grid" {
            grid::REPS
        } else {
            1
        },
        out,
    );
    m.extend(vsim_m);
    m.extend(match workload {
        "vsim_grid" => spc_metrics(&grid_spc, grid_msgs),
        "rma_2t" => spc_metrics(&rma_t.spc, rma_t.spc.get(Counter::RmaPuts)),
        _ => spc_metrics(&p2p_t.spc, p2p_t.spc.get(Counter::MessagesReceived)),
    });

    budget_view(&m);
    let dir = out_dir();
    for (kind, t) in [("p2p", &p2p_t), ("rma", &rma_t)] {
        let path = dir.join(format!("spans-{workload}-{kind}-seed{seed}.csv"));
        match spans::write_csv(&path, &t.logs) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => out.fail(format!("write {}: {e}", path.display())),
        }
    }
    m
}
