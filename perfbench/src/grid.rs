//! The simulator workload `vsim_grid`: the 20-pair column of the committed
//! `results/fig_offload.csv`, timed on the wall clock.
//!
//! The seeds are the three the figure harness draws per point (`0xFA1B +
//! r * 7919`), not the workload seed: the simulator is deterministic, so
//! only those seeds reproduce the committed means the correctness check
//! compares against, and the same work is timed on every run.

use std::time::Instant;

use fairmpi_spc::SpcSnapshot;
use fairmpi_vsim::workload::multirate::SimMatchLayout;
use fairmpi_vsim::{Machine, MachinePreset, MultirateSim, SimAssignment, SimDesign, SimProgress};

use crate::checks;
use crate::stats::median;
use crate::{E2e, Outcome};

/// Pairs of the committed column.
pub const PAIRS: usize = 20;
/// Window and windows per pair of the committed figure.
const WINDOW: usize = 128;
const ITERATIONS: usize = 40;
/// Repetitions per point of the committed figure.
pub const REPS: usize = 3;
/// Set-up repetitions per run; the set-up time is their median.
const SETUPS: usize = 7;

/// The committed figure, relative to this crate.
const CSV: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../results/fig_offload.csv");

/// One grid point: per-layer metric name, committed series label, design.
pub struct Point {
    pub metric: &'static str,
    pub label: &'static str,
    pub design: SimDesign,
}

/// The five grid points, built as the figure harness builds them.
pub fn points() -> Vec<Point> {
    let dedicated = |progress, matching| SimDesign {
        instances: PAIRS,
        assignment: SimAssignment::Dedicated,
        progress,
        matching,
        ..SimDesign::baseline()
    };
    vec![
        Point {
            metric: "vsim.ns_per_msg.process",
            label: "Process",
            design: SimDesign::process_mode(),
        },
        Point {
            metric: "vsim.ns_per_msg.big_lock",
            label: "Big-lock Thread",
            design: SimDesign {
                big_lock: true,
                ..SimDesign::baseline()
            },
        },
        Point {
            metric: "vsim.ns_per_msg.cris",
            label: "Thread + CRIs",
            design: dedicated(SimProgress::Serial, SimMatchLayout::SingleComm),
        },
        Point {
            metric: "vsim.ns_per_msg.cris_star",
            label: "Thread + CRIs*",
            design: dedicated(SimProgress::Concurrent, SimMatchLayout::CommPerPair),
        },
        Point {
            metric: "vsim.ns_per_msg.offload2",
            label: "Offload x2",
            design: SimDesign::offload(2),
        },
    ]
}

/// Seed of repetition `r`, as the figure harness draws it.
pub fn rep_seed(r: usize) -> u64 {
    0xFA1B + r as u64 * 7919
}

fn sim(
    machine: &Machine,
    design: SimDesign,
    pairs: usize,
    iterations: usize,
    seed: u64,
) -> MultirateSim {
    MultirateSim {
        machine: machine.clone(),
        pairs,
        window: WINDOW,
        iterations,
        design,
        seed,
        cost: None,
    }
}

/// One timed simulation.
pub struct SimRun {
    pub point: usize,
    pub wall_ns: f64,
    pub messages: u64,
    pub rate: f64,
    pub spc: SpcSnapshot,
}

/// Run `reps` repetitions of every point (`reps` ≤ [`REPS`]).
pub fn run_grid(machine: &Machine, points: &[Point], reps: usize) -> Vec<SimRun> {
    let mut runs = Vec::new();
    for (p, point) in points.iter().enumerate() {
        for r in 0..reps {
            let s = sim(machine, point.design, PAIRS, ITERATIONS, rep_seed(r));
            let t0 = Instant::now();
            let res = s.run();
            runs.push(SimRun {
                point: p,
                wall_ns: t0.elapsed().as_nanos() as f64,
                messages: res.total_messages,
                rate: res.msg_rate_per_s,
                spc: res.spc,
            });
        }
    }
    runs
}

/// Compare each point's mean over the full repetitions with its committed
/// row.
pub fn check_means(csv: &str, points: &[Point], runs: &[SimRun], out: &mut Outcome) {
    for (p, point) in points.iter().enumerate() {
        let rates: Vec<f64> = runs
            .iter()
            .filter(|r| r.point == p)
            .map(|r| r.rate)
            .collect();
        out.attempted += 1;
        // The harness's mean: a plain sum over the repetitions, divided.
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        out.check(checks::vsim_mean(csv, point.label, PAIRS, mean));
    }
}

/// Read the committed figure.
pub fn committed_csv() -> Result<String, String> {
    std::fs::read_to_string(CSV).map_err(|e| format!("read {CSV}: {e}"))
}

/// Set-up: read the committed figure, build the points and warm the
/// simulator on a short run (2 windows per pair) of each.
fn setup(machine: &Machine) -> Result<(String, Vec<Point>), String> {
    let csv = committed_csv()?;
    let points = points();
    for p in &points {
        sim(machine, p.design, PAIRS, 2, rep_seed(0)).run();
    }
    Ok((csv, points))
}

/// End-to-end run of `vsim_grid`: whole grids until `seconds` would be
/// exceeded, at least three; each grid is a session.
pub fn run(seconds: f64, out: &mut Outcome) -> E2e {
    let machine = Machine::preset(MachinePreset::Alembert);
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let s = setup(&machine);
        setup_s.push(t0.elapsed().as_secs_f64());
        ready = Some(s);
    }
    let (csv, points) = match ready.expect("at least one set-up") {
        Ok(r) => r,
        Err(e) => {
            out.fail(e);
            return E2e::from_sessions(1.0, Vec::new(), setup_s);
        }
    };
    let start = Instant::now();
    let mut grid_s = Vec::new();
    let mut samples = Vec::new();
    let mut messages;
    loop {
        let t0 = Instant::now();
        let runs = run_grid(&machine, &points, REPS);
        grid_s.push(t0.elapsed().as_secs_f64());
        check_means(&csv, &points, &runs, out);
        messages = runs.iter().map(|r| r.messages).sum::<u64>();
        // A "window" here is one simulation; a point's latency is its wall
        // time per simulated message over its seeds.
        let per_msg = (0..points.len())
            .map(|p| {
                let of_point = runs.iter().filter(|r| r.point == p);
                let wall: f64 = of_point.clone().map(|r| r.wall_ns).sum();
                wall / of_point.map(|r| r.messages).sum::<u64>() as f64
            })
            .collect();
        samples.push((runs.iter().map(|r| r.wall_ns).collect(), per_msg));
        let next = grid_s[grid_s.len() - 1];
        if grid_s.len() >= 3 && start.elapsed().as_secs_f64() + next > seconds {
            break;
        }
    }
    let grid = median(&mut grid_s.clone());
    println!(
        "sim_grid_s {grid:.4} s (median of {} grids, {messages} simulated messages each)",
        grid_s.len()
    );
    let mut e2e = E2e::from_sessions(1.0, samples, setup_s);
    e2e.msg_rate = messages as f64 / grid;
    e2e
}
