//! Criterion wrapper for paper Fig. 7 (scaled down): RMA-MT put+flush on
//! the KNL preset (slower cores, 72 instances, up to 64 threads). Full
//! resolution: `cargo run --release -p fairmpi-bench --bin fig7`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fairmpi::{Assignment, ProgressMode};
use fairmpi_vsim::{Machine, MachinePreset, RmamtSim};

fn run(threads: usize, instances: usize, assignment: Assignment) -> f64 {
    RmamtSim {
        machine: Machine::preset(MachinePreset::TrinititeKnl),
        threads,
        msg_size: 128,
        ops_per_thread: 200,
        instances,
        assignment,
        progress: ProgressMode::Serial,
        seed: 2,
    }
    .run()
    .msg_rate_per_s
}

fn bench_fig7(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7");
    group.sample_size(10);
    for (mode, instances, assignment) in [
        ("single", 1usize, Assignment::Dedicated),
        ("dedicated", 72, Assignment::Dedicated),
        ("round_robin", 72, Assignment::RoundRobin),
    ] {
        for threads in [8usize, 64] {
            let rate = run(threads, instances, assignment);
            println!("fig7 {mode} threads={threads}: {rate:.0} msg/s (virtual)");
            group.bench_with_input(BenchmarkId::new(mode, threads), &threads, |b, &threads| {
                b.iter(|| black_box(run(threads, instances, assignment)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig7);
criterion_main!(benches);
