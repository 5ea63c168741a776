//! Criterion wrapper for paper Fig. 6 (scaled down): RMA-MT put+flush on
//! the Haswell preset at two sizes and two thread counts per mode. Full
//! resolution: `cargo run --release -p fairmpi-bench --bin fig6`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fairmpi::{Assignment, ProgressMode};
use fairmpi_vsim::{Machine, MachinePreset, RmamtSim};

fn run(threads: usize, msg_size: usize, instances: usize, assignment: Assignment) -> f64 {
    RmamtSim {
        machine: Machine::preset(MachinePreset::TrinititeHaswell),
        threads,
        msg_size,
        ops_per_thread: 200,
        instances,
        assignment,
        progress: ProgressMode::Serial,
        seed: 2,
    }
    .run()
    .msg_rate_per_s
}

fn bench_fig6(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6");
    group.sample_size(10);
    for msg_size in [1usize, 16 * 1024] {
        for (mode, instances, assignment) in [
            ("single", 1usize, Assignment::Dedicated),
            ("dedicated", 32, Assignment::Dedicated),
            ("round_robin", 32, Assignment::RoundRobin),
        ] {
            for threads in [4usize, 32] {
                let rate = run(threads, msg_size, instances, assignment);
                println!(
                    "fig6 {mode} size={msg_size} threads={threads}: {rate:.0} msg/s (virtual)"
                );
                group.bench_with_input(
                    BenchmarkId::new(format!("{mode}_{msg_size}B"), threads),
                    &threads,
                    |b, &threads| {
                        b.iter(|| black_box(run(threads, msg_size, instances, assignment)))
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig6);
criterion_main!(benches);
