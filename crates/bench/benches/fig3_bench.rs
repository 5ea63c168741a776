//! Criterion wrapper for paper Fig. 3 (scaled down): the virtual-time
//! Multirate run for each panel at 4 and 16 thread pairs. The measured
//! time is the *simulation* cost; the interesting output is the virtual
//! message rate, printed once per configuration. The full-resolution
//! figure comes from `cargo run --release -p fairmpi-bench --bin fig3`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fairmpi::{Assignment, ProgressMode};
use fairmpi_bench::figures::presets;
use fairmpi_vsim::workload::multirate::SimMatchLayout;
use fairmpi_vsim::{Machine, MachinePreset, MultirateSim};

fn run(pairs: usize, progress: ProgressMode, matching: SimMatchLayout, instances: usize) -> f64 {
    MultirateSim {
        machine: Machine::preset(MachinePreset::Alembert),
        pairs,
        window: 32,
        iterations: 4,
        design: presets::cell(instances, Assignment::Dedicated, progress, matching, false),
        seed: 1,
        cost: None,
    }
    .run()
    .msg_rate_per_s
}

fn bench_fig3(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3");
    group.sample_size(10);
    for (panel, progress, matching) in [
        ('a', ProgressMode::Serial, SimMatchLayout::SingleComm),
        ('b', ProgressMode::Concurrent, SimMatchLayout::SingleComm),
        ('c', ProgressMode::Concurrent, SimMatchLayout::CommPerPair),
    ] {
        for pairs in [4usize, 16] {
            let rate = run(pairs, progress, matching, 20);
            println!("fig3{panel} pairs={pairs} 20-inst dedicated: {rate:.0} msg/s (virtual)");
            group.bench_with_input(
                BenchmarkId::new(format!("panel_{panel}"), pairs),
                &pairs,
                |b, &pairs| b.iter(|| black_box(run(pairs, progress, matching, 20))),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig3);
criterion_main!(benches);
