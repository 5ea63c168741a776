//! Criterion wrapper for paper Fig. 4 (scaled down): the overtaking +
//! ANY_TAG variant of the Multirate sweep. Full resolution:
//! `cargo run --release -p fairmpi-bench --bin fig4`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fairmpi::{Assignment, ProgressMode};
use fairmpi_bench::figures::presets;
use fairmpi_vsim::workload::multirate::SimMatchLayout;
use fairmpi_vsim::{Machine, MachinePreset, MultirateSim};

fn run(pairs: usize, progress: ProgressMode, matching: SimMatchLayout) -> f64 {
    MultirateSim {
        machine: Machine::preset(MachinePreset::Alembert),
        pairs,
        window: 32,
        iterations: 4,
        design: presets::cell(20, Assignment::Dedicated, progress, matching, true),
        seed: 1,
        cost: None,
    }
    .run()
    .msg_rate_per_s
}

fn bench_fig4(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4");
    group.sample_size(10);
    for (panel, progress, matching) in [
        ('a', ProgressMode::Serial, SimMatchLayout::SingleComm),
        ('b', ProgressMode::Concurrent, SimMatchLayout::SingleComm),
        ('c', ProgressMode::Concurrent, SimMatchLayout::CommPerPair),
    ] {
        for pairs in [4usize, 16] {
            let rate = run(pairs, progress, matching);
            println!("fig4{panel} pairs={pairs} overtaking: {rate:.0} msg/s (virtual)");
            group.bench_with_input(
                BenchmarkId::new(format!("panel_{panel}"), pairs),
                &pairs,
                |b, &pairs| b.iter(|| black_box(run(pairs, progress, matching))),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);
