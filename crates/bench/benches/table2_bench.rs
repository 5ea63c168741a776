//! Criterion wrapper for paper Table II (scaled down): runs the 20-pair
//! dedicated configuration for each progress/matching group and prints the
//! out-of-sequence percentage and match time alongside the timing. The
//! paper-scale table comes from `cargo run --release -p fairmpi-bench
//! --bin table2`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fairmpi::{Assignment, ProgressMode};
use fairmpi_bench::figures::presets;
use fairmpi_spc::Counter;
use fairmpi_vsim::workload::multirate::SimMatchLayout;
use fairmpi_vsim::{Machine, MachinePreset, MultirateResult, MultirateSim};

fn run(progress: ProgressMode, matching: SimMatchLayout, instances: usize) -> MultirateResult {
    MultirateSim {
        machine: Machine::preset(MachinePreset::Alembert),
        pairs: 20,
        window: 32,
        iterations: 4,
        design: presets::cell(instances, Assignment::Dedicated, progress, matching, false),
        seed: 0xBEEF,
        cost: None,
    }
    .run()
}

fn bench_table2(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2");
    group.sample_size(10);
    for (name, progress, matching) in [
        ("serial", ProgressMode::Serial, SimMatchLayout::SingleComm),
        (
            "concurrent",
            ProgressMode::Concurrent,
            SimMatchLayout::SingleComm,
        ),
        (
            "concurrent_matching",
            ProgressMode::Concurrent,
            SimMatchLayout::CommPerPair,
        ),
    ] {
        for instances in [1usize, 20] {
            let r = run(progress, matching, instances);
            println!(
                "table2 {name}/{instances}-inst: OOS {} ({:.1}%), match {:.2} ms (virtual)",
                r.spc[Counter::OutOfSequenceMessages],
                r.spc.out_of_sequence_fraction() * 100.0,
                r.spc.match_time_ms()
            );
            group.bench_function(format!("{name}_{instances}inst"), |b| {
                b.iter(|| black_box(run(progress, matching, instances).makespan_ns))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_table2);
criterion_main!(benches);
