//! Criterion wrapper for paper Fig. 5 (scaled down): one point per design
//! preset at 8 pairs, printing the virtual rates so the ordering of the
//! legend (process ≫ CRIs* > CRIs > big-lock baselines) is visible from
//! `cargo bench`. Full resolution: `--bin fig5`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fairmpi::{Assignment, ProgressMode};
use fairmpi_vsim::workload::multirate::SimMatchLayout;
use fairmpi_vsim::{Machine, MachinePreset, MultirateSim, SimDesign};

fn run(design: SimDesign) -> f64 {
    MultirateSim {
        machine: Machine::preset(MachinePreset::Alembert),
        pairs: 8,
        window: 32,
        iterations: 4,
        design,
        seed: 1,
        cost: None,
    }
    .run()
    .msg_rate_per_s
}

fn bench_fig5(c: &mut Criterion) {
    let base = SimDesign::baseline();
    let presets: Vec<(&str, SimDesign)> = vec![
        ("ompi_process", SimDesign::process_mode()),
        ("ompi_thread", base),
        (
            "ompi_thread_cris",
            SimDesign {
                instances: 20,
                assignment: Assignment::Dedicated,
                ..base
            },
        ),
        (
            "ompi_thread_cris_star",
            SimDesign {
                instances: 20,
                assignment: Assignment::Dedicated,
                progress: ProgressMode::Concurrent,
                matching: SimMatchLayout::CommPerPair,
                ..base
            },
        ),
        (
            "big_lock_thread",
            SimDesign {
                big_lock: true,
                ..base
            },
        ),
    ];
    let mut group = c.benchmark_group("fig5");
    group.sample_size(10);
    for (name, design) in presets {
        println!("fig5 {name}: {:.0} msg/s (virtual, 8 pairs)", run(design));
        group.bench_function(name, |b| b.iter(|| black_box(run(design))));
    }
    group.finish();
}

criterion_group!(benches, bench_fig5);
criterion_main!(benches);
