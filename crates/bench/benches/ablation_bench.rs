//! Ablation benches for the design choices DESIGN.md calls out:
//! instance-count sweep beyond the paper's 20, the lock bounce-penalty
//! sensitivity, the window-size sweep, and the eager/rendezvous crossover
//! on the native runtime.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fairmpi::{Assignment, DesignConfig, ProgressMode, World};
use fairmpi_vsim::{Machine, MachinePreset, MultirateSim, SimDesign};

fn multirate(pairs: usize, instances: usize, window: usize, machine: Machine) -> f64 {
    MultirateSim {
        machine,
        pairs,
        window,
        iterations: 4,
        design: SimDesign {
            instances,
            assignment: Assignment::Dedicated,
            progress: ProgressMode::Serial,
            ..SimDesign::baseline()
        },
        seed: 1,
        cost: None,
    }
    .run()
    .msg_rate_per_s
}

/// Instance-count sweep at fixed 16 pairs: where does adding CRIs stop
/// paying? (The paper stops at 20; this probes past it.)
fn bench_instance_sweep(c: &mut Criterion) {
    let machine = Machine::preset(MachinePreset::Alembert);
    let mut group = c.benchmark_group("ablation/instances");
    group.sample_size(10);
    for instances in [1usize, 4, 16, 32, 64] {
        let rate = multirate(16, instances, 32, machine.clone());
        println!("ablation instances={instances}: {rate:.0} msg/s (virtual)");
        group.bench_with_input(
            BenchmarkId::from_parameter(instances),
            &instances,
            |b, &i| {
                let m = machine.clone();
                b.iter(|| black_box(multirate(16, i, 32, m.clone())))
            },
        );
    }
    group.finish();
}

/// Window-size sweep: how much outstanding traffic the receiver needs to
/// keep the pipeline busy.
fn bench_window_sweep(c: &mut Criterion) {
    let machine = Machine::preset(MachinePreset::Alembert);
    let mut group = c.benchmark_group("ablation/window");
    group.sample_size(10);
    for window in [8usize, 32, 128] {
        let rate = multirate(8, 20, window, machine.clone());
        println!("ablation window={window}: {rate:.0} msg/s (virtual)");
        group.bench_with_input(BenchmarkId::from_parameter(window), &window, |b, &w| {
            let m = machine.clone();
            b.iter(|| black_box(multirate(8, 20, w, m.clone())))
        });
    }
    group.finish();
}

/// Lock bounce-penalty sensitivity: the contention model's key constant.
fn bench_bounce_sensitivity(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/bounce");
    group.sample_size(10);
    for bounce in [0u64, 70, 300] {
        let mut machine = Machine::preset(MachinePreset::Alembert);
        machine.sched.lock_bounce_ns = bounce;
        let rate = multirate(16, 1, 32, machine.clone());
        println!("ablation bounce={bounce}ns (1 inst, 16 pairs): {rate:.0} msg/s (virtual)");
        group.bench_with_input(BenchmarkId::from_parameter(bounce), &bounce, |b, _| {
            let m = machine.clone();
            b.iter(|| black_box(multirate(16, 1, 32, m.clone())))
        });
    }
    group.finish();
}

/// Eager/rendezvous crossover on the real (native) runtime: round-trip a
/// payload just below and above the threshold.
fn bench_protocol_crossover(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/protocol");
    group.sample_size(10);
    for size in [1024usize, 4096, 8192] {
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            let world = World::builder()
                .ranks(2)
                .design(DesignConfig::default())
                .build();
            let comm = world.comm_world();
            let p0 = world.proc(0);
            let p1 = world.proc(1);
            let payload = vec![7u8; size];
            b.iter(|| {
                let sreq = p0.isend(&payload, 1, 0, comm).unwrap();
                let rreq = p1.irecv(size, 0, 0, comm).unwrap();
                loop {
                    p0.progress();
                    if let Some(m) = p1.test(&rreq).unwrap() {
                        black_box(m.data.len());
                        break;
                    }
                }
                p0.wait(&sreq).unwrap();
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_instance_sweep,
    bench_window_sweep,
    bench_bounce_sensitivity,
    bench_protocol_crossover
);
criterion_main!(benches);
