//! Integration tests for the virtual-time experiment pipeline: the shape
//! invariants the figures rely on, at reduced scale so `cargo test` stays
//! fast.

use fairmpi::{Assignment, ProgressMode};
use fairmpi_spc::Counter;
use fairmpi_vsim::workload::multirate::SimMatchLayout;
use fairmpi_vsim::{Machine, MachinePreset, MultirateSim, RmamtSim, SimDesign};

fn multirate(pairs: usize, design: SimDesign) -> fairmpi_vsim::MultirateResult {
    MultirateSim {
        machine: Machine::preset(MachinePreset::Alembert),
        pairs,
        window: 32,
        iterations: 6,
        design,
        seed: 0xFEED,
        cost: None,
    }
    .run()
}

#[test]
fn fig3a_shape_more_instances_help_serial_progress() {
    let mut one = SimDesign::baseline();
    one.assignment = Assignment::Dedicated;
    let mut twenty = one;
    twenty.instances = 20;
    let r1 = multirate(16, one);
    let r20 = multirate(16, twenty);
    assert!(
        r20.msg_rate_per_s > 1.4 * r1.msg_rate_per_s,
        "20 CRIs {:.0}/s must clearly beat 1 CRI {:.0}/s",
        r20.msg_rate_per_s,
        r1.msg_rate_per_s
    );
}

#[test]
fn fig3b_shape_concurrent_progress_does_not_help_alone() {
    let mut serial = SimDesign::baseline();
    serial.instances = 20;
    serial.assignment = Assignment::Dedicated;
    let mut conc = serial;
    conc.progress = ProgressMode::Concurrent;
    let rs = multirate(16, serial);
    let rc = multirate(16, conc);
    assert!(
        rc.msg_rate_per_s <= 1.15 * rs.msg_rate_per_s,
        "concurrent progress {:.0}/s must not beat serial {:.0}/s while \
         matching stays serial",
        rc.msg_rate_per_s,
        rs.msg_rate_per_s
    );
    // And it costs more match time (Table II).
    assert!(rc.spc.match_time_ms() > rs.spc.match_time_ms());
}

#[test]
fn fig3c_shape_concurrent_matching_scales() {
    let mut star = SimDesign::baseline();
    star.instances = 20;
    star.assignment = Assignment::Dedicated;
    star.progress = ProgressMode::Concurrent;
    star.matching = SimMatchLayout::CommPerPair;
    let r1 = multirate(1, star);
    let r16 = multirate(16, star);
    assert!(
        r16.msg_rate_per_s > 2.2 * r1.msg_rate_per_s,
        "per-pair matching must scale: 1 pair {:.0}/s, 16 pairs {:.0}/s",
        r1.msg_rate_per_s,
        r16.msg_rate_per_s
    );
    // Out-of-sequence all but vanishes (Table II right columns).
    assert!(r16.spc.out_of_sequence_fraction() < 0.02);
}

#[test]
fn fig4_shape_overtaking_lifts_the_ordered_serial_rate() {
    let mut ordered = SimDesign::baseline();
    ordered.instances = 20;
    ordered.assignment = Assignment::Dedicated;
    let mut overtaking = ordered;
    overtaking.allow_overtaking = true;
    overtaking.any_tag = true;
    let ro = multirate(16, ordered);
    let rv = multirate(16, overtaking);
    assert!(
        rv.msg_rate_per_s >= 0.9 * ro.msg_rate_per_s,
        "minimal matching cost {:.0}/s must not fall below ordered {:.0}/s",
        rv.msg_rate_per_s,
        ro.msg_rate_per_s
    );
    assert_eq!(rv.spc[Counter::OutOfSequenceMessages], 0);
}

#[test]
fn fig5_shape_process_mode_dwarfs_big_lock_threads() {
    let process = multirate(16, SimDesign::process_mode());
    let mut big = SimDesign::baseline();
    big.big_lock = true;
    let big = multirate(16, big);
    assert!(
        process.msg_rate_per_s > 5.0 * big.msg_rate_per_s,
        "process {:.0}/s vs big-lock {:.0}/s",
        process.msg_rate_per_s,
        big.msg_rate_per_s
    );
}

#[test]
fn table2_shape_oos_fraction_is_high_when_sharing_a_comm() {
    let mut d = SimDesign::baseline();
    d.instances = 10;
    d.assignment = Assignment::Dedicated;
    let r = multirate(16, d);
    assert!(
        r.spc.out_of_sequence_fraction() > 0.5,
        "16 threads on one communicator must mostly overtake each other \
         (got {:.1}%)",
        r.spc.out_of_sequence_fraction() * 100.0
    );
}

#[test]
fn fig6_shape_holds_at_reduced_scale() {
    let run = |threads: usize, instances: usize, assignment: Assignment| {
        RmamtSim {
            machine: Machine::preset(MachinePreset::TrinititeHaswell),
            threads,
            msg_size: 128,
            ops_per_thread: 150,
            instances,
            assignment,
            progress: ProgressMode::Serial,
            seed: 3,
        }
        .run()
    };
    let ded1 = run(1, 32, Assignment::Dedicated);
    let ded16 = run(16, 32, Assignment::Dedicated);
    let rr16 = run(16, 32, Assignment::RoundRobin);
    let single16 = run(16, 1, Assignment::Dedicated);
    assert!(
        ded16.msg_rate_per_s > 6.0 * ded1.msg_rate_per_s,
        "dedicated scales"
    );
    assert!(
        ded16.msg_rate_per_s > rr16.msg_rate_per_s,
        "dedicated beats RR"
    );
    assert!(
        single16.msg_rate_per_s < 0.35 * ded16.msg_rate_per_s,
        "single instance collapses: {:.0} vs {:.0}",
        single16.msg_rate_per_s,
        ded16.msg_rate_per_s
    );
}

#[test]
fn fig7_shape_knl_is_slower_per_thread_but_still_scales() {
    let run = |machine: MachinePreset, threads: usize| {
        let m = Machine::preset(machine);
        let inst = m.default_rma_instances;
        RmamtSim {
            machine: m,
            threads,
            msg_size: 128,
            ops_per_thread: 150,
            instances: inst,
            assignment: Assignment::Dedicated,
            progress: ProgressMode::Serial,
            seed: 3,
        }
        .run()
    };
    let knl1 = run(MachinePreset::TrinititeKnl, 1);
    let hsw1 = run(MachinePreset::TrinititeHaswell, 1);
    assert!(
        knl1.msg_rate_per_s < 0.6 * hsw1.msg_rate_per_s,
        "KNL single-thread {:.0}/s must trail Haswell {:.0}/s",
        knl1.msg_rate_per_s,
        hsw1.msg_rate_per_s
    );
    let knl64 = run(MachinePreset::TrinititeKnl, 64);
    assert!(
        knl64.msg_rate_per_s > 10.0 * knl1.msg_rate_per_s,
        "64 KNL threads with 72 dedicated instances must scale"
    );
}

#[test]
fn virtual_runs_are_reproducible_across_invocations() {
    let d = SimDesign::baseline();
    let a = multirate(8, d);
    let b = multirate(8, d);
    assert_eq!(a.makespan_ns, b.makespan_ns);
    assert_eq!(
        a.spc[Counter::OutOfSequenceMessages],
        b.spc[Counter::OutOfSequenceMessages]
    );
    assert_eq!(
        a.spc[Counter::MatchTimeNanos],
        b.spc[Counter::MatchTimeNanos]
    );
}

#[test]
fn native_and_virtual_backends_agree_on_semantics() {
    // One benchmark config per design point through both backends: each
    // must send and receive every message exactly once, and an
    // overtaking communicator must never count a message out of sequence.
    use fairmpi::{DesignConfig, DesignConfigBuilder, LockModel};
    use fairmpi_multirate::{run_native, run_virtual, Mode, MultirateConfig};
    use Mode::{Processes, Threads};
    // (mode, communicator per pair, overtaking + MPI_ANY_TAG, design)
    let cfg = |mode, comm_per_pair, overtaking, design: DesignConfigBuilder| MultirateConfig {
        pairs: 3,
        mode,
        window: 16,
        iterations: 3,
        comm_per_pair,
        any_tag: overtaking,
        design: design.allow_overtaking(overtaking).build().unwrap(),
        ..MultirateConfig::default()
    };
    let default = DesignConfig::builder;
    let proposed = || default().proposed(3);
    let big_lock = || default().lock_model(LockModel::GlobalCriticalSection);
    let offload = || default().offload(2);
    let cases = [
        ("default", cfg(Threads, false, false, default())),
        ("proposed(3)", cfg(Threads, false, false, proposed())),
        ("comm per pair", cfg(Threads, true, false, proposed())),
        ("big lock", cfg(Threads, false, false, big_lock())),
        ("offload(2)", cfg(Threads, true, false, offload())),
        ("processes", cfg(Processes, false, false, default())),
        ("overtaking", cfg(Threads, false, true, proposed())),
    ];
    for (label, cfg) in cases {
        let native = run_native(&cfg);
        let virt = run_virtual(&cfg, &Machine::preset(MachinePreset::Alembert), 1);
        for (backend, total, spc) in [
            ("native", native.total_messages, &native.spc),
            ("virtual", virt.total_messages, &virt.spc),
        ] {
            assert_eq!(total, cfg.total_messages(), "{label}: {backend} total");
            assert_eq!(spc[Counter::MessagesSent], total, "{label}: {backend} sent");
            assert_eq!(
                spc[Counter::MessagesReceived],
                total,
                "{label}: {backend} received"
            );
            if cfg.any_tag {
                assert_eq!(
                    spc[Counter::OutOfSequenceMessages],
                    0,
                    "{label}: {backend} OOS"
                );
            }
        }
    }
}
