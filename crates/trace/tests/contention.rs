//! End-to-end: trace a virtual-time Multirate run and check that the
//! consumers see what the paper says they should — with every thread pair
//! funneling through one shared CRI, the instance lock dominates the
//! contention report.
//!
//! Kept as one `#[test]` because the recorder is process-global.

#![cfg(feature = "enabled")]

use fairmpi_trace as trace;
use fairmpi_vsim::{Machine, MachinePreset, MultirateSim, SimDesign};

#[test]
fn one_cri_run_ranks_the_instance_lock_top() {
    trace::start_virtual();
    let sim = MultirateSim {
        machine: Machine::preset(MachinePreset::Alembert),
        pairs: 20,
        window: 16,
        iterations: 2,
        // One shared CRI, serial progress, one communicator.
        design: SimDesign::baseline(),
        seed: 7,
        cost: None,
    };
    let (result, series) = sim.run_observed(Some(50_000));
    let t = trace::stop();

    assert!(result.total_messages > 0);

    // The contention report exists and is led by the shared instance lock.
    let report = t.contention_report();
    assert!(!report.locks.is_empty(), "no lock events recorded");
    let top = &report.locks[0];
    assert!(
        top.name.starts_with("instance["),
        "expected the shared CRI lock to dominate, got {:?}",
        report.locks.iter().map(|l| &l.name).collect::<Vec<_>>()
    );
    assert!(top.contended > 0, "20 pairs on one instance must contend");
    assert!(top.total_wait_ns > 0);

    // Per-track virtual timestamps never run backwards: each actor is
    // resumed by one simulator at increasing virtual times.
    for track in &t.tracks {
        for pair in track.events.windows(2) {
            assert!(
                pair[0].ts_ns <= pair[1].ts_ns,
                "track {} regressed from {} to {}",
                track.name,
                pair[0].ts_ns,
                pair[1].ts_ns
            );
        }
    }

    // Actor tracks carry the workload's names.
    assert!(t.tracks.iter().any(|tr| tr.name.starts_with("sender[")));
    assert!(t.tracks.iter().any(|tr| tr.name.starts_with("recv[")));

    // The Chrome export of a real run parses back as JSON.
    let json = trace::json::parse(&t.to_chrome_json()).expect("chrome export must be valid JSON");
    let events = json
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // The SPC series sampled the run and saw traffic.
    let series = series.expect("series requested");
    assert!(
        series.len() > 1,
        "a multi-interval run yields several samples"
    );
    let csv = series.to_csv();
    assert!(csv.starts_with("time_s,messages_sent"));
    assert!(csv.lines().count() == series.len() + 1);
}
