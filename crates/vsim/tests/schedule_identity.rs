//! Pins the exact virtual-time schedules of small multirate and RMA-MT
//! runs: the makespan and every non-zero SPC counter, as literals.
//!
//! The workload actors are deterministic state machines, so any refactor
//! that keeps their `Action` sequences and world/RNG updates unchanged
//! leaves every number here untouched. A run that moves is either a bug or
//! a deliberate model change; the latter re-records these literals and
//! says so in CHANGES.md.

use fairmpi_cri::Assignment;
use fairmpi_progress::ProgressMode;
use fairmpi_spc::SpcSnapshot;
use fairmpi_vsim::workload::multirate::SimMatchLayout;
use fairmpi_vsim::{Machine, MachinePreset, MultirateSim, RmamtSim, SimDesign};

/// `(makespan_ns, "name=value ..." for every non-zero counter, in counter
/// order)`.
type Pin = (u64, &'static str);

/// `None` when the run reproduces `pin`, else a message carrying the
/// observed values in the same form.
fn mismatch(case: &str, makespan_ns: u64, spc: &SpcSnapshot, pin: Pin) -> Option<String> {
    let counters = spc
        .iter()
        .filter(|&(_, v)| v != 0)
        .map(|(c, v)| format!("{}={v}", c.name()))
        .collect::<Vec<_>>()
        .join(" ");
    (makespan_ns != pin.0 || counters != pin.1)
        .then(|| format!("{case}: schedule moved; observed ({makespan_ns}, \"{counters}\")"))
}

fn multirate(case: &str, pairs: usize, design: SimDesign, pin: Pin) {
    let r = MultirateSim {
        machine: Machine::preset(MachinePreset::Alembert),
        pairs,
        window: 16,
        iterations: 4,
        design,
        seed: 7,
        cost: None,
    }
    .run();
    if let Some(msg) = mismatch(case, r.makespan_ns, &r.spc, pin) {
        panic!("{msg}");
    }
}

fn design(
    instances: usize,
    assignment: Assignment,
    progress: ProgressMode,
    matching: SimMatchLayout,
) -> SimDesign {
    SimDesign {
        instances,
        assignment,
        progress,
        matching,
        ..SimDesign::baseline()
    }
}

fn cris_star(matching: SimMatchLayout) -> SimDesign {
    design(4, Assignment::Dedicated, ProgressMode::Concurrent, matching)
}

#[test]
fn baseline() {
    let d = SimDesign::baseline();
    let pin = (
        1080045,
        "messages_sent=384 messages_received=384 out_of_sequence_messages=297 \
            match_time_ns=187709 unexpected_messages=13 expected_messages=371 \
            max_posted_recv_queue_len=95 max_unexpected_queue_len=5 \
            max_out_of_sequence_buffered=23 match_queue_traversals=5070 progress_calls=761 \
            completions_drained=384 progress_useful_passes=74 progress_wasted_passes=526",
    );
    multirate("baseline", 6, d, pin);
}

#[test]
fn round_robin_serial() {
    let d = design(
        4,
        Assignment::RoundRobin,
        ProgressMode::Serial,
        SimMatchLayout::SingleComm,
    );
    let pin = (
        341407,
        "messages_sent=384 messages_received=384 out_of_sequence_messages=280 \
            match_time_ns=460642 unexpected_messages=104 expected_messages=280 \
            max_posted_recv_queue_len=96 max_unexpected_queue_len=64 \
            max_out_of_sequence_buffered=85 match_queue_traversals=2518 progress_calls=107 \
            completions_drained=384 progress_useful_passes=4",
    );
    multirate("round_robin_serial", 6, d, pin);
}

#[test]
fn round_robin_concurrent() {
    let d = design(
        4,
        Assignment::RoundRobin,
        ProgressMode::Concurrent,
        SimMatchLayout::SingleComm,
    );
    let pin = (
        328856,
        "messages_sent=384 messages_received=384 out_of_sequence_messages=280 \
            match_time_ns=1587140 unexpected_messages=280 expected_messages=104 \
            max_posted_recv_queue_len=96 max_unexpected_queue_len=177 \
            max_out_of_sequence_buffered=80 match_queue_traversals=7633 \
            instance_try_lock_failures=49 progress_calls=22 completions_drained=384 \
            progress_useful_passes=5 progress_wasted_passes=17",
    );
    multirate("round_robin_concurrent", 6, d, pin);
}

#[test]
fn dedicated_serial_gate() {
    let d = design(
        4,
        Assignment::Dedicated,
        ProgressMode::Serial,
        SimMatchLayout::SingleComm,
    );
    let pin = (
        300393,
        "messages_sent=384 messages_received=384 out_of_sequence_messages=268 \
            match_time_ns=280997 unexpected_messages=59 expected_messages=325 \
            max_posted_recv_queue_len=96 max_unexpected_queue_len=15 \
            max_out_of_sequence_buffered=86 match_queue_traversals=4907 progress_calls=108 \
            completions_drained=384 progress_useful_passes=5",
    );
    multirate("dedicated_serial_gate", 6, d, pin);
}

#[test]
fn cris_star_single_comm() {
    let d = cris_star(SimMatchLayout::SingleComm);
    let pin = (
        329122,
        "messages_sent=384 messages_received=384 out_of_sequence_messages=305 \
            match_time_ns=1628165 unexpected_messages=268 expected_messages=116 \
            max_posted_recv_queue_len=96 max_unexpected_queue_len=170 \
            max_out_of_sequence_buffered=129 match_queue_traversals=9948 \
            instance_try_lock_failures=47 progress_calls=19 completions_drained=384 \
            progress_useful_passes=5 progress_wasted_passes=14",
    );
    multirate("cris_star_single_comm", 6, d, pin);
}

#[test]
fn cris_star_comm_per_pair() {
    let d = cris_star(SimMatchLayout::CommPerPair);
    let pin = (
        77037,
        "messages_sent=384 messages_received=384 match_time_ns=100264 \
            unexpected_messages=201 expected_messages=183 max_posted_recv_queue_len=16 \
            max_unexpected_queue_len=17 match_queue_traversals=384 \
            instance_try_lock_failures=95 progress_calls=41 completions_drained=384 \
            progress_useful_passes=15 progress_wasted_passes=26",
    );
    multirate("cris_star_comm_per_pair", 6, d, pin);
}

#[test]
fn overtaking_any_tag() {
    let mut d = design(
        4,
        Assignment::Dedicated,
        ProgressMode::Serial,
        SimMatchLayout::SingleComm,
    );
    d.allow_overtaking = true;
    d.any_tag = true;
    let pin = (
        212369,
        "messages_sent=384 messages_received=384 match_time_ns=119295 \
            expected_messages=384 max_posted_recv_queue_len=96 match_queue_traversals=384 \
            overtaken_messages=384 progress_calls=80 completions_drained=384 \
            progress_useful_passes=5",
    );
    multirate("overtaking_any_tag", 6, d, pin);
}

#[test]
fn big_lock() {
    let d = SimDesign {
        big_lock: true,
        ..SimDesign::baseline()
    };
    let pin = (
        2675216,
        "messages_sent=384 messages_received=384 out_of_sequence_messages=299 \
            match_time_ns=14116550 unexpected_messages=182 expected_messages=202 \
            max_posted_recv_queue_len=71 max_unexpected_queue_len=40 \
            max_out_of_sequence_buffered=23 match_queue_traversals=4925 progress_calls=34 \
            completions_drained=384 progress_useful_passes=22 progress_wasted_passes=12",
    );
    multirate("big_lock", 6, d, pin);
}

#[test]
fn process_mode() {
    let d = SimDesign::process_mode();
    let pin = (
        54358,
        "messages_sent=384 messages_received=384 match_time_ns=96768 \
            unexpected_messages=10 expected_messages=374 max_posted_recv_queue_len=16 \
            max_unexpected_queue_len=1 match_queue_traversals=384 progress_calls=101 \
            completions_drained=384 progress_useful_passes=88 progress_wasted_passes=13",
    );
    multirate("process_mode", 6, d, pin);
}

#[test]
fn offload() {
    let d = SimDesign::offload(2);
    let pin = (
        196382,
        "messages_sent=512 messages_received=512 out_of_sequence_messages=216 \
            match_time_ns=191941 unexpected_messages=202 expected_messages=310 \
            max_posted_recv_queue_len=16 max_unexpected_queue_len=11 \
            max_out_of_sequence_buffered=4 match_queue_traversals=512 \
            instance_try_lock_failures=10 progress_calls=28 completions_drained=512 \
            progress_useful_passes=14 progress_wasted_passes=14 offload_commands=1024 \
            offload_batches=42",
    );
    multirate("offload", 8, d, pin);
}

#[test]
fn offload_chaos() {
    let d = SimDesign::offload(2).chaos(100, 25, 7);
    let pin = (
        325160,
        "messages_sent=512 messages_received=512 out_of_sequence_messages=192 \
            match_time_ns=179281 unexpected_messages=43 expected_messages=469 \
            max_posted_recv_queue_len=16 max_unexpected_queue_len=3 \
            max_out_of_sequence_buffered=4 match_queue_traversals=512 \
            instance_try_lock_failures=79 progress_calls=309 completions_drained=528 \
            progress_useful_passes=96 progress_wasted_passes=213 offload_commands=1024 \
            offload_batches=46 chaos_drops=65 chaos_dups=16 retransmits=65 \
            retry_backoff_ns=370000 duplicates_suppressed=16",
    );
    multirate("offload_chaos", 8, d, pin);
}

#[test]
fn cris_star_chaos() {
    let d = cris_star(SimMatchLayout::CommPerPair).chaos(100, 25, 7);
    let pin = (
        130100,
        "messages_sent=384 messages_received=384 out_of_sequence_messages=9 \
            match_time_ns=110456 unexpected_messages=67 expected_messages=317 \
            max_posted_recv_queue_len=16 max_unexpected_queue_len=10 \
            max_out_of_sequence_buffered=4 match_queue_traversals=384 \
            instance_try_lock_failures=303 progress_calls=421 completions_drained=398 \
            progress_useful_passes=200 progress_wasted_passes=221 chaos_drops=44 \
            chaos_dups=14 retransmits=44 retry_backoff_ns=275000 duplicates_suppressed=14",
    );
    multirate("cris_star_chaos", 6, d, pin);
}

#[test]
fn rmamt_grid() {
    let pins: [(usize, Assignment, ProgressMode, Pin); 8] = [
        (
            1,
            Assignment::RoundRobin,
            ProgressMode::Serial,
            (263040, "rma_puts=384 rma_flushes=6 completions_drained=384"),
        ),
        (
            1,
            Assignment::RoundRobin,
            ProgressMode::Concurrent,
            (
                266230,
                "rma_puts=384 rma_flushes=6 instance_try_lock_failures=36 completions_drained=384",
            ),
        ),
        (
            1,
            Assignment::Dedicated,
            ProgressMode::Serial,
            (
                266230,
                "rma_puts=384 rma_flushes=6 instance_try_lock_failures=36 completions_drained=384",
            ),
        ),
        (
            1,
            Assignment::Dedicated,
            ProgressMode::Concurrent,
            (
                266230,
                "rma_puts=384 rma_flushes=6 instance_try_lock_failures=36 completions_drained=384",
            ),
        ),
        (
            4,
            Assignment::RoundRobin,
            ProgressMode::Serial,
            (55235, "rma_puts=384 rma_flushes=6 completions_drained=384"),
        ),
        (
            4,
            Assignment::RoundRobin,
            ProgressMode::Concurrent,
            (
                40500,
                "rma_puts=384 rma_flushes=6 instance_try_lock_failures=51 completions_drained=384",
            ),
        ),
        (
            4,
            Assignment::Dedicated,
            ProgressMode::Serial,
            (
                52115,
                "rma_puts=384 rma_flushes=6 instance_try_lock_failures=10 completions_drained=384",
            ),
        ),
        (
            4,
            Assignment::Dedicated,
            ProgressMode::Concurrent,
            (
                52115,
                "rma_puts=384 rma_flushes=6 instance_try_lock_failures=10 completions_drained=384",
            ),
        ),
    ];
    let mut moved = Vec::new();
    for (instances, assignment, progress, pin) in pins {
        let r = RmamtSim {
            machine: Machine::preset(MachinePreset::TrinititeHaswell),
            threads: 6,
            msg_size: 128,
            ops_per_thread: 64,
            instances,
            assignment,
            progress,
            seed: 11,
        }
        .run();
        let case = format!("rmamt {instances} x {assignment:?} x {progress:?}");
        moved.extend(mismatch(&case, r.makespan_ns, &r.spc, pin));
    }
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}
