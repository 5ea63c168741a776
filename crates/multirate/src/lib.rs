//! The Multirate benchmark (Patinyasakdikul et al., EuroMPI'19 — reference
//! \[6\] in the paper), pairwise pattern.
//!
//! Multirate–pairwise spawns pairs of communication entities mapped to
//! either processes or threads (paper Fig. 2) and measures the aggregate
//! message rate. The paper's two-sided experiments run it with 0-byte
//! messages and a window of 128.
//!
//! Two backends share one configuration:
//!
//! * [`run_native`] executes on real OS threads over the real `fairmpi`
//!   runtime — exercising the actual locks. Meaningful wall-clock scaling
//!   requires as many hardware cores as benchmark threads; on smaller
//!   hosts it remains a correctness workout.
//! * [`run_virtual`] executes under the deterministic virtual-time
//!   executor (`fairmpi-vsim`), which reproduces the paper's contention
//!   shapes on any host. The figure harnesses use this backend.

use std::time::Instant;

use fairmpi::{Communicator, DesignConfig, LockModel, Proc, Rank, SpcSnapshot, World, ANY_TAG};
use fairmpi_vsim::{Machine, MultirateResult, MultirateSim, SimDesign, SimMatchLayout};

/// How communication entities map onto ranks (paper Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Pair *i* is ranks (2i, 2i+1), each driven by one thread — the
    /// process-to-process baseline.
    Processes,
    /// Two ranks; pair *i* is sender thread *i* on rank 0 and receiver
    /// thread *i* on rank 1 — the `MPI_THREAD_MULTIPLE` mode under study.
    Threads,
    /// Hybrid (the middle panel of paper Fig. 2): sender threads share
    /// rank 0 while each receiver is its own single-threaded rank `1+i`.
    ThreadProcess,
}

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct MultirateConfig {
    /// Communicating pairs.
    pub pairs: usize,
    /// Entity mapping.
    pub mode: Mode,
    /// Outstanding operations per iteration (the paper uses 128).
    pub window: usize,
    /// Iterations (windows) per pair.
    pub iterations: usize,
    /// Payload size in bytes (0 in the paper's two-sided experiments:
    /// "they allow us to capture only the cost of the message envelope").
    pub msg_size: usize,
    /// Give each pair its own communicator (enables OB1's per-communicator
    /// concurrent matching — Fig. 3c).
    pub comm_per_pair: bool,
    /// Post receives with `MPI_ANY_TAG` (Fig. 4's queue-search bypass).
    pub any_tag: bool,
    /// Runtime design under test.
    pub design: DesignConfig,
    /// Fabric cost model for the native backend.
    pub fabric: fairmpi::FabricConfig,
}

impl Default for MultirateConfig {
    fn default() -> Self {
        Self {
            pairs: 2,
            mode: Mode::Threads,
            window: 128,
            iterations: 10,
            msg_size: 0,
            comm_per_pair: false,
            any_tag: false,
            design: DesignConfig::default(),
            fabric: fairmpi::FabricConfig::test_default(),
        }
    }
}

impl MultirateConfig {
    /// Total messages the run will transfer.
    pub fn total_messages(&self) -> u64 {
        (self.pairs * self.window * self.iterations) as u64
    }
}

/// Result of a native (wall-clock) run.
#[derive(Debug, Clone)]
pub struct MultirateReport {
    /// Aggregate message rate (messages per wall-clock second).
    pub msg_rate_per_s: f64,
    /// Wall-clock duration of the measured phase in nanoseconds.
    pub elapsed_ns: u64,
    /// Messages transferred.
    pub total_messages: u64,
    /// Merged counters across all ranks.
    pub spc: SpcSnapshot,
}

fn pair_tag(pair: usize) -> i32 {
    pair as i32
}

/// One sender entity: `iterations` windows of `window` isends.
fn run_sender(proc: &Proc, dst: Rank, comm: Communicator, cfg: &MultirateConfig, pair: usize) {
    let payload = vec![0u8; cfg.msg_size];
    for _ in 0..cfg.iterations {
        let reqs: Vec<_> = (0..cfg.window)
            .map(|_| {
                proc.isend(&payload, dst, pair_tag(pair), comm)
                    .expect("isend")
            })
            .collect();
        proc.waitall(&reqs).expect("sender waitall");
    }
}

/// One receiver entity: `iterations` windows of `window` irecvs.
fn run_receiver(proc: &Proc, src: Rank, comm: Communicator, cfg: &MultirateConfig, pair: usize) {
    let tag = if cfg.any_tag { ANY_TAG } else { pair_tag(pair) };
    for _ in 0..cfg.iterations {
        let reqs: Vec<_> = (0..cfg.window)
            .map(|_| {
                proc.irecv(cfg.msg_size, src as i32, tag, comm)
                    .expect("irecv")
            })
            .collect();
        proc.waitall(&reqs).expect("receiver waitall");
    }
}

/// Execute the benchmark on real OS threads over the real runtime.
pub fn run_native(cfg: &MultirateConfig) -> MultirateReport {
    assert!(cfg.pairs >= 1 && cfg.window >= 1 && cfg.iterations >= 1);
    let (world, endpoints) = build_world(cfg);

    let start = Instant::now();
    std::thread::scope(|scope| {
        for (pair, &(s_rank, r_rank, comm)) in endpoints.iter().enumerate() {
            let world = &world;
            scope.spawn(move || run_sender(&world.proc(s_rank), r_rank, comm, cfg, pair));
            scope.spawn(move || run_receiver(&world.proc(r_rank), s_rank, comm, cfg, pair));
        }
    });
    let elapsed_ns = start.elapsed().as_nanos() as u64;

    let total = cfg.total_messages();
    MultirateReport {
        msg_rate_per_s: total as f64 / (elapsed_ns as f64 / 1e9),
        elapsed_ns,
        total_messages: total,
        spc: world.spc_merged(),
    }
}

/// Build the world and the per-pair `(sender rank, receiver rank, comm)`
/// wiring for the configured mode.
fn build_world(cfg: &MultirateConfig) -> (World, Vec<(Rank, Rank, Communicator)>) {
    let ranks = match cfg.mode {
        Mode::Processes => 2 * cfg.pairs,
        Mode::Threads => 2,
        Mode::ThreadProcess => 1 + cfg.pairs,
    };
    let world = World::builder()
        .ranks(ranks)
        .fabric(cfg.fabric.clone())
        .design(cfg.design)
        .build();
    let endpoints = (0..cfg.pairs)
        .map(|pair| {
            let comm = if cfg.comm_per_pair {
                world.new_comm_with(cfg.design.allow_overtaking)
            } else {
                world.comm_world()
            };
            match cfg.mode {
                Mode::Processes => ((2 * pair) as Rank, (2 * pair + 1) as Rank, comm),
                Mode::Threads => (0, 1, comm),
                Mode::ThreadProcess => (0, (1 + pair) as Rank, comm),
            }
        })
        .collect();
    (world, endpoints)
}

/// Execute the benchmark under the virtual-time executor.
///
/// Process mode maps to the simulator's private-resources-per-pair model;
/// thread mode maps designs axis-by-axis ([`DesignConfig`] →
/// [`SimDesign`]).
pub fn run_virtual(cfg: &MultirateConfig, machine: &Machine, seed: u64) -> MultirateResult {
    let design = SimDesign {
        instances: cfg.design.num_instances,
        assignment: cfg.design.assignment,
        progress: cfg.design.progress,
        // A global matching queue and a single shared communicator
        // serialize matching identically in this workload.
        matching: if cfg.comm_per_pair {
            SimMatchLayout::CommPerPair
        } else {
            SimMatchLayout::SingleComm
        },
        allow_overtaking: cfg.design.allow_overtaking,
        any_tag: cfg.any_tag,
        big_lock: matches!(cfg.design.lock_model, LockModel::GlobalCriticalSection),
        // The virtual-time backend models the two pure bindings; the
        // hybrid maps to thread-mode contention on the send side (its
        // receive side is uncontended, like process mode's).
        process_mode: matches!(cfg.mode, Mode::Processes),
        // run_hooked zeroes this itself for process-mode runs.
        offload_workers: cfg.design.offload_workers,
        // The virtual-time wire models the plan's drop/dup axes; the
        // other axes (reorder, refusal, context death) are native-only.
        chaos_drop_pm: cfg.design.chaos.as_ref().map_or(0, |p| p.drop_pm),
        chaos_dup_pm: cfg.design.chaos.as_ref().map_or(0, |p| p.dup_pm),
        chaos_seed: cfg.design.chaos.as_ref().map_or(0, |p| p.seed),
    };
    MultirateSim {
        machine: machine.clone(),
        pairs: cfg.pairs,
        window: cfg.window,
        iterations: cfg.iterations,
        design,
        seed,
        cost: None,
    }
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairmpi::Counter;
    use fairmpi_vsim::MachinePreset;

    fn quick(mode: Mode, pairs: usize) -> MultirateConfig {
        MultirateConfig {
            pairs,
            mode,
            window: 8,
            iterations: 3,
            ..MultirateConfig::default()
        }
    }

    #[test]
    fn native_threads_mode_transfers_everything() {
        let cfg = quick(Mode::Threads, 2);
        let report = run_native(&cfg);
        assert_eq!(report.total_messages, 48);
        assert_eq!(report.spc[Counter::MessagesReceived], 48);
        assert!(report.msg_rate_per_s > 0.0);
    }

    #[test]
    fn native_thread_process_mode_transfers_everything() {
        let cfg = quick(Mode::ThreadProcess, 3);
        let report = run_native(&cfg);
        assert_eq!(report.spc[Counter::MessagesReceived], 72);
        // Receivers are distinct ranks; each got its pair's share.
    }

    #[test]
    fn native_process_mode_transfers_everything() {
        let cfg = quick(Mode::Processes, 3);
        let report = run_native(&cfg);
        assert_eq!(report.spc[Counter::MessagesReceived], 72);
    }

    #[test]
    fn native_comm_per_pair_and_overtaking() {
        let mut cfg = quick(Mode::Threads, 3);
        cfg.comm_per_pair = true;
        cfg.design = DesignConfig::builder().proposed(3).build().unwrap();
        cfg.design.allow_overtaking = true;
        cfg.any_tag = true;
        let report = run_native(&cfg);
        assert_eq!(report.spc[Counter::MessagesReceived], 72);
        assert_eq!(report.spc[Counter::OutOfSequenceMessages], 0);
    }

    #[test]
    fn native_nonzero_payload() {
        let mut cfg = quick(Mode::Threads, 2);
        cfg.msg_size = 512;
        let report = run_native(&cfg);
        assert_eq!(
            report.spc[Counter::BytesReceived],
            48 * 512,
            "payload bytes accounted"
        );
    }

    #[test]
    fn virtual_backend_matches_config_axes() {
        let mut cfg = quick(Mode::Threads, 4);
        cfg.design = DesignConfig::builder().proposed(4).build().unwrap();
        cfg.comm_per_pair = true;
        let machine = Machine::preset(MachinePreset::Alembert);
        let result = run_virtual(&cfg, &machine, 42);
        assert_eq!(result.total_messages, cfg.total_messages());
        assert_eq!(result.spc[Counter::MessagesReceived], result.total_messages);
    }

    #[test]
    fn virtual_process_mode() {
        let cfg = quick(Mode::Processes, 4);
        let machine = Machine::preset(MachinePreset::Alembert);
        let result = run_virtual(&cfg, &machine, 42);
        assert_eq!(result.spc[Counter::MessagesReceived], result.total_messages);
    }

    #[test]
    fn total_messages_formula() {
        let cfg = MultirateConfig {
            pairs: 20,
            window: 128,
            iterations: 1010,
            ..MultirateConfig::default()
        };
        // Table II's caption: total messages = 2,585,600 at 20 pairs.
        assert_eq!(cfg.total_messages(), 2_585_600);
    }
}
