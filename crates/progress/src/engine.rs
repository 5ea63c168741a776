//! Engine implementation.

use fairmpi_sync::Mutex;
use std::cell::Cell;
use std::sync::Arc;

use fairmpi_cri::{Assignment, Cri, CriPool};
use fairmpi_fabric::{busy_wait_ns, Completion, Packet};
use fairmpi_spc::{Counter, Histogram};
use fairmpi_trace as trace;

/// Which progress design is active (the Fig. 3a vs Fig. 3b axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProgressMode {
    /// Original Open MPI: one global progress lock; one thread extracts.
    Serial,
    /// Paper Algorithm 2: all threads extract, per-instance try-locks.
    Concurrent,
}

/// Consumer of drained items. Implemented by the runtime above (packet ->
/// matching engine, completion -> request completion).
///
/// Each callback returns the number of *user-visible* completions it
/// produced (matched receives, finished sends); Algorithm 2 uses that count
/// to decide whether the fallback sweep is needed.
pub trait ProgressHandler {
    /// An incoming packet was extracted from a context's rx ring.
    fn on_packet(&self, packet: Packet) -> usize;
    /// A local completion event was extracted from a completion queue.
    fn on_completion(&self, completion: Completion) -> usize;
}

/// An item drained from an instance, pending handling.
enum Drained {
    Packet(Packet),
    Completion(Completion),
}

thread_local! {
    /// Reused drain buffer: `drain_one` takes it, fills it under the
    /// instance lock and puts it back empty, so a visit that finds work
    /// does not allocate. A handler that re-enters progress finds it taken
    /// and works on a fresh one.
    static DRAINED: Cell<Vec<Drained>> = const { Cell::new(Vec::new()) };
}

/// The progress engine for one rank.
#[derive(Debug)]
pub struct ProgressEngine {
    mode: ProgressMode,
    pool: Arc<CriPool>,
    /// Global lock serializing progress in [`ProgressMode::Serial`].
    serial_gate: Mutex<()>,
    /// Per-item extraction cost charged while the instance lock is held.
    extraction_overhead_ns: u64,
    /// Maximum items drained from one instance per visit, bounding the time
    /// an instance lock is held.
    drain_budget: usize,
}

impl ProgressEngine {
    /// Default per-visit drain budget.
    pub const DEFAULT_DRAIN_BUDGET: usize = 128;

    /// Build an engine over a rank's instance pool.
    pub fn new(pool: Arc<CriPool>, mode: ProgressMode, extraction_overhead_ns: u64) -> Self {
        Self {
            mode,
            pool,
            serial_gate: Mutex::named((), || "progress.serial_gate".to_string()),
            extraction_overhead_ns,
            drain_budget: Self::DEFAULT_DRAIN_BUDGET,
        }
    }

    /// Override the per-visit drain budget.
    pub fn with_drain_budget(mut self, budget: usize) -> Self {
        self.drain_budget = budget.max(1);
        self
    }

    /// Active mode.
    pub fn mode(&self) -> ProgressMode {
        self.mode
    }

    /// The instance pool this engine progresses.
    pub fn pool(&self) -> &Arc<CriPool> {
        &self.pool
    }

    /// Make one progress pass; returns the number of user-visible
    /// completions produced (the `count` of paper Algorithm 2).
    pub fn progress<H: ProgressHandler>(&self, assignment: Assignment, handler: &H) -> usize {
        let _span = trace::span("progress.pass");
        let spc = self.pool.spc();
        spc.inc(Counter::ProgressCalls);
        let count = match self.mode {
            ProgressMode::Serial => self.progress_serial(handler),
            ProgressMode::Concurrent => self.progress_concurrent(assignment, handler),
        };
        // Useful vs wasted share of the progress budget: a pass that drains
        // nothing is pure polling overhead (the cost the paper's dedicated
        // design avoids by keeping threads on their own instance).
        spc.inc(if count > 0 {
            Counter::ProgressUsefulPasses
        } else {
            Counter::ProgressWastedPasses
        });
        count
    }

    /// Serial design: only the thread holding the global gate extracts;
    /// everyone else returns immediately (as `opal_progress` does when the
    /// progress lock is taken).
    fn progress_serial<H: ProgressHandler>(&self, handler: &H) -> usize {
        let Some(_gate) = self.serial_gate.try_lock() else {
            return 0;
        };
        let mut count = 0;
        for cri in self.pool.instances() {
            count += self.drain_one(cri, handler);
        }
        count
    }

    /// Concurrent design — paper Algorithm 2.
    fn progress_concurrent<H: ProgressHandler>(
        &self,
        assignment: Assignment,
        handler: &H,
    ) -> usize {
        let k = self.pool.instance_id(assignment);
        let mut count = self.drain_one(self.pool.instance(k), handler);
        if count == 0 {
            // Fallback sweep: guarantee eventual progress of every instance
            // (dedicated threads may be gone; completions may be stranded).
            // One round-robin draw picks the start; the pass then walks
            // start, start+1, ... so it visits each instance exactly once
            // even while other threads advance the shared counter.
            trace::instant("progress.fallback_sweep");
            self.pool.spc().inc(Counter::ProgressFallbackSweeps);
            let n = self.pool.len();
            let start = self.pool.round_robin_id();
            for step in 0..n {
                let k = (start + step) % n;
                count += self.drain_one(self.pool.instance(k), handler);
                if count > 0 {
                    break;
                }
            }
        }
        count
    }

    /// Try-lock one instance, extract up to the drain budget (charging
    /// extraction overhead under the lock), release, then handle the items.
    fn drain_one<H: ProgressHandler>(&self, cri: &Arc<Cri>, handler: &H) -> usize {
        if !cri.is_alive() {
            // Quarantined by the fault plan: its CQ reports nothing ever
            // again, so polling it would only burn the progress budget
            // (the Algorithm 2 extension for failed CQs).
            return 0;
        }
        let spc = self.pool.spc();
        let mut items = DRAINED.take();
        {
            let Some(guard) = cri.try_lock(spc) else {
                DRAINED.set(items);
                // Another thread is working this instance; its progress is
                // in good hands (paper §III-C).
                return 0;
            };
            let mut drain = guard.begin_drain();
            while items.len() < self.drain_budget {
                if let Some(c) = drain.pop_completion() {
                    busy_wait_ns(self.extraction_overhead_ns);
                    drain.context().op_finished();
                    items.push(Drained::Completion(c));
                    continue;
                }
                if let Some(p) = drain.pop_rx() {
                    busy_wait_ns(self.extraction_overhead_ns);
                    items.push(Drained::Packet(p));
                    continue;
                }
                break;
            }
        } // instance lock released before matching, per Fig. 1's pipeline.

        spc.record_hist(Histogram::DrainBatchSize, items.len() as u64);
        let mut count = 0;
        if !items.is_empty() {
            trace::counter("progress.drained", items.len() as u64);
            spc.add(Counter::CompletionsDrained, items.len() as u64);
            for item in items.drain(..) {
                count += match item {
                    Drained::Packet(p) => handler.on_packet(p),
                    Drained::Completion(c) => handler.on_completion(c),
                };
            }
        }
        DRAINED.set(items);
        count
    }
}
