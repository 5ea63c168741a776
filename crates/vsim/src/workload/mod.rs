//! Workload actors for the paper's two benchmarks, and the protocol steps
//! both share: the Algorithm-1 instance pick, the Algorithm-2 sweep order
//! and the idle-poll backoff.

pub mod multirate;
pub mod rmamt;

use fairmpi_cri::Assignment;

/// CRI assignment strategy (paper Algorithm 1): the runtime's own type.
pub use fairmpi_cri::Assignment as SimAssignment;
/// Progress-engine design (paper Algorithm 2 vs the original serial one):
/// the runtime's own type.
pub use fairmpi_progress::ProgressMode as SimProgress;

/// Algorithm 1: the instance thread `id` uses for its next operation.
/// Dedicated is sticky (`id % instances`); round-robin draws a fresh one
/// from the shared circular counter `rr`.
pub(crate) fn pick_instance(
    assignment: Assignment,
    id: usize,
    instances: usize,
    rr: &mut u64,
) -> usize {
    match assignment {
        Assignment::Dedicated => id % instances,
        Assignment::RoundRobin => {
            *rr += 1;
            (*rr - 1) as usize % instances
        }
    }
}

/// Exponential idle-poll backoff, capped: idle pollers must not dominate
/// the event budget, and real progress polls also cool down under
/// `sched_yield`.
pub(crate) fn idle_backoff_ns(idle_streak: &mut u32) -> u64 {
    let ns = 150u64.saturating_mul(1 << (*idle_streak).min(7));
    *idle_streak += 1;
    ns.min(20_000)
}

/// The instances one progress pass visits, in order.
#[derive(Debug, Default)]
pub(crate) struct Sweep {
    first: usize,
    len: usize,
    instances: usize,
    pos: usize,
}

impl Sweep {
    /// Plan a pass over `instances`: only `own` when set (a private
    /// instance, or the only one a thread's completions can be on); every
    /// instance in index order when `exhaustive` (the serial gate holder,
    /// the big lock); otherwise Algorithm 2 — the instance `first()` picks,
    /// then round-robin over the rest.
    pub(crate) fn plan(
        &mut self,
        own: Option<usize>,
        exhaustive: bool,
        instances: usize,
        first: impl FnOnce() -> usize,
    ) {
        (self.first, self.len) = match own {
            Some(own) => (own, 1),
            None if exhaustive => (0, instances),
            None => (first(), instances),
        };
        self.instances = instances;
        self.pos = 0;
    }

    /// The instance being visited.
    pub(crate) fn current(&self) -> usize {
        (self.first + self.pos) % self.instances
    }

    /// Move to the next instance; false once the sweep is exhausted.
    pub(crate) fn advance(&mut self) -> bool {
        self.pos += 1;
        self.pos < self.len
    }
}
