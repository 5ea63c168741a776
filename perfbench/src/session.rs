//! Closed-loop sessions over a fresh world: set-up, warm-up, measurement.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use fairmpi::{Communicator, SpcSnapshot, WindowId, World};

/// Sessions per native run; each end-to-end figure is a median over them.
pub const SESSIONS: usize = 20;

/// A world plus the communicators and RMA window a workload uses.
pub struct Net {
    pub world: World,
    pub comms: Vec<Communicator>,
    pub window: Option<WindowId>,
}

/// What one session measured.
pub struct Session<R> {
    /// World build through the end of every worker's warm-up, s.
    pub setup_s: f64,
    /// Each worker's result, in worker order.
    pub results: Vec<Result<R, String>>,
    /// Counters of the measured phase alone (reset after warm-up).
    pub spc: SpcSnapshot,
}

/// Run `sessions` sessions of `threads` workers, one after another.
///
/// Each session builds a fresh world (`build`), and every worker builds its
/// state and warms up on it (`warm`); the set-up time runs from the world
/// build until the last worker finished warming up. The counters are then
/// reset and the workers `measure`, keeping the instance bindings they made
/// while warming up; `measure` gets a barrier shared by the workers for
/// phase changes. Each session is a fresh allocation layout and a fresh set
/// of bindings, so medians over sessions keep one world's luck from
/// deciding a run's figures.
pub fn run<W, R>(
    sessions: usize,
    threads: usize,
    build: impl Fn() -> Net,
    warm: impl Fn(&Net, usize) -> Result<W, String> + Sync,
    measure: impl Fn(&Net, usize, W, &Barrier) -> Result<R, String> + Sync,
) -> Vec<Session<R>>
where
    R: Send,
{
    (0..sessions)
        .map(|_| {
            let t0 = Instant::now();
            let net = build();
            let ready = Barrier::new(threads + 1);
            let go = Barrier::new(threads + 1);
            let phase = Barrier::new(threads);
            let (net_ref, ready, go, phase) = (&net, &ready, &go, &phase);
            let (warm, measure) = (&warm, &measure);
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..threads)
                    .map(|i| {
                        scope.spawn(move || {
                            let state = warm(net_ref, i);
                            ready.wait();
                            go.wait();
                            state.and_then(|st| measure(net_ref, i, st, phase))
                        })
                    })
                    .collect();
                ready.wait();
                let setup_s = t0.elapsed().as_secs_f64();
                net.world.spc_reset();
                go.wait();
                let results = workers
                    .into_iter()
                    .map(|w| w.join().expect("worker panicked"))
                    .collect();
                Session {
                    setup_s,
                    results,
                    spc: net.world.spc_merged(),
                }
            })
        })
        .collect()
}

/// A deadline `share` of `seconds` from now.
pub fn deadline(seconds: f64, share: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds * share)
}
