//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <p2p_1t|p2p_2t|rma_2t|vsim_grid> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload end to end and reports the end-to-end
//! metrics; `--trace 1` runs the traced mode and reports the per-layer
//! metrics. Human-readable lines go first; the last line of standard output
//! is one JSON object `{"correct", "attempted", "failed", "metrics"}`. The
//! exit code is 0 only when every correctness check passed. See README.md.

mod checks;
mod grid;
mod layers;
mod p2p;
mod rma;
mod session;
mod spans;
mod stats;
mod traced;

use std::process::ExitCode;

use stats::{median, quantile};

/// The workloads, in the order BENCHMARK.json lists them.
const WORKLOADS: [&str; 4] = ["p2p_1t", "p2p_2t", "rma_2t", "vsim_grid"];

/// End-to-end metrics and units; every workload reports all of them.
const END_TO_END: [(&str, &str); 6] = [
    ("msg_rate", "msg/s"),
    ("window_p90_us", "us"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Named metric values.
pub type Metrics = Vec<(&'static str, f64)>;

/// Counts of a run and the failures it saw.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    /// Record one failed operation or check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        println!("[check] FAIL: {why}");
    }

    /// Record a check's verdict.
    pub fn check(&mut self, verdict: Result<(), String>) {
        if let Err(why) = verdict {
            self.fail(why);
        }
    }
}

/// The end-to-end figures of one run.
pub struct E2e {
    pub msg_rate: f64,
    pub window_p90_us: f64,
    pub latency_p50_us: f64,
    pub latency_p90_us: f64,
    pub setup_s: f64,
    /// Sessions, and window and single-operation samples over all of them.
    pub samples: (usize, usize, usize),
}

impl E2e {
    /// From each session's window times and single-operation latencies
    /// (ns), and every session's set-up time (s). Each figure is the median
    /// over sessions of that session's figure; the rate is `per_window`
    /// operations over the session's median window.
    pub fn from_sessions(
        per_window: f64,
        sessions: Vec<(Vec<f64>, Vec<f64>)>,
        mut setup_s: Vec<f64>,
    ) -> Self {
        let mut figures: [Vec<f64>; 4] = Default::default();
        let (count, mut windows, mut singles) = (sessions.len(), 0, 0);
        for (mut w, mut l) in sessions {
            windows += w.len();
            singles += l.len();
            if w.is_empty() || l.is_empty() {
                continue;
            }
            figures[0].push(per_window / (quantile(&mut w, 0.5) * 1e-9));
            figures[1].push(quantile(&mut w, 0.9) / 1e3);
            figures[2].push(quantile(&mut l, 0.5) / 1e3);
            figures[3].push(quantile(&mut l, 0.9) / 1e3);
        }
        let [rate, w90, l50, l90] = figures.map(|mut f| median(&mut f));
        Self {
            msg_rate: rate,
            window_p90_us: w90,
            latency_p50_us: l50,
            latency_p90_us: l90,
            setup_s: median(&mut setup_s),
            samples: (count, windows, singles),
        }
    }

    fn metrics(&self) -> Metrics {
        vec![
            ("msg_rate", self.msg_rate),
            ("window_p90_us", self.window_p90_us),
            ("latency_p50_us", self.latency_p50_us),
            ("latency_p90_us", self.latency_p90_us),
            ("setup_s", self.setup_s),
            ("peak_rss_mb", stats::peak_rss_mb()),
        ]
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} outside (0, 120]"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// True when the runtime's event recorder is compiled in (the `trace`
/// feature of `fairmpi`, or `fairmpi-sync/traced`, which both turn on
/// `fairmpi-trace/enabled`): only then can the recorder be armed.
fn runtime_tracing_compiled_in() -> bool {
    fairmpi_trace::start_wall();
    let armed = fairmpi_trace::is_armed();
    drop(fairmpi_trace::stop());
    armed
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if runtime_tracing_compiled_in() {
        eprintln!(
            "perfbench: the runtime was built with its event recorder compiled in \
             (fairmpi/trace or fairmpi-sync/traced); refusing to measure. \
             Build without those features."
        );
        return ExitCode::from(3);
    }
    let mut out = Outcome::default();
    let (metrics, units): (Metrics, Vec<(&str, &str)>) = if args.trace {
        let m = traced::run(&args.workload, args.seed, args.seconds, &mut out);
        (m, traced::PER_LAYER.to_vec())
    } else {
        let e2e = match args.workload.as_str() {
            "p2p_1t" => p2p::run(p2p::Shape::one_thread(), args.seed, args.seconds, &mut out),
            "p2p_2t" => p2p::run(p2p::Shape::two_threads(), args.seed, args.seconds, &mut out),
            "rma_2t" => rma::run(
                rma::Shape {
                    design: p2p::proposed2(),
                    threads: 2,
                },
                args.seed,
                args.seconds,
                &mut out,
            ),
            _ => grid::run(args.seconds, &mut out),
        };
        let (sessions, windows, singles) = e2e.samples;
        println!(
            "{} medians over {sessions} sessions of {windows} window and {singles} \
             single-operation samples in all",
            args.workload
        );
        (e2e.metrics(), END_TO_END.to_vec())
    };

    let mut fields = Vec::new();
    for (name, unit) in &units {
        let value = metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(f64::NAN);
        println!("{} {name} = {value:.6} {unit}", args.workload);
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
        if !value.is_finite() {
            out.fail(format!("{name} was not measured"));
        }
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
