//! The repository benchmark: four V2V workloads with fixed end-to-end
//! metrics, and a traced run that splits each workload's op latency
//! across the layers (crates) it passes through.
//!
//! ```text
//! perfbench --workload <paper_render|serve_hot|serve_mixed|live_subscribe|all>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. The exit code is non-zero when any op failed or
//! returned bytes that differ from its reference. See `README.md`.

mod harness;
mod inputs;
mod live;
mod paper;
mod serve;
mod stats;
mod trace;

use harness::Outcome;

/// The benchmark's workloads, in run order for `--workload all`.
const WORKLOADS: [&str; 4] = ["paper_render", "serve_hot", "serve_mixed", "live_subscribe"];

/// Command-line arguments.
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

impl RunArgs {
    /// The measuring time in seconds.
    pub fn seconds_f64(&self) -> f64 {
        self.seconds as f64
    }

    fn parse() -> Result<RunArgs, String> {
        let mut a = RunArgs {
            workload: String::new(),
            seed: 1,
            seconds: 15,
            trace: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => a.workload = value()?,
                "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => a.trace = value()? == "1",
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {} or all",
                WORKLOADS.join(", ")
            ));
        }
        if a.seconds == 0 {
            return Err("--seconds must be positive".into());
        }
        Ok(a)
    }
}

fn run_one(args: &RunArgs) -> Outcome {
    let mut out = match args.workload.as_str() {
        "paper_render" => paper::run(args),
        "serve_hot" => serve::run(serve::Kind::Hot, args),
        "serve_mixed" => serve::run(serve::Kind::Mixed, args),
        _ => live::run(args),
    };
    let threads = v2v_exec::ExecOptions::default().effective_threads();
    out.info.insert(
        0,
        format!(
            "workload {} seed {} seconds {} trace {} nproc {} V2V_NUM_THREADS(effective) {} commit {}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads,
            harness::commit()
        ),
    );
    out
}

fn report(name: &str, out: &Outcome) {
    println!("== {name}");
    for line in &out.info {
        println!("{line}");
    }
    for m in &out.metrics {
        println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("ops attempted {} failed {}", out.attempted, out.failed);
}

/// The result line. Values print with every digit Rust's shortest
/// round-trip formatting gives them.
fn result_line(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let body = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        failed == 0
    )
}

fn main() {
    let args = match RunArgs::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    inputs::configure_suite();
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for name in &names {
        let one = RunArgs {
            workload: name.to_string(),
            ..args
        };
        let out = run_one(&one);
        report(name, &out);
        attempted += out.attempted;
        failed += out.failed;
        for m in &out.metrics {
            let key = if names.len() == 1 {
                m.name.to_string()
            } else {
                format!("{name}.{}", m.name)
            };
            metrics.push((key, m.value, m.unit));
        }
    }
    println!("{}", result_line(attempted, failed, &metrics));
    if failed > 0 || attempted == 0 {
        std::process::exit(1);
    }
}
