//! Measurement plumbing shared by the workloads: closed-loop clients,
//! the peak-RSS sampler, the run's scratch directory, and the result
//! record every workload returns.

use crate::stats;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One completed op.
#[derive(Clone, Debug, Default)]
pub struct Op {
    /// Position in the workload's op sequence.
    pub index: usize,
    /// Latency in milliseconds.
    pub ms: f64,
    /// Failed: error, refusal (429), or mismatched bytes.
    pub failed: bool,
    /// Output frames this op delivered.
    pub frames: u64,
}

/// The timed phase of a workload: completed ops and their wall time.
#[derive(Debug, Default)]
pub struct Timed {
    /// Completed ops, in completion order.
    pub ops: Vec<Op>,
    /// Wall time from the first op's start to the last op's end.
    pub wall: Duration,
    /// Peak resident set size during the phase, in MiB.
    pub peak_rss_mb: f64,
}

/// Runs `clients` closed-loop threads over the op sequence: each takes
/// the next op index, runs `op`, and records the latency, until
/// `keep_going(index, elapsed)` says stop for the index it would take
/// next. The resident-set peak is sampled while the threads run.
pub fn closed_loop<F, K>(clients: usize, op: F, keep_going: K) -> Timed
where
    F: Fn(usize) -> (bool, u64) + Sync,
    K: Fn(usize, Duration) -> bool + Sync,
{
    let next = AtomicUsize::new(0);
    let stopped = AtomicBool::new(false);
    let ops = Mutex::new(Vec::new());
    let rss = RssSampler::start();
    let started = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| loop {
                if stopped.load(Ordering::SeqCst) {
                    break;
                }
                let index = next.fetch_add(1, Ordering::SeqCst);
                if !keep_going(index, started.elapsed()) {
                    stopped.store(true, Ordering::SeqCst);
                    break;
                }
                let t = Instant::now();
                let (ok, frames) = op(index);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                ops.lock().expect("op log").push(Op {
                    index,
                    ms,
                    failed: !ok,
                    frames,
                });
            });
        }
    });
    let wall = started.elapsed();
    Timed {
        ops: ops.into_inner().expect("op log"),
        wall,
        peak_rss_mb: rss.stop(),
    }
}

/// Tracks this process's peak resident set over a phase. The kernel's
/// high-water mark (`VmHWM`) is exact but covers the whole process life;
/// when it did not grow during the phase (set-up peaked higher), the
/// maximum of `VmRSS` sampled every 10 ms on a background thread stands
/// in for it.
pub struct RssSampler {
    stop: std::sync::Arc<AtomicBool>,
    handle: std::thread::JoinHandle<u64>,
    hwm_at_start: u64,
}

impl RssSampler {
    /// Starts sampling.
    pub fn start() -> RssSampler {
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let hwm_at_start = status_kib("VmHWM:");
        let handle = std::thread::spawn(move || {
            let mut peak = status_kib("VmRSS:");
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(10));
                peak = peak.max(status_kib("VmRSS:"));
            }
            peak
        });
        RssSampler {
            stop,
            handle,
            hwm_at_start,
        }
    }

    /// Stops sampling and returns the phase's peak in MiB.
    pub fn stop(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        let sampled = self.handle.join().unwrap_or(0);
        let hwm = status_kib("VmHWM:");
        let peak = if hwm > self.hwm_at_start {
            hwm
        } else {
            sampled
        };
        peak as f64 / 1024.0
    }
}

/// A `kB` field of `/proc/self/status`; 0 where unavailable.
fn status_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// A scratch directory under the working directory (render caches,
/// variant stores), removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.bench_work/<tag>-<pid>` afresh.
    pub fn new(tag: &str) -> WorkDir {
        let dir = PathBuf::from(".bench_work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory is creatable");
        WorkDir(dir)
    }

    /// A path inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the parent too once no other run uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// One metric of a result.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted in the timed (or traced) phase.
    pub attempted: u64,
    /// Ops failed, refused, or with mismatched bytes.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Free-form `key value` lines printed before the metrics.
    pub info: Vec<String>,
}

impl Outcome {
    /// Appends a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Appends an info line.
    pub fn info(&mut self, line: impl Into<String>) {
        self.info.push(line.into());
    }
}

/// End-to-end metrics over a timed phase with a fixed tail percentile
/// (the highest one leaving ten samples beyond it at the workload's
/// nominal op count) and the median of several set-ups.
pub fn end_to_end(out: &mut Outcome, timed: &Timed, nominal_ops: usize, setups: &[f64]) {
    let lat: Vec<f64> = timed.ops.iter().map(|o| o.ms).collect();
    let secs = timed.wall.as_secs_f64().max(1e-9);
    let done = timed.ops.iter().filter(|o| !o.failed).count();
    let frames: u64 = timed
        .ops
        .iter()
        .filter(|o| !o.failed)
        .map(|o| o.frames)
        .sum();
    let p = stats::tail_percentile(nominal_ops).map_or(100.0, f64::from);
    out.attempted = timed.ops.len() as u64;
    out.failed = timed.ops.iter().filter(|o| o.failed).count() as u64;
    out.metric("setup_s", stats::median(setups), "s");
    out.metric("p50_ms", stats::median(&lat), "ms");
    out.metric("tail_ms", stats::percentile(&lat, p), "ms");
    out.metric("ops_per_s", done as f64 / secs, "1/s");
    out.metric("out_frames_per_s", frames as f64 / secs, "1/s");
    out.info(format!(
        "tail_ms percentile p{p} ({} of {} ops beyond it; nominal op count {nominal_ops})",
        stats::beyond(lat.len(), p),
        lat.len()
    ));
    if let Some([q1, q2, q3]) = stats::quartiles(&lat) {
        out.info(format!("latency quartiles {q1:.3} {q2:.3} {q3:.3} ms"));
    }
    out.info(format!(
        "setup_s samples {}",
        setups
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.info(format!(
        "peak_rss_mb {:.1} (printed, not gated: it follows allocator timing)",
        timed.peak_rss_mb
    ));
    out.info(format!(
        "error_rate {} ({} failed of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    ));
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Runs `setup` [`SETUPS`] times, keeping the last result, and returns it
/// with every run's wall time in seconds (set-up time is reported as
/// their median). Earlier results are dropped before the next set-up
/// starts, so each one pays the full cost.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        let v = setup();
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    (last.expect("at least one set-up"), times)
}

/// The commit the working tree was checked out at, read from `.git`
/// without running git; `unknown` outside a repository.
pub fn commit() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let git = Path::new(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&git.join(reference)) {
        return id.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}
