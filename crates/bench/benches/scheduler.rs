//! Scheduler ablation: static sharding vs runtime splitting vs the
//! decode-ahead pipeline.
//!
//! PR 3 replaced the segment-only rayon fan-out with a cost-based
//! scheduler (LPT dispatch, intra-segment pipelining, runtime splitting
//! of long renders at output-GOP boundaries). This harness isolates the
//! contribution of each mechanism on two plan shapes:
//!
//! * **Q8 (sharded)** — a long grid render whose output spans several
//!   GOPs, so the optimizer's static temporal sharding already produced
//!   multiple render segments; the scheduler should add nothing but
//!   must not regress. (The short-input Q3 is no use here: on ToS's
//!   10 s GOPs a 5 s render is smaller than one output GOP and never
//!   shards.)
//! * **Q10 (unsharded)** — static sharding disabled, so the whole long
//!   data-join render is *one* segment. The segment-only executor
//!   (`pipeline_depth = 0`, no splitting — the pre-scheduler engine's
//!   behaviour) serializes on it no matter how many workers exist;
//!   runtime splitting is the only way extra workers ever help. This is
//!   the row the `speedup` figure in `BENCH_scheduler.json` pins.
//!
//! Every arm is asserted byte-identical to the serial run. Wall-clock
//! speedups require real cores: on a 1-vCPU container the parallel arms
//! measure scheduling overhead (expected within noise), and the JSON
//! records the detected core count so readers can interpret the ratio.
//!
//! Known noise source: runs that hand frame allocation to a worker
//! thread can land in a fresh glibc malloc arena, where each large
//! frame buffer is mmap'd and returned to the OS on free — a minor-
//! fault storm that shows up as system time (observed ~17k faults /
//! +0.4 s stime vs ~300 faults on a warm arena, same workload). The
//! serial arm never spawns workers, so it is immune; treat outlier
//! parallel samples accordingly.
//!
//! `--quick` (CI bench smoke) forces test scale and a single measured
//! run, and skips rewriting the committed `BENCH_scheduler.json`.

use std::time::{Duration, Instant};
use v2v_bench::{bench_runs, build_query, engine_with, print_header, secs, setup_tos, QueryId};
use v2v_container::VideoStream;
use v2v_core::EngineConfig;
use v2v_exec::{execute, Catalog, ExecOptions, ExecStats};
use v2v_plan::PhysicalPlan;

/// Worker count for the parallel arms (the acceptance shape is "at
/// least 4 threads"; the pool is created regardless of physical cores).
const THREADS: usize = 4;

/// Paper-protocol measurement (first run discarded) of one arm.
fn measure_arm(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    opts: &ExecOptions,
) -> (Duration, VideoStream, ExecStats) {
    let runs = bench_runs();
    let mut total = Duration::ZERO;
    let mut last = None;
    for i in 0..=runs {
        let started = Instant::now();
        let (out, stats, _) = execute(plan, catalog, opts).expect("arm runs");
        if i > 0 {
            total += started.elapsed();
        }
        last = Some((out, stats));
    }
    let (out, stats) = last.expect("at least one run");
    (total / runs as u32, out, stats)
}

fn arms() -> Vec<(&'static str, ExecOptions)> {
    vec![
        (
            "serial",
            ExecOptions {
                num_threads: 1,
                ..Default::default()
            },
        ),
        (
            "segment-only",
            ExecOptions {
                num_threads: THREADS,
                pipeline_depth: 0,
                runtime_split: false,
                ..Default::default()
            },
        ),
        (
            "pipeline",
            ExecOptions {
                num_threads: THREADS,
                runtime_split: false,
                ..Default::default()
            },
        ),
        (
            "pipeline+split",
            ExecOptions {
                num_threads: THREADS,
                ..Default::default()
            },
        ),
    ]
}

struct Row {
    plan: &'static str,
    arm: &'static str,
    mean: Duration,
    splits: u64,
    steals: u64,
    segments: u64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    if quick {
        // CI smoke mode: smallest dataset, one measured run. Only set
        // the knobs the caller left open.
        if std::env::var("V2V_BENCH_SCALE").is_err() {
            std::env::set_var("V2V_BENCH_SCALE", "test");
        }
        if std::env::var("V2V_BENCH_RUNS").is_err() {
            std::env::set_var("V2V_BENCH_RUNS", "1");
        }
    }
    let ds = setup_tos();
    print_header(
        "Scheduler",
        "LPT dispatch + pipelining + runtime splitting, per mechanism (ToS)",
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!();
    println!("detected cores: {cores}; parallel arms use {THREADS} workers");
    println!();
    println!(
        "{:<14} {:<14} {:>10} {:>9} {:>8} {:>8} {:>10}",
        "plan", "arm", "mean (s)", "segments", "splits", "steals", "identical"
    );

    // (label, query, static sharding on?)
    let shapes: [(&str, QueryId, bool); 2] = [
        ("Q8-sharded", QueryId::Q8, true),
        ("Q10-unsharded", QueryId::Q10, false),
    ];
    let mut rows: Vec<Row> = Vec::new();
    for (plan_label, q, shard) in shapes {
        let mut cfg = EngineConfig::default();
        cfg.optimizer.shard = shard;
        let mut engine = engine_with(&ds, cfg);
        let spec = build_query(&ds, q);
        engine.bind(&spec).expect("bind");
        let (specialized, _) = engine.specialize(&spec);
        let (plan, _) = engine.plan(&specialized).expect("plan");
        let mut baseline: Option<VideoStream> = None;
        for (arm_label, opts) in arms() {
            let (mean, out, stats) = measure_arm(&plan, engine.catalog(), &opts);
            let identical = match &baseline {
                None => {
                    baseline = Some(out);
                    true
                }
                Some(b) => b.packets() == out.packets(),
            };
            assert!(identical, "{plan_label}/{arm_label}: output bytes diverged");
            println!(
                "{:<14} {:<14} {:>10} {:>9} {:>8} {:>8} {:>10}",
                plan_label,
                arm_label,
                secs(mean),
                stats.segments,
                stats.splits,
                stats.steals,
                "yes"
            );
            rows.push(Row {
                plan: plan_label,
                arm: arm_label,
                mean,
                splits: stats.splits,
                steals: stats.steals,
                segments: stats.segments,
            });
        }
    }

    let time_of = |plan: &str, arm: &str| {
        rows.iter()
            .find(|r| r.plan == plan && r.arm == arm)
            .expect("row measured")
            .mean
            .as_secs_f64()
    };
    let speedup = time_of("Q10-unsharded", "segment-only")
        / time_of("Q10-unsharded", "pipeline+split").max(1e-9);
    println!();
    println!(
        "single-long-render speedup (segment-only / pipeline+split @ {THREADS} threads): {speedup:.2}x"
    );
    if cores < THREADS {
        println!("note: only {cores} core(s) available — the ratio measures overhead, not parallel speedup.");
    }

    if quick {
        println!("(--quick: skipping BENCH_scheduler.json rewrite)");
        return;
    }
    let json = serde_json::json!({
        "bench": "scheduler",
        "dataset": ds.name,
        "threads": THREADS,
        "cores_detected": cores,
        "runs": bench_runs(),
        "rows": rows.iter().map(|r| serde_json::json!({
            "plan": r.plan,
            "arm": r.arm,
            "mean_s": r.mean.as_secs_f64(),
            "segments": r.segments,
            "splits": r.splits,
            "steals": r.steals,
        })).collect::<Vec<_>>(),
        "single_long_render_speedup": speedup,
        "byte_identical": true,
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scheduler.json");
    std::fs::write(
        path,
        format!("{}\n", serde_json::to_string_pretty(&json).unwrap()),
    )
    .expect("write baseline");
    println!("wrote {path}");
}
