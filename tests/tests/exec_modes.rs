//! Byte-identity across every execution mode.
//!
//! The scheduler (PR 3) may reorder, pipeline, and split work at
//! runtime, but the output container must stay *byte-identical* to the
//! serial executor's — splits land on output-GOP boundaries and packets
//! are re-stamped onto the presentation grid, so no arm is allowed to
//! change a single payload byte. This suite pins that invariant over
//! the full `{sink, no sink} × {serial, parallel, pipelined,
//! runtime-split} × {1, 2, 8 threads}` matrix on adversarial plan
//! shapes:
//!
//! * 1-frame render segments (splits impossible, merge logic stressed),
//! * many small segments (segment count ≫ worker count),
//! * a single giant render segment (runtime splitting is the only
//!   source of parallelism),
//!
//! plus a proptest arm over randomly shaped specs.

use proptest::prelude::*;
use v2v_container::VideoStream;
use v2v_exec::{execute, execute_streaming, Catalog, ExecOptions};
use v2v_integration_tests::{marked_output, marked_stream};
use v2v_plan::{lower_spec, optimize, OptimizerConfig, PhysicalPlan};
use v2v_spec::builder::blur;
use v2v_spec::{Spec, SpecBuilder};
use v2v_time::r;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_video("src", marked_stream(300, 30));
    c
}

fn plan_of(spec: &Spec, catalog: &Catalog, cfg: &OptimizerConfig) -> PhysicalPlan {
    let logical = lower_spec(spec).unwrap();
    optimize(&logical, &catalog.plan_context(), cfg).unwrap()
}

/// The adversarial plan shapes, as `(name, plan)`.
fn adversarial_plans(catalog: &Catalog) -> Vec<(&'static str, PhysicalPlan)> {
    // Ten 1-frame mid-GOP clips: every segment renders exactly one
    // frame, so parts can never split and the per-segment merge in the
    // traced executor sees a part per segment.
    let mut one_frame = SpecBuilder::new(marked_output()).video("src", "src.svc");
    for i in 0..10 {
        one_frame = one_frame.append_clip("src", r(7 + 13 * i, 30), r(1, 30));
    }
    // Mixed copy/render plan with many segments (default sharding keeps
    // render segments small, so segment count ≫ a small worker pool).
    let many_small = SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_clip("src", r(1, 1), r(2, 1))
        .append_filtered("src", r(0, 1), r(4, 1), |e| blur(e, 1.0))
        .append_clip("src", r(1, 2), r(3, 2))
        .build();
    // One giant render segment: disable static sharding so the whole
    // 8-second blur is a single segment and runtime splitting is the
    // only way more than one worker ever touches it.
    let giant = SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_filtered("src", r(1, 1), r(8, 1), |e| blur(e, 1.0))
        .build();
    vec![
        (
            "one_frame_segments",
            plan_of(&one_frame.build(), catalog, &OptimizerConfig::default()),
        ),
        (
            "many_small_segments",
            plan_of(&many_small, catalog, &OptimizerConfig::default()),
        ),
        (
            "single_giant_render",
            plan_of(
                &giant,
                catalog,
                &OptimizerConfig {
                    shard_min_frames: u64::MAX,
                    ..Default::default()
                },
            ),
        ),
    ]
}

/// The executor arms: every scheduler feature toggled separately.
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
            "parallel_plain",
            ExecOptions {
                pipeline_depth: 0,
                runtime_split: false,
                ..Default::default()
            },
        ),
        (
            "pipelined",
            ExecOptions {
                runtime_split: false,
                ..Default::default()
            },
        ),
        ("runtime_split", ExecOptions::default()),
    ]
}

fn assert_same_stream(label: &str, baseline: &VideoStream, got: &VideoStream) {
    assert_eq!(
        baseline.packets(),
        got.packets(),
        "{label}: packet stream diverged from the serial baseline"
    );
}

#[test]
fn all_modes_are_byte_identical() {
    let catalog = catalog();
    for (plan_name, plan) in adversarial_plans(&catalog) {
        let (baseline, _, _) = execute(
            &plan,
            &catalog,
            &ExecOptions {
                num_threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        for (arm_name, base_opts) in arms() {
            for threads in [1usize, 2, 8] {
                let opts = ExecOptions {
                    num_threads: threads,
                    ..base_opts.clone()
                };
                let label = format!("{plan_name}/{arm_name}/threads={threads}");
                let (batch, _, _) = execute(&plan, &catalog, &opts).unwrap();
                assert_same_stream(&format!("batch/{label}"), &baseline, &batch);

                let mut sunk: Vec<v2v_codec::Packet> = Vec::new();
                let (streamed, _, _) =
                    execute_streaming(&plan, &catalog, &opts, |p| sunk.push(p.clone())).unwrap();
                assert_same_stream(&format!("streaming/{label}"), &baseline, &streamed);
                // The sink saw the same packets, already on the
                // presentation grid, in presentation order.
                assert_eq!(
                    baseline.packets(),
                    &sunk[..],
                    "streaming sink/{label}: sink packets diverged"
                );
            }
        }
    }
}

#[test]
fn split_heavy_run_splits_and_stays_identical() {
    // The single-giant-render plan at 8 threads must actually exercise
    // the runtime splitter (otherwise the matrix above proves nothing
    // about it) and still match the serial bytes.
    let catalog = catalog();
    let plans = adversarial_plans(&catalog);
    let (_, plan) = plans
        .iter()
        .find(|(n, _)| *n == "single_giant_render")
        .unwrap();
    let (baseline, _, _) = execute(
        plan,
        &catalog,
        &ExecOptions {
            num_threads: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let opts = ExecOptions {
        num_threads: 8,
        ..Default::default()
    };
    let (out, stats, _) = execute(plan, &catalog, &opts).unwrap();
    assert_same_stream("split_heavy", &baseline, &out);
    assert!(
        stats.splits > 0,
        "8 idle workers against one giant segment must trigger runtime splits: {stats:?}"
    );
    assert_eq!(stats.steals, stats.splits, "every split is stolen");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random clip/blur mixes: scheduler arms agree with serial bytes.
    #[test]
    fn random_specs_are_mode_independent(
        segs in prop::collection::vec((0u8..200, 1u8..70, any::<bool>()), 1..5),
        threads in 1usize..5,
    ) {
        let catalog = catalog();
        let mut b = SpecBuilder::new(marked_output()).video("src", "src.svc");
        for (start, len, filtered) in &segs {
            let start = r(*start as i64, 30);
            let len = r(*len as i64, 30);
            // Keep clips inside the 10 s source.
            if (start + len) > r(300, 30) {
                continue;
            }
            b = if *filtered {
                b.append_filtered("src", start, len, |e| blur(e, 0.8))
            } else {
                b.append_clip("src", start, len)
            };
        }
        let spec = b.build();
        if spec.time_domain.is_empty() {
            return Ok(());
        }
        let plan = plan_of(&spec, &catalog, &OptimizerConfig::default());
        let (baseline, _, _) = execute(&plan, &catalog, &ExecOptions {
            num_threads: 1,
            ..Default::default()
        }).unwrap();
        let opts = ExecOptions { num_threads: threads, ..Default::default() };
        let (batch, _, _) = execute(&plan, &catalog, &opts).unwrap();
        prop_assert_eq!(baseline.packets(), batch.packets());
        let (streamed, _, _) = execute_streaming(&plan, &catalog, &opts, |_| {}).unwrap();
        prop_assert_eq!(baseline.packets(), streamed.packets());
    }
}
