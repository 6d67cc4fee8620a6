//! Property-based end-to-end equivalence: random specs over lossless
//! sources must produce identical frames through
//!
//! * the optimized pipeline (dde + optimizer + parallel execution),
//! * the optimized pipeline with every copy-class pass disabled,
//! * the naive unoptimized executor.

use proptest::prelude::*;
use v2v_core::{EngineConfig, V2vEngine};
use v2v_exec::Catalog;
use v2v_integration_tests::{marked_output, marked_stream, markers_of};
use v2v_spec::builder::{blur, grid4, if_then_else};
use v2v_spec::{DataExpr, RenderExpr, SpecBuilder};
use v2v_time::r;

/// One randomly chosen segment recipe.
#[derive(Clone, Debug)]
enum SegKind {
    Clip { start_frames: u8, len_frames: u8 },
    Blur { start_frames: u8, len_frames: u8 },
    Grid { start_frames: u8 },
    Branch { start_frames: u8, threshold: i64 },
}

fn seg_strategy() -> impl Strategy<Value = SegKind> {
    prop_oneof![
        (0u8..60, 4u8..40).prop_map(|(s, l)| SegKind::Clip {
            start_frames: s,
            len_frames: l
        }),
        (0u8..60, 4u8..20).prop_map(|(s, l)| SegKind::Blur {
            start_frames: s,
            len_frames: l
        }),
        (0u8..40).prop_map(|s| SegKind::Grid { start_frames: s }),
        (0u8..60, 0i64..4).prop_map(|(s, t)| SegKind::Branch {
            start_frames: s,
            threshold: t
        }),
    ]
}

fn build_spec(segs: &[SegKind]) -> v2v_spec::Spec {
    let mut b = SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .data_array("k", "catalog");
    for seg in segs {
        match seg {
            SegKind::Clip {
                start_frames,
                len_frames,
            } => {
                b = b.append_clip(
                    "src",
                    r(*start_frames as i64, 30),
                    r(*len_frames as i64, 30),
                );
            }
            SegKind::Blur {
                start_frames,
                len_frames,
            } => {
                b = b.append_filtered(
                    "src",
                    r(*start_frames as i64, 30),
                    r(*len_frames as i64, 30),
                    |e| blur(e, 0.8),
                );
            }
            SegKind::Grid { start_frames } => {
                let s = *start_frames as i64;
                b = b.append_with(r(10, 30), move |out_start| {
                    let cell = |off: i64| RenderExpr::FrameRef {
                        video: "src".into(),
                        time: v2v_time::AffineTimeMap::shift(r(s + off, 30) - out_start),
                    };
                    grid4(cell(0), cell(30), cell(60), cell(90))
                });
            }
            SegKind::Branch {
                start_frames,
                threshold,
            } => {
                let s = *start_frames as i64;
                let thr = *threshold;
                b = b.append_with(r(12, 30), move |out_start| {
                    if_then_else(
                        DataExpr::lt(DataExpr::array("k"), DataExpr::constant(thr)),
                        RenderExpr::FrameRef {
                            video: "src".into(),
                            time: v2v_time::AffineTimeMap::shift(r(s, 30) - out_start),
                        },
                        RenderExpr::FrameRef {
                            video: "src".into(),
                            time: v2v_time::AffineTimeMap::shift(r(s + 120, 30) - out_start),
                        },
                    )
                });
            }
        }
    }
    b.build()
}

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_video("src", marked_stream(300, 25));
    // Modulo data array driving Branch segments.
    let mut k = v2v_data::DataArray::new();
    for i in 0..300 {
        k.insert(r(i, 30), v2v_data::Value::Int(i % 7));
    }
    c.add_array("k", k);
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn all_executors_agree(segs in prop::collection::vec(seg_strategy(), 1..4)) {
        let spec = build_spec(&segs);
        if spec.time_domain.is_empty() {
            return Ok(());
        }
        let cat = catalog();

        let mut full = V2vEngine::new(cat.clone());
        let a = full.run(&spec).unwrap();

        let mut cfg = EngineConfig::default();
        cfg.optimizer.stream_copy = false;
        cfg.optimizer.smart_cut = false;
        cfg.optimizer.shard = false;
        cfg.exec.num_threads = 1;
        cfg.data_rewrites = false;
        let mut plain = V2vEngine::new(cat.clone()).with_config(cfg);
        let b = plain.run(&spec).unwrap();

        let mut naive = V2vEngine::new(cat);
        let c = naive.run_unoptimized(&spec).unwrap();

        let ma = markers_of(&a.output);
        prop_assert_eq!(&ma, &markers_of(&b.output));
        prop_assert_eq!(&ma, &markers_of(&c.output));

        // Raster-level agreement, not just markers.
        let (fa, _) = a.output.decode_range(0, a.output.len()).unwrap();
        let (fb, _) = b.output.decode_range(0, b.output.len()).unwrap();
        let (fc, _) = c.output.decode_range(0, c.output.len()).unwrap();
        prop_assert_eq!(&fa, &fb);
        prop_assert_eq!(&fa, &fc);
    }
}
