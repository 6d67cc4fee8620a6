//! The closed query algebra (paper §I): a synthesis result is itself a
//! video, so it can feed further queries. Also covers the engine-level
//! streaming entry point.

use v2v_core::V2vEngine;
use v2v_exec::Catalog;
use v2v_integration_tests::{marked_output, marked_stream, markers_of};
use v2v_spec::builder::grayscale;
use v2v_spec::SpecBuilder;
use v2v_time::{r, Rational};

#[test]
fn output_of_one_query_feeds_the_next() {
    let mut catalog = Catalog::new();
    catalog.add_video("src", marked_stream(300, 30));
    let mut engine = V2vEngine::new(catalog);

    // Stage 1: a supercut of two segments.
    let stage1 = SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_clip("src", r(1, 1), Rational::from_int(2))
        .append_clip("src", r(6, 1), Rational::from_int(2))
        .build();
    let r1 = engine.run(&stage1).unwrap();
    engine.catalog_mut().add_video("stage1", r1.output.clone());
    assert_eq!(r1.output.len(), 120);

    // Stage 2: clip the middle of stage 1 — a compound query over the
    // synthesized result.
    let stage2 = SpecBuilder::new(marked_output())
        .video("stage1", "catalog")
        .append_clip("stage1", r(1, 1), Rational::from_int(2))
        .build();
    let r2 = engine.run(&stage2).unwrap();
    assert_eq!(r2.output.len(), 60);
    // Stage 1 frame 30.. = src 30+30; stage 1 frame 60.. = src 180.
    let markers = markers_of(&r2.output);
    assert_eq!(markers[0], Some(60), "stage1 frame 30 = src frame 60");
    assert_eq!(markers[29], Some(89));
    assert_eq!(markers[30], Some(180), "stage1 frame 60 = src frame 180");

    // Stage 2 over stage 1 can itself stream-copy: stage 1's output has
    // its own keyframes.
    assert!(r2.stats.packets_copied > 0 || r2.stats.frames_encoded > 0);
}

#[test]
fn algebra_composes_with_transforms() {
    let mut catalog = Catalog::new();
    catalog.add_video("src", marked_stream(150, 30));
    let mut engine = V2vEngine::new(catalog);

    let stage1 = SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_filtered("src", r(0, 1), Rational::from_int(2), grayscale)
        .build();
    let r1 = engine.run(&stage1).unwrap();
    engine.catalog_mut().add_video("gray", r1.output);

    let stage2 = SpecBuilder::new(marked_output())
        .video("gray", "catalog")
        .append_clip("gray", r(0, 1), Rational::from_int(1))
        .build();
    let r2 = engine.run(&stage2).unwrap();
    // Markers pass through both stages intact (gray8 is chroma-free
    // already, so grayscale is pixel-preserving here).
    for (k, m) in markers_of(&r2.output).into_iter().enumerate() {
        assert_eq!(m, Some(k as u32), "frame {k}");
    }
}

#[test]
fn engine_streaming_matches_batch() {
    let mut catalog = Catalog::new();
    catalog.add_video("src", marked_stream(300, 30));
    let mut engine = V2vEngine::new(catalog);
    let spec = SpecBuilder::new(marked_output())
        .video("src", "src.svc")
        .append_clip("src", r(1, 1), Rational::from_int(4))
        .append_filtered("src", r(6, 1), Rational::from_int(2), |e| {
            v2v_spec::builder::blur(e, 0.8)
        })
        .build();
    let mut first_keyframe = None;
    let (report, streaming) = engine
        .run_streaming(&spec, |p| {
            if first_keyframe.is_none() {
                first_keyframe = Some(p.keyframe);
            }
        })
        .unwrap();
    assert_eq!(first_keyframe, Some(true));
    assert!(streaming.exec.first_packet_ns <= streaming.exec.wall_ns);
    let batch = engine.run(&spec).unwrap();
    assert_eq!(markers_of(&report.output), markers_of(&batch.output));
}
