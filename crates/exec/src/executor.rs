//! The optimized physical-plan executor.
//!
//! Segments have no dependencies on each other (each render segment
//! starts its own GOP; copies are self-contained), so the engine
//! evaluates them in parallel and splices the resulting packet runs in
//! output order — "we use the dependency graph to execute operators in
//! parallel as an additional optimization at runtime" (§IV-A). The
//! parallelism itself lives in [`crate::scheduler`]: work is dispatched
//! longest-first by estimated cost (except that the part delivery is
//! waiting on goes first), long renders are split at output-GOP
//! boundaries when workers idle, and each render part internally
//! pipelines decode-ahead, parallel compose, and per-GOP encoding.
//!
//! One body serves batch and streaming runs. Parts reach it in
//! presentation order, so an optional packet sink receives each packet
//! as soon as the head of the output is ready — the paper's
//! interactivity story (§I): "Through database-style optimizations
//! described in this paper and on-demand streaming, V2V enables a VDBMS
//! to execute such a query and to begin playback within seconds." A
//! plan whose first segment is a stream copy starts playback after a
//! refcount bump; [`ExecTrace::first_packet_ns`] quantifies the claim.

use crate::catalog::Catalog;
use crate::fault::{ErrorPolicy, FaultInjector};
use crate::gop_cache::GopCache;
use crate::scheduler::{execute_scheduled, PartOutput};
use crate::trace::{ExecTrace, SegmentTrace};
use crate::ExecError;
use std::sync::Arc;
use std::time::{Duration, Instant};
use v2v_codec::Packet;
use v2v_container::{StreamWriter, VideoStream};
use v2v_plan::PhysicalPlan;
use v2v_time::Rational;

/// Execution options.
#[derive(Clone, Debug)]
pub struct ExecOptions {
    /// Capacity of the shared decoded-GOP cache, in frames. Segments
    /// reading the same source ranges (grid cells, splice neighbours)
    /// decode each GOP once and share it. `0` disables the cache.
    ///
    /// The default must comfortably hold several *whole* GOPs or LRU
    /// eviction defeats reuse: a movie-style 10 s GOP at 24 fps is 240
    /// frames, and a 2×2 grid keeps four of those in flight plus one
    /// incoming, so anything under ~1700 thrashes on such sources (the default leaves
    /// headroom above that working set).
    pub gop_cache_frames: usize,
    /// Worker threads for the scheduler (the runtime half of the
    /// paper's optimization story). `0` means auto: the
    /// `V2V_NUM_THREADS` environment variable if set, else the machine's
    /// available parallelism. `1` runs strictly sequentially (the serial
    /// ablation arm), ignoring `pipeline_depth` and `runtime_split`.
    /// Each engine gets its own scoped pool, so two engines in one
    /// process never fight over a global pool.
    pub num_threads: usize,
    /// Decode-ahead depth of the intra-segment pipeline, in output GOPs:
    /// the prefetch stage may run this many GOPs ahead of the encoder,
    /// and up to this many output GOPs are composed/encoded per parallel
    /// batch. `0` disables pipelining (render parts run the classic
    /// sequential decode → compose → encode loop).
    pub pipeline_depth: usize,
    /// Allow running renders to split at output-GOP boundaries when
    /// workers go idle. Splits are lossless (output GOPs are
    /// codec-independent) and replace the planner's static shard-size
    /// guess with load-driven balancing.
    pub runtime_split: bool,
    /// Deterministic fault injection hook: every cursor consults the
    /// injector before decoding a source packet. `None` (the default)
    /// costs one branch per decode; runs without an injector are
    /// byte-identical to builds without the hook.
    pub fault: Option<Arc<FaultInjector>>,
    /// Degraded-mode policy: what the scheduler does with a part that
    /// still fails after `max_retries` retries. The default aborts the
    /// run, which is the historical behavior.
    pub on_error: ErrorPolicy,
    /// Bounded per-part retries before `on_error` applies. A retry
    /// re-runs the failed range from its GOP-aligned start, so a
    /// transient fault recovers byte-identically.
    pub max_retries: u32,
    /// Persistent segment-cache context for this run: the shared
    /// [`RenderCache`](crate::RenderCache) plus the plan's per-segment
    /// keys. `None` (the default) disables fragment reuse; runs without
    /// it are byte-identical to builds without the hook. Ignored while
    /// a fault injector is active — injected faults must never leak
    /// into (or be masked by) persistent state.
    pub segment_cache: Option<Arc<crate::render_cache::SegmentCacheCtx>>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            gop_cache_frames: 4096,
            num_threads: 0,
            pipeline_depth: 2,
            runtime_split: true,
            fault: None,
            on_error: ErrorPolicy::default(),
            max_retries: 1,
            segment_cache: None,
        }
    }
}

impl ExecOptions {
    /// The worker count the scheduler will actually use: `num_threads`
    /// if set, else `V2V_NUM_THREADS`, else the machine's available
    /// parallelism.
    pub fn effective_threads(&self) -> usize {
        if self.num_threads > 0 {
            return self.num_threads;
        }
        if let Ok(v) = std::env::var("V2V_NUM_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }
}

/// Cost accounting for one execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ExecStats {
    /// Source/intermediate packets decoded.
    pub frames_decoded: u64,
    /// Frames pushed through an encoder.
    pub frames_encoded: u64,
    /// Packets spliced by stream copy.
    pub packets_copied: u64,
    /// Compressed bytes spliced by stream copy.
    pub bytes_copied: u64,
    /// Compressed bytes fed to decoders (the storage-read currency).
    pub bytes_decoded: u64,
    /// Compressed bytes produced by encoders.
    pub bytes_encoded: u64,
    /// Decoder keyframe entries (initial positioning and re-seeks).
    pub seeks: u64,
    /// Segments executed.
    pub segments: u64,
    /// GOP lookups served from the shared decoded-GOP cache. Attributed
    /// per cursor (exactly one cursor books each lookup), so per-segment
    /// values are deterministic under parallel execution.
    pub gop_cache_hits: u64,
    /// GOP lookups that had to decode.
    pub gop_cache_misses: u64,
    /// Times the scheduler split a running render to feed idle workers
    /// (run-level; load-dependent, zero under serial execution).
    #[serde(default)]
    pub splits: u64,
    /// Split-off tasks picked up by another worker (run-level).
    #[serde(default)]
    pub steals: u64,
    /// Faults the injector fired during the run (run-level; zero
    /// without an injector).
    #[serde(default)]
    pub faults_injected: u64,
    /// Part retries the scheduler spent recovering from failures.
    #[serde(default)]
    pub retries: u64,
    /// Failed parts dropped from the output under
    /// [`ErrorPolicy::SkipSegment`].
    #[serde(default)]
    pub parts_skipped: u64,
    /// Failed parts replaced by encoded black under
    /// [`ErrorPolicy::SubstituteBlack`].
    #[serde(default)]
    pub parts_substituted: u64,
    /// Output frames filled with encoded black.
    #[serde(default)]
    pub frames_substituted: u64,
    /// Persistent render-cache activity (zero when no cache is wired).
    #[serde(default)]
    pub cache: crate::render_cache::CacheStats,
}

impl ExecStats {
    /// Field-wise accumulation: counters add.
    pub fn merge(mut self, other: ExecStats) -> ExecStats {
        self.frames_decoded += other.frames_decoded;
        self.frames_encoded += other.frames_encoded;
        self.packets_copied += other.packets_copied;
        self.bytes_copied += other.bytes_copied;
        self.bytes_decoded += other.bytes_decoded;
        self.bytes_encoded += other.bytes_encoded;
        self.seeks += other.seeks;
        self.segments += other.segments;
        self.gop_cache_hits += other.gop_cache_hits;
        self.gop_cache_misses += other.gop_cache_misses;
        self.splits += other.splits;
        self.steals += other.steals;
        self.faults_injected += other.faults_injected;
        self.retries += other.retries;
        self.parts_skipped += other.parts_skipped;
        self.parts_substituted += other.parts_substituted;
        self.frames_substituted += other.frames_substituted;
        self.cache = self.cache.merge(other.cache);
        self
    }

    /// Every counter as a `(metric name, value)` row: the one mapping of
    /// these fields onto the dotted `exec.*` names, read by both the run
    /// trace's metrics snapshot and the daemon's `/metrics`. A new field
    /// needs one row here.
    pub fn counters(&self) -> [(&'static str, u64); 25] {
        let c = &self.cache;
        [
            ("exec.frames_decoded", self.frames_decoded),
            ("exec.frames_encoded", self.frames_encoded),
            ("exec.packets_copied", self.packets_copied),
            ("exec.bytes_copied", self.bytes_copied),
            ("exec.bytes_decoded", self.bytes_decoded),
            ("exec.bytes_encoded", self.bytes_encoded),
            ("exec.seeks", self.seeks),
            ("exec.segments", self.segments),
            ("exec.gop_cache_hits", self.gop_cache_hits),
            ("exec.gop_cache_misses", self.gop_cache_misses),
            ("exec.splits", self.splits),
            ("exec.steals", self.steals),
            ("exec.faults.injected", self.faults_injected),
            ("exec.faults.retries", self.retries),
            ("exec.faults.parts_skipped", self.parts_skipped),
            ("exec.faults.parts_substituted", self.parts_substituted),
            ("exec.faults.frames_substituted", self.frames_substituted),
            ("exec.cache.result_hits", c.result_hits),
            ("exec.cache.segment_hits", c.segment_hits),
            ("exec.cache.evictions", c.evictions),
            ("exec.cache.bytes_reused", c.bytes_reused),
            ("exec.cache.inflight_hits", c.inflight_hits),
            ("exec.cache.shared_segment_hits", c.shared_segment_hits),
            ("exec.cache.mem_hits", c.mem_hits),
            ("exec.remote.segments", c.remote_segments),
        ]
    }
}

/// Executes a physical plan against a catalog.
///
/// Returns the output stream, the accumulated stats, and the wall time.
/// Thin wrapper over [`execute_traced`] for callers that do not need the
/// per-segment trace.
pub fn execute(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    opts: &ExecOptions,
) -> Result<(VideoStream, ExecStats, Duration), ExecError> {
    let (out, trace, wall) = execute_traced(plan, catalog, opts)?;
    Ok((out, trace.totals, wall))
}

/// Executes a physical plan, profiling every segment.
///
/// Returns the output stream, the [`ExecTrace`] (per-segment stats and
/// wall times plus run totals), and the end-to-end wall time.
pub fn execute_traced(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    opts: &ExecOptions,
) -> Result<(VideoStream, ExecTrace, Duration), ExecError> {
    run_plan(plan, catalog, opts, None)
}

/// [`execute_traced`] with on-demand streaming delivery: packets reach
/// `sink` in presentation order as parts complete, while later segments
/// are still rendering, so playback can begin before synthesis ends
/// (paper §I). The sink sees packets already re-stamped onto the output
/// presentation grid — exactly the returned stream's packets, however
/// the scheduler split the work — and runs on the calling thread, so it
/// needs no synchronization. [`ExecTrace::first_packet_ns`] is the
/// measured time to first packet.
pub fn execute_streaming(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    opts: &ExecOptions,
    mut sink: impl FnMut(&Packet),
) -> Result<(VideoStream, ExecTrace, Duration), ExecError> {
    run_plan(plan, catalog, opts, Some(&mut sink))
}

/// The one executor body: schedules every part of `plan`, splices the
/// parts into the output in presentation order, rolls the per-segment
/// trace up, and forwards each packet to `sink` when one is attached.
fn run_plan(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    opts: &ExecOptions,
    mut sink: Option<&mut dyn FnMut(&Packet)>,
) -> Result<(VideoStream, ExecTrace, Duration), ExecError> {
    let started = Instant::now();
    let cache = GopCache::new(opts.gop_cache_frames);
    let mut writer = StreamWriter::new(plan.out_params, Rational::ZERO, plan.frame_dur);
    let mut trace = ExecTrace::default();
    let mut first_sent = false;
    let mut deliver = |part: PartOutput| -> Result<(), ExecError> {
        if !first_sent && !part.packets.is_empty() {
            trace.first_packet_ns = started.elapsed().as_nanos() as u64;
            first_sent = true;
        }
        if let Some(sink) = sink.as_deref_mut() {
            let base = writer.len() as i64;
            for (k, p) in part.packets.iter().enumerate() {
                sink(&p.retimed(plan.frame_dur * Rational::from_int(base + k as i64)));
            }
        }
        writer.push_copied(&part.packets)?;
        if let Some(fault) = &part.fault {
            trace.errors.push(fault.clone());
        }
        match trace.segments.last_mut() {
            // Continuation part of the segment we're already tracing
            // (parts of one segment arrive contiguously, in order).
            Some(last) if last.index == part.seg_index as u64 && part.stats.segments == 0 => {
                last.frames += part.count;
                last.stats = last.stats.merge(part.stats);
                last.stage = last.stage.merge(part.stage);
                last.wall_ns += part.wall_ns;
                last.parts += 1;
            }
            _ => {
                let seg = &plan.segments[part.seg_index];
                trace.segments.push(SegmentTrace {
                    index: part.seg_index as u64,
                    kind: seg.plan.kind_name().to_string(),
                    out_start: seg.out_start,
                    frames: part.count,
                    stats: part.stats,
                    wall_ns: part.wall_ns,
                    parts: 1,
                    stage: part.stage,
                });
            }
        }
        Ok(())
    };
    let evictions_before = opts
        .segment_cache
        .as_deref()
        .and_then(|sc| sc.cache.as_deref())
        .map(|c| c.evictions());
    let report = execute_scheduled(plan, catalog, opts, Some(&cache), &mut deliver)?;
    for seg in &trace.segments {
        trace.totals = trace.totals.merge(seg.stats);
    }
    trace.totals.splits = report.splits;
    trace.totals.steals = report.steals;
    if let (Some(c), Some(before)) = (
        opts.segment_cache
            .as_deref()
            .and_then(|sc| sc.cache.as_deref()),
        evictions_before,
    ) {
        // Evictions are a property of the shared cache, not any one
        // part; attribute the delta this run caused to the run totals.
        trace.totals.cache.evictions += c.evictions().saturating_sub(before);
    }
    if let Some(injector) = &opts.fault {
        // Run-level, from the injector itself: a fault that killed its
        // part never reaches the per-part stats roll-up.
        trace.totals.faults_injected = injector.injections();
    }
    let out = writer.finish()?;
    let wall = started.elapsed();
    trace.wall_ns = wall.as_nanos() as u64;
    Ok((out, trace, wall))
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2v_codec::CodecParams;
    use v2v_frame::{marker, Frame, FrameType};
    use v2v_plan::{lower_spec, optimize, OptimizerConfig, SegPlan, Segment};
    use v2v_spec::builder::blur;
    use v2v_spec::{OutputSettings, SpecBuilder};
    use v2v_time::r;

    /// A lossless test stream whose frames carry index markers.
    fn marked_stream(n: usize, gop: u32) -> VideoStream {
        let ty = FrameType::gray8(64, 32);
        let params = CodecParams::new(ty, gop, 0);
        let mut w = StreamWriter::new(params, Rational::ZERO, r(1, 30));
        for i in 0..n {
            let mut f = Frame::black(ty);
            marker::embed(&mut f, i as u32);
            w.push_frame(&f).unwrap();
        }
        w.finish().unwrap()
    }

    fn output() -> OutputSettings {
        OutputSettings {
            frame_ty: FrameType::gray8(64, 32),
            frame_dur: r(1, 30),
            gop_size: 30,
            quantizer: 0,
        }
    }

    fn run(
        spec: &v2v_spec::Spec,
        catalog: &Catalog,
        cfg: &OptimizerConfig,
    ) -> (VideoStream, ExecStats) {
        let logical = lower_spec(spec).unwrap();
        let phys = optimize(&logical, &catalog.plan_context(), cfg).unwrap();
        let (out, stats, _) = execute(&phys, catalog, &ExecOptions::default()).unwrap();
        (out, stats)
    }

    #[test]
    fn clip_is_frame_exact_via_copy() {
        let mut catalog = Catalog::new();
        catalog.add_video("a", marked_stream(120, 30));
        // Clip [30/30, 90/30): starts on keyframe 30 → pure copy.
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_clip("a", r(1, 1), r(2, 1))
            .build();
        let (out, stats) = run(&spec, &catalog, &OptimizerConfig::default());
        assert_eq!(out.len(), 60);
        assert_eq!(stats.packets_copied, 60);
        assert_eq!(stats.frames_encoded, 0);
        let (frames, _) = out.decode_range(0, 60).unwrap();
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(marker::read(f), Some(30 + i as u32), "frame {i}");
        }
    }

    #[test]
    fn smart_cut_is_frame_exact() {
        let mut catalog = Catalog::new();
        catalog.add_video("a", marked_stream(120, 30));
        // Clip starting mid-GOP at frame 15.
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_clip("a", r(1, 2), r(2, 1))
            .build();
        let (out, stats) = run(&spec, &catalog, &OptimizerConfig::default());
        assert_eq!(out.len(), 60);
        assert!(stats.packets_copied >= 45, "middle copied");
        assert_eq!(stats.frames_encoded, 15, "head re-encoded");
        let (frames, _) = out.decode_range(0, 60).unwrap();
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(marker::read(f), Some(15 + i as u32), "frame {i}");
        }
    }

    #[test]
    fn optimized_equals_unsharded_render() {
        // A filtered clip rendered with and without sharding/parallelism
        // must produce identical frames (q=0).
        let mut catalog = Catalog::new();
        catalog.add_video("a", marked_stream(150, 30));
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_filtered("a", r(0, 1), r(4, 1), |e| blur(e, 1.0))
            .build();
        let (sharded, s1) = run(&spec, &catalog, &OptimizerConfig::default());
        let (plain, s2) = run(&spec, &catalog, &OptimizerConfig::fusion_only());
        assert!(s1.segments > s2.segments, "sharding must split segments");
        let (fa, _) = sharded.decode_range(0, sharded.len()).unwrap();
        let (fb, _) = plain.decode_range(0, plain.len()).unwrap();
        assert_eq!(fa.len(), fb.len());
        for (i, (a, b)) in fa.iter().zip(&fb).enumerate() {
            assert_eq!(a, b, "frame {i} differs between sharded and plain");
        }
    }

    #[test]
    fn splice_of_two_sources() {
        let mut catalog = Catalog::new();
        catalog.add_video("a", marked_stream(60, 30));
        catalog.add_video("b", marked_stream(60, 30));
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .video("b", "b.svc")
            .append_clip("a", r(0, 1), r(1, 1))
            .append_clip("b", r(1, 1), r(1, 1))
            .build();
        let (out, _) = run(&spec, &catalog, &OptimizerConfig::default());
        assert_eq!(out.len(), 60);
        let (frames, _) = out.decode_range(0, 60).unwrap();
        assert_eq!(marker::read(&frames[0]), Some(0));
        assert_eq!(marker::read(&frames[29]), Some(29));
        assert_eq!(marker::read(&frames[30]), Some(30)); // b's frame 30
        assert_eq!(marker::read(&frames[59]), Some(59));
    }

    #[test]
    fn missing_video_errors() {
        let catalog = Catalog::new();
        let plan = PhysicalPlan {
            segments: vec![Segment {
                out_start: 0,
                count: 1,
                plan: SegPlan::StreamCopy {
                    video: "ghost".into(),
                    src_from: 0,
                    src_to: 1,
                },
            }],
            out_params: CodecParams::new(FrameType::gray8(64, 32), 30, 0),
            frame_dur: r(1, 30),
            domain_start: Rational::ZERO,
            n_frames: 1,
            stats: Default::default(),
        };
        assert!(matches!(
            execute(&plan, &catalog, &ExecOptions::default()),
            Err(ExecError::UnknownVideo(_))
        ));
    }

    #[test]
    fn grid_query_shares_gops_through_cache() {
        // A 2×2 grid of four time-shifted views of one source: the four
        // cursors read overlapping GOPs, so all but the first lookup of
        // each GOP must come from the shared cache.
        use v2v_spec::builder::grid4;
        use v2v_spec::RenderExpr;
        let mut catalog = Catalog::new();
        catalog.add_video("a", marked_stream(120, 30));
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_with(r(1, 1), |_| {
                grid4(
                    RenderExpr::video("a"),
                    RenderExpr::video_shifted("a", r(1, 30)),
                    RenderExpr::video_shifted("a", r(2, 30)),
                    RenderExpr::video_shifted("a", r(3, 30)),
                )
            })
            .build();
        let logical = lower_spec(&spec).unwrap();
        let phys = optimize(
            &logical,
            &catalog.plan_context(),
            &OptimizerConfig::default(),
        )
        .unwrap();
        let (out, stats, _) = execute(&phys, &catalog, &ExecOptions::default()).unwrap();
        assert_eq!(out.len(), 30);
        assert!(
            stats.gop_cache_hits > 0,
            "grid inputs must share decoded GOPs: {stats:?}"
        );

        // Disabling the cache must not change the output.
        let (out_nc, stats_nc, _) = execute(
            &phys,
            &catalog,
            &ExecOptions {
                gop_cache_frames: 0,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(stats_nc.gop_cache_hits, 0);
        assert_eq!(stats_nc.gop_cache_misses, 0);
        let (fa, _) = out.decode_range(0, out.len()).unwrap();
        let (fb, _) = out_nc.decode_range(0, out_nc.len()).unwrap();
        assert_eq!(fa, fb, "cache on/off must be byte-identical");
    }

    #[test]
    fn serial_and_parallel_agree() {
        let mut catalog = Catalog::new();
        catalog.add_video("a", marked_stream(150, 30));
        let spec = SpecBuilder::new(output())
            .video("a", "a.svc")
            .append_filtered("a", r(0, 1), r(4, 1), |e| blur(e, 0.8))
            .build();
        let logical = lower_spec(&spec).unwrap();
        let phys = optimize(
            &logical,
            &catalog.plan_context(),
            &OptimizerConfig::default(),
        )
        .unwrap();
        let (par, _, _) = execute(&phys, &catalog, &ExecOptions::default()).unwrap();
        let (ser, _, _) = execute(
            &phys,
            &catalog,
            &ExecOptions {
                num_threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let (fa, _) = par.decode_range(0, par.len()).unwrap();
        let (fb, _) = ser.decode_range(0, ser.len()).unwrap();
        assert_eq!(fa, fb);
    }

    /// copy(1s..3s) + blur(4s..8s) over a 10 s source: a cheap stream
    /// copy at the head of the output, renders behind it.
    fn streaming_setup() -> (Catalog, PhysicalPlan) {
        let mut catalog = Catalog::new();
        catalog.add_video("src", marked_stream(300, 30));
        let spec = SpecBuilder::new(output())
            .video("src", "src.svc")
            .append_clip("src", r(1, 1), Rational::from_int(2))
            .append_filtered("src", r(4, 1), Rational::from_int(4), |e| blur(e, 1.0))
            .build();
        let logical = lower_spec(&spec).unwrap();
        let plan = optimize(
            &logical,
            &catalog.plan_context(),
            &OptimizerConfig::default(),
        )
        .unwrap();
        (catalog, plan)
    }

    #[test]
    fn streaming_output_matches_batch() {
        let (catalog, plan) = streaming_setup();
        let mut sink_count = 0usize;
        let (streamed, stats, total) =
            execute_streaming(&plan, &catalog, &ExecOptions::default(), |_| {
                sink_count += 1
            })
            .unwrap();
        let (batch, _, _) = execute(&plan, &catalog, &ExecOptions::default()).unwrap();
        assert_eq!(sink_count, streamed.len());
        assert_eq!(streamed.len(), batch.len());
        let (fa, _) = streamed.decode_range(0, streamed.len()).unwrap();
        let (fb, _) = batch.decode_range(0, batch.len()).unwrap();
        assert_eq!(fa, fb);
        assert!(Duration::from_nanos(stats.first_packet_ns) <= total);
    }

    #[test]
    fn sink_receives_packets_in_presentation_order() {
        let (catalog, plan) = streaming_setup();
        let mut keyframes_seen = 0;
        let mut count = 0usize;
        execute_streaming(&plan, &catalog, &ExecOptions::default(), |p| {
            if count == 0 {
                assert!(p.keyframe, "stream must open with a keyframe");
            }
            if p.keyframe {
                keyframes_seen += 1;
            }
            count += 1;
        })
        .unwrap();
        assert_eq!(count, 180);
        assert!(keyframes_seen >= plan.segments.len());
    }

    #[test]
    fn copy_first_plans_start_fast() {
        // A plan whose first segment is a copy should deliver its first
        // packet long before the blur-heavy tail finishes.
        let (catalog, plan) = streaming_setup();
        assert!(plan.segments[0].plan.is_copy(), "test premise");
        let (_, trace, total) =
            execute_streaming(&plan, &catalog, &ExecOptions::default(), |_| {}).unwrap();
        let time_to_first_packet = Duration::from_nanos(trace.first_packet_ns);
        assert!(
            time_to_first_packet < total / 2,
            "ttfp {:?} vs total {:?}",
            time_to_first_packet,
            total
        );
    }

    #[test]
    fn worker_errors_propagate() {
        let (catalog, mut plan) = streaming_setup();
        // Corrupt a segment to reference a missing video.
        if let SegPlan::StreamCopy { video, .. } = &mut plan.segments[0].plan {
            *video = "ghost".into();
        }
        assert!(execute_streaming(&plan, &catalog, &ExecOptions::default(), |_| {}).is_err());
    }

    /// Counts the numeric leaves of a serialized value, renumbering each
    /// one `1..=n` in visit order.
    fn renumber_leaves(v: &mut serde_json::Value, next: &mut u64) {
        match v {
            serde_json::Value::Number(_) => {
                *next += 1;
                *v = serde_json::Value::from(*next);
            }
            serde_json::Value::Object(map) => {
                let keys: Vec<String> = map.keys().cloned().collect();
                for key in keys {
                    renumber_leaves(map.get_mut(key.as_str()).unwrap(), next);
                }
            }
            _ => {}
        }
    }

    #[test]
    fn counter_table_has_one_row_per_stats_field() {
        // Give every numeric field of the serialized stats a distinct
        // value: the table must then carry each value exactly once,
        // under distinct names.
        let mut value = serde_json::to_value(ExecStats::default()).unwrap();
        let mut leaves = 0u64;
        renumber_leaves(&mut value, &mut leaves);
        let stats: ExecStats = serde_json::from_value(value).unwrap();
        let rows = stats.counters();
        assert_eq!(rows.len() as u64, leaves, "one row per numeric field");
        let mut values: Vec<u64> = rows.iter().map(|(_, v)| *v).collect();
        values.sort_unstable();
        assert_eq!(values, (1..=leaves).collect::<Vec<_>>());
        let names: std::collections::BTreeSet<&str> = rows.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), rows.len(), "names are unique");
    }
}
