//! Cost-based segment scheduling with runtime work splitting.
//!
//! The paper's runtime story (§IV-A) is to "use the dependency graph to
//! execute operators in parallel"; this module is the engine behind
//! the executor's parallelism. It improves on plain
//! segment-at-a-time fan-out in three ways:
//!
//! 1. **Cost-ordered dispatch.** Each segment's cost is estimated from
//!    the physical plan (copy ≈ packets, render ≈ frames × program
//!    width, the same weights as [`v2v_plan::CostModel`]) and work is
//!    handed out longest-processing-time-first, the classic makespan
//!    heuristic: expensive renders start first so they never become the
//!    lonely tail of the run.
//! 2. **Runtime splitting.** When a worker goes idle and the queue is
//!    dry, a running render *splits at an output-GOP boundary*: the
//!    remaining range is halved and the far half is pushed back as a
//!    stolen task. Output GOPs are independent under the codec (intra
//!    frames reference nothing, inter frames chain only within their
//!    GOP, and a fresh [`Encoder`] at a GOP boundary reproduces
//!    identical bytes), so splits are lossless — this replaces the
//!    planner's static `shard_gops` guess with dynamic balancing while
//!    keeping every arm byte-identical.
//! 3. **Intra-part pipelining.** Within a render part, a decode-ahead
//!    prefetch thread pulls source frames through [`SourceCursor`] /
//!    the shared GOP cache into a bounded channel, frames are composed
//!    in parallel over a batch window, and independent output GOPs are
//!    encoded concurrently, their packet runs spliced in order — the
//!    runtime analogue of the planner's lossless shard re-concat.
//!
//! Parts are emitted to a `deliver` callback **in presentation order**
//! (a reorder buffer holds early finishers), so the executor can splice
//! directly into a [`StreamWriter`] and hand packets to a streaming
//! sink as soon as the head of the output is ready. To keep that head
//! moving, dispatch is *delivery-aware*: the driver publishes the
//! absolute output frame it is waiting on, and a free worker takes the
//! queued task starting there before falling back to longest-first.
//!
//! [`StreamWriter`]: v2v_container::StreamWriter

use crate::apply::apply_program;
use crate::catalog::Catalog;
use crate::cursor::SourceCursor;
use crate::executor::{ExecOptions, ExecStats};
use crate::fault::{error_kind, ErrorPolicy, FaultAction, FaultInjector, SegmentFault};
use crate::gop_cache::GopCache;
use crate::render_cache::{CacheStats, CacheTier, SegmentCacheCtx};
use crate::single_flight::Join;
use crate::trace::StageTimes;
use crate::ExecError;
use crossbeam::channel;
use rayon::ThreadPoolBuilder;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;
use v2v_codec::{Encoder, Packet};
use v2v_frame::ops::{conform, conform_shared};
use v2v_frame::{Frame, FrameType};
use v2v_plan::{CostModel, FrameProgram, InputClip, PhysicalPlan, SegPlan, Segment};
use v2v_time::Rational;

/// Scheduler-level counters for one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedReport {
    /// Times a running render gave away half of its remaining range.
    pub splits: u64,
    /// Split-off tasks that were picked up by another worker.
    pub steals: u64,
}

/// One contiguous run of output packets produced by a worker: a whole
/// segment, or a GOP-aligned part of one after a runtime split.
#[derive(Debug)]
pub struct PartOutput {
    /// Index of the segment in the physical plan.
    pub seg_index: usize,
    /// Absolute output frame index of the part's first packet.
    pub abs_start: u64,
    /// Output frames in this part.
    pub count: u64,
    /// The part's packets, keyframe-first (parts start on GOP
    /// boundaries).
    pub packets: Vec<Packet>,
    /// Cost counters. `segments` is 1 only on a segment's first part so
    /// per-segment merges stay exact.
    pub stats: ExecStats,
    /// Busy time per pipeline stage.
    pub stage: StageTimes,
    /// Part wall time in nanoseconds.
    pub wall_ns: u64,
    /// Set when this part failed and was recovered, skipped, or
    /// substituted under the run's [`ErrorPolicy`].
    pub fault: Option<SegmentFault>,
    /// Set when the worker already persisted this part's segment to the
    /// render cache (a single-flight leader stores before publishing),
    /// so the delivery-side store accumulator must not store it again.
    pub cache_stored: bool,
}

/// A schedulable unit: a segment-relative frame range of one segment.
struct Task {
    seg_index: usize,
    /// Segment-relative first frame (a multiple of the output GOP size).
    from: u64,
    /// Segment-relative end frame (exclusive).
    to: u64,
    /// Estimated cost in [`CostModel`] units.
    cost: f64,
    /// `true` if this task was split off a running part.
    stolen: bool,
    /// `true` once the task has been pushed back because its fragment
    /// key was in flight on another run — deferred at most once so the
    /// queue always drains.
    deferred: bool,
}

struct SchedState {
    /// Pending tasks sorted by ascending cost (pop from the back = LPT).
    queue: Vec<Task>,
    running: usize,
    idle: usize,
    shutdown: bool,
    splits: u64,
    steals: u64,
}

/// State shared between workers, split probes, and the driver.
struct Shared {
    state: Mutex<SchedState>,
    work: Condvar,
    /// Mirror of `state.idle`, readable without the lock (split probes
    /// run on the hot path; a stale read only delays or skips one
    /// split, never breaks correctness).
    idle_hint: AtomicUsize,
    /// Mirror of `state.queue.len()`.
    queued_hint: AtomicUsize,
    /// The absolute output frame in-order delivery is waiting on,
    /// published by the driver (a stale read only costs one LPT pop).
    head: AtomicU64,
}

impl Shared {
    fn new(queue: Vec<Task>) -> Shared {
        let queued = queue.len();
        Shared {
            state: Mutex::new(SchedState {
                queue,
                running: 0,
                idle: 0,
                shutdown: false,
                splits: 0,
                steals: 0,
            }),
            work: Condvar::new(),
            idle_hint: AtomicUsize::new(0),
            queued_hint: AtomicUsize::new(queued),
            head: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SchedState> {
        self.state.lock().expect("scheduler state poisoned")
    }

    fn shutdown(&self) {
        self.lock().shutdown = true;
        self.work.notify_all();
    }

    fn report(&self) -> SchedReport {
        let st = self.lock();
        SchedReport {
            splits: st.splits,
            steals: st.steals,
        }
    }
}

/// Everything a worker needs to execute parts of one segment.
struct PartCtx<'a> {
    plan: &'a PhysicalPlan,
    seg: &'a Segment,
    seg_index: usize,
    catalog: &'a Catalog,
    cache: Option<&'a GopCache>,
    fault: Option<&'a FaultInjector>,
    /// Persistent segment cache for this run (`None` disables reuse;
    /// always `None` while a fault injector is active).
    seg_cache: Option<&'a SegmentCacheCtx>,
}

/// A split probe carried into a render loop: checked at output-GOP
/// boundaries, it gives the far half of the remaining range away when
/// another worker is hungry.
struct SplitProbe<'a> {
    shared: &'a Shared,
    seg_index: usize,
    /// Estimated cost per output frame, for pricing the split-off task.
    per_frame_cost: f64,
    /// The end this part still owns: lowered on every split. Error
    /// recovery retries only `[from, committed_end)` — the far halves a
    /// part gave away before failing belong to other workers.
    committed_end: AtomicU64,
}

impl SplitProbe<'_> {
    /// The highest frame index this part is still responsible for.
    fn owned_end(&self) -> u64 {
        self.committed_end.load(Ordering::Acquire)
    }

    /// Possibly splits the range `[j, end)` at a GOP boundary. Returns
    /// the (possibly lowered) end. `j` must be GOP-aligned relative to
    /// the segment start.
    fn maybe_split(&self, j: u64, end: u64, gop: u64) -> u64 {
        if self.shared.idle_hint.load(Ordering::Relaxed) == 0
            || self.shared.queued_hint.load(Ordering::Relaxed) > 0
        {
            return end;
        }
        let remaining = end.saturating_sub(j);
        let ngops = remaining.div_ceil(gop);
        if ngops < 2 {
            return end;
        }
        // Keep the near half (rounded up), give the far half away.
        let split_at = j + ngops.div_ceil(2) * gop;
        debug_assert!(split_at > j && split_at < end);
        let mut st = self.shared.lock();
        if st.shutdown {
            return end;
        }
        let task = Task {
            seg_index: self.seg_index,
            from: split_at,
            to: end,
            cost: self.per_frame_cost * (end - split_at) as f64,
            stolen: true,
            deferred: false,
        };
        let pos = st.queue.partition_point(|t| t.cost <= task.cost);
        st.queue.insert(pos, task);
        st.splits += 1;
        self.committed_end.store(split_at, Ordering::Release);
        self.shared
            .queued_hint
            .store(st.queue.len(), Ordering::Relaxed);
        drop(st);
        self.shared.work.notify_one();
        split_at
    }
}

/// Estimates a segment's execution cost in [`CostModel`] units,
/// mirroring the executor's actual cost structure: a copy is a
/// per-packet constant, a render pays decode + program ops + encode per
/// output pixel.
pub fn segment_cost(plan: &PhysicalPlan, seg: &Segment) -> f64 {
    match &seg.plan {
        SegPlan::StreamCopy { .. } => seg.count as f64 * CostModel::default().copy_per_packet,
        SegPlan::Render { program, inputs } => {
            seg.count as f64 * render_frame_cost(plan, program, inputs)
        }
    }
}

/// Estimated cost of rendering one output frame of a program.
fn render_frame_cost(plan: &PhysicalPlan, program: &FrameProgram, inputs: &[InputClip]) -> f64 {
    let model = CostModel::default();
    let px = f64::from(plan.out_params.frame_ty.width) * f64::from(plan.out_params.frame_ty.height);
    px * (inputs.len() as f64 * model.decode_per_pixel
        + program.op_count().max(1) as f64 * model.op_per_pixel
        + model.encode_per_pixel)
}

/// Executes every segment of `plan`, invoking `deliver` with each part
/// in presentation order. With one effective worker this is a plain
/// in-order loop; otherwise a cost-ordered worker pool with runtime
/// splitting and (optionally) intra-part pipelining.
pub(crate) fn execute_scheduled(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    opts: &ExecOptions,
    cache: Option<&GopCache>,
    deliver: &mut dyn FnMut(PartOutput) -> Result<(), ExecError>,
) -> Result<SchedReport, ExecError> {
    let workers = opts.effective_threads();
    let fault = opts.fault.as_deref().filter(|f| !f.is_empty());
    // Segment reuse is disabled while faults are being injected: a
    // degraded (skipped/substituted) part must never be persisted, and a
    // cache hit would mask the injection the test asked for.
    let seg_cache = if fault.is_none() {
        opts.segment_cache.as_deref()
    } else {
        None
    };
    let mut store_accum: Option<StoreAccum> = None;
    let mut deliver = |part: PartOutput| -> Result<(), ExecError> {
        if let Some(sc) = seg_cache {
            accumulate_for_store(sc, plan, &mut store_accum, &part);
        }
        deliver(part)
    };
    if workers <= 1 {
        for (i, seg) in plan.segments.iter().enumerate() {
            let ctx = PartCtx {
                plan,
                seg,
                seg_index: i,
                catalog,
                cache,
                fault,
                seg_cache,
            };
            let part = match run_part(&ctx, 0, seg.count, None, 0, 1) {
                Ok(part) => part,
                Err(err) => recover_part(&ctx, opts, 0, seg.count, 0, 1, err)?,
            };
            deliver(part)?;
        }
        return Ok(SchedReport::default());
    }

    let total: u64 = plan.segments.iter().map(|s| s.count).sum();
    let mut tasks: Vec<Task> = plan
        .segments
        .iter()
        .enumerate()
        .filter(|(_, seg)| seg.count > 0)
        .map(|(i, seg)| Task {
            seg_index: i,
            from: 0,
            to: seg.count,
            cost: segment_cost(plan, seg),
            stolen: false,
            deferred: false,
        })
        .collect();
    // Ascending cost, ties broken so the back of the queue (popped
    // first) is the earliest segment — better for streaming delivery.
    tasks.sort_by(|a, b| {
        a.cost
            .total_cmp(&b.cost)
            .then(b.seg_index.cmp(&a.seg_index))
    });
    let shared = Shared::new(tasks);
    let pipeline_frames = opts
        .pipeline_depth
        .saturating_mul(plan.out_params.gop_size as usize);
    let (tx, rx) = channel::unbounded::<Result<PartOutput, ExecError>>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let shared = &shared;
            scope.spawn(move || {
                worker_loop(
                    plan,
                    catalog,
                    cache,
                    opts,
                    shared,
                    workers,
                    pipeline_frames,
                    &tx,
                )
            });
        }
        drop(tx);
        drive(&rx, &mut deliver, total, &shared)
    })
}

/// The ordered-delivery driver: buffers early-finishing parts and
/// releases them to `deliver` strictly by absolute output position.
fn drive(
    rx: &channel::Receiver<Result<PartOutput, ExecError>>,
    deliver: &mut dyn FnMut(PartOutput) -> Result<(), ExecError>,
    total: u64,
    shared: &Shared,
) -> Result<SchedReport, ExecError> {
    let mut buffered: BTreeMap<u64, PartOutput> = BTreeMap::new();
    let mut next_abs = 0u64;
    let mut result: Result<(), ExecError> = Ok(());
    'recv: while next_abs < total {
        let part = rx
            .recv()
            .expect("scheduler workers deliver every part or an error");
        match part {
            Ok(part) => {
                buffered.insert(part.abs_start, part);
                while let Some(ready) = buffered.remove(&next_abs) {
                    let count = ready.count;
                    if let Err(e) = deliver(ready) {
                        result = Err(e);
                        break 'recv;
                    }
                    next_abs += count;
                }
                shared.head.store(next_abs, Ordering::Relaxed);
            }
            Err(e) => {
                result = Err(e);
                break 'recv;
            }
        }
    }
    shared.shutdown();
    result.map(|()| shared.report())
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    cache: Option<&GopCache>,
    opts: &ExecOptions,
    shared: &Shared,
    workers: usize,
    pipeline_frames: usize,
    tx: &channel::Sender<Result<PartOutput, ExecError>>,
) {
    let fault_active = opts.fault.as_deref().is_some_and(|f| !f.is_empty());
    let flight = if fault_active {
        None
    } else {
        opts.segment_cache
            .as_deref()
            .and_then(|sc| sc.flight.as_deref().map(|f| (sc, f)))
    };
    loop {
        let (task, running_now) = {
            let mut st = shared.lock();
            loop {
                if st.shutdown {
                    return;
                }
                let head = shared.head.load(Ordering::Relaxed);
                if let Some(t) = take_next(&mut st.queue, plan, head) {
                    // Overlap-aware dispatch: a whole segment whose key
                    // is being rendered by another run right now would
                    // only block on its flight — push it behind the
                    // other pending work (once) and take something that
                    // makes progress. By the time it is re-popped the
                    // other run has usually published.
                    if let Some((sc, flight)) = flight {
                        if !t.deferred
                            && !st.queue.is_empty()
                            && t.from == 0
                            && t.to == plan.segments[t.seg_index].count
                        {
                            if let Some(key) = sc.key(t.seg_index) {
                                if flight.is_inflight(&key) {
                                    let mut t = t;
                                    t.deferred = true;
                                    st.queue.insert(0, t);
                                    continue;
                                }
                            }
                        }
                    }
                    if t.stolen {
                        st.steals += 1;
                    }
                    st.running += 1;
                    shared.queued_hint.store(st.queue.len(), Ordering::Relaxed);
                    break (t, st.running);
                }
                if st.running == 0 {
                    st.shutdown = true;
                    drop(st);
                    shared.work.notify_all();
                    return;
                }
                st.idle += 1;
                shared.idle_hint.store(st.idle, Ordering::Relaxed);
                st = shared.work.wait(st).expect("scheduler state poisoned");
                st.idle -= 1;
                shared.idle_hint.store(st.idle, Ordering::Relaxed);
            }
        };
        let seg = &plan.segments[task.seg_index];
        let fault = opts.fault.as_deref().filter(|f| !f.is_empty());
        let ctx = PartCtx {
            plan,
            seg,
            seg_index: task.seg_index,
            catalog,
            cache,
            fault,
            seg_cache: if fault.is_none() {
                opts.segment_cache.as_deref()
            } else {
                None
            },
        };
        // A lone running part composes with the whole pool's width; with
        // many parts in flight each keeps roughly its fair share.
        let fanout = (workers / running_now.max(1)).max(1);
        let probe = opts.runtime_split.then(|| SplitProbe {
            shared,
            seg_index: task.seg_index,
            per_frame_cost: if task.to > task.from {
                task.cost / (task.to - task.from) as f64
            } else {
                0.0
            },
            committed_end: AtomicU64::new(task.to),
        });
        let res = run_part(
            &ctx,
            task.from,
            task.to,
            probe.as_ref(),
            pipeline_frames,
            fanout,
        );
        let res = match res {
            Ok(part) => Ok(part),
            Err(err) => {
                // Retry only the range this part still owns: far halves
                // given away by earlier splits run on other workers.
                let end = probe
                    .as_ref()
                    .map(|p| p.owned_end())
                    .unwrap_or(task.to)
                    .min(task.to);
                recover_part(&ctx, opts, task.from, end, pipeline_frames, fanout, err)
            }
        };
        let failed = res.is_err();
        {
            let mut st = shared.lock();
            st.running -= 1;
            if failed || (st.queue.is_empty() && st.running == 0) {
                st.shutdown = true;
            }
        }
        shared.work.notify_all();
        // A send failure only means the driver already bailed.
        let _ = tx.send(res);
        if failed {
            return;
        }
    }
}

/// Delivery-aware LPT: the queued task that starts at the frame
/// in-order delivery is waiting on (`head`), if there is one, else the
/// costliest. A task already deferred behind an in-flight render is
/// left to the LPT order, so it is not re-taken at once.
fn take_next(queue: &mut Vec<Task>, plan: &PhysicalPlan, head: u64) -> Option<Task> {
    let at = queue
        .iter()
        .rposition(|t| !t.deferred && plan.segments[t.seg_index].out_start + t.from == head)
        .or_else(|| queue.len().checked_sub(1))?;
    Some(queue.remove(at))
}

/// True when a fragment can stand in for this whole segment: identical
/// frame count, grid, and codec parameters. Content-addressed keys make
/// a mismatch nearly impossible; the check keeps a hash collision or a
/// foreign cache directory from corrupting output.
fn fragment_matches(ctx: &PartCtx<'_>, frag: &v2v_container::Fragment) -> bool {
    frag.len() as u64 == ctx.seg.count
        && frag.frame_dur() == ctx.plan.frame_dur
        && frag.params().compatible_with(&ctx.plan.out_params)
}

/// A whole-segment part whose packets come from a reused fragment, with
/// the given cache attribution.
fn part_from_fragment(
    ctx: &PartCtx<'_>,
    frag: &v2v_container::Fragment,
    cache: CacheStats,
) -> PartOutput {
    PartOutput {
        seg_index: ctx.seg_index,
        abs_start: ctx.seg.out_start,
        count: ctx.seg.count,
        packets: frag.packets().to_vec(),
        stats: ExecStats {
            segments: 1,
            cache,
            ..Default::default()
        },
        stage: StageTimes::default(),
        wall_ns: 0,
        fault: None,
        cache_stored: false,
    }
}

/// Loads this segment's fragment from the memory/disk tiers, if
/// present and valid, returning the attributed part plus the fragment
/// (so a single-flight leader can publish it to followers).
fn load_cached_part(
    ctx: &PartCtx<'_>,
    sc: &SegmentCacheCtx,
    key: u64,
) -> Option<(PartOutput, Arc<v2v_container::Fragment>)> {
    let cache = sc.cache.as_deref()?;
    let (frag, tier) = cache.load_segment_tiered(key)?;
    if !fragment_matches(ctx, &frag) {
        return None;
    }
    let stats = CacheStats {
        segment_hits: 1,
        bytes_reused: frag.byte_size(),
        mem_hits: u64::from(tier == CacheTier::Memory),
        ..Default::default()
    };
    Some((part_from_fragment(ctx, &frag, stats), frag))
}

/// Asks the remote dispatch hook for this segment's fragment. The
/// transport is responsible for digest verification; here the fragment
/// is additionally shape-checked against the plan, persisted to the
/// local cache (so the coordinator's own tiers warm up for the next
/// query), and attributed as a remote segment. `None` on any failure —
/// the caller falls back to an in-process render.
fn remote_part(
    ctx: &PartCtx<'_>,
    sc: &SegmentCacheCtx,
    key: u64,
) -> Option<(PartOutput, Arc<v2v_container::Fragment>)> {
    let remote = sc.remote.as_deref()?;
    let cost = segment_cost(ctx.plan, ctx.seg);
    let frag = remote.render_remote(ctx.seg_index, key, cost)?;
    if !fragment_matches(ctx, &frag) {
        return None;
    }
    let frag = Arc::new(frag);
    let stats = CacheStats {
        remote_segments: 1,
        bytes_reused: frag.byte_size(),
        ..Default::default()
    };
    let mut part = part_from_fragment(ctx, &frag, stats);
    if let Some(cache) = sc.cache.as_deref() {
        if cache.store_segment(key, &frag).is_ok() {
            part.cache_stored = true;
        }
    }
    Some((part, frag))
}

/// Renders one segment range, sharing work through the segment-cache
/// context when the range is a whole keyed segment.
///
/// Ordering invariant: the flight is joined **before** the cache tiers
/// are consulted, and a leader stores to disk **before** publishing.
/// Any concurrent duplicate therefore either joins the flight or finds
/// the entry on disk — a segment is never rendered twice, under any
/// interleaving.
#[allow(clippy::too_many_arguments)]
fn render_segment(
    ctx: &PartCtx<'_>,
    program: &FrameProgram,
    inputs: &[InputClip],
    from: u64,
    to: u64,
    probe: Option<&SplitProbe<'_>>,
    pipeline_frames: usize,
    fanout: usize,
) -> Result<PartOutput, ExecError> {
    // Only whole segments are shared or cached: a split range would
    // interleave reused and freshly encoded packets inside one encoder
    // session.
    let whole = from == 0 && to == ctx.seg.count && ctx.seg.count > 0 && ctx.fault.is_none();
    let keyed = whole.then(|| {
        ctx.seg_cache
            .and_then(|sc| sc.key(ctx.seg_index).map(|k| (sc, k)))
    });
    let Some(Some((sc, key))) = keyed else {
        return render_fresh(
            ctx,
            program,
            inputs,
            from,
            to,
            probe,
            pipeline_frames,
            fanout,
        );
    };
    let Some(flight) = sc.flight.as_deref() else {
        // No concurrent sharing (one-shot `v2v run`): memory/disk tiers,
        // then remote dispatch, then a fresh render that may split under
        // the probe.
        if let Some((part, _)) = load_cached_part(ctx, sc, key) {
            return Ok(part);
        }
        if let Some((part, _)) = remote_part(ctx, sc, key) {
            return Ok(part);
        }
        return render_fresh(
            ctx,
            program,
            inputs,
            from,
            to,
            probe,
            pipeline_frames,
            fanout,
        );
    };
    match flight.join(key) {
        Join::Leader(guard) => {
            if let Some((part, frag)) = load_cached_part(ctx, sc, key) {
                guard.publish(frag);
                return Ok(part);
            }
            // Remote dispatch before a local render: the received
            // fragment is stored to disk first (inside `remote_part`),
            // so the store-before-publish invariant holds here too.
            if let Some((part, frag)) = remote_part(ctx, sc, key) {
                guard.publish(frag);
                return Ok(part);
            }
            // Render the whole segment without a split probe: waiters
            // need one coherent fragment, and giving half away would
            // leave them with nothing to subscribe to. The daemon's
            // concurrent jobs keep the other workers busy instead.
            let mut part = render_fresh(
                ctx,
                program,
                inputs,
                from,
                to,
                None,
                pipeline_frames,
                fanout,
            )?;
            match v2v_container::Fragment::new(
                ctx.plan.out_params,
                ctx.plan.frame_dur,
                part.packets.clone(),
            ) {
                Ok(frag) => {
                    let frag = Arc::new(frag);
                    // Disk before publish: a latecomer that misses the
                    // drained flight must find the entry on disk.
                    if let Some(cache) = sc.cache.as_deref() {
                        if cache.store_segment(key, &frag).is_ok() {
                            part.cache_stored = true;
                        }
                    }
                    guard.publish(frag);
                }
                // An unfragmentable part (shouldn't happen for a clean
                // whole render): drop the guard so waiters fall back.
                Err(_) => drop(guard),
            }
            Ok(part)
        }
        Join::Follower(Some(frag)) if fragment_matches(ctx, &frag) => {
            let stats = CacheStats {
                shared_segment_hits: 1,
                bytes_reused: frag.byte_size(),
                ..Default::default()
            };
            Ok(part_from_fragment(ctx, &frag, stats))
        }
        // Leader failed, or (vanishingly unlikely) published a fragment
        // that does not fit this plan: render locally, probe allowed.
        Join::Follower(_) => render_fresh(
            ctx,
            program,
            inputs,
            from,
            to,
            probe,
            pipeline_frames,
            fanout,
        ),
    }
}

/// Dispatches a fresh render of `[from, to)` to the pipelined or
/// sequential loop.
#[allow(clippy::too_many_arguments)]
fn render_fresh(
    ctx: &PartCtx<'_>,
    program: &FrameProgram,
    inputs: &[InputClip],
    from: u64,
    to: u64,
    probe: Option<&SplitProbe<'_>>,
    pipeline_frames: usize,
    fanout: usize,
) -> Result<PartOutput, ExecError> {
    if pipeline_frames > 0 {
        run_render_pipelined(
            ctx,
            program,
            inputs,
            from,
            to,
            probe,
            pipeline_frames,
            fanout,
        )
    } else {
        run_render_sequential(ctx, program, inputs, from, to, probe)
    }
}

/// In-flight state for persisting one segment's rendered packets: parts
/// of a segment reach the deliver callback contiguously and in order,
/// so a single accumulator suffices.
struct StoreAccum {
    seg_index: usize,
    key: u64,
    packets: Vec<Packet>,
    delivered: u64,
    clean: bool,
}

/// Feeds one delivered part into the segment-store accumulator and
/// flushes a finished segment to the persistent cache. Parts that were
/// themselves cache hits (local, shared, or already stored by a
/// single-flight leader), segments without a key (stream copies, UDF
/// programs), and segments touched by fault recovery are never stored.
fn accumulate_for_store(
    sc: &SegmentCacheCtx,
    plan: &PhysicalPlan,
    accum: &mut Option<StoreAccum>,
    part: &PartOutput,
) {
    if part.cache_stored
        || part.stats.cache.segment_hits > 0
        || part.stats.cache.shared_segment_hits > 0
    {
        return;
    }
    let Some(cache) = sc.cache.as_deref() else {
        return;
    };
    let Some(seg) = plan.segments.get(part.seg_index) else {
        return;
    };
    if seg.count == 0 {
        return;
    }
    let Some(key) = sc.key(part.seg_index) else {
        return;
    };
    if part.abs_start == seg.out_start {
        *accum = Some(StoreAccum {
            seg_index: part.seg_index,
            key,
            packets: Vec::with_capacity(seg.count as usize),
            delivered: 0,
            clean: true,
        });
    }
    let Some(acc) = accum.as_mut() else { return };
    if acc.seg_index != part.seg_index {
        return;
    }
    acc.clean &= part.fault.is_none();
    acc.delivered += part.count;
    if acc.clean {
        acc.packets.extend(part.packets.iter().cloned());
    }
    if acc.delivered >= seg.count {
        if acc.clean && acc.delivered == seg.count {
            if let Ok(frag) = v2v_container::Fragment::new(
                plan.out_params,
                plan.frame_dur,
                std::mem::take(&mut acc.packets),
            ) {
                // A failed store (disk full, permissions) only costs the
                // next run a re-render; never fail the query for it.
                let _ = cache.store_segment(acc.key, &frag);
            }
        }
        *accum = None;
    }
}

/// Executes the segment-relative range `[from, to)` of one segment.
/// Renders may end early (at a GOP boundary) if the probe split the
/// range; the returned part covers exactly what was produced.
fn run_part(
    ctx: &PartCtx<'_>,
    from: u64,
    to: u64,
    probe: Option<&SplitProbe<'_>>,
    pipeline_frames: usize,
    fanout: usize,
) -> Result<PartOutput, ExecError> {
    let started = Instant::now();
    let mut part = match &ctx.seg.plan {
        SegPlan::StreamCopy {
            video,
            src_from,
            src_to,
        } => {
            debug_assert!(from == 0 && to == ctx.seg.count, "copies are never split");
            let stream = ctx
                .catalog
                .video(video)
                .ok_or_else(|| ExecError::UnknownVideo(video.clone()))?;
            let packets =
                stream.copy_packet_range(*src_from as usize, *src_to as usize, Rational::ZERO)?;
            let stats = ExecStats {
                packets_copied: packets.len() as u64,
                bytes_copied: packets.iter().map(|p| p.size() as u64).sum(),
                segments: 1,
                ..Default::default()
            };
            PartOutput {
                seg_index: ctx.seg_index,
                abs_start: ctx.seg.out_start,
                count: ctx.seg.count,
                packets,
                stats,
                stage: StageTimes::default(),
                wall_ns: 0,
                fault: None,
                cache_stored: false,
            }
        }
        SegPlan::Render { program, inputs } => render_segment(
            ctx,
            program,
            inputs,
            from,
            to,
            probe,
            pipeline_frames,
            fanout,
        )?,
    };
    part.wall_ns = started.elapsed().as_nanos() as u64;
    Ok(part)
}

/// Applies the run's [`ErrorPolicy`] to a failed part: bounded retries
/// first (a transient fault recovers byte-identically, since the retry
/// re-runs the same GOP-aligned range), then skip or substitute.
/// `[from, to)` is the range the failed part still owned — far halves
/// already given away by splits belong to other workers. Under
/// [`ErrorPolicy::Abort`] (or when even the black-frame fallback fails)
/// the last error propagates.
fn recover_part(
    ctx: &PartCtx<'_>,
    opts: &ExecOptions,
    from: u64,
    to: u64,
    pipeline_frames: usize,
    fanout: usize,
    err: ExecError,
) -> Result<PartOutput, ExecError> {
    let mut retries = 0u64;
    let mut last_err = err;
    while retries < u64::from(opts.max_retries) {
        retries += 1;
        // Retry without a split probe: determinism over load balancing
        // on the recovery path.
        match run_part(ctx, from, to, None, pipeline_frames, fanout) {
            Ok(mut part) => {
                part.stats.retries = retries;
                part.fault = Some(SegmentFault {
                    seg_index: ctx.seg_index as u64,
                    abs_start: ctx.seg.out_start + from,
                    frames: to - from,
                    action: FaultAction::Recovered,
                    retries,
                    error: last_err.to_string(),
                    kind: error_kind(&last_err).to_string(),
                });
                return Ok(part);
            }
            Err(e) => last_err = e,
        }
    }
    let error_text = last_err.to_string();
    let kind_text = error_kind(&last_err).to_string();
    let fault = |action: FaultAction| SegmentFault {
        seg_index: ctx.seg_index as u64,
        abs_start: ctx.seg.out_start + from,
        frames: to - from,
        action,
        retries,
        error: error_text.clone(),
        kind: kind_text.clone(),
    };
    let mut stats = ExecStats {
        segments: u64::from(from == 0),
        retries,
        ..Default::default()
    };
    match opts.on_error {
        ErrorPolicy::Abort => Err(last_err),
        ErrorPolicy::SkipSegment => {
            stats.parts_skipped = 1;
            Ok(PartOutput {
                seg_index: ctx.seg_index,
                abs_start: ctx.seg.out_start + from,
                count: to - from,
                packets: Vec::new(),
                stats,
                stage: StageTimes::default(),
                wall_ns: 0,
                fault: Some(fault(FaultAction::Skipped)),
                cache_stored: false,
            })
        }
        ErrorPolicy::SubstituteBlack => {
            let packets = encode_black(ctx, from, to)?;
            stats.parts_substituted = 1;
            stats.frames_substituted = to - from;
            stats.frames_encoded = to - from;
            stats.bytes_encoded = packets.iter().map(|p| p.size() as u64).sum();
            Ok(PartOutput {
                seg_index: ctx.seg_index,
                abs_start: ctx.seg.out_start + from,
                count: to - from,
                packets,
                stats,
                stage: StageTimes::default(),
                wall_ns: 0,
                fault: Some(fault(FaultAction::SubstitutedBlack)),
                cache_stored: false,
            })
        }
    }
}

/// Encodes black frames over `[from, to)` on the output grid, one fresh
/// encoder per output GOP so the keyframe cadence matches a clean run
/// (`from` is GOP-aligned: parts start on GOP boundaries).
fn encode_black(ctx: &PartCtx<'_>, from: u64, to: u64) -> Result<Vec<Packet>, ExecError> {
    let gop = u64::from(ctx.plan.out_params.gop_size.max(1));
    let black = Frame::black(ctx.plan.out_params.frame_ty);
    let mut packets = Vec::with_capacity((to - from) as usize);
    let mut wj = from;
    while wj < to {
        let n = gop.min(to - wj) as usize;
        let frames: Vec<Frame> = (0..n).map(|_| black.clone()).collect();
        let (run, _) = encode_window(ctx, wj, &frames)?;
        packets.extend(run);
        wj += n as u64;
    }
    Ok(packets)
}

/// One forward cursor per input slot, each carrying its stream's
/// catalog identity and (optionally) the shared GOP cache.
///
/// A clip retargeted at a storage variant decodes from the variant
/// bitstream under a distinct cache identity (`name#kind`), so cached
/// GOPs never mix bitstreams. The variant choice is advisory: when the
/// variant is not attached here (a worker without the store, a variant
/// dropped since planning), the cursor falls back to the original —
/// decode-sufficient variants are pixel-identical, so output bytes do
/// not depend on which stream actually serves the read.
fn build_cursors<'a>(
    ctx: &PartCtx<'a>,
    inputs: &'a [InputClip],
) -> Result<Vec<(SourceCursor<'a>, &'a InputClip)>, ExecError> {
    inputs
        .iter()
        .map(|clip| {
            let resolved = if clip.variant.is_original() {
                None
            } else {
                ctx.catalog.variant(&clip.video, clip.variant)
            };
            let (stream, ident) = match resolved {
                Some(v) => (&*v.stream, format!("{}#{}", clip.video, clip.variant)),
                None => match ctx.catalog.video(&clip.video) {
                    Some(s) => (&**s, clip.video.clone()),
                    None => return Err(ExecError::UnknownVideo(clip.video.clone())),
                },
            };
            let mut cursor = SourceCursor::new(stream, ident);
            if let Some(cache) = ctx.cache {
                cursor = cursor.with_cache(cache);
            }
            if let Some(fault) = ctx.fault {
                cursor = cursor.with_fault(fault);
            }
            Ok((cursor, clip))
        })
        .collect()
}

/// Reads each input's frame for output instant `t`, conformed to the
/// output frame type.
fn gather_inputs(
    cursors: &mut [(SourceCursor<'_>, &InputClip)],
    t: Rational,
    out_ty: FrameType,
) -> Result<Vec<Arc<Frame>>, ExecError> {
    let mut frames = Vec::with_capacity(cursors.len());
    for (cursor, clip) in cursors {
        let src_t = clip.time.apply(t);
        let idx = cursor
            .stream()
            .index_of(src_t)
            .ok_or_else(|| ExecError::MissingFrame {
                video: clip.video.clone(),
                at: src_t,
            })?;
        let frame = cursor.frame_at(idx as u64)?;
        frames.push(conform_shared(&frame, out_ty));
    }
    Ok(frames)
}

fn collect_cursor_stats(cursors: &[(SourceCursor<'_>, &InputClip)], stats: &mut ExecStats) {
    for (c, _) in cursors {
        stats.frames_decoded += c.frames_decoded;
        stats.bytes_decoded += c.bytes_decoded;
        stats.seeks += c.seeks;
        stats.gop_cache_hits += c.gop_cache_hits;
        stats.gop_cache_misses += c.gop_cache_misses;
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// The classic decode → compose → encode loop over `[from, to)`, with
/// split probes at output-GOP boundaries.
fn run_render_sequential(
    ctx: &PartCtx<'_>,
    program: &FrameProgram,
    inputs: &[InputClip],
    from: u64,
    to: u64,
    probe: Option<&SplitProbe<'_>>,
) -> Result<PartOutput, ExecError> {
    let gop = u64::from(ctx.plan.out_params.gop_size);
    let out_ty = ctx.plan.out_params.frame_ty;
    let mut cursors = build_cursors(ctx, inputs)?;
    let mut encoder = Encoder::new(ctx.plan.out_params);
    let mut stats = ExecStats::default();
    let mut stage = StageTimes::default();
    let mut end = to;
    let mut packets = Vec::with_capacity((end - from) as usize);
    let mut j = from;
    while j < end {
        if j % gop == 0 {
            if let Some(p) = probe {
                end = p.maybe_split(j, end, gop);
                if j >= end {
                    break;
                }
            }
        }
        let t0 = Instant::now();
        let t = ctx.plan.instant_of(ctx.seg.out_start + j);
        let frames = gather_inputs(&mut cursors, t, out_ty)?;
        let t1 = Instant::now();
        let out = apply_program(program, t, &frames, ctx.catalog.arrays(), ctx.catalog)?;
        let out = conform(&out, out_ty);
        let t2 = Instant::now();
        let pts = ctx.plan.frame_dur * Rational::from_int(j as i64);
        let pkt = encoder.encode(&out, pts)?;
        stage.decode_ns += (t1 - t0).as_nanos() as u64;
        stage.compose_ns += (t2 - t1).as_nanos() as u64;
        stage.encode_ns += elapsed_ns(t2);
        stats.frames_encoded += 1;
        stats.bytes_encoded += pkt.size() as u64;
        packets.push(pkt);
        j += 1;
    }
    collect_cursor_stats(&cursors, &mut stats);
    stats.segments = u64::from(from == 0);
    Ok(PartOutput {
        seg_index: ctx.seg_index,
        abs_start: ctx.seg.out_start + from,
        count: j - from,
        packets,
        stats,
        stage,
        wall_ns: 0,
        fault: None,
        cache_stored: false,
    })
}

/// The pipelined render: a prefetch thread decodes ahead through the
/// cursors into a bounded channel while this thread composes batches in
/// parallel and encodes independent output GOPs concurrently.
#[allow(clippy::too_many_arguments)]
fn run_render_pipelined(
    ctx: &PartCtx<'_>,
    program: &FrameProgram,
    inputs: &[InputClip],
    from: u64,
    to: u64,
    probe: Option<&SplitProbe<'_>>,
    pipeline_frames: usize,
    fanout: usize,
) -> Result<PartOutput, ExecError> {
    let gop = u64::from(ctx.plan.out_params.gop_size);
    let out_ty = ctx.plan.out_params.frame_ty;
    debug_assert!(pipeline_frames as u64 % gop == 0, "depth is whole GOPs");
    // Lowered on split so the prefetcher stops decoding the given-away
    // range as soon as it next checks.
    let end_ctrl = AtomicU64::new(to);
    let (tx, rx) = channel::bounded::<(u64, Rational, Vec<Arc<Frame>>)>(pipeline_frames.max(1));
    let pool = ThreadPoolBuilder::new()
        .num_threads(fanout)
        .build()
        .expect("compose pool");

    std::thread::scope(|scope| {
        let end_ctrl = &end_ctrl;
        let prefetch = scope.spawn(move || -> Result<(ExecStats, u64), ExecError> {
            let mut cursors = build_cursors(ctx, inputs)?;
            let mut decode_ns = 0u64;
            let mut j = from;
            while j < end_ctrl.load(Ordering::Acquire) {
                let t0 = Instant::now();
                let t = ctx.plan.instant_of(ctx.seg.out_start + j);
                let frames = gather_inputs(&mut cursors, t, out_ty)?;
                decode_ns += elapsed_ns(t0);
                if tx.send((j, t, frames)).is_err() {
                    break; // consumer finished early (split or error)
                }
                j += 1;
            }
            let mut stats = ExecStats::default();
            collect_cursor_stats(&cursors, &mut stats);
            Ok((stats, decode_ns))
        });

        // Consume: batches of up to `pipeline_frames` frames, composed in
        // parallel, then encoded one GOP per lane. `Err(None)` marks a
        // starved channel (the prefetcher died; its join has the cause).
        let consumed = (|| -> Result<_, Option<ExecError>> {
            let mut end = to;
            let mut packets = Vec::with_capacity((end - from) as usize);
            let mut stats = ExecStats::default();
            let mut stage = StageTimes::default();
            let mut j = from;
            while j < end {
                if let Some(p) = probe {
                    end = p.maybe_split(j, end, gop);
                    end_ctrl.store(end, Ordering::Release);
                    if j >= end {
                        break;
                    }
                }
                let batch_end = end.min(j + pipeline_frames as u64);
                let mut batch: Vec<(u64, Rational, Vec<Arc<Frame>>)> =
                    Vec::with_capacity((batch_end - j) as usize);
                while j + (batch.len() as u64) < batch_end {
                    let item = rx.recv().map_err(|_| None)?;
                    debug_assert_eq!(item.0, j + batch.len() as u64, "frames arrive in order");
                    batch.push(item);
                }
                let t1 = Instant::now();
                let composed: Vec<Frame> = pool
                    .install(|| {
                        use rayon::prelude::*;
                        batch
                            .par_iter()
                            .map(|(_, t, frames)| {
                                apply_program(
                                    program,
                                    *t,
                                    frames,
                                    ctx.catalog.arrays(),
                                    ctx.catalog,
                                )
                                .map(|f| conform(&f, out_ty))
                            })
                            .collect::<Result<Vec<Frame>, ExecError>>()
                    })
                    .map_err(Some)?;
                let t2 = Instant::now();
                // Output GOPs are codec-independent: encode them in
                // parallel with fresh encoders, splice runs in order.
                let windows: Vec<(u64, &[Frame])> = composed
                    .chunks(gop as usize)
                    .enumerate()
                    .map(|(w, frames)| (j + (w as u64) * gop, frames))
                    .collect();
                let runs: Vec<(Vec<Packet>, u64)> = pool
                    .install(|| {
                        use rayon::prelude::*;
                        windows
                            .par_iter()
                            .map(|(wj, frames)| encode_window(ctx, *wj, frames))
                            .collect::<Result<Vec<_>, ExecError>>()
                    })
                    .map_err(Some)?;
                stage.compose_ns += (t2 - t1).as_nanos() as u64;
                stage.encode_ns += elapsed_ns(t2);
                for (run, bytes) in runs {
                    stats.frames_encoded += run.len() as u64;
                    stats.bytes_encoded += bytes;
                    packets.extend(run);
                }
                j = batch_end;
            }
            Ok((packets, stats, stage, j))
        })();
        drop(rx); // unblock a prefetcher stuck on a full channel
        let prefetched = prefetch.join().expect("prefetch thread panicked");

        match (consumed, prefetched) {
            (Ok((packets, mut stats, mut stage, end)), Ok((dec_stats, decode_ns))) => {
                stats = stats.merge(dec_stats);
                stats.segments = u64::from(from == 0);
                stage.decode_ns += decode_ns;
                Ok(PartOutput {
                    seg_index: ctx.seg_index,
                    abs_start: ctx.seg.out_start + from,
                    count: end - from,
                    packets,
                    stats,
                    stage,
                    wall_ns: 0,
                    fault: None,
                    cache_stored: false,
                })
            }
            (_, Err(e)) => Err(e),
            (Err(Some(e)), Ok(_)) => Err(e),
            (Err(None), Ok(_)) => unreachable!("prefetch finished but the pipeline starved"),
        }
    })
}

/// Encodes one output GOP with a fresh encoder. `wj` is the window's
/// segment-relative first frame (a GOP multiple, so the fresh encoder's
/// keyframe cadence matches an unsplit run exactly).
fn encode_window(
    ctx: &PartCtx<'_>,
    wj: u64,
    frames: &[Frame],
) -> Result<(Vec<Packet>, u64), ExecError> {
    let mut encoder = Encoder::new(ctx.plan.out_params);
    let mut packets = Vec::with_capacity(frames.len());
    let mut bytes = 0u64;
    for (k, frame) in frames.iter().enumerate() {
        let pts = ctx.plan.frame_dur * Rational::from_int((wj + k as u64) as i64);
        let pkt = encoder.encode(frame, pts)?;
        bytes += pkt.size() as u64;
        packets.push(pkt);
    }
    Ok((packets, bytes))
}
