//! `live_subscribe`: one `/subscribe` over a growing KABR-like live
//! source. A generator thread posts one-second, GOP-aligned
//! installments to `/append/live` on a fixed schedule (open loop); an op
//! is one append → delta, timed from when the append was due to when
//! the delta that covers it arrives. History grows through the run, so
//! any per-append cost proportional to history shows as rising latency
//! (the first- and last-quarter medians are printed).
//!
//! The cumulative stream the client reassembles is checked against a
//! cold one-shot render of the same query at every tenth delta and at
//! the final length.

use crate::harness::{self, Op, Outcome, RssSampler, Timed, WorkDir};
use crate::inputs;
use crate::stats;
use crate::trace::{self, OpTrace, Replayed};
use crate::RunArgs;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use v2v_container::VideoStream;
use v2v_core::{EngineConfig, V2vEngine};
use v2v_datasets::{kabr_sim, Scale};
use v2v_exec::{Catalog, FragmentFlight, RenderCache};
use v2v_plan::VariantPolicy;
use v2v_serve::http::client;
use v2v_serve::sub::{delta_between, read_delta, DeltaApplier, DeltaHeader};
use v2v_serve::{ServeConfig, ServerHandle, V2vServer};
use v2v_spec::builder::blur;
use v2v_spec::{Spec, SpecBuilder};
use v2v_time::{r, Rational};

/// Frames of history before the first append (10 s).
const INITIAL_FRAMES: usize = 300;

/// Frames per installment: one second, one source GOP.
const STEP_FRAMES: usize = 30;

/// Installment schedule. Per-append latency grows with history (about
/// 1.6 ms per second of history on two cores); at this pace a 15 s run
/// ends near 150 ms, well inside the interval, so deltas never queue.
const INTERVAL: Duration = Duration::from_millis(250);

/// Nominal op count in a 15 s run: sets the tail percentile.
const NOMINAL_OPS: usize = 60;

/// A cumulative stream is checked against a cold render every this many
/// deltas (and at the end).
const CHECK_EVERY: usize = 10;

struct Setup {
    history: Arc<VideoStream>,
    installments: Vec<Vec<u8>>,
    spec: Spec,
    dir: WorkDir,
    handle: ServerHandle,
    stream: client::StreamingResponse,
    applier: DeltaApplier,
}

impl Drop for Setup {
    fn drop(&mut self) {
        let _ = self
            .stream
            .reader
            .get_ref()
            .shutdown(std::net::Shutdown::Both);
        self.handle.stop();
    }
}

/// The first `n` frames of the history as a stream.
fn prefix(history: &VideoStream, n: usize) -> VideoStream {
    let packets = history
        .copy_packet_range(0, n, history.start())
        .expect("history prefix");
    VideoStream::new(
        *history.params(),
        history.start(),
        history.frame_dur(),
        packets,
    )
    .expect("prefix stream")
}

fn setup(seed: u64, installments: usize) -> Setup {
    let mut ds = kabr_sim(Scale::Test, 1);
    ds.seed = inputs::mix(seed, 5);
    let total = INITIAL_FRAMES + installments * STEP_FRAMES;
    let history = Arc::new(inputs::flights(&ds, total));
    let installments = (0..installments)
        .map(|k| {
            let a = INITIAL_FRAMES + k * STEP_FRAMES;
            let at = history.start() + history.frame_dur() * Rational::from_int(a as i64);
            let packets = history
                .copy_packet_range(a, a + STEP_FRAMES, at)
                .expect("installment packets");
            let tail = VideoStream::new(*history.params(), at, history.frame_dur(), packets)
                .expect("installment stream");
            v2v_container::svc_to_bytes(&tail).expect("installment bytes")
        })
        .collect();
    // The subscribed query asks for the whole eventual domain; the
    // daemon clamps each refresh to what the source holds so far.
    let output = v2v_spec::OutputSettings {
        frame_ty: ds.codec_params().frame_ty,
        frame_dur: ds.frame_dur(),
        gop_size: ds.fps as u32,
        quantizer: ds.quantizer,
    };
    let spec = SpecBuilder::new(output)
        .video("live", "live.svc")
        .append_filtered("live", r(0, 1), Rational::new(total as i64, ds.fps), |e| {
            blur(e, 1.0)
        })
        .build();
    let dir = WorkDir::new("live_subscribe");
    let mut config = ServeConfig::default();
    config.engine.render_cache = Some(Arc::new(
        RenderCache::open(dir.join("cache"), 1 << 30)
            .expect("render cache dir")
            .with_mem_tier(64 << 20),
    ));
    let mut catalog = Catalog::new();
    catalog.add_video("live", prefix(&history, INITIAL_FRAMES));
    let handle = V2vServer::new(catalog)
        .with_config(config)
        .start("127.0.0.1:0")
        .expect("daemon binds a loopback port");
    let mut stream = client::open_stream(
        handle.addr(),
        "POST",
        "/subscribe",
        spec.to_json().as_bytes(),
    )
    .expect("subscribe");
    assert_eq!(stream.status, 200, "subscription refused");
    stream
        .reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut applier = DeltaApplier::new();
    let (h, svc) = read_delta(&mut stream.reader)
        .expect("first delta")
        .expect("first delta present");
    applier.apply(&h, &svc).expect("first delta applies");
    Setup {
        history,
        installments,
        spec,
        dir,
        handle,
        stream,
        applier,
    }
}

/// The cold one-shot render the cumulative stream must equal at `n`
/// source frames.
fn cold(s: &Setup, n: usize) -> Result<Vec<u8>, String> {
    let mut catalog = Catalog::new();
    catalog.add_video("live", prefix(&s.history, n));
    let mut clamped = s.spec.clone();
    clamped.time_domain = v2v_spec::servable_domain(&s.spec, &catalog.source_infos());
    trace::reference(&clamped, &catalog, 0, VariantPolicy::Auto).map(|(b, _)| b)
}

/// What the HTTP phase measured.
struct Http {
    timed: Timed,
    late_ms: Vec<f64>,
    /// `(source frames, cumulative .svc bytes)` at each checkpoint.
    checkpoints: Vec<(usize, Vec<u8>)>,
}

/// Posts installments on schedule for `seconds` and collects the deltas.
fn http_phase(s: &mut Setup, seconds: f64) -> Http {
    let addr = s.handle.addr();
    let sock = s
        .stream
        .reader
        .get_ref()
        .try_clone()
        .expect("socket handle");
    let (tx, rx) = mpsc::channel::<(Instant, DeltaHeader, Vec<u8>)>();
    let rss = RssSampler::start();
    let t0 = Instant::now() + Duration::from_millis(20);
    let installments = &s.installments;
    let stream = &mut s.stream;
    let (posted, deltas) = std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut posted = Vec::new();
            for (k, body) in installments.iter().enumerate() {
                let due = t0 + INTERVAL * k as u32;
                if (due - t0).as_secs_f64() >= seconds {
                    break;
                }
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let late = Instant::now().saturating_duration_since(due);
                let ok = client::request(addr, "POST", "/append/live", body)
                    .is_ok_and(|r| r.status == 200);
                posted.push((due, late, ok));
            }
            posted
        });
        // Deltas are read on their own thread and handed over with
        // their arrival time, so bookkeeping never delays a read.
        scope.spawn(move || {
            while let Ok(Some((h, svc))) = read_delta(&mut stream.reader) {
                if tx.send((Instant::now(), h, svc)).is_err() {
                    break;
                }
            }
        });
        let posted = generator.join().expect("generator");
        // Every posted append must be covered within a grace period.
        let want = INITIAL_FRAMES + STEP_FRAMES * posted.len();
        let grace = Instant::now() + Duration::from_secs(10);
        let mut deltas = Vec::new();
        let mut covered = 0;
        while covered < want {
            match rx.recv_timeout(grace.saturating_duration_since(Instant::now())) {
                Ok(d) => {
                    covered = (d.1.from_frame + d.1.frames) as usize;
                    deltas.push(d);
                }
                Err(_) => break,
            }
        }
        // Ends the subscription and unblocks the reader.
        let _ = sock.shutdown(std::net::Shutdown::Both);
        (posted, deltas)
    });
    let peak_rss_mb = rss.stop();
    // Match deltas to the appends they cover; keep checkpoints.
    let mut ops = Vec::with_capacity(posted.len());
    let mut checkpoints = Vec::new();
    let mut last = t0;
    for (n, (arrival, h, svc)) in deltas.iter().enumerate() {
        let Ok(cum) = s.applier.apply(h, svc) else {
            break;
        };
        let len = cum.len();
        if (n + 1) % CHECK_EVERY == 0 || n + 1 == deltas.len() {
            if let Ok(bytes) = v2v_container::svc_to_bytes(cum) {
                checkpoints.push((len, bytes));
            }
        }
        while ops.len() < posted.len() && INITIAL_FRAMES + STEP_FRAMES * (ops.len() + 1) <= len {
            let (due, _, ok) = posted[ops.len()];
            ops.push(Op {
                index: ops.len(),
                ms: arrival.saturating_duration_since(due).as_secs_f64() * 1e3,
                failed: !ok,
                frames: STEP_FRAMES as u64,
            });
        }
        last = *arrival;
    }
    // Appends no delta covered in time failed; like any failed op they
    // count as missing every latency limit (the full grace period).
    while ops.len() < posted.len() {
        ops.push(Op {
            index: ops.len(),
            ms: Duration::from_secs(10).as_secs_f64() * 1e3,
            failed: true,
            frames: 0,
        });
    }
    Http {
        timed: Timed {
            ops,
            wall: last.saturating_duration_since(t0),
            peak_rss_mb,
        },
        late_ms: posted.iter().map(|p| p.1.as_secs_f64() * 1e3).collect(),
        checkpoints,
    }
}

/// Checks each checkpoint against a cold render and fails the appends
/// since the previous checkpoint when it mismatches.
fn verify(s: &Setup, http: &mut Http) {
    let mut from = 0;
    for (len, bytes) in &http.checkpoints {
        let good = cold(s, *len).is_ok_and(|b| b == *bytes);
        let covered = (len - INITIAL_FRAMES) / STEP_FRAMES;
        if !good {
            for op in http.timed.ops.iter_mut().take(covered).skip(from) {
                op.failed = true;
            }
        }
        from = covered.max(from);
    }
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Outcome {
    let seconds = args.seconds_f64();
    let http_seconds = if args.trace { seconds * 0.5 } else { seconds };
    // The schedule's installments plus a few spare.
    let installments = (seconds / INTERVAL.as_secs_f64()).ceil() as usize + 5;
    let (mut s, setups) = harness::repeated_setup(|| setup(args.seed, installments));
    let mut out = Outcome::default();
    out.info(format!(
        "source live kabr_sim {} frames {} bytes at start, +{STEP_FRAMES} frames every {} ms",
        INITIAL_FRAMES,
        prefix(&s.history, INITIAL_FRAMES).byte_size(),
        INTERVAL.as_millis()
    ));
    let mut http = http_phase(&mut s, http_seconds);
    verify(&s, &mut http);
    let late = &http.late_ms;
    out.info(format!(
        "generator lateness median {:.3} ms, max {:.3} ms over {} appends; {} checkpoints verified",
        stats::median(late),
        late.iter().copied().fold(0.0, f64::max),
        late.len(),
        http.checkpoints.len()
    ));
    let lat: Vec<f64> = http.timed.ops.iter().map(|o| o.ms).collect();
    let q = lat.len() / 4;
    if q > 0 {
        out.info(format!(
            "latency as history grows: first-quarter median {:.3} ms, last-quarter median {:.3} ms",
            stats::median(&lat[..q]),
            stats::median(&lat[lat.len() - q..])
        ));
    }
    if !args.trace {
        harness::end_to_end(&mut out, &http.timed, NOMINAL_OPS, &setups);
        return out;
    }
    out.attempted = http.timed.ops.len() as u64;
    out.failed = http.timed.ops.iter().filter(|o| o.failed).count() as u64;
    replay(&s, args, &http, out)
}

/// One in-process subscriber: its own catalog, render cache and
/// cumulative output.
struct Replica {
    catalog: Catalog,
    config: EngineConfig,
    cumulative: Option<VideoStream>,
}

impl Replica {
    fn new(s: &Setup, dir: &std::path::Path) -> Replica {
        let mut catalog = Catalog::new();
        catalog.add_video("live", prefix(&s.history, INITIAL_FRAMES));
        let config = EngineConfig {
            render_cache: Some(Arc::new(
                RenderCache::open(dir, 1 << 30)
                    .expect("render cache dir")
                    .with_mem_tier(64 << 20),
            )),
            work_share: Some(Arc::new(FragmentFlight::new())),
            ..Default::default()
        };
        let mut r = Replica {
            catalog,
            config,
            cumulative: None,
        };
        r.refresh(&s.spec, &mut OpTrace::new(false))
            .expect("initial render");
        r
    }

    /// The daemon's append handler: parse the installment and splice it
    /// onto the catalog's stream.
    fn append(&mut self, body: &[u8], tr: &mut OpTrace) -> Result<(), String> {
        let (res, _) = tr.span("serve.append", |_| {
            let new = v2v_container::svc_from_bytes(body).map_err(|e| e.to_string())?;
            let old = self
                .catalog
                .video("live")
                .cloned()
                .ok_or("no live source")?;
            let joined = VideoStream::concat(&[old.as_ref(), &new]).map_err(|e| e.to_string())?;
            self.catalog.add_video("live", joined);
            Ok::<(), String>(())
        });
        res
    }

    /// The subscription's refresh: clamp the spec to the servable
    /// domain, prepare and run it on a fresh engine, cut the delta
    /// against the previous output and seal it. Returns the delta's
    /// sealed size and the engine trace.
    fn refresh(
        &mut self,
        spec: &Spec,
        tr: &mut OpTrace,
    ) -> Result<(usize, v2v_core::RunTrace), String> {
        let (clamped, _) = tr.span("sub.clamp", |_| {
            let mut engine = V2vEngine::new(self.catalog.clone());
            engine.bind(spec).map_err(|e| e.to_string())?;
            let mut clamped = spec.clone();
            clamped.time_domain = v2v_spec::servable_domain(spec, &engine.catalog().source_infos());
            Ok::<String, String>(clamped.to_json())
        });
        let json = clamped?;
        let (spec, _) = tr.span("spec.parse", |_| Spec::from_json(&json));
        let spec = spec.map_err(|e| e.to_string())?;
        let mut engine = V2vEngine::new(self.catalog.clone()).with_config(self.config.clone());
        let (report, trace) = trace::prepare_run(&mut engine, &spec, tr)?;
        let (delta, _) = tr.span("sub.delta", |_| {
            delta_between(self.cumulative.as_ref(), &report.output)
        });
        let (svc, _) = tr.span("container.serialize", |_| {
            delta.map(|(_, d)| v2v_container::svc_to_bytes(&d))
        });
        let delta_len = match svc {
            Some(b) => b.map_err(|e| e.to_string())?.len(),
            None => 0,
        };
        self.cumulative = Some(report.output);
        Ok((delta_len, trace))
    }
}

/// The traced run's in-process replay: two replicas take the
/// installments the HTTP phase posted back to back, one plain and one
/// spanned (alternating which goes first), so history grows exactly as
/// it did over HTTP.
fn replay(s: &Setup, args: &RunArgs, http: &Http, mut out: Outcome) -> Outcome {
    let mut plain_r = Replica::new(s, &s.dir.join("replay-plain"));
    let mut spanned_r = Replica::new(s, &s.dir.join("replay-spanned"));
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let (mut delta_bytes, mut full_bytes) = (0usize, 0usize);
    let done = http.timed.ops.len();
    for (k, body) in s.installments.iter().enumerate().take(done) {
        for traced in [k % 2 == 1, k % 2 == 0] {
            let replica = if traced { &mut spanned_r } else { &mut plain_r };
            let mut tr = OpTrace::new(traced);
            let t = Instant::now();
            let res = replica
                .append(body, &mut tr)
                .and_then(|()| replica.refresh(&s.spec, &mut tr));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            out.attempted += 1;
            match res {
                Ok((d, trace)) if traced => {
                    delta_bytes += d;
                    full_bytes += replica
                        .cumulative
                        .as_ref()
                        .and_then(|c| v2v_container::svc_to_bytes(c).ok())
                        .map_or(0, |b| b.len());
                    spanned.push(Replayed::new(ms, tr.finish(), &[&trace]));
                }
                Ok(_) => plain.push(ms),
                Err(e) => {
                    eprintln!("live replay installment {k}: {e}");
                    out.failed += 1;
                }
            }
        }
    }
    // Both replicas must have reassembled exactly the cold render.
    let n = INITIAL_FRAMES + STEP_FRAMES * done;
    let expect = cold(s, n).ok();
    for r in [&plain_r, &spanned_r] {
        let got = r
            .cumulative
            .as_ref()
            .and_then(|c| v2v_container::svc_to_bytes(c).ok());
        if got.is_none() || got != expect {
            out.failed += 1;
        }
    }
    let hits: u64 = spanned.iter().map(|r| r.stats.cache.segment_hits).sum();
    let segs: u64 = spanned.iter().map(|r| r.stats.segments).sum();
    let http_lat: Vec<f64> = http.timed.ops.iter().map(|o| o.ms).collect();
    let http_p50 = stats::median(&http_lat);
    let replay_p50 = stats::median(&spanned.iter().map(|r| r.ms).collect::<Vec<_>>());
    let overrides = [
        ("trace.p50_ms", http_p50),
        (
            "serve.residual_ms",
            stats::residual(http_p50, &[replay_p50]),
        ),
        (
            "sub.delta_bytes_frac",
            delta_bytes as f64 / full_bytes.max(1) as f64,
        ),
        ("sub.segment_hit_ratio", hits as f64 / segs.max(1) as f64),
        ("live.generator_late_ms", stats::median(&http.late_ms)),
    ];
    trace::per_layer(&mut out, &spanned, &plain, &overrides);
    trace::dump_spans(&mut out, args, &spanned);
    out
}
