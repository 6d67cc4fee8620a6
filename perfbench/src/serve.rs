//! The daemon workloads: `serve_hot` and `serve_mixed`. Both run the
//! `v2v-serve` daemon in-process on a real loopback socket and drive it
//! with two closed-loop clients over HTTP, one request per op.
//!
//! * `serve_hot` repeats eight queries (Q1, Q2, Q4, Q5 on each source)
//!   that set-up pre-rendered: every op is a whole-result hit, so parse,
//!   bind, plan, identity, cache lookup, serialization and the wire are
//!   all the work.
//! * `serve_mixed` draws clip / blur / bounding-box queries on a
//!   one-second grid over both sources (see [`inputs::mixed_sequence`])
//!   against a disk + memory render cache whose budgets are below the
//!   working set, with work sharing on, admission capped at one render,
//!   and a keyframe-dense variant of each source materialized during
//!   set-up.
//!
//! Every response is checked against an in-process render of its spec.
//! The traced run adds an in-process replay of the same op sequence
//! through the daemon's public calls (same catalog, same render cache).

use crate::harness::{self, Outcome, WorkDir};
use crate::inputs::{self, MixedQuery, Sources};
use crate::trace::{self, OpTrace, Replayed};
use crate::RunArgs;
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use v2v_bench::QueryId;
use v2v_core::EngineConfig;
use v2v_exec::{Catalog, ExecStats, FragmentFlight, RenderCache};
use v2v_plan::VariantPolicy;
use v2v_serve::http::client;
use v2v_serve::{ServeConfig, ServerHandle, StoreServeConfig, V2vServer};
use v2v_store::SourceStore;

/// Closed-loop clients (the host's two cores).
const CLIENTS: usize = 2;

/// `serve_hot` nominal op count in a 15 s run: sets the tail percentile.
const HOT_NOMINAL_OPS: usize = 250;

/// `serve_mixed` nominal op count in a 15 s run.
const MIXED_NOMINAL_OPS: usize = 90;

/// `serve_mixed` cache budgets: well below the bytes the population's
/// results and segments would take, so fills and evictions keep going.
const MIXED_DISK_BUDGET: u64 = 12 << 20;
const MIXED_MEM_BUDGET: u64 = 4 << 20;

/// The two daemon workloads.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Whole-result hits only.
    Hot,
    /// Mixed cache traffic.
    Mixed,
}

struct Setup {
    sources: Sources,
    catalog: Catalog,
    dir: WorkDir,
    handle: ServerHandle,
    addr: SocketAddr,
    cache: Arc<RenderCache>,
    /// Spec JSON per query (hot: the eight queries; mixed: the
    /// population).
    queries: Vec<String>,
    /// Reference bytes per query, where set-up made them (hot).
    expect: Vec<Option<Arc<Vec<u8>>>>,
    /// Frames per query's output.
    frames: Vec<u64>,
}

impl Drop for Setup {
    fn drop(&mut self) {
        self.handle.stop();
    }
}

fn setup(kind: Kind, seed: u64) -> Setup {
    let sources = Sources::generate(seed);
    let catalog = sources.catalog();
    let dir = WorkDir::new(match kind {
        Kind::Hot => "serve_hot",
        Kind::Mixed => "serve_mixed",
    });
    let (disk, mem) = match kind {
        Kind::Hot => (1 << 30, 256 << 20),
        Kind::Mixed => (MIXED_DISK_BUDGET, MIXED_MEM_BUDGET),
    };
    let cache = Arc::new(
        RenderCache::open(dir.join("cache"), disk)
            .expect("render cache dir")
            .with_mem_tier(mem),
    );
    let mut config = ServeConfig {
        max_concurrent: match kind {
            Kind::Hot => CLIENTS,
            Kind::Mixed => 1,
        },
        queue_depth: 16,
        work_sharing: true,
        ..Default::default()
    };
    config.engine.render_cache = Some(cache.clone());
    if kind == Kind::Mixed {
        config.store = Some(StoreServeConfig::at(dir.join("store")));
    }
    let handle = V2vServer::new(catalog.clone())
        .with_config(config)
        .start("127.0.0.1:0")
        .expect("daemon binds a loopback port");
    let addr = handle.addr();
    let mut s = Setup {
        sources,
        catalog,
        dir,
        handle,
        addr,
        cache,
        queries: Vec::new(),
        expect: Vec::new(),
        frames: Vec::new(),
    };
    match kind {
        Kind::Hot => {
            for ds in s.sources.both() {
                for q in [QueryId::Q1, QueryId::Q2, QueryId::Q4, QueryId::Q5] {
                    let spec = inputs::named_query(ds, q);
                    let (expect, _) = trace::reference(&spec, &s.catalog, 0, VariantPolicy::Auto)
                        .expect("reference render");
                    // Pre-render through the daemon; twice, so the
                    // memory tier's second-hit promotion has happened.
                    for _ in 0..2 {
                        let resp = client::post_query(addr, spec.to_json().as_bytes())
                            .expect("pre-render request");
                        assert_eq!(resp.status, 200, "pre-render failed");
                    }
                    s.frames.push(frames_of(&expect));
                    s.queries.push(spec.to_json());
                    s.expect.push(Some(Arc::new(expect)));
                }
            }
        }
        Kind::Mixed => {
            for name in ["tos", "kabr"] {
                let resp = client::request(
                    addr,
                    "POST",
                    &format!("/store/materialize/{name}/dense"),
                    b"",
                )
                .expect("materialize request");
                assert_eq!(resp.status, 200, "materialize {name} failed");
            }
            for i in 0..MixedQuery::population() {
                let spec = MixedQuery::from_index(i).spec(&s.sources);
                s.frames.push(spec.time_domain.count());
                s.queries.push(spec.to_json());
                s.expect.push(None);
            }
        }
    }
    s
}

fn frames_of(svc: &[u8]) -> u64 {
    v2v_container::svc_from_bytes(svc).map_or(0, |s| s.len() as u64)
}

/// Length of the seeded op sequence; ops past it wrap around.
const SEQUENCE_LEN: usize = 20_000;

/// The query each op index posts: whole passes over the eight queries,
/// each pass in a seeded order (`serve_hot`), so every run serves the
/// same mixture of result sizes; or the mixed-traffic draw
/// (`serve_mixed`).
fn sequence(kind: Kind, seed: u64, queries: usize) -> Vec<usize> {
    match kind {
        Kind::Hot => (0..SEQUENCE_LEN.div_ceil(queries) as u64)
            .flat_map(|pass| inputs::shuffled(inputs::mix(inputs::mix(seed, 4), pass), queries))
            .collect(),
        Kind::Mixed => inputs::mixed_sequence(seed, SEQUENCE_LEN)
            .iter()
            .map(MixedQuery::index)
            .collect(),
    }
}

/// The query op `i` posts: the sequence repeats, so no op count, however
/// fast the ops, runs past its end.
fn query_at(seq: &[usize], i: usize) -> usize {
    seq[i % seq.len()]
}

/// One daemon response as the checks and the traced run need it.
struct Response {
    query: usize,
    digest: u64,
    len: usize,
    ok: bool,
    stats: Option<(ExecStats, u64)>,
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = v2v_container::Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Posts query `q`; checks the body against a set-up reference when
/// there is one, and keeps its digest for the post-run check otherwise.
fn post(s: &Setup, q: usize, want_stats: bool) -> Response {
    let mut r = Response {
        query: q,
        digest: 0,
        len: 0,
        ok: false,
        stats: None,
    };
    let Ok(resp) = client::post_query(s.addr, s.queries[q].as_bytes()) else {
        return r;
    };
    r.ok = resp.status == 200;
    if let Some(expect) = &s.expect[q] {
        r.ok &= resp.body == **expect;
    }
    r.len = resp.body.len();
    r.digest = fnv(&resp.body);
    if want_stats {
        r.stats = resp.header_value("x-v2v-stats").and_then(parse_stats);
    }
    r
}

/// `x-v2v-stats`: the run's `ExecStats` plus the admission wait.
fn parse_stats(header: &str) -> Option<(ExecStats, u64)> {
    let v: serde_json::Value = serde_json::from_str(header).ok()?;
    let get = |path: &[&str]| {
        path.iter()
            .try_fold(&v, |node, key| node.get(key))
            .and_then(|x| x.as_u64())
            .unwrap_or(0)
    };
    let mut st = ExecStats {
        frames_decoded: get(&["frames_decoded"]),
        frames_encoded: get(&["frames_encoded"]),
        packets_copied: get(&["packets_copied"]),
        bytes_decoded: get(&["bytes_decoded"]),
        segments: get(&["segments"]),
        ..Default::default()
    };
    st.cache.result_hits = get(&["cache", "result_hits"]);
    st.cache.segment_hits = get(&["cache", "segment_hits"]);
    st.cache.evictions = get(&["cache", "evictions"]);
    st.cache.mem_hits = get(&["cache", "mem_hits"]);
    st.cache.inflight_hits = get(&["cache", "inflight_hits"]);
    st.cache.shared_segment_hits = get(&["cache", "shared_segment_hits"]);
    Some((st, get(&["queue_wait_ns"])))
}

/// Checks every response whose query had no set-up reference against an
/// in-process render of that query, rendered once per distinct query.
/// Returns the op indices whose bytes mismatched.
fn check_lazily(s: &Setup, responses: &BTreeMap<usize, Response>) -> BTreeSet<usize> {
    let mut by_query: BTreeMap<usize, Vec<(usize, &Response)>> = BTreeMap::new();
    for (&i, r) in responses {
        if r.ok && s.expect[r.query].is_none() {
            by_query.entry(r.query).or_default().push((i, r));
        }
    }
    let mut bad = BTreeSet::new();
    for (q, rs) in by_query {
        let spec = v2v_spec::Spec::from_json(&s.queries[q]).expect("population spec");
        let expect = trace::reference(&spec, &s.catalog, 0, VariantPolicy::Auto)
            .map(|(b, _)| (fnv(&b), b.len()));
        for (i, r) in rs {
            if expect.as_ref().map_or(true, |e| *e != (r.digest, r.len)) {
                bad.insert(i);
            }
        }
    }
    bad
}

/// Runs `serve_hot` or `serve_mixed`.
pub fn run(kind: Kind, args: &RunArgs) -> Outcome {
    let (s, setups) = harness::repeated_setup(|| setup(kind, args.seed));
    let seq = sequence(kind, args.seed, s.queries.len());
    let mut out = Outcome::default();
    out.info(format!("sources {}", s.sources.describe()));
    out.info(format!(
        "clients {CLIENTS}; {} distinct queries; daemon max_concurrent {}",
        s.queries.len(),
        if kind == Kind::Hot { CLIENTS } else { 1 }
    ));
    let seconds = args.seconds_f64();
    // Traced runs split the time between the HTTP phase and the replay.
    let http_seconds = if args.trace { seconds * 0.4 } else { seconds };
    let responses = Mutex::new(Vec::new());
    let mut timed = harness::closed_loop(
        CLIENTS,
        |i| {
            let r = post(&s, query_at(&seq, i), args.trace);
            let (ok, frames) = (r.ok, s.frames[r.query]);
            responses.lock().expect("response log").push((i, r));
            (ok, frames)
        },
        |_, elapsed| elapsed.as_secs_f64() < http_seconds,
    );
    let responses: BTreeMap<usize, Response> = responses
        .into_inner()
        .expect("response log")
        .into_iter()
        .collect();
    let bad = check_lazily(&s, &responses);
    for op in timed.ops.iter_mut() {
        op.failed |= bad.contains(&op.index);
    }
    if kind == Kind::Mixed {
        out.info(format!(
            "cache {} entries {} bytes held (budget {}), {} evictions",
            s.cache.entries(),
            s.cache.bytes_held(),
            s.cache.budget_bytes(),
            s.cache.evictions()
        ));
    }
    if !args.trace {
        harness::end_to_end(
            &mut out,
            &timed,
            match kind {
                Kind::Hot => HOT_NOMINAL_OPS,
                Kind::Mixed => MIXED_NOMINAL_OPS,
            },
            &setups,
        );
        return out;
    }
    traced(
        kind,
        args,
        &s,
        &seq,
        &timed,
        &responses,
        seconds - http_seconds,
        out,
    )
}

/// The traced run's second phase: replay the op sequence (continuing
/// where the HTTP phase stopped) in-process against the daemon's
/// catalog and render cache, alternating plain and spanned ops, then
/// attribute the HTTP median across the layers.
#[allow(clippy::too_many_arguments)]
fn traced(
    kind: Kind,
    args: &RunArgs,
    s: &Setup,
    seq: &[usize],
    http: &harness::Timed,
    responses: &BTreeMap<usize, Response>,
    seconds: f64,
    mut out: Outcome,
) -> Outcome {
    out.attempted = http.ops.len() as u64;
    out.failed = http.ops.iter().filter(|o| o.failed).count() as u64;
    let store =
        (kind == Kind::Mixed).then(|| SourceStore::open(s.dir.join("store")).expect("store opens"));
    let config = EngineConfig {
        render_cache: Some(s.cache.clone()),
        work_share: Some(Arc::new(FragmentFlight::new())),
        ..Default::default()
    };
    let spanned = Mutex::new(Vec::new());
    let plain = Mutex::new(Vec::new());
    let unchecked = Mutex::new(BTreeMap::new());
    let first = http.ops.iter().map(|o| o.index + 1).max().unwrap_or(0);
    let mut replay = harness::closed_loop(
        CLIENTS,
        |i| {
            let q = query_at(seq, first + i);
            let traced = i % 2 == 1;
            let mut tr = OpTrace::new(traced);
            let t = Instant::now();
            let run = trace::run_query(&s.queries[q], &s.catalog, &config, store.as_ref(), &mut tr);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let ok = match (&run, &s.expect[q]) {
                (Ok(r), Some(expect)) => r.bytes == **expect,
                (Ok(r), None) => {
                    // Checked after the replay, like the HTTP phase's.
                    let response = Response {
                        query: q,
                        digest: fnv(&r.bytes),
                        len: r.bytes.len(),
                        ok: true,
                        stats: None,
                    };
                    unchecked.lock().expect("replay log").insert(i, response);
                    true
                }
                (Err(_), _) => false,
            };
            if let Ok(r) = run {
                if traced {
                    let rec = Replayed::new(ms, tr.finish(), &[&r.trace]);
                    spanned.lock().expect("replay log").push(rec);
                } else {
                    plain.lock().expect("replay log").push(ms);
                }
            }
            (ok, 0)
        },
        |i, elapsed| i < 2 || elapsed.as_secs_f64() < seconds,
    );
    let bad = check_lazily(s, &unchecked.into_inner().expect("replay log"));
    for op in replay.ops.iter_mut() {
        op.failed |= bad.contains(&op.index);
    }
    out.attempted += replay.ops.len() as u64;
    out.failed += replay.ops.iter().filter(|o| o.failed).count() as u64;
    let spanned = spanned.into_inner().expect("replay log");
    let plain = plain.into_inner().expect("replay log");

    // The HTTP phase's median, explained: the replay's layers, the
    // admission wait, and what only the wire and the daemon's request
    // handling add.
    let http_lat: Vec<f64> = http.ops.iter().map(|o| o.ms).collect();
    let http_p50 = crate::stats::median(&http_lat);
    let band = crate::stats::median_band(&http_lat);
    let wait_of = |op: &harness::Op| {
        responses
            .get(&op.index)
            .and_then(|r| r.stats)
            .map_or(0.0, |(_, w)| w as f64 / 1e6)
    };
    let queue_wait =
        band.iter().map(|&k| wait_of(&http.ops[k])).sum::<f64>() / band.len().max(1) as f64;
    let replay_p50 = crate::stats::median(&spanned.iter().map(|r| r.ms).collect::<Vec<_>>());
    let http_stats: Vec<ExecStats> = responses
        .values()
        .filter_map(|r| r.stats.map(|(st, _)| st))
        .collect();
    let mut overrides: Vec<(&'static str, f64)> = trace::cache_ratios(&http_stats).to_vec();
    overrides.extend([
        ("trace.p50_ms", http_p50),
        ("serve.queue_wait_ms", queue_wait),
        (
            "serve.residual_ms",
            crate::stats::residual(http_p50, &[replay_p50, queue_wait]),
        ),
        (
            "serve.inflight_hits",
            http_stats
                .iter()
                .map(|s| s.cache.inflight_hits)
                .sum::<u64>() as f64,
        ),
        (
            "serve.shared_segment_hits",
            http_stats
                .iter()
                .map(|s| s.cache.shared_segment_hits)
                .sum::<u64>() as f64,
        ),
    ]);
    if let Some(store) = &store {
        let mut with_variants = s.catalog.clone();
        store.attach(&mut with_variants).expect("variants attach");
        overrides.push((
            "store.variant_bytes_decoded_frac",
            variant_frac(s, &with_variants, seq),
        ));
    }
    trace::per_layer(&mut out, &spanned, &plain, &overrides);
    out.info(format!(
        "HTTP p50 {http_p50:.3} ms = replay p50 {replay_p50:.3} ms + queue wait {queue_wait:.3} ms \
         + serve.residual_ms"
    ));
    trace::dump_spans(&mut out, args, &spanned);
    out
}

/// Decoded bytes with the store's variants ÷ without, over the first
/// eight distinct rendering (blur / bounding-box) queries of the op
/// sequence, each rendered both ways without any cache.
fn variant_frac(s: &Setup, with_variants: &Catalog, seq: &[usize]) -> f64 {
    let mut seen = Vec::new();
    for &q in seq {
        if seen.len() == 8 {
            break;
        }
        if MixedQuery::from_index(q).shape != inputs::Shape::Clip && !seen.contains(&q) {
            seen.push(q);
        }
    }
    let (mut with, mut without) = (0u64, 0u64);
    for q in seen {
        let spec = v2v_spec::Spec::from_json(&s.queries[q]).expect("population spec");
        if let (Ok((_, a)), Ok((_, b))) = (
            trace::reference(&spec, with_variants, 0, VariantPolicy::Auto),
            trace::reference(&spec, &s.catalog, 0, VariantPolicy::Disabled),
        ) {
            with += a.bytes_decoded;
            without += b.bytes_decoded;
        }
    }
    with as f64 / without.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_sequence_runs_whole_passes() {
        let seq = sequence(Kind::Hot, 7, 8);
        assert!(seq.len() >= SEQUENCE_LEN);
        for pass in seq.chunks(8).take(50) {
            let mut sorted = pass.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        }
        assert_eq!(seq, sequence(Kind::Hot, 7, 8));
        assert_ne!(seq, sequence(Kind::Hot, 8, 8));
    }

    #[test]
    fn ops_past_the_sequence_wrap_around() {
        let seq = sequence(Kind::Mixed, 3, MixedQuery::population());
        assert_eq!(query_at(&seq, seq.len() + 5), seq[5]);
        assert_eq!(query_at(&seq, 3 * seq.len() - 1), seq[seq.len() - 1]);
    }
}
