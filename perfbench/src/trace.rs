//! In-process op paths and the traced replay's layer attribution.
//!
//! A traced op runs the same public calls the daemon and `v2v run`
//! make, each wrapped in a span kept in memory: `spec.parse`, then
//! `core.prepare` (whose engine-internal `bind`, `specialize` and `plan`
//! spans become its children, so its self time is the plan identity:
//! source digests, fingerprint, segment keys), then `exec.run_prepared`
//! (child: the engine's `execute` span), then `container.serialize`.
//! A span's self time is its layer's cost; whatever no layer claims is
//! the residual. The same code runs untraced with spans disabled, which
//! is how the tracing overhead is measured.

use crate::harness::{Metric, Outcome};
use crate::stats::{self, Span};
use crate::RunArgs;
use std::collections::BTreeMap;
use std::time::Instant;
use v2v_core::{EngineConfig, RunReport, RunTrace, V2vEngine};
use v2v_exec::{Catalog, ExecStats, StageTimes};
use v2v_plan::VariantPolicy;
use v2v_spec::Spec;
use v2v_store::SourceStore;

/// Spans of one op, or nothing when disabled.
pub struct OpTrace {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    current: Option<usize>,
}

impl OpTrace {
    /// A tracer whose root span (`op`) opens now.
    pub fn new(enabled: bool) -> OpTrace {
        let mut t = OpTrace {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            current: None,
        };
        if enabled {
            t.spans.push(Span {
                name: "op".into(),
                parent: None,
                start_ns: 0,
                dur_ns: 0,
            });
            t.current = Some(0);
        }
        t
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's index (`None` when disabled).
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut OpTrace) -> T) -> (T, Option<usize>) {
        if !self.enabled {
            return (f(self), None);
        }
        let idx = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: name.into(),
            parent: self.current,
            start_ns,
            dur_ns: 0,
        });
        let outer = self.current.replace(idx);
        let v = f(self);
        self.current = outer;
        self.spans[idx].dur_ns = (self.origin.elapsed().as_nanos() as u64).saturating_sub(start_ns);
        (v, Some(idx))
    }

    /// Records a span measured elsewhere (an engine-internal stage) as a
    /// child of `parent`.
    pub fn adopt(&mut self, parent: Option<usize>, name: &str, dur_ns: u64) {
        if let Some(p) = parent {
            let start_ns = self.spans[p].start_ns;
            self.spans.push(Span {
                name: name.into(),
                parent: Some(p),
                start_ns,
                dur_ns,
            });
        }
    }

    /// Closes the root span and returns every span (empty if disabled).
    pub fn finish(mut self) -> Vec<Span> {
        if let Some(root) = self.spans.first_mut() {
            root.dur_ns = self.origin.elapsed().as_nanos() as u64;
        }
        self.spans
    }
}

/// A query op's output: the sealed `.svc` bytes and the engine trace.
pub struct QueryRun {
    /// `svc_to_bytes` of the result.
    pub bytes: Vec<u8>,
    /// Output frames.
    pub frames: u64,
    /// The engine's run trace (stats, per-segment stage times).
    pub trace: RunTrace,
}

/// The request path of `v2v run` and of the daemon's `POST /query`,
/// in-process: parse the spec JSON, build a fresh engine over a catalog
/// snapshot, attach the variant store's variants to it (as the daemon
/// does for every query when it has a store), prepare, execute, seal.
pub fn run_query(
    json: &str,
    catalog: &Catalog,
    config: &EngineConfig,
    store: Option<&SourceStore>,
    tr: &mut OpTrace,
) -> Result<QueryRun, String> {
    let (spec, _) = tr.span("spec.parse", |_| Spec::from_json(json));
    let spec = spec.map_err(|e| e.to_string())?;
    let mut engine = V2vEngine::new(catalog.clone()).with_config(config.clone());
    if let Some(store) = store {
        let (bound, _) = tr.span("store.attach", |_| {
            engine.bind(&spec).map_err(|e| e.to_string())?;
            store
                .attach(engine.catalog_mut())
                .map_err(|e| e.to_string())
        });
        bound?;
    }
    prepare_run_seal(&mut engine, &spec, tr)
}

/// Prepare → run → seal on an engine.
pub fn prepare_run_seal(
    engine: &mut V2vEngine,
    spec: &Spec,
    tr: &mut OpTrace,
) -> Result<QueryRun, String> {
    let (report, trace) = prepare_run(engine, spec, tr)?;
    let (bytes, _) = tr.span("container.serialize", |_| {
        v2v_container::svc_to_bytes(&report.output)
    });
    Ok(QueryRun {
        bytes: bytes.map_err(|e| e.to_string())?,
        frames: report.output.len() as u64,
        trace,
    })
}

/// Prepare → run on an engine, with the engine's own stage spans
/// adopted under the tracer's spans.
pub fn prepare_run(
    engine: &mut V2vEngine,
    spec: &Spec,
    tr: &mut OpTrace,
) -> Result<(RunReport, RunTrace), String> {
    let (prepared, prep_span) = tr.span("core.prepare", |_| engine.prepare(spec));
    let prepared = prepared.map_err(|e| e.to_string())?;
    let (ran, run_span) = tr.span("exec.run_prepared", |_| engine.run_prepared(prepared));
    let (report, trace) = ran.map_err(|e| e.to_string())?;
    for s in &trace.spans {
        match s.name.as_str() {
            "bind" => tr.adopt(prep_span, "core.bind", s.dur_ns),
            "specialize" => tr.adopt(prep_span, "core.dde", s.dur_ns),
            "plan" => tr.adopt(prep_span, "plan.optimize", s.dur_ns),
            "execute" => tr.adopt(run_span, "exec.execute", s.dur_ns),
            _ => {}
        }
    }
    Ok((report, trace))
}

/// The reference render a result is checked against: bind, specialize,
/// plan and execute on a fresh engine without any cache tier, then
/// seal. Skips the plan identity, which only keys caches and never
/// changes bytes.
pub fn reference(
    spec: &Spec,
    catalog: &Catalog,
    threads: usize,
    variants: VariantPolicy,
) -> Result<(Vec<u8>, ExecStats), String> {
    let mut config = EngineConfig::default();
    config.exec.num_threads = threads;
    config.variants = variants;
    let exec = config.exec.clone();
    let mut engine = V2vEngine::new(catalog.clone()).with_config(config);
    engine.bind(spec).map_err(|e| e.to_string())?;
    let (specialized, _) = engine.specialize(spec);
    let (plan, _) = engine.plan(&specialized).map_err(|e| e.to_string())?;
    let (out, stats, _) =
        v2v_exec::execute(&plan, engine.catalog(), &exec).map_err(|e| e.to_string())?;
    let bytes = v2v_container::svc_to_bytes(&out).map_err(|e| e.to_string())?;
    Ok((bytes, stats))
}

/// The additive layers: span names whose self time is attributed.
/// `core.prepare`'s self time is the plan identity.
const LAYERS: [(&str, &str); 11] = [
    ("spec.parse", "spec.parse_ms"),
    ("store.attach", "store.attach_ms"),
    ("core.bind", "core.bind_ms"),
    ("core.dde", "core.dde_ms"),
    ("plan.optimize", "plan.optimize_ms"),
    ("core.prepare", "core.identity_ms"),
    ("exec.execute", "exec.execute_ms"),
    ("container.serialize", "container.serialize_ms"),
    ("serve.append", "serve.append_ms"),
    ("sub.clamp", "sub.clamp_ms"),
    ("sub.delta", "sub.delta_ms"),
];

/// Every per-layer metric, in report order, with its unit. A traced run
/// prints all of them on every workload (zero where a layer does not
/// take part).
pub const PER_LAYER: [(&str, &str); 35] = [
    ("trace.p50_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.residual_ms", "ms"),
    ("serve.residual_ms", "ms"),
    ("spec.parse_ms", "ms"),
    ("core.bind_ms", "ms"),
    ("core.dde_ms", "ms"),
    ("plan.optimize_ms", "ms"),
    ("core.identity_ms", "ms"),
    ("exec.execute_ms", "ms"),
    ("exec.decode_busy_ms", "ms"),
    ("exec.compose_busy_ms", "ms"),
    ("exec.encode_busy_ms", "ms"),
    ("exec.frames_decoded", "count"),
    ("exec.frames_encoded", "count"),
    ("exec.packets_copied", "count"),
    ("exec.bytes_decoded", "bytes"),
    ("exec.gop_cache_hit_ratio", "ratio"),
    ("exec.splits", "count"),
    ("container.serialize_ms", "ms"),
    ("render_cache.result_hit_ratio", "ratio"),
    ("render_cache.segment_hit_ratio", "ratio"),
    ("render_cache.mem_hit_ratio", "ratio"),
    ("render_cache.evictions", "count"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.inflight_hits", "count"),
    ("serve.shared_segment_hits", "count"),
    ("store.attach_ms", "ms"),
    ("store.variant_bytes_decoded_frac", "ratio"),
    ("serve.append_ms", "ms"),
    ("sub.clamp_ms", "ms"),
    ("sub.delta_ms", "ms"),
    ("sub.delta_bytes_frac", "ratio"),
    ("sub.segment_hit_ratio", "ratio"),
    ("live.generator_late_ms", "ms"),
];

/// One replayed op as the attribution needs it.
pub struct Replayed {
    /// Latency in milliseconds.
    pub ms: f64,
    /// Layer self times in milliseconds, keyed by metric name.
    pub layers: BTreeMap<&'static str, f64>,
    /// The engine's stats for the op.
    pub stats: ExecStats,
    /// Summed pipeline-stage busy time across the op's segments.
    pub stage: StageTimes,
    /// The op's spans, kept for the span dump.
    pub spans: Vec<Span>,
}

impl Replayed {
    /// Builds the record from a finished tracer and the op's engine
    /// traces (several when an op runs more than one query).
    pub fn new(ms: f64, spans: Vec<Span>, traces: &[&RunTrace]) -> Replayed {
        let selfs = stats::self_times(&spans);
        let mut layers = BTreeMap::new();
        for (span, self_ns) in spans.iter().zip(selfs) {
            if let Some((_, metric)) = LAYERS.iter().find(|(n, _)| *n == span.name) {
                *layers.entry(*metric).or_insert(0.0) += self_ns as f64 / 1e6;
            }
        }
        let mut stats = ExecStats::default();
        let mut stage = StageTimes::default();
        for t in traces {
            stats = stats.merge(t.exec.totals);
            for s in &t.exec.segments {
                stage = stage.merge(s.stage);
            }
        }
        Replayed {
            ms,
            layers,
            stats,
            stage,
            spans,
        }
    }
}

/// Render-cache ratios over a set of per-op stats.
pub fn cache_ratios(stats: &[ExecStats]) -> [(&'static str, f64); 4] {
    let sum = |f: fn(&ExecStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let results = sum(|s| s.cache.result_hits);
    let segs = sum(|s| s.cache.segment_hits);
    [
        (
            "render_cache.result_hit_ratio",
            results / stats.len().max(1) as f64,
        ),
        (
            "render_cache.segment_hit_ratio",
            segs / sum(|s| s.segments).max(1.0),
        ),
        (
            "render_cache.mem_hit_ratio",
            sum(|s| s.cache.mem_hits) / (results + segs).max(1.0),
        ),
        ("render_cache.evictions", sum(|s| s.cache.evictions)),
    ]
}

/// Fills the per-layer metrics from a spanned replay and the plain
/// replay of the same op sequence. `overrides` supplies the metrics a
/// workload measures outside the replay (cache ratios from daemon
/// headers, queue wait, the serve residual, …); everything not given
/// is zero.
pub fn per_layer(
    out: &mut Outcome,
    spanned: &[Replayed],
    plain_ms: &[f64],
    overrides: &[(&'static str, f64)],
) {
    let lat: Vec<f64> = spanned.iter().map(|r| r.ms).collect();
    let p50 = stats::median(&lat);
    let plain = stats::median(plain_ms);
    let band = stats::median_band(&lat);
    let band_mean = |f: &dyn Fn(&Replayed) -> f64| {
        band.iter().map(|&i| f(&spanned[i])).sum::<f64>() / band.len().max(1) as f64
    };
    let per_op = |f: &dyn Fn(&Replayed) -> f64| {
        spanned.iter().map(f).sum::<f64>() / spanned.len().max(1) as f64
    };
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let mut attributed = Vec::new();
    for (_, metric) in LAYERS {
        let v = band_mean(&|r| r.layers.get(metric).copied().unwrap_or(0.0));
        attributed.push(v);
        values.insert(metric, v);
    }
    values.insert("trace.p50_ms", p50);
    values.insert("trace.overhead_frac", (p50 - plain) / plain);
    values.insert("trace.residual_ms", stats::residual(p50, &attributed));
    values.insert(
        "exec.decode_busy_ms",
        band_mean(&|r| r.stage.decode_ns as f64 / 1e6),
    );
    values.insert(
        "exec.compose_busy_ms",
        band_mean(&|r| r.stage.compose_ns as f64 / 1e6),
    );
    values.insert(
        "exec.encode_busy_ms",
        band_mean(&|r| r.stage.encode_ns as f64 / 1e6),
    );
    values.insert(
        "exec.frames_decoded",
        per_op(&|r| r.stats.frames_decoded as f64),
    );
    values.insert(
        "exec.frames_encoded",
        per_op(&|r| r.stats.frames_encoded as f64),
    );
    values.insert(
        "exec.packets_copied",
        per_op(&|r| r.stats.packets_copied as f64),
    );
    values.insert(
        "exec.bytes_decoded",
        per_op(&|r| r.stats.bytes_decoded as f64),
    );
    values.insert("exec.splits", per_op(&|r| r.stats.splits as f64));
    let hits: u64 = spanned.iter().map(|r| r.stats.gop_cache_hits).sum();
    let misses: u64 = spanned.iter().map(|r| r.stats.gop_cache_misses).sum();
    values.insert(
        "exec.gop_cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let replay_stats: Vec<ExecStats> = spanned.iter().map(|r| r.stats).collect();
    for (k, v) in cache_ratios(&replay_stats) {
        values.insert(k, v);
    }
    for (k, v) in overrides {
        values.insert(k, *v);
    }
    for (name, unit) in PER_LAYER {
        out.metrics.push(Metric {
            name,
            value: values.get(name).copied().unwrap_or(0.0),
            unit,
        });
    }
    out.info(format!(
        "traced replay: {} spanned ops (p50 {p50:.3} ms), {} plain ops (p50 {plain:.3} ms), \
         layers averaged over the {} ops in the 40th-60th percentile band",
        spanned.len(),
        plain_ms.len(),
        band.len()
    ));
}

/// Writes every spanned op's spans as JSON lines (one op per line) to
/// `.bench_out/<workload>-seed<n>.spans.jsonl` and notes where they went.
pub fn dump_spans(out: &mut Outcome, args: &RunArgs, ops: &[Replayed]) {
    let path = std::path::Path::new(".bench_out")
        .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
    match write_spans(&path, ops) {
        Ok(()) => out.info(format!("spans written to {}", path.display())),
        Err(e) => out.info(format!("spans not written: {e}")),
    }
}

fn write_spans(path: &std::path::Path, ops: &[Replayed]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for op in ops {
        let spans: Vec<serde_json::Value> = op
            .spans
            .iter()
            .map(|s| {
                serde_json::json!({
                    "name": s.name.clone(),
                    "parent": s.parent,
                    "start_ns": s.start_ns,
                    "dur_ns": s.dur_ns,
                })
            })
            .collect();
        writeln!(f, "{}", serde_json::json!({"ms": op.ms, "spans": spans}))?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(ms: f64, layers: &[(&str, u64)]) -> Replayed {
        let mut spans = vec![Span {
            name: "op".into(),
            parent: None,
            start_ns: 0,
            dur_ns: (ms * 1e6) as u64,
        }];
        for (name, ns) in layers {
            spans.push(Span {
                name: (*name).into(),
                parent: Some(0),
                start_ns: 0,
                dur_ns: *ns,
            });
        }
        Replayed::new(ms, spans, &[])
    }

    #[test]
    fn identity_is_prepare_self_time() {
        let spans = vec![
            Span {
                name: "op".into(),
                parent: None,
                start_ns: 0,
                dur_ns: 100,
            },
            Span {
                name: "core.prepare".into(),
                parent: Some(0),
                start_ns: 0,
                dur_ns: 70,
            },
            Span {
                name: "core.bind".into(),
                parent: Some(1),
                start_ns: 0,
                dur_ns: 5,
            },
            Span {
                name: "plan.optimize".into(),
                parent: Some(1),
                start_ns: 0,
                dur_ns: 15,
            },
        ];
        let r = Replayed::new(1e-4, spans, &[]);
        assert_eq!(r.layers["core.identity_ms"], 50.0 / 1e6);
        assert_eq!(r.layers["core.bind_ms"], 5.0 / 1e6);
        assert_eq!(r.layers["plan.optimize_ms"], 15.0 / 1e6);
    }

    #[test]
    fn layers_and_residuals_add_up_to_the_traced_median() {
        let spanned: Vec<Replayed> = (0..9)
            .map(|k| {
                let ms = 10.0 + k as f64;
                op(
                    ms,
                    &[
                        ("spec.parse", 1_000_000),
                        ("exec.execute", 6_000_000 + k * 100_000),
                    ],
                )
            })
            .collect();
        let mut out = Outcome::default();
        per_layer(
            &mut out,
            &spanned,
            &[13.0, 14.0, 15.0],
            &[
                ("serve.queue_wait_ms", 0.5),
                ("serve.residual_ms", 2.0),
                ("trace.p50_ms", 16.5),
            ],
        );
        let get = |n: &str| out.metrics.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(out.metrics.len(), PER_LAYER.len());
        // In-process: the layers plus the in-process residual are the
        // replay median (14 ms).
        let layers: f64 = LAYERS.iter().map(|(_, m)| get(m)).sum();
        assert!((layers + get("trace.residual_ms") - 14.0).abs() < 1e-9);
        // Over HTTP: add the admission wait and the serve residual.
        let total = layers
            + get("trace.residual_ms")
            + get("serve.queue_wait_ms")
            + get("serve.residual_ms");
        assert!((total - get("trace.p50_ms")).abs() < 1e-9);
        assert_eq!(get("trace.overhead_frac"), 0.0);
    }
}
