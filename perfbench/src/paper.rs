//! `paper_render`: the paper's Q1–Q10 on both sources, the `v2v run`
//! path. Each op parses one cell's spec JSON, builds a fresh default
//! engine (no render cache) over the pre-bound sources, prepares,
//! executes and seals the output; one closed-loop client. The codec,
//! the `exec` scheduler and the planner's rewrites do the work; the
//! cache and serve layers are bypassed.
//!
//! Ops run in whole passes over the twenty cells, each pass in a seeded
//! order, so every run's latency sample is the same mixture of cells.
//! Every op's bytes must equal a one-thread render of its cell made
//! during set-up.

use crate::harness::{self, Outcome};
use crate::inputs::{self, Sources};
use crate::trace::{self, OpTrace, Replayed};
use crate::RunArgs;
use std::time::Instant;
use v2v_bench::QueryId;
use v2v_core::EngineConfig;
use v2v_exec::Catalog;
use v2v_plan::VariantPolicy;

/// Cells per pass: Q1–Q10 on each source.
const CELLS: usize = 20;

/// Nominal op count (six passes fit in a 15 s run on two cores): sets
/// the tail percentile.
const NOMINAL_OPS: usize = 6 * CELLS;

struct Cell {
    label: String,
    json: String,
    source: usize,
    expect: Vec<u8>,
}

struct Setup {
    sources: Sources,
    catalogs: [Catalog; 2],
    cells: Vec<Cell>,
}

fn setup(seed: u64) -> Setup {
    let sources = Sources::generate(seed);
    let catalogs = sources.both().map(|ds| {
        let mut c = Catalog::new();
        c.add_video_arc("src", ds.stream.clone());
        c.add_array("dets", ds.detections.clone());
        c
    });
    let mut cells = Vec::with_capacity(CELLS);
    for (source, ds) in sources.both().into_iter().enumerate() {
        for q in QueryId::all() {
            let spec = v2v_bench::build_query(ds, q);
            let (expect, _) = trace::reference(&spec, &catalogs[source], 1, VariantPolicy::Auto)
                .unwrap_or_else(|e| panic!("reference {} {}: {e}", ds.name, q.label()));
            cells.push(Cell {
                label: format!("{}/{}", ds.name, q.label()),
                json: spec.to_json(),
                source,
                expect,
            });
        }
    }
    Setup {
        sources,
        catalogs,
        cells,
    }
}

/// The cell op `index` runs: passes of [`CELLS`] in a seeded order.
fn cell_of(seed: u64, index: usize) -> usize {
    inputs::shuffled(inputs::mix(seed, 100 + (index / CELLS) as u64), CELLS)[index % CELLS]
}

fn op(s: &Setup, cell: usize, tr: &mut OpTrace) -> (bool, Option<trace::QueryRun>) {
    let c = &s.cells[cell];
    match trace::run_query(
        &c.json,
        &s.catalogs[c.source],
        &EngineConfig::default(),
        None,
        tr,
    ) {
        Ok(run) => (run.bytes == c.expect, Some(run)),
        Err(e) => {
            eprintln!("paper_render {}: {e}", c.label);
            (false, None)
        }
    }
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Outcome {
    let (s, setups) = harness::repeated_setup(|| setup(args.seed));
    let mut out = Outcome::default();
    out.info(format!("sources {}", s.sources.describe()));
    out.info(
        "clients 1; ops are whole passes of Q1-Q10 x {tos,kabr} in a seeded order".to_string(),
    );
    let seconds = args.seconds_f64();
    if !args.trace {
        let timed = harness::closed_loop(
            1,
            |i| {
                let cell = cell_of(args.seed, i);
                let (ok, run) = op(&s, cell, &mut OpTrace::new(false));
                (ok, run.map_or(0, |r| r.frames))
            },
            |i, elapsed| i % CELLS != 0 || elapsed.as_secs_f64() < seconds,
        );
        harness::end_to_end(&mut out, &timed, NOMINAL_OPS, &setups);
        return out;
    }
    // Traced: ops alternate between plain and spanned, with the phase
    // flipping every pass, so two passes run every cell both ways.
    let started = Instant::now();
    let (mut spanned, mut plain) = (Vec::new(), Vec::new());
    let mut pass = 0;
    while pass < 2 || started.elapsed().as_secs_f64() < seconds {
        for k in 0..CELLS {
            let cell = cell_of(args.seed, pass * CELLS + k);
            let traced = (cell + pass) % 2 == 1;
            let mut tr = OpTrace::new(traced);
            let t = Instant::now();
            let (ok, run) = op(&s, cell, &mut tr);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            out.attempted += 1;
            out.failed += u64::from(!ok);
            match (traced, run) {
                (true, Some(run)) => spanned.push(Replayed::new(ms, tr.finish(), &[&run.trace])),
                (false, _) => plain.push(ms),
                _ => {}
            }
        }
        pass += 1;
    }
    trace::per_layer(&mut out, &spanned, &plain, &[]);
    trace::dump_spans(&mut out, args, &spanned);
    out
}
