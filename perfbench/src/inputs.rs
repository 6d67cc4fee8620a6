//! Benchmark inputs, all generated from the run's seed.
//!
//! Sources are the repository's ToS-like and KABR-like synthetic
//! datasets at test geometry (128×72) with 10-second "long" inputs, so
//! one pass of the paper's twenty cells fits a few seconds on two cores
//! while each source still weighs 15–20 MB — enough that any
//! per-request pass over source bytes shows in latency. Nothing is read
//! from or cached to disk: every run pays the same generation cost.
//!
//! The KABR-like source is cut into four-second flights, each with its
//! own content seed. A single drone flight's texture parameters decide
//! its compressibility (the encoded size of one flight varies by ±20 %
//! across seeds); averaging 25 keeps the source size, and with it every
//! byte-proportional cost, steady from seed to seed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use v2v_bench::{BenchDataset, QueryId};
use v2v_container::{StreamWriter, VideoStream};
use v2v_datasets::{
    detections, generate, kabr_sim, render_frame, tos_sim, DatasetSpec, DetectionProfile, Scale,
};
use v2v_exec::Catalog;
use v2v_spec::builder::{blur, bounding_box};
use v2v_spec::{Spec, SpecBuilder};
use v2v_time::{r, Rational};

/// Length of the paper suite's "long" inputs (Q6–Q10), in seconds.
pub const LONG_SECS: i64 = 10;

/// Source length: what the suite's four spliced long inputs need.
pub const SOURCE_SECS: i64 = 4 * LONG_SECS + 60;

/// Seconds per independently seeded KABR-like flight.
const FLIGHT_SECS: i64 = 4;

/// Mixes the run seed with a per-input salt (splitmix64 finalizer).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Points the bench harness's query builder at this benchmark's
/// long-input length. Call before any other thread starts.
pub fn configure_suite() {
    std::env::set_var("V2V_BENCH_LONG_SECS", LONG_SECS.to_string());
}

/// The two evaluation sources with their detections.
pub struct Sources {
    /// ToS-like: 24 fps, 10 s GOPs, dense detections.
    pub tos: BenchDataset,
    /// KABR-like: 30 fps, 1 s GOPs, sparse detections.
    pub kabr: BenchDataset,
}

impl Sources {
    /// Generates both sources for `seed`.
    pub fn generate(seed: u64) -> Sources {
        let mut tos_spec = tos_sim(Scale::Test, SOURCE_SECS);
        tos_spec.seed = mix(seed, 1);
        let mut kabr_spec = kabr_sim(Scale::Test, SOURCE_SECS);
        kabr_spec.seed = mix(seed, 2);
        let (tos, kabr) = std::thread::scope(|s| {
            let tos = s.spawn(|| generate(&tos_spec));
            let kabr = flights(&kabr_spec, kabr_spec.n_frames() as usize);
            (tos.join().expect("tos generator"), kabr)
        });
        Sources {
            tos: dataset("tos", tos_spec, tos, DetectionProfile::tos()),
            kabr: dataset("kabr", kabr_spec, kabr, DetectionProfile::kabr()),
        }
    }

    /// Both datasets, ToS first.
    pub fn both(&self) -> [&BenchDataset; 2] {
        [&self.tos, &self.kabr]
    }

    /// One catalog holding both sources under their dataset names and
    /// their detections under `<name>_dets` — what the daemon serves.
    pub fn catalog(&self) -> Catalog {
        let mut c = Catalog::new();
        for ds in self.both() {
            c.add_video_arc(ds.name, ds.stream.clone());
            c.add_array(dets_name(ds), ds.detections.clone());
        }
        c
    }

    /// `(frames, bytes)` of each source, for the result record.
    pub fn describe(&self) -> String {
        self.both()
            .iter()
            .map(|ds| {
                format!(
                    "{}_sim {} frames {} bytes",
                    ds.name,
                    ds.stream.len(),
                    ds.stream.byte_size()
                )
            })
            .collect::<Vec<_>>()
            .join("; ")
    }
}

fn dataset(
    name: &'static str,
    spec: DatasetSpec,
    stream: VideoStream,
    profile: DetectionProfile,
) -> BenchDataset {
    let dets = detections(
        &spec,
        profile,
        if name == "tos" { "actor" } else { "zebra" },
    );
    BenchDataset {
        name,
        spec,
        stream: Arc::new(stream),
        detections: dets,
    }
}

/// The first `frames` frames of KABR-like footage made of
/// [`FLIGHT_SECS`]-long flights, each seeded from `spec.seed`.
pub fn flights(spec: &DatasetSpec, frames: usize) -> VideoStream {
    let per_flight = (FLIGHT_SECS * spec.fps) as u64;
    let mut w = StreamWriter::new(spec.codec_params(), Rational::ZERO, spec.frame_dur());
    let mut flight = spec.clone();
    for i in 0..frames as u64 {
        if i % per_flight == 0 {
            flight.seed = mix(spec.seed, i / per_flight);
        }
        w.push_frame(&render_frame(&flight, i))
            .expect("generated frames match params");
    }
    w.finish().expect("generated stream is well-formed")
}

/// The catalog name of a dataset's detection array.
pub fn dets_name(ds: &BenchDataset) -> String {
    format!("{}_dets", ds.name)
}

/// A paper suite query rewritten to name the dataset's video and
/// detection array the way [`Sources::catalog`] binds them (the suite
/// builder calls every source `src` and its detections `dets`).
pub fn named_query(ds: &BenchDataset, q: QueryId) -> Spec {
    let mut value: serde_json::Value =
        serde_json::from_str(&v2v_bench::build_query(ds, q).to_json()).expect("spec json");
    rename(&mut value, &[("src", ds.name), ("dets", &dets_name(ds))]);
    Spec::from_json(&serde_json::to_string(&value).expect("spec json")).expect("renamed spec")
}

fn rename(value: &mut serde_json::Value, names: &[(&str, &str)]) {
    let lookup = |s: &str| names.iter().find(|(from, _)| *from == s).map(|(_, to)| *to);
    match value {
        serde_json::Value::String(s) => {
            if let Some(to) = lookup(s) {
                *s = to.to_string();
            }
        }
        serde_json::Value::Array(items) => items.iter_mut().for_each(|v| rename(v, names)),
        serde_json::Value::Object(map) => {
            let mut out = serde_json::Map::new();
            for (k, v) in map.iter() {
                let mut v = v.clone();
                rename(&mut v, names);
                out.insert(lookup(k).unwrap_or(k).to_string(), v);
            }
            *map = out;
        }
        _ => {}
    }
}

/// Shapes of the mixed-traffic query population.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Two plain one-second clips (stream copy / smart cut).
    Clip,
    /// Two blurred one-second clips (full decode → compose → encode).
    Blur,
    /// Two one-second clips with the detections' bounding boxes
    /// (data join; sparse KABR detections leave most frames copied).
    Boxes,
}

/// One member of the mixed-traffic population: two consecutive
/// one-second pieces of `source` starting at grid second `start`, so
/// members one second apart share half their segments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MixedQuery {
    /// 0 = ToS-like, 1 = KABR-like.
    pub source: usize,
    /// Query shape.
    pub shape: Shape,
    /// First grid second.
    pub start: i64,
}

/// Grid seconds a mixed query may start at.
pub const MIXED_STARTS: i64 = SOURCE_SECS - 2;

impl MixedQuery {
    /// Population index (dense in `0..MixedQuery::population()`).
    pub fn index(&self) -> usize {
        let shape = match self.shape {
            Shape::Clip => 0,
            Shape::Blur => 1,
            Shape::Boxes => 2,
        };
        (self.source * 3 + shape) * MIXED_STARTS as usize + self.start as usize
    }

    /// Population size.
    pub fn population() -> usize {
        6 * MIXED_STARTS as usize
    }

    /// The inverse of [`index`](Self::index).
    pub fn from_index(i: usize) -> MixedQuery {
        let per = MIXED_STARTS as usize;
        let shape = match (i / per) % 3 {
            0 => Shape::Clip,
            1 => Shape::Blur,
            _ => Shape::Boxes,
        };
        MixedQuery {
            source: i / (3 * per),
            shape,
            start: (i % per) as i64,
        }
    }

    /// The spec this member stands for.
    pub fn spec(&self, sources: &Sources) -> Spec {
        let ds = sources.both()[self.source];
        let name = ds.name;
        let dets = dets_name(ds);
        let mut b = SpecBuilder::new(v2v_bench::output_for(ds)).video(name, format!("{name}.svc"));
        if self.shape == Shape::Boxes {
            b = b.data_array(dets.clone(), "catalog");
        }
        for k in self.start..self.start + 2 {
            b = match self.shape {
                Shape::Clip => b.append_clip(name, r(k, 1), r(1, 1)),
                Shape::Blur => b.append_filtered(name, r(k, 1), r(1, 1), |e| blur(e, 1.0)),
                Shape::Boxes => {
                    let dets = dets.clone();
                    b.append_filtered(name, r(k, 1), r(1, 1), move |e| bounding_box(e, dets))
                }
            };
        }
        b.build()
    }
}

/// The mixed-traffic op sequence: a seeded draw over the population
/// where, per op, half the time a Zipf-popular member repeats, a
/// quarter of the time the previous op's neighbour one grid second on
/// (a 50 % overlap) follows, and a quarter of the time a uniformly
/// drawn member (usually never seen before) arrives.
pub fn mixed_sequence(seed: u64, len: usize) -> Vec<MixedQuery> {
    let mut rng = SmallRng::seed_from_u64(mix(seed, 3));
    let n = MixedQuery::population();
    // Popularity ranks are a seeded permutation of the population.
    let mut ranked: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        ranked.swap(i, rng.gen_range(0..=i));
    }
    // Zipf(s = 1.1) over ranks via the inverse CDF.
    let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-1.1)).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let mut out: Vec<MixedQuery> = Vec::with_capacity(len);
    for _ in 0..len {
        let roll: f64 = rng.gen();
        let q = match out.last() {
            Some(prev) if (0.5..0.75).contains(&roll) => MixedQuery {
                start: (prev.start + 1) % MIXED_STARTS,
                ..*prev
            },
            _ if roll >= 0.75 => MixedQuery::from_index(rng.gen_range(0..n)),
            _ => {
                let u: f64 = rng.gen();
                let rank = cdf.partition_point(|&c| c < u).min(n - 1);
                MixedQuery::from_index(ranked[rank])
            }
        };
        out.push(q);
    }
    out
}

/// A seeded shuffle of `0..n` (the paper suite's per-pass cell order).
pub fn shuffled(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_index_round_trips() {
        for i in 0..MixedQuery::population() {
            assert_eq!(MixedQuery::from_index(i).index(), i);
        }
    }

    #[test]
    fn mixed_sequence_is_seeded_and_mixes_repeats_overlaps_and_fresh() {
        let a = mixed_sequence(7, 400);
        assert_eq!(a, mixed_sequence(7, 400));
        assert_ne!(a, mixed_sequence(8, 400));
        let distinct: std::collections::BTreeSet<usize> = a.iter().map(|q| q.index()).collect();
        assert!(distinct.len() < 300, "popular members repeat");
        assert!(distinct.len() > 100, "fresh members arrive");
        let overlaps = a
            .windows(2)
            .filter(|w| {
                w[1].source == w[0].source
                    && w[1].shape == w[0].shape
                    && w[1].start == w[0].start + 1
            })
            .count();
        assert!(overlaps > 60, "neighbours follow: {overlaps}");
    }
}
