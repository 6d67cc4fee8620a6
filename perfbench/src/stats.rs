//! Order statistics and latency attribution.
//!
//! Everything the benchmark reports is derived here: medians and
//! quartiles (with the same definition as Python's
//! `statistics.quantiles(data, n=4)`, so spreads computed over runs
//! agree with the tooling that reads the results), the tail percentile
//! a workload can support, span self time, and the residual left after
//! the attributed layers.

/// Median of unsorted samples (mean of the two middle values for an
/// even count). `NaN` for no samples.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First, second and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(data, n=4)`. Needs two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    Some(out)
}

/// The highest whole percentile `p` such that, of `n` samples, at least
/// ten lie strictly beyond the nearest-rank `p`-th percentile. `None`
/// when `n` is too small for any percentile to leave ten samples above
/// it (the tail is then reported as the maximum).
pub fn tail_percentile(n: usize) -> Option<u32> {
    (1..=99u32)
        .rev()
        .find(|&p| n.saturating_sub(nearest_rank(n, f64::from(p))) >= 10)
}

/// Nearest-rank position (1-based) of the `p`-th percentile in `n`
/// sorted samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank `p`-th percentile of unsorted samples; `p = 100` is the
/// maximum. `NaN` for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let s = sorted(values);
    if s.is_empty() {
        return f64::NAN;
    }
    s[nearest_rank(s.len(), p) - 1]
}

/// The samples counted beyond the nearest-rank `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(nearest_rank(n, p))
}

/// Indices of the samples whose rank lies in the middle fifth
/// (40th–60th percentile) of `values` — the ops whose layer vectors are
/// averaged to explain the median. Never empty for non-empty input.
pub fn median_band(values: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let n = order.len();
    if n == 0 {
        return Vec::new();
    }
    let lo = (n * 2) / 5;
    let hi = ((n * 3).div_ceil(5)).max(lo + 1).min(n);
    order[lo..hi].to_vec()
}

/// One timed call in a traced op: `parent` indexes the enclosing span
/// in the same op (`None` for the op's root).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `core.prepare`.
    pub name: String,
    /// Enclosing span.
    pub parent: Option<usize>,
    /// Start offset from the op's start, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Self time of every span: its duration minus the summed durations of
/// its direct children (clamped at zero, since clock reads at span
/// edges can make children overrun their parent by a few nanoseconds).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_sum = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_sum[p] += s.dur_ns;
        }
    }
    spans
        .iter()
        .zip(child_sum)
        .map(|(s, c)| s.dur_ns.saturating_sub(c))
        .collect()
}

/// What an end-to-end figure leaves unexplained after the attributed
/// layers: `total − Σ parts`. May be negative when the layers were
/// measured on a path that is slower than the total (reported as is).
pub fn residual(total: f64, parts: &[f64]) -> f64 {
    total - parts.iter().sum::<f64>()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(60), Some(83));
        assert_eq!(tail_percentile(11), Some(9));
        assert_eq!(tail_percentile(10), None);
        for n in 11..500 {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(n, f64::from(p)) >= 10, "n={n} p={p}");
            if p < 99 {
                assert!(beyond(n, f64::from(p + 1)) < 10, "n={n}: p+1 also fits");
            }
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(beyond(100, 90.0), 10);
    }

    #[test]
    fn median_band_surrounds_the_median() {
        let v: Vec<f64> = (0..10).rev().map(f64::from).collect();
        let mut band: Vec<f64> = median_band(&v).iter().map(|&i| v[i]).collect();
        band.sort_by(f64::total_cmp);
        assert_eq!(band, vec![4.0, 5.0]);
        assert_eq!(median_band(&[7.0]), vec![0]);
        assert!(median_band(&[]).is_empty());
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let span = |name: &str, parent, dur_ns| Span {
            name: name.into(),
            parent,
            start_ns: 0,
            dur_ns,
        };
        let spans = vec![
            span("op", None, 100),
            span("prepare", Some(0), 60),
            span("bind", Some(1), 10),
            span("plan", Some(1), 20),
            span("serialize", Some(0), 15),
        ];
        assert_eq!(self_times(&spans), vec![25, 30, 10, 20, 15]);
        // A child that overruns its parent clamps the parent at zero.
        let over = vec![span("a", None, 5), span("b", Some(0), 7)];
        assert_eq!(self_times(&over), vec![0, 7]);
    }

    #[test]
    fn residual_closes_the_sum() {
        let parts = [1.5, 2.0, 0.25];
        let r = residual(10.0, &parts);
        assert_eq!(r, 6.25);
        assert_eq!(parts.iter().sum::<f64>() + r, 10.0);
        assert!(residual(1.0, &[2.0]) < 0.0);
    }
}
