//! Sample statistics: medians, quartiles and the tail-percentile rule.
//!
//! A tail percentile is only reported where the sample supports it: the
//! highest percentile (up to the one asked for) that has at least
//! [`MIN_BEYOND`] samples strictly beyond it. Percentiles are nearest-rank
//! on the sorted sample, computed in integer arithmetic so the rule is
//! exact at its boundaries.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a report may name, in hundredths of a percent,
/// ascending (p50, p90, p99, p99.9, p99.99).
pub const PERCENTILES: [u32; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// Zero-based nearest-rank index of percentile `p` (hundredths of a
/// percent) in a sorted sample of `n` values.
fn rank(n: usize, p: u32) -> usize {
    let scaled = (n as u128 * u128::from(p)).div_ceil(10_000) as usize;
    scaled.max(1) - 1
}

/// Samples strictly beyond percentile `p` in a sample of `n`.
pub fn beyond(n: usize, p: u32) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, p)
}

/// The highest of [`PERCENTILES`] not above `want` that has at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median lacks
/// them.
pub fn supported_percentile(n: usize, want: u32) -> Option<u32> {
    PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&p| p <= want && beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile `p` (hundredths of a percent) of a sorted,
/// non-empty sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile_sorted(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p)]
}

/// A latency-style summary: median plus the tail the sample supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Value at [`tail_pct`](Self::tail_pct).
    pub tail: f64,
    /// The percentile actually reported as the tail (hundredths of a
    /// percent); the sample maximum stands in when nothing is supported.
    pub tail_pct: u32,
}

impl Tail {
    /// Summarizes `values` asking for percentile `want` as the tail; an
    /// empty sample summarizes to zeros.
    pub fn of(values: &[f64], want: u32) -> Tail {
        if values.is_empty() {
            return Tail {
                n: 0,
                p50: 0.0,
                tail: 0.0,
                tail_pct: 0,
            };
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (tail, tail_pct) = match supported_percentile(sorted.len(), want) {
            Some(p) => (percentile_sorted(&sorted, p), p),
            None => (*sorted.last().expect("non-empty"), 10_000),
        };
        Tail {
            n: sorted.len(),
            p50: percentile_sorted(&sorted, 5_000),
            tail,
            tail_pct,
        }
    }
}

/// Median of a non-empty sample (the mean of the middle pair for an even
/// count); 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median over rounds of each round's [`Tail`]: a typical round's median
/// and tail, robust to a burst of host noise confined to a few rounds.
/// Each round must itself support the tail asked for; rounds that do not
/// are skipped, and the total sample count is kept in `n`.
pub fn round_tail(rounds: &[Vec<f64>], want: u32) -> Tail {
    let tails: Vec<Tail> = rounds
        .iter()
        .map(|r| Tail::of(r, want))
        .filter(|t| t.tail_pct == want)
        .collect();
    Tail {
        n: rounds.iter().map(Vec::len).sum(),
        p50: median(&tails.iter().map(|t| t.p50).collect::<Vec<_>>()),
        tail: median(&tails.iter().map(|t| t.tail).collect::<Vec<_>>()),
        tail_pct: if tails.is_empty() { 0 } else { want },
    }
}

/// Element-wise minimum of repeated timings of the same sequence of
/// steps (truncated to the shortest series): each step's fastest run,
/// the min-of-repeats estimate of its cost with the time a shared host
/// took away filtered out. Empty input gives an empty result.
pub fn best_per_step(series: &[Vec<f64>]) -> Vec<f64> {
    let steps = series.iter().map(Vec::len).min().unwrap_or(0);
    (0..steps)
        .map(|i| series.iter().map(|s| s[i]).fold(f64::INFINITY, f64::min))
        .collect()
}
