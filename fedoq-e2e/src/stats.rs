//! Summary statistics under the benchmark's percentile rule.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`TAIL_BEYOND`] samples beyond it, capped at p99,
//! together with the sample count. With fewer than 1000 samples "p99"
//! would rest on fewer than ten observations, so the tail reported is
//! the highest one the sample supports and the report names it.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest tail percentile ever reported.
pub const TAIL_CAP: f64 = 0.99;

/// Nearest-rank percentile of ascending `sorted` data: the smallest
/// value with at least `q · n` samples at or below it.
///
/// Returns `None` for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    // The epsilon keeps `0.95 · 200` at rank 190 despite rounding.
    let rank = (q * n as f64 - 1e-9).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// The highest quantile `q ≤ TAIL_CAP` whose nearest-rank value leaves
/// at least [`TAIL_BEYOND`] samples strictly above its rank, or `None`
/// when the sample is too small for any tail (≤ `TAIL_BEYOND` samples).
pub fn tail_quantile(n: usize) -> Option<f64> {
    if n <= TAIL_BEYOND {
        return None;
    }
    // rank = ceil(q n) ≤ n − TAIL_BEYOND  ⇔  q ≤ (n − TAIL_BEYOND) / n.
    Some(((n - TAIL_BEYOND) as f64 / n as f64).min(TAIL_CAP))
}

/// The supported tail of one latency sample (its median is [`median`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// The tail quantile reported (see [`tail_quantile`]).
    pub tail_q: f64,
    /// The value at `tail_q`.
    pub tail: f64,
}

impl Summary {
    /// Summarizes `values`; `None` when there are too few samples for
    /// a tail.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_q = tail_quantile(sorted.len())?;
        Some(Summary {
            n: sorted.len(),
            tail_q,
            tail: percentile(&sorted, tail_q)?,
        })
    }

    /// `p99`, or `p96.9` when the sample supports less.
    pub fn tail_label(&self) -> String {
        let pct = self.tail_q * 100.0;
        if (pct - pct.round()).abs() < 1e-9 {
            format!("p{pct:.0}")
        } else {
            format!("p{pct:.1}")
        }
    }
}

/// Median of `values` (nearest rank); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let data: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&data, 0.5), Some(50.0));
        assert_eq!(percentile(&data, 0.99), Some(99.0));
        assert_eq!(percentile(&data, 1.0), Some(100.0));
        assert_eq!(percentile(&data, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // Too small for any tail.
        assert_eq!(tail_quantile(0), None);
        assert_eq!(tail_quantile(10), None);
        // p99 needs 1000 samples: rank 990 leaves exactly 10 above.
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(50_000), Some(0.99));
        // Below that, the highest supported quantile.
        assert_eq!(tail_quantile(999), Some(989.0 / 999.0));
        assert_eq!(tail_quantile(200), Some(0.95));
        for n in [11usize, 57, 200, 320, 999, 1000, 1001, 5000] {
            let q = tail_quantile(n).unwrap();
            let rank = (q * n as f64 - 1e-9).ceil() as usize;
            assert!(n - rank >= TAIL_BEYOND, "n={n}: {} beyond", n - rank);
        }
    }

    #[test]
    fn summary_states_count_and_tail() {
        let data: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let s = Summary::of(&data).unwrap();
        assert_eq!(s.n, 200);
        assert_eq!(median(&data), Some(100.0));
        assert_eq!(s.tail, 190.0);
        assert_eq!(s.tail_label(), "p95");
        let s = Summary::of(&(1..=320).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(s.tail_label(), "p96.9");
        assert_eq!(s.tail, 310.0);
        assert!(Summary::of(&[1.0; 10]).is_none());
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }
}
