//! Order statistics over timing samples.

/// Samples sorted ascending. Empty input stays empty; every accessor then
/// returns 0 so a metric is still a finite number.
pub struct Sorted(Vec<f64>);

impl Sorted {
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Sorted(samples)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Linear-interpolated quantile, `q` in `0..=1`.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.0.len();
        if n == 0 {
            return 0.0;
        }
        let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        self.0[lo] + (self.0[hi] - self.0[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The tail statistic: the highest percentile that still has at least
    /// ten samples above it (p97.5 of 400 samples, p95 of 200, p75 of 40),
    /// never below the median. Returns `(percentile, value)`.
    pub fn tail(&self) -> (f64, f64) {
        let n = self.0.len();
        if n == 0 {
            return (0.0, 0.0);
        }
        let idx = tail_index(n);
        (100.0 * (idx + 1) as f64 / n as f64, self.0[idx])
    }
}

/// Zero-based index, among `n` ascending samples, of the tail sample: ten
/// samples lie above it, unless that would fall below the upper median.
pub fn tail_index(n: usize) -> usize {
    assert!(n > 0, "no samples");
    n.saturating_sub(11).max(n / 2)
}

pub const TAIL_BLOCK: usize = 80;
pub const TAIL_BLOCKS: usize = 8;

/// The tail of a long run, steadied: `samples` (in time order) are cut into
/// consecutive blocks of at least [`TAIL_BLOCK`] samples, at most
/// [`TAIL_BLOCKS`] of them, the [`Sorted::tail`] rule is applied to each
/// block, and the median over blocks is reported with the blocks' percentile.
/// One burst of host noise then moves one block, not the result: over eight
/// 10 s runs of `heat-fine` the whole-run p98 ranged 16.5-37.5 ms, this
/// 15.1-15.8 ms. Runs shorter than two blocks get the plain rule.
pub fn block_tail(samples: &[f64]) -> (f64, f64) {
    let blocks = (samples.len() / TAIL_BLOCK).clamp(1, TAIL_BLOCKS);
    let len = samples.len().div_ceil(blocks).max(1);
    let tails: Vec<(f64, f64)> = samples
        .chunks(len)
        .map(|block| Sorted::new(block.to_vec()).tail())
        .collect();
    (
        median(&tails.iter().map(|t| t.0).collect::<Vec<_>>()),
        median(&tails.iter().map(|t| t.1).collect::<Vec<_>>()),
    )
}

pub fn median(samples: &[f64]) -> f64 {
    Sorted::new(samples.to_vec()).median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_matches_the_documented_percentiles() {
        // (samples, percentile): ten samples above the reported one.
        for (n, pct) in [(400, 97.5), (200, 95.0), (40, 75.0), (30, 66.66)] {
            let s = Sorted::new((0..n).map(|i| i as f64).collect());
            let (p, v) = s.tail();
            assert!((p - pct).abs() < 0.01, "{n} samples: p{p}");
            assert_eq!(v, (n - 11) as f64);
            assert_eq!(n - 1 - tail_index(n), 10, "ten samples above");
        }
    }

    #[test]
    fn tail_never_drops_below_the_median() {
        for n in 1..=21 {
            assert!(tail_index(n) >= n / 2, "{n} samples");
            assert!(tail_index(n) < n);
        }
        assert_eq!(tail_index(1), 0);
        assert_eq!(tail_index(2), 1);
        assert_eq!(tail_index(22), 11);
    }

    #[test]
    fn block_tail_is_the_plain_rule_on_short_runs_and_shrugs_off_one_burst() {
        let short: Vec<f64> = (0..40).map(f64::from).collect();
        assert_eq!(block_tail(&short), Sorted::new(short.clone()).tail());
        assert_eq!(block_tail(&[]), (0.0, 0.0));

        // 800 steady samples with one burst of 30 slow ones: the plain tail
        // lands in the burst, the block tail does not.
        let mut long = vec![10.0; 800];
        long[100..130].fill(50.0);
        assert_eq!(Sorted::new(long.clone()).tail().1, 50.0);
        let (pct, value) = block_tail(&long);
        assert_eq!(value, 10.0);
        assert!((pct - 90.0).abs() < 0.01, "eight blocks of 100: p{pct}");
    }

    #[test]
    fn quantiles_interpolate() {
        let s = Sorted::new(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(Sorted::new(vec![]).median(), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }
}
