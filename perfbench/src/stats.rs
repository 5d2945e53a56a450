//! Order statistics over measured samples.

/// The `q`-quantile (0–1) of `samples` by nearest rank; `0.0` when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Whole-nanosecond latencies, counted per nanosecond up to
/// [`Hist::CAP`]` - 1` (larger values land in the last bucket), so a run
/// keeps a fixed amount of memory however many ops it samples.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    len: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; Hist::CAP],
            len: 0,
        }
    }
}

impl Hist {
    pub const CAP: usize = 1 << 16;

    pub fn record(&mut self, ns: u32) {
        self.counts[(ns as usize).min(Hist::CAP - 1)] += 1;
        self.len += 1;
    }

    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `q`-quantile, interpolated within the run of samples tied at
    /// the nearest-rank value as for grouped data: a count at `v` stands
    /// for the interval `[v - 0.5, v + 0.5)`. Ties would otherwise make the
    /// quantile move in whole nanoseconds and read the same on every run.
    /// `0.0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.len as f64;
        let rank = target.ceil().max(1.0);
        let mut below = 0u64;
        for (v, &at) in self.counts.iter().enumerate() {
            if at > 0 && (below + at) as f64 >= rank {
                let within = ((target - below as f64) / at as f64).clamp(0.0, 1.0);
                return v as f64 - 0.5 + within;
            }
            below += at;
        }
        (Hist::CAP - 1) as f64
    }
}

/// Median of `samples` (the mean of the two middle values when even);
/// `0.0` when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `num / den`, or `0.0` when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn hist_quantiles_interpolate_within_ties() {
        let mut h = Hist::default();
        assert_eq!(h.quantile(0.5), 0.0);
        // Half the samples are 10 and half 11: the median sits at the
        // boundary between the two unit intervals.
        (0..50).for_each(|_| h.record(10));
        (0..50).for_each(|_| h.record(11));
        assert!((h.quantile(0.5) - 10.5).abs() < 1e-9);
        let mut h = Hist::default();
        (0..4).for_each(|_| h.record(10));
        (0..4).for_each(|_| h.record(12));
        // A quarter of the way into the run of 10s.
        assert!((h.quantile(0.125) - 9.75).abs() < 1e-9);
        h.record(u32::MAX);
        assert_eq!(h.len(), 9);
        assert!((h.quantile(1.0) - ((Hist::CAP - 1) as f64 + 0.5)).abs() < 1e-9);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
