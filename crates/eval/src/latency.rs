//! Latency statistics: mean and percentiles.

/// A run of consecutive samples with the same bits.
#[derive(Debug, Clone, Copy)]
struct Run {
    ms: f64,
    count: usize,
}

/// Accumulates per-frame latency samples and reports the statistics the
/// paper uses: mean latency and P95 (the SLO is a 95th-percentile bound,
/// i.e. a < 5% violation rate).
///
/// Samples are kept as runs of equal consecutive values: a GoF records
/// its amortized latency once per frame, so a run costs one entry per
/// GoF rather than one per frame. Every statistic equals, bit for bit,
/// the one computed over the plain list of samples.
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    runs: Vec<Run>,
    count: usize,
}

impl LatencyStats {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite samples.
    pub fn record(&mut self, ms: f64) {
        assert!(ms.is_finite() && ms >= 0.0, "invalid latency sample {ms}");
        self.push(Run { ms, count: 1 });
    }

    /// Appends a run, extending the last one when the bits are equal.
    fn push(&mut self, run: Run) {
        self.count += run.count;
        match self.runs.last_mut() {
            Some(last) if last.ms.to_bits() == run.ms.to_bits() => last.count += run.count,
            _ => self.runs.push(run),
        }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Mean latency (0 when empty). Adds every sample in recording
    /// order.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let samples = self
            .runs
            .iter()
            .flat_map(|r| std::iter::repeat_n(r.ms, r.count));
        samples.sum::<f64>() / self.count as f64
    }

    /// The `q`-quantile via nearest-rank on the sorted samples
    /// (`q` in `[0, 1]`; 0 when empty).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
        let rank = ((q * self.count as f64).ceil() as usize).clamp(1, self.count.max(1));
        // Runs of equal bits are interchangeable, so their order after
        // an unstable sort does not matter.
        let mut sorted = self.runs.clone();
        sorted.sort_unstable_by(|a, b| a.ms.total_cmp(&b.ms));
        let Some((last, rest)) = sorted.split_last() else {
            return 0.0;
        };
        let mut seen = 0;
        for run in rest {
            seen += run.count;
            if seen >= rank {
                return run.ms;
            }
        }
        last.ms
    }

    /// The 95th percentile.
    pub fn p95(&self) -> f64 {
        self.percentile(0.95)
    }

    /// The 99th percentile.
    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }

    /// Maximum sample (0 when empty).
    pub fn max(&self) -> f64 {
        self.runs.iter().map(|r| r.ms).fold(0.0, f64::max)
    }

    /// Fraction of samples strictly above `slo_ms` (the SLO violation
    /// rate; 0 when empty).
    pub fn violation_rate(&self, slo_ms: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let above: usize = self
            .runs
            .iter()
            .filter(|r| r.ms > slo_ms)
            .map(|r| r.count)
            .sum();
        above as f64 / self.count as f64
    }

    /// Merges another collector's samples into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        for &run in &other.runs {
            self.push(run);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(values: &[f64]) -> LatencyStats {
        let mut s = LatencyStats::new();
        for &v in values {
            s.record(v);
        }
        s
    }

    #[test]
    fn mean_of_known_values() {
        assert_eq!(filled(&[1.0, 2.0, 3.0]).mean(), 2.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = LatencyStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.p95(), 0.0);
        assert_eq!(s.violation_rate(10.0), 0.0);
    }

    #[test]
    fn p95_of_hundred_uniform_samples() {
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = filled(&values);
        assert_eq!(s.p95(), 95.0);
        assert_eq!(s.percentile(1.0), 100.0);
        assert_eq!(s.percentile(0.0), 1.0);
    }

    #[test]
    fn percentile_is_order_invariant() {
        let a = filled(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        let b = filled(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(a.p95(), b.p95());
        assert_eq!(a.mean(), b.mean());
    }

    #[test]
    fn violation_rate_counts_strict_exceedances() {
        let s = filled(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(s.violation_rate(25.0), 0.5);
        assert_eq!(s.violation_rate(40.0), 0.0);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = filled(&[1.0, 2.0]);
        let b = filled(&[3.0, 4.0]);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.mean(), 2.5);
    }

    #[test]
    #[should_panic(expected = "invalid latency sample")]
    fn negative_sample_panics() {
        LatencyStats::new().record(-1.0);
    }

    #[test]
    fn p95_tracks_heavy_tail() {
        // 99 fast frames and one huge spike: P95 stays low, max is huge.
        let mut values = vec![10.0; 99];
        values.push(5000.0);
        let s = filled(&values);
        assert_eq!(s.p95(), 10.0);
        assert_eq!(s.max(), 5000.0);
    }
}
