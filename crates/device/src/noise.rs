//! Latency noise: multiplicative jitter with a heavy tail.

use rand::Rng;

/// Samples multiplicative latency noise.
///
/// Real kernel launch latencies jitter a few percent run-to-run and
/// occasionally spike (scheduler preemption, memory pressure). The model
/// is a log-normal-like factor `exp(sigma * z)` (with `z` approximately
/// standard normal) plus a rare spike that multiplies latency by
/// `spike_factor`. The defaults make the P95/mean gap visible without
/// dominating it — matching the paper's observation that LiteReconfig must
/// stay conservatively below the SLO to bound P95.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LatencyNoise {
    /// Log-scale jitter standard deviation.
    pub sigma: f64,
    /// Probability of a spike per op.
    pub spike_prob: f64,
    /// Multiplier applied on a spike.
    pub spike_factor: f64,
}

impl Default for LatencyNoise {
    fn default() -> Self {
        Self {
            sigma: 0.06,
            spike_prob: 0.004,
            spike_factor: 1.8,
        }
    }
}

impl LatencyNoise {
    /// Samples one noise factor (always >= a small positive bound).
    pub(crate) fn sample(&self, rng: &mut impl Rng) -> f64 {
        let z = approx_standard_normal(rng);
        let mut factor = (self.sigma * z).exp();
        if self.spike_prob > 0.0 && rng.gen::<f64>() < self.spike_prob {
            factor *= self.spike_factor;
        }
        factor.max(0.5)
    }
}

/// Approximates a standard normal via the sum of 12 uniforms (Irwin–Hall),
/// which is plenty for latency jitter and avoids a distributions crate.
fn approx_standard_normal(rng: &mut impl Rng) -> f64 {
    let s: f64 = (0..12).map(|_| rng.gen::<f64>()).sum();
    s - 6.0
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A zero-noise configuration for deterministic tests.
    pub(crate) const NO_NOISE: LatencyNoise = LatencyNoise {
        sigma: 0.0,
        spike_prob: 0.0,
        spike_factor: 1.0,
    };

    #[test]
    fn zero_noise_is_identity() {
        let n = NO_NOISE;
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(n.sample(&mut rng), 1.0);
        }
    }

    #[test]
    fn mean_factor_is_near_one() {
        let n = LatencyNoise::default();
        let mut rng = StdRng::seed_from_u64(2);
        let k = 50_000;
        let mean: f64 = (0..k).map(|_| n.sample(&mut rng)).sum::<f64>() / k as f64;
        assert!((0.95..1.1).contains(&mean), "mean noise factor {mean}");
    }

    #[test]
    fn spikes_appear_at_roughly_the_configured_rate() {
        let n = LatencyNoise {
            sigma: 0.0,
            spike_prob: 0.01,
            spike_factor: 3.0,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let k = 100_000;
        let spikes = (0..k).filter(|_| n.sample(&mut rng) > 2.0).count();
        let rate = spikes as f64 / k as f64;
        assert!(
            (0.005..0.02).contains(&rate),
            "spike rate {rate} far from 0.01"
        );
    }

    #[test]
    fn standard_normal_approximation_moments() {
        let mut rng = StdRng::seed_from_u64(4);
        let k = 100_000;
        let samples: Vec<f64> = (0..k).map(|_| approx_standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / k as f64;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / k as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }
}
