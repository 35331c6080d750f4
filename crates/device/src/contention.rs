//! The contention generator (CG).
//!
//! §6 of the paper: "CG is used as a stand-in for real-world background
//! workloads... tunable between 0% and 99% GPU contention". The paper
//! evaluates 0% and 50%. Under g% GPU contention the detector (a GPU
//! workload) effectively time-shares the GPU with the contender, so its
//! latency inflates by roughly `1 / (1 - g/100)`; CPU-side work (the
//! trackers, HoC/HOG extraction) is unaffected.

use rand::Rng;

/// A tunable GPU contention source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ContentionGenerator {
    /// GPU contention level in percent, `0.0..=99.0`.
    gpu_level_pct: f64,
}

impl ContentionGenerator {
    /// Creates a generator at the given GPU contention percentage.
    ///
    /// # Errors
    ///
    /// Returns the offending level if it is outside `[0, 99]` or not
    /// finite.
    pub(crate) fn try_new(gpu_level_pct: f64) -> Result<Self, f64> {
        if gpu_level_pct.is_finite() && (0.0..=99.0).contains(&gpu_level_pct) {
            Ok(Self { gpu_level_pct })
        } else {
            Err(gpu_level_pct)
        }
    }

    /// The mean slowdown factor applied to GPU ops.
    pub(crate) fn mean_gpu_slowdown(&self) -> f64 {
        1.0 / (1.0 - self.gpu_level_pct / 100.0)
    }

    /// Samples an instantaneous GPU slowdown factor.
    ///
    /// The contender's activity is bursty, so the instantaneous factor
    /// jitters around the mean: the op may land in a quiet window (close to
    /// 1x) or collide with a burst (worse than the mean). Zero contention
    /// always returns exactly 1.
    pub(crate) fn sample_gpu_slowdown(&self, rng: &mut impl Rng) -> f64 {
        if self.gpu_level_pct == 0.0 {
            return 1.0;
        }
        let mean = self.mean_gpu_slowdown();
        // Burstiness: mixture of a quiet window and a collision.
        let quiet_prob = (1.0 - self.gpu_level_pct / 100.0) * 0.5;
        if rng.gen::<f64>() < quiet_prob {
            1.0 + (mean - 1.0) * rng.gen_range(0.0..0.4)
        } else {
            mean * rng.gen_range(0.85..1.35)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl ContentionGenerator {
        /// Creates a generator at the given GPU contention percentage.
        ///
        /// # Panics
        ///
        /// Panics if `gpu_level_pct` is outside `[0, 99]`.
        pub(crate) fn new(gpu_level_pct: f64) -> Self {
            Self::try_new(gpu_level_pct)
                .unwrap_or_else(|pct| panic!("contention level {pct}% outside [0, 99]"))
        }
    }

    #[test]
    fn idle_contention_is_identity() {
        let cg = ContentionGenerator::new(0.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(cg.sample_gpu_slowdown(&mut rng), 1.0);
        }
    }

    #[test]
    fn fifty_percent_roughly_doubles_gpu_time() {
        let cg = ContentionGenerator::new(50.0);
        assert!((cg.mean_gpu_slowdown() - 2.0).abs() < 1e-9);
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| cg.sample_gpu_slowdown(&mut rng))
            .sum::<f64>()
            / n as f64;
        assert!(
            (1.6..2.4).contains(&mean),
            "sampled mean slowdown {mean} far from 2x"
        );
    }

    #[test]
    fn slowdown_never_below_one() {
        let cg = ContentionGenerator::new(80.0);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(cg.sample_gpu_slowdown(&mut rng) >= 1.0);
        }
    }

    #[test]
    fn higher_levels_mean_higher_slowdown() {
        assert!(
            ContentionGenerator::new(80.0).mean_gpu_slowdown()
                > ContentionGenerator::new(50.0).mean_gpu_slowdown()
        );
    }

    #[test]
    fn try_new_rejects_bad_levels_without_panicking() {
        assert_eq!(ContentionGenerator::try_new(100.0), Err(100.0));
        assert_eq!(ContentionGenerator::try_new(-0.5), Err(-0.5));
        assert!(ContentionGenerator::try_new(f64::NAN).is_err());
        assert!(ContentionGenerator::try_new(0.0).is_ok());
        assert!(ContentionGenerator::try_new(99.0).is_ok());
    }

    #[test]
    fn mean_slowdown_is_monotone_in_load() {
        let mut prev = 0.0;
        for level in 0..=99 {
            let s = ContentionGenerator::new(level as f64).mean_gpu_slowdown();
            assert!(
                s > prev,
                "mean slowdown not strictly increasing at {level}%: {s} <= {prev}"
            );
            prev = s;
        }
        // And it is exactly the processor-sharing stretch 1/(1-g).
        assert!((ContentionGenerator::new(0.0).mean_gpu_slowdown() - 1.0).abs() < 1e-12);
        assert!((ContentionGenerator::new(50.0).mean_gpu_slowdown() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sampled_slowdown_mean_is_monotone_in_load() {
        let mut prev = 0.0;
        for level in [0.0, 20.0, 40.0, 60.0, 80.0, 95.0] {
            let cg = ContentionGenerator::new(level);
            let mut rng = StdRng::seed_from_u64(11);
            let n = 20_000;
            let mean: f64 = (0..n)
                .map(|_| cg.sample_gpu_slowdown(&mut rng))
                .sum::<f64>()
                / n as f64;
            assert!(
                mean > prev,
                "sampled mean slowdown not increasing at {level}%: {mean} <= {prev}"
            );
            prev = mean;
        }
    }
}
