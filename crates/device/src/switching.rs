//! Branch switching costs (§3.5, Figure 5).
//!
//! Switching the MBEK from one execution branch to another costs time: the
//! first inference of the new branch is slower than its steady state
//! (different TensorFlow graph segments, re-allocated activations, ...).
//! Figure 5 shows three regularities the model reproduces:
//!
//! 1. costs are mostly below 10 ms;
//! 2. costs are higher when the *destination* branch is heavy
//!    (`shape=576, nprop=100`) and when the *source* branch is light
//!    (`shape=576, nprop=1`) — a light branch leaves less of the graph
//!    warm for the heavier successor;
//! 3. online runs occasionally show 1–5 s cold-miss outliers at
//!    non-repeating cells, which "become rarer still as the system runs
//!    for a longer period of time".
//!
//! The *offline* model is deterministic (it is what the scheduler's cost
//! term `C(b0, b)` uses); the *online* sampler adds the stochastic
//! cold-miss process.

use std::collections::BTreeSet;

use rand::Rng;

/// Deterministic expected switching cost, parameterized by the steady-state
/// detector latencies of the source and destination branches (a
/// knob-agnostic proxy for "how heavy" each branch is).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchingCostModel {
    /// Constant component of every switch, ms.
    pub base_ms: f64,
    /// Cost per ms of destination-branch heaviness.
    pub dst_coeff: f64,
    /// Extra cost added when the source branch is light, decaying with
    /// source heaviness.
    pub src_light_bonus_ms: f64,
    /// Decay scale (ms of source latency) for the light-source bonus.
    pub src_scale_ms: f64,
}

impl SwitchingCostModel {
    /// Parameters calibrated so costs land in the ranges of Figure 5(a):
    /// a few ms for most pairs, approaching ~10 ms for light-source /
    /// heavy-destination pairs.
    pub fn paper_default() -> Self {
        Self {
            base_ms: 1.2,
            dst_coeff: 0.028,
            src_light_bonus_ms: 4.5,
            src_scale_ms: 60.0,
        }
    }

    /// Expected cost of switching from a branch with steady-state detector
    /// latency `src_ms` to one with `dst_ms`. Staying on the same branch
    /// costs nothing, which callers should handle by passing equal ids —
    /// this function only sees latencies and always returns a positive
    /// cost.
    ///
    /// The cost is [`Self::dst_term_ms`] plus [`Self::src_term_ms`], so a
    /// caller that switches from one source to many destinations can keep
    /// each destination's term and pay the source's one `exp` once.
    pub fn offline_cost_ms(&self, src_ms: f64, dst_ms: f64) -> f64 {
        self.dst_term_ms(dst_ms) + self.src_term_ms(src_ms)
    }

    /// The light-source bonus of a switch away from a branch with
    /// steady-state detector latency `src_ms`: the only term of
    /// [`Self::offline_cost_ms`] that depends on the source.
    pub fn src_term_ms(&self, src_ms: f64) -> f64 {
        self.src_light_bonus_ms * (-src_ms.max(0.0) / self.src_scale_ms).exp()
    }

    /// The terms of [`Self::offline_cost_ms`] that depend on the
    /// destination only: the constant part and the destination's
    /// heaviness, `base_ms + dst_coeff * dst_ms`.
    pub fn dst_term_ms(&self, dst_ms: f64) -> f64 {
        self.base_ms + self.dst_coeff * dst_ms.max(0.0)
    }
}

impl Default for SwitchingCostModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Online switching-cost sampler with the cold-miss outlier process.
#[derive(Debug, Clone)]
pub struct OnlineSwitchSampler {
    model: SwitchingCostModel,
    /// Branches that have run (or been preheated) in this process.
    warmed: BTreeSet<u64>,
    /// Probability that switching to a never-before-used branch triggers a
    /// cold graph build (the 1–5 s outliers of Figure 5(b)).
    cold_miss_prob: f64,
    /// Residual outlier probability after the branch is warm.
    warm_outlier_prob: f64,
}

impl OnlineSwitchSampler {
    /// Creates a sampler over the given deterministic model.
    pub fn new(model: SwitchingCostModel) -> Self {
        Self {
            model,
            warmed: BTreeSet::new(),
            cold_miss_prob: 0.25,
            warm_outlier_prob: 0.002,
        }
    }

    /// Marks a branch as warm without charging anything (the paper preheats
    /// all branches "with several video frames in the beginning").
    pub fn preheat(&mut self, branch_key: u64) {
        self.warmed.insert(branch_key);
    }

    /// Samples the actual cost of a switch to `dst_key`.
    ///
    /// The expected component comes from the deterministic model; if the
    /// destination has never run in this process, a cold miss may add a
    /// 1–5 s outlier. The destination is warm afterwards either way, so
    /// outliers become rarer as the run progresses — matching Figure 5(b).
    pub fn sample_ms(&mut self, src_ms: f64, dst_ms: f64, dst_key: u64, rng: &mut impl Rng) -> f64 {
        let mut cost = self.model.offline_cost_ms(src_ms, dst_ms) * rng.gen_range(0.7..1.3);
        let outlier_prob = if self.warmed.contains(&dst_key) {
            self.warm_outlier_prob
        } else {
            self.cold_miss_prob
        };
        if rng.gen::<f64>() < outlier_prob {
            cost += rng.gen_range(1000.0..5000.0);
        }
        self.warmed.insert(dst_key);
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn typical_costs_are_below_ten_ms() {
        let m = SwitchingCostModel::paper_default();
        // A mid-weight to mid-weight switch.
        let c = m.offline_cost_ms(80.0, 90.0);
        assert!((0.0..10.0).contains(&c), "cost {c}");
    }

    #[test]
    fn heavy_destination_costs_more() {
        let m = SwitchingCostModel::paper_default();
        assert!(m.offline_cost_ms(80.0, 250.0) > m.offline_cost_ms(80.0, 40.0));
    }

    #[test]
    fn light_source_costs_more() {
        let m = SwitchingCostModel::paper_default();
        assert!(m.offline_cost_ms(20.0, 100.0) > m.offline_cost_ms(200.0, 100.0));
    }

    #[test]
    fn preheated_branches_rarely_spike() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut s = OnlineSwitchSampler::new(SwitchingCostModel::paper_default());
        for key in 0..8u64 {
            s.preheat(key);
        }
        let mut spikes = 0;
        for i in 0..2000 {
            let c = s.sample_ms(80.0, 80.0, i % 8, &mut rng);
            if c > 500.0 {
                spikes += 1;
            }
        }
        assert!(spikes < 20, "too many warm outliers: {spikes}");
    }

    #[test]
    fn cold_branches_spike_then_warm_up() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut s = OnlineSwitchSampler::new(SwitchingCostModel::paper_default());
        // Visit 200 distinct cold branches: expect a good number of spikes.
        let cold_spikes = (0..200u64)
            .filter(|&k| s.sample_ms(80.0, 80.0, k, &mut rng) > 500.0)
            .count();
        assert!(cold_spikes > 20, "cold spikes {cold_spikes}");
        // Revisit the same branches: spikes nearly vanish.
        let warm_spikes = (0..200u64)
            .filter(|&k| s.sample_ms(80.0, 80.0, k, &mut rng) > 500.0)
            .count();
        assert!(warm_spikes <= 3, "warm spikes {warm_spikes}");
        assert_eq!(s.warmed.len(), 200);
    }
}
