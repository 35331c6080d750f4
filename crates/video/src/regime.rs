//! Content regimes: the latent states that make content-aware scheduling
//! worthwhile.
//!
//! Real videos alternate between slow, deliberate shots and fast, cluttered
//! action. The regime machinery reproduces that structure: each video runs
//! a Markov chain over `(MotionLevel, ClutterLevel)` states, and the scene
//! dynamics (object speed, spawn rate, background texture) are driven by
//! the current regime. Which execution branch is optimal depends strongly
//! on the regime — exactly the dependency LiteReconfig's content-aware
//! accuracy model learns to exploit.

use rand::Rng;

/// How fast objects move (and how much motion blur frames carry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MotionLevel {
    /// Near-static content; trackers stay accurate for long GoFs.
    Slow,
    /// Moderate motion.
    Medium,
    /// Fast motion; tracker drift accumulates quickly and frames blur.
    Fast,
}

impl MotionLevel {
    /// Typical object speed in fractions of the frame diagonal per frame.
    pub(crate) fn speed_scale(self) -> f32 {
        match self {
            MotionLevel::Slow => 0.0012,
            MotionLevel::Medium => 0.008,
            MotionLevel::Fast => 0.032,
        }
    }

    /// All levels, in increasing order of speed.
    pub(crate) fn all() -> [MotionLevel; 3] {
        [MotionLevel::Slow, MotionLevel::Medium, MotionLevel::Fast]
    }

    /// An index in `[0, 3)` for table lookups.
    pub(crate) fn index(self) -> usize {
        match self {
            MotionLevel::Slow => 0,
            MotionLevel::Medium => 1,
            MotionLevel::Fast => 2,
        }
    }
}

/// How many objects populate the scene and how busy the background is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClutterLevel {
    /// Few, large objects on a calm background.
    Sparse,
    /// Many, often small objects on a textured background.
    Cluttered,
}

impl ClutterLevel {
    /// Target number of concurrent objects.
    pub(crate) fn target_object_count(self) -> usize {
        match self {
            ClutterLevel::Sparse => 2,
            ClutterLevel::Cluttered => 8,
        }
    }

    /// Background texture amplitude in `[0, 1]`.
    pub fn texture_amplitude(self) -> f32 {
        match self {
            ClutterLevel::Sparse => 0.05,
            ClutterLevel::Cluttered => 0.25,
        }
    }

    /// Typical object scale (fraction of the frame's short side). Cluttered
    /// scenes carry smaller objects, which stresses the detector's input
    /// `shape` knob.
    pub(crate) fn object_scale(self) -> f32 {
        match self {
            ClutterLevel::Sparse => 0.32,
            ClutterLevel::Cluttered => 0.13,
        }
    }

    /// An index in `[0, 2)` for table lookups.
    pub(crate) fn index(self) -> usize {
        match self {
            ClutterLevel::Sparse => 0,
            ClutterLevel::Cluttered => 1,
        }
    }
}

/// A full content regime: the cross product of motion and clutter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Regime {
    /// Current motion level.
    pub motion: MotionLevel,
    /// Current clutter level.
    pub clutter: ClutterLevel,
}

impl Regime {
    /// All six regimes.
    pub(crate) fn all() -> Vec<Regime> {
        let mut v = Vec::with_capacity(6);
        for motion in MotionLevel::all() {
            for clutter in [ClutterLevel::Sparse, ClutterLevel::Cluttered] {
                v.push(Regime { motion, clutter });
            }
        }
        v
    }

    /// A regime index in `[0, 6)`.
    pub fn index(self) -> usize {
        self.motion.index() * 2 + self.clutter.index()
    }
}

/// A Markov chain over regimes with geometric dwell times.
///
/// Dwell times average `mean_dwell_frames`; on a switch, a uniformly random
/// *different* regime is chosen. The default mean dwell of 180 frames keeps
/// regimes long enough that a 100-frame snippet usually sees one regime
/// (the paper's rationale for N = 100) while still forcing the scheduler to
/// reconfigure several times per video.
#[derive(Debug, Clone)]
pub(crate) struct RegimeChain {
    current: Regime,
    mean_dwell_frames: f32,
}

impl RegimeChain {
    /// Starts the chain in a random regime.
    pub(crate) fn new(mean_dwell_frames: f32, rng: &mut impl Rng) -> Self {
        let all = Regime::all();
        let current = all[rng.gen_range(0..all.len())];
        Self {
            current,
            mean_dwell_frames: mean_dwell_frames.max(1.0),
        }
    }

    /// The current regime.
    pub(crate) fn current(&self) -> Regime {
        self.current
    }

    /// Advances one frame; returns the (possibly new) regime.
    pub(crate) fn step(&mut self, rng: &mut impl Rng) -> Regime {
        let switch_prob = 1.0 / self.mean_dwell_frames;
        if rng.gen::<f32>() < switch_prob {
            let all = Regime::all();
            loop {
                let candidate = all[rng.gen_range(0..all.len())];
                if candidate != self.current {
                    self.current = candidate;
                    break;
                }
            }
        }
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn six_distinct_regimes() {
        let all = Regime::all();
        assert_eq!(all.len(), 6);
        let mut idx: Vec<_> = all.iter().map(|r| r.index()).collect();
        idx.sort_unstable();
        assert_eq!(idx, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn motion_speed_is_monotone() {
        let [s, m, f] = MotionLevel::all();
        assert!(s.speed_scale() < m.speed_scale());
        assert!(m.speed_scale() < f.speed_scale());
    }

    #[test]
    fn cluttered_scenes_have_more_smaller_objects() {
        assert!(
            ClutterLevel::Cluttered.target_object_count()
                > ClutterLevel::Sparse.target_object_count()
        );
        assert!(ClutterLevel::Cluttered.object_scale() < ClutterLevel::Sparse.object_scale());
    }

    #[test]
    fn chain_dwell_time_is_roughly_geometric() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut chain = RegimeChain::new(100.0, &mut rng);
        let mut switches = 0;
        let mut prev = chain.current();
        let steps = 20_000;
        for _ in 0..steps {
            let cur = chain.step(&mut rng);
            if cur != prev {
                switches += 1;
                prev = cur;
            }
        }
        // Expected about steps/100 = 200 switches; allow a wide band.
        assert!(
            (100..400).contains(&switches),
            "unexpected switch count {switches}"
        );
    }

    #[test]
    fn chain_switches_to_a_different_regime() {
        let mut rng = StdRng::seed_from_u64(5);
        // Mean dwell 1 frame forces a switch nearly every step.
        let mut chain = RegimeChain::new(1.0, &mut rng);
        let mut prev = chain.current();
        let mut saw_switch = false;
        for _ in 0..50 {
            let cur = chain.step(&mut rng);
            if cur != prev {
                saw_switch = true;
            }
            prev = cur;
        }
        assert!(saw_switch);
    }
}
