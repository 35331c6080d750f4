//! AdaScale's multi-scale (MS) mode: adaptive per-frame input scaling.
//!
//! AdaScale (Chin et al., SysML'19) regresses the "optimal" input scale
//! for the *next* frame from the current frame's detections: frames whose
//! smallest confident object is large can be processed at a lower scale
//! with no accuracy loss, while frames with small objects need a high
//! scale. This module implements that feedback controller over the
//! [`DetectorSim`] of the AdaScale family — the `AdaScale-MS` row of
//! Table 3.

use rand::Rng;

use lr_video::FrameTruth;

use crate::branch::DetectorConfig;
use crate::detector::{DetectorFamily, DetectorOutput, DetectorSim};

/// The discrete scales AdaScale switches among (shortest-side pixels),
/// matching the paper's SS variants.
pub(crate) const SCALES: [u32; 4] = [240, 360, 480, 600];

/// The adaptive-scale detector.
#[derive(Debug, Clone)]
pub struct AdaScaleMs {
    sim: DetectorSim,
    current_scale: u32,
    /// Apparent size (px at detector scale) below which the controller
    /// scales up.
    min_app_size: f32,
    /// Apparent size above which it scales down.
    max_app_size: f32,
}

impl Default for AdaScaleMs {
    fn default() -> Self {
        Self::new()
    }
}

impl AdaScaleMs {
    /// Creates the controller starting at the middle scale.
    pub fn new() -> Self {
        Self {
            sim: DetectorSim::new(DetectorFamily::AdaScale),
            current_scale: 480,
            min_app_size: 24.0,
            max_app_size: 64.0,
        }
    }

    /// The scale the next frame will run at.
    pub fn current_scale(&self) -> u32 {
        self.current_scale
    }

    /// The detector config for the current scale.
    pub fn config(&self) -> DetectorConfig {
        DetectorConfig::new(self.current_scale, 100)
    }

    /// Runs one frame at the current scale, then updates the scale for
    /// the next frame from the observed detections.
    pub fn step(&mut self, truth: &FrameTruth, rng: &mut impl Rng) -> DetectorOutput {
        let cfg = self.config();
        let out = self.sim.detect(truth, cfg, rng);

        // Smallest confident detection, in pixels at the current scale.
        let scale_factor = self.current_scale as f32 / truth.width.min(truth.height).max(1.0);
        let min_side = out
            .detections
            .iter()
            .filter(|d| d.score > 0.3)
            .map(|d| d.bbox.w.min(d.bbox.h) * scale_factor)
            .fold(f32::INFINITY, f32::min);

        let idx = SCALES
            .iter()
            .position(|&s| s == self.current_scale)
            .unwrap_or(2);
        if min_side.is_finite() {
            if min_side < self.min_app_size && idx + 1 < SCALES.len() {
                self.current_scale = SCALES[idx + 1];
            } else if min_side > self.max_app_size && idx > 0 {
                self.current_scale = SCALES[idx - 1];
            }
        } else if idx + 1 < SCALES.len() {
            // Nothing detected: scale up to look harder.
            self.current_scale = SCALES[idx + 1];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_video::{Video, VideoSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn video() -> Video {
        Video::generate(VideoSpec {
            id: 0,
            seed: 3131,
            width: 640.0,
            height: 480.0,
            num_frames: 300,
        })
    }

    #[test]
    fn controller_visits_multiple_scales() {
        let v = video();
        let mut ms = AdaScaleMs::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mut scales = std::collections::BTreeSet::new();
        for f in v.frames.iter() {
            let _ = ms.step(f, &mut rng);
            scales.insert(ms.current_scale());
        }
        assert!(
            scales.len() >= 2,
            "adaptive controller stuck at one scale: {scales:?}"
        );
    }

    #[test]
    fn scale_stays_within_catalog() {
        let v = video();
        let mut ms = AdaScaleMs::new();
        let mut rng = StdRng::seed_from_u64(2);
        for f in v.frames.iter() {
            let _ = ms.step(f, &mut rng);
            assert!(SCALES.contains(&ms.current_scale()));
        }
    }

    #[test]
    fn empty_frame_scales_up() {
        let v = video();
        let mut empty = v.frames[0].clone();
        empty.objects = Box::default();
        let mut ms = AdaScaleMs::new();
        let before = ms.current_scale();
        let mut rng = StdRng::seed_from_u64(3);
        let _ = ms.step(&empty, &mut rng);
        assert!(ms.current_scale() >= before);
    }
}
