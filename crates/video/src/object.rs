//! Ground-truth object instances.

use crate::classes::ObjectClass;
use crate::geometry::BBox;

/// A ground-truth object instance on a single frame.
///
/// Instances carry everything the detector simulators and the evaluation
/// pipeline need: identity (for tracking), geometry, class, instantaneous
/// velocity (for motion blur and tracker drift), and an intrinsic visual
/// `difficulty` that degrades detectability independent of size.
#[derive(Debug, Clone, PartialEq)]
pub struct GtObject {
    /// Stable per-video instance id (survives across frames).
    pub id: u32,
    /// Object category.
    pub class: ObjectClass,
    /// Bounding box in source-resolution pixels, clamped to the frame.
    pub bbox: BBox,
    /// Instantaneous velocity in pixels/frame `(vx, vy)`.
    pub velocity: (f32, f32),
    /// Intrinsic visual difficulty in `[0, 1]` (occlusion, camouflage...).
    pub difficulty: f32,
}

impl GtObject {
    /// Speed in pixels/frame.
    pub fn speed(&self) -> f32 {
        let (vx, vy) = self.velocity;
        (vx * vx + vy * vy).sqrt()
    }

    /// Relative scale: the box's short side divided by the frame's short
    /// side. Small values mean hard-to-detect objects.
    pub fn relative_scale(&self, frame_w: f32, frame_h: f32) -> f32 {
        let short_obj = self.bbox.w.min(self.bbox.h);
        let short_frame = frame_w.min(frame_h).max(1.0);
        short_obj / short_frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GtObject {
        GtObject {
            id: 1,
            class: ObjectClass::new(6),
            bbox: BBox::new(10.0, 10.0, 30.0, 40.0),
            velocity: (3.0, 4.0),
            difficulty: 0.2,
        }
    }

    #[test]
    fn speed_is_euclidean() {
        assert!((sample().speed() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn relative_scale_uses_short_sides() {
        let o = sample();
        // Short object side 30, short frame side 120.
        assert!((o.relative_scale(200.0, 120.0) - 0.25).abs() < 1e-6);
    }
}
