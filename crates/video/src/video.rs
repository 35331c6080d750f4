//! Whole videos: specs, styles, and generated frame truths.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::object::GtObject;
use crate::regime::Regime;
use crate::scene::{Scene, SceneConfig};

/// Source resolutions sampled for videos, mirroring the mixed resolutions
/// of ILSVRC VID footage.
pub(crate) const RESOLUTIONS: [(f32, f32); 4] = [
    (1280.0, 720.0),
    (856.0, 480.0),
    (640.0, 480.0),
    (320.0, 240.0),
];

/// Ground truth for a single frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameTruth {
    /// Identifier of the video stream this frame belongs to (the video
    /// seed). Detector simulators hash it together with object ids to
    /// draw *temporally persistent* detection outcomes.
    pub stream_id: u64,
    /// Zero-based frame index within the video.
    pub frame_index: u32,
    /// Source frame width in pixels.
    pub width: f32,
    /// Source frame height in pixels.
    pub height: f32,
    /// The latent content regime the frame was generated under. The
    /// scheduler never sees this directly — it must infer content
    /// characteristics through features.
    pub regime: Regime,
    /// Visible ground-truth objects.
    pub objects: Box<[GtObject]>,
}

/// Immutable description of a video before generation.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoSpec {
    /// Unique video id within the dataset.
    pub id: u32,
    /// Generation seed (fully determines the video).
    pub seed: u64,
    /// Source width in pixels.
    pub width: f32,
    /// Source height in pixels.
    pub height: f32,
    /// Number of frames.
    pub num_frames: usize,
}

impl VideoSpec {
    /// Derives a spec deterministically from an id, using the id itself to
    /// pick resolution and length (VID videos range from tens of frames to
    /// over a thousand; we use 240–600).
    pub fn from_id(id: u32) -> Self {
        let mut rng = StdRng::seed_from_u64(0x5EED_0000_u64 + id as u64);
        let (width, height) = RESOLUTIONS[rng.gen_range(0..RESOLUTIONS.len())];
        let num_frames = rng.gen_range(240..=600);
        Self {
            id,
            seed: (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x517E_C0DE,
            width,
            height,
            num_frames,
        }
    }
}

/// Per-video rendering style: the background palette and texture, derived
/// from the seed so that pixel features vary across videos, and each
/// object instance's colour jitter, drawn once when it spawns.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoStyle {
    /// Background gradient color at the top of the frame.
    pub bg_top: [f32; 3],
    /// Background gradient color at the bottom of the frame.
    pub bg_bottom: [f32; 3],
    /// Spatial frequency of the background texture.
    pub texture_freq: f32,
    /// Per-instance colour jitter on top of the class base colour,
    /// indexed by instance id; shared by every clone of the style.
    jitter: Arc<[[f32; 3]]>,
}

impl VideoStyle {
    /// Derives a style from a seed, holding the instances' colour `jitter`.
    pub(crate) fn from_seed(seed: u64, jitter: Arc<[[f32; 3]]>) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBADC_0FFE);
        let hue = rng.gen_range(0.0..360.0);
        let bg_top = crate::classes::hsv_to_rgb(hue, rng.gen_range(0.1..0.4), 0.8);
        let bg_bottom =
            crate::classes::hsv_to_rgb((hue + 40.0) % 360.0, rng.gen_range(0.1..0.4), 0.45);
        Self {
            bg_top,
            bg_bottom,
            texture_freq: rng.gen_range(0.5..3.0),
            jitter,
        }
    }

    /// The colour an object is drawn in: its class base colour plus its
    /// instance's jitter, clamped to `[0, 1]`.
    ///
    /// An id with no recorded jitter, as a hand-built frame may carry,
    /// is drawn in its class base colour.
    pub(crate) fn object_color(&self, obj: &GtObject) -> [f32; 3] {
        let base = obj.class.base_color();
        let jitter = self
            .jitter
            .get(obj.id as usize)
            .copied()
            .unwrap_or_default();
        std::array::from_fn(|i| (base[i] + jitter[i]).clamp(0.0, 1.0))
    }
}

/// A fully generated video: spec, style, and per-frame ground truth.
///
/// Frames are never changed after generation, so the frames and the
/// style's jitter are shared: cloning a video copies its spec and two
/// reference counts.
#[derive(Debug, Clone)]
pub struct Video {
    /// The video's spec.
    pub spec: VideoSpec,
    /// The video's rendering style.
    pub style: VideoStyle,
    /// Ground truth for every frame, in order, in one allocation.
    pub frames: Arc<[FrameTruth]>,
}

impl Video {
    /// Generates the video described by `spec`.
    pub fn generate(spec: VideoSpec) -> Self {
        let cfg = SceneConfig {
            width: spec.width,
            height: spec.height,
        };
        let mut scene = Scene::new(cfg, spec.seed);
        let frames = (0..spec.num_frames).map(|_| scene.step()).collect();
        let style = VideoStyle::from_seed(spec.seed, scene.into_jitter());
        Self {
            spec,
            style,
            frames,
        }
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True if the video has no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Iterates over non-overlapping snippets of `n` frames (the paper's
    /// accuracy-prediction granularity, N = 100). The final partial snippet
    /// is included if it has at least `n / 2` frames.
    pub fn snippets(&self, n: usize) -> Vec<&[FrameTruth]> {
        assert!(n > 0, "snippet length must be positive");
        let mut out = Vec::new();
        let mut start = 0;
        while start + n <= self.frames.len() {
            out.push(&self.frames[start..start + n]);
            start += n;
        }
        let rem = self.frames.len() - start;
        if rem >= n / 2 && rem > 0 {
            out.push(&self.frames[start..]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = VideoSpec {
            id: 0,
            seed: 9,
            width: 640.0,
            height: 480.0,
            num_frames: 60,
        };
        let a = Video::generate(spec.clone());
        let b = Video::generate(spec);
        assert_eq!(a.style, b.style);
        assert_eq!(a.frames.len(), b.frames.len());
        for (fa, fb) in a.frames.iter().zip(b.frames.iter()) {
            assert_eq!(fa, fb);
        }
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn ground_truth_layout_is_compact() {
        // Colour jitter lives in the style, not in every frame's copy of
        // an object; a frame's objects are a boxed slice, not a `Vec`.
        assert_eq!(std::mem::size_of::<GtObject>(), 36);
        assert_eq!(std::mem::size_of::<FrameTruth>(), 40);
    }

    #[test]
    fn a_cloned_video_shares_its_frames_and_jitter() {
        let v = Video::generate(VideoSpec {
            id: 0,
            seed: 5,
            width: 320.0,
            height: 240.0,
            num_frames: 40,
        });
        let c = v.clone();
        assert!(Arc::ptr_eq(&v.frames, &c.frames));
        assert!(Arc::ptr_eq(&v.style.jitter, &c.style.jitter));
        assert_eq!(Arc::strong_count(&v.frames), 2);
        drop(c);
        assert_eq!(Arc::strong_count(&v.frames), 1);
    }

    #[test]
    fn every_generated_id_has_recorded_jitter() {
        let v = Video::generate(VideoSpec {
            id: 0,
            seed: 13,
            width: 640.0,
            height: 480.0,
            num_frames: 300,
        });
        let max_id = v.frames.iter().flat_map(|f| &f.objects).map(|o| o.id);
        let max_id = max_id.max().expect("the video has objects") as usize;
        assert!(max_id < v.style.jitter.len());
        assert!(v.style.jitter.iter().flatten().all(|j| j.abs() <= 0.12));
    }

    #[test]
    fn object_color_clamps_jitter_and_falls_back_to_the_base_colour() {
        let style = VideoStyle::from_seed(1, Arc::new([[10.0, -10.0, 0.0]]));
        let mut obj = GtObject {
            id: 0,
            class: crate::ObjectClass::new(6),
            bbox: crate::BBox::new(10.0, 10.0, 30.0, 40.0),
            velocity: (0.0, 0.0),
            difficulty: 0.0,
        };
        let base = obj.class.base_color();
        assert_eq!(style.object_color(&obj), [1.0, 0.0, base[2]]);
        // A hand-built object whose id has no recorded jitter.
        obj.id = 1;
        assert_eq!(style.object_color(&obj), base);
    }

    #[test]
    fn snippets_partition_without_overlap() {
        let spec = VideoSpec {
            id: 0,
            seed: 2,
            width: 320.0,
            height: 240.0,
            num_frames: 250,
        };
        let v = Video::generate(spec);
        let snippets = v.snippets(100);
        // 250 frames -> [0,100), [100,200), and the 50-frame remainder.
        assert_eq!(snippets.len(), 3);
        assert_eq!(snippets[0].len(), 100);
        assert_eq!(snippets[2].len(), 50);
        assert_eq!(snippets[1][0].frame_index, 100);
    }

    #[test]
    fn short_remainder_is_dropped() {
        let spec = VideoSpec {
            id: 0,
            seed: 2,
            width: 320.0,
            height: 240.0,
            num_frames: 130,
        };
        let v = Video::generate(spec);
        // 30-frame remainder < 50 is dropped.
        assert_eq!(v.snippets(100).len(), 1);
    }

    #[test]
    fn style_is_deterministic_and_seed_dependent() {
        let style = |seed| VideoStyle::from_seed(seed, Arc::default());
        assert_eq!(style(1), style(1));
        assert_ne!(style(1), style(2));
    }

    #[test]
    fn object_speeds_and_scales_are_finite() {
        let spec = VideoSpec {
            id: 0,
            seed: 4,
            width: 640.0,
            height: 480.0,
            num_frames: 100,
        };
        let v = Video::generate(spec);
        for f in v.frames.iter() {
            for o in &f.objects {
                assert!(o.speed().is_finite());
                assert!(o.relative_scale(f.width, f.height).is_finite());
            }
        }
    }
}
