//! Frame rasterization.
//!
//! Content features (HoC, HOG, convolutional embeddings) must be computed
//! from actual pixels for the content-aware accuracy model to be a real
//! model rather than an oracle. The rasterizer renders a [`FrameTruth`]
//! into a small planar RGB image:
//!
//! - background: per-video vertical gradient plus a procedural texture
//!   whose amplitude follows the regime's clutter level;
//! - objects: filled ellipses in class-specific colors with
//!   difficulty-dependent camouflage (blending towards the background);
//! - motion blur: fast objects are drawn as several copies smeared along
//!   their velocity, so motion is visible in single-frame features.
//!
//! The raster resolution (default 64x64) trades feature fidelity against
//! wall-clock cost of the experiments; feature *latency* is charged in
//! virtual time from the paper's cost table regardless.

use crate::video::{FrameTruth, VideoStyle};

/// Default raster edge length in pixels.
pub const DEFAULT_RASTER_SIZE: usize = 64;

/// A planar (channel-major) RGB image with `f32` values in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct RgbFrame {
    width: usize,
    height: usize,
    /// Planar data: all R, then all G, then all B.
    data: Vec<f32>,
}

impl RgbFrame {
    /// Creates a black image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        Self {
            width,
            height,
            data: vec![0.0; 3 * width * height],
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The planar RGB buffer (R plane, G plane, B plane).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Sets channel `c` at `(x, y)`.
    pub fn set(&mut self, c: usize, x: usize, y: usize, v: f32) {
        self.data[c * self.width * self.height + y * self.width + x] = v.clamp(0.0, 1.0);
    }

    /// Per-pixel luminance (Rec. 601 weights), row-major.
    pub fn luminance(&self) -> Vec<f32> {
        let n = self.width * self.height;
        (0..n)
            .map(|i| 0.299 * self.data[i] + 0.587 * self.data[n + i] + 0.114 * self.data[2 * n + i])
            .collect()
    }
}

/// Renders a frame's ground truth into an RGB raster of the given size,
/// in the video's `style`: its background, and each object instance's
/// colour.
pub fn rasterize(truth: &FrameTruth, style: &VideoStyle, size: usize) -> RgbFrame {
    let mut img = RgbFrame::new(size, size);
    let tex_amp = truth.regime.clutter.texture_amplitude();
    let phase = truth.frame_index as f32 * 0.05;
    paint_background(&mut img, style, tex_amp, phase);
    draw_objects(&mut img, truth, style);
    img
}

/// Paints the background gradient plus the animated procedural texture
/// into a square image.
///
/// The texture at `(x, y)` is `tex_amp * (sin(column term) * cos(row
/// term))`, so the sines are taken once per column and the cosine and the
/// channel gradients once per row. Every value is computed by the same
/// `f32` expression, in the same operand order, as a per-pixel loop would
/// and clamped as [`RgbFrame::set`] clamps.
fn paint_background(img: &mut RgbFrame, style: &VideoStyle, tex_amp: f32, phase: f32) {
    let size = img.width;
    let plane = size * size;
    let col_sin: Vec<f32> = (0..size)
        .map(|x| {
            let fx = x as f32 / size as f32;
            (fx * style.texture_freq * 12.0 + phase).sin()
        })
        .collect();
    let mut tex = vec![0.0f32; size];
    for y in 0..size {
        let t = y as f32 / size as f32;
        let row_cos = (t * style.texture_freq * 9.0 - phase * 0.7).cos();
        for (v, &s) in tex.iter_mut().zip(&col_sin) {
            *v = tex_amp * (s * row_cos);
        }
        for c in 0..3 {
            let base = style.bg_top[c] * (1.0 - t) + style.bg_bottom[c] * t;
            let row = &mut img.data[c * plane + y * size..][..size];
            for (px, &v) in row.iter_mut().zip(&tex) {
                *px = (base + v).clamp(0.0, 1.0);
            }
        }
    }
}

/// Draws the objects back-to-front in id order, with motion blur.
fn draw_objects(img: &mut RgbFrame, truth: &FrameTruth, style: &VideoStyle) {
    let sx = img.width as f32 / truth.width;
    let sy = img.height as f32 / truth.height;
    for obj in &truth.objects {
        let color = style.object_color(obj);
        // Camouflage: difficult objects blend towards the background.
        let opacity = 1.0 - 0.65 * obj.difficulty;
        // Motion blur: number of smear copies grows with speed (in raster
        // pixels per frame).
        let speed_px = (obj.velocity.0 * sx).hypot(obj.velocity.1 * sy);
        let copies = 1 + (speed_px.min(6.0) as usize);
        for k in 0..copies {
            // Smear backwards along velocity.
            let frac = k as f32 / copies as f32;
            let cx = (obj.bbox.x + obj.bbox.w / 2.0 - obj.velocity.0 * frac) * sx;
            let cy = (obj.bbox.y + obj.bbox.h / 2.0 - obj.velocity.1 * frac) * sy;
            let rx = (obj.bbox.w / 2.0 * sx).max(0.75);
            let ry = (obj.bbox.h / 2.0 * sy).max(0.75);
            let alpha = opacity / copies as f32 * if k == 0 { 2.0 } else { 1.0 };
            fill_ellipse(img, cx, cy, rx, ry, color, alpha.min(1.0));
        }
    }
}

/// Fills an axis-aligned ellipse with alpha blending.
///
/// A pixel is inside when `dx * dx + dy * dy <= 1`, with `dx` and `dy` its
/// offsets from the centre in radii. That sum only falls and then rises
/// along a row, so each row's inside pixels form one run; the run is found
/// with the same test and each plane is blended over it by direct index.
/// Every value is `cur * (1 - alpha) + color * alpha`, clamped, exactly as
/// [`RgbFrame::blend`] computes it.
fn fill_ellipse(
    img: &mut RgbFrame,
    cx: f32,
    cy: f32,
    rx: f32,
    ry: f32,
    color: [f32; 3],
    alpha: f32,
) {
    let x0 = ((cx - rx).floor().max(0.0)) as usize;
    let x1 = ((cx + rx).ceil().min(img.width() as f32 - 1.0)) as usize;
    let y0 = ((cy - ry).floor().max(0.0)) as usize;
    let y1 = ((cy + ry).ceil().min(img.height() as f32 - 1.0)) as usize;
    if x0 > x1 || y0 > y1 {
        return;
    }
    let (width, plane) = (img.width, img.width * img.height);
    let keep = 1.0 - alpha;
    let paint = color.map(|col| col * alpha);
    for y in y0..=y1 {
        let dy = (y as f32 - cy) / ry;
        let dy2 = dy * dy;
        let inside = |x: usize| {
            let dx = (x as f32 - cx) / rx;
            dx * dx + dy2 <= 1.0
        };
        let Some(first) = (x0..=x1).find(|&x| inside(x)) else {
            continue;
        };
        let last = (first..=x1).rfind(|&x| inside(x)).unwrap_or(first);
        for (c, &add) in paint.iter().enumerate() {
            let start = c * plane + y * width;
            for px in &mut img.data[start + first..=start + last] {
                *px = (*px * keep + add).clamp(0.0, 1.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::video::{Video, VideoSpec};

    /// Test-only pixel access, for the per-pixel reference loops.
    impl RgbFrame {
        /// Pixel value for channel `c` at `(x, y)`.
        pub(crate) fn get(&self, c: usize, x: usize, y: usize) -> f32 {
            self.data[c * self.width * self.height + y * self.width + x]
        }

        /// Alpha-blends `color` over the pixel at `(x, y)`.
        pub(crate) fn blend(&mut self, x: usize, y: usize, color: [f32; 3], alpha: f32) {
            for (c, &col) in color.iter().enumerate() {
                let cur = self.get(c, x, y);
                self.set(c, x, y, cur * (1.0 - alpha) + col * alpha);
            }
        }
    }

    fn sample_video() -> Video {
        Video::generate(VideoSpec {
            id: 0,
            seed: 21,
            width: 640.0,
            height: 480.0,
            num_frames: 30,
        })
    }

    /// The background as a per-pixel loop: two transcendental calls and
    /// one clamped `set` per pixel.
    fn paint_background_per_pixel(
        img: &mut RgbFrame,
        style: &VideoStyle,
        tex_amp: f32,
        phase: f32,
    ) {
        let size = img.width();
        for y in 0..size {
            let t = y as f32 / size as f32;
            for x in 0..size {
                let fx = x as f32 / size as f32;
                let tex = tex_amp
                    * ((fx * style.texture_freq * 12.0 + phase).sin()
                        * (t * style.texture_freq * 9.0 - phase * 0.7).cos());
                for c in 0..3 {
                    let base = style.bg_top[c] * (1.0 - t) + style.bg_bottom[c] * t;
                    img.set(c, x, y, base + tex);
                }
            }
        }
    }

    /// Object drawing as a per-pixel loop: the ellipse test and a
    /// [`RgbFrame::blend`] for every pixel of the bounding box.
    fn fill_ellipse_per_pixel(
        img: &mut RgbFrame,
        cx: f32,
        cy: f32,
        rx: f32,
        ry: f32,
        color: [f32; 3],
        alpha: f32,
    ) {
        let x0 = ((cx - rx).floor().max(0.0)) as usize;
        let x1 = ((cx + rx).ceil().min(img.width() as f32 - 1.0)) as usize;
        let y0 = ((cy - ry).floor().max(0.0)) as usize;
        let y1 = ((cy + ry).ceil().min(img.height() as f32 - 1.0)) as usize;
        if x0 > x1 || y0 > y1 {
            return;
        }
        for y in y0..=y1 {
            for x in x0..=x1 {
                let dx = (x as f32 - cx) / rx;
                let dy = (y as f32 - cy) / ry;
                if dx * dx + dy * dy <= 1.0 {
                    img.blend(x, y, color, alpha);
                }
            }
        }
    }

    /// [`draw_objects`] on top of [`fill_ellipse_per_pixel`].
    fn draw_objects_per_pixel(img: &mut RgbFrame, truth: &FrameTruth, style: &VideoStyle) {
        let sx = img.width() as f32 / truth.width;
        let sy = img.height() as f32 / truth.height;
        for obj in &truth.objects {
            let color = style.object_color(obj);
            let opacity = 1.0 - 0.65 * obj.difficulty;
            let speed_px = (obj.velocity.0 * sx).hypot(obj.velocity.1 * sy);
            let copies = 1 + (speed_px.min(6.0) as usize);
            for k in 0..copies {
                let frac = k as f32 / copies as f32;
                let cx = (obj.bbox.x + obj.bbox.w / 2.0 - obj.velocity.0 * frac) * sx;
                let cy = (obj.bbox.y + obj.bbox.h / 2.0 - obj.velocity.1 * frac) * sy;
                let rx = (obj.bbox.w / 2.0 * sx).max(0.75);
                let ry = (obj.bbox.h / 2.0 * sy).max(0.75);
                let alpha = opacity / copies as f32 * if k == 0 { 2.0 } else { 1.0 };
                fill_ellipse_per_pixel(img, cx, cy, rx, ry, color, alpha.min(1.0));
            }
        }
    }

    fn assert_same_bits(a: &RgbFrame, b: &RgbFrame, what: &str) {
        assert_eq!(a.as_slice().len(), b.as_slice().len(), "{what}");
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}, value {i}: {x} vs {y}");
        }
    }

    #[test]
    fn raster_matches_the_per_pixel_loop_bit_for_bit() {
        use crate::regime::ClutterLevel;
        let (mut sparse, mut cluttered, mut blurred) = (0, 0, 0);
        for seed in 0..12u64 {
            let v = Video::generate(VideoSpec {
                id: seed as u32,
                seed: 500 + seed,
                width: 640.0,
                height: 480.0,
                num_frames: 60,
            });
            for truth in v.frames.iter().step_by(6) {
                match truth.regime.clutter {
                    ClutterLevel::Sparse => sparse += 1,
                    ClutterLevel::Cluttered => cluttered += 1,
                }
                for size in [16, 32, 64] {
                    let sx = size as f32 / truth.width;
                    let sy = size as f32 / truth.height;
                    blurred += truth
                        .objects
                        .iter()
                        .filter(|o| (o.velocity.0 * sx).hypot(o.velocity.1 * sy) >= 1.0)
                        .count();
                    let mut reference = RgbFrame::new(size, size);
                    let tex_amp = truth.regime.clutter.texture_amplitude();
                    let phase = truth.frame_index as f32 * 0.05;
                    paint_background_per_pixel(&mut reference, &v.style, tex_amp, phase);
                    draw_objects_per_pixel(&mut reference, truth, &v.style);
                    let what = format!("video {seed}, frame {}, size {size}", truth.frame_index);
                    assert_same_bits(&rasterize(truth, &v.style, size), &reference, &what);
                }
            }
        }
        assert!(
            sparse > 0 && cluttered > 0,
            "{sparse} sparse / {cluttered} cluttered"
        );
        assert!(blurred > 0, "no object was drawn with motion-blur copies");
    }

    #[test]
    fn ellipse_fill_matches_the_per_pixel_loop_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let v = sample_video();
        let mut rng = StdRng::seed_from_u64(0xE11_1F5E);
        let (mut clipped, mut outside, mut floored) = (0, 0, 0);
        for case in 0..400 {
            let size = [16, 32, 64][case % 3];
            let extent = size as f32;
            let mut fast = RgbFrame::new(size, size);
            paint_background(&mut fast, &v.style, 0.25, case as f32 * 0.1);
            let mut reference = fast.clone();
            // Several overlapping ellipses per image, like smear copies.
            for _ in 0..1 + case % 5 {
                let mut cx = rng.gen_range(-0.5 * extent..1.5 * extent);
                let mut cy = rng.gen_range(-0.5 * extent..1.5 * extent);
                let (mut rx, mut ry) = if rng.gen_bool(0.3) {
                    (0.75, rng.gen_range(0.75..3.0))
                } else {
                    (rng.gen_range(0.75..extent), rng.gen_range(0.75..extent))
                };
                if case % 4 == 0 {
                    // Whole centres and radii put pixels exactly on the
                    // rim, where the inside test is `<= 1`.
                    (cx, cy, rx, ry) = (cx.round(), cy.round(), rx.ceil(), ry.ceil());
                }
                let alpha = match rng.gen_range(0..4) {
                    0 => 1.0,
                    1 => rng.gen_range(1e-6..1e-3),
                    _ => rng.gen_range(0.0..1.0),
                };
                // Colours past [0, 1] exercise the clamp.
                let color = [(); 3].map(|()| rng.gen_range(-0.5..1.5));
                if rx == 0.75 {
                    floored += 1;
                }
                if cx + rx < 0.0 || cy + ry < 0.0 || cx - rx > extent || cy - ry > extent {
                    outside += 1;
                } else if cx - rx < 0.0 || cy - ry < 0.0 || cx + rx > extent || cy + ry > extent {
                    clipped += 1;
                }
                fill_ellipse(&mut fast, cx, cy, rx, ry, color, alpha);
                fill_ellipse_per_pixel(&mut reference, cx, cy, rx, ry, color, alpha);
            }
            assert_same_bits(&fast, &reference, &format!("case {case}, size {size}"));
        }
        assert!(clipped > 0 && outside > 0 && floored > 0);
    }

    #[test]
    fn background_matches_the_per_pixel_loop_for_any_amplitude() {
        let v = sample_video();
        for size in [16, 32, 64] {
            for (tex_amp, phase) in [(0.0, 0.0), (0.0, 1.35), (0.05, 0.4), (0.25, 2.9)] {
                let mut fast = RgbFrame::new(size, size);
                let mut reference = RgbFrame::new(size, size);
                paint_background(&mut fast, &v.style, tex_amp, phase);
                paint_background_per_pixel(&mut reference, &v.style, tex_amp, phase);
                let what = format!("size {size}, amplitude {tex_amp}, phase {phase}");
                assert_same_bits(&fast, &reference, &what);
            }
        }
    }

    #[test]
    fn a_hand_built_object_without_recorded_jitter_gets_its_class_colour() {
        use crate::{BBox, GtObject, ObjectClass};
        let v = sample_video();
        let mut truth = v.frames[0].clone();
        let class = ObjectClass::new(4);
        // Still, fully opaque, and centred: the centre pixel is painted
        // once with alpha 1, in exactly the object's colour.
        let unrecorded = GtObject {
            id: u32::MAX,
            class,
            bbox: BBox::from_center(320.0, 240.0, 200.0, 150.0),
            velocity: (0.0, 0.0),
            difficulty: 0.0,
        };
        truth.objects = vec![unrecorded].into();
        let img = rasterize(&truth, &v.style, 64);
        for (c, want) in class.base_color().iter().enumerate() {
            assert_eq!(img.get(c, 32, 32).to_bits(), want.to_bits(), "channel {c}");
        }
    }

    #[test]
    fn raster_is_deterministic() {
        let v = sample_video();
        let a = rasterize(&v.frames[5], &v.style, 64);
        let b = rasterize(&v.frames[5], &v.style, 64);
        assert_eq!(a, b);
    }

    #[test]
    fn raster_values_are_in_unit_range() {
        let v = sample_video();
        let img = rasterize(&v.frames[0], &v.style, 64);
        assert!(img.as_slice().iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn frames_with_objects_differ_from_empty_background() {
        let v = sample_video();
        let mut empty = v.frames[0].clone();
        empty.objects = Box::default();
        let with_objects = rasterize(&v.frames[0], &v.style, 64);
        let background = rasterize(&empty, &v.style, 64);
        if !v.frames[0].objects.is_empty() {
            assert_ne!(with_objects, background);
        }
    }

    #[test]
    fn different_frames_render_differently() {
        let v = sample_video();
        let a = rasterize(&v.frames[0], &v.style, 64);
        let b = rasterize(&v.frames[20], &v.style, 64);
        assert_ne!(a, b);
    }

    #[test]
    fn luminance_has_one_value_per_pixel() {
        let v = sample_video();
        let img = rasterize(&v.frames[0], &v.style, 32);
        assert_eq!(img.luminance().len(), 32 * 32);
    }

    #[test]
    fn blend_with_full_alpha_replaces() {
        let mut img = RgbFrame::new(2, 2);
        img.blend(0, 0, [1.0, 0.5, 0.25], 1.0);
        assert_eq!(img.get(0, 0, 0), 1.0);
        assert_eq!(img.get(1, 0, 0), 0.5);
        assert_eq!(img.get(2, 0, 0), 0.25);
    }
}
