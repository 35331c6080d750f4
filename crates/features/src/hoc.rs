//! Histogram of Colors (HoC), `f_H^1`.
//!
//! A 256-bin histogram per RGB channel, concatenated to 768 dimensions and
//! normalized to sum to 1 per channel — a direct implementation of the
//! classic color-histogram feature (Novak & Shafer, CVPR'92) the paper
//! uses.

use lr_video::RgbFrame;

/// Bins per channel.
pub const BINS: usize = 256;

/// Output dimensionality (3 channels x 256 bins).
pub const DIM: usize = 3 * BINS;

/// Extracts the 768-dimensional HoC feature from a frame.
///
/// Bins are counted as integers; a count of at most 2^24 pixels converts
/// to `f32` exactly, so each value is `count * (1 / pixels)` just as if
/// the histogram had been accumulated in `f32`.
pub fn extract(frame: &RgbFrame) -> Vec<f32> {
    let mut counts = [[0u32; BINS]; 3];
    let n = frame.width() * frame.height();
    let data = frame.as_slice();
    for (c, hist) in counts.iter_mut().enumerate() {
        for &v in &data[c * n..(c + 1) * n] {
            let bin = ((v * 255.0) as usize).min(BINS - 1);
            hist[bin] += 1;
        }
    }
    let inv = 1.0 / n as f32;
    counts
        .iter()
        .flatten()
        .map(|&count| count as f32 * inv)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_video::raster::rasterize;
    use lr_video::{Video, VideoSpec};

    fn frame() -> RgbFrame {
        let v = Video::generate(VideoSpec {
            id: 0,
            seed: 31,
            width: 640.0,
            height: 480.0,
            num_frames: 5,
        });
        rasterize(&v.frames[2], &v.style, 64)
    }

    /// The histogram as an `f32` running sum per bin, scaled in place.
    fn extract_f32_sums(frame: &RgbFrame) -> Vec<f32> {
        let mut hist = vec![0.0f32; DIM];
        let n = frame.width() * frame.height();
        let data = frame.as_slice();
        for c in 0..3 {
            let plane = &data[c * n..(c + 1) * n];
            for &v in plane {
                let bin = ((v * 255.0) as usize).min(BINS - 1);
                hist[c * BINS + bin] += 1.0;
            }
        }
        let inv = 1.0 / n as f32;
        for v in &mut hist {
            *v *= inv;
        }
        hist
    }

    fn assert_same_bits(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}, bin {i}: {x} vs {y}");
        }
    }

    #[test]
    fn integer_counts_match_the_f32_sums_bit_for_bit() {
        for seed in 0..6u64 {
            let v = Video::generate(VideoSpec {
                id: seed as u32,
                seed: 700 + seed,
                width: 640.0,
                height: 480.0,
                num_frames: 20,
            });
            for truth in v.frames.iter().step_by(4) {
                for size in [16, 32, 64] {
                    let img = rasterize(truth, &v.style, size);
                    let what = format!("video {seed}, frame {}, size {size}", truth.frame_index);
                    assert_same_bits(&extract(&img), &extract_f32_sums(&img), &what);
                }
            }
        }
    }

    #[test]
    fn bin_edges_match_the_f32_sums_bit_for_bit() {
        // Every k/255 edge, with 0.0 and 1.0 among them, in each channel
        // and in a different order per channel; the rest of the frame
        // repeats the extremes.
        let mut img = RgbFrame::new(24, 16);
        for i in 0..24 * 16 {
            let (x, y) = (i % 24, i / 24);
            let k = (i % 272).min(255) as f32;
            img.set(0, x, y, k / 255.0);
            img.set(1, x, y, (255.0 - k) / 255.0);
            img.set(2, x, y, if i % 2 == 0 { 0.0 } else { 1.0 });
        }
        let h = extract(&img);
        assert_same_bits(&h, &extract_f32_sums(&img), "bin edges");
        assert_eq!(h[2 * BINS], 0.5);
        assert_eq!(h[3 * BINS - 1], 0.5);
    }

    #[test]
    fn histogram_has_768_dims() {
        assert_eq!(extract(&frame()).len(), 768);
    }

    #[test]
    fn each_channel_sums_to_one() {
        let h = extract(&frame());
        for c in 0..3 {
            let s: f32 = h[c * BINS..(c + 1) * BINS].iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "channel {c} sums to {s}");
        }
    }

    #[test]
    fn black_image_concentrates_in_bin_zero() {
        let img = RgbFrame::new(8, 8);
        let h = extract(&img);
        for c in 0..3 {
            assert!((h[c * BINS] - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn extraction_is_deterministic() {
        let f = frame();
        assert_eq!(extract(&f), extract(&f));
    }

    #[test]
    fn different_content_gives_different_histograms() {
        let a = extract(&frame());
        let b = extract(&RgbFrame::new(64, 64));
        assert_ne!(a, b);
    }
}
