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

/// The bin of a channel value: `v * 255` truncated, NaN and negatives in
/// bin 0, everything at or above 255 in the last bin — for every `f32`,
/// exactly `((v * 255.0) as usize).min(BINS - 1)`.
///
/// Float-to-int casts saturate in Rust, and on the x86-64 baseline (SSE2)
/// the compiler emits them one lane at a time. This version uses only
/// lane-wise float ops and a bit cast, so the bin pass vectorises:
/// `max`/`min` clamp to `[0, 255]` and send NaN to 0; adding 2^23 rounds
/// `x` to the nearest integer `r`, which then sits in the low mantissa
/// bits; and `r - (r > x)` turns the rounding into truncation.
fn bin(v: f32) -> u8 {
    // 2^23, where consecutive f32 values are 1 apart.
    const SHIFT: f32 = 8_388_608.0;
    // Not `clamp`, which keeps NaN: `max` sends it to 0.
    let x = (v * 255.0).max(0.0);
    let x = x.min(255.0);
    let t = x + SHIFT;
    let r = t.to_bits() - SHIFT.to_bits();
    (r - u32::from(t - SHIFT > x)) as u8
}

/// Per-channel bin counts: `counts[c][b]` pixels of channel `c` fall in
/// bin `b`.
pub type Counts = [[u32; BINS]; 3];

/// Pixels binned per step of [`counts`], in a stack buffer.
const CHUNK: usize = 64;

/// Counts the pixels of each channel in each bin.
///
/// Each plane is binned 64 pixels at a time into a stack buffer,
/// and the bins are counted as integers into two tables, even and odd
/// pixels, so that runs of one colour do not wait on each other's
/// increment; the tables are summed at the end of the plane.
pub fn counts(frame: &RgbFrame) -> Counts {
    let n = frame.width() * frame.height();
    let mut counts = [[0u32; BINS]; 3];
    let mut bins = [0u8; CHUNK];
    for (hist, plane) in counts.iter_mut().zip(frame.as_slice().chunks_exact(n)) {
        let mut odd = [0u32; BINS];
        for chunk in plane.chunks(CHUNK) {
            let bins = &mut bins[..chunk.len()];
            for (b, &v) in bins.iter_mut().zip(chunk) {
                *b = bin(v);
            }
            let mut pairs = bins.chunks_exact(2);
            for pair in &mut pairs {
                hist[usize::from(pair[0])] += 1;
                odd[usize::from(pair[1])] += 1;
            }
            for &b in pairs.remainder() {
                hist[usize::from(b)] += 1;
            }
        }
        for (h, o) in hist.iter_mut().zip(odd) {
            *h += o;
        }
    }
    counts
}

/// What one pixel adds to its bin in a frame of `pixels` pixels:
/// `1 / pixels`. Every HoC value is a count times this weight.
pub fn pixel_weight(pixels: usize) -> f32 {
    1.0 / pixels as f32
}

/// The 768-dimensional HoC feature of a frame of `pixels` pixels from
/// its [`counts`].
///
/// A count of at most 2^24 pixels converts to `f32` exactly, so each
/// value is `count * (1 / pixels)` just as if the histogram had been
/// accumulated in `f32`.
pub fn from_counts(counts: &Counts, pixels: usize) -> Vec<f32> {
    let weight = pixel_weight(pixels);
    counts
        .iter()
        .flatten()
        .map(|&count| count as f32 * weight)
        .collect()
}

/// Extracts the 768-dimensional HoC feature from a frame:
/// [`from_counts`] of its [`counts`].
pub fn extract(frame: &RgbFrame) -> Vec<f32> {
    from_counts(&counts(frame), frame.width() * frame.height())
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
                // 9 x 9 ends each plane on a part chunk of odd length.
                for size in [9, 16, 32, 64] {
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
    fn bin_matches_the_clamped_usize_cast() {
        // `RgbFrame::set` clamps, so frames never carry these edge cases;
        // the bin expression is tested on the values directly.
        let mut values = vec![
            f32::NAN,
            -f32::NAN,
            0.0,
            -0.0,
            -f32::MIN_POSITIVE,
            -1e-30,
            -0.5,
            -1.0,
            -255.0,
            f32::MIN,
            f32::NEG_INFINITY,
            f32::INFINITY,
            f32::MAX,
            1e30,
            256.0,
            255.0,
            2.0,
            1.004,
            1.003,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
        ];
        for k in 0..=256u32 {
            let edge = k as f32 / 255.0;
            values.extend([edge.next_down(), edge, edge.next_up()]);
            // Wider neighbourhoods of each edge, and of each edge of the
            // rounding step inside `bin` (halfway between two bins).
            for centre in [edge, (k as f32 + 0.5) / 255.0] {
                let bits = centre.to_bits();
                values.extend((bits.saturating_sub(64)..=bits + 64).map(f32::from_bits));
            }
        }
        // A stride through every bit pattern: both signs, subnormals,
        // NaN payloads and infinities.
        values.extend((0..=u32::MAX).step_by(4093).map(f32::from_bits));
        for v in values {
            let clamped = ((v * 255.0) as usize).min(BINS - 1);
            assert_eq!(
                usize::from(bin(v)),
                clamped,
                "value {v:e} ({:#010x})",
                v.to_bits()
            );
        }
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
