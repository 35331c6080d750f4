//! Per-layer kernel timings, replayed on a workload's own GoF-start
//! frames: raster, HoC, HOG, CPoP, the two conv stand-ins, a cache hit
//! in the feature service, and the blocked matmul on the accuracy-MLP
//! shapes.
//!
//! Each kernel is called directly, so a timing is the kernel's own cost
//! on a cold input, not a cache hit: the feature service is timed warm
//! on purpose, as its own row.

use std::hint::black_box;
use std::time::Instant;

use litereconfig::predictor::AccuracyModelConfig;
use litereconfig::FeatureService;
use lr_features::deep::{DeepExtractors, MOBILENETV2_DIM};
use lr_features::{cpop, hoc, hog, FeatureKind};
use lr_kernels::{DetectorConfig, DetectorFamily, DetectorSim};
use lr_nn::conv::{ConvStack, FeatureMap};
use lr_nn::Matrix;
use lr_video::raster::rasterize;
use lr_video::{RgbFrame, Video};
use rand::SeedableRng;

use crate::stats::median;

/// `(in_c, out_c, kernel, stride)` of the ResNet50 stand-in and its
/// weight seed, mirrored from `lr_features::deep` to count MACs.
/// [`conv_mirror_matches`] proves the mirror against the real extractor.
const RESNET50_SPECS: ([(usize, usize, usize, usize); 3], u64) = (
    [(3, 16, 5, 4), (16, 64, 3, 2), (64, 1024, 3, 2)],
    0x5E5E_0001,
);
/// The MobileNetV2 stand-in, mirrored the same way.
const MOBILENETV2_SPECS: ([(usize, usize, usize, usize); 3], u64) = (
    [(3, 24, 5, 4), (24, 96, 3, 2), (96, 1280, 3, 2)],
    0x5E5E_0002,
);

/// Frames replayed through the cheap kernels; the deep ones (tens of
/// milliseconds each) take the first [`DEEP_FRAMES`] of them.
pub const REPLAY_FRAMES: usize = 24;
const DEEP_FRAMES: usize = 6;

/// Multiply-adds of a valid-padding conv stack on a square input.
pub fn conv_macs(specs: &[(usize, usize, usize, usize)], size: usize) -> u64 {
    let mut side = size;
    let mut macs = 0u64;
    for &(ic, oc, k, s) in specs {
        let out = if side < k { 1 } else { (side - k) / s + 1 };
        let taps = k.min(side);
        macs += (oc * out * out * ic * taps * taps) as u64;
        side = out;
    }
    macs
}

fn to_map(raster: &RgbFrame) -> FeatureMap {
    FeatureMap::from_chw(
        3,
        raster.height(),
        raster.width(),
        raster.as_slice().to_vec(),
    )
}

/// True when the mirrored stacks reproduce the real extractors'
/// embeddings bit for bit, i.e. the MAC counts describe what runs.
pub fn conv_mirror_matches(deep: &DeepExtractors, raster: &RgbFrame) -> bool {
    let resnet = ConvStack::random(&RESNET50_SPECS.0, RESNET50_SPECS.1);
    let mobilenet = ConvStack::random(&MOBILENETV2_SPECS.0, MOBILENETV2_SPECS.1);
    resnet.embed(&to_map(raster)) == deep.resnet50(raster)
        && mobilenet.embed(&to_map(raster)) == deep.mobilenetv2(raster)
}

/// Median per-call timings of each layer over the replayed frames.
#[derive(Debug)]
pub struct Replay {
    /// `rasterize`, µs.
    pub raster_us: f64,
    /// `hoc::extract`, µs.
    pub hoc_us: f64,
    /// `hog::extract`, µs.
    pub hog_us: f64,
    /// `cpop::cpop_vector` on the frame's reference-detector logits, µs.
    pub cpop_us: f64,
    /// ResNet50 stand-in, ms.
    pub resnet50_ms: f64,
    /// MobileNetV2 stand-in, ms.
    pub mobilenetv2_ms: f64,
    /// Both conv stand-ins: total time over total MACs, ns.
    pub conv_ns_per_mac: f64,
    /// `FeatureService::extract_heavy` hit on a warm entry, µs.
    pub extract_warm_us: f64,
    /// Whether the MAC count was proven against the real extractors.
    pub macs_verified: bool,
}

fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = black_box(f());
    (out, t.elapsed().as_secs_f64() * 1e6)
}

/// Replays `frames` (video, frame index) through every feature kernel.
///
/// # Panics
///
/// Panics if `frames` is empty.
pub fn replay(frames: &[(&Video, usize)], raster_size: usize) -> Replay {
    assert!(!frames.is_empty(), "nothing to replay");
    let deep = DeepExtractors::new();
    let detector = DetectorSim::new(DetectorFamily::FasterRcnn);
    let (mut raster_us, mut hoc_us, mut hog_us, mut cpop_us) = (vec![], vec![], vec![], vec![]);
    let (mut resnet_us, mut mobilenet_us, mut warm_us) = (vec![], vec![], vec![]);
    let mut macs_verified = true;
    let mut svc = FeatureService::with_raster_size(raster_size);

    for (i, &(video, f)) in frames.iter().enumerate() {
        let (raster, us) = time_us(|| rasterize(&video.frames[f], &video.style, raster_size));
        raster_us.push(us);
        hoc_us.push(time_us(|| hoc::extract(&raster)).1);
        hog_us.push(time_us(|| hog::extract(&raster)).1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(f as u64);
        let logits = detector
            .detect(&video.frames[f], DetectorConfig::new(576, 100), &mut rng)
            .proposal_logits;
        cpop_us.push(time_us(|| cpop::cpop_vector(&logits)).1);

        if i < DEEP_FRAMES {
            resnet_us.push(time_us(|| deep.resnet50(&raster)).1);
            mobilenet_us.push(time_us(|| deep.mobilenetv2(&raster)).1);
            if i == 0 {
                macs_verified = conv_mirror_matches(&deep, &raster);
            }
            for kind in [
                FeatureKind::HoC,
                FeatureKind::Hog,
                FeatureKind::ResNet50,
                FeatureKind::MobileNetV2,
            ] {
                let _ = svc.extract_heavy(kind, video, f, None);
                warm_us.push(time_us(|| svc.extract_heavy(kind, video, f, None)).1);
            }
        }
    }

    let side = raster_size;
    let macs = resnet_us.len() as f64 * conv_macs(&RESNET50_SPECS.0, side) as f64
        + mobilenet_us.len() as f64 * conv_macs(&MOBILENETV2_SPECS.0, side) as f64;
    let conv_ns = (resnet_us.iter().sum::<f64>() + mobilenet_us.iter().sum::<f64>()) * 1e3;
    let med = |xs: &[f64]| median(xs).unwrap_or(0.0);
    Replay {
        raster_us: med(&raster_us),
        hoc_us: med(&hoc_us),
        hog_us: med(&hog_us),
        cpop_us: med(&cpop_us),
        resnet50_ms: med(&resnet_us) / 1e3,
        mobilenetv2_ms: med(&mobilenet_us) / 1e3,
        conv_ns_per_mac: conv_ns / macs,
        extract_warm_us: med(&warm_us),
        macs_verified,
    }
}

/// Deterministic pseudo-random matrix (SplitMix64 entries in ±0.5).
fn matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut z = seed;
    let data = (0..rows * cols)
        .map(|_| {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
            (x as f64 / u64::MAX as f64) as f32 - 0.5
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Blocked-matmul cost per multiply-add on the widest accuracy MLP
/// (MobileNetV2 input) at the training batch size: the median of
/// `passes` forward passes through its layer shapes, in ns/MAC.
pub fn matmul_ns_per_mac(out_dim: usize, passes: usize) -> f64 {
    let cfg = AccuracyModelConfig::fast();
    let mut dims = vec![4 + MOBILENETV2_DIM];
    dims.extend(&cfg.hidden);
    dims.push(out_dim);
    let layers: Vec<(Matrix, Matrix)> = dims
        .windows(2)
        .enumerate()
        .map(|(i, w)| {
            (
                matrix(cfg.batch_size, w[0], 2 * i as u64),
                matrix(w[0], w[1], 2 * i as u64 + 1),
            )
        })
        .collect();
    let macs: usize = dims.windows(2).map(|w| cfg.batch_size * w[0] * w[1]).sum();
    let per_pass_ns: Vec<f64> = (0..passes)
        .map(|_| {
            let t = Instant::now();
            for (x, w) in &layers {
                black_box(x.matmul(w));
            }
            t.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    median(&per_pass_ns).unwrap_or(0.0) / macs as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_macs_follow_the_layer_shapes() {
        // 64x64 input: 15x15, then 7x7, then 3x3 outputs.
        let expected = 16 * 225 * 3 * 25 + 64 * 49 * 16 * 9 + 1024 * 9 * 64 * 9;
        assert_eq!(conv_macs(&RESNET50_SPECS.0, 64), expected as u64);
        // An input smaller than the kernel is one output over its taps.
        assert_eq!(conv_macs(&[(1, 1, 5, 1)], 3), 9);
    }

    #[test]
    fn mirrored_stacks_reproduce_the_extractors() {
        let video = Video::generate(lr_video::VideoSpec {
            id: 0,
            seed: 51,
            width: 640.0,
            height: 480.0,
            num_frames: 2,
        });
        let raster = rasterize(&video.frames[0], &video.style, 32);
        assert!(conv_mirror_matches(&DeepExtractors::new(), &raster));
    }
}
