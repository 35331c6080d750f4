//! "Deep" content features: the ResNet50 and MobileNetV2 stand-ins.
//!
//! With no pretrained-model ecosystem available, these extractors are
//! fixed-weight random convolutional stacks (`lr-nn::conv::ConvStack`):
//! deterministic nonlinear projections of the raster whose embeddings are
//! strongly content-dependent. Random convolutional features are a
//! standard, well-studied substitute when pretrained backbones are
//! unavailable; the accuracy predictor only needs the embedding to carry
//! information about the content regime, which these do.
//!
//! Output dimensions match Table 1: ResNet50 -> 1024, MobileNetV2 -> 1280.
//!
//! The weights come from fixed seeds, so every copy of the stacks is the
//! same: [`DeepExtractors::shared`] builds them once per process, on first
//! use, and every feature service extracts through that one copy.

use std::sync::OnceLock;

use lr_nn::conv::{ConvStack, FeatureMap};
use lr_video::RgbFrame;

/// Output dimensionality of the ResNet50 stand-in.
pub const RESNET50_DIM: usize = 1024;
/// Output dimensionality of the MobileNetV2 stand-in.
pub const MOBILENETV2_DIM: usize = 1280;

/// Both deep extractors. Construction draws the fixed random filters
/// (about 1.7M weights), so callers share [`DeepExtractors::shared`]
/// rather than building their own.
#[derive(Debug, Clone)]
pub struct DeepExtractors {
    resnet: ConvStack,
    mobilenet: ConvStack,
}

impl Default for DeepExtractors {
    fn default() -> Self {
        Self::new()
    }
}

impl DeepExtractors {
    /// Builds the two stacks with their canonical seeds.
    pub fn new() -> Self {
        // Shapes are chosen so the final global-average-pooled channel
        // count equals the paper's feature dimension while keeping the
        // compute small enough for debug-mode tests.
        let resnet = ConvStack::random(
            &[(3, 16, 5, 4), (16, 64, 3, 2), (64, RESNET50_DIM, 3, 2)],
            0x5E5E_0001,
        );
        let mobilenet = ConvStack::random(
            &[(3, 24, 5, 4), (24, 96, 3, 2), (96, MOBILENETV2_DIM, 3, 2)],
            0x5E5E_0002,
        );
        Self { resnet, mobilenet }
    }

    /// The process-wide copy, built by the first caller; racing first
    /// callers block until it is ready.
    pub fn shared() -> &'static Self {
        static SHARED: OnceLock<DeepExtractors> = OnceLock::new();
        SHARED.get_or_init(Self::new)
    }

    /// The ResNet50 stand-in embedding (1024-d).
    pub fn resnet50(&self, frame: &RgbFrame) -> Vec<f32> {
        self.resnet.embed(&to_feature_map(frame))
    }

    /// The MobileNetV2 stand-in embedding (1280-d).
    pub fn mobilenetv2(&self, frame: &RgbFrame) -> Vec<f32> {
        self.mobilenet.embed(&to_feature_map(frame))
    }
}

/// Converts a planar RGB frame into an `lr-nn` feature map (both are
/// channel-major, so this is a copy).
fn to_feature_map(frame: &RgbFrame) -> FeatureMap {
    FeatureMap::from_chw(3, frame.height(), frame.width(), frame.as_slice().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_video::raster::rasterize;
    use lr_video::{Video, VideoSpec};

    fn frames() -> (RgbFrame, RgbFrame) {
        let v = Video::generate(VideoSpec {
            id: 0,
            seed: 51,
            width: 640.0,
            height: 480.0,
            num_frames: 40,
        });
        (
            rasterize(&v.frames[0], &v.style, 64),
            rasterize(&v.frames[30], &v.style, 64),
        )
    }

    #[test]
    fn dimensions_match_table1() {
        let (a, _) = frames();
        let ex = DeepExtractors::new();
        assert_eq!(ex.resnet50(&a).len(), RESNET50_DIM);
        assert_eq!(ex.mobilenetv2(&a).len(), MOBILENETV2_DIM);
    }

    #[test]
    fn embeddings_are_deterministic() {
        let (a, _) = frames();
        let e1 = DeepExtractors::new().resnet50(&a);
        let e2 = DeepExtractors::new().resnet50(&a);
        assert_eq!(e1, e2);
    }

    #[test]
    fn shared_embeddings_match_a_fresh_build() {
        let (a, b) = frames();
        let bits = |v: Vec<f32>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let fresh = DeepExtractors::new();
        let shared = DeepExtractors::shared();
        for frame in [&a, &b] {
            assert_eq!(bits(shared.resnet50(frame)), bits(fresh.resnet50(frame)));
            assert_eq!(
                bits(shared.mobilenetv2(frame)),
                bits(fresh.mobilenetv2(frame))
            );
        }
        assert!(std::ptr::eq(shared, DeepExtractors::shared()));
    }

    #[test]
    fn embeddings_depend_on_content() {
        let (a, b) = frames();
        let ex = DeepExtractors::new();
        assert_ne!(ex.resnet50(&a), ex.resnet50(&b));
        assert_ne!(ex.mobilenetv2(&a), ex.mobilenetv2(&b));
    }

    #[test]
    fn embeddings_are_finite() {
        let (a, _) = frames();
        let ex = DeepExtractors::new();
        assert!(ex.resnet50(&a).iter().all(|v| v.is_finite()));
        assert!(ex.mobilenetv2(&a).iter().all(|v| v.is_finite()));
    }
}
