//! Feature identities, dimensions, and the Table 1 cost table.

/// The features the scheduler can recruit (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FeatureKind {
    /// Light-weight features `f_L`: height, width, number of objects,
    /// averaged object size. Always available "for free".
    Light,
    /// Histogram of Colors over the RGB channels (`f_H^1`).
    HoC,
    /// Histogram of Oriented Gradients (`f_H^2`).
    Hog,
    /// Pooled ResNet50 backbone features from the MBEK's detector
    /// (`f_H^3`).
    ResNet50,
    /// Class Predictions on Proposals from the Faster R-CNN detector
    /// (`f_H^4`).
    CPoP,
    /// External MobileNetV2 embedding (`f_H^5`).
    MobileNetV2,
}

/// All features in Table 1 order.
pub const ALL_FEATURE_KINDS: [FeatureKind; 6] = [
    FeatureKind::Light,
    FeatureKind::HoC,
    FeatureKind::Hog,
    FeatureKind::ResNet50,
    FeatureKind::CPoP,
    FeatureKind::MobileNetV2,
];

/// The heavy-weight candidates `F_H` (everything but Light).
pub const HEAVY_FEATURE_KINDS: [FeatureKind; 5] = [
    FeatureKind::HoC,
    FeatureKind::Hog,
    FeatureKind::ResNet50,
    FeatureKind::CPoP,
    FeatureKind::MobileNetV2,
];

/// Cost-table entry for one feature (all times are TX2 milliseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureCost {
    /// Which feature this is.
    pub kind: FeatureKind,
    /// Feature dimensionality in this reproduction.
    pub dim: usize,
    /// Standalone extraction cost — running the extractor on a frame from
    /// scratch (Table 1, "Extract").
    pub extract_ms: f64,
    /// Marginal extraction cost when the MBEK's Faster R-CNN just ran on
    /// the same frame and the feature is a byproduct (pooling/copy only).
    /// Equal to `extract_ms` for external features.
    pub marginal_extract_ms: f64,
    /// Cost of querying the per-feature accuracy prediction model
    /// (Table 1, "Predict").
    pub predict_ms: f64,
    /// True if extraction runs on the GPU (subject to contention).
    pub extract_on_gpu: bool,
}

impl FeatureKind {
    /// Short display name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            FeatureKind::Light => "Light",
            FeatureKind::HoC => "HoC",
            FeatureKind::Hog => "HOG",
            FeatureKind::ResNet50 => "ResNet50",
            FeatureKind::CPoP => "CPoP",
            FeatureKind::MobileNetV2 => "MobileNetV2",
        }
    }

    /// True if the feature is produced by the MBEK's Faster R-CNN as a
    /// byproduct (so its marginal extraction cost is small and it is only
    /// available when the decision frame runs the detector).
    pub fn from_detector(self) -> bool {
        matches!(self, FeatureKind::ResNet50 | FeatureKind::CPoP)
    }

    /// The Table 1 cost entry, calibrated to the paper's TX2 numbers.
    ///
    /// The HOG dimensionality is 1764 rather than the paper's 5400 because
    /// our raster is 64x64 (the paper extracts from larger frames); its
    /// *cost* is still charged at the paper's 25.32 ms.
    pub fn cost(self) -> FeatureCost {
        match self {
            FeatureKind::Light => FeatureCost {
                kind: self,
                dim: 4,
                extract_ms: 0.12,
                marginal_extract_ms: 0.12,
                predict_ms: 3.71,
                extract_on_gpu: false,
            },
            FeatureKind::HoC => FeatureCost {
                kind: self,
                dim: 768,
                extract_ms: 14.14,
                marginal_extract_ms: 14.14,
                predict_ms: 4.94,
                extract_on_gpu: false,
            },
            FeatureKind::Hog => FeatureCost {
                kind: self,
                dim: 1764,
                extract_ms: 25.32,
                marginal_extract_ms: 25.32,
                predict_ms: 4.93,
                extract_on_gpu: false,
            },
            FeatureKind::ResNet50 => FeatureCost {
                kind: self,
                dim: 1024,
                extract_ms: 26.96,
                // Average pooling an already-computed backbone map.
                marginal_extract_ms: 2.3,
                predict_ms: 6.07,
                extract_on_gpu: true,
            },
            FeatureKind::CPoP => FeatureCost {
                kind: self,
                dim: 31,
                extract_ms: 3.62,
                // Pooling logits the detector head already produced.
                marginal_extract_ms: 0.8,
                predict_ms: 4.84,
                extract_on_gpu: true,
            },
            FeatureKind::MobileNetV2 => FeatureCost {
                kind: self,
                dim: 1280,
                extract_ms: 153.96,
                marginal_extract_ms: 153.96,
                predict_ms: 9.33,
                extract_on_gpu: true,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_costs_match_paper() {
        assert_eq!(FeatureKind::Light.cost().extract_ms, 0.12);
        assert_eq!(FeatureKind::Light.cost().predict_ms, 3.71);
        assert_eq!(FeatureKind::HoC.cost().extract_ms, 14.14);
        assert_eq!(FeatureKind::Hog.cost().extract_ms, 25.32);
        assert_eq!(FeatureKind::ResNet50.cost().extract_ms, 26.96);
        assert_eq!(FeatureKind::CPoP.cost().extract_ms, 3.62);
        assert_eq!(FeatureKind::MobileNetV2.cost().extract_ms, 153.96);
        assert_eq!(FeatureKind::MobileNetV2.cost().predict_ms, 9.33);
    }

    #[test]
    fn table1_dims_match_except_hog() {
        assert_eq!(FeatureKind::Light.cost().dim, 4);
        assert_eq!(FeatureKind::HoC.cost().dim, 768);
        assert_eq!(FeatureKind::ResNet50.cost().dim, 1024);
        assert_eq!(FeatureKind::CPoP.cost().dim, 31);
        assert_eq!(FeatureKind::MobileNetV2.cost().dim, 1280);
        // HOG scales with our 64x64 raster.
        assert_eq!(FeatureKind::Hog.cost().dim, 1764);
    }

    #[test]
    fn detector_features_have_cheap_marginal_cost() {
        for kind in ALL_FEATURE_KINDS {
            let c = kind.cost();
            if kind.from_detector() {
                assert!(c.marginal_extract_ms < c.extract_ms, "{:?}", kind);
            } else {
                assert_eq!(c.marginal_extract_ms, c.extract_ms, "{:?}", kind);
            }
        }
    }

    #[test]
    fn gpu_placement_matches_paper() {
        // "ResNet50, CPoP, MobileNetV2 feature extractors ... use the GPU;
        // the others are mainly on the CPU."
        assert!(!FeatureKind::Light.cost().extract_on_gpu);
        assert!(!FeatureKind::HoC.cost().extract_on_gpu);
        assert!(!FeatureKind::Hog.cost().extract_on_gpu);
        assert!(FeatureKind::ResNet50.cost().extract_on_gpu);
        assert!(FeatureKind::CPoP.cost().extract_on_gpu);
        assert!(FeatureKind::MobileNetV2.cost().extract_on_gpu);
    }

    #[test]
    fn heavy_set_excludes_light() {
        assert!(!HEAVY_FEATURE_KINDS.contains(&FeatureKind::Light));
        assert_eq!(ALL_FEATURE_KINDS.len(), HEAVY_FEATURE_KINDS.len() + 1);
    }
}
