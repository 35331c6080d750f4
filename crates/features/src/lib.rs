//! Content feature extractors and their cost table (paper Table 1).
//!
//! The scheduler chooses among six features when predicting per-branch
//! accuracy:
//!
//! | Feature      | Dim (paper) | Dim (ours) | Extract unit | Notes |
//! |--------------|-------------|------------|--------------|-------|
//! | Light        | 4           | 4          | CPU          | height, width, #objects, mean object size |
//! | HoC          | 768         | 768        | CPU          | 256-bin histogram per RGB channel — real implementation |
//! | HOG          | 5400        | 1764       | CPU          | real HOG over the 64x64 raster (dim scales with raster size) |
//! | ResNet50     | 1024        | 1024       | GPU          | pooled detector backbone features — fixed-weight conv stack |
//! | CPoP         | 31          | 31         | GPU          | class predictions on proposals, from the detector |
//! | MobileNetV2  | 1280        | 1280       | GPU          | external extractor — fixed-weight conv stack |
//!
//! HoC and HOG are computed for real from rasterized frames. The two
//! "deep" features are fixed-weight random convolutional stacks (see
//! `lr-nn::conv`) — deterministic, content-dependent embeddings standing
//! in for pretrained CNNs, per the substitution table in `DESIGN.md`. CPoP
//! is assembled from the simulated detector's per-proposal class logits by
//! the caller via [`cpop::cpop_vector`].
//!
//! **Costs are virtual.** The wall-clock time these Rust implementations
//! take is irrelevant to the experiments; whenever a feature is extracted
//! or a prediction model queried, the pipeline charges the paper's Table 1
//! TX2 milliseconds to the virtual device clock. [`cost::FeatureCost`]
//! holds those numbers, including the *marginal* extraction cost of
//! ResNet50/CPoP when the MBEK's Faster R-CNN already computed them as a
//! byproduct (the effect Figure 2 highlights).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
pub mod cpop;
pub mod deep;
pub mod hoc;
pub mod hog;
pub mod light;

pub use cost::{FeatureCost, FeatureKind, ALL_FEATURE_KINDS, HEAVY_FEATURE_KINDS};
pub use deep::DeepExtractors;
pub use light::LightFeatures;
