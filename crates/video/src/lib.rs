//! Synthetic scene-graph video substrate.
//!
//! The paper evaluates on ILSVRC 2015 VID (3,862 training / 555 validation
//! videos). That dataset is unavailable here, so this crate provides a
//! parametric stand-in with the properties the LiteReconfig scheduler
//! actually depends on:
//!
//! - Videos are sequences of **ground-truth frames**: object instances with
//!   class, bounding box, velocity, scale, and difficulty, evolving under
//!   **content regimes** (slow/fast motion, sparse/cluttered scenes) that
//!   switch over time like real video content does.
//! - Frames can be **rasterized** into small RGB images so that pixel-level
//!   content features (HoC, HOG, convolutional embeddings) are computed for
//!   real rather than faked.
//! - Videos are deterministic functions of a seed, and the train/val split
//!   mirrors the paper's protocol (detector training set, scheduler
//!   training set, held-out validation set).
//!
//! Downstream, the detector simulators in `lr-kernels` consume the ground
//! truth to emit noisy detections, and `lr-eval` computes real mAP against
//! the same ground truth — accuracy numbers *emerge* from the pipeline, they
//! are not hard-coded.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classes;
mod dataset;
mod geometry;
mod object;
pub mod raster;
mod regime;
mod scene;
mod video;

pub use classes::{ObjectClass, NUM_CLASSES};
pub use dataset::{Dataset, DatasetConfig, Split};
pub use geometry::BBox;
pub use object::GtObject;
pub use raster::RgbFrame;
pub use regime::{ClutterLevel, MotionLevel, Regime};
pub use video::{FrameTruth, Video, VideoSpec};
