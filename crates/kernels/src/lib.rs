//! The multi-branch execution kernel (MBEK) and baseline kernels.
//!
//! Following ApproxDet's design (which LiteReconfig adopts), the MBEK is a
//! Faster R-CNN object detector paired with one of four object trackers in
//! a tracking-by-detection scheme: the detector runs on the first frame of
//! every Group-of-Frames (GoF), the tracker propagates its boxes across
//! the remaining frames. An [`branch::Branch`] fixes the knobs:
//!
//! - `shape`  — detector input resolution (224 / 320 / 448 / 576);
//! - `nprop`  — region proposals kept in the RPN (1 … 100);
//! - `tracker` — MedianFlow / KCF / CSRT / Optical Flow (absent when the
//!   detector runs every frame);
//! - `si`     — GoF size (frames per detection);
//! - `ds`     — tracker input downsampling ratio.
//!
//! The detectors are **analytic simulators**: they consume ground truth
//! and emit noisy detections whose hit probability, localization jitter,
//! and classification confusion depend on the knobs and the content
//! (apparent object size, motion blur, clutter), calibrated so the
//! accuracy-vs-knob trends match the published system. Accuracy numbers
//! downstream are *computed* by evaluating these detections with real mAP
//! — never asserted. Latency is charged to the `lr-device` virtual clock
//! from knob-dependent tables.
//!
//! Besides the Faster R-CNN MBEK, the crate provides the paper's baseline
//! kernels: YOLOv3 and SSD-MobileNetV2 one-stage detectors (for the YOLO+
//! and SSD+ protocols), EfficientDet D0/D3, AdaScale, and the
//! accuracy-optimized video detectors SELSA / MEGA / REPP of Table 3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adascale;
pub mod branch;
pub mod detector;
pub mod heavy;
pub mod latency;
pub mod mbek;
pub mod tracker;

pub use branch::{Branch, DetectorConfig, TrackerKind};
pub use detector::{Detection, DetectorFamily, DetectorSim};
pub use mbek::{GofResult, Mbek};
pub use tracker::TrackerSim;
