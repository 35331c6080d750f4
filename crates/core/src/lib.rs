//! LiteReconfig: cost and content aware reconfiguration of video object
//! detection systems for mobile GPUs.
//!
//! This crate is the paper's primary contribution — the scheduler that
//! decides, per Group-of-Frames, (a) which *features* to extract for
//! making its decision and (b) which *execution branch* of the MBEK to
//! run, solving
//!
//! ```text
//! b* = argmax_b A(b, f)
//!      s.t. L0(b, f_L) + S0 + S(f_H) + C(b0, b) <= SLO      (Eq. 3)
//! ```
//!
//! with a greedy cost-benefit selection of the heavy feature set `f_H`
//! (Eq. 4) driven by offline `Ben(·)` lookup tables.
//!
//! Module map:
//!
//! - `featsvc` ([`FeatureService`]): runtime feature extraction
//!   (rasterization, HoC/HOG/deep embeddings, CPoP assembly) with
//!   per-frame caching;
//! - [`offline`]: the offline profiling pass over the scheduler-training
//!   split — per-snippet content features, per-branch mAP labels, and
//!   per-branch latency observations;
//! - [`predictor`]: the content-aware accuracy models (6-layer MLPs, one
//!   per content feature) and the per-branch latency regressions with
//!   online contention correction;
//! - `bentable`: the `Ben(f_H)` benefit lookup tables;
//! - `scheduler` ([`Scheduler`]): the online scheduler (all four
//!   LiteReconfig variants plus the forced-feature mode of Table 4);
//! - [`pipeline`]: the streaming execution loop tying scheduler, MBEK,
//!   device, and evaluation together;
//! - `protocols` ([`AdaptiveProtocol`] and the `run_*` baselines):
//!   protocol specifications for every system in Tables 2 and 3
//!   (LiteReconfig variants, ApproxDet, SSD+, YOLO+, EfficientDet,
//!   AdaScale, SELSA/MEGA/REPP);
//! - `trainer` ([`train_scheduler`]): end-to-end offline training
//!   producing a [`TrainedScheduler`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bentable;
mod featsvc;
pub mod offline;
pub mod pipeline;
pub mod predictor;
mod protocols;
mod scheduler;
mod trainer;

pub use featsvc::{CacheStats, FeatureService, KindCacheStats};
pub use pipeline::{DegradeEvent, DegradeKind, GofStep, RunConfig, RunResult, StreamPipeline};
pub use protocols::{run_adascale_ms, run_heavy_model, run_static_detector, AdaptiveProtocol};
pub use scheduler::{Policy, Scheduler, TrainedScheduler};
pub use trainer::{train_scheduler, TrainConfig};
