//! `lr-serve`: a multi-stream serving runtime over the LiteReconfig
//! pipeline.
//!
//! The paper's system reconfigures a *single* video pipeline under an
//! SLO, with GPU contention supplied as an exogenous knob (the CG).
//! On a shared mobile SoC the co-running workloads *are* the
//! contention: every stream's GPU ops slow every other stream down.
//! This crate closes that loop:
//!
//! - `SharedDevice` serializes the GPU ops of N per-stream pipelines
//!   onto one virtual-clock timeline and measures each stream's GPU
//!   *occupancy* over a sliding window. The occupancy of the other
//!   streams determines the processor-sharing slowdown a stream
//!   observes — contention is **endogenous**, derived from measured
//!   load, not from a static `contention_pct`.
//! - `AdmissionController` holds per-stream SLO classes
//!   ([`SloClass`]) and rejects — or degrades, for classes that allow
//!   it — streams whose predicted GPU demand would push aggregate
//!   occupancy past capacity.
//! - [`serve_traced`] is the round-based dispatcher and the crate's one
//!   entry point: it steps all admitted streams GoF-by-GoF in virtual
//!   time with priority aging and violation-driven backpressure, and
//!   produces a [`ServeReport`] (per-stream mAP, p50/p95/p99 GoF
//!   latency, SLO-violation rate, admission counts) together with the
//!   run's [`ObsBundle`] (empty under [`ObsMode::Off`]).
//!
//! Each admitted stream keeps its own `litereconfig` scheduler, whose
//! latency predictor consumes the measured slowdown through
//! `StreamPipeline::observe_contention` — so per-stream reconfiguration
//! (cheaper branches, longer GoFs) remains the mechanism that absorbs
//! load, exactly as in the paper, but the load is now real.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod dispatch;
mod report;
mod shared;
mod slo;

pub use admission::AdmissionDecision;
pub use dispatch::{serve_traced, ServeConfig};
pub use lr_obs::{ObsBundle, ObsMode};
pub use report::{ServeReport, StreamReport};
pub use slo::{SloClass, StreamSpec};
