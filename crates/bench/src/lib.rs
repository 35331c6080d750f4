//! Experiment harness: regenerates and byte-checks every committed
//! `results_*.txt` of the reproduction.
//!
//! Each artifact is a library function that returns exactly the bytes of
//! its committed file. One binary drives them all:
//!
//! ```text
//! cargo run --release -p lr-bench --bin reproduce -- [small|paper] [--check] [ARTIFACT...]
//! ```
//!
//! - With no artifact named, every artifact runs.
//! - With no scale, each artifact runs at the scale of its committed file:
//!   `small` for `trace` and `faults`, `paper` for the rest. `small` runs
//!   in seconds for smoke tests.
//! - A file is written only when its artifact runs at its committed
//!   scale, and never under `--check`, which compares byte for byte
//!   instead and exits non-zero on any difference.
//!
//! The driver builds each scale's suite (datasets, offline profiles,
//! trained schedulers) once and shares it, and one worker pool, across
//! the artifacts; every artifact's bytes are the same whether it runs
//! alone or in the full run, and for any `LR_POOL_THREADS`. Always build
//! with `--release`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ablations;
mod figures;
mod repro;
mod serving;
mod suite;
mod tables;

pub use repro::{run, Args, UsageError};
