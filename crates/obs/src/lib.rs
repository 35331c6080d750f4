//! `lr-obs`: deterministic observability for the LiteReconfig runtime.
//!
//! The paper's contribution is a *decision procedure* — which features to
//! extract and which branch to run under
//! `L0(b,f_L) + S0 + S(f_H) + C(b0,b) <= SLO` — so the system's primary
//! observability artifact is the **decision record**: one typed record
//! per GoF carrying the recruited features with their `Ben(·)` values,
//! the per-branch predicted accuracies, the full latency-budget
//! decomposition, the chosen branch, and the actual outcome (including
//! any fallback-ladder degradation). Around it sit:
//!
//! - a **virtual-clock span** API ([`ObsSink::span_begin`] /
//!   [`ObsSink::span_end`]): nestable spans stamped with
//!   `DeviceSim::now_ms` — the *simulated* clock — so tracing performs
//!   zero wall-clock reads (rule D1 of DESIGN.md §9 keeps holding) and
//!   can never perturb the run it observes;
//! - a deterministic **metrics registry** ([`Metrics`]): counters and
//!   fixed-bucket histograms in `BTreeMap`s, merged across streams in a
//!   serial, stream-ordered pass so rendered output is byte-identical
//!   for any `LR_POOL_THREADS`;
//! - a **JSONL trace sink** ([`ObsBundle::to_jsonl`]) plus a minimal
//!   parser ([`trace::parse_jsonl`]) and an analysis layer ([`analyze`]):
//!   per-branch residency, switch matrices, budget breakdowns, and
//!   SLO-violation attribution.
//!
//! # Determinism rules for observers
//!
//! 1. An observer may **read** the virtual clock but never advance it:
//!    span timestamps come from `now_ms()`, which is side-effect-free.
//! 2. An observer may never draw from any RNG. Everything it records is
//!    derived from values the runtime already computed.
//! 3. Per-stream sinks buffer privately; all cross-stream merging
//!    happens serially in `(stream, gof)` order after the run.
//! 4. The no-op default ([`NullSink`]) makes the instrumented code paths
//!    byte-identical to the uninstrumented ones: every `results_*.txt`
//!    regenerates identically with tracing off, counting-only, or full
//!    tracing on.
//!
//! This crate is std-only and dependency-free so every runtime crate
//! (`litereconfig`, `lr-kernels`, `lr-serve`) can depend on it without
//! cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod metrics;
pub mod record;
pub mod sink;
pub mod stream;
pub mod trace;

pub use metrics::{Histogram, Metrics};
pub use record::{
    DecisionExplain, DecisionRecord, FeatureBen, RoundRecord, SpanRecord, TraceEvent,
};
pub use sink::{NullSink, ObsSink, SpanKind};
pub use stream::{ObsMode, StreamObs};
pub use trace::{ObsBundle, Value};
