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
//! - a per-stream **event log** ([`StreamObs`]) of spans and decision
//!   records, merged across streams in a serial, stream-ordered pass so
//!   the merged log is byte-identical for any `LR_POOL_THREADS`. It is
//!   the only record lr-obs keeps: every aggregate (switches, faults,
//!   degraded GoFs, dispatch rounds) is counted from it;
//! - a **JSONL trace sink** ([`ObsBundle::to_jsonl`]) plus a minimal
//!   parser ([`parse_jsonl`]) and an analysis layer:
//!   per-branch residency ([`branch_residency`]), switch matrices
//!   ([`switch_matrix`]), budget breakdowns ([`budget_breakdown`]), and
//!   SLO-violation attribution ([`violation_attribution`]).
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
//!    regenerates identically with tracing off or on.
//!
//! This crate is std-only and dependency-free so every runtime crate
//! (`litereconfig`, `lr-kernels`, `lr-serve`) can depend on it without
//! cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;
mod record;
mod sink;
mod stream;
mod trace;

pub use analyze::{branch_residency, budget_breakdown, switch_matrix, violation_attribution};
pub use record::{
    DecisionExplain, DecisionRecord, FeatureBen, RoundRecord, SpanRecord, TraceEvent,
};
pub use sink::{NullSink, ObsSink, SpanKind};
pub use stream::{ObsMode, StreamObs};
pub use trace::{parse_jsonl, ObsBundle, Value};
