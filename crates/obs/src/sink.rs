//! The observer interface the runtime crates talk to.
//!
//! Instrumented code paths take `&mut impl ObsSink` and call
//! [`ObsSink::span_begin`] / [`ObsSink::span_end`] around interesting
//! regions and [`ObsSink::decision`] once per GoF. The default
//! implementation of every method is a no-op and [`ObsSink::enabled`]
//! defaults to `false`, so the compiler erases the instrumentation when
//! a [`NullSink`] is passed — existing entry points keep their old
//! signatures by delegating with a `NullSink`.

use crate::record::DecisionRecord;

/// What a span measures. The set is closed on purpose: a fixed
/// vocabulary keeps the trace schema and the analysis layer in
/// lockstep without string plumbing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// One full scheduler decision (`Scheduler::decide`), light features
    /// through branch commitment.
    Decision,
    /// Light-feature extraction plus the light predictor pass (the `S0`
    /// contributors other than the solver).
    LightFeature,
    /// One heavy-feature extraction + predictor pass (the `S(f_H)`
    /// term); the span label names the feature kind.
    HeavyFeature,
    /// The constrained-optimization solve (Eq. 3 argmax).
    Solve,
    /// A branch switch (`C(b0, b)`): sampler reconfiguration plus the
    /// charged switch cost.
    Switch,
    /// The detection frame of a GoF (the `L0` detector term).
    Detect,
    /// The tracked remainder of a GoF (frames 2..N).
    Track,
    /// A tracker-only fallback GoF after the ladder gave up on the
    /// detector.
    Fallback,
}

impl SpanKind {
    /// Stable lowercase name used in trace JSONL.
    pub(crate) fn name(self) -> &'static str {
        match self {
            SpanKind::Decision => "decision",
            SpanKind::LightFeature => "light_feature",
            SpanKind::HeavyFeature => "heavy_feature",
            SpanKind::Solve => "solve",
            SpanKind::Switch => "switch",
            SpanKind::Detect => "detect",
            SpanKind::Track => "track",
            SpanKind::Fallback => "fallback",
        }
    }
}

/// Receiver for spans and decision records.
///
/// Implementations must be pure observers: they may read timestamps
/// handed to them but must never touch the device clock, any RNG, or
/// any other runtime state. All methods default to no-ops so the
/// instrumentation costs nothing when observation is off.
pub trait ObsSink {
    /// Whether this sink wants data. Instrumented code uses this to skip
    /// building records (e.g. the decision explain) that only an active
    /// sink would consume.
    fn enabled(&self) -> bool {
        false
    }

    /// Open a span at virtual time `t_ms`. Spans nest; `label` refines
    /// the kind (e.g. the heavy-feature name) and must be a static
    /// string so sinks never allocate on the hot path when disabled.
    fn span_begin(&mut self, _kind: SpanKind, _label: &'static str, _t_ms: f64) {}

    /// Close the innermost open span at virtual time `t_ms`.
    fn span_end(&mut self, _t_ms: f64) {}

    /// Record the completed decision record for one GoF.
    fn decision(&mut self, _rec: DecisionRecord) {}
}

/// The do-nothing sink. Passing a `NullSink` makes an instrumented code
/// path behave (and perform) exactly like its uninstrumented original.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl ObsSink for NullSink {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled_and_inert() {
        let mut sink = NullSink;
        assert!(!sink.enabled());
        sink.span_begin(SpanKind::Decision, "", 0.0);
        sink.span_end(1.0);
    }
}
