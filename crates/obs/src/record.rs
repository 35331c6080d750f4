//! Typed records carried by the trace: per-GoF decision records, raw
//! spans, and serve-round membership snapshots.

use crate::sink::SpanKind;

/// One recruited feature with its content-aware benefit score `Ben(·)`
/// at the stream's SLO (Eq. 4 in the paper).
#[derive(Clone, Debug, PartialEq)]
pub struct FeatureBen {
    /// Stable feature name (`"Light"`, `"HoC"`, `"HOG"`, ...).
    pub name: &'static str,
    /// The benefit score the greedy selector saw when it recruited the
    /// feature.
    pub ben: f32,
}

/// Why the scheduler picked what it picked: the inputs and intermediate
/// terms of `argmax_b A(b,f)` subject to
/// `L0(b,f_L) + S0 + S(f_H) + C(b0,b) <= SLO`.
///
/// Built by the scheduler only when a sink reports
/// [`enabled`](crate::ObsSink::enabled), so the `Off` mode allocates
/// nothing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DecisionExplain {
    /// The stream's SLO in milliseconds.
    pub slo_ms: f64,
    /// The per-frame budget after headroom (`slo * headroom`).
    pub budget_ms: f64,
    /// Features recruited this GoF, in recruitment order, with their
    /// `Ben(·)` values.
    pub features: Vec<FeatureBen>,
    /// Predicted accuracy `A(b, f)` per catalog branch.
    pub branch_acc: Vec<f32>,
    /// Predicted per-frame kernel latency `L0(b, f_L)` per branch.
    pub branch_kernel_ms: Vec<f64>,
    /// Scheduler overhead `S0`: light extraction + light predictor +
    /// solver time.
    pub s0_ms: f64,
    /// Heavy-feature overhead `S(f_H)` actually charged this GoF.
    pub s_heavy_ms: f64,
    /// Predicted switch cost `C(b0, b)` to the chosen branch (zero when
    /// staying put).
    pub switch_pred_ms: f64,
    /// Per-frame share of the scheduling + switch overhead
    /// (`(S0 + S(f_H) + C) / gof_size`).
    pub amortized_ms: f64,
    /// Predicted per-frame slack against the budget:
    /// `budget - L0(chosen) - amortized`.
    pub slack_ms: f64,
    /// Index of the chosen branch in the catalog.
    pub chosen: usize,
    /// Whether any branch satisfied the constraint; `false` means the
    /// cost-only fallback picked the cheapest branch.
    pub feasible: bool,
    /// Whether the decision degraded to cost-only mode because the
    /// predictor pass faulted.
    pub cost_only: bool,
}

/// The per-GoF decision record: the scheduler's reasoning
/// ([`DecisionExplain`]) joined with the GoF's actual outcome.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DecisionRecord {
    /// Serving stream id (0 for single-stream runs).
    pub stream: u32,
    /// GoF ordinal within the stream (stamped by the sink).
    pub gof: u64,
    /// Index of the video in the stream's playlist.
    pub video_idx: usize,
    /// First frame index of this GoF within the video.
    pub start_frame: usize,
    /// Virtual time at which the decision began.
    pub t_ms: f64,
    /// The scheduler's reasoning. Empty (default) when the GoF skipped
    /// the scheduler entirely.
    pub explain: DecisionExplain,
    /// Catalog key of the branch that actually ran.
    pub chosen_key: String,
    /// Catalog key of the branch before this GoF (empty on the first).
    pub prev_key: String,
    /// Whether a reconfiguration was performed.
    pub switched: bool,
    /// Frames in this GoF.
    pub frames: usize,
    /// Actual scheduler time charged (ms).
    pub sched_ms: f64,
    /// Actual switch cost charged (ms).
    pub switch_ms: f64,
    /// Actual kernel time (detector + tracker) charged (ms).
    pub kernel_ms: f64,
    /// Fixed pipeline overhead charged (ms).
    pub overhead_ms: f64,
    /// Time wasted by faulted work that had to be redone (ms).
    pub wasted_ms: f64,
    /// Achieved mean per-frame latency (ms).
    pub per_frame_ms: f64,
    /// External GPU slowdown factor in effect (1.0 when uncontended).
    pub slowdown: f64,
    /// Faults absorbed during this GoF.
    pub faults: u32,
    /// Whether the GoF was degraded (a fault absorbed, a fallback rung,
    /// or a cost-only decision).
    pub degraded: bool,
    /// Names of the degrade events that fired, in order.
    pub degrades: Vec<&'static str>,
}

/// One raw span as stored in the trace.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Serving stream id.
    pub stream: u32,
    /// GoF ordinal the span belongs to.
    pub gof: u64,
    /// What the span measures.
    pub kind: SpanKind,
    /// Label refining the kind (feature name for heavy features).
    pub label: &'static str,
    /// Nesting depth at open time (0 = top level).
    pub depth: usize,
    /// Virtual open time (ms).
    pub t0: f64,
    /// Virtual close time (ms).
    pub t1: f64,
}

/// One serve dispatch round: which streams were stepped together.
#[derive(Clone, Debug, PartialEq)]
pub struct RoundRecord {
    /// Round ordinal.
    pub idx: u64,
    /// The virtual-time threshold that defined membership.
    pub threshold_ms: f64,
    /// Stream ids stepped this round, in dispatch order.
    pub members: Vec<u32>,
}

/// Everything a trace can carry, in emission order.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A closed span.
    Span(SpanRecord),
    /// A completed per-GoF decision record (boxed: it dwarfs the other
    /// variants).
    Decision(Box<DecisionRecord>),
    /// A serve dispatch round snapshot.
    Round(RoundRecord),
}

impl TraceEvent {
    /// Stamp the owning stream id (used when per-stream buffers are
    /// merged into the global trace).
    pub fn set_stream(&mut self, stream: u32) {
        match self {
            TraceEvent::Span(s) => s.stream = stream,
            TraceEvent::Decision(d) => d.stream = stream,
            TraceEvent::Round(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_stream_stamps_spans_and_decisions() {
        let mut ev = TraceEvent::Span(SpanRecord {
            stream: 0,
            gof: 0,
            kind: SpanKind::Track,
            label: "",
            depth: 0,
            t0: 0.0,
            t1: 1.0,
        });
        ev.set_stream(7);
        match &ev {
            TraceEvent::Span(s) => assert_eq!(s.stream, 7),
            _ => unreachable!(),
        }
        let mut ev = TraceEvent::Decision(Box::default());
        ev.set_stream(9);
        match &ev {
            TraceEvent::Decision(d) => assert_eq!(d.stream, 9),
            _ => unreachable!(),
        }
    }
}
