//! The per-stream sink: buffers spans and decision records privately
//! so parallel workers never contend, then hands the event log to a
//! serial merge.

use crate::record::{DecisionRecord, SpanRecord, TraceEvent};
use crate::sink::{ObsSink, SpanKind};

/// How much a [`StreamObs`] records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ObsMode {
    /// Record nothing; behaves like [`crate::NullSink`].
    #[default]
    Off,
    /// Record the full span/decision event log.
    Trace,
}

/// A per-stream observer. One lives on each serving stream (or on the
/// single pipeline in standalone runs); it is stepped only by the
/// worker that owns the stream, so no synchronization is needed.
#[derive(Clone, Debug, Default)]
pub struct StreamObs {
    mode: ObsMode,
    events: Vec<TraceEvent>,
    stack: Vec<(SpanKind, &'static str, f64)>,
    gof: u64,
}

impl StreamObs {
    /// A sink in the given mode.
    pub fn new(mode: ObsMode) -> Self {
        StreamObs {
            mode,
            ..StreamObs::default()
        }
    }

    /// Drain the buffered events for the serial merge, leaving the sink
    /// empty but usable.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        debug_assert!(self.stack.is_empty(), "unbalanced spans at drain");
        std::mem::take(&mut self.events)
    }
}

impl ObsSink for StreamObs {
    fn enabled(&self) -> bool {
        self.mode != ObsMode::Off
    }

    fn span_begin(&mut self, kind: SpanKind, label: &'static str, t_ms: f64) {
        if self.mode == ObsMode::Off {
            return;
        }
        self.stack.push((kind, label, t_ms));
    }

    fn span_end(&mut self, t_ms: f64) {
        if self.mode == ObsMode::Off {
            return;
        }
        let Some((kind, label, t0)) = self.stack.pop() else {
            debug_assert!(false, "span_end without matching span_begin");
            return;
        };
        self.events.push(TraceEvent::Span(SpanRecord {
            stream: 0,
            gof: self.gof,
            kind,
            label,
            depth: self.stack.len(),
            t0,
            t1: t_ms,
        }));
    }

    fn decision(&mut self, mut rec: DecisionRecord) {
        if self.mode == ObsMode::Off {
            return;
        }
        rec.gof = self.gof;
        self.gof += 1;
        self.events.push(TraceEvent::Decision(Box::new(rec)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> DecisionRecord {
        DecisionRecord {
            frames: 8,
            ..Default::default()
        }
    }

    #[test]
    fn off_mode_records_nothing() {
        let mut s = StreamObs::new(ObsMode::Off);
        assert!(!s.enabled());
        s.span_begin(SpanKind::Detect, "", 0.0);
        s.span_end(2.0);
        s.decision(sample_record());
        assert!(s.take().is_empty());
    }

    #[test]
    fn trace_mode_stamps_gof_and_nesting_depth() {
        let mut s = StreamObs::new(ObsMode::Trace);
        s.span_begin(SpanKind::Decision, "", 0.0);
        s.span_begin(SpanKind::LightFeature, "", 0.1);
        s.span_end(0.9);
        s.span_end(1.2);
        s.decision(sample_record());
        s.span_begin(SpanKind::Detect, "", 2.0);
        s.span_end(6.0);
        s.decision(sample_record());
        let ev = s.take();

        let spans: Vec<&SpanRecord> = ev
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span(sp) => Some(sp),
                _ => None,
            })
            .collect();
        // Inner span closes first, at depth 1; outer at depth 0.
        assert_eq!(spans[0].kind, SpanKind::LightFeature);
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[1].kind, SpanKind::Decision);
        assert_eq!(spans[1].depth, 0);
        // The detect span belongs to the second GoF.
        assert_eq!(spans[2].gof, 1);

        let gofs: Vec<u64> = ev
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Decision(d) => Some(d.gof),
                _ => None,
            })
            .collect();
        assert_eq!(gofs, vec![0, 1]);
    }
}
