//! A host-clock observer: stamps `Instant` at the span points the
//! pipeline already emits, so one traced run splits each GoF's host time
//! into decide / switch / detect / track / the rest.
//!
//! The sink reports `enabled() == false`: the program then skips
//! building decision records, which would otherwise add host time to
//! what is being measured. Spans are emitted either way.
//!
//! Two limits of the span points, as the program emits them:
//! - the `HeavyFeature` span wraps only the virtual charge of a feature,
//!   not `FeatureService::extract_heavy`, so real extraction time lands
//!   in `Decision` (`scheduler.decide_us_*`), not in a span of its own;
//! - the `Switch` span wraps only the charge of the switch cost.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use lr_obs::{ObsSink, SpanKind};

/// Span durations in microseconds, per top-level span kind.
#[derive(Debug, Default)]
pub struct SpanSamples {
    /// `Decision` spans (the whole `Scheduler::decide`).
    pub decide_us: Vec<f64>,
    /// `Detect` spans (the GoF's detection frame).
    pub detect_us: Vec<f64>,
    /// `Track` spans (the GoF's tracked tail).
    pub track_us: Vec<f64>,
    /// `Switch` spans.
    pub switch_us: Vec<f64>,
}

/// Host-clock [`ObsSink`].
#[derive(Debug, Default)]
pub struct HostClockSink {
    stack: Vec<(SpanKind, Instant)>,
    /// Host time covered by top-level spans since the last
    /// [`HostClockSink::end_gof`].
    spanned_ns: u128,
    /// Heavy features bought in the current GoF.
    bought: BTreeSet<&'static str>,
    /// Per-kind samples.
    pub samples: SpanSamples,
}

/// What one GoF's spans covered.
#[derive(Debug)]
pub struct GofSpans {
    /// Host nanoseconds inside top-level spans.
    pub spanned_ns: u128,
    /// Heavy features the scheduler bought (span labels).
    pub bought: BTreeSet<&'static str>,
}

impl HostClockSink {
    /// Closes the current GoF's bookkeeping and returns it.
    pub fn end_gof(&mut self) -> GofSpans {
        GofSpans {
            spanned_ns: std::mem::take(&mut self.spanned_ns),
            bought: std::mem::take(&mut self.bought),
        }
    }
}

impl ObsSink for HostClockSink {
    fn span_begin(&mut self, kind: SpanKind, label: &'static str, _t_ms: f64) {
        if kind == SpanKind::HeavyFeature {
            self.bought.insert(label);
        }
        self.stack.push((kind, Instant::now()));
    }

    fn span_end(&mut self, _t_ms: f64) {
        let Some((kind, t0)) = self.stack.pop() else {
            return;
        };
        let elapsed = t0.elapsed();
        if self.stack.is_empty() {
            self.spanned_ns += elapsed.as_nanos();
        }
        let us = elapsed.as_secs_f64() * 1e6;
        match kind {
            SpanKind::Decision => self.samples.decide_us.push(us),
            SpanKind::Detect => self.samples.detect_us.push(us),
            SpanKind::Track => self.samples.track_us.push(us),
            SpanKind::Switch => self.samples.switch_us.push(us),
            _ => {}
        }
    }
}

/// Per-kind counts of GoFs that bought each heavy feature.
#[derive(Debug, Default)]
pub struct FeatureShares {
    /// GoFs counted.
    pub gofs: usize,
    /// GoFs that bought each feature, by span label.
    pub bought: BTreeMap<&'static str, usize>,
    /// GoFs that bought at least one deep feature.
    pub deep_gofs: usize,
}

impl FeatureShares {
    /// Counts one GoF.
    pub fn add(&mut self, bought: &BTreeSet<&'static str>) {
        self.gofs += 1;
        for &label in bought {
            *self.bought.entry(label).or_insert(0) += 1;
        }
        let deep = [
            lr_features::FeatureKind::ResNet50.name(),
            lr_features::FeatureKind::MobileNetV2.name(),
        ];
        if deep.iter().any(|k| bought.contains(k)) {
            self.deep_gofs += 1;
        }
    }

    /// Share of GoFs that bought the feature named `label`.
    pub fn share(&self, label: &str) -> f64 {
        self.bought.get(label).copied().unwrap_or(0) as f64 / self.gofs.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_count_once_toward_the_gof() {
        let mut sink = HostClockSink::default();
        sink.span_begin(SpanKind::Decision, "", 0.0);
        sink.span_begin(SpanKind::HeavyFeature, "HoC", 0.0);
        sink.span_end(0.0);
        sink.span_end(0.0);
        sink.span_begin(SpanKind::Detect, "", 0.0);
        sink.span_end(0.0);
        assert!(!sink.enabled(), "decision records stay off");
        assert_eq!(sink.samples.decide_us.len(), 1);
        assert_eq!(sink.samples.detect_us.len(), 1);
        let gof = sink.end_gof();
        assert!(gof.bought.contains("HoC"));
        let top = (sink.samples.decide_us[0] + sink.samples.detect_us[0]) * 1e3;
        assert!(
            (gof.spanned_ns as f64 - top).abs() <= 2.0,
            "{} vs {top}",
            gof.spanned_ns
        );
        assert!(sink.end_gof().bought.is_empty(), "reset after each GoF");
        sink.span_end(0.0); // unbalanced end: ignored
    }

    #[test]
    fn shares_count_gofs_not_purchases() {
        let mut shares = FeatureShares::default();
        shares.add(&BTreeSet::from(["HoC", "ResNet50"]));
        shares.add(&BTreeSet::from(["HoC"]));
        shares.add(&BTreeSet::new());
        shares.add(&BTreeSet::from(["MobileNetV2"]));
        assert_eq!(shares.gofs, 4);
        assert_eq!(shares.share("HoC"), 0.5);
        assert_eq!(shares.share("CPoP"), 0.0);
        assert_eq!(shares.deep_gofs, 2);
    }
}
