//! Serving outcome: per-stream and aggregate statistics.

use lr_eval::LatencyStats;

use crate::admission::AdmissionDecision;
use crate::slo::SloClass;

/// Outcome of one offered stream.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Stream name from the spec.
    pub name: String,
    /// Service class.
    pub class: SloClass,
    /// Admission verdict.
    pub decision: AdmissionDecision,
    /// Whether backpressure degraded the stream mid-run (on top of any
    /// admission-time degradation).
    pub degraded_midrun: bool,
    /// mAP over all processed frames (0 for rejected streams).
    pub map: f64,
    /// GoF-amortized per-frame latency samples.
    pub latency: LatencyStats,
    /// Fraction of frames over the class SLO.
    pub violation_rate: f64,
    /// Frames processed.
    pub frames: usize,
    /// GoFs executed.
    pub gofs: usize,
    /// Mean endogenous GPU slowdown observed across GoFs (1 = alone).
    pub mean_slowdown: f64,
    /// Transient device faults absorbed by the stream's pipeline.
    pub faults: usize,
    /// GoFs that ran degraded (any fallback-ladder rung fired).
    pub degraded_gofs: usize,
    /// Fault-rate evictions followed by backoff and re-admission offers.
    pub evictions: usize,
    /// True when the final re-admission offer was rejected and the
    /// stream was permanently evicted before finishing.
    pub terminal_evicted: bool,
    /// Total virtual milliseconds spent backed off (eviction → offer).
    pub recovery_ms_total: f64,
}

impl StreamReport {
    /// True unless the stream was rejected at admission.
    pub(crate) fn admitted(&self) -> bool {
        self.decision != AdmissionDecision::Rejected
    }

    /// Fraction of executed GoFs that ran degraded.
    pub(crate) fn degraded_gof_fraction(&self) -> f64 {
        if self.gofs == 0 {
            0.0
        } else {
            self.degraded_gofs as f64 / self.gofs as f64
        }
    }

    /// Mean backoff-driven recovery time per eviction (0 when never
    /// evicted).
    pub fn mean_recovery_ms(&self) -> f64 {
        if self.evictions == 0 {
            0.0
        } else {
            self.recovery_ms_total / self.evictions as f64
        }
    }
}

/// Outcome of one serving run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Whether admission control was enabled.
    pub admission_enabled: bool,
    /// Per-stream outcomes, in offer order.
    pub streams: Vec<StreamReport>,
}

impl ServeReport {
    /// Streams offered.
    pub(crate) fn offered(&self) -> usize {
        self.streams.len()
    }

    /// Streams admitted at full quality.
    pub fn admitted(&self) -> usize {
        self.streams
            .iter()
            .filter(|s| s.decision == AdmissionDecision::Admitted)
            .count()
    }

    /// Streams admitted degraded (at admission time).
    pub fn degraded(&self) -> usize {
        self.streams
            .iter()
            .filter(|s| s.decision == AdmissionDecision::Degraded)
            .count()
    }

    /// Streams rejected.
    pub fn rejected(&self) -> usize {
        self.streams
            .iter()
            .filter(|s| s.decision == AdmissionDecision::Rejected)
            .count()
    }

    /// Pooled latency samples of all admitted streams.
    pub fn admitted_latency(&self) -> LatencyStats {
        let mut all = LatencyStats::new();
        for s in self.streams.iter().filter(|s| s.admitted()) {
            all.merge(&s.latency);
        }
        all
    }

    /// Frame-weighted SLO-violation rate over admitted streams (each
    /// frame judged against its own stream's class SLO).
    pub fn admitted_violation_rate(&self) -> f64 {
        let mut violations = 0.0;
        let mut frames = 0usize;
        for s in self.streams.iter().filter(|s| s.admitted()) {
            violations += s.violation_rate * s.frames as f64;
            frames += s.frames;
        }
        if frames == 0 {
            0.0
        } else {
            violations / frames as f64
        }
    }

    /// Mean mAP over admitted streams (unweighted; 0 when none).
    pub fn admitted_mean_map(&self) -> f64 {
        let admitted: Vec<_> = self.streams.iter().filter(|s| s.admitted()).collect();
        if admitted.is_empty() {
            return 0.0;
        }
        admitted.iter().map(|s| s.map).sum::<f64>() / admitted.len() as f64
    }

    /// Total transient faults absorbed across streams.
    pub fn total_faults(&self) -> usize {
        self.streams.iter().map(|s| s.faults).sum()
    }

    /// Total fault-rate evictions across streams.
    pub fn total_evictions(&self) -> usize {
        self.streams.iter().map(|s| s.evictions).sum()
    }

    /// Streams permanently evicted before finishing.
    pub fn terminal_evictions(&self) -> usize {
        self.streams.iter().filter(|s| s.terminal_evicted).count()
    }

    /// GoF-weighted degraded-GoF fraction over admitted streams.
    pub fn degraded_gof_fraction(&self) -> f64 {
        let mut degraded = 0usize;
        let mut gofs = 0usize;
        for s in self.streams.iter().filter(|s| s.admitted()) {
            degraded += s.degraded_gofs;
            gofs += s.gofs;
        }
        if gofs == 0 {
            0.0
        } else {
            degraded as f64 / gofs as f64
        }
    }

    /// A per-stream fault/degradation table plus an aggregate footer
    /// (separate from [`ServeReport::format_table`], which stays
    /// byte-identical for clean runs).
    pub fn format_fault_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<8} {:>6} {:>7} {:>6} {:>6} {:>8} {:>8}\n",
            "stream", "class", "faults", "dgof%", "evict", "recov", "status"
        ));
        for s in &self.streams {
            let status = if !s.admitted() {
                "reject"
            } else if s.terminal_evicted {
                "evicted"
            } else {
                "ok"
            };
            out.push_str(&format!(
                "{:<8} {:>6} {:>7} {:>6.1} {:>6} {:>8.1} {:>8}\n",
                s.name,
                s.class.label(),
                s.faults,
                s.degraded_gof_fraction() * 100.0,
                s.evictions,
                s.mean_recovery_ms(),
                status,
            ));
        }
        out.push_str(&format!(
            "faults {} | degraded GoFs {:.1}% | evictions {} (terminal {})\n",
            self.total_faults(),
            self.degraded_gof_fraction() * 100.0,
            self.total_evictions(),
            self.terminal_evictions(),
        ));
        out
    }

    /// A per-stream table plus an aggregate footer.
    pub fn format_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<8} {:>6} {:>9} {:>6} {:>7} {:>7} {:>7} {:>7} {:>6} {:>6}\n",
            "stream",
            "class",
            "decision",
            "mAP%",
            "p50ms",
            "p95ms",
            "p99ms",
            "viol%",
            "slow",
            "gofs"
        ));
        for s in &self.streams {
            let decision = match (s.decision, s.degraded_midrun) {
                (AdmissionDecision::Rejected, _) => "reject".to_string(),
                (AdmissionDecision::Degraded, _) => "degrade".to_string(),
                (AdmissionDecision::Admitted, true) => "admit*".to_string(),
                (AdmissionDecision::Admitted, false) => "admit".to_string(),
            };
            if s.admitted() {
                out.push_str(&format!(
                    "{:<8} {:>6} {:>9} {:>6.1} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>6.2} {:>6}\n",
                    s.name,
                    s.class.label(),
                    decision,
                    s.map * 100.0,
                    s.latency.percentile(0.5),
                    s.latency.p95(),
                    s.latency.p99(),
                    s.violation_rate * 100.0,
                    s.mean_slowdown,
                    s.gofs,
                ));
            } else {
                out.push_str(&format!(
                    "{:<8} {:>6} {:>9} {:>6} {:>7} {:>7} {:>7} {:>7} {:>6} {:>6}\n",
                    s.name,
                    s.class.label(),
                    decision,
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                    "-"
                ));
            }
        }
        let agg = self.admitted_latency();
        out.push_str(&format!(
            "admitted {}/{} (degraded {}, rejected {}) | agg p50 {:.1} p95 {:.1} p99 {:.1} ms | viol {:.1}% | mean mAP {:.1}%\n",
            self.admitted() + self.degraded(),
            self.offered(),
            self.degraded(),
            self.rejected(),
            agg.percentile(0.5),
            agg.p95(),
            agg.p99(),
            self.admitted_violation_rate() * 100.0,
            self.admitted_mean_map() * 100.0,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(name: &str, decision: AdmissionDecision, samples: &[f64]) -> StreamReport {
        let mut latency = LatencyStats::new();
        for &s in samples {
            latency.record(s);
        }
        let violation_rate = latency.violation_rate(50.0);
        StreamReport {
            name: name.to_string(),
            class: SloClass::Silver,
            decision,
            degraded_midrun: false,
            map: 0.5,
            violation_rate,
            frames: samples.len(),
            gofs: samples.len().div_ceil(8),
            mean_slowdown: 1.0,
            latency,
            faults: 0,
            degraded_gofs: 0,
            evictions: 0,
            terminal_evicted: false,
            recovery_ms_total: 0.0,
        }
    }

    #[test]
    fn fault_table_reports_degradation() {
        let mut a = stream("a", AdmissionDecision::Admitted, &[10.0, 20.0]);
        a.faults = 5;
        a.degraded_gofs = 1;
        a.evictions = 2;
        a.recovery_ms_total = 1500.0;
        let mut b = stream("b", AdmissionDecision::Admitted, &[10.0]);
        b.terminal_evicted = true;
        let r = ServeReport {
            admission_enabled: true,
            streams: vec![a, b],
        };
        assert_eq!(r.total_faults(), 5);
        assert_eq!(r.total_evictions(), 2);
        assert_eq!(r.terminal_evictions(), 1);
        assert!((r.streams[0].mean_recovery_ms() - 750.0).abs() < 1e-9);
        let table = r.format_fault_table();
        assert!(table.contains("evicted"));
        assert!(table.contains("faults 5"));
    }

    #[test]
    fn aggregate_counts_and_rates() {
        let r = ServeReport {
            admission_enabled: true,
            streams: vec![
                stream("a", AdmissionDecision::Admitted, &[10.0, 60.0]),
                stream("b", AdmissionDecision::Degraded, &[20.0, 20.0]),
                stream("c", AdmissionDecision::Rejected, &[]),
            ],
        };
        assert_eq!(r.offered(), 3);
        assert_eq!(r.admitted(), 1);
        assert_eq!(r.degraded(), 1);
        assert_eq!(r.rejected(), 1);
        assert_eq!(r.admitted_latency().count(), 4);
        // 1 violation out of 4 admitted frames.
        assert!((r.admitted_violation_rate() - 0.25).abs() < 1e-9);
        let table = r.format_table();
        assert!(table.contains("reject"));
        assert!(table.contains("degrade"));
    }
}
