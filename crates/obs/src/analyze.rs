//! Trace analysis: turn a run's decision records into the questions an
//! operator actually asks — where did each stream live in branch space,
//! how often and where did it switch, where did the latency budget go,
//! and *why* did each SLO violation happen.

use std::collections::BTreeMap;

use crate::record::DecisionRecord;

/// How long a branch was resident: how many decisions chose it and how
/// many frames ran under it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Residency {
    /// Catalog key of the branch.
    pub key: String,
    /// Decisions that selected this branch.
    pub decisions: u64,
    /// Frames executed under this branch.
    pub frames: u64,
}

/// Per-branch residency, sorted by branch key.
pub fn branch_residency(records: &[DecisionRecord]) -> Vec<Residency> {
    let mut map: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for r in records {
        let e = map.entry(&r.chosen_key).or_insert((0, 0));
        e.0 += 1;
        e.1 += r.frames as u64;
    }
    map.into_iter()
        .map(|(key, (decisions, frames))| Residency {
            key: key.to_string(),
            decisions,
            frames,
        })
        .collect()
}

/// Switch transitions `(src, dst) -> count`, sorted by `(src, dst)`.
pub fn switch_matrix(records: &[DecisionRecord]) -> Vec<(String, String, u64)> {
    let mut map: BTreeMap<(&str, &str), u64> = BTreeMap::new();
    for r in records {
        if r.switched && !r.prev_key.is_empty() {
            *map.entry((&r.prev_key, &r.chosen_key)).or_insert(0) += 1;
        }
    }
    map.into_iter()
        .map(|((s, d), n)| (s.to_string(), d.to_string(), n))
        .collect()
}

/// Mean decomposition of the per-frame latency budget over a set of
/// decisions, mirroring the paper's Eq. 3 terms.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BudgetBreakdown {
    /// Decisions aggregated.
    pub decisions: u64,
    /// Mean predicted kernel latency `L0(b, f_L)` of the chosen branch.
    pub l0_ms: f64,
    /// Mean scheduler overhead `S0`.
    pub s0_ms: f64,
    /// Mean heavy-feature overhead `S(f_H)`.
    pub s_heavy_ms: f64,
    /// Mean predicted switch cost `C(b0, b)`.
    pub c_switch_ms: f64,
    /// Mean per-frame amortized overhead.
    pub amortized_ms: f64,
    /// Mean predicted slack against the budget.
    pub slack_ms: f64,
    /// Mean *achieved* per-frame latency.
    pub actual_ms: f64,
    /// 95th percentile over one sample per GoF (each record's mean
    /// per-frame latency), taken at index `round((n - 1) * 0.95)` of the
    /// sorted samples. It is not a per-frame P95: a GoF of 8 frames and
    /// a GoF of 1 weigh the same.
    pub actual_p95_ms: f64,
}

/// Aggregate the budget decomposition over every record in `records`.
/// A record without a scheduler explain contributes its default (zero)
/// budget terms and still counts as a decision.
pub fn budget_breakdown(records: &[DecisionRecord]) -> BudgetBreakdown {
    let mut out = BudgetBreakdown::default();
    let mut actuals: Vec<f64> = Vec::new();
    for r in records {
        let e = &r.explain;
        out.decisions += 1;
        out.l0_ms += e.branch_kernel_ms.get(e.chosen).copied().unwrap_or(0.0);
        out.s0_ms += e.s0_ms;
        out.s_heavy_ms += e.s_heavy_ms;
        out.c_switch_ms += e.switch_pred_ms;
        out.amortized_ms += e.amortized_ms;
        out.slack_ms += e.slack_ms;
        out.actual_ms += r.per_frame_ms;
        actuals.push(r.per_frame_ms);
    }
    if out.decisions > 0 {
        let n = out.decisions as f64;
        out.l0_ms /= n;
        out.s0_ms /= n;
        out.s_heavy_ms /= n;
        out.c_switch_ms /= n;
        out.amortized_ms /= n;
        out.slack_ms /= n;
        out.actual_ms /= n;
        actuals.sort_by(|a, b| a.total_cmp(b));
        let idx = ((actuals.len() as f64 - 1.0) * 0.95).round() as usize;
        out.actual_p95_ms = actuals[idx.min(actuals.len() - 1)];
    }
    out
}

/// Why a GoF violated its SLO. The variants are ordered by attribution
/// precedence: the first matching cause wins, so attribution is
/// deterministic and every violation has exactly one cause.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ViolationCause {
    /// Faults were absorbed or the fallback ladder fired: wasted or
    /// degraded work blew the budget.
    Fault,
    /// The scheduler already knew no branch could meet the SLO.
    Infeasible,
    /// A reconfiguration cost a large share (> 25%) of the per-frame
    /// budget this GoF.
    Switch,
    /// External GPU contention slowed kernels beyond the profile
    /// (slowdown > 1.15).
    Contention,
    /// None of the above: the branch simply ran over its predicted
    /// latency.
    KernelOverrun,
}

impl ViolationCause {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            ViolationCause::Fault => "fault",
            ViolationCause::Infeasible => "infeasible",
            ViolationCause::Switch => "switch",
            ViolationCause::Contention => "contention",
            ViolationCause::KernelOverrun => "kernel_overrun",
        }
    }
}

/// Attribute one violating GoF to its dominant cause.
pub(crate) fn attribute_violation(r: &DecisionRecord) -> ViolationCause {
    if r.faults > 0 || !r.degrades.is_empty() {
        ViolationCause::Fault
    } else if !r.explain.feasible {
        ViolationCause::Infeasible
    } else if r.frames > 0 && r.switch_ms / r.frames as f64 > 0.25 * r.explain.slo_ms {
        ViolationCause::Switch
    } else if r.slowdown > 1.15 {
        ViolationCause::Contention
    } else {
        ViolationCause::KernelOverrun
    }
}

/// Count SLO-violating GoFs by cause. A GoF violates when its achieved
/// per-frame latency exceeds the stream's SLO.
pub fn violation_attribution(records: &[DecisionRecord]) -> Vec<(ViolationCause, u64)> {
    let mut map: BTreeMap<ViolationCause, u64> = BTreeMap::new();
    for r in records {
        if r.explain.slo_ms > 0.0 && r.per_frame_ms > r.explain.slo_ms {
            *map.entry(attribute_violation(r)).or_insert(0) += 1;
        }
    }
    map.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::DecisionExplain;

    fn rec(key: &str, prev: &str, switched: bool, frames: usize) -> DecisionRecord {
        DecisionRecord {
            chosen_key: key.to_string(),
            prev_key: prev.to_string(),
            switched,
            frames,
            slowdown: 1.0,
            explain: DecisionExplain {
                feasible: true,
                slo_ms: 33.3,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn residency_counts_decisions_and_frames() {
        let records = vec![
            rec("a", "", false, 8),
            rec("b", "a", true, 8),
            rec("b", "b", false, 4),
        ];
        let res = branch_residency(&records);
        assert_eq!(res.len(), 2);
        assert_eq!(
            (res[0].key.as_str(), res[0].decisions, res[0].frames),
            ("a", 1, 8)
        );
        assert_eq!(
            (res[1].key.as_str(), res[1].decisions, res[1].frames),
            ("b", 2, 12)
        );
    }

    #[test]
    fn switch_matrix_skips_first_gof_and_non_switches() {
        let records = vec![
            rec("a", "", true, 8), // first GoF: no prev, excluded
            rec("b", "a", true, 8),
            rec("b", "b", false, 8),
            rec("a", "b", true, 8),
            rec("b", "a", true, 8),
        ];
        let m = switch_matrix(&records);
        assert_eq!(
            m,
            vec![
                ("a".to_string(), "b".to_string(), 2),
                ("b".to_string(), "a".to_string(), 1),
            ]
        );
    }

    #[test]
    fn budget_breakdown_averages_eq3_terms() {
        let mut a = rec("a", "", false, 8);
        a.explain.branch_kernel_ms = vec![10.0];
        a.explain.chosen = 0;
        a.explain.s0_ms = 2.0;
        a.explain.slack_ms = 4.0;
        a.per_frame_ms = 12.0;
        let mut b = a.clone();
        b.explain.branch_kernel_ms = vec![20.0];
        b.explain.s0_ms = 4.0;
        b.explain.slack_ms = 0.0;
        b.per_frame_ms = 22.0;
        let bd = budget_breakdown(&[a, b]);
        assert_eq!(bd.decisions, 2);
        assert!((bd.l0_ms - 15.0).abs() < 1e-12);
        assert!((bd.s0_ms - 3.0).abs() < 1e-12);
        assert!((bd.slack_ms - 2.0).abs() < 1e-12);
        assert!((bd.actual_ms - 17.0).abs() < 1e-12);
        assert!((bd.actual_p95_ms - 22.0).abs() < 1e-12);
    }

    #[test]
    fn attribution_precedence_is_fault_first() {
        let mut r = rec("a", "", false, 8);
        r.per_frame_ms = 50.0;
        r.faults = 2;
        r.explain.feasible = false;
        r.slowdown = 2.0;
        assert_eq!(attribute_violation(&r), ViolationCause::Fault);
        r.faults = 0;
        assert_eq!(attribute_violation(&r), ViolationCause::Infeasible);
        r.explain.feasible = true;
        assert_eq!(attribute_violation(&r), ViolationCause::Contention);
        r.slowdown = 1.0;
        assert_eq!(attribute_violation(&r), ViolationCause::KernelOverrun);
        r.switch_ms = 80.0; // 10 ms/frame > 0.25 * 33.3
        assert_eq!(attribute_violation(&r), ViolationCause::Switch);
    }

    #[test]
    fn violation_attribution_only_counts_violations() {
        let mut ok = rec("a", "", false, 8);
        ok.per_frame_ms = 10.0;
        let mut bad = rec("a", "", false, 8);
        bad.per_frame_ms = 50.0;
        let counts = violation_attribution(&[ok, bad]);
        assert_eq!(counts, vec![(ViolationCause::KernelOverrun, 1)]);
    }
}
