//! The `Ben(f_H)` benefit lookup tables (§3.4).
//!
//! Feature selection must work *without* extracting the heavy features,
//! so the expected accuracy improvement of recruiting a feature set is
//! looked up from offline statistics rather than computed online: for
//! each heavy feature and each latency objective, `Ben` is the mean
//! offline improvement of scheduling with that feature's accuracy model
//! over scheduling with the light model alone. Negative entries are kept
//! — they are exactly what makes the cost-benefit analyzer decline a
//! feature (the MobileNet effect of Figure 2).

use std::collections::BTreeMap;

use lr_features::FeatureKind;

use crate::offline::OfflineDataset;
use crate::predictor::AccuracyModel;

/// Benefit lookup table: feature x SLO bucket -> expected mAP gain.
#[derive(Debug, Clone)]
pub struct BenTable {
    slos: Vec<f64>,
    per_feature: BTreeMap<FeatureKind, Vec<f32>>,
}

impl BenTable {
    /// Computes the table from offline data and trained models.
    ///
    /// `models` must contain the [`FeatureKind::Light`] model and one
    /// model per heavy feature to be tabulated. Without a light model
    /// there is no baseline to measure gains against, so the table
    /// degrades to empty (every lookup returns 0, i.e. no feature is
    /// ever worth recruiting).
    ///
    /// # Panics
    ///
    /// Panics if `slos` is empty.
    pub(crate) fn compute(
        dataset: &OfflineDataset,
        models: &BTreeMap<FeatureKind, AccuracyModel>,
        slos: &[f64],
    ) -> Self {
        assert!(!slos.is_empty(), "need at least one SLO bucket");
        let Some(light_model) = models.get(&FeatureKind::Light) else {
            return Self::uniform(&[], slos);
        };
        let mut per_feature = BTreeMap::new();
        for (&kind, model) in models {
            if kind == FeatureKind::Light {
                continue;
            }
            // The feature's own extraction+prediction cost shrinks the
            // kernel budget of the branch it helps choose (amortized over
            // a typical mid-range GoF of 8 frames, as in the paper's §3.4
            // example). This is what makes Ben a *net* benefit: a feature
            // that picks better branches but starves the kernel scores
            // low or negative at tight SLOs.
            let c = kind.cost();
            let amortized_cost = (c.marginal_extract_ms + c.predict_ms) / 8.0;
            let mut per_slo = Vec::with_capacity(slos.len());
            for &slo in slos {
                let mut gain = 0.0f32;
                let mut n = 0usize;
                for r in &dataset.records {
                    let Some(heavy) = r.heavy.get(&kind) else {
                        continue;
                    };
                    let light_pred = light_model.predict(&r.light, None);
                    let content_pred = model.predict(&r.light, Some(heavy));
                    // Match the online scheduler's conservative budget
                    // (it checks feasibility against slo * headroom).
                    let budget = slo * 0.88;
                    let light_pick = best_feasible(r, &light_pred, budget);
                    let content_pick = best_feasible(r, &content_pred, budget - amortized_cost);
                    if let (Some(a), Some(b)) = (light_pick, content_pick) {
                        gain += r.branch_map[b] - r.branch_map[a];
                        n += 1;
                    }
                }
                per_slo.push(if n > 0 { gain / n as f32 } else { 0.0 });
            }
            per_feature.insert(kind, per_slo);
        }
        Self {
            slos: slos.to_vec(),
            per_feature,
        }
    }

    /// A table with fixed benefits per feature at every SLO, for tests and
    /// ablations.
    pub(crate) fn uniform(benefits: &[(FeatureKind, f32)], slos: &[f64]) -> Self {
        let per_feature = benefits
            .iter()
            .map(|&(k, v)| (k, vec![v; slos.len()]))
            .collect();
        Self {
            slos: slos.to_vec(),
            per_feature,
        }
    }

    /// Nearest SLO bucket index.
    fn bucket(&self, slo_ms: f64) -> usize {
        self.slos
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| (*a - slo_ms).abs().total_cmp(&(*b - slo_ms).abs()))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Expected benefit of one feature at an SLO (0 for unknown features).
    pub fn single(&self, kind: FeatureKind, slo_ms: f64) -> f32 {
        let b = self.bucket(slo_ms);
        self.per_feature.get(&kind).map_or(0.0, |v| v[b])
    }

    /// Expected benefit of a feature *set*, given each member's
    /// [`Self::single`] benefit in set order: the best member's benefit
    /// plus a small diminishing bonus per additional member (features are
    /// largely redundant views of the same content, so benefits do not
    /// add). The empty set's benefit is 0.
    pub(crate) fn set_benefit(singles: impl IntoIterator<Item = f32>) -> f32 {
        let (best, len) = singles
            .into_iter()
            .fold((f32::NEG_INFINITY, 0usize), |(best, len), ben| {
                (best.max(ben), len + 1)
            });
        if len == 0 {
            return 0.0;
        }
        best + 0.002 * (len as f32 - 1.0)
    }
}

/// The feasible branch with the highest predicted accuracy under a kernel
/// budget, using the record's *observed* per-branch latencies.
fn best_feasible(
    record: &crate::offline::SnippetRecord,
    predicted: &[f32],
    budget_ms: f64,
) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &p) in predicted.iter().enumerate() {
        let ms = record.branch_det_ms[i] + record.branch_trk_ms[i];
        if ms <= budget_ms && best.is_none_or(|(_, bp)| p > bp) {
            best = Some((i, p));
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_table_returns_constants() {
        let t = BenTable::uniform(
            &[(FeatureKind::HoC, 0.02), (FeatureKind::MobileNetV2, -0.01)],
            &[33.3, 50.0, 100.0],
        );
        assert_eq!(t.single(FeatureKind::HoC, 50.0), 0.02);
        assert_eq!(t.single(FeatureKind::MobileNetV2, 33.3), -0.01);
        assert_eq!(t.single(FeatureKind::Hog, 33.3), 0.0);
    }

    #[test]
    fn bucket_snaps_to_nearest_slo() {
        let t = BenTable::uniform(&[(FeatureKind::HoC, 1.0)], &[33.3, 100.0]);
        assert_eq!(t.bucket(40.0), 0);
        assert_eq!(t.bucket(90.0), 1);
    }

    #[test]
    fn empty_set_has_zero_benefit() {
        assert_eq!(BenTable::set_benefit([]), 0.0);
    }

    #[test]
    fn set_benefit_is_dominated_by_best_member() {
        let t = BenTable::uniform(
            &[(FeatureKind::HoC, 0.05), (FeatureKind::Hog, 0.01)],
            &[50.0],
        );
        let both =
            BenTable::set_benefit([FeatureKind::HoC, FeatureKind::Hog].map(|k| t.single(k, 50.0)));
        assert!(both >= 0.05);
        assert!(both < 0.06, "benefits must not add linearly");
    }
}
