//! The online scheduler: feature selection and branch selection.
//!
//! Once per GoF, at its first frame, the scheduler:
//!
//! 1. extracts the free light features and queries the content-agnostic
//!    accuracy model and the per-branch latency model;
//! 2. runs the **cost-benefit feature selection** (Eq. 4): greedily
//!    recruits heavy features whose offline `Ben(·)` exceeds nothing —
//!    i.e. improves the objective — *and* whose extraction+prediction
//!    cost still leaves a feasible branch under the SLO;
//! 3. extracts the selected features (detector-byproduct features come
//!    from the previous GoF's detection at marginal cost), queries their
//!    content-aware accuracy models, and ensembles the predictions;
//! 4. solves the constrained optimization (Eq. 3): the feasible branch —
//!    per-frame kernel latency plus amortized scheduler and switching
//!    cost within the (headroom-adjusted) SLO — with the highest
//!    predicted accuracy.
//!
//! Every model query and feature extraction charges its Table 1 cost to
//! the virtual device; the scheduler's own overhead therefore competes
//! with the kernel for the latency budget, which is the paper's central
//! tension.

use std::collections::BTreeMap;
use std::sync::Arc;

use lr_device::{DeviceSim, OpError, OpUnit, SwitchingCostModel};
use lr_features::{FeatureKind, HEAVY_FEATURE_KINDS};
use lr_kernels::{Branch, DetectorFamily, ProposalLogits};
use lr_obs::{DecisionExplain, FeatureBen, ObsSink, SpanKind};
use lr_video::{BBox, Video};

use crate::bentable::BenTable;
use crate::featsvc::FeatureService;
use crate::predictor::{AccuracyModel, LatencyModel};

/// Scheduling policy: which LiteReconfig variant (or ablation) runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Content-agnostic: light features only (LiteReconfig-MinCost).
    MinCost,
    /// Always recruit one fixed content feature, paying its cost
    /// (LiteReconfig-MaxContent-ResNet / -MobileNet).
    MaxContent(FeatureKind),
    /// Full LiteReconfig: cost-benefit feature selection.
    CostBenefit,
    /// Table 4 ablation: always use one feature, charging nothing and
    /// constraining the MBEK only.
    ForcedFeatureFree(FeatureKind),
}

/// Everything produced by offline training; shared across runs.
#[derive(Debug, Clone)]
pub struct TrainedScheduler {
    /// The branch catalog decisions index into.
    pub catalog: Vec<Branch>,
    /// Accuracy models per feature kind (always contains `Light`).
    pub accuracy: BTreeMap<FeatureKind, AccuracyModel>,
    /// Per-branch latency regressions.
    pub latency: LatencyModel,
    /// Benefit lookup tables.
    pub ben: BenTable,
    /// Deterministic switching-cost model used in the optimizer.
    pub switching: SwitchingCostModel,
    /// Steady-state detector milliseconds per inference, per branch —
    /// the heaviness weights the switching model consumes.
    pub det_inference_ms: Vec<f64>,
    /// The detector family the catalog runs on (detector-byproduct
    /// features are only available on Faster R-CNN).
    pub family: DetectorFamily,
}

/// A scheduling decision for one GoF.
#[derive(Debug, Clone)]
pub struct Decision {
    /// Index of the chosen branch in the catalog.
    pub branch_idx: usize,
    /// Heavy features actually recruited for this decision.
    pub features: Vec<FeatureKind>,
    /// Virtual milliseconds the scheduler charged for this decision.
    pub scheduler_ms: f64,
    /// Predicted per-frame kernel latency of the chosen branch.
    pub predicted_kernel_ms: f64,
    /// False when no branch satisfied the constraint and the minimum-
    /// latency branch was used as a fallback.
    pub feasible: bool,
    /// Transient scheduler-op faults absorbed while making this decision
    /// (failed feature extraction/prediction ops; wasted time is included
    /// in `scheduler_ms`).
    pub faults: usize,
    /// True when the accuracy predictions were unusable — the light
    /// predict op faulted, or a prediction came back non-finite — and the
    /// branch was chosen on predicted cost alone.
    pub cost_only: bool,
    /// The full decision rationale for the observability layer. Built
    /// only when an enabled [`ObsSink`] asked for it (`None` otherwise,
    /// so un-observed runs allocate nothing).
    pub explain: Option<Box<DecisionExplain>>,
}

/// Fixed CPU cost of solving the constrained optimization.
const SOLVER_MS: f64 = 0.4;

/// The source latency of the first configuration's switch.
const FIRST_SWITCH_SRC_MS: f64 = 80.0;

/// The online scheduler state.
#[derive(Debug, Clone)]
pub struct Scheduler {
    trained: Arc<TrainedScheduler>,
    policy: Policy,
    slo_ms: f64,
    /// Feasibility is checked against `slo * headroom`, leaving room for
    /// latency noise — the paper's scheduler is deliberately conservative
    /// so the P95 stays under the SLO.
    headroom: f64,
    /// Whether the latency model adapts online (LiteReconfig and
    /// ApproxDet are contention-adaptive; SSD+ and YOLO+ are not).
    adaptive_latency: bool,
    gpu_ratio_mean: f64,
    gpu_ratio_sq: f64,
    cpu_ratio_mean: f64,
    cpu_ratio_sq: f64,
    current: Option<usize>,
    last_det_frame: Option<usize>,
    last_logits: Option<Vec<ProposalLogits>>,
    max_heavy: usize,
    /// Fixed per-frame pipeline overhead the predictor knows about (0 for
    /// LiteReconfig; ApproxDet's legacy pipeline carries a large one).
    known_overhead_ms: f64,
}

impl Scheduler {
    /// Creates a scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `slo_ms` is not positive.
    pub fn new(trained: Arc<TrainedScheduler>, policy: Policy, slo_ms: f64) -> Self {
        assert!(slo_ms > 0.0, "SLO must be positive");
        Self {
            trained,
            policy,
            slo_ms,
            headroom: 0.88,
            adaptive_latency: true,
            gpu_ratio_mean: 1.0,
            gpu_ratio_sq: 1.0,
            cpu_ratio_mean: 1.0,
            cpu_ratio_sq: 1.0,
            current: None,
            last_det_frame: None,
            last_logits: None,
            max_heavy: 2,
            known_overhead_ms: 0.0,
        }
    }

    /// Declares a fixed per-frame pipeline overhead that the latency
    /// prediction accounts for (ApproxDet's profiled latencies include its
    /// own pipeline overhead, so its scheduler "knows" it).
    pub fn with_known_overhead(mut self, ms: f64) -> Self {
        assert!(ms >= 0.0 && ms.is_finite(), "bad overhead {ms}");
        self.known_overhead_ms = ms;
        self
    }

    /// Disables online latency adaptation (for the SSD+/YOLO+ baselines,
    /// which adapt to the SLO but not to contention).
    pub fn with_frozen_latency_model(mut self) -> Self {
        self.adaptive_latency = false;
        self
    }

    /// Changes the feasibility headroom mid-run (a serving layer's
    /// admission controller tightens it to degrade a stream under
    /// overload).
    ///
    /// # Panics
    ///
    /// Panics if `headroom` is outside `[0.1, 1]`.
    pub fn set_headroom(&mut self, headroom: f64) {
        assert!((0.1..=1.0).contains(&headroom), "bad headroom {headroom}");
        self.headroom = headroom;
    }

    /// The current feasibility headroom factor.
    pub fn headroom(&self) -> f64 {
        self.headroom
    }

    /// The active policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The latency objective.
    pub fn slo_ms(&self) -> f64 {
        self.slo_ms
    }

    /// The branch currently configured (catalog index).
    pub fn current_branch(&self) -> Option<usize> {
        self.current
    }

    /// Current GPU latency correction (diagnostics).
    ///
    /// The correction targets the latency *tail*, not the mean: it is the
    /// EWMA mean of the observed/predicted ratio plus a fraction of its
    /// standard deviation, because the SLO is a 95th-percentile bound and
    /// bursty contention makes instantaneous slowdowns exceed the mean.
    pub fn gpu_correction(&self) -> f64 {
        let var = (self.gpu_ratio_sq - self.gpu_ratio_mean * self.gpu_ratio_mean).max(0.0);
        self.gpu_ratio_mean + 0.8 * var.sqrt()
    }

    /// Current CPU latency correction (diagnostics).
    pub fn cpu_correction(&self) -> f64 {
        let var = (self.cpu_ratio_sq - self.cpu_ratio_mean * self.cpu_ratio_mean).max(0.0);
        self.cpu_ratio_mean + 0.8 * var.sqrt()
    }

    /// Clears per-stream state at a video boundary: the detector
    /// byproducts reference frame indices of the previous video and must
    /// not leak into the next one. The configured branch and the latency
    /// corrections persist (the system keeps running).
    pub fn reset_stream(&mut self) {
        self.last_det_frame = None;
        self.last_logits = None;
    }

    /// Records the detector byproducts of the GoF that just ran, making
    /// the ResNet50/CPoP features available to the next decision.
    pub fn record_detection(&mut self, frame_idx: usize, proposal_logits: Vec<ProposalLogits>) {
        self.last_det_frame = Some(frame_idx);
        self.last_logits = Some(proposal_logits);
    }

    /// Updates the online latency corrections from an observed GoF.
    pub fn observe_latency(
        &mut self,
        branch_idx: usize,
        light: &[f32],
        observed_det_per_frame: f64,
        observed_trk_per_frame: f64,
    ) {
        if !self.adaptive_latency {
            return;
        }
        let (pred_det, pred_trk) = self.trained.latency.predict_parts(branch_idx, light);
        if pred_det > 0.05 && observed_det_per_frame > 0.0 {
            let ratio = observed_det_per_frame / pred_det;
            ewma_ratio(&mut self.gpu_ratio_mean, &mut self.gpu_ratio_sq, ratio);
        }
        if pred_trk > 0.05 && observed_trk_per_frame > 0.0 {
            let ratio = observed_trk_per_frame / pred_trk;
            ewma_ratio(&mut self.cpu_ratio_mean, &mut self.cpu_ratio_sq, ratio);
        }
    }

    /// Feeds an externally measured GPU slowdown factor straight into the
    /// latency correction.
    ///
    /// The per-GoF ratio EWMA in [`Scheduler::observe_latency`] needs
    /// several GoFs to converge after a load shift; a serving layer that
    /// *measures* aggregate GPU occupancy can hand the implied slowdown
    /// to the scheduler directly, so the very next decision predicts with
    /// it. The factor is relative to the uncontended device — exactly the
    /// scale of the detector-latency ratio the EWMA tracks, since the
    /// latency model was fit on uncontended profiles. No-op when the
    /// latency model is frozen (non-contention-adaptive baselines).
    pub fn observe_contention(&mut self, slowdown: f64) {
        if !self.adaptive_latency {
            return;
        }
        ewma_ratio(&mut self.gpu_ratio_mean, &mut self.gpu_ratio_sq, slowdown);
    }

    /// Expected switching cost from the current branch to `dst`.
    pub fn expected_switch_ms(&self, dst: usize) -> f64 {
        self.switch_ms_given(self.switch_src_term_ms(), dst)
    }

    /// [`Self::expected_switch_ms`] for every branch, in catalog order.
    /// The source is the same for every entry, so its term (the model's
    /// one `exp`) is computed once.
    fn expected_switch_costs_ms(&self) -> Vec<f64> {
        let src_term_ms = self.switch_src_term_ms();
        (0..self.trained.catalog.len())
            .map(|dst| self.switch_ms_given(src_term_ms, dst))
            .collect()
    }

    /// The switching model's source term for a switch away from the
    /// current branch. The first configuration is treated as a switch
    /// from a mid-weight branch (everything was preheated).
    fn switch_src_term_ms(&self) -> f64 {
        let src_ms = self.current.map_or(FIRST_SWITCH_SRC_MS, |cur| {
            self.trained.det_inference_ms[cur]
        });
        self.trained.switching.src_term_ms(src_ms)
    }

    /// The cost of switching to `dst` given [`Self::switch_src_term_ms`]:
    /// nothing if `dst` is already running.
    fn switch_ms_given(&self, src_term_ms: f64, dst: usize) -> f64 {
        if self.current == Some(dst) {
            return 0.0;
        }
        self.trained
            .switching
            .cost_with_src_term_ms(src_term_ms, self.trained.det_inference_ms[dst])
    }

    /// Marks a branch as the currently running one (called by the
    /// pipeline after it actually switches the MBEK).
    pub fn commit_branch(&mut self, branch_idx: usize) {
        assert!(branch_idx < self.trained.catalog.len(), "bad branch index");
        self.current = Some(branch_idx);
    }

    /// Makes the scheduling decision for the GoF starting at `frame_idx`.
    ///
    /// `boxes` are the kernel's current tracked boxes (the free source of
    /// the object-count/size light features). All scheduler costs are
    /// charged to `device`.
    ///
    /// The observer sees spans around the light pass, each heavy-feature
    /// pass, and the solve; when it is enabled, the returned decision
    /// also carries a [`DecisionExplain`]. Observation only *reads* the
    /// virtual clock: callers that do not observe pass a
    /// [`lr_obs::NullSink`], which changes nothing.
    pub fn decide(
        &mut self,
        video: &Video,
        frame_idx: usize,
        boxes: &[BBox],
        svc: &mut FeatureService,
        device: &mut DeviceSim,
        obs: &mut impl ObsSink,
    ) -> Decision {
        obs.span_begin(SpanKind::Decision, "", device.now_ms());
        let free_run = matches!(self.policy, Policy::ForcedFeatureFree(_));
        let budget = self.slo_ms * self.headroom;
        let n = self.trained.catalog.len();
        let mut sched_ms = 0.0;
        let mut faults = 0usize;
        let mut predict_faulted = false;

        // Step 1: light features + content-agnostic predictions.
        let light_cost = FeatureKind::Light.cost();
        if !free_run {
            obs.span_begin(SpanKind::LightFeature, "", device.now_ms());
            sched_ms += device.charge(OpUnit::Cpu, light_cost.extract_ms);
            match device.run_op(OpUnit::Gpu, light_cost.predict_ms) {
                Ok(ms) => sched_ms += ms,
                Err(OpError::Transient { wasted_ms }) => {
                    // The accuracy-model query died: its predictions are
                    // garbage. Fall through to a cost-only decision.
                    sched_ms += wasted_ms;
                    faults += 1;
                    predict_faulted = true;
                }
            }
            obs.span_end(device.now_ms());
        }
        let light = svc.light(video, frame_idx, boxes);
        let a_light = self.trained.accuracy[&FeatureKind::Light].predict(&light, None);
        let (gpu_corr, cpu_corr) = (self.gpu_correction(), self.cpu_correction());
        let kernel_pred = self
            .trained
            .latency
            .predict_all_kernel_ms(&light, gpu_corr, cpu_corr);

        // The scheduler's fixed per-decision cost (light extract+predict
        // plus the solve), as seen by the constraint.
        let s0 = if free_run {
            0.0
        } else {
            light_cost.extract_ms + light_cost.predict_ms + SOLVER_MS
        };
        // `self.current` is fixed for the whole decision, so each branch's
        // switching cost is computed once, not on every `fits` call.
        let switch_ms = self.expected_switch_costs_ms();
        let fits = |b: usize, extra_sched_ms: f64, this: &Self| -> bool {
            let amortized = (s0 + extra_sched_ms + switch_ms[b])
                / this.trained.catalog[b].gof_size.max(1) as f64;
            kernel_pred[b] + this.known_overhead_ms + amortized <= budget
        };

        // Step 2: feature selection.
        let selected = self.select_features(&a_light, &fits);

        // Step 3: extract selected features and ensemble predictions.
        let mut content_preds: Vec<Vec<f32>> = Vec::new();
        let mut used = Vec::new();
        for &kind in &selected {
            let cost = kind.cost();
            let value = if kind.from_detector() {
                // `available()` gated selection on this, so `None` can
                // only mean the caller reset the stream mid-decision:
                // treat the feature as unavailable rather than panic.
                let Some(frame) = self.last_det_frame else {
                    continue;
                };
                let logits = self.last_logits.as_deref();
                svc.extract_heavy(kind, video, frame, logits)
            } else {
                svc.extract_heavy(kind, video, frame_idx, None)
            };
            let Some(feature) = value else { continue };
            if !free_run {
                let extract_ms = if kind.from_detector() {
                    cost.marginal_extract_ms
                } else {
                    cost.extract_ms
                };
                let unit = if cost.extract_on_gpu {
                    OpUnit::Gpu
                } else {
                    OpUnit::Cpu
                };
                // Extract then predict; a transient fault on either op
                // drops the feature (the ensemble just loses one vote).
                let mut op_failed = false;
                obs.span_begin(SpanKind::HeavyFeature, kind.name(), device.now_ms());
                for (u, ms) in [(unit, extract_ms), (OpUnit::Gpu, cost.predict_ms)] {
                    match device.run_op(u, ms) {
                        Ok(charged) => sched_ms += charged,
                        Err(OpError::Transient { wasted_ms }) => {
                            sched_ms += wasted_ms;
                            faults += 1;
                            op_failed = true;
                            break;
                        }
                    }
                }
                obs.span_end(device.now_ms());
                if op_failed {
                    continue;
                }
            }
            if let Some(model) = self.trained.accuracy.get(&kind) {
                content_preds.push(model.predict(&light, Some(&feature)));
                used.push(kind);
            }
        }

        if !free_run {
            obs.span_begin(SpanKind::Solve, "", device.now_ms());
            sched_ms += device.charge(OpUnit::Cpu, SOLVER_MS);
            obs.span_end(device.now_ms());
        }

        // Step 4: constrained optimization over the final predictions.
        let a_final: Vec<f32> = if content_preds.is_empty() {
            a_light
        } else {
            let mut mean = vec![0.0f32; n];
            for p in &content_preds {
                for (m, &v) in mean.iter_mut().zip(p.iter()) {
                    *m += v;
                }
            }
            let inv = 1.0 / content_preds.len() as f32;
            mean.iter_mut().for_each(|m| *m *= inv);
            mean
        };

        // Table 4's forced-feature mode ignores the feature's overhead in
        // the constraint as well (the latency objective applies to the
        // MBEK only).
        let extra = if free_run {
            0.0
        } else {
            self.feature_set_cost_ms(&used)
        };
        let cost_only = predict_faulted || a_final.iter().any(|a| !a.is_finite());
        let (branch_idx, feasible) = if cost_only {
            // The accuracy side is unusable (faulted predict op or a
            // non-finite prediction): fall back to cost-only selection —
            // the cheapest branch that fits the constraint, or the
            // cheapest overall when nothing fits.
            match (0..n)
                .filter(|&b| fits(b, extra, self))
                .min_by(|&i, &j| kernel_pred[i].total_cmp(&kernel_pred[j]))
            {
                Some(b) => (b, true),
                None => (argmin(&kernel_pred), false),
            }
        } else {
            let mut best: Option<(usize, f32)> = None;
            for (b, &ab) in a_final.iter().enumerate().take(n) {
                if fits(b, extra, self) && best.is_none_or(|(_, bp)| ab > bp) {
                    best = Some((b, ab));
                }
            }
            match best {
                Some((b, _)) => (b, true),
                // Fallback: the cheapest branch.
                None => (argmin(&kernel_pred), false),
            }
        };

        // Everything below is pure observation: values already computed,
        // clock only read.
        let explain = if obs.enabled() {
            let switch_pred_ms = switch_ms[branch_idx];
            let amortized_ms = (s0 + extra + switch_pred_ms)
                / self.trained.catalog[branch_idx].gof_size.max(1) as f64;
            let slack_ms = budget - kernel_pred[branch_idx] - self.known_overhead_ms - amortized_ms;
            Some(Box::new(DecisionExplain {
                slo_ms: self.slo_ms,
                budget_ms: budget,
                features: used
                    .iter()
                    .map(|&k| FeatureBen {
                        name: k.name(),
                        ben: self.trained.ben.single(k, self.slo_ms),
                    })
                    .collect(),
                branch_acc: a_final.clone(),
                branch_kernel_ms: kernel_pred.clone(),
                s0_ms: s0,
                s_heavy_ms: extra,
                switch_pred_ms,
                amortized_ms,
                slack_ms,
                chosen: branch_idx,
                feasible,
                cost_only,
            }))
        } else {
            None
        };
        obs.span_end(device.now_ms());

        Decision {
            branch_idx,
            features: used,
            scheduler_ms: sched_ms,
            predicted_kernel_ms: kernel_pred[branch_idx],
            feasible,
            faults,
            cost_only,
            explain,
        }
    }

    /// True if a heavy feature can be recruited right now.
    fn available(&self, kind: FeatureKind) -> bool {
        if !self.trained.accuracy.contains_key(&kind) {
            return false;
        }
        if kind.from_detector() {
            self.trained.family == DetectorFamily::FasterRcnn
                && self.last_det_frame.is_some()
                && (kind != FeatureKind::CPoP || self.last_logits.is_some())
        } else {
            true
        }
    }

    /// The amortizable extract+predict cost of a feature set.
    fn feature_set_cost_ms(&self, set: &[FeatureKind]) -> f64 {
        set.iter()
            .map(|k| {
                let c = k.cost();
                let extract = if k.from_detector() {
                    c.marginal_extract_ms
                } else {
                    c.extract_ms
                };
                extract + c.predict_ms
            })
            .sum()
    }

    /// Policy-dependent heavy-feature selection (Eq. 4 for CostBenefit).
    fn select_features(
        &self,
        a_light: &[f32],
        fits: &dyn Fn(usize, f64, &Self) -> bool,
    ) -> Vec<FeatureKind> {
        let n = self.trained.catalog.len();
        match self.policy {
            Policy::MinCost => Vec::new(),
            Policy::MaxContent(kind) | Policy::ForcedFeatureFree(kind) => {
                if self.available(kind) {
                    vec![kind]
                } else {
                    Vec::new()
                }
            }
            Policy::CostBenefit => {
                // Base objective: best content-agnostic feasible accuracy.
                let base = (0..n)
                    .filter(|&b| fits(b, 0.0, self))
                    .map(|b| a_light[b])
                    .fold(f32::NEG_INFINITY, f32::max);
                if !base.is_finite() {
                    // Nothing feasible even without features: stay light.
                    return Vec::new();
                }
                let mut selected: Vec<FeatureKind> = Vec::new();
                let mut current_value = base;
                // Offline Ben estimates carry estimation error and are
                // measured with fresh features; require a margin before
                // paying real extraction costs.
                const SELECTION_MARGIN: f32 = 0.015;
                while selected.len() < self.max_heavy {
                    let mut best_candidate: Option<(FeatureKind, f32)> = None;
                    for kind in HEAVY_FEATURE_KINDS {
                        if selected.contains(&kind) || !self.available(kind) {
                            continue;
                        }
                        let mut trial = selected.clone();
                        trial.push(kind);
                        let cost = self.feature_set_cost_ms(&trial);
                        if !(0..n).any(|b| fits(b, cost, self)) {
                            continue;
                        }
                        let value = base + self.trained.ben.set_benefit(&trial, self.slo_ms);
                        if value > current_value + SELECTION_MARGIN
                            && best_candidate.is_none_or(|(_, v)| value > v)
                        {
                            best_candidate = Some((kind, value));
                        }
                    }
                    match best_candidate {
                        Some((kind, value)) => {
                            selected.push(kind);
                            current_value = value;
                        }
                        None => break,
                    }
                }
                selected
            }
        }
    }
}

/// One EWMA step of a latency-ratio correction: `ratio` is clamped to
/// `[0.2, 10]`, then folded into the running mean and mean square.
fn ewma_ratio(mean: &mut f64, sq: &mut f64, ratio: f64) {
    const ALPHA: f64 = 0.25;
    let ratio = ratio.clamp(0.2, 10.0);
    *mean = (1.0 - ALPHA) * *mean + ALPHA * ratio;
    *sq = (1.0 - ALPHA) * *sq + ALPHA * ratio * ratio;
}

/// Index of the smallest value in `values` under [`f64::total_cmp`]
/// (the first such index on ties; 0 for an empty slice, which the
/// non-empty catalog invariant rules out). The cheapest-branch fallback
/// of both the scheduler and the pipeline's retry rung.
pub(crate) fn argmin(values: &[f64]) -> usize {
    let mut best = 0usize;
    for (i, v) in values.iter().enumerate().skip(1) {
        if v.total_cmp(&values[best]) == std::cmp::Ordering::Less {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featsvc::FeatureService;
    use crate::offline::{profile_videos, OfflineConfig};
    use crate::predictor::{AccuracyModel, AccuracyModelConfig, LatencyModel};
    use lr_device::DeviceKind;
    use lr_kernels::branch::small_catalog;
    use lr_obs::NullSink;
    use lr_video::VideoSpec;

    fn trained() -> Arc<TrainedScheduler> {
        let videos: Vec<Video> = (0..2)
            .map(|i| {
                Video::generate(VideoSpec {
                    id: i,
                    seed: 400 + i as u64,
                    width: 640.0,
                    height: 480.0,
                    num_frames: 80,
                })
            })
            .collect();
        let cfg = OfflineConfig {
            snippet_len: 40,
            catalog: small_catalog(),
            family: DetectorFamily::FasterRcnn,
            seed: 9,
        };
        let ds = profile_videos(&videos, &cfg, &FeatureService::new());
        let mut accuracy = BTreeMap::new();
        accuracy.insert(
            FeatureKind::Light,
            AccuracyModel::train(FeatureKind::Light, &ds, &AccuracyModelConfig::tiny(), 1),
        );
        accuracy.insert(
            FeatureKind::HoC,
            AccuracyModel::train(FeatureKind::HoC, &ds, &AccuracyModelConfig::tiny(), 2),
        );
        accuracy.insert(
            FeatureKind::MobileNetV2,
            AccuracyModel::train(
                FeatureKind::MobileNetV2,
                &ds,
                &AccuracyModelConfig::tiny(),
                3,
            ),
        );
        let latency = LatencyModel::train(&ds);
        let ben = crate::bentable::BenTable::uniform(
            &[(FeatureKind::HoC, 0.02), (FeatureKind::MobileNetV2, 0.015)],
            &[33.3, 50.0, 100.0],
        );
        let det_inference_ms = ds
            .catalog
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let mean: f64 = ds.records.iter().map(|r| r.branch_det_ms[i]).sum::<f64>()
                    / ds.records.len() as f64;
                mean * b.gof_size as f64
            })
            .collect();
        Arc::new(TrainedScheduler {
            catalog: ds.catalog.clone(),
            accuracy,
            latency,
            ben,
            switching: SwitchingCostModel::paper_default(),
            det_inference_ms,
            family: DetectorFamily::FasterRcnn,
        })
    }

    fn test_video() -> Video {
        Video::generate(VideoSpec {
            id: 99,
            seed: 999,
            width: 640.0,
            height: 480.0,
            num_frames: 60,
        })
    }

    #[test]
    fn mincost_uses_no_heavy_features() {
        let t = trained();
        let mut s = Scheduler::new(t, Policy::MinCost, 50.0);
        let v = test_video();
        let mut svc = FeatureService::new();
        let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 1);
        let d = s.decide(&v, 0, &[], &mut svc, &mut dev, &mut NullSink);
        assert!(d.features.is_empty());
        assert!(d.scheduler_ms > 0.0, "light costs must be charged");
        assert!(d.scheduler_ms < 10.0, "MinCost must be cheap");
    }

    #[test]
    fn decision_respects_slo_scaling() {
        // Tighter SLOs must pick branches with lower predicted latency.
        let t = trained();
        let v = test_video();
        let mut svc = FeatureService::new();
        let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 2);
        let mut tight = Scheduler::new(t.clone(), Policy::MinCost, 15.0);
        let mut loose = Scheduler::new(t, Policy::MinCost, 200.0);
        let dt = tight.decide(&v, 0, &[], &mut svc, &mut dev, &mut NullSink);
        let dl = loose.decide(&v, 0, &[], &mut svc, &mut dev, &mut NullSink);
        assert!(dt.predicted_kernel_ms <= dl.predicted_kernel_ms + 1e-6);
    }

    #[test]
    fn maxcontent_mobilenet_pays_its_cost() {
        let t = trained();
        let v = test_video();
        let mut svc = FeatureService::new();
        let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 3);
        let mut s = Scheduler::new(t, Policy::MaxContent(FeatureKind::MobileNetV2), 100.0);
        let d = s.decide(&v, 0, &[], &mut svc, &mut dev, &mut NullSink);
        assert_eq!(d.features, vec![FeatureKind::MobileNetV2]);
        // 153.96 extract + 9.33 predict, plus light costs.
        assert!(d.scheduler_ms > 150.0, "scheduler cost {}", d.scheduler_ms);
    }

    #[test]
    fn forced_feature_free_charges_nothing() {
        let t = trained();
        let v = test_video();
        let mut svc = FeatureService::new();
        let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 4);
        let mut s = Scheduler::new(t, Policy::ForcedFeatureFree(FeatureKind::MobileNetV2), 33.3);
        let before = dev.now_ms();
        let d = s.decide(&v, 0, &[], &mut svc, &mut dev, &mut NullSink);
        assert_eq!(dev.now_ms(), before, "free mode must not charge");
        assert_eq!(d.scheduler_ms, 0.0);
        assert_eq!(d.features, vec![FeatureKind::MobileNetV2]);
    }

    #[test]
    fn cost_benefit_declines_heavy_features_under_tight_slo() {
        // With a 6 ms SLO, even amortized over the longest GoF (20 frames
        // in the small catalog) MobileNetV2's 163 ms cannot fit, while a
        // cheap tracked branch alone still can; cost-benefit must decline
        // the feature rather than blow the budget.
        let t = trained();
        let v = test_video();
        let mut svc = FeatureService::new();
        let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 5);
        let mut s = Scheduler::new(t, Policy::CostBenefit, 6.0);
        let d = s.decide(&v, 0, &[], &mut svc, &mut dev, &mut NullSink);
        assert!(
            !d.features.contains(&FeatureKind::MobileNetV2),
            "MobileNetV2 selected under a 6 ms SLO: {:?}",
            d.features
        );
    }

    #[test]
    fn cost_benefit_recruits_features_when_affordable() {
        let t = trained();
        let v = test_video();
        let mut svc = FeatureService::new();
        let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 6);
        let mut s = Scheduler::new(t, Policy::CostBenefit, 100.0);
        let d = s.decide(&v, 0, &[], &mut svc, &mut dev, &mut NullSink);
        assert!(
            !d.features.is_empty(),
            "a 100 ms SLO affords content features"
        );
    }

    #[test]
    fn detector_features_require_byproducts() {
        let t = trained();
        let v = test_video();
        let mut svc = FeatureService::new();
        let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 7);
        let mut s = Scheduler::new(t, Policy::MaxContent(FeatureKind::ResNet50), 100.0);
        // No detection recorded yet: falls back to light-only.
        let d = s.decide(&v, 0, &[], &mut svc, &mut dev, &mut NullSink);
        assert!(d.features.is_empty());
    }

    #[test]
    fn observe_latency_raises_gpu_correction_under_contention() {
        let t = trained();
        let mut s = Scheduler::new(t.clone(), Policy::MinCost, 50.0);
        let light = vec![0.4, 0.3, 0.2, 0.01];
        let (pred_det, _) = t.latency.predict_parts(0, &light);
        // Observe the detector running 2x slower than predicted.
        for _ in 0..20 {
            s.observe_latency(0, &light, pred_det * 2.0, 0.0);
        }
        assert!(
            s.gpu_correction() > 1.5,
            "correction {} did not adapt",
            s.gpu_correction()
        );
    }

    #[test]
    fn frozen_latency_model_ignores_observations() {
        let t = trained();
        let mut s = Scheduler::new(t, Policy::MinCost, 50.0).with_frozen_latency_model();
        let light = vec![0.4, 0.3, 0.2, 0.01];
        for _ in 0..20 {
            s.observe_latency(0, &light, 100.0, 100.0);
        }
        assert_eq!(s.gpu_correction(), 1.0);
    }

    #[test]
    fn faulted_predict_op_falls_back_to_cost_only() {
        let t = trained();
        let v = test_video();
        let mut svc = FeatureService::new();
        let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 8);
        dev.set_fault_plan(lr_device::FaultPlan::generate(lr_device::FaultConfig {
            transient_rate: 1.0,
            stall_rate: 0.0,
            ..lr_device::FaultConfig::moderate(21)
        }));
        let mut s = Scheduler::new(t, Policy::CostBenefit, 50.0);
        let d = s.decide(&v, 0, &[], &mut svc, &mut dev, &mut NullSink);
        assert!(d.cost_only, "faulted predict op must force cost-only");
        assert!(d.faults >= 1);
        assert!(d.scheduler_ms > 0.0, "wasted op time must be accounted");
    }

    #[test]
    fn clean_device_decision_reports_no_faults() {
        let t = trained();
        let v = test_video();
        let mut svc = FeatureService::new();
        let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 9);
        let mut s = Scheduler::new(t, Policy::CostBenefit, 50.0);
        let d = s.decide(&v, 0, &[], &mut svc, &mut dev, &mut NullSink);
        assert_eq!(d.faults, 0);
        assert!(!d.cost_only);
    }

    #[test]
    fn argmin_ignores_nan_predictions() {
        assert_eq!(argmin(&[3.0, f64::NAN, 1.0, 2.0]), 2);
        assert_eq!(argmin(&[f64::NAN, 5.0]), 1);
        assert_eq!(argmin(&[4.0]), 0);
    }

    #[test]
    fn switch_cost_is_zero_for_same_branch() {
        let t = trained();
        let mut s = Scheduler::new(t, Policy::MinCost, 50.0);
        s.commit_branch(3);
        assert_eq!(s.expected_switch_ms(3), 0.0);
        assert!(s.expected_switch_ms(0) > 0.0);
    }

    #[test]
    fn switch_costs_match_the_per_branch_cost_bit_for_bit() {
        let t = trained();
        let det_ms = &t.det_inference_ms;
        let lightest = (0..det_ms.len())
            .min_by(|&i, &j| det_ms[i].total_cmp(&det_ms[j]))
            .unwrap();
        let heaviest = (0..det_ms.len())
            .max_by(|&i, &j| det_ms[i].total_cmp(&det_ms[j]))
            .unwrap();
        assert_ne!(lightest, heaviest);
        let mut s = Scheduler::new(t.clone(), Policy::CostBenefit, 50.0);
        for current in [None, Some(lightest), Some(heaviest)] {
            if let Some(b) = current {
                s.commit_branch(b);
            }
            let costs = s.expected_switch_costs_ms();
            assert_eq!(costs.len(), t.catalog.len());
            for (dst, cost) in costs.iter().enumerate() {
                // The per-branch cost as the model's one-call form gives it.
                let expected = match current {
                    Some(cur) if cur == dst => 0.0,
                    Some(cur) => t.switching.offline_cost_ms(det_ms[cur], det_ms[dst]),
                    None => t.switching.offline_cost_ms(80.0, det_ms[dst]),
                };
                let what = format!("current {current:?}, dst {dst}");
                assert_eq!(cost.to_bits(), expected.to_bits(), "{what}");
                assert_eq!(
                    s.expected_switch_ms(dst).to_bits(),
                    expected.to_bits(),
                    "{what}"
                );
            }
        }
    }
}
