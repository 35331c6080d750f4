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
use lr_features::{light, FeatureKind, ALL_FEATURE_KINDS, HEAVY_FEATURE_KINDS};
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

/// One value per [`FeatureKind`], indexed by `kind as usize`
/// ([`ALL_FEATURE_KINDS`] lists the kinds in that order).
type PerKind<T> = [T; ALL_FEATURE_KINDS.len()];

/// What a decision reads that is fixed for a scheduler's life: its
/// catalog's per-branch constants, and each feature kind's cost, benefit
/// and model at the scheduler's SLO.
#[derive(Debug, Clone)]
struct Consts {
    /// Each branch's amortization divisor, `gof_size.max(1)`.
    gof_frames: Vec<f64>,
    /// Each branch's switching cost as a destination, without the
    /// source's term ([`SwitchingCostModel::dst_term_ms`]).
    switch_dst_ms: Vec<f64>,
    /// Each kind's amortizable cost: its extraction (the marginal one for
    /// a detector byproduct) plus its prediction.
    cost_ms: PerKind<f64>,
    /// Each kind's `Ben` at the scheduler's SLO.
    ben: PerKind<f32>,
    /// Whether an accuracy model was trained for each kind.
    trained: PerKind<bool>,
}

impl Consts {
    fn new(trained: &TrainedScheduler, slo_ms: f64) -> Self {
        let gof_frames = trained
            .catalog
            .iter()
            .map(|b| b.gof_size.max(1) as f64)
            .collect();
        let switch_dst_ms = trained
            .det_inference_ms
            .iter()
            .map(|&ms| trained.switching.dst_term_ms(ms))
            .collect();
        let cost_ms = ALL_FEATURE_KINDS.map(|k| extract_ms(k) + k.cost().predict_ms);
        Self {
            gof_frames,
            switch_dst_ms,
            cost_ms,
            ben: ALL_FEATURE_KINDS.map(|k| trained.ben.single(k, slo_ms)),
            trained: ALL_FEATURE_KINDS.map(|k| trained.accuracy.contains_key(&k)),
        }
    }
}

/// The buffers a decision works in. The scheduler keeps them from one
/// decision to the next, so a decision allocates none of them.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// The content-agnostic accuracy predictions.
    a_light: Vec<f32>,
    /// A content model's input, then its predictions.
    x: Vec<f32>,
    /// The forward passes' other buffer.
    spare: Vec<f32>,
    /// The heavy feature last fetched.
    heavy: Vec<f32>,
    /// The sum, then the mean, of the content models' predictions.
    mean: Vec<f32>,
    /// Each branch's predicted per-frame kernel latency.
    kernel_pred: Vec<f64>,
    /// Each branch's expected switching cost.
    switch_ms: Vec<f64>,
    /// Each branch's kernel latency plus the known per-frame overhead.
    kpo: Vec<f64>,
    /// Which branches fit without heavy features (CostBenefit's base
    /// objective).
    base_mask: Vec<bool>,
    /// Which branches fit with the features actually used, when that
    /// cost differs from the base objective's.
    final_mask: Vec<bool>,
    /// The heavy features selection recruits.
    selected: Vec<FeatureKind>,
}

impl Scratch {
    /// Buffers for `branches` branches and accuracy models at most
    /// `width` wide.
    fn new(branches: usize, width: usize) -> Self {
        Self {
            a_light: Vec::with_capacity(width),
            x: Vec::with_capacity(width),
            spare: Vec::with_capacity(width),
            heavy: Vec::new(),
            mean: vec![0.0; branches],
            kernel_pred: vec![0.0; branches],
            switch_ms: vec![0.0; branches],
            kpo: vec![0.0; branches],
            base_mask: vec![false; branches],
            final_mask: vec![false; branches],
            selected: Vec::with_capacity(HEAVY_FEATURE_KINDS.len()),
        }
    }
}

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
    /// The proposal logits of the detection at `last_det_frame`.
    last_logits: Vec<ProposalLogits>,
    max_heavy: usize,
    /// Fixed per-frame pipeline overhead the predictor knows about (0 for
    /// LiteReconfig; ApproxDet's legacy pipeline carries a large one).
    known_overhead_ms: f64,
    /// The light features the last decision saw.
    light: [f32; light::DIM],
    consts: Consts,
    scratch: Scratch,
}

impl Scheduler {
    /// Creates a scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `slo_ms` is not positive.
    pub fn new(trained: Arc<TrainedScheduler>, policy: Policy, slo_ms: f64) -> Self {
        assert!(slo_ms > 0.0, "SLO must be positive");
        let widths = trained.accuracy.values().map(AccuracyModel::width);
        let scratch = Scratch::new(trained.catalog.len(), widths.max().unwrap_or(0));
        Self {
            consts: Consts::new(&trained, slo_ms),
            scratch,
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
            last_logits: Vec::new(),
            max_heavy: 2,
            known_overhead_ms: 0.0,
            light: [0.0; light::DIM],
        }
    }

    /// Declares a fixed per-frame pipeline overhead that the latency
    /// prediction accounts for (ApproxDet's profiled latencies include its
    /// own pipeline overhead, so its scheduler "knows" it).
    pub(crate) fn with_known_overhead(mut self, ms: f64) -> Self {
        assert!(ms >= 0.0 && ms.is_finite(), "bad overhead {ms}");
        self.known_overhead_ms = ms;
        self
    }

    /// Disables online latency adaptation (for the SSD+/YOLO+ baselines,
    /// which adapt to the SLO but not to contention).
    pub(crate) fn with_frozen_latency_model(mut self) -> Self {
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
    pub(crate) fn set_headroom(&mut self, headroom: f64) {
        assert!((0.1..=1.0).contains(&headroom), "bad headroom {headroom}");
        self.headroom = headroom;
    }

    /// The latency objective.
    pub(crate) fn slo_ms(&self) -> f64 {
        self.slo_ms
    }

    /// The branch currently configured (catalog index).
    pub(crate) fn current_branch(&self) -> Option<usize> {
        self.current
    }

    /// The light features the last decision saw (zeros before the first).
    pub(crate) fn light(&self) -> [f32; light::DIM] {
        self.light
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
    pub(crate) fn cpu_correction(&self) -> f64 {
        let var = (self.cpu_ratio_sq - self.cpu_ratio_mean * self.cpu_ratio_mean).max(0.0);
        self.cpu_ratio_mean + 0.8 * var.sqrt()
    }

    /// Clears per-stream state at a video boundary: the detector
    /// byproducts reference frame indices of the previous video and must
    /// not leak into the next one. The configured branch and the latency
    /// corrections persist (the system keeps running).
    pub fn reset_stream(&mut self) {
        self.last_det_frame = None;
        self.last_logits.clear();
    }

    /// Records the detector byproducts of the GoF that just ran, making
    /// the ResNet50/CPoP features available to the next decision. The
    /// logits are swapped in: `proposal_logits` gets the previous
    /// detection's buffer back, so a caller that refills it each GoF
    /// allocates none.
    pub fn record_detection(
        &mut self,
        frame_idx: usize,
        proposal_logits: &mut Vec<ProposalLogits>,
    ) {
        self.last_det_frame = Some(frame_idx);
        std::mem::swap(&mut self.last_logits, proposal_logits);
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
    pub(crate) fn observe_contention(&mut self, slowdown: f64) {
        if !self.adaptive_latency {
            return;
        }
        ewma_ratio(&mut self.gpu_ratio_mean, &mut self.gpu_ratio_sq, slowdown);
    }

    /// Expected switching cost from the current branch to `dst`: nothing
    /// if `dst` is already running.
    pub fn expected_switch_ms(&self, dst: usize) -> f64 {
        if self.current == Some(dst) {
            return 0.0;
        }
        self.consts.switch_dst_ms[dst] + self.switch_src_term_ms()
    }

    /// [`Self::expected_switch_ms`] of every branch into `out`, in one
    /// pass: the source's term (the model's one `exp`) is the same for
    /// every branch, so it is computed once.
    fn switch_costs_into(&self, out: &mut [f64]) {
        let src_term_ms = self.switch_src_term_ms();
        for (o, &dst_term_ms) in out.iter_mut().zip(&self.consts.switch_dst_ms) {
            *o = dst_term_ms + src_term_ms;
        }
        if let Some(cur) = self.current {
            out[cur] = 0.0;
        }
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
    /// pass (its extraction and its charges), and the solve; when it is
    /// enabled, the returned decision also carries a [`DecisionExplain`].
    /// Observation only *reads* the virtual clock: callers that do not
    /// observe pass a [`lr_obs::NullSink`], which changes nothing.
    ///
    /// The per-branch work is a few flat passes over buffers the
    /// scheduler keeps: one writes every branch's predicted kernel
    /// latency, one its switching cost, and one per distinct scheduler
    /// cost its feasibility mask. Without an enabled observer a decision
    /// allocates only the returned feature list, when it is not empty.
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
        let mut scratch = std::mem::take(&mut self.scratch);

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
        self.light = svc.light_array(video, frame_idx, boxes);
        self.trained.accuracy[&FeatureKind::Light].predict_into(
            &self.light,
            None,
            &mut scratch.a_light,
            &mut scratch.spare,
        );
        let (gpu_corr, cpu_corr) = (self.gpu_correction(), self.cpu_correction());
        self.trained.latency.kernel_ms_into(
            &self.light,
            gpu_corr,
            cpu_corr,
            &mut scratch.kernel_pred,
        );

        // The scheduler's fixed per-decision cost (light extract+predict
        // plus the solve), as seen by the constraint.
        let s0 = if free_run {
            0.0
        } else {
            light_cost.extract_ms + light_cost.predict_ms + SOLVER_MS
        };
        // `self.current` is fixed for the whole decision, so each branch's
        // switching cost is computed once, not on every feasibility check.
        self.switch_costs_into(&mut scratch.switch_ms);
        for (kpo, &kp) in scratch.kpo.iter_mut().zip(&scratch.kernel_pred) {
            *kpo = kp + self.known_overhead_ms;
        }
        let constraint = Constraint {
            kpo: &scratch.kpo,
            switch_ms: &scratch.switch_ms,
            gof_frames: &self.consts.gof_frames,
            budget,
        };

        // Step 2: feature selection.
        scratch.selected.clear();
        let base_mask_ms = self.select_features(
            &scratch.a_light,
            &constraint,
            s0,
            &mut scratch.base_mask,
            &mut scratch.selected,
        );

        // Step 3: extract selected features and ensemble predictions.
        let mut used = Vec::new();
        for &kind in &scratch.selected {
            let cost = kind.cost();
            let (frame, logits) = if kind.from_detector() {
                // `available()` gated selection on this, so `None` can
                // only mean the caller reset the stream mid-decision:
                // treat the feature as unavailable rather than panic.
                let Some(frame) = self.last_det_frame else {
                    continue;
                };
                (frame, Some(self.last_logits.as_slice()))
            } else {
                (frame_idx, None)
            };
            if !free_run {
                obs.span_begin(SpanKind::HeavyFeature, kind.name(), device.now_ms());
            }
            // Extraction charges no virtual time. It cannot come back
            // empty: `available()` admits heavy kinds only, and a
            // detector kind always gets the logits.
            let extracted = svc.extract_heavy_into(kind, video, frame, logits, &mut scratch.heavy);
            let mut op_failed = !extracted;
            if !free_run && extracted {
                let unit = if cost.extract_on_gpu {
                    OpUnit::Gpu
                } else {
                    OpUnit::Cpu
                };
                // Extract then predict; a transient fault on either op
                // drops the feature (the ensemble just loses one vote).
                for (u, ms) in [(unit, extract_ms(kind)), (OpUnit::Gpu, cost.predict_ms)] {
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
            }
            if !free_run {
                obs.span_end(device.now_ms());
            }
            if op_failed {
                continue;
            }
            if let Some(model) = self.trained.accuracy.get(&kind) {
                model.predict_into(
                    &self.light,
                    Some(&scratch.heavy),
                    &mut scratch.x,
                    &mut scratch.spare,
                );
                if used.is_empty() {
                    scratch.mean.fill(0.0);
                }
                for (m, &v) in scratch.mean.iter_mut().zip(&scratch.x) {
                    *m += v;
                }
                used.push(kind);
            }
        }

        if !free_run {
            obs.span_begin(SpanKind::Solve, "", device.now_ms());
            sched_ms += device.charge(OpUnit::Cpu, SOLVER_MS);
            obs.span_end(device.now_ms());
        }

        // Step 4: constrained optimization over the final predictions.
        let a_final: &[f32] = if used.is_empty() {
            &scratch.a_light
        } else {
            let inv = 1.0 / used.len() as f32;
            scratch.mean.iter_mut().for_each(|m| *m *= inv);
            &scratch.mean
        };

        // Table 4's forced-feature mode ignores the feature's overhead in
        // the constraint as well (the latency objective applies to the
        // MBEK only).
        let extra = if free_run {
            0.0
        } else {
            self.set_cost_ms(used.iter().copied())
        };
        let final_ms = s0 + extra;
        let mask: &[bool] = if base_mask_ms.map(f64::to_bits) == Some(final_ms.to_bits()) {
            &scratch.base_mask
        } else {
            constraint.mask_into(final_ms, &mut scratch.final_mask);
            &scratch.final_mask
        };
        let kernel_pred = &scratch.kernel_pred;
        let cost_only = predict_faulted || a_final.iter().any(|a| !a.is_finite());
        let chosen = if cost_only {
            // The accuracy side is unusable (faulted predict op or a
            // non-finite prediction): fall back to cost-only selection —
            // the cheapest branch that fits the constraint, or the
            // cheapest overall when nothing fits.
            (0..n)
                .filter(|&b| mask[b])
                .min_by(|&i, &j| kernel_pred[i].total_cmp(&kernel_pred[j]))
        } else {
            argmax_where(a_final, mask)
        };
        let (branch_idx, feasible) = match chosen {
            Some(b) => (b, true),
            // Fallback: the cheapest branch.
            None => (argmin(kernel_pred), false),
        };

        // Everything below is pure observation: values already computed,
        // clock only read.
        let explain = if obs.enabled() {
            let switch_pred_ms = scratch.switch_ms[branch_idx];
            let amortized_ms = (s0 + extra + switch_pred_ms) / self.consts.gof_frames[branch_idx];
            let slack_ms = budget - kernel_pred[branch_idx] - self.known_overhead_ms - amortized_ms;
            Some(Box::new(DecisionExplain {
                slo_ms: self.slo_ms,
                budget_ms: budget,
                features: used
                    .iter()
                    .map(|&k| FeatureBen {
                        name: k.name(),
                        ben: self.consts.ben[k as usize],
                    })
                    .collect(),
                branch_acc: a_final.to_vec(),
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

        let predicted_kernel_ms = kernel_pred[branch_idx];
        self.scratch = scratch;
        Decision {
            branch_idx,
            features: used,
            scheduler_ms: sched_ms,
            predicted_kernel_ms,
            feasible,
            faults,
            cost_only,
            explain,
        }
    }

    /// True if a heavy feature can be recruited right now.
    fn available(&self, kind: FeatureKind) -> bool {
        if kind == FeatureKind::Light || !self.consts.trained[kind as usize] {
            return false;
        }
        if kind.from_detector() {
            self.trained.family == DetectorFamily::FasterRcnn && self.last_det_frame.is_some()
        } else {
            true
        }
    }

    /// The amortizable extract+predict cost of a feature set, summed in
    /// set order.
    fn set_cost_ms(&self, set: impl Iterator<Item = FeatureKind>) -> f64 {
        set.map(|k| self.consts.cost_ms[k as usize]).sum()
    }

    /// Policy-dependent heavy-feature selection (Eq. 4 for CostBenefit),
    /// appended to `selected`.
    ///
    /// CostBenefit's base objective is the best light prediction among
    /// the branches that fit at scheduler cost `s0`; their mask is left
    /// in `base_mask`, and the cost it was computed at is returned, so
    /// the solve can reuse it. Other policies return `None`.
    fn select_features(
        &self,
        a_light: &[f32],
        constraint: &Constraint<'_>,
        s0: f64,
        base_mask: &mut [bool],
        selected: &mut Vec<FeatureKind>,
    ) -> Option<f64> {
        match self.policy {
            Policy::MinCost => None,
            Policy::MaxContent(kind) | Policy::ForcedFeatureFree(kind) => {
                if self.available(kind) {
                    selected.push(kind);
                }
                None
            }
            Policy::CostBenefit => {
                // Base objective: best content-agnostic feasible accuracy.
                let base_ms = s0 + 0.0;
                constraint.mask_into(base_ms, base_mask);
                let base = a_light
                    .iter()
                    .zip(base_mask.iter())
                    .map(|(&a, &fits)| if fits { a } else { f32::NEG_INFINITY })
                    .fold(f32::NEG_INFINITY, f32::max);
                if !base.is_finite() {
                    // Nothing feasible even without features: stay light.
                    return Some(base_ms);
                }
                let mut memo = FitMemo::default();
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
                        let trial = || selected.iter().copied().chain([kind]);
                        let cost = self.set_cost_ms(trial());
                        if !memo.any_fits(constraint, s0 + cost) {
                            continue;
                        }
                        let bens = trial().map(|k| self.consts.ben[k as usize]);
                        let value = base + BenTable::set_benefit(bens);
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
                Some(base_ms)
            }
        }
    }
}

/// One decision's constraint (Eq. 3) over the catalog: branch `b` fits at
/// scheduler cost `sched_ms` (the fixed cost plus the heavy features')
/// when its kernel latency plus the known overhead, plus the scheduler
/// and switching costs amortized over its GoF, stays within the budget.
struct Constraint<'a> {
    /// Kernel latency plus the known per-frame overhead, per branch.
    kpo: &'a [f64],
    /// Switching cost, per branch.
    switch_ms: &'a [f64],
    /// GoF length, per branch.
    gof_frames: &'a [f64],
    /// The headroom-adjusted SLO.
    budget: f64,
}

impl Constraint<'_> {
    /// Whether one branch fits: `kpo + (sched_ms + switch_ms) / gof_frames
    /// <= budget`, in that association.
    fn fits(&self, kpo: f64, sched_ms: f64, switch_ms: f64, gof_frames: f64) -> bool {
        kpo + (sched_ms + switch_ms) / gof_frames <= self.budget
    }

    /// Writes whether each branch fits at `sched_ms` into `mask`.
    fn mask_into(&self, sched_ms: f64, mask: &mut [bool]) {
        let branches = self.kpo.iter().zip(self.switch_ms).zip(self.gof_frames);
        for (m, ((&kpo, &sw), &g)) in mask.iter_mut().zip(branches) {
            *m = self.fits(kpo, sched_ms, sw, g);
        }
    }

    /// Whether any branch fits at `sched_ms`.
    fn any(&self, sched_ms: f64) -> bool {
        let mut branches = self.kpo.iter().zip(self.switch_ms).zip(self.gof_frames);
        branches.any(|((&kpo, &sw), &g)| self.fits(kpo, sched_ms, sw, g))
    }
}

/// [`Constraint::any`] memoised over one decision's feature selection.
///
/// Each step of a branch's check is monotone non-decreasing in
/// `sched_ms` under round-to-nearest: an add, a divide by a positive
/// number, an add, then `<=` against a fixed budget. So a cost at or
/// below a cost known to fit somewhere fits there too, and a cost at or
/// above a cost that fits nowhere fits nowhere.
struct FitMemo {
    /// The largest cost known to fit some branch.
    fits_up_to: f64,
    /// The smallest cost known to fit no branch.
    fails_from: f64,
}

impl Default for FitMemo {
    fn default() -> Self {
        Self {
            fits_up_to: f64::NEG_INFINITY,
            fails_from: f64::INFINITY,
        }
    }
}

impl FitMemo {
    /// Whether any branch fits at `sched_ms`.
    fn any_fits(&mut self, constraint: &Constraint<'_>, sched_ms: f64) -> bool {
        if sched_ms <= self.fits_up_to {
            return true;
        }
        if sched_ms >= self.fails_from {
            return false;
        }
        let fits = constraint.any(sched_ms);
        if fits {
            self.fits_up_to = sched_ms;
        } else {
            self.fails_from = sched_ms;
        }
        fits
    }
}

/// The first index of the strictly highest value among those `mask`
/// admits, or `None` when it admits none. `values` holds finite values
/// only (a non-finite prediction sends a decision to the cost-only
/// path).
fn argmax_where(values: &[f32], mask: &[bool]) -> Option<usize> {
    let mut best = None;
    let mut best_value = f32::NEG_INFINITY;
    for (b, (&v, &admitted)) in values.iter().zip(mask).enumerate() {
        if admitted && v > best_value {
            best = Some(b);
            best_value = v;
        }
    }
    best
}

/// The extraction cost a decision charges for `kind`: the marginal one
/// for a detector byproduct, the standalone one otherwise.
fn extract_ms(kind: FeatureKind) -> f64 {
    let cost = kind.cost();
    if kind.from_detector() {
        cost.marginal_extract_ms
    } else {
        cost.extract_ms
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

    impl Scheduler {
        /// The proposal logits the next CPoP extraction reads.
        pub(crate) fn last_logits(&self) -> &[ProposalLogits] {
            &self.last_logits
        }
    }
    use crate::offline::{profile_videos, OfflineConfig};
    use crate::predictor::{AccuracyModel, AccuracyModelConfig, LatencyModel};
    use lr_device::DeviceKind;
    use lr_kernels::branch::small_catalog;
    use lr_obs::NullSink;
    use lr_video::VideoSpec;

    fn trained() -> Arc<TrainedScheduler> {
        trained_with(&[])
    }

    /// The `trained()` fixture, with tiny models for `extra` kinds too and
    /// a benefit of 0.05 for each of them.
    fn trained_with(extra: &[FeatureKind]) -> Arc<TrainedScheduler> {
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
        let mut bens = vec![(FeatureKind::HoC, 0.02), (FeatureKind::MobileNetV2, 0.015)];
        for (i, &kind) in extra.iter().enumerate() {
            let model = AccuracyModel::train(kind, &ds, &AccuracyModelConfig::tiny(), 4 + i as u64);
            accuracy.insert(kind, model);
            bens.push((kind, 0.05));
        }
        let latency = LatencyModel::train(&ds);
        let ben = crate::bentable::BenTable::uniform(&bens, &[33.3, 50.0, 100.0]);
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
            let mut costs = vec![f64::NAN; t.catalog.len()];
            s.switch_costs_into(&mut costs);
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

    /// `Decision`'s fields that the flat passes must reproduce, with the
    /// floats as bits.
    fn decision_bits(d: &Decision) -> (usize, Vec<FeatureKind>, u64, u64, bool, usize, bool) {
        (
            d.branch_idx,
            d.features.clone(),
            d.scheduler_ms.to_bits(),
            d.predicted_kernel_ms.to_bits(),
            d.feasible,
            d.faults,
            d.cost_only,
        )
    }

    /// The closure-based decision the flat passes replaced, kept as their
    /// oracle: every per-branch quantity recomputed from the public
    /// models on each use, the switching cost from the model's fields,
    /// and feasibility as one closure call per branch and cost.
    fn reference_decide(
        s: &Scheduler,
        video: &Video,
        frame_idx: usize,
        boxes: &[BBox],
        svc: &mut FeatureService,
        device: &mut DeviceSim,
    ) -> Decision {
        let t = &s.trained;
        let free_run = matches!(s.policy, Policy::ForcedFeatureFree(_));
        let budget = s.slo_ms * s.headroom;
        let n = t.catalog.len();
        let mut sched_ms = 0.0;
        let mut faults = 0usize;
        let mut predict_faulted = false;
        let light_cost = FeatureKind::Light.cost();
        if !free_run {
            sched_ms += device.charge(OpUnit::Cpu, light_cost.extract_ms);
            match device.run_op(OpUnit::Gpu, light_cost.predict_ms) {
                Ok(ms) => sched_ms += ms,
                Err(OpError::Transient { wasted_ms }) => {
                    sched_ms += wasted_ms;
                    faults += 1;
                    predict_faulted = true;
                }
            }
        }
        let light = svc.light(video, frame_idx, boxes);
        let a_light = t.accuracy[&FeatureKind::Light].predict(&light, None);
        let (gpu_corr, cpu_corr) = (s.gpu_correction(), s.cpu_correction());
        let kernel_pred: Vec<f64> = (0..n)
            .map(|b| t.latency.predict_kernel_ms(b, &light, gpu_corr, cpu_corr))
            .collect();
        let s0 = if free_run {
            0.0
        } else {
            light_cost.extract_ms + light_cost.predict_ms + SOLVER_MS
        };
        let m = &t.switching;
        let src_ms = s
            .current
            .map_or(FIRST_SWITCH_SRC_MS, |cur| t.det_inference_ms[cur]);
        let src_term_ms = m.src_light_bonus_ms * (-src_ms.max(0.0) / m.src_scale_ms).exp();
        let switch_ms: Vec<f64> = (0..n)
            .map(|dst| {
                if s.current == Some(dst) {
                    0.0
                } else {
                    m.base_ms + m.dst_coeff * t.det_inference_ms[dst].max(0.0) + src_term_ms
                }
            })
            .collect();
        let fits = |b: usize, extra_sched_ms: f64| -> bool {
            let amortized =
                (s0 + extra_sched_ms + switch_ms[b]) / t.catalog[b].gof_size.max(1) as f64;
            kernel_pred[b] + s.known_overhead_ms + amortized <= budget
        };
        let selected = reference_select_features(s, &a_light, &fits);
        let mut content_preds: Vec<Vec<f32>> = Vec::new();
        let mut used = Vec::new();
        for &kind in &selected {
            let cost = kind.cost();
            let value = if kind.from_detector() {
                let Some(frame) = s.last_det_frame else {
                    continue;
                };
                svc.extract_heavy(kind, video, frame, Some(&s.last_logits))
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
                let mut op_failed = false;
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
                if op_failed {
                    continue;
                }
            }
            if let Some(model) = t.accuracy.get(&kind) {
                content_preds.push(model.predict(&light, Some(&feature)));
                used.push(kind);
            }
        }
        if !free_run {
            sched_ms += device.charge(OpUnit::Cpu, SOLVER_MS);
        }
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
        let extra = if free_run {
            0.0
        } else {
            reference_set_cost_ms(&used)
        };
        let cost_only = predict_faulted || a_final.iter().any(|a| !a.is_finite());
        let (branch_idx, feasible) = if cost_only {
            match (0..n)
                .filter(|&b| fits(b, extra))
                .min_by(|&i, &j| kernel_pred[i].total_cmp(&kernel_pred[j]))
            {
                Some(b) => (b, true),
                None => (argmin(&kernel_pred), false),
            }
        } else {
            let mut best: Option<(usize, f32)> = None;
            for (b, &ab) in a_final.iter().enumerate().take(n) {
                if fits(b, extra) && best.is_none_or(|(_, bp)| ab > bp) {
                    best = Some((b, ab));
                }
            }
            match best {
                Some((b, _)) => (b, true),
                None => (argmin(&kernel_pred), false),
            }
        };
        Decision {
            branch_idx,
            features: used,
            scheduler_ms: sched_ms,
            predicted_kernel_ms: kernel_pred[branch_idx],
            feasible,
            faults,
            cost_only,
            explain: None,
        }
    }

    /// The feature-set cost as the reference sums it.
    fn reference_set_cost_ms(set: &[FeatureKind]) -> f64 {
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

    /// The reference's feature selection: availability from the model
    /// map, a fresh trial set and a `Ben` lookup per candidate, and one
    /// `fits` call per branch for every check.
    fn reference_select_features(
        s: &Scheduler,
        a_light: &[f32],
        fits: &dyn Fn(usize, f64) -> bool,
    ) -> Vec<FeatureKind> {
        let t = &s.trained;
        let n = t.catalog.len();
        let available = |kind: FeatureKind| {
            if !t.accuracy.contains_key(&kind) {
                return false;
            }
            if kind.from_detector() {
                t.family == DetectorFamily::FasterRcnn && s.last_det_frame.is_some()
            } else {
                true
            }
        };
        let set_benefit = |set: &[FeatureKind]| {
            if set.is_empty() {
                return 0.0;
            }
            let best = set
                .iter()
                .map(|&k| t.ben.single(k, s.slo_ms))
                .fold(f32::NEG_INFINITY, f32::max);
            best + 0.002 * (set.len() as f32 - 1.0)
        };
        match s.policy {
            Policy::MinCost => Vec::new(),
            Policy::MaxContent(kind) | Policy::ForcedFeatureFree(kind) => {
                if available(kind) {
                    vec![kind]
                } else {
                    Vec::new()
                }
            }
            Policy::CostBenefit => {
                let base = (0..n)
                    .filter(|&b| fits(b, 0.0))
                    .map(|b| a_light[b])
                    .fold(f32::NEG_INFINITY, f32::max);
                if !base.is_finite() {
                    return Vec::new();
                }
                let mut selected: Vec<FeatureKind> = Vec::new();
                let mut current_value = base;
                while selected.len() < s.max_heavy {
                    let mut best_candidate: Option<(FeatureKind, f32)> = None;
                    for kind in HEAVY_FEATURE_KINDS {
                        if selected.contains(&kind) || !available(kind) {
                            continue;
                        }
                        let mut trial = selected.clone();
                        trial.push(kind);
                        let cost = reference_set_cost_ms(&trial);
                        if !(0..n).any(|b| fits(b, cost)) {
                            continue;
                        }
                        let value = base + set_benefit(&trial);
                        if value > current_value + 0.015
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

    #[test]
    fn flat_passes_decide_as_the_closure_reference_bit_for_bit() {
        use rand::seq::SliceRandom;
        let t = trained_with(&[FeatureKind::CPoP, FeatureKind::ResNet50]);
        let v = test_video();
        let det_ms = &t.det_inference_ms;
        let n = det_ms.len();
        let lightest = argmin(det_ms);
        let heaviest = (0..n)
            .max_by(|&i, &j| det_ms[i].total_cmp(&det_ms[j]))
            .unwrap();
        let mut sample: Vec<usize> = (0..n).collect();
        sample.shuffle(&mut lr_nn::init::seeded_rng(34));
        sample.truncate(3);
        let currents: Vec<Option<usize>> = [None, Some(lightest), Some(heaviest)]
            .into_iter()
            .chain(sample.into_iter().map(Some))
            .collect();
        let mut policies = vec![Policy::MinCost, Policy::CostBenefit];
        for kind in lr_features::ALL_FEATURE_KINDS {
            policies.push(Policy::MaxContent(kind));
            policies.push(Policy::ForcedFeatureFree(kind));
        }
        let boxes = [
            BBox::new(100.0, 80.0, 60.0, 40.0),
            BBox::new(300.0, 200.0, 120.0, 90.0),
        ];
        let faulty = lr_device::FaultPlan::generate(lr_device::FaultConfig {
            transient_rate: 0.5,
            stall_rate: 0.0,
            ..lr_device::FaultConfig::moderate(34)
        });
        let (mut svc_new, mut svc_ref) = (FeatureService::new(), FeatureService::new());
        let mut decisions = 0usize;
        let mut seen = (0usize, 0usize, 0usize, 0usize);
        for policy in policies {
            for slo in [6.0, 15.0, 33.3, 50.0, 100.0, 200.0] {
                for headroom in [0.5, 0.88, 1.0] {
                    for overhead in [0.0, 12.0] {
                        let mut s =
                            Scheduler::new(t.clone(), policy, slo).with_known_overhead(overhead);
                        s.set_headroom(headroom);
                        for &current in &currents {
                            for faults in [false, true] {
                                let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 11);
                                if faults {
                                    dev.set_fault_plan(faulty.clone());
                                }
                                if let Some(b) = current {
                                    s.commit_branch(b);
                                }
                                s.reset_stream();
                                // Before any detection, then with byproducts
                                // and a contended GPU correction.
                                for (step, frame) in [(0, 0), (1, 8)] {
                                    if step == 1 {
                                        s.record_detection(0, &mut vec![[0.03; 31]; 4]);
                                        s.observe_contention(1.7);
                                    }
                                    let boxes = &boxes[..step * 2];
                                    let mut dev_ref = dev.clone();
                                    let want = reference_decide(
                                        &s,
                                        &v,
                                        frame,
                                        boxes,
                                        &mut svc_ref,
                                        &mut dev_ref,
                                    );
                                    let got = s.decide(
                                        &v,
                                        frame,
                                        boxes,
                                        &mut svc_new,
                                        &mut dev,
                                        &mut NullSink,
                                    );
                                    let what = format!(
                                        "{policy:?}, SLO {slo}, headroom {headroom}, overhead {overhead}, \
                                         current {current:?}, faults {faults}, step {step}"
                                    );
                                    assert_eq!(decision_bits(&got), decision_bits(&want), "{what}");
                                    assert_eq!(
                                        dev.now_ms().to_bits(),
                                        dev_ref.now_ms().to_bits(),
                                        "{what}"
                                    );
                                    decisions += 1;
                                    seen.0 += usize::from(!got.features.is_empty());
                                    seen.1 += usize::from(got.cost_only);
                                    seen.2 += usize::from(!got.feasible);
                                    seen.3 += usize::from(got.faults > 0);
                                }
                            }
                        }
                    }
                }
            }
        }
        // Every kind of outcome occurred: features used, cost-only
        // decisions, the infeasible fallback, and absorbed faults.
        assert!(decisions > 10_000, "{decisions} decisions");
        assert!(
            seen.0 > 0 && seen.1 > 0 && seen.2 > 0 && seen.3 > 0,
            "{seen:?}"
        );

        // Budgets exactly at one branch's constraint, where a change in
        // the association of the feasibility sum moves that branch across
        // the edge: the SLO is the branch's left-hand side at headroom 1.
        let light = svc_ref.light(&v, 0, &[]);
        let light_cost = FeatureKind::Light.cost();
        let hoc = FeatureKind::HoC.cost();
        let mut edges = 0usize;
        for policy in [
            Policy::MinCost,
            Policy::CostBenefit,
            Policy::MaxContent(FeatureKind::HoC),
            Policy::ForcedFeatureFree(FeatureKind::HoC),
        ] {
            let (s0, heavy) = match policy {
                Policy::ForcedFeatureFree(_) => (0.0, 0.0),
                _ => (
                    light_cost.extract_ms + light_cost.predict_ms + SOLVER_MS,
                    hoc.extract_ms + hoc.predict_ms,
                ),
            };
            for overhead in [0.0, 12.0] {
                for &current in &currents {
                    for extra in [0.0, heavy] {
                        for b in 0..n {
                            let mut s = Scheduler::new(t.clone(), policy, 50.0)
                                .with_known_overhead(overhead);
                            if let Some(cur) = current {
                                s.commit_branch(cur);
                            }
                            let kp = t.latency.predict_kernel_ms(b, &light, 1.0, 1.0);
                            let amortized = (s0 + extra + s.expected_switch_ms(b))
                                / t.catalog[b].gof_size.max(1) as f64;
                            let slo = kp + overhead + amortized;
                            let mut s = Scheduler::new(t.clone(), policy, slo)
                                .with_known_overhead(overhead);
                            s.set_headroom(1.0);
                            if let Some(cur) = current {
                                s.commit_branch(cur);
                            }
                            let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 13);
                            let mut dev_ref = dev.clone();
                            let want = reference_decide(&s, &v, 0, &[], &mut svc_ref, &mut dev_ref);
                            let got = s.decide(&v, 0, &[], &mut svc_new, &mut dev, &mut NullSink);
                            let what = format!(
                                "{policy:?} at the edge of branch {b}, overhead {overhead}, \
                                 current {current:?}, extra {extra}"
                            );
                            assert_eq!(decision_bits(&got), decision_bits(&want), "{what}");
                            edges += usize::from(got.branch_idx == b);
                        }
                    }
                }
            }
        }
        assert!(edges > 0, "no decision chose the branch at the edge");
    }

    #[test]
    fn a_second_decision_reuses_the_scratch_buffers() {
        let t = trained();
        let v = test_video();
        let mut svc = FeatureService::new();
        let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 12);
        // MaxContent(HoC) runs both the light and a content model, so
        // every buffer is written.
        let mut s = Scheduler::new(t, Policy::MaxContent(FeatureKind::HoC), 100.0);
        let pointers = |s: &Scheduler| {
            let b = &s.scratch;
            let mut mlp = [b.a_light.as_ptr(), b.x.as_ptr(), b.spare.as_ptr()];
            // The forward passes may swap the three model buffers.
            mlp.sort();
            let per_branch = [b.kernel_pred.as_ptr(), b.switch_ms.as_ptr(), b.kpo.as_ptr()];
            let rest = [
                b.heavy.as_ptr().addr(),
                b.mean.as_ptr().addr(),
                b.base_mask.as_ptr().addr(),
                b.final_mask.as_ptr().addr(),
                b.selected.as_ptr().addr(),
            ];
            (mlp, per_branch, rest)
        };
        let first = s.decide(&v, 0, &[], &mut svc, &mut dev, &mut NullSink);
        assert_eq!(first.features, vec![FeatureKind::HoC]);
        let before = pointers(&s);
        let second = s.decide(&v, 8, &[], &mut svc, &mut dev, &mut NullSink);
        assert_eq!(second.features, vec![FeatureKind::HoC]);
        assert_eq!(pointers(&s), before);
    }

    /// Records the kind of every span opened, and the open depth.
    #[derive(Default)]
    struct SpanKinds {
        opened: Vec<SpanKind>,
        depth: usize,
    }

    impl ObsSink for SpanKinds {
        fn span_begin(&mut self, kind: SpanKind, _label: &'static str, _t_ms: f64) {
            self.opened.push(kind);
            self.depth += 1;
        }

        fn span_end(&mut self, _t_ms: f64) {
            self.depth -= 1;
        }
    }

    #[test]
    fn heavy_feature_spans_open_only_for_charged_features_and_always_close() {
        let t = trained_with(&[FeatureKind::CPoP]);
        let v = test_video();
        let mut svc = FeatureService::new();
        let mut heavy_spans = |policy, detected: bool, transient_rate: f64| {
            let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 14);
            dev.set_fault_plan(lr_device::FaultPlan::generate(lr_device::FaultConfig {
                transient_rate,
                stall_rate: 0.0,
                ..lr_device::FaultConfig::moderate(14)
            }));
            let mut s = Scheduler::new(t.clone(), policy, 100.0);
            if detected {
                s.record_detection(0, &mut vec![[0.03; 31]; 4]);
            }
            let mut sink = SpanKinds::default();
            let d = s.decide(&v, 0, &[], &mut svc, &mut dev, &mut sink);
            assert_eq!(sink.depth, 0, "{policy:?}: a span left open");
            let spans = sink.opened.iter().filter(|&&k| k == SpanKind::HeavyFeature);
            (spans.count(), d.features.len())
        };
        for rate in [0.0, 1.0] {
            // One span per charged feature, used or lost to a fault.
            assert_eq!(
                heavy_spans(Policy::MaxContent(FeatureKind::HoC), false, rate).0,
                1
            );
            assert_eq!(
                heavy_spans(Policy::MaxContent(FeatureKind::CPoP), true, rate).0,
                1
            );
            // No detection to take CPoP from, a light "feature", and the
            // charge-free ablation open none.
            assert_eq!(
                heavy_spans(Policy::MaxContent(FeatureKind::CPoP), false, rate),
                (0, 0)
            );
            assert_eq!(
                heavy_spans(Policy::MaxContent(FeatureKind::Light), false, rate),
                (0, 0)
            );
            let free = Policy::ForcedFeatureFree(FeatureKind::HoC);
            assert_eq!(heavy_spans(free, false, rate), (0, 1));
        }
    }

    #[test]
    fn the_kind_index_follows_all_feature_kinds() {
        for (i, kind) in lr_features::ALL_FEATURE_KINDS.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind:?}");
        }
    }
}
