//! The online streaming loop: scheduler + MBEK + device + evaluation.
//!
//! The loop is factored as a steppable [`StreamPipeline`]: one pipeline
//! owns one stream's scheduler, kernel, and accounting state, and
//! advances one GoF per [`StreamPipeline::step_gof_obs`] call. The
//! single-stream entry point [`run_adaptive`] drives one pipeline to
//! completion on a private device; a serving layer (the `lr-serve`
//! crate) interleaves many pipelines on a shared device, stepping each
//! GoF-by-GoF in virtual time.

use std::collections::BTreeSet;
use std::sync::Arc;

use lr_device::{DeviceKind, DeviceSim, OnlineSwitchSampler, OpError, OpUnit};
use lr_eval::{LatencyStats, MapAccumulator};
use lr_obs::{DecisionRecord, NullSink, ObsSink, SpanKind};
use lr_video::{BBox, Video};

use crate::featsvc::FeatureService;
use crate::offline::{gt_boxes, pred_boxes};
use crate::scheduler::{argmin, Policy, Scheduler, TrainedScheduler};

/// Configuration of one online run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Board to simulate.
    pub device: DeviceKind,
    /// GPU contention percentage (the paper evaluates 0 and 50).
    pub contention_pct: f64,
    /// Latency SLO in milliseconds (P95 target).
    pub slo_ms: f64,
    /// Run seed.
    pub seed: u64,
    /// Preheat all branches before the run (the paper preloads and
    /// preheats every branch; disable to expose the cold-miss switching
    /// outliers of Figure 5(b)).
    pub preheat: bool,
    /// Fixed per-frame pipeline overhead charged as-is (ApproxDet's
    /// legacy Python/TF pipeline; 0 for everything else). The
    /// scheduler's latency model is told about it.
    pub fixed_overhead_ms_per_frame: f64,
    /// Kernel latency multiplier (implementation inefficiency).
    pub kernel_latency_factor: f64,
    /// Whether the scheduler adapts its latency model online (contention
    /// awareness). SSD+/YOLO+ are not contention-adaptive.
    pub contention_adaptive: bool,
}

impl RunConfig {
    /// A clean LiteReconfig run.
    pub fn clean(device: DeviceKind, contention_pct: f64, slo_ms: f64, seed: u64) -> Self {
        Self {
            device,
            contention_pct,
            slo_ms,
            seed,
            preheat: true,
            fixed_overhead_ms_per_frame: 0.0,
            kernel_latency_factor: 1.0,
            contention_adaptive: true,
        }
    }
}

/// Which rung of the graceful-degradation ladder fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeKind {
    /// A transient detector fault triggered the bounded retry on the
    /// cheapest branch.
    CheaperRetry,
    /// Detection was abandoned for the GoF: tracker-only on the last
    /// known detections (or coasting on a detector-only branch).
    TrackerOnlyGof,
    /// The scheduler's accuracy predictions were unusable and the branch
    /// was chosen on cost alone.
    CostOnlyDecision,
}

impl DegradeKind {
    /// Stable snake_case name (metrics counter and trace tag).
    pub(crate) fn name(self) -> &'static str {
        match self {
            DegradeKind::CheaperRetry => "cheaper_retry",
            DegradeKind::TrackerOnlyGof => "tracker_only_gof",
            DegradeKind::CostOnlyDecision => "cost_only_decision",
        }
    }
}

/// One recorded degradation event.
#[derive(Debug, Clone, Copy)]
pub struct DegradeEvent {
    /// Video within the playlist.
    pub video_idx: usize,
    /// First frame of the affected GoF.
    pub frame: usize,
    /// Which rung fired.
    pub kind: DegradeKind,
    /// Virtual milliseconds burned by failed ops leading to this event.
    pub wasted_ms: f64,
}

/// Where the virtual time of a run went.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    /// Detector (GPU) milliseconds.
    pub detector_ms: f64,
    /// Tracker (CPU) milliseconds.
    pub tracker_ms: f64,
    /// Scheduler modeling milliseconds (features, models, solver).
    pub scheduler_ms: f64,
    /// Branch-switching milliseconds.
    pub switch_ms: f64,
    /// Fixed pipeline overhead milliseconds.
    pub overhead_ms: f64,
    /// Frames processed.
    pub frames: usize,
}

impl Breakdown {
    /// Total milliseconds across components.
    pub fn total_ms(&self) -> f64 {
        self.detector_ms + self.tracker_ms + self.scheduler_ms + self.switch_ms + self.overhead_ms
    }

    /// Mean per-frame cost of a component, as a fraction of the SLO
    /// (Figure 3's y-axis). Returns 0 when no frames were processed or
    /// the SLO is non-positive/non-finite (a fraction of a meaningless
    /// budget is itself meaningless).
    pub fn fraction_of_slo(&self, component_ms: f64, slo_ms: f64) -> f64 {
        if self.frames == 0 || slo_ms <= 0.0 || !slo_ms.is_finite() {
            return 0.0;
        }
        component_ms / self.frames as f64 / slo_ms
    }
}

/// One recorded branch switch.
#[derive(Debug, Clone, Copy)]
pub struct SwitchEvent {
    /// Source branch key (0 when switching from the unconfigured state).
    pub src_key: u64,
    /// Destination branch key.
    pub dst_key: u64,
    /// Sampled switching cost in ms (before device scaling).
    pub cost_ms: f64,
}

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// mAP over all frames of all videos (0..1).
    pub map: f64,
    /// Per-frame latency samples (GoF-amortized, as the paper reports).
    pub latency: LatencyStats,
    /// Component breakdown.
    pub breakdown: Breakdown,
    /// Distinct branch keys executed (Figure 4's branch coverage).
    pub branches_used: BTreeSet<u64>,
    /// Decision counts per branch key.
    pub branch_decisions: std::collections::BTreeMap<u64, usize>,
    /// All branch switches with their sampled costs (Figure 5).
    pub switches: Vec<SwitchEvent>,
    /// Total scheduling decisions.
    pub decisions: usize,
    /// Decisions where no branch satisfied the constraint.
    pub infeasible_decisions: usize,
    /// Every degradation the fallback ladder recorded, in GoF order.
    pub degrade_events: Vec<DegradeEvent>,
    /// Transient device faults absorbed over the run (scheduler ops,
    /// detection frames, mid-GoF detections).
    pub faults: usize,
    /// GoFs that ran degraded (any ladder rung fired).
    pub degraded_gofs: usize,
}

impl RunResult {
    /// mAP in percent.
    pub fn map_pct(&self) -> f64 {
        self.map * 100.0
    }

    /// True if the 95th-percentile latency met the SLO. A non-positive
    /// or non-finite SLO is never met (there is no valid budget to meet),
    /// so this cannot silently report success on a degenerate config.
    pub fn meets_slo(&self, slo_ms: f64) -> bool {
        slo_ms.is_finite() && slo_ms > 0.0 && self.latency.p95() <= slo_ms
    }
}

/// What one [`StreamPipeline::step_gof_obs`] call processed.
#[derive(Debug, Clone, Copy)]
pub struct GofStep {
    /// Index of the video within the pipeline's playlist.
    pub video_idx: usize,
    /// First frame of the GoF.
    pub start_frame: usize,
    /// Frames processed (the tail GoF may be short).
    pub frames: usize,
    /// Total virtual milliseconds of the GoF (scheduler + switch +
    /// kernels + fixed overhead).
    pub gof_ms: f64,
    /// GoF-amortized per-frame latency in milliseconds.
    pub per_frame_ms: f64,
    /// GPU cycles demanded during this GoF, in milliseconds of device
    /// time excluding contention stretch (what a serving layer feeds its
    /// occupancy measurement).
    pub gpu_demand_ms: f64,
    /// Transient device faults absorbed during this GoF (scheduler +
    /// kernel ops).
    pub faults: usize,
    /// True when any fallback-ladder rung fired for this GoF.
    pub degraded: bool,
}

/// One stream's online pipeline, steppable one GoF at a time.
///
/// Owns the scheduler, the MBEK, and all per-stream accounting; borrows
/// the feature service and the device per step so that many pipelines
/// can interleave on one shared device.
#[derive(Debug)]
pub struct StreamPipeline {
    videos: Vec<Video>,
    trained: Arc<TrainedScheduler>,
    scheduler: Scheduler,
    mbek: lr_kernels::Mbek,
    /// The last GoF's results, whose buffers the next GoF reuses.
    gof: lr_kernels::GofResult,
    sampler: OnlineSwitchSampler,
    fixed_overhead_ms_per_frame: f64,

    // Position.
    video_idx: usize,
    t: usize,
    boxes: Vec<BBox>,
    /// Last known-good detector output: the seed of a tracker-only
    /// fallback GoF after a detection failure.
    last_detections: Vec<lr_kernels::Detection>,

    // Accounting.
    acc: MapAccumulator,
    latency: LatencyStats,
    breakdown: Breakdown,
    /// Per catalog index: whether the branch ran (a decision or a
    /// fallback switch chose it).
    branch_used: Vec<bool>,
    /// Per catalog index: how many decisions chose the branch.
    branch_decisions: Vec<usize>,
    switches: Vec<SwitchEvent>,
    decisions: usize,
    infeasible: usize,
    degrade_events: Vec<DegradeEvent>,
    faults: usize,
    degraded_gofs: usize,
}

impl StreamPipeline {
    /// Creates a pipeline over a playlist of videos.
    ///
    /// The kernel starts on `catalog[0]` as a placeholder: the scheduler
    /// has no current branch yet, so the first GoF always switches (and
    /// resets the kernel) to the branch it decides on.
    ///
    /// # Panics
    ///
    /// Panics if `videos` is empty or the fixed overhead is negative or
    /// not finite.
    pub fn new(
        videos: Vec<Video>,
        trained: Arc<TrainedScheduler>,
        policy: Policy,
        cfg: &RunConfig,
    ) -> Self {
        assert!(!videos.is_empty(), "a stream needs at least one video");
        let mbek = lr_kernels::Mbek::new(trained.family, trained.catalog[0])
            .with_latency_factor(cfg.kernel_latency_factor);
        let mut scheduler = Scheduler::new(trained.clone(), policy, cfg.slo_ms)
            .with_known_overhead(cfg.fixed_overhead_ms_per_frame);
        if !cfg.contention_adaptive {
            scheduler = scheduler.with_frozen_latency_model();
        }
        let mut sampler = OnlineSwitchSampler::new(trained.switching);
        if cfg.preheat {
            for b in &trained.catalog {
                sampler.preheat(b.key());
            }
        }
        let branches = trained.catalog.len();
        Self {
            videos,
            trained,
            scheduler,
            mbek,
            gof: lr_kernels::GofResult::default(),
            sampler,
            fixed_overhead_ms_per_frame: cfg.fixed_overhead_ms_per_frame,
            video_idx: 0,
            t: 0,
            boxes: Vec::new(),
            last_detections: Vec::new(),
            acc: MapAccumulator::new(0.5),
            latency: LatencyStats::new(),
            breakdown: Breakdown::default(),
            branch_used: vec![false; branches],
            branch_decisions: vec![0; branches],
            switches: Vec::new(),
            decisions: 0,
            infeasible: 0,
            degrade_events: Vec::new(),
            faults: 0,
            degraded_gofs: 0,
        }
    }

    /// True when every frame of every video has been processed.
    pub fn finished(&self) -> bool {
        self.video_idx >= self.videos.len()
    }

    /// The stream's latency SLO in milliseconds.
    pub fn slo_ms(&self) -> f64 {
        self.scheduler.slo_ms()
    }

    /// Frames processed so far.
    pub fn frames_done(&self) -> usize {
        self.breakdown.frames
    }

    /// Tightens the scheduler's feasibility headroom — the degraded
    /// operating mode a serving layer's admission controller imposes
    /// under overload (cheaper branches, longer GoFs).
    ///
    /// # Panics
    ///
    /// Panics if `headroom` is outside `[0.1, 1]`.
    pub fn set_headroom(&mut self, headroom: f64) {
        self.scheduler.set_headroom(headroom);
    }

    /// Feeds an externally measured GPU slowdown factor (≥ 1, relative
    /// to the uncontended device) into the scheduler's latency
    /// correction, so the very next decision predicts with the observed
    /// contention instead of waiting for the EWMA to catch up.
    pub fn observe_contention(&mut self, slowdown: f64) {
        self.scheduler.observe_contention(slowdown);
    }

    /// Runs one GoF: decision, optional branch switch, kernel execution,
    /// accounting, and feedback. Returns `None` when the stream is
    /// already finished.
    ///
    /// The observer receives one [`DecisionRecord`] per GoF (joining the
    /// scheduler's explain with the GoF's actual outcome) plus spans
    /// around the switch and the kernel phases. Observation only reads
    /// the virtual clock: callers that do not observe pass a
    /// [`NullSink`], which changes nothing.
    pub fn step_gof_obs(
        &mut self,
        svc: &mut FeatureService,
        device: &mut DeviceSim,
        obs: &mut impl ObsSink,
    ) -> Option<GofStep> {
        if self.finished() {
            return None;
        }
        let video_idx = self.video_idx;
        // Detach the playlist for the step so `frames` (borrowed from it)
        // can coexist with `&mut self` calls like the retry's branch
        // switch; restored before returning.
        let videos = std::mem::take(&mut self.videos);
        let video = &videos[video_idx];
        let t = self.t;
        let demand_before = device.gpu_demand_ms();

        // Scheduler decision (all costs charged inside).
        let before = device.now_ms();
        let mut decision = self
            .scheduler
            .decide(video, t, &self.boxes, svc, device, obs);
        let sched_ms = device.now_ms() - before;
        self.decisions += 1;
        if !decision.feasible {
            self.infeasible += 1;
        }
        // For the decision record: where we were before any switch, and
        // how many degrade events this step adds.
        let prev_branch_idx = self.scheduler.current_branch();
        let degrades_before = self.degrade_events.len();

        // Branch switch if needed.
        let mut switch_ms = 0.0;
        let need_switch = self.scheduler.current_branch() != Some(decision.branch_idx);
        if need_switch {
            switch_ms = self.switch_to(decision.branch_idx, device, obs);
        }
        self.branch_used[decision.branch_idx] = true;
        self.branch_decisions[decision.branch_idx] += 1;

        // Light features used for the latency observation must match
        // what the scheduler saw.
        let light = self.scheduler.light();

        // Execute the GoF, descending the fallback ladder on faults.
        let branch = self.trained.catalog[decision.branch_idx];
        let end = (t + branch.gof_size.max(1) as usize).min(video.len());
        let frames = &video.frames[t..end];
        let mut gof_faults = decision.faults;
        let mut wasted_ms = 0.0;
        let mut fallback_gof = false;
        let mut exec_branch_idx = decision.branch_idx;
        if decision.cost_only {
            self.degrade_events.push(DegradeEvent {
                video_idx,
                frame: t,
                kind: DegradeKind::CostOnlyDecision,
                wasted_ms: 0.0,
            });
        }
        // The GoF buffers are reused from step to step, and put back below.
        let mut result = std::mem::take(&mut self.gof);
        match self.mbek.run_gof(frames, device, obs, &mut result) {
            Ok(()) => {}
            Err(OpError::Transient { wasted_ms: w }) => {
                gof_faults += 1;
                wasted_ms += w;
                // Rung 1: one bounded retry on the cheapest branch — a
                // shorter detector op, less exposure to the fault episode
                // — unless we are already on it.
                let cheapest = argmin(&self.trained.det_inference_ms);
                let mut retried = false;
                if cheapest != exec_branch_idx {
                    switch_ms += self.switch_to(cheapest, device, obs);
                    exec_branch_idx = cheapest;
                    self.degrade_events.push(DegradeEvent {
                        video_idx,
                        frame: t,
                        kind: DegradeKind::CheaperRetry,
                        wasted_ms: w,
                    });
                    match self.mbek.run_gof(frames, device, obs, &mut result) {
                        Ok(()) => retried = true,
                        Err(OpError::Transient { wasted_ms: w2 }) => {
                            gof_faults += 1;
                            wasted_ms += w2;
                        }
                    }
                }
                if !retried {
                    // Rung 2: give up on detection for this GoF —
                    // tracker-only on the last known detections.
                    fallback_gof = true;
                    self.degrade_events.push(DegradeEvent {
                        video_idx,
                        frame: t,
                        kind: DegradeKind::TrackerOnlyGof,
                        wasted_ms,
                    });
                    let seed = &self.last_detections;
                    self.mbek
                        .run_gof_fallback(frames, device, seed, obs, &mut result);
                }
            }
        }
        gof_faults += result.absorbed_faults;

        // Fixed pipeline overhead per frame.
        let mut overhead_ms = 0.0;
        if self.fixed_overhead_ms_per_frame > 0.0 {
            for _ in frames {
                overhead_ms += device.charge_fixed(self.fixed_overhead_ms_per_frame);
            }
        }

        // Accounting: GoF-amortized per-frame latency samples. Wasted
        // milliseconds of failed detector ops are real device time and
        // count toward both the samples and the detector breakdown.
        let gof_total = sched_ms + switch_ms + result.kernel_ms() + wasted_ms + overhead_ms;
        let per_frame = gof_total / frames.len() as f64;
        for (truth, dets) in frames.iter().zip(result.per_frame()) {
            self.acc.add_frame(gt_boxes(truth), pred_boxes(dets));
            self.latency.record(per_frame);
        }
        self.breakdown.detector_ms += result.detector_ms + wasted_ms;
        self.breakdown.tracker_ms += result.tracker_ms;
        self.breakdown.scheduler_ms += sched_ms;
        self.breakdown.switch_ms += switch_ms;
        self.breakdown.overhead_ms += overhead_ms;
        self.breakdown.frames += frames.len();
        let degraded = gof_faults > 0 || decision.cost_only || fallback_gof;
        if degraded {
            self.degraded_gofs += 1;
        }
        self.faults += gof_faults;

        // Emit the decision record: the scheduler's reasoning joined with
        // what actually happened. Pure observation — values already
        // computed above, clock only read.
        if obs.enabled() {
            obs.decision(DecisionRecord {
                stream: 0,
                gof: 0, // stamped by the sink
                video_idx,
                start_frame: t,
                t_ms: before,
                explain: decision.explain.take().map(|b| *b).unwrap_or_default(),
                chosen_key: self.trained.catalog[exec_branch_idx].name(),
                prev_key: prev_branch_idx
                    .map(|i| self.trained.catalog[i].name())
                    .unwrap_or_default(),
                switched: exec_branch_idx != decision.branch_idx || need_switch,
                frames: frames.len(),
                sched_ms,
                switch_ms,
                kernel_ms: result.kernel_ms(),
                overhead_ms,
                wasted_ms,
                per_frame_ms: per_frame,
                slowdown: device.external_gpu_slowdown().unwrap_or(1.0),
                faults: u32::try_from(gof_faults).unwrap_or(u32::MAX),
                degraded,
                degrades: self.degrade_events[degrades_before..]
                    .iter()
                    .map(|e| e.kind.name())
                    .collect(),
            });
        }

        // Feed observations back to the scheduler.
        let n = frames.len() as f64;
        self.scheduler.observe_latency(
            exec_branch_idx,
            &light,
            result.detector_ms / n,
            result.tracker_ms / n,
        );
        if !fallback_gof {
            self.scheduler
                .record_detection(t, &mut result.first_frame_output.proposal_logits);
            // The light features of the next decision come from the most
            // recent *detector* output — matching the offline protocol,
            // where they were collected from reference detections (tracked
            // boxes under- and mis-count objects on weak branches, which
            // would skew the models' input distribution). A fallback GoF
            // produced no detector output, so the previous byproducts,
            // boxes, and fallback seed all stay.
            self.last_detections
                .clone_from(&result.first_frame_output.detections);
            self.boxes.clear();
            self.boxes
                .extend(self.last_detections.iter().map(|det| det.bbox));
        }

        self.gof = result;

        let frames_done = end - t;
        self.t = end;
        if self.t >= videos[video_idx].len() {
            // Video boundary: detector byproducts must not leak into the
            // next video. Branch and latency corrections persist.
            self.video_idx += 1;
            self.t = 0;
            self.boxes.clear();
            self.last_detections.clear();
            self.scheduler.reset_stream();
        }
        self.videos = videos;

        Some(GofStep {
            video_idx,
            start_frame: t,
            frames: frames_done,
            gof_ms: gof_total,
            per_frame_ms: per_frame,
            gpu_demand_ms: device.gpu_demand_ms() - demand_before,
            faults: gof_faults,
            degraded,
        })
    }

    /// Switches the MBEK and scheduler to catalog branch `dst`, charging
    /// the sampled switching cost to `device`. Returns the charged
    /// milliseconds.
    fn switch_to(&mut self, dst: usize, device: &mut DeviceSim, obs: &mut impl ObsSink) -> f64 {
        let src_idx = self.scheduler.current_branch();
        let src_ms = src_idx.map_or(80.0, |i| self.trained.det_inference_ms[i]);
        let src_key = src_idx.map_or(0, |i| self.trained.catalog[i].key());
        let dst_key = self.trained.catalog[dst].key();
        let cost = self.sampler.sample_ms(
            src_ms,
            self.trained.det_inference_ms[dst],
            dst_key,
            device.rng(),
        );
        // The switch occupies the GPU (model load + warmup).
        obs.span_begin(SpanKind::Switch, "", device.now_ms());
        let ms = device.charge_fixed_on(OpUnit::Gpu, cost * device.profile().gpu_speed_factor);
        obs.span_end(device.now_ms());
        self.switches.push(SwitchEvent {
            src_key,
            dst_key,
            cost_ms: cost,
        });
        self.mbek.set_branch(self.trained.catalog[dst]);
        self.scheduler.commit_branch(dst);
        self.branch_used[dst] = true;
        ms
    }

    /// Consumes the pipeline and produces the run result.
    pub fn into_result(mut self) -> RunResult {
        let catalog = &self.trained.catalog;
        let branches_used = (self.branch_used.iter().zip(catalog))
            .filter(|&(&used, _)| used)
            .map(|(_, b)| b.key())
            .collect();
        let branch_decisions = (self.branch_decisions.iter().zip(catalog))
            .filter(|&(&n, _)| n > 0)
            .map(|(&n, b)| (b.key(), n))
            .collect();
        RunResult {
            map: self.acc.finalize().map,
            latency: self.latency,
            breakdown: self.breakdown,
            branches_used,
            branch_decisions,
            switches: self.switches,
            decisions: self.decisions,
            infeasible_decisions: self.infeasible,
            degrade_events: self.degrade_events,
            faults: self.faults,
            degraded_gofs: self.degraded_gofs,
        }
    }
}

/// Runs an adaptive protocol (any LiteReconfig variant, ApproxDet, SSD+,
/// YOLO+) over a set of videos on a private, fault-free device. A faulted
/// run steps a [`StreamPipeline`] on a device carrying a fault plan
/// ([`DeviceSim::set_fault_plan`]).
pub fn run_adaptive(
    videos: &[Video],
    trained: Arc<TrainedScheduler>,
    policy: Policy,
    cfg: &RunConfig,
    svc: &mut FeatureService,
) -> RunResult {
    let mut device = DeviceSim::new(cfg.device, cfg.contention_pct, cfg.seed);
    let mut pipeline = StreamPipeline::new(videos.to_vec(), trained, policy, cfg);
    while pipeline
        .step_gof_obs(svc, &mut device, &mut NullSink)
        .is_some()
    {}
    pipeline.into_result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featsvc::FeatureService;
    use crate::offline::{profile_videos, OfflineConfig};
    use crate::trainer::{train_scheduler, TrainConfig};
    use lr_features::FeatureKind;
    use lr_kernels::branch::small_catalog;
    use lr_kernels::{DetectorFamily, ProposalLogits};
    use lr_video::VideoSpec;

    fn setup() -> (Arc<TrainedScheduler>, Vec<Video>, FeatureService) {
        setup_with(small_catalog(), &TrainConfig::tiny())
    }

    fn setup_with(
        catalog: Vec<lr_kernels::Branch>,
        train: &TrainConfig,
    ) -> (Arc<TrainedScheduler>, Vec<Video>, FeatureService) {
        let train_videos: Vec<Video> = (0..2)
            .map(|i| {
                Video::generate(VideoSpec {
                    id: i,
                    seed: 600 + i as u64,
                    width: 640.0,
                    height: 480.0,
                    num_frames: 80,
                })
            })
            .collect();
        let svc = FeatureService::new();
        let cfg = OfflineConfig {
            snippet_len: 40,
            catalog,
            family: DetectorFamily::FasterRcnn,
            seed: 11,
        };
        let ds = profile_videos(&train_videos, &cfg, &svc);
        let trained = Arc::new(train_scheduler(&ds, DetectorFamily::FasterRcnn, train));
        let val_videos: Vec<Video> = (0..2)
            .map(|i| {
                Video::generate(VideoSpec {
                    id: 100 + i,
                    seed: 700 + i as u64,
                    width: 640.0,
                    height: 480.0,
                    num_frames: 100,
                })
            })
            .collect();
        (trained, val_videos, svc)
    }

    #[test]
    fn run_covers_every_frame() {
        let (trained, videos, mut svc) = setup();
        let cfg = RunConfig::clean(DeviceKind::JetsonTx2, 0.0, 100.0, 1);
        let r = run_adaptive(&videos, trained, Policy::MinCost, &cfg, &mut svc);
        let total_frames: usize = videos.iter().map(Video::len).sum();
        assert_eq!(r.breakdown.frames, total_frames);
        assert_eq!(r.latency.count(), total_frames);
        assert!(r.map > 0.0, "mAP must be non-trivial, got {}", r.map);
        assert!(r.decisions > 0);
    }

    #[test]
    fn loose_slo_meets_latency_objective() {
        let (trained, videos, mut svc) = setup();
        let cfg = RunConfig::clean(DeviceKind::JetsonTx2, 0.0, 100.0, 2);
        let r = run_adaptive(&videos, trained, Policy::MinCost, &cfg, &mut svc);
        assert!(
            r.meets_slo(100.0),
            "P95 {} exceeds 100 ms SLO",
            r.latency.p95()
        );
    }

    #[test]
    fn contention_adaptive_run_survives_contention() {
        let (trained, videos, mut svc) = setup();
        let cfg = RunConfig::clean(DeviceKind::JetsonTx2, 50.0, 100.0, 3);
        let r = run_adaptive(&videos, trained, Policy::MinCost, &cfg, &mut svc);
        // With adaptation the P95 should stay within ~the SLO even under
        // 50% GPU contention (generous 1.2x tolerance for the short test).
        assert!(
            r.latency.p95() < 120.0,
            "P95 {} under contention",
            r.latency.p95()
        );
    }

    #[test]
    fn breakdown_accounts_for_all_time() {
        let (trained, videos, mut svc) = setup();
        let cfg = RunConfig::clean(DeviceKind::JetsonTx2, 0.0, 50.0, 4);
        let r = run_adaptive(&videos, trained, Policy::MinCost, &cfg, &mut svc);
        let sample_total: f64 = r.latency.mean() * r.latency.count() as f64;
        assert!(
            (sample_total - r.breakdown.total_ms()).abs() < 1.0,
            "samples {} vs breakdown {}",
            sample_total,
            r.breakdown.total_ms()
        );
    }

    #[test]
    fn fixed_overhead_inflates_latency() {
        let (trained, videos, mut svc) = setup();
        let mut cfg = RunConfig::clean(DeviceKind::JetsonTx2, 0.0, 100.0, 5);
        let clean = run_adaptive(&videos, trained.clone(), Policy::MinCost, &cfg, &mut svc);
        cfg.fixed_overhead_ms_per_frame = 48.0;
        let heavy = run_adaptive(&videos, trained, Policy::MinCost, &cfg, &mut svc);
        // The overhead must be charged in full...
        assert!(
            (heavy.breakdown.overhead_ms - 48.0 * heavy.breakdown.frames as f64).abs() < 1e-6,
            "overhead {} not fully charged",
            heavy.breakdown.overhead_ms
        );
        // ...and clearly inflate the mean. The margin is below the full
        // 48 ms because the two runs may differ in branch-switch churn.
        assert!(
            heavy.latency.mean() > clean.latency.mean() + 24.0,
            "heavy {} vs clean {}",
            heavy.latency.mean(),
            clean.latency.mean()
        );
    }

    #[test]
    fn branch_coverage_is_recorded() {
        let (trained, videos, mut svc) = setup();
        let cfg = RunConfig::clean(DeviceKind::JetsonTx2, 0.0, 50.0, 6);
        let r = run_adaptive(&videos, trained, Policy::MinCost, &cfg, &mut svc);
        assert!(!r.branches_used.is_empty());
        assert!(
            !r.switches.is_empty(),
            "the first configuration is a switch"
        );
    }

    #[test]
    fn one_branch_catalog_switches_once_from_the_placeholder() {
        // Every decision is catalog index 0, the kernel's placeholder
        // branch: the first GoF must still switch (the scheduler starts
        // with no current branch), and no later GoF may.
        let (trained, videos, mut svc) =
            setup_with(small_catalog()[..1].to_vec(), &TrainConfig::tiny());
        assert_eq!(trained.catalog.len(), 1);
        let cfg = RunConfig::clean(DeviceKind::JetsonTx2, 0.0, 100.0, 12);
        let r = run_adaptive(&videos, trained, Policy::MinCost, &cfg, &mut svc);
        assert_eq!(r.switches.len(), 1, "exactly the first configuration");
        assert_eq!(r.switches[0].src_key, 0, "switched from no branch");
        let total_frames: usize = videos.iter().map(Video::len).sum();
        assert_eq!(r.breakdown.frames, total_frames, "every frame covered");
        assert_eq!(r.latency.count(), total_frames);
    }

    #[test]
    fn stepping_matches_run_adaptive_totals() {
        let (trained, videos, mut svc) = setup();
        let cfg = RunConfig::clean(DeviceKind::JetsonTx2, 0.0, 100.0, 7);
        let mut device = DeviceSim::new(cfg.device, cfg.contention_pct, cfg.seed);
        let mut p = StreamPipeline::new(videos.clone(), trained, Policy::MinCost, &cfg);
        let mut steps = 0usize;
        let mut frames = 0usize;
        let mut gof_ms_total = 0.0;
        while let Some(step) = p.step_gof_obs(&mut svc, &mut device, &mut NullSink) {
            steps += 1;
            frames += step.frames;
            gof_ms_total += step.gof_ms;
            assert!(step.gof_ms > 0.0);
            assert!(step.gpu_demand_ms >= 0.0);
        }
        assert!(p.finished());
        assert!(p
            .step_gof_obs(&mut svc, &mut device, &mut NullSink)
            .is_none());
        let total_frames: usize = videos.iter().map(Video::len).sum();
        assert_eq!(frames, total_frames);
        let r = p.into_result();
        assert_eq!(r.decisions, steps);
        assert_eq!(r.breakdown.frames, total_frames);
        assert!((gof_ms_total - r.breakdown.total_ms()).abs() < 1e-6);
    }

    #[test]
    fn gof_steps_report_gpu_demand() {
        let (trained, videos, mut svc) = setup();
        let cfg = RunConfig::clean(DeviceKind::JetsonTx2, 0.0, 100.0, 8);
        let mut device = DeviceSim::new(cfg.device, cfg.contention_pct, cfg.seed);
        let mut p = StreamPipeline::new(videos, trained, Policy::MinCost, &cfg);
        let step = p
            .step_gof_obs(&mut svc, &mut device, &mut NullSink)
            .expect("first GoF");
        // Every GoF runs the detector at least once: GPU demand is real.
        assert!(step.gpu_demand_ms > 0.0);
        assert!((device.gpu_demand_ms() - step.gpu_demand_ms).abs() < 1e-9);
    }

    /// Steps a pipeline to completion on a device carrying the fault
    /// plan of `fault`.
    fn run_faulted(
        trained: Arc<TrainedScheduler>,
        videos: &[Video],
        cfg: &RunConfig,
        fault: lr_device::FaultConfig,
        svc: &mut FeatureService,
    ) -> RunResult {
        let mut device = DeviceSim::new(cfg.device, cfg.contention_pct, cfg.seed);
        device.set_fault_plan(lr_device::FaultPlan::generate(fault));
        let mut p = StreamPipeline::new(videos.to_vec(), trained, Policy::MinCost, cfg);
        while p.step_gof_obs(svc, &mut device, &mut NullSink).is_some() {}
        p.into_result()
    }

    #[test]
    fn faulted_run_completes_without_panic_and_records_degradation() {
        let (trained, videos, mut svc) = setup();
        let cfg = RunConfig::clean(DeviceKind::JetsonTx2, 0.0, 100.0, 9);
        let fault = lr_device::FaultConfig {
            transient_rate: 0.25,
            ..lr_device::FaultConfig::moderate(5)
        };
        let r = run_faulted(trained, &videos, &cfg, fault, &mut svc);
        let total_frames: usize = videos.iter().map(Video::len).sum();
        assert_eq!(r.breakdown.frames, total_frames, "every frame covered");
        assert!(r.faults > 0, "a 25% transient rate must produce faults");
        assert!(r.degraded_gofs > 0);
        assert!(!r.degrade_events.is_empty());
        assert!(r.map > 0.0, "degraded runs still produce detections");
    }

    #[test]
    fn faulted_run_is_deterministic() {
        let (trained, videos, mut svc) = setup();
        let cfg = RunConfig::clean(DeviceKind::JetsonTx2, 0.0, 100.0, 10);
        let fault = lr_device::FaultConfig::moderate(7);
        let a = run_faulted(trained.clone(), &videos, &cfg, fault, &mut svc);
        let b = run_faulted(trained, &videos, &cfg, fault, &mut svc);
        assert_eq!(a.map.to_bits(), b.map.to_bits());
        assert_eq!(a.latency.p95().to_bits(), b.latency.p95().to_bits());
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.degraded_gofs, b.degraded_gofs);
        assert_eq!(a.degrade_events.len(), b.degrade_events.len());
    }

    /// A tracker-only fallback GoF leaves the last detection's proposal
    /// logits with the scheduler, bit for bit, so the next
    /// `MaxContent(CPoP)` decision still builds CPoP from them.
    #[test]
    fn a_fallback_gof_keeps_the_last_detections_logits_for_cpop() {
        let train = TrainConfig {
            heavy_kinds: vec![FeatureKind::CPoP],
            ..TrainConfig::tiny()
        };
        let (trained, videos, mut svc) = setup_with(small_catalog(), &train);
        let cfg = RunConfig::clean(DeviceKind::JetsonTx2, 0.0, 100.0, 12);
        let mut device = DeviceSim::new(cfg.device, cfg.contention_pct, cfg.seed);
        device.set_fault_plan(lr_device::FaultPlan::generate(lr_device::FaultConfig {
            transient_rate: 0.5,
            ..lr_device::FaultConfig::moderate(3)
        }));
        let policy = Policy::MaxContent(FeatureKind::CPoP);
        let mut p = StreamPipeline::new(videos, trained, policy, &cfg);
        let mut obs = lr_obs::StreamObs::new(lr_obs::ObsMode::Trace);
        let bits = |l: &[ProposalLogits]| -> Vec<u32> {
            l.iter().flatten().map(|v| v.to_bits()).collect()
        };
        let fallbacks = |p: &StreamPipeline| {
            let tracker_only = |e: &&DegradeEvent| e.kind == DegradeKind::TrackerOnlyGof;
            p.degrade_events.iter().filter(tracker_only).count()
        };
        // The logits of the last detected GoF, as the scheduler held them
        // right after recording them.
        let mut detected: Vec<u32> = Vec::new();
        let mut after_fallback = false;
        let mut checked = 0;
        loop {
            let (before, video) = (fallbacks(&p), p.video_idx);
            let Some(step) = p.step_gof_obs(&mut svc, &mut device, &mut obs) else {
                break;
            };
            // The CPoP span opens around the vector's extraction, whether
            // or not its charges then fault.
            let recruited = obs.take().iter().any(|e| match e {
                lr_obs::TraceEvent::Span(s) => {
                    s.kind == SpanKind::HeavyFeature && s.label == "CPoP"
                }
                _ => false,
            });
            if after_fallback {
                assert!(
                    recruited,
                    "no CPoP after the fallback before frame {}",
                    step.start_frame
                );
                checked += 1;
            }
            if p.video_idx != video {
                // The end of a video resets the detector byproducts.
                detected.clear();
            }
            let held = bits(p.scheduler.last_logits());
            after_fallback = fallbacks(&p) > before;
            if after_fallback {
                assert_eq!(held, detected, "a fallback GoF changed the logits");
                after_fallback = !held.is_empty();
            } else {
                detected = held;
            }
        }
        assert!(checked > 0, "no fallback GoF was followed by a decision");
    }

    #[test]
    fn clean_run_reports_no_degradation() {
        let (trained, videos, mut svc) = setup();
        let cfg = RunConfig::clean(DeviceKind::JetsonTx2, 0.0, 100.0, 11);
        let r = run_adaptive(&videos, trained, Policy::MinCost, &cfg, &mut svc);
        assert_eq!(r.faults, 0);
        assert_eq!(r.degraded_gofs, 0);
        assert!(r.degrade_events.is_empty());
    }

    #[test]
    fn zero_slo_edge_cases_are_guarded() {
        let b = Breakdown {
            frames: 10,
            detector_ms: 100.0,
            ..Breakdown::default()
        };
        assert_eq!(b.fraction_of_slo(100.0, 0.0), 0.0);
        assert_eq!(b.fraction_of_slo(100.0, -5.0), 0.0);
        assert_eq!(b.fraction_of_slo(100.0, f64::NAN), 0.0);
        assert_eq!(b.fraction_of_slo(100.0, f64::INFINITY), 0.0);
        assert!(b.fraction_of_slo(100.0, 50.0) > 0.0);
        let empty = Breakdown::default();
        assert_eq!(empty.fraction_of_slo(100.0, 50.0), 0.0);

        let mut latency = LatencyStats::new();
        latency.record(10.0);
        let r = RunResult {
            map: 0.5,
            latency,
            breakdown: b,
            branches_used: BTreeSet::new(),
            branch_decisions: std::collections::BTreeMap::new(),
            switches: Vec::new(),
            decisions: 1,
            infeasible_decisions: 0,
            degrade_events: Vec::new(),
            faults: 0,
            degraded_gofs: 0,
        };
        assert!(!r.meets_slo(0.0), "a zero SLO can never be met");
        assert!(!r.meets_slo(-1.0));
        assert!(!r.meets_slo(f64::NAN));
        assert!(!r.meets_slo(f64::INFINITY), "an infinite SLO is degenerate");
        assert!(r.meets_slo(10.0));
        assert!(!r.meets_slo(9.9));
    }
}
