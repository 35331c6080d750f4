//! Protocol specifications for every system in the paper's evaluation.
//!
//! Table 2 compares seven adaptive protocols; Table 3 adds the
//! accuracy-optimized baselines. Each adaptive protocol is a combination
//! of a detector family, a scheduling policy, and pipeline
//! characteristics (contention adaptivity, legacy overheads); static
//! protocols run a fixed detector on every frame, and heavy protocols run
//! the simulated SELSA/MEGA/REPP models.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use lr_device::{DeviceKind, DeviceSim, MemoryModel, OpUnit};
use lr_eval::{LatencyStats, MapAccumulator};
use lr_features::FeatureKind;
use lr_kernels::{
    detector_base_ms, AdaScaleMs, Detection, DetectorConfig, DetectorFamily, DetectorSim,
    HeavyModel,
};
use lr_video::{FrameTruth, Video};

use crate::offline::{gt_boxes, pred_boxes};
use crate::pipeline::{run_adaptive, Breakdown, RunConfig, RunResult};
use crate::scheduler::{Policy, TrainedScheduler};
use crate::FeatureService;

/// The adaptive protocols of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdaptiveProtocol {
    /// SSD-MobileNetV2 with ApproxDet-style knobs; latency-adaptive but
    /// not contention-adaptive.
    SsdPlus,
    /// YOLOv3 with the same knobs; latency-adaptive but not
    /// contention-adaptive.
    YoloPlus,
    /// The SOTA baseline: content-agnostic, contention-adaptive, but with
    /// a legacy pipeline whose fixed overhead dominates tight SLOs.
    ApproxDet,
    /// LiteReconfig, content-agnostic variant.
    LiteReconfigMinCost,
    /// LiteReconfig always using the ResNet50 content feature.
    LiteReconfigMaxContentResNet,
    /// LiteReconfig always using the MobileNetV2 content feature.
    LiteReconfigMaxContentMobileNet,
    /// The full system with cost-benefit analysis.
    LiteReconfig,
}

impl AdaptiveProtocol {
    /// All Table 2 protocols in presentation order.
    pub fn all() -> [AdaptiveProtocol; 7] {
        [
            AdaptiveProtocol::SsdPlus,
            AdaptiveProtocol::YoloPlus,
            AdaptiveProtocol::ApproxDet,
            AdaptiveProtocol::LiteReconfigMinCost,
            AdaptiveProtocol::LiteReconfigMaxContentResNet,
            AdaptiveProtocol::LiteReconfigMaxContentMobileNet,
            AdaptiveProtocol::LiteReconfig,
        ]
    }

    /// Display name as used in Table 2.
    pub fn name(self) -> &'static str {
        match self {
            AdaptiveProtocol::SsdPlus => "SSD+",
            AdaptiveProtocol::YoloPlus => "YOLO+",
            AdaptiveProtocol::ApproxDet => "ApproxDet",
            AdaptiveProtocol::LiteReconfigMinCost => "LiteReconfig-MinCost",
            AdaptiveProtocol::LiteReconfigMaxContentResNet => "LiteReconfig-MaxContent-ResNet",
            AdaptiveProtocol::LiteReconfigMaxContentMobileNet => {
                "LiteReconfig-MaxContent-MobileNet"
            }
            AdaptiveProtocol::LiteReconfig => "LiteReconfig",
        }
    }

    /// Which detector family the protocol's MBEK uses.
    pub fn family(self) -> DetectorFamily {
        match self {
            AdaptiveProtocol::SsdPlus => DetectorFamily::Ssd,
            AdaptiveProtocol::YoloPlus => DetectorFamily::Yolo,
            _ => DetectorFamily::FasterRcnn,
        }
    }

    /// The scheduling policy.
    pub(crate) fn policy(self) -> Policy {
        match self {
            AdaptiveProtocol::LiteReconfigMaxContentResNet => {
                Policy::MaxContent(FeatureKind::ResNet50)
            }
            AdaptiveProtocol::LiteReconfigMaxContentMobileNet => {
                Policy::MaxContent(FeatureKind::MobileNetV2)
            }
            AdaptiveProtocol::LiteReconfig => Policy::CostBenefit,
            _ => Policy::MinCost,
        }
    }

    /// Whether the protocol adapts its latency model to contention.
    pub(crate) fn contention_adaptive(self) -> bool {
        !matches!(self, AdaptiveProtocol::SsdPlus | AdaptiveProtocol::YoloPlus)
    }

    /// Fixed per-frame pipeline overhead, ms (ApproxDet's legacy stack,
    /// calibrated so its published SLO failures reproduce: it meets a
    /// 100 ms SLO on the TX2 but fails 33.3/50 ms there and every Xavier
    /// objective).
    pub(crate) fn fixed_overhead_ms(self) -> f64 {
        match self {
            AdaptiveProtocol::ApproxDet => 50.5,
            _ => 0.0,
        }
    }

    /// Kernel latency multiplier (implementation inefficiency).
    pub(crate) fn kernel_latency_factor(self) -> f64 {
        match self {
            AdaptiveProtocol::ApproxDet => 1.15,
            _ => 1.0,
        }
    }

    /// Builds the run configuration for a scenario.
    pub fn run_config(
        self,
        device: DeviceKind,
        contention_pct: f64,
        slo_ms: f64,
        seed: u64,
    ) -> RunConfig {
        RunConfig {
            device,
            contention_pct,
            slo_ms,
            seed,
            preheat: true,
            fixed_overhead_ms_per_frame: self.fixed_overhead_ms(),
            kernel_latency_factor: self.kernel_latency_factor(),
            contention_adaptive: self.contention_adaptive(),
        }
    }

    /// Runs the protocol over videos with a trained scheduler for its
    /// family.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        self,
        videos: &[Video],
        trained: Arc<TrainedScheduler>,
        device: DeviceKind,
        contention_pct: f64,
        slo_ms: f64,
        seed: u64,
        svc: &mut FeatureService,
    ) -> RunResult {
        assert_eq!(
            trained.family,
            self.family(),
            "trained scheduler family mismatch for {}",
            self.name()
        );
        let cfg = self.run_config(device, contention_pct, slo_ms, seed);
        run_adaptive(videos, trained, self.policy(), &cfg, svc)
    }
}

/// Runs a fixed detector configuration on every frame (EfficientDet,
/// AdaScale single-scale variants). Used by Table 3 and the AdaScale
/// comparison.
pub fn run_static_detector(
    family: DetectorFamily,
    cfg: DetectorConfig,
    videos: &[Video],
    device_kind: DeviceKind,
    contention_pct: f64,
    seed: u64,
) -> RunResult {
    let sim = DetectorSim::new(family);
    let base = detector_base_ms(family, cfg);
    let device = DeviceSim::new(device_kind, contention_pct, seed);
    let mut r = run_every_frame(videos, device, |_, truth, device| {
        let ms = device.charge(OpUnit::Gpu, base);
        (ms, sim.detect(truth, cfg, device.rng()).detections)
    });
    r.branches_used.insert(cfg.key());
    r
}

/// Runs AdaScale in its adaptive multi-scale (MS) mode: the input scale
/// of each frame is regressed from the previous frame's detections.
pub fn run_adascale_ms(videos: &[Video], device_kind: DeviceKind, seed: u64) -> RunResult {
    let mut ms = AdaScaleMs::new();
    let mut branches = BTreeSet::new();
    let device = DeviceSim::new(device_kind, 0.0, seed);
    let mut r = run_every_frame(videos, device, |t, truth, device| {
        if t == 0 {
            ms = AdaScaleMs::new();
        }
        let cfg = ms.config();
        branches.insert(cfg.key());
        let charged = device.charge(OpUnit::Gpu, detector_base_ms(DetectorFamily::AdaScale, cfg));
        (charged, ms.step(truth, device.rng()).detections)
    });
    r.branches_used = branches;
    r
}

/// Runs a heavyweight Table 3 model; returns `Err` with the OOM message
/// when the model does not fit the board.
pub fn run_heavy_model(
    model: HeavyModel,
    videos: &[Video],
    device_kind: DeviceKind,
    seed: u64,
) -> Result<RunResult, String> {
    let profile = device_kind.profile();
    let mut mem = MemoryModel::new(&profile);
    mem.try_load(model.name(), model.peak_memory_gb())
        .map_err(|e| e.to_string())?;

    let base = model.mean_latency_tx2_ms();
    let device = DeviceSim::new(device_kind, 0.0, seed);
    Ok(run_every_frame(videos, device, |_, truth, device| {
        let ms = device.charge(OpUnit::Gpu, base);
        (ms, model.detect(truth, device.rng()))
    }))
}

/// Runs one detection per frame over every frame of `videos`, in order.
/// `frame(t, truth, device)` charges frame `t`'s op to `device` and
/// returns the charged milliseconds and the detections; each frame is
/// scored and its milliseconds become its latency sample and detector
/// time. The result records no branches, decisions or switches.
fn run_every_frame(
    videos: &[Video],
    mut device: DeviceSim,
    mut frame: impl FnMut(usize, &FrameTruth, &mut DeviceSim) -> (f64, Vec<Detection>),
) -> RunResult {
    let mut acc = MapAccumulator::new();
    let mut latency = LatencyStats::new();
    let mut breakdown = Breakdown::default();
    for video in videos {
        for (t, truth) in video.frames.iter().enumerate() {
            let (ms, detections) = frame(t, truth, &mut device);
            acc.add_frame(gt_boxes(truth), pred_boxes(&detections));
            latency.record(ms);
            breakdown.detector_ms += ms;
            breakdown.frames += 1;
        }
    }
    RunResult {
        map: acc.finalize(0.5).map,
        latency,
        breakdown,
        branches_used: BTreeSet::new(),
        branch_decisions: BTreeMap::new(),
        switches: Vec::new(),
        decisions: 0,
        infeasible_decisions: 0,
        degrade_events: Vec::new(),
        faults: 0,
        degraded_gofs: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_video::VideoSpec;

    fn videos() -> Vec<Video> {
        vec![Video::generate(VideoSpec {
            id: 0,
            seed: 800,
            width: 640.0,
            height: 480.0,
            num_frames: 60,
        })]
    }

    #[test]
    fn protocol_metadata_is_consistent() {
        for p in AdaptiveProtocol::all() {
            let _ = p.name();
            assert!(p.kernel_latency_factor() >= 1.0);
            assert!(p.fixed_overhead_ms() >= 0.0);
        }
        assert!(!AdaptiveProtocol::SsdPlus.contention_adaptive());
        assert!(AdaptiveProtocol::LiteReconfig.contention_adaptive());
        assert_eq!(AdaptiveProtocol::LiteReconfig.policy(), Policy::CostBenefit);
    }

    #[test]
    fn efficientdet_d0_matches_table3_latency() {
        let r = run_static_detector(
            DetectorFamily::EfficientDetD0,
            DetectorConfig::new(512, 100),
            &videos(),
            DeviceKind::JetsonTx2,
            0.0,
            1,
        );
        assert!(
            (120.0..160.0).contains(&r.latency.mean()),
            "D0 latency {}",
            r.latency.mean()
        );
        assert!(r.map > 0.2);
    }

    #[test]
    fn heavy_model_ooms_on_tx2() {
        let err = run_heavy_model(
            HeavyModel::ReppOverFgfa,
            &videos(),
            DeviceKind::JetsonTx2,
            1,
        )
        .unwrap_err();
        assert!(err.contains("OOM"), "{err}");
    }

    #[test]
    fn selsa_runs_slow_but_accurate() {
        let r = run_heavy_model(
            HeavyModel::SelsaResNet50,
            &videos(),
            DeviceKind::JetsonTx2,
            2,
        )
        .unwrap();
        assert!(r.latency.mean() > 1500.0);
        assert!(r.map > 0.5, "SELSA mAP {}", r.map);
    }
}
