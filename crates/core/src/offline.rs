//! Offline profiling: the data the scheduler is trained on.
//!
//! Following §4 of the paper, the scheduler-training split is processed
//! into per-snippet records: the content features of the snippet's first
//! frame (the only frame the online scheduler will have seen when it must
//! decide), the snippet-specific mAP of *every* catalog branch (the labels
//! for the content-aware accuracy model), and per-branch latency
//! observations (the data for the latency regressions).

use std::collections::BTreeMap;

use lr_device::{DeviceKind, DeviceSim};
use lr_eval::{GtBox, MapAccumulator, PredBox};
use lr_features::FeatureKind;
use lr_kernels::{Branch, Detection, DetectorFamily, Mbek};
use lr_obs::NullSink;
use lr_video::{FrameTruth, Video};

use crate::featsvc::FeatureService;

/// Configuration of an offline profiling pass.
#[derive(Debug, Clone)]
pub struct OfflineConfig {
    /// Snippet length N (the paper uses 100).
    pub snippet_len: usize,
    /// The branch catalog to label.
    pub catalog: Vec<Branch>,
    /// Detector family of the MBEK being profiled.
    pub family: DetectorFamily,
    /// Detector config used once per snippet to collect the
    /// detector-byproduct features (CPoP logits, boxes for light
    /// features). The heaviest config is used so features are maximally
    /// informative, as in the paper's offline phase.
    pub reference_detector: lr_kernels::DetectorConfig,
    /// RNG seed for the profiling device.
    pub seed: u64,
}

impl OfflineConfig {
    /// The paper's configuration over a given catalog.
    pub fn paper(catalog: Vec<Branch>, family: DetectorFamily) -> Self {
        Self {
            snippet_len: 100,
            catalog,
            family,
            reference_detector: lr_kernels::DetectorConfig::new(576, 100),
            seed: 0x0F_F1_CE,
        }
    }
}

/// One profiled snippet.
#[derive(Debug, Clone)]
pub struct SnippetRecord {
    /// Source video id.
    pub video_id: u32,
    /// First frame of the snippet within the video.
    pub start_frame: usize,
    /// Snippet length in frames.
    pub len: usize,
    /// Light features of the first frame (from reference detections).
    pub light: Vec<f32>,
    /// Heavy content features of the first frame, per kind.
    pub heavy: BTreeMap<FeatureKind, Vec<f32>>,
    /// Snippet mAP per catalog branch (the accuracy labels).
    pub branch_map: Vec<f32>,
    /// Mean detector milliseconds per frame, per branch (idle TX2).
    pub branch_det_ms: Vec<f64>,
    /// Mean tracker milliseconds per frame, per branch (idle TX2).
    pub branch_trk_ms: Vec<f64>,
}

/// The full offline dataset for one detector family.
#[derive(Debug, Clone)]
pub struct OfflineDataset {
    /// The catalog the records are labeled against.
    pub catalog: Vec<Branch>,
    /// Per-snippet records.
    pub records: Vec<SnippetRecord>,
}

impl OfflineDataset {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no records were profiled.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The best achievable mAP per record given a per-frame kernel budget
    /// (an oracle used by `Ben(·)` computation and tests).
    pub fn oracle_map_under_budget(&self, record: &SnippetRecord, budget_ms: f64) -> f32 {
        record
            .branch_map
            .iter()
            .zip(record.branch_det_ms.iter().zip(record.branch_trk_ms.iter()))
            .filter(|(_, (&d, &t))| d + t <= budget_ms)
            .map(|(&m, _)| m)
            .fold(0.0, f32::max)
    }
}

/// Converts ground truth to evaluation boxes.
pub fn to_gt_boxes(truth: &FrameTruth) -> Vec<GtBox> {
    truth
        .objects
        .iter()
        .map(|o| GtBox {
            class: o.class.index(),
            bbox: o.bbox,
        })
        .collect()
}

/// Converts detections to evaluation boxes.
pub fn to_pred_boxes(dets: &[Detection]) -> Vec<PredBox> {
    dets.iter()
        .map(|d| PredBox {
            class: d.class.index(),
            bbox: d.bbox,
            score: d.score,
        })
        .collect()
}

/// Profiles a set of videos into an offline dataset.
///
/// Profiling always runs on an idle (0% contention) TX2 — that is the
/// calibration reference; the online latency model adapts to other devices
/// and contention levels through its multiplicative corrections.
pub fn profile_videos(
    videos: &[Video],
    cfg: &OfflineConfig,
    svc: &mut FeatureService,
) -> OfflineDataset {
    assert!(cfg.snippet_len > 0, "snippet length must be positive");
    assert!(!cfg.catalog.is_empty(), "empty catalog");
    let mut device = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, cfg.seed);
    let reference = lr_kernels::DetectorSim::new(cfg.family);

    let mut records = Vec::new();
    for video in videos {
        for snippet in video.snippets(cfg.snippet_len) {
            let start = snippet[0].frame_index as usize;

            // Reference detection on the first frame: the source of light
            // features (detected boxes) and CPoP logits.
            let ref_out = reference.detect(&snippet[0], cfg.reference_detector, device.rng());
            let boxes: Vec<_> = ref_out.detections.iter().map(|d| d.bbox).collect();
            let light = svc.light(video, start, &boxes);
            let mut heavy = BTreeMap::new();
            for kind in lr_features::HEAVY_FEATURE_KINDS {
                if let Some(f) =
                    svc.extract_heavy(kind, video, start, Some(&ref_out.proposal_logits))
                {
                    heavy.insert(kind, f);
                }
            }

            // Label every branch on this snippet.
            let mut branch_map = Vec::with_capacity(cfg.catalog.len());
            let mut branch_det_ms = Vec::with_capacity(cfg.catalog.len());
            let mut branch_trk_ms = Vec::with_capacity(cfg.catalog.len());
            for &branch in &cfg.catalog {
                let (map, det_ms, trk_ms) =
                    run_branch_on_snippet(cfg.family, branch, snippet, &mut device);
                branch_map.push(map);
                branch_det_ms.push(det_ms);
                branch_trk_ms.push(trk_ms);
            }

            records.push(SnippetRecord {
                video_id: video.spec.id,
                start_frame: start,
                len: snippet.len(),
                light,
                heavy,
                branch_map,
                branch_det_ms,
                branch_trk_ms,
            });
        }
    }
    OfflineDataset {
        catalog: cfg.catalog.clone(),
        records,
    }
}

/// Runs one branch over a snippet; returns (snippet mAP, mean detector
/// ms/frame, mean tracker ms/frame).
///
/// # Panics
///
/// Panics if a detection op fails, which `device` (fault-free by
/// construction in [`profile_videos`]) never does.
fn run_branch_on_snippet(
    family: DetectorFamily,
    branch: Branch,
    snippet: &[FrameTruth],
    device: &mut DeviceSim,
) -> (f32, f64, f64) {
    let mut mbek = Mbek::new(family, branch);
    let mut acc = MapAccumulator::new();
    let mut det_ms = 0.0;
    let mut trk_ms = 0.0;
    let gof = branch.gof_size.max(1) as usize;
    let mut t = 0;
    while t < snippet.len() {
        let end = (t + gof).min(snippet.len());
        let result = match mbek.run_gof(&snippet[t..end], device, None, &mut NullSink) {
            Ok(result) => result,
            Err(e) => panic!("{e}"),
        };
        det_ms += result.detector_ms;
        trk_ms += result.tracker_ms;
        for (truth, dets) in snippet[t..end].iter().zip(result.per_frame.iter()) {
            acc.add_frame(&to_gt_boxes(truth), &to_pred_boxes(dets));
        }
        t = end;
    }
    let frames = snippet.len() as f64;
    (
        acc.finalize(0.5).map as f32,
        det_ms / frames,
        trk_ms / frames,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_kernels::branch::small_catalog;
    use lr_video::VideoSpec;

    fn tiny_dataset() -> OfflineDataset {
        let videos: Vec<Video> = (0..2)
            .map(|i| {
                Video::generate(VideoSpec {
                    id: i,
                    seed: 200 + i as u64,
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
            reference_detector: lr_kernels::DetectorConfig::new(576, 100),
            seed: 7,
        };
        let mut svc = FeatureService::new();
        profile_videos(&videos, &cfg, &mut svc)
    }

    #[test]
    fn profiling_produces_complete_records() {
        let ds = tiny_dataset();
        assert_eq!(ds.records.len(), 4, "2 videos x 2 snippets");
        for r in &ds.records {
            assert_eq!(r.branch_map.len(), ds.catalog.len());
            assert_eq!(r.branch_det_ms.len(), ds.catalog.len());
            assert_eq!(r.light.len(), 4);
            assert_eq!(r.heavy.len(), 5, "all heavy features present");
            assert!(r.branch_map.iter().all(|&m| (0.0..=1.0).contains(&m)));
            assert!(r.branch_det_ms.iter().all(|&m| m > 0.0));
        }
    }

    #[test]
    fn heavier_branches_cost_more_detector_time() {
        let ds = tiny_dataset();
        // Find a light and a heavy detector-only branch.
        let light_idx = ds
            .catalog
            .iter()
            .position(|b| b.tracker.is_none() && b.detector.shape == 224)
            .unwrap();
        let heavy_idx = ds
            .catalog
            .iter()
            .position(|b| b.tracker.is_none() && b.detector.shape == 448)
            .unwrap();
        for r in &ds.records {
            assert!(r.branch_det_ms[heavy_idx] > r.branch_det_ms[light_idx]);
        }
    }

    #[test]
    fn tracked_branches_have_lower_per_frame_detector_cost() {
        let ds = tiny_dataset();
        let dense = ds
            .catalog
            .iter()
            .position(|b| b.tracker.is_none() && b.detector.shape == 448)
            .unwrap();
        let tracked = ds
            .catalog
            .iter()
            .position(|b| b.tracker.is_some() && b.detector.shape == 448 && b.gof_size == 20)
            .unwrap();
        for r in &ds.records {
            assert!(r.branch_det_ms[tracked] < r.branch_det_ms[dense] / 5.0);
        }
    }

    #[test]
    fn oracle_improves_with_budget() {
        let ds = tiny_dataset();
        for r in &ds.records {
            let tight = ds.oracle_map_under_budget(r, 10.0);
            let loose = ds.oracle_map_under_budget(r, 300.0);
            assert!(loose >= tight);
        }
    }

    #[test]
    fn labels_are_not_degenerate() {
        // Some branch must achieve non-trivial accuracy on some snippet,
        // and branches must differ — otherwise the accuracy model has
        // nothing to learn.
        let ds = tiny_dataset();
        let any_good = ds
            .records
            .iter()
            .any(|r| r.branch_map.iter().any(|&m| m > 0.2));
        assert!(any_good, "all labels near zero — detection sim broken?");
        let spread = ds.records.iter().any(|r| {
            let max = r.branch_map.iter().cloned().fold(0.0f32, f32::max);
            let min = r.branch_map.iter().cloned().fold(1.0f32, f32::min);
            max - min > 0.05
        });
        assert!(spread, "branch labels are flat — no signal to learn");
    }
}
