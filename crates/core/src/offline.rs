//! Offline profiling: the data the scheduler is trained on.
//!
//! Following §4 of the paper, the scheduler-training split is processed
//! into per-snippet records: the content features of the snippet's first
//! frame (the only frame the online scheduler will have seen when it must
//! decide), the snippet-specific mAP of *every* catalog branch (the labels
//! for the content-aware accuracy model), and per-branch latency
//! observations (the data for the latency regressions).
//!
//! [`profile_videos`] runs in two phases, ordered so that the offline
//! build's largest allocations never live at once:
//!
//! 1. **Head pass.** On the caller's thread, the ResNet50 and
//!    MobileNetV2 stand-ins (6.6 MiB of conv weights) embed every snippet
//!    head; the pass then drops its handle on the weights and only after
//!    that extracts HoC and HOG from each head.
//! 2. **Chain.** One device walks every snippet in order and runs every
//!    branch; the pool's other workers score the branches beside it. The
//!    chain extracts no raster feature and never touches the deep weights.
//!
//! Every feature is a pure function of its frame, so extracting them
//! outside the chain changes no value and leaves the chain's RNG order as
//! it was.

use std::collections::BTreeMap;
use std::sync::Arc;

use lr_device::{DeviceKind, DeviceSim};
use lr_eval::{GtBox, MapAccumulator, PredBox};
use lr_features::{cpop, hoc, hog, DeepExtractors, FeatureKind, LightFeatures};
use lr_kernels::{Branch, Detection, DetectorFamily, GofResult, Mbek};
use lr_obs::NullSink;
use lr_video::raster::rasterize;
use lr_video::{FrameTruth, Video};

use crate::featsvc::FeatureService;

/// Detector config used once per snippet to collect the
/// detector-byproduct features (CPoP logits, boxes for light features).
/// The heaviest config is used so features are maximally informative, as
/// in the paper's offline phase.
const REFERENCE_DETECTOR: lr_kernels::DetectorConfig = lr_kernels::DetectorConfig {
    shape: 576,
    nprop: 100,
};

/// Configuration of an offline profiling pass.
#[derive(Debug, Clone)]
pub struct OfflineConfig {
    /// Snippet length N (the paper uses 100).
    pub snippet_len: usize,
    /// The branch catalog to label.
    pub catalog: Vec<Branch>,
    /// Detector family of the MBEK being profiled.
    pub family: DetectorFamily,
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

/// A frame's ground truth as evaluation boxes.
pub(crate) fn gt_boxes(truth: &FrameTruth) -> impl Iterator<Item = GtBox> + '_ {
    truth.objects.iter().map(|o| GtBox {
        class: o.class.index(),
        bbox: o.bbox,
    })
}

/// Detections as evaluation boxes.
pub(crate) fn pred_boxes(dets: &[Detection]) -> impl Iterator<Item = PredBox> + '_ {
    dets.iter().map(|d| PredBox {
        class: d.class.index(),
        bbox: d.bbox,
        score: d.score,
    })
}

/// In-flight bound of the profiling pipeline. Every item is one branch's
/// predictions over a snippet, so the bound caps what the chain can run
/// ahead of scoring at 32 x 26 KB of predictions (the largest item has
/// 827), and a consumer that is descheduled for a moment does not stall
/// the chain.
const PIPELINE_BOUND: usize = 32;

/// One branch's predictions over a snippet, which the profiling chain
/// hands to a consumer to score.
#[derive(Debug, Default)]
struct Handoff {
    /// Index of the snippet's video in the profiled slice.
    video: usize,
    /// First frame of the snippet within the video.
    start: usize,
    /// Per frame of the snippet, the end of its predictions in `preds`.
    frame_ends: Vec<usize>,
    /// The branch's predictions, frame after frame.
    preds: Vec<PredBox>,
}

/// What the chain itself records per snippet.
struct ChainSide {
    video_id: u32,
    start_frame: usize,
    len: usize,
    light: Vec<f32>,
    cpop: Vec<f32>,
    branch_det_ms: Vec<f64>,
    branch_trk_ms: Vec<f64>,
}

/// The snippet mAP of the predictions in `item`, matched frame by frame
/// against the snippet's ground truth in a consumer's accumulator.
fn score(acc: &mut MapAccumulator, videos: &[Video], item: &Handoff) -> f32 {
    acc.clear();
    let truths = &videos[item.video].frames[item.start..][..item.frame_ends.len()];
    let mut begin = 0;
    for (truth, &end) in truths.iter().zip(&item.frame_ends) {
        acc.add_frame(gt_boxes(truth), item.preds[begin..end].iter().copied());
        begin = end;
    }
    acc.finalize().map as f32
}

/// Profiles a set of videos into an offline dataset.
///
/// Profiling always runs on an idle (0% contention) TX2 — that is the
/// calibration reference; the online latency model adapts to other devices
/// and contention levels through its multiplicative corrections.
///
/// First the head pass extracts every raster feature of every snippet
/// head on the caller's thread: the deep stand-ins' embeddings while it
/// holds their weights, then HoC and HOG once it has let go of them.
/// Then one device walks every snippet in order on the caller's thread:
/// its RNG drives the reference detection and every branch's jitter,
/// false positives and latency noise, so this chain is serial. It hands
/// each branch's predictions to the pool's other workers
/// ([`lr_pool::Pool::pipeline`]), which score each branch's mAP. Every
/// result is the same, bit for bit, for any `LR_POOL_THREADS`.
///
/// Features are extracted at `svc`'s raster size and cached nowhere:
/// each snippet head is extracted once, so a cache would save nothing,
/// and `svc`'s cache is left as it was. Profiling holds a handle on the
/// deep stand-ins' weights only during the head pass's deep step.
pub fn profile_videos(
    videos: &[Video],
    cfg: &OfflineConfig,
    svc: &FeatureService,
) -> OfflineDataset {
    assert!(cfg.snippet_len > 0, "snippet length must be positive");
    assert!(!cfg.catalog.is_empty(), "empty catalog");
    let heads = head_pass(
        DeepExtractors::shared(),
        videos,
        cfg.snippet_len,
        svc.raster_size(),
    );
    profile_chain(videos, cfg, heads)
}

/// The raster features of every snippet head, in profiling order, all
/// on the caller's thread. First both deep stand-ins embed every head;
/// then `deep` is dropped, so that when no one else holds the weights
/// they are freed before any HoC or HOG vector is allocated, and each
/// head is rendered again for HoC and HOG. Extracting all four kinds
/// from one render would keep about 1 MB of HoC and HOG vectors beside
/// the weights and raise the offline build's peak memory by as much
/// (DESIGN.md §8).
fn head_pass(
    deep: Arc<DeepExtractors>,
    videos: &[Video],
    snippet_len: usize,
    raster_size: usize,
) -> Vec<BTreeMap<FeatureKind, Vec<f32>>> {
    let heads: Vec<(&Video, usize)> = videos
        .iter()
        .flat_map(|video| {
            let starts = video.snippets(snippet_len).into_iter();
            starts.map(move |snippet| (video, snippet[0].frame_index as usize))
        })
        .collect();
    let render = |&(video, start): &(&Video, usize)| {
        rasterize(&video.frames[start], &video.style, raster_size)
    };
    let mut features: Vec<_> = heads
        .iter()
        .map(|head| {
            let raster = render(head);
            BTreeMap::from([
                (FeatureKind::ResNet50, deep.resnet50(&raster)),
                (FeatureKind::MobileNetV2, deep.mobilenetv2(&raster)),
            ])
        })
        .collect();
    drop(deep);
    for (heavy, head) in features.iter_mut().zip(&heads) {
        let raster = render(head);
        heavy.insert(FeatureKind::HoC, hoc::extract(&raster));
        heavy.insert(FeatureKind::Hog, hog::extract(&raster));
    }
    features
}

/// The chain of [`profile_videos`]: every branch of every snippet on one
/// device, scored beside it by the pool; `heads` holds each snippet's
/// raster features, in profiling order, and becomes the start of its
/// record's heavy features.
fn profile_chain(
    videos: &[Video],
    cfg: &OfflineConfig,
    heads: Vec<BTreeMap<FeatureKind, Vec<f32>>>,
) -> OfflineDataset {
    let mut device = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, cfg.seed);
    let reference = lr_kernels::DetectorSim::new(cfg.family);

    let mut chain: Vec<ChainSide> = Vec::new();
    let mut branch_map: Vec<f32> = Vec::new();
    lr_pool::Pool::from_env().pipeline(
        PIPELINE_BOUND,
        |feed| {
            let snippets = videos.iter().enumerate().flat_map(|(v, video)| {
                video
                    .snippets(cfg.snippet_len)
                    .into_iter()
                    .map(move |s| (v, video, s))
            });
            for (v, video, snippet) in snippets {
                let start = snippet[0].frame_index as usize;

                // Reference detection on the first frame: the source of
                // light features (detected boxes) and CPoP logits.
                let ref_out = reference.detect(&snippet[0], REFERENCE_DETECTOR, device.rng());
                let boxes: Vec<_> = ref_out.detections.iter().map(|d| d.bbox).collect();
                let head = &snippet[0];
                let mut side = ChainSide {
                    video_id: video.spec.id,
                    start_frame: start,
                    len: snippet.len(),
                    light: LightFeatures::from_boxes(head.width, head.height, &boxes)
                        .to_array()
                        .to_vec(),
                    cpop: cpop::cpop_vector(&ref_out.proposal_logits),
                    branch_det_ms: Vec::with_capacity(cfg.catalog.len()),
                    branch_trk_ms: Vec::with_capacity(cfg.catalog.len()),
                };
                for &branch in &cfg.catalog {
                    feed.push(|item: &mut Handoff| {
                        item.video = v;
                        item.start = start;
                        item.frame_ends.clear();
                        item.preds.clear();
                        let (det_ms, trk_ms) =
                            run_branch_on_snippet(cfg.family, branch, snippet, &mut device, item);
                        side.branch_det_ms.push(det_ms);
                        side.branch_trk_ms.push(trk_ms);
                    });
                }
                chain.push(side);
            }
        },
        || MapAccumulator::new(0.5),
        |acc, item: &Handoff| score(acc, videos, item),
        |map| branch_map.push(map),
    );

    let records = chain
        .into_iter()
        .zip(branch_map.chunks_exact(cfg.catalog.len()))
        .zip(heads)
        .map(|((side, branch_map), mut heavy)| {
            heavy.insert(FeatureKind::CPoP, side.cpop);
            SnippetRecord {
                video_id: side.video_id,
                start_frame: side.start_frame,
                len: side.len,
                light: side.light,
                heavy,
                branch_map: branch_map.to_vec(),
                branch_det_ms: side.branch_det_ms,
                branch_trk_ms: side.branch_trk_ms,
            }
        })
        .collect();
    OfflineDataset {
        catalog: cfg.catalog.clone(),
        records,
    }
}

/// Runs one branch over a snippet, writing its predictions into `item`.
/// Returns (mean detector ms/frame, mean tracker ms/frame).
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
    item: &mut Handoff,
) -> (f64, f64) {
    let mut mbek = Mbek::new(family, branch);
    let mut result = GofResult::default();
    let mut det_ms = 0.0;
    let mut trk_ms = 0.0;
    let gof = branch.gof_size.max(1) as usize;
    let mut t = 0;
    while t < snippet.len() {
        let end = (t + gof).min(snippet.len());
        if let Err(e) = mbek.run_gof(&snippet[t..end], device, &mut NullSink, &mut result) {
            panic!("{e}");
        }
        det_ms += result.detector_ms;
        trk_ms += result.tracker_ms;
        for dets in result.per_frame() {
            item.preds.extend(pred_boxes(dets));
            item.frame_ends.push(item.preds.len());
        }
        t = end;
    }
    let frames = snippet.len() as f64;
    (det_ms / frames, trk_ms / frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_kernels::branch::small_catalog;
    use lr_video::VideoSpec;

    fn tiny_videos() -> Vec<Video> {
        (0..2)
            .map(|i| {
                Video::generate(VideoSpec {
                    id: i,
                    seed: 200 + i as u64,
                    width: 640.0,
                    height: 480.0,
                    num_frames: 80,
                })
            })
            .collect()
    }

    fn tiny_config() -> OfflineConfig {
        OfflineConfig {
            snippet_len: 40,
            catalog: small_catalog(),
            family: DetectorFamily::FasterRcnn,
            seed: 7,
        }
    }

    fn tiny_dataset() -> OfflineDataset {
        profile_videos(&tiny_videos(), &tiny_config(), &FeatureService::new())
    }

    /// The serial profiling loop `profile_videos` replaced: the chain
    /// scores every branch and extracts every feature itself, in order.
    fn profile_videos_serially(
        videos: &[Video],
        cfg: &OfflineConfig,
        svc: &mut FeatureService,
    ) -> OfflineDataset {
        let mut device = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, cfg.seed);
        let reference = lr_kernels::DetectorSim::new(cfg.family);
        let mut records = Vec::new();
        for video in videos {
            for snippet in video.snippets(cfg.snippet_len) {
                let start = snippet[0].frame_index as usize;
                let ref_out = reference.detect(&snippet[0], REFERENCE_DETECTOR, device.rng());
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
                let mut acc = MapAccumulator::new(0.5);
                let (mut branch_map, mut branch_det_ms, mut branch_trk_ms) =
                    (Vec::new(), Vec::new(), Vec::new());
                for &branch in &cfg.catalog {
                    let mut mbek = Mbek::new(cfg.family, branch);
                    acc.clear();
                    let (mut det_ms, mut trk_ms) = (0.0, 0.0);
                    let gof = branch.gof_size.max(1) as usize;
                    let mut t = 0;
                    while t < snippet.len() {
                        let end = (t + gof).min(snippet.len());
                        let mut result = GofResult::default();
                        mbek.run_gof(&snippet[t..end], &mut device, &mut NullSink, &mut result)
                            .unwrap();
                        det_ms += result.detector_ms;
                        trk_ms += result.tracker_ms;
                        for (truth, dets) in snippet[t..end].iter().zip(result.per_frame()) {
                            acc.add_frame(gt_boxes(truth), pred_boxes(dets));
                        }
                        t = end;
                    }
                    let frames = snippet.len() as f64;
                    branch_map.push(acc.finalize().map as f32);
                    branch_det_ms.push(det_ms / frames);
                    branch_trk_ms.push(trk_ms / frames);
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

    fn bits32(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    fn bits64(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn pipelined_profiling_equals_the_serial_loop_bit_for_bit() {
        let (videos, cfg) = (tiny_videos(), tiny_config());
        let want = profile_videos_serially(&videos, &cfg, &mut FeatureService::new());
        assert_eq!(want.records.len(), 4);
        let svc = FeatureService::new();
        let got = profile_videos(&videos, &cfg, &svc);
        assert_eq!(got.catalog, want.catalog);
        assert_eq!(got.records.len(), want.records.len());
        for (i, (g, w)) in got.records.iter().zip(&want.records).enumerate() {
            assert_eq!(g.video_id, w.video_id, "record {i}: video_id");
            assert_eq!(g.start_frame, w.start_frame, "record {i}: start_frame");
            assert_eq!(g.len, w.len, "record {i}: len");
            assert_eq!(bits32(&g.light), bits32(&w.light), "record {i}: light");
            assert_eq!(
                g.heavy.keys().collect::<Vec<_>>(),
                w.heavy.keys().collect::<Vec<_>>(),
                "record {i}: heavy kinds"
            );
            for (kind, vector) in &w.heavy {
                assert_eq!(
                    bits32(&g.heavy[kind]),
                    bits32(vector),
                    "record {i}: {kind:?}"
                );
            }
            assert_eq!(
                bits32(&g.branch_map),
                bits32(&w.branch_map),
                "record {i}: branch_map"
            );
            assert_eq!(
                bits64(&g.branch_det_ms),
                bits64(&w.branch_det_ms),
                "record {i}: branch_det_ms"
            );
            assert_eq!(
                bits64(&g.branch_trk_ms),
                bits64(&w.branch_trk_ms),
                "record {i}: branch_trk_ms"
            );
        }
        // The caller's cache is left as it was.
        for kind in lr_features::HEAVY_FEATURE_KINDS {
            let stats = svc.cache_stats().kind(kind);
            assert_eq!((stats.hits, stats.misses), (0, 0), "{kind:?}");
        }
    }

    #[test]
    fn the_head_pass_lets_go_of_the_weights_before_the_chain_runs() {
        // A private copy, so that no other test's handle keeps it alive.
        let (videos, cfg) = (tiny_videos(), tiny_config());
        let weights = Arc::new(DeepExtractors::new());
        let earlier = Arc::downgrade(&weights);
        let raster_size = FeatureService::new().raster_size();
        let heads = head_pass(weights, &videos, cfg.snippet_len, raster_size);
        assert!(
            earlier.upgrade().is_none(),
            "the deep weights outlived the head pass"
        );
        // The chain takes the head features as they are and adds CPoP:
        // the same records as profiling in one call.
        let want = profile_videos(&videos, &cfg, &FeatureService::new());
        let got = profile_chain(&videos, &cfg, heads);
        assert_eq!(got.records.len(), want.records.len());
        for (g, w) in got.records.iter().zip(&want.records) {
            assert_eq!(g.heavy, w.heavy);
            assert_eq!(bits32(&g.branch_map), bits32(&w.branch_map));
        }
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
