//! End-to-end offline training: profiled dataset -> trained scheduler.

use std::collections::BTreeMap;

use lr_device::SwitchingCostModel;
use lr_features::FeatureKind;
use lr_kernels::DetectorFamily;

use crate::bentable::BenTable;
use crate::offline::OfflineDataset;
use crate::predictor::{AccuracyModel, AccuracyModelConfig, LatencyModel};
use crate::scheduler::TrainedScheduler;

/// Offline training configuration.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Accuracy-model hyper-parameters.
    pub model: AccuracyModelConfig,
    /// Heavy features to train content models for (the full system trains
    /// all five; baseline families train none).
    pub heavy_kinds: Vec<FeatureKind>,
    /// SLO buckets for the `Ben(·)` tables.
    pub slos_ms: Vec<f64>,
    /// Training seed.
    pub seed: u64,
}

impl TrainConfig {
    /// The paper's full configuration over the TX2 SLO set.
    pub fn paper() -> Self {
        Self {
            model: AccuracyModelConfig::paper(),
            heavy_kinds: lr_features::HEAVY_FEATURE_KINDS.to_vec(),
            slos_ms: vec![20.0, 33.3, 50.0, 100.0],
            seed: 0x72_47_11,
        }
    }

    /// A budget-friendly configuration for large sweeps.
    pub fn fast() -> Self {
        Self {
            model: AccuracyModelConfig::fast(),
            ..Self::paper()
        }
    }

    /// A tiny configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            model: AccuracyModelConfig::tiny(),
            heavy_kinds: vec![FeatureKind::HoC],
            slos_ms: vec![33.3, 100.0],
            seed: 0x72_47_11,
        }
    }

    /// Content-agnostic training (light model only) for the SSD+/YOLO+
    /// baselines.
    pub fn light_only(mut self) -> Self {
        self.heavy_kinds.clear();
        self
    }
}

/// Trains every scheduler component from an offline dataset.
///
/// # Panics
///
/// Panics on an empty dataset.
pub fn train_scheduler(
    dataset: &OfflineDataset,
    family: DetectorFamily,
    cfg: &TrainConfig,
) -> TrainedScheduler {
    assert!(!dataset.is_empty(), "cannot train on an empty dataset");

    // Per-feature models are seeded independently (`seed ^ kind`), so
    // they can train concurrently with results identical to the
    // sequential loop for any worker count. Training time grows with the
    // input width and the pool hands models out in order, so the widest
    // go first: a wide model started last would set the makespan. The
    // models land in a map keyed by kind, so the order ends here.
    let mut kinds: Vec<FeatureKind> = std::iter::once(FeatureKind::Light)
        .chain(cfg.heavy_kinds.iter().copied())
        .collect();
    let heavy_width = |kind: &FeatureKind| dataset.records[0].heavy.get(kind).map_or(0, Vec::len);
    kinds.sort_by_key(|kind| std::cmp::Reverse(heavy_width(kind)));
    let pool = lr_pool::Pool::from_env();
    let models = pool.par_map(&kinds, |&kind| {
        AccuracyModel::train(kind, dataset, &cfg.model, cfg.seed)
    });
    let accuracy: BTreeMap<FeatureKind, AccuracyModel> = kinds.into_iter().zip(models).collect();

    let latency = LatencyModel::train(dataset);
    let ben = BenTable::compute(dataset, &accuracy, &cfg.slos_ms);

    let det_inference_ms = dataset
        .catalog
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let mean: f64 = dataset
                .records
                .iter()
                .map(|r| r.branch_det_ms[i])
                .sum::<f64>()
                / dataset.records.len() as f64;
            mean * b.gof_size.max(1) as f64
        })
        .collect();

    TrainedScheduler {
        catalog: dataset.catalog.clone(),
        accuracy,
        latency,
        ben,
        switching: SwitchingCostModel::paper_default(),
        det_inference_ms,
        family,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featsvc::FeatureService;
    use crate::offline::{profile_videos, OfflineConfig};
    use lr_kernels::branch::small_catalog;
    use lr_video::{Video, VideoSpec};

    fn dataset() -> OfflineDataset {
        let videos: Vec<Video> = (0..2)
            .map(|i| {
                Video::generate(VideoSpec {
                    id: i,
                    seed: 500 + i as u64,
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
            seed: 10,
        };
        profile_videos(&videos, &cfg, &FeatureService::new())
    }

    #[test]
    fn training_produces_all_components() {
        let ds = dataset();
        let trained = train_scheduler(&ds, DetectorFamily::FasterRcnn, &TrainConfig::tiny());
        assert!(trained.accuracy.contains_key(&FeatureKind::Light));
        assert!(trained.accuracy.contains_key(&FeatureKind::HoC));
        assert_eq!(trained.latency.num_branches(), ds.catalog.len());
        assert_eq!(trained.det_inference_ms.len(), ds.catalog.len());
        assert!(trained.det_inference_ms.iter().all(|&m| m > 0.0));
    }

    #[test]
    fn light_only_config_skips_content_models() {
        let ds = dataset();
        let cfg = TrainConfig::tiny().light_only();
        let trained = train_scheduler(&ds, DetectorFamily::Ssd, &cfg);
        assert_eq!(trained.accuracy.len(), 1);
        assert!(trained.accuracy.contains_key(&FeatureKind::Light));
    }

    #[test]
    fn detector_inference_cost_scales_with_shape() {
        let ds = dataset();
        let trained = train_scheduler(&ds, DetectorFamily::FasterRcnn, &TrainConfig::tiny());
        let light = trained
            .catalog
            .iter()
            .position(|b| b.detector.shape == 224 && b.detector.nprop == 5)
            .unwrap();
        let heavy = trained
            .catalog
            .iter()
            .position(|b| b.detector.shape == 448 && b.detector.nprop == 100)
            .unwrap();
        assert!(trained.det_inference_ms[heavy] > trained.det_inference_ms[light]);
    }
}
