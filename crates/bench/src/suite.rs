//! Experiment suite: datasets, profiling, and trained schedulers shared
//! by every artifact.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use litereconfig::offline::{profile_videos, OfflineConfig, OfflineDataset};
use litereconfig::trainer::{train_scheduler, TrainConfig};
use litereconfig::{FeatureService, TrainedScheduler};
use lr_kernels::branch::{default_catalog, one_stage_catalog, small_catalog};
use lr_kernels::DetectorFamily;
use lr_video::{Dataset, DatasetConfig, Split, Video};

/// How big an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExperimentScale {
    /// Seconds-scale smoke test.
    Small,
    /// The configuration recorded in `EXPERIMENTS.md`.
    Paper,
}

impl ExperimentScale {
    /// Dataset split sizes for this scale.
    pub(crate) fn dataset_config(self) -> DatasetConfig {
        match self {
            ExperimentScale::Small => DatasetConfig {
                train_vision: 2,
                train_scheduler: 3,
                validation: 3,
                id_offset: 0,
            },
            ExperimentScale::Paper => DatasetConfig {
                train_vision: 45,
                train_scheduler: 24,
                validation: 16,
                id_offset: 0,
            },
        }
    }

    /// Snippet length N.
    pub(crate) fn snippet_len(self) -> usize {
        match self {
            ExperimentScale::Small => 50,
            ExperimentScale::Paper => 100,
        }
    }

    /// Branch catalog for the Faster R-CNN MBEK.
    pub(crate) fn frcnn_catalog(self) -> Vec<lr_kernels::Branch> {
        match self {
            ExperimentScale::Small => small_catalog(),
            ExperimentScale::Paper => default_catalog(),
        }
    }

    /// Branch catalog for the one-stage baselines.
    pub(crate) fn one_stage_catalog(self) -> Vec<lr_kernels::Branch> {
        match self {
            ExperimentScale::Small => small_catalog(),
            ExperimentScale::Paper => one_stage_catalog(),
        }
    }

    /// Scheduler training configuration.
    pub(crate) fn train_config(self) -> TrainConfig {
        match self {
            ExperimentScale::Small => TrainConfig {
                heavy_kinds: lr_features::HEAVY_FEATURE_KINDS.to_vec(),
                ..TrainConfig::tiny()
            },
            ExperimentScale::Paper => TrainConfig::fast(),
        }
    }
}

/// Everything the artifacts need at one scale, built once.
///
/// Feature services are not part of the suite: every run starts its own
/// (`FeatureService::new`), because feature vectors are pure functions of
/// (video, frame) and a cache only changes what is recomputed.
pub(crate) struct Suite {
    /// The scale this suite was built at.
    pub(crate) scale: ExperimentScale,
    /// Scheduler-training videos (the offline profiling input).
    pub(crate) train_videos: Vec<Video>,
    /// Validation videos (never seen by training).
    pub(crate) val_videos: Vec<Video>,
    /// Offline dataset for the Faster R-CNN MBEK.
    pub(crate) frcnn_dataset: OfflineDataset,
    /// Trained scheduler for the Faster R-CNN MBEK (all content models).
    pub(crate) frcnn: Arc<TrainedScheduler>,
    ssd: OnceLock<Arc<TrainedScheduler>>,
    yolo: OnceLock<Arc<TrainedScheduler>>,
}

impl Suite {
    /// Builds datasets, profiles the Faster R-CNN MBEK, and trains its
    /// scheduler. Baseline-family schedulers are built on first use by
    /// [`Suite::scheduler`].
    pub(crate) fn build(scale: ExperimentScale) -> Self {
        let t0 = Instant::now();
        let dataset = Dataset::new(scale.dataset_config());
        eprintln!(
            "[suite] generating {} scheduler-training and {} validation videos...",
            dataset.len(Split::TrainScheduler),
            dataset.len(Split::Validation)
        );
        let train_videos = dataset.videos(Split::TrainScheduler);
        let val_videos = dataset.videos(Split::Validation);

        eprintln!(
            "[suite] profiling Faster R-CNN MBEK ({} branches)...",
            scale.frcnn_catalog().len()
        );
        let cfg = OfflineConfig {
            snippet_len: scale.snippet_len(),
            ..OfflineConfig::paper(scale.frcnn_catalog(), DetectorFamily::FasterRcnn)
        };
        let frcnn_dataset = profile_videos(&train_videos, &cfg, &FeatureService::new());
        eprintln!(
            "[suite] {} snippets profiled in {:.1}s; training scheduler...",
            frcnn_dataset.len(),
            t0.elapsed().as_secs_f64()
        );
        let frcnn = Arc::new(train_scheduler(
            &frcnn_dataset,
            DetectorFamily::FasterRcnn,
            &scale.train_config(),
        ));
        eprintln!("[suite] ready in {:.1}s", t0.elapsed().as_secs_f64());
        Self {
            scale,
            train_videos,
            val_videos,
            frcnn_dataset,
            frcnn,
            ssd: OnceLock::new(),
            yolo: OnceLock::new(),
        }
    }

    /// The trained scheduler for a detector family: the Faster R-CNN one
    /// built with the suite, or a content-agnostic one-stage baseline
    /// (SSD+, YOLO+), profiled and trained on its first request.
    pub(crate) fn scheduler(&self, family: DetectorFamily) -> Arc<TrainedScheduler> {
        let cell = match family {
            DetectorFamily::Ssd => &self.ssd,
            DetectorFamily::Yolo => &self.yolo,
            _ => return self.frcnn.clone(),
        };
        cell.get_or_init(|| self.train_one_stage(family)).clone()
    }

    fn train_one_stage(&self, family: DetectorFamily) -> Arc<TrainedScheduler> {
        eprintln!("[suite] profiling {} MBEK...", family.name());
        let cfg = OfflineConfig {
            snippet_len: self.scale.snippet_len(),
            ..OfflineConfig::paper(self.scale.one_stage_catalog(), family)
        };
        let ds = profile_videos(&self.train_videos, &cfg, &FeatureService::new());
        Arc::new(train_scheduler(
            &ds,
            family,
            &self.scale.train_config().light_only(),
        ))
    }
}
