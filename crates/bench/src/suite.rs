//! Experiment suite: datasets, profiling, and trained schedulers shared
//! by all table/figure binaries.

use std::sync::Arc;
use std::time::Instant;

use litereconfig::offline::{profile_videos, OfflineConfig, OfflineDataset};
use litereconfig::trainer::{train_scheduler, TrainConfig};
use litereconfig::{FeatureService, TrainedScheduler};
use lr_kernels::branch::{default_catalog, one_stage_catalog, small_catalog};
use lr_kernels::DetectorFamily;
use lr_video::{Dataset, DatasetConfig, Split, Video};

/// How big an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Seconds-scale smoke test.
    Small,
    /// The configuration recorded in `EXPERIMENTS.md`.
    Paper,
}

impl ExperimentScale {
    /// Dataset split sizes for this scale.
    pub fn dataset_config(self) -> DatasetConfig {
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
    pub fn snippet_len(self) -> usize {
        match self {
            ExperimentScale::Small => 50,
            ExperimentScale::Paper => 100,
        }
    }

    /// Branch catalog for the Faster R-CNN MBEK.
    pub fn frcnn_catalog(self) -> Vec<lr_kernels::Branch> {
        match self {
            ExperimentScale::Small => small_catalog(),
            ExperimentScale::Paper => default_catalog(),
        }
    }

    /// Branch catalog for the one-stage baselines.
    pub fn one_stage_catalog(self) -> Vec<lr_kernels::Branch> {
        match self {
            ExperimentScale::Small => small_catalog(),
            ExperimentScale::Paper => one_stage_catalog(),
        }
    }

    /// Scheduler training configuration.
    pub fn train_config(self) -> TrainConfig {
        match self {
            ExperimentScale::Small => TrainConfig {
                heavy_kinds: lr_features::HEAVY_FEATURE_KINDS.to_vec(),
                ..TrainConfig::tiny()
            },
            ExperimentScale::Paper => TrainConfig::fast(),
        }
    }
}

/// Everything the experiment binaries need, built once.
pub struct Suite {
    /// The scale this suite was built at.
    pub scale: ExperimentScale,
    /// Validation videos (never seen by training).
    pub val_videos: Vec<Video>,
    /// Shared feature service (feature vectors cached across runs).
    pub svc: FeatureService,
    /// Offline dataset for the Faster R-CNN MBEK.
    pub frcnn_dataset: OfflineDataset,
    /// Trained scheduler for the Faster R-CNN MBEK (all content models).
    pub frcnn: Arc<TrainedScheduler>,
}

impl Suite {
    /// Builds datasets, profiles the Faster R-CNN MBEK, and trains its
    /// scheduler. Baseline-family schedulers are built on demand via
    /// [`Suite::train_one_stage`].
    pub fn build(scale: ExperimentScale) -> Self {
        let t0 = Instant::now();
        let dataset = Dataset::new(scale.dataset_config());
        eprintln!(
            "[suite] generating {} scheduler-training and {} validation videos...",
            dataset.len(Split::TrainScheduler),
            dataset.len(Split::Validation)
        );
        let train_videos = dataset.videos(Split::TrainScheduler);
        let val_videos = dataset.videos(Split::Validation);
        let mut svc = FeatureService::new();

        eprintln!(
            "[suite] profiling Faster R-CNN MBEK ({} branches)...",
            scale.frcnn_catalog().len()
        );
        let cfg = OfflineConfig {
            snippet_len: scale.snippet_len(),
            ..OfflineConfig::paper(scale.frcnn_catalog(), DetectorFamily::FasterRcnn)
        };
        let frcnn_dataset = profile_videos(&train_videos, &cfg, &mut svc);
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
            val_videos,
            svc,
            frcnn_dataset,
            frcnn,
        }
    }

    /// Profiles and trains a content-agnostic scheduler for a one-stage
    /// baseline family (SSD+, YOLO+).
    pub fn train_one_stage(&mut self, family: DetectorFamily) -> Arc<TrainedScheduler> {
        let dataset = Dataset::new(self.scale.dataset_config());
        let train_videos = dataset.videos(Split::TrainScheduler);
        eprintln!("[suite] profiling {} MBEK...", family.name());
        let cfg = OfflineConfig {
            snippet_len: self.scale.snippet_len(),
            ..OfflineConfig::paper(self.scale.one_stage_catalog(), family)
        };
        let ds = profile_videos(&train_videos, &cfg, &mut self.svc);
        Arc::new(train_scheduler(
            &ds,
            family,
            &self.scale.train_config().light_only(),
        ))
    }
}
