//! Dataset splits mirroring the paper's protocol.
//!
//! The paper uses 90% of the ILSVRC VID training set to train the vision
//! algorithms, the remaining 10% to train the scheduler (latency model,
//! accuracy model, switching-overhead model, `Ben(·)` tables), and the
//! validation set exclusively for evaluation. We reproduce the same
//! three-way split over synthetic videos, with disjoint id ranges so no
//! video ever leaks across splits.

use crate::video::{Video, VideoSpec};

/// Which split a video belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Split {
    /// Trains the vision kernels (detector calibration).
    TrainVision,
    /// Trains the scheduler (predictors, Ben tables, switching costs).
    TrainScheduler,
    /// Held out for evaluation only.
    Validation,
}

/// Dataset size configuration.
///
/// The defaults are scaled-down but proportionate to the paper's
/// 3,476 / 386 / 555 video counts; experiments override them per budget.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Videos in the vision-training split.
    pub train_vision: usize,
    /// Videos in the scheduler-training split.
    pub train_scheduler: usize,
    /// Videos in the validation split.
    pub validation: usize,
    /// Base offset applied to all video ids (lets tests use disjoint
    /// universes).
    pub id_offset: u32,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        Self {
            train_vision: 45,
            train_scheduler: 30,
            validation: 25,
            id_offset: 0,
        }
    }
}

impl DatasetConfig {}

/// A dataset: lazy access to the videos of each split.
///
/// Videos are generated on demand from their deterministic specs; holding
/// a `Dataset` costs nothing until videos are materialized.
#[derive(Debug, Clone)]
pub struct Dataset {
    config: DatasetConfig,
}

impl Dataset {
    /// Creates a dataset with the given split sizes.
    pub fn new(config: DatasetConfig) -> Self {
        Self { config }
    }

    /// Number of videos in a split.
    pub fn len(&self, split: Split) -> usize {
        match split {
            Split::TrainVision => self.config.train_vision,
            Split::TrainScheduler => self.config.train_scheduler,
            Split::Validation => self.config.validation,
        }
    }

    /// The video ids of a split. Id ranges are disjoint by construction.
    pub(crate) fn ids(&self, split: Split) -> Vec<u32> {
        let base = self.config.id_offset;
        let tv = self.config.train_vision as u32;
        let ts = self.config.train_scheduler as u32;
        let val = self.config.validation as u32;
        let range = match split {
            Split::TrainVision => base..base + tv,
            Split::TrainScheduler => base + tv..base + tv + ts,
            Split::Validation => base + tv + ts..base + tv + ts + val,
        };
        range.collect()
    }

    /// Generates the `index`-th video of a split.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the split.
    pub fn video(&self, split: Split, index: usize) -> Video {
        let ids = self.ids(split);
        assert!(
            index < ids.len(),
            "video index {index} out of range for split ({})",
            ids.len()
        );
        Video::generate(VideoSpec::from_id(ids[index]))
    }

    /// Generates every video of a split.
    pub fn videos(&self, split: Split) -> Vec<Video> {
        self.ids(split)
            .into_iter()
            .map(|id| Video::generate(VideoSpec::from_id(id)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DatasetConfig {
        /// A tiny configuration for unit tests.
        pub(crate) fn tiny() -> Self {
            Self {
                train_vision: 2,
                train_scheduler: 2,
                validation: 2,
                id_offset: 10_000,
            }
        }
    }

    #[test]
    fn splits_are_disjoint() {
        let ds = Dataset::new(DatasetConfig::default());
        let mut all = Vec::new();
        for split in [Split::TrainVision, Split::TrainScheduler, Split::Validation] {
            all.extend(ds.ids(split));
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "video ids leak across splits");
    }

    #[test]
    fn split_sizes_match_config() {
        let ds = Dataset::new(DatasetConfig::default());
        assert_eq!(ds.len(Split::TrainVision), 45);
        assert_eq!(ds.len(Split::TrainScheduler), 30);
        assert_eq!(ds.len(Split::Validation), 25);
    }

    #[test]
    fn videos_are_reproducible() {
        let ds = Dataset::new(DatasetConfig::tiny());
        let a = ds.video(Split::Validation, 0);
        let b = ds.video(Split::Validation, 0);
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.frames.len(), b.frames.len());
        assert_eq!(a.frames[10], b.frames[10]);
    }

    #[test]
    fn id_offset_shifts_universe() {
        let a = Dataset::new(DatasetConfig {
            id_offset: 0,
            ..DatasetConfig::tiny()
        });
        let b = Dataset::new(DatasetConfig {
            id_offset: 500,
            ..DatasetConfig::tiny()
        });
        assert_ne!(a.ids(Split::TrainVision), b.ids(Split::TrainVision));
    }

    #[test]
    fn offline_build_ground_truth_fits_its_footprint() {
        use crate::{FrameTruth, GtObject};
        use std::mem::{size_of, size_of_val};
        // The 40 videos an offline build generates: the scheduler-training
        // and validation splits of hostbench's dataset.
        let ds = Dataset::new(DatasetConfig {
            train_vision: 45,
            train_scheduler: 24,
            validation: 16,
            id_offset: 0,
        });
        let mut bytes = 0;
        for split in [Split::TrainScheduler, Split::Validation] {
            for v in ds.videos(split) {
                // One shared allocation: the two reference counts, then
                // exactly `len` frames.
                bytes += 2 * size_of::<usize>() + size_of_val(&*v.frames);
                let objects: usize = v.frames.iter().map(|f| f.objects.len()).sum();
                bytes += objects * size_of::<GtObject>();
            }
        }
        // 3,683,232 bytes at 40-byte frames and 36-byte objects.
        assert_eq!(size_of::<FrameTruth>(), 40);
        assert!(bytes <= 3_700_000, "{bytes} bytes");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_video_panics() {
        let ds = Dataset::new(DatasetConfig::tiny());
        let _ = ds.video(Split::Validation, 99);
    }
}
