//! Accuracy-optimized video object detectors (Table 3 baselines).
//!
//! SELSA, MEGA, and REPP aggregate information across many frames on
//! server-class GPUs; they are far more accurate than anything real-time
//! on an embedded board and far too slow for any latency SLO. Table 3 only
//! needs their relative positions — mAP, mean latency, memory, and which
//! variants OOM on the TX2's 8 GB — so each model is simulated as a
//! high-recall / low-jitter detector with its published latency and a peak
//! memory footprint checked against the `lr-device` memory model.

use rand::Rng;

use lr_video::classes::NUM_CLASSES;
use lr_video::{BBox, FrameTruth, ObjectClass};

use crate::detector::{randn, Detection};

/// The heavyweight baselines of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeavyModel {
    /// SELSA with a ResNet-101 backbone.
    SelsaResNet101,
    /// SELSA with a ResNet-50 backbone.
    SelsaResNet50,
    /// MEGA with a ResNet-101 backbone (OOMs on the TX2).
    MegaResNet101,
    /// MEGA with a ResNet-50 backbone (OOMs on the TX2 at peak).
    MegaResNet50,
    /// MEGA's base (non-aggregating) ResNet-50 variant.
    MegaResNet50Base,
    /// REPP post-processing over FGFA (OOMs on the TX2).
    ReppOverFgfa,
    /// REPP over SELSA (OOMs on the TX2).
    ReppOverSelsa,
    /// REPP over YOLOv3.
    ReppOverYolo,
}

/// Quality parameters for a heavy model.
#[derive(Debug, Clone, Copy)]
struct HeavyQuality {
    recall: f32,
    jitter: f32,
    fp_rate: f32,
}

impl HeavyModel {
    /// All models in Table 3 order.
    pub fn all() -> [HeavyModel; 8] {
        [
            HeavyModel::SelsaResNet101,
            HeavyModel::SelsaResNet50,
            HeavyModel::MegaResNet101,
            HeavyModel::MegaResNet50,
            HeavyModel::MegaResNet50Base,
            HeavyModel::ReppOverFgfa,
            HeavyModel::ReppOverSelsa,
            HeavyModel::ReppOverYolo,
        ]
    }

    /// Display name as in Table 3.
    pub fn name(self) -> &'static str {
        match self {
            HeavyModel::SelsaResNet101 => "SELSA-ResNet-101",
            HeavyModel::SelsaResNet50 => "SELSA-ResNet-50",
            HeavyModel::MegaResNet101 => "MEGA-ResNet-101",
            HeavyModel::MegaResNet50 => "MEGA-ResNet-50",
            HeavyModel::MegaResNet50Base => "MEGA-ResNet-50 (base)",
            HeavyModel::ReppOverFgfa => "REPP over FGFA",
            HeavyModel::ReppOverSelsa => "REPP over SELSA",
            HeavyModel::ReppOverYolo => "REPP over YOLOv3",
        }
    }

    /// Mean per-frame latency on the TX2 in ms (Table 3).
    pub fn mean_latency_tx2_ms(self) -> f64 {
        match self {
            HeavyModel::SelsaResNet101 => 2334.0,
            HeavyModel::SelsaResNet50 => 2112.0,
            HeavyModel::MegaResNet101 => 1600.0, // never completes on TX2
            HeavyModel::MegaResNet50 => 1200.0,  // never completes on TX2
            HeavyModel::MegaResNet50Base => 861.0,
            HeavyModel::ReppOverFgfa => 900.0, // never completes on TX2
            HeavyModel::ReppOverSelsa => 2300.0, // never completes on TX2
            HeavyModel::ReppOverYolo => 565.0,
        }
    }

    /// Resident memory as reported in Table 3, GiB.
    pub fn reported_memory_gb(self) -> f64 {
        match self {
            HeavyModel::SelsaResNet101 => 6.91,
            HeavyModel::SelsaResNet50 => 6.70,
            HeavyModel::MegaResNet101 => 9.38,
            HeavyModel::MegaResNet50 => 6.42,
            HeavyModel::MegaResNet50Base => 3.16,
            HeavyModel::ReppOverFgfa => 10.02,
            HeavyModel::ReppOverSelsa => 8.13,
            HeavyModel::ReppOverYolo => 2.43,
        }
    }

    /// Peak working-set footprint, GiB — what actually determines OOM.
    /// MEGA-ResNet-50's reported residency (6.42 GiB) understates its peak
    /// during aggregation, which is why it OOMs in the paper despite a
    /// smaller reported number than SELSA-ResNet-101.
    pub fn peak_memory_gb(self) -> f64 {
        match self {
            HeavyModel::MegaResNet50 => 7.4,
            other => other.reported_memory_gb(),
        }
    }

    fn quality(self) -> HeavyQuality {
        match self {
            HeavyModel::SelsaResNet101 => HeavyQuality {
                recall: 0.985,
                jitter: 0.010,
                fp_rate: 0.03,
            },
            HeavyModel::SelsaResNet50 => HeavyQuality {
                recall: 0.965,
                jitter: 0.012,
                fp_rate: 0.04,
            },
            HeavyModel::MegaResNet101 | HeavyModel::MegaResNet50 => HeavyQuality {
                recall: 0.95,
                jitter: 0.013,
                fp_rate: 0.05,
            },
            HeavyModel::MegaResNet50Base => HeavyQuality {
                recall: 0.90,
                jitter: 0.022,
                fp_rate: 0.10,
            },
            HeavyModel::ReppOverFgfa | HeavyModel::ReppOverSelsa => HeavyQuality {
                recall: 0.96,
                jitter: 0.012,
                fp_rate: 0.03,
            },
            HeavyModel::ReppOverYolo => HeavyQuality {
                recall: 0.93,
                jitter: 0.018,
                fp_rate: 0.06,
            },
        }
    }

    /// Runs the model on one frame's ground truth.
    ///
    /// These detectors see past (and in their original form, future)
    /// frames; the reproduction's streaming restriction is reflected in
    /// the slightly reduced recall values above, matching the paper's note
    /// that removing future-frame references cost 3–24% mAP.
    pub fn detect(self, truth: &FrameTruth, rng: &mut impl Rng) -> Vec<Detection> {
        let q = self.quality();
        let mut out = Vec::new();
        for obj in &truth.objects {
            // Heavy models still miss tiny or extremely difficult objects.
            let app = obj.relative_scale(truth.width, truth.height);
            let p = q.recall * (1.0 - 0.3 * obj.difficulty) * (1.0 - (-app * 60.0).exp());
            if rng.gen::<f32>() < p {
                let (cx, cy) = obj.bbox.center();
                let dx = randn(rng) * q.jitter * obj.bbox.w;
                let dy = randn(rng) * q.jitter * obj.bbox.h;
                let s = (randn(rng) * q.jitter).exp();
                let bbox = BBox::from_center(cx + dx, cy + dy, obj.bbox.w * s, obj.bbox.h * s)
                    .clamped(truth.width, truth.height);
                let p_correct = 0.97 - 0.15 * obj.difficulty;
                let class = if rng.gen::<f32>() < p_correct {
                    obj.class
                } else {
                    crate::detector::random_other_class(obj.class, rng)
                };
                out.push(Detection {
                    bbox,
                    class,
                    score: rng.gen_range(0.85..1.0),
                    gt_id: Some(obj.id),
                });
            }
        }
        if rng.gen::<f32>() < q.fp_rate {
            let w = rng.gen_range(0.05..0.15) * truth.width;
            let h = rng.gen_range(0.05..0.15) * truth.height;
            out.push(Detection {
                bbox: BBox::new(
                    rng.gen_range(0.0..(truth.width - w).max(1.0)),
                    rng.gen_range(0.0..(truth.height - h).max(1.0)),
                    w,
                    h,
                ),
                class: ObjectClass::new(rng.gen_range(0..NUM_CLASSES)),
                score: rng.gen_range(0.1..0.5),
                gt_id: None,
            });
        }
        out.sort_by(|a, b| b.score.total_cmp(&a.score));
        out
    }

    /// Whether the model fits on the given board.
    pub fn fits(self, profile: &lr_device::DeviceProfile) -> bool {
        let mut mem = lr_device::MemoryModel::new(profile);
        mem.try_load(self.name(), self.peak_memory_gb()).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_device::DeviceKind;
    use lr_video::{Video, VideoSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn oom_pattern_matches_table3() {
        let tx2 = DeviceKind::JetsonTx2.profile();
        assert!(HeavyModel::SelsaResNet101.fits(&tx2));
        assert!(HeavyModel::SelsaResNet50.fits(&tx2));
        assert!(!HeavyModel::MegaResNet101.fits(&tx2));
        assert!(!HeavyModel::MegaResNet50.fits(&tx2));
        assert!(HeavyModel::MegaResNet50Base.fits(&tx2));
        assert!(!HeavyModel::ReppOverFgfa.fits(&tx2));
        assert!(!HeavyModel::ReppOverSelsa.fits(&tx2));
        assert!(HeavyModel::ReppOverYolo.fits(&tx2));
    }

    #[test]
    fn latencies_match_table3() {
        assert_eq!(HeavyModel::SelsaResNet50.mean_latency_tx2_ms(), 2112.0);
        assert_eq!(HeavyModel::MegaResNet50Base.mean_latency_tx2_ms(), 861.0);
        assert_eq!(HeavyModel::ReppOverYolo.mean_latency_tx2_ms(), 565.0);
    }

    #[test]
    fn heavy_models_have_high_recall() {
        let v = Video::generate(VideoSpec {
            id: 0,
            seed: 91,
            width: 640.0,
            height: 480.0,
            num_frames: 100,
        });
        let mut rng = StdRng::seed_from_u64(1);
        let mut hits = 0usize;
        let mut total = 0usize;
        for f in &v.frames {
            let dets = HeavyModel::SelsaResNet101.detect(f, &mut rng);
            let ids: std::collections::BTreeSet<u32> =
                dets.iter().filter_map(|d| d.gt_id).collect();
            total += f.objects.len();
            hits += f.objects.iter().filter(|o| ids.contains(&o.id)).count();
        }
        let recall = hits as f32 / total.max(1) as f32;
        assert!(recall > 0.8, "SELSA recall {recall}");
    }

    #[test]
    fn selsa101_beats_mega_base() {
        let v = Video::generate(VideoSpec {
            id: 0,
            seed: 92,
            width: 640.0,
            height: 480.0,
            num_frames: 100,
        });
        let recall = |m: HeavyModel, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut hits = 0usize;
            let mut total = 0usize;
            for f in &v.frames {
                let dets = m.detect(f, &mut rng);
                let ids: std::collections::BTreeSet<u32> =
                    dets.iter().filter_map(|d| d.gt_id).collect();
                total += f.objects.len();
                hits += f.objects.iter().filter(|o| ids.contains(&o.id)).count();
            }
            hits as f32 / total.max(1) as f32
        };
        assert!(recall(HeavyModel::SelsaResNet101, 3) > recall(HeavyModel::MegaResNet50Base, 3));
    }
}
