//! Pins the offline build bit for bit: profiling two generated videos
//! with every heavy feature (the conv stand-ins included) and training
//! an accuracy model per feature must reproduce the committed digests.
//! A kernel change that moves one bit of a profiled feature, of a
//! branch label, of a trained weight or of a latency prediction changes
//! a digest and fails here.

use litereconfig::offline::{profile_videos, OfflineConfig};
use litereconfig::predictor::{AccuracyModelConfig, LatencyModel};
use litereconfig::{train_scheduler, FeatureService, TrainConfig};
use lr_features::LightFeatures;
use lr_kernels::branch::small_catalog;
use lr_kernels::DetectorFamily;
use lr_video::{Video, VideoSpec};

// Both digests were recorded with the direct-loop convolution and the
// dot-product `matmul_transposed`, before either ran on the blocked
// matmul kernel.

/// Digest of every profiled feature vector (light and heavy).
const FEATURES_DIGEST: u64 = 0xc2f9_4f69_05c2_d8de;
/// Digest of every accuracy model's predictions on the first records.
const PREDICTIONS_DIGEST: u64 = 0xe481_6bf4_229d_07dd;
/// Digest of every record's labels: per-branch mAP, detector ms and
/// tracker ms. Recorded with the `BTreeMap`-based mAP accumulator,
/// before it moved to dense per-class storage.
const LABELS_DIGEST: u64 = 0x3a2d_4140_ea52_3408;
/// Digest of two latency models' per-branch kernel-ms predictions over
/// light vectors that vary all four features (frame height and width
/// included) under two pairs of GPU/CPU corrections: the scheduler's,
/// and one fitted on videos of three frame sizes.
const LATENCY_DIGEST: u64 = 0xecc1_1d74_623f_0326;

/// 64-bit FNV-1a over the bit patterns of a stream of `f32`s.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, values: &[f32]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    fn add_f64(&mut self, values: &[f64]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[test]
fn offline_build_matches_the_pinned_digests() {
    let videos: Vec<Video> = (0..2)
        .map(|i| {
            Video::generate(VideoSpec {
                id: i,
                seed: 900 + i as u64,
                width: 640.0,
                height: 480.0,
                num_frames: 80,
            })
        })
        .collect();
    let offline = OfflineConfig {
        snippet_len: 40,
        catalog: small_catalog(),
        family: DetectorFamily::FasterRcnn,
        seed: 12,
    };
    let dataset = profile_videos(&videos, &offline, &FeatureService::new());

    let mut features = Fnv1a::new();
    let mut labels = Fnv1a::new();
    for record in &dataset.records {
        assert_eq!(record.heavy.len(), lr_features::HEAVY_FEATURE_KINDS.len());
        features.add(&record.light);
        for vector in record.heavy.values() {
            features.add(vector);
        }
        labels.add(&record.branch_map);
        labels.add_f64(&record.branch_det_ms);
        labels.add_f64(&record.branch_trk_ms);
    }

    let cfg = TrainConfig {
        model: AccuracyModelConfig::tiny(),
        heavy_kinds: lr_features::HEAVY_FEATURE_KINDS.to_vec(),
        ..TrainConfig::tiny()
    };
    let trained = train_scheduler(&dataset, DetectorFamily::FasterRcnn, &cfg);
    assert_eq!(trained.accuracy.len(), 6);
    let mut predictions = Fnv1a::new();
    for record in dataset.records.iter().take(3) {
        for (kind, model) in &trained.accuracy {
            let heavy = record.heavy.get(kind).map(Vec::as_slice);
            predictions.add(&model.predict(&record.light, heavy));
        }
    }

    // Every video above is 640x480, so the scheduler's regressions weigh
    // frame height and width at about zero. A model fitted on three frame
    // sizes weighs all four features, so the order its regressions sum
    // them in shows in the digest.
    let sized: Vec<Video> = [(480.0, 360.0), (1280.0, 720.0), (1920.0, 1080.0)]
        .into_iter()
        .zip(0u32..)
        .map(|((width, height), i)| {
            Video::generate(VideoSpec {
                id: 10 + i,
                seed: 950 + u64::from(i),
                width,
                height,
                num_frames: 40,
            })
        })
        .collect();
    let sized_offline = OfflineConfig {
        snippet_len: 20,
        ..offline
    };
    let sized_latency = LatencyModel::train(&profile_videos(
        &sized,
        &sized_offline,
        &FeatureService::new(),
    ));

    let mut latency = Fnv1a::new();
    for height in [360.0, 480.0, 720.0, 1080.0] {
        for width in [480.0, 640.0, 1280.0, 1920.0] {
            for num_objects in [0.0, 3.0, 11.0] {
                for avg_size in [0.0, 0.013, 0.21] {
                    let light = LightFeatures {
                        height,
                        width,
                        num_objects,
                        avg_size,
                    }
                    .to_vec();
                    for (gpu_corr, cpu_corr) in [(1.0, 1.0), (1.7, 1.15)] {
                        for model in [&trained.latency, &sized_latency] {
                            latency
                                .add_f64(&model.predict_all_kernel_ms(&light, gpu_corr, cpu_corr));
                        }
                    }
                }
            }
        }
    }

    assert_eq!(
        (features.0, labels.0, predictions.0, latency.0),
        (
            FEATURES_DIGEST,
            LABELS_DIGEST,
            PREDICTIONS_DIGEST,
            LATENCY_DIGEST
        ),
        "offline build moved: features {:#018x}, labels {:#018x}, predictions {:#018x}, \
         latency {:#018x}",
        features.0,
        labels.0,
        predictions.0,
        latency.0
    );
}
