//! Analytic object-detector simulators.
//!
//! A detector run consumes a frame's ground truth and emits noisy
//! detections. The stochastic model encodes the empirical regularities of
//! the real detectors the paper uses, so that accuracy — later *computed*
//! as real mAP against ground truth — responds to the knobs and to content
//! the way the published systems do:
//!
//! - **input shape**: objects smaller than ~14 px at detector resolution
//!   are likely missed, so small objects need large shapes (the apparent
//!   size is `relative_scale x shape`); localization jitter also shrinks
//!   with shape;
//! - **nprop**: ground-truth objects compete with clutter-induced
//!   distractor proposals for the `nprop` RPN slots, so cluttered scenes
//!   need more proposals;
//! - **motion blur**: fast objects are harder to detect and localize;
//! - **difficulty**: intrinsic per-object detectability;
//! - **family**: one-stage baselines trade recall/jitter for speed;
//!   EfficientDet variants are stronger but slower.

use rand::Rng;

use lr_video::NUM_CLASSES;
use lr_video::{BBox, FrameTruth, GtObject, ObjectClass};

use crate::branch::DetectorConfig;

/// One detection: a scored, classified box.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Detected box in source-resolution pixels.
    pub bbox: BBox,
    /// Predicted class.
    pub class: ObjectClass,
    /// Confidence score in `(0, 1)`.
    pub score: f32,
    /// Ground-truth object id this detection arose from (`None` for false
    /// positives). Used by the tracker simulator to follow trajectories;
    /// the evaluation pipeline never reads it.
    pub gt_id: Option<u32>,
}

/// Full output of a detector run.
#[derive(Debug, Clone, Default)]
pub struct DetectorOutput {
    /// Detections after NMS.
    pub detections: Vec<Detection>,
    /// Per-proposal class logits, the raw material of the CPoP feature.
    pub proposal_logits: Vec<ProposalLogits>,
}

/// One proposal's class logits: 30 classes, then background.
pub type ProposalLogits = [f32; NUM_CLASSES + 1];

/// Which detector architecture is being simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectorFamily {
    /// Two-stage Faster R-CNN — the MBEK's detector.
    FasterRcnn,
    /// YOLOv3 (one-stage), used by the YOLO+ protocol.
    Yolo,
    /// SSD-MobileNetV2-MnasFPN (one-stage), used by the SSD+ protocol.
    Ssd,
    /// EfficientDet-D0 (Table 3).
    EfficientDetD0,
    /// EfficientDet-D3 (Table 3).
    EfficientDetD3,
    /// AdaScale's scale-adaptive Faster R-CNN (Tables 2 and 3).
    AdaScale,
}

/// Family-specific quality knobs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QualityProfile {
    /// Multiplier on detection probability.
    pub recall_factor: f32,
    /// Multiplier on localization jitter.
    pub jitter_scale: f32,
    /// Multiplier on false-positive rate.
    pub fp_scale: f32,
    /// Whether the proposal-competition term applies (two-stage only).
    pub uses_proposals: bool,
}

impl DetectorFamily {
    pub(crate) fn quality(self) -> QualityProfile {
        match self {
            DetectorFamily::FasterRcnn => QualityProfile {
                recall_factor: 1.0,
                jitter_scale: 1.0,
                fp_scale: 1.0,
                uses_proposals: true,
            },
            DetectorFamily::Yolo => QualityProfile {
                recall_factor: 0.93,
                jitter_scale: 1.25,
                fp_scale: 1.2,
                uses_proposals: false,
            },
            DetectorFamily::Ssd => QualityProfile {
                recall_factor: 0.90,
                jitter_scale: 1.35,
                fp_scale: 1.1,
                uses_proposals: false,
            },
            DetectorFamily::EfficientDetD0 => QualityProfile {
                recall_factor: 1.06,
                jitter_scale: 0.8,
                fp_scale: 0.8,
                uses_proposals: false,
            },
            DetectorFamily::EfficientDetD3 => QualityProfile {
                recall_factor: 1.18,
                jitter_scale: 0.55,
                fp_scale: 0.6,
                uses_proposals: false,
            },
            DetectorFamily::AdaScale => QualityProfile {
                recall_factor: 1.08,
                jitter_scale: 0.8,
                fp_scale: 0.9,
                uses_proposals: false,
            },
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DetectorFamily::FasterRcnn => "FasterRCNN",
            DetectorFamily::Yolo => "YOLOv3",
            DetectorFamily::Ssd => "SSD-MobileNetV2",
            DetectorFamily::EfficientDetD0 => "EfficientDet-D0",
            DetectorFamily::EfficientDetD3 => "EfficientDet-D3",
            DetectorFamily::AdaScale => "AdaScale",
        }
    }
}

/// A detector simulator for one family.
#[derive(Debug, Clone, Copy)]
pub struct DetectorSim {
    family: DetectorFamily,
}

impl DetectorSim {
    /// Creates a simulator for the given family.
    pub fn new(family: DetectorFamily) -> Self {
        Self { family }
    }

    /// The simulated family.
    pub(crate) fn family(&self) -> DetectorFamily {
        self.family
    }

    /// Runs the detector on one frame's ground truth.
    pub fn detect(
        &self,
        truth: &FrameTruth,
        cfg: DetectorConfig,
        rng: &mut impl Rng,
    ) -> DetectorOutput {
        let mut out = DetectorOutput::default();
        self.detect_into(truth, cfg, rng, &mut Vec::new(), &mut out);
        out
    }

    /// [`DetectorSim::detect`] into `out`, whose vectors are cleared and
    /// refilled; `order` is scratch. Buffers reused across frames keep
    /// a detection from allocating once they have grown.
    pub(crate) fn detect_into(
        &self,
        truth: &FrameTruth,
        cfg: DetectorConfig,
        rng: &mut impl Rng,
        order: &mut Vec<usize>,
        out: &mut DetectorOutput,
    ) {
        let q = self.family.quality();
        let shape = cfg.shape as f32;
        let texture = truth.regime.clutter.texture_amplitude();
        let short_side = truth.width.min(truth.height).max(1.0);

        // Rank objects by salience for proposal competition. NaN-total
        // ordering plus an index tie-break keeps the ranking deterministic
        // even for degenerate (NaN-area) boxes.
        order.clear();
        order.extend(0..truth.objects.len());
        order.sort_by(|&a, &b| {
            salience(&truth.objects[b])
                .total_cmp(&salience(&truth.objects[a]))
                .then(a.cmp(&b))
        });

        // Clutter-induced distractor proposals compete for RPN slots.
        let distractors = 3.0 + texture * 20.0;
        let effective_props = 2.0 * cfg.nprop as f32 / (1.0 + 0.4 * distractors);

        let DetectorOutput {
            detections,
            proposal_logits,
        } = out;
        detections.clear();
        proposal_logits.clear();

        for (rank, &idx) in order.iter().enumerate() {
            let obj = &truth.objects[idx];
            let app_size = obj.relative_scale(truth.width, truth.height) * shape;
            let p_scale = sigmoid((app_size - 14.0) / 7.0).min(0.985);
            let speed_rel = obj.speed() / short_side;
            let p_blur = (-speed_rel * 8.0).exp();
            let p_diff = 1.0 - 0.55 * obj.difficulty;
            let p_prop = if q.uses_proposals {
                1.0 - (-effective_props / (rank as f32 + 1.0)).exp()
            } else {
                // One-stage detectors classify a dense grid; coverage is
                // high but degrades slightly in clutter.
                (1.0 - 0.25 * texture).min(0.97)
            };
            let p_det = (p_scale * p_blur * p_diff * p_prop * q.recall_factor).clamp(0.0, 0.99);

            // Detection outcomes are *temporally persistent*: a marginal
            // object is missed for a stretch of frames, not re-rolled
            // i.i.d. per frame (real detector misses are strongly
            // correlated in time — motion blur, pose, occlusion persist).
            // The draw is a deterministic hash of (stream, object,
            // 12-frame epoch), so its long-run rate is exactly `p_det`.
            let u_det = persistent_uniform(truth.stream_id, obj.id, truth.frame_index / 12, 0xD0A1);
            if u_det < p_det {
                // Localization jitter shrinks with shape, grows with blur.
                let jitter =
                    (0.015 + 0.05 * (224.0 / shape)) * q.jitter_scale * (1.0 + 6.0 * speed_rel);
                let (cx, cy) = obj.bbox.center();
                let dx = randn(rng) * jitter * obj.bbox.w;
                let dy = randn(rng) * jitter * obj.bbox.h;
                let sw = (randn(rng) * jitter).exp();
                let sh = (randn(rng) * jitter).exp();
                let bbox = BBox::from_center(cx + dx, cy + dy, obj.bbox.w * sw, obj.bbox.h * sh)
                    .clamped(truth.width, truth.height);

                // Classification confusion: small/difficult objects are
                // mislabeled more often. Confusion is also persistent (a
                // misclassified object stays misclassified while its pose
                // holds), and the wrong label is stable within the epoch.
                let p_correct = (0.82 + 0.18 * sigmoid((app_size - 10.0) / 8.0))
                    * (1.0 - 0.15 * obj.difficulty);
                let u_cls =
                    persistent_uniform(truth.stream_id, obj.id, truth.frame_index / 12, 0xC1A5);
                let (class, score_factor) = if u_cls < p_correct {
                    (obj.class, 1.0)
                } else {
                    let pick =
                        persistent_uniform(truth.stream_id, obj.id, truth.frame_index / 12, 0x07E2);
                    // A wrong label comes with a weaker logit: confused
                    // detections rank below confident correct ones, which
                    // is what keeps real detectors' mAP from cratering.
                    (stable_other_class(obj.class, pick), 0.55)
                };
                let score = (p_det * score_factor * rng.gen_range(0.75..1.0)).clamp(0.05, 0.999);
                if bbox.is_valid() {
                    detections.push(Detection {
                        bbox,
                        class,
                        score,
                        gt_id: Some(obj.id),
                    });
                    proposal_logits.push(object_logits(class, score));
                }
            }
        }

        // False positives: clutter plus proposal budget induce spurious
        // boxes with low-to-mid scores.
        let prop_frac = if q.uses_proposals {
            (cfg.nprop as f32 / 100.0).sqrt()
        } else {
            1.0
        };
        let lambda = (0.04 + 0.9 * texture) * prop_frac * q.fp_scale;
        let n_fp = poisson(lambda, rng);
        for _ in 0..n_fp {
            let w = rng.gen_range(0.03..0.2) * truth.width;
            let h = rng.gen_range(0.03..0.2) * truth.height;
            let x = rng.gen_range(0.0..(truth.width - w).max(1.0));
            let y = rng.gen_range(0.0..(truth.height - h).max(1.0));
            let class = ObjectClass::new(rng.gen_range(0..NUM_CLASSES));
            let score = rng.gen_range(0.05..0.55);
            detections.push(Detection {
                bbox: BBox::new(x, y, w, h),
                class,
                score,
                gt_id: None,
            });
            proposal_logits.push(object_logits(class, score * 0.6));
        }

        // Remaining proposals are background.
        let bg_slots = if q.uses_proposals {
            (cfg.nprop as usize)
                .min(12)
                .saturating_sub(proposal_logits.len())
        } else {
            4usize.saturating_sub(proposal_logits.len())
        };
        for _ in 0..bg_slots {
            proposal_logits.push(background_logits(rng));
        }

        detections.sort_by(|a, b| b.score.total_cmp(&a.score));
    }
}

/// Salience used for proposal competition: big, easy objects win slots.
fn salience(obj: &GtObject) -> f32 {
    obj.bbox.area() * (1.0 - obj.difficulty)
}

/// Class logits for a proposal covering an object of the given class.
fn object_logits(class: ObjectClass, strength: f32) -> ProposalLogits {
    let mut v = [0.0f32; NUM_CLASSES + 1];
    v[class.index()] = 2.0 + 4.0 * strength;
    v[NUM_CLASSES] = 0.5;
    v
}

/// Class logits for a background proposal.
fn background_logits(rng: &mut impl Rng) -> ProposalLogits {
    let mut v = [0.0f32; NUM_CLASSES + 1];
    v[NUM_CLASSES] = rng.gen_range(2.0..4.0);
    v
}

/// Uniformly samples a class different from `class`.
pub(crate) fn random_other_class(class: ObjectClass, rng: &mut impl Rng) -> ObjectClass {
    loop {
        let c = ObjectClass::new(rng.gen_range(0..NUM_CLASSES));
        if c != class {
            return c;
        }
    }
}

/// Maps a uniform draw to a class different from `class`.
fn stable_other_class(class: ObjectClass, u: f32) -> ObjectClass {
    let idx = ((u * (NUM_CLASSES - 1) as f32) as usize).min(NUM_CLASSES - 2);
    let idx = if idx >= class.index() { idx + 1 } else { idx };
    ObjectClass::new(idx)
}

/// A deterministic uniform in `[0, 1)` from a hash of the inputs
/// (splitmix64). Used for temporally persistent stochastic outcomes.
fn persistent_uniform(stream: u64, obj: u32, epoch: u32, salt: u64) -> f32 {
    let mut z = stream
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((obj as u64) << 32 | epoch as u64)
        .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 40) as f32 / (1u64 << 24) as f32
}

/// Sigmoid.
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Approximate standard normal (Irwin–Hall sum of 12 uniforms).
pub(crate) fn randn(rng: &mut impl Rng) -> f32 {
    let s: f32 = (0..12).map(|_| rng.gen::<f32>()).sum();
    s - 6.0
}

/// Poisson sample by inversion (fine for the small rates used here).
fn poisson(lambda: f32, rng: &mut impl Rng) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0f32;
    loop {
        p *= rng.gen::<f32>();
        if p <= l || k > 50 {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_video::{Video, VideoSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn video() -> Video {
        Video::generate(VideoSpec {
            id: 0,
            seed: 61,
            width: 640.0,
            height: 480.0,
            num_frames: 200,
        })
    }

    /// Mean recall of true objects over many frames under a config.
    fn mean_recall(family: DetectorFamily, cfg: DetectorConfig, seed: u64) -> f32 {
        let v = video();
        let sim = DetectorSim::new(family);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut hits = 0usize;
        let mut total = 0usize;
        for f in v.frames.iter() {
            let out = sim.detect(f, cfg, &mut rng);
            let detected: std::collections::BTreeSet<u32> =
                out.detections.iter().filter_map(|d| d.gt_id).collect();
            total += f.objects.len();
            hits += f
                .objects
                .iter()
                .filter(|o| detected.contains(&o.id))
                .count();
        }
        hits as f32 / total.max(1) as f32
    }

    #[test]
    fn bigger_shape_improves_recall() {
        let small = mean_recall(DetectorFamily::FasterRcnn, DetectorConfig::new(224, 100), 1);
        let big = mean_recall(DetectorFamily::FasterRcnn, DetectorConfig::new(576, 100), 1);
        assert!(big > small + 0.03, "big {big} vs small {small}");
    }

    #[test]
    fn more_proposals_improve_recall() {
        let few = mean_recall(DetectorFamily::FasterRcnn, DetectorConfig::new(448, 1), 2);
        let many = mean_recall(DetectorFamily::FasterRcnn, DetectorConfig::new(448, 100), 2);
        assert!(many > few + 0.05, "many {many} vs few {few}");
    }

    #[test]
    fn detections_stay_inside_frame() {
        let v = video();
        let sim = DetectorSim::new(DetectorFamily::FasterRcnn);
        let mut rng = StdRng::seed_from_u64(3);
        for f in v.frames.iter().take(50) {
            let out = sim.detect(f, DetectorConfig::new(576, 100), &mut rng);
            for d in &out.detections {
                assert!(d.bbox.x >= 0.0 && d.bbox.right() <= f.width + 1e-3);
                assert!(d.bbox.y >= 0.0 && d.bbox.bottom() <= f.height + 1e-3);
                assert!((0.0..=1.0).contains(&d.score));
            }
        }
    }

    #[test]
    fn detections_are_sorted_by_score() {
        let v = video();
        let sim = DetectorSim::new(DetectorFamily::FasterRcnn);
        let mut rng = StdRng::seed_from_u64(4);
        let out = sim.detect(&v.frames[0], DetectorConfig::new(576, 100), &mut rng);
        for w in out.detections.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn proposal_logits_have_cpop_width() {
        let v = video();
        let sim = DetectorSim::new(DetectorFamily::FasterRcnn);
        let mut rng = StdRng::seed_from_u64(5);
        let out = sim.detect(&v.frames[0], DetectorConfig::new(448, 20), &mut rng);
        assert!(!out.proposal_logits.is_empty());
        for l in &out.proposal_logits {
            assert_eq!(l.len(), NUM_CLASSES + 1);
        }
    }

    #[test]
    fn efficientdet_d3_beats_frcnn_recall() {
        let cfg = DetectorConfig::new(576, 100);
        let frcnn = mean_recall(DetectorFamily::FasterRcnn, cfg, 6);
        let d3 = mean_recall(DetectorFamily::EfficientDetD3, cfg, 6);
        assert!(d3 > frcnn, "d3 {d3} vs frcnn {frcnn}");
    }

    #[test]
    fn detection_is_reproducible_per_seed() {
        let v = video();
        let sim = DetectorSim::new(DetectorFamily::FasterRcnn);
        let run = || {
            let mut rng = StdRng::seed_from_u64(7);
            sim.detect(&v.frames[10], DetectorConfig::new(448, 20), &mut rng)
                .detections
        };
        assert_eq!(run(), run());
    }

    /// Detection outcomes must be temporally persistent: within one
    /// 12-frame epoch an object's detected/missed status cannot flicker,
    /// whatever the RNG does.
    #[test]
    fn detection_outcome_is_stable_within_an_epoch() {
        let v = video();
        let sim = DetectorSim::new(DetectorFamily::FasterRcnn);
        let cfg = DetectorConfig::new(320, 20);
        // Pick an object alive during frames 12..24 (one epoch).
        let epoch_frames = &v.frames[12..24];
        let always_present: Vec<u32> = epoch_frames[0]
            .objects
            .iter()
            .map(|o| o.id)
            .filter(|id| {
                epoch_frames
                    .iter()
                    .all(|f| f.objects.iter().any(|o| o.id == *id))
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(11);
        let mut status: BTreeMap<u32, Vec<bool>> = BTreeMap::new();
        for f in epoch_frames {
            let out = sim.detect(f, cfg, &mut rng);
            let det: std::collections::BTreeSet<u32> =
                out.detections.iter().filter_map(|d| d.gt_id).collect();
            for &id in &always_present {
                status.entry(id).or_default().push(det.contains(&id));
            }
        }
        // Within the epoch, detectability can only change because p_det
        // itself drifts across the detection threshold (speed/size change
        // slowly). Flickering (multiple alternations) must not happen.
        for (id, seq) in status {
            let alternations = seq.windows(2).filter(|w| w[0] != w[1]).count();
            assert!(
                alternations <= 1,
                "object {id} flickered within an epoch: {seq:?}"
            );
        }
    }

    use std::collections::BTreeMap;

    /// Two branches run on the same frame share detection outcomes in a
    /// monotone way: the higher-recall branch detects a superset of the
    /// objects (common random numbers across branches).
    #[test]
    fn higher_recall_branch_detects_a_superset() {
        let v = video();
        let sim = DetectorSim::new(DetectorFamily::FasterRcnn);
        let mut rng = StdRng::seed_from_u64(12);
        for f in v.frames.iter().take(60) {
            let weak: std::collections::BTreeSet<u32> = sim
                .detect(f, DetectorConfig::new(224, 100), &mut rng)
                .detections
                .iter()
                .filter_map(|d| d.gt_id)
                .collect();
            let strong: std::collections::BTreeSet<u32> = sim
                .detect(f, DetectorConfig::new(576, 100), &mut rng)
                .detections
                .iter()
                .filter_map(|d| d.gt_id)
                .collect();
            assert!(
                weak.is_subset(&strong),
                "weak branch detected objects the strong branch missed"
            );
        }
    }

    #[test]
    fn poisson_mean_is_roughly_lambda() {
        let mut rng = StdRng::seed_from_u64(8);
        let n = 20_000;
        let mean: f32 = (0..n).map(|_| poisson(1.5, &mut rng) as f32).sum::<f32>() / n as f32;
        assert!((1.3..1.7).contains(&mean), "poisson mean {mean}");
    }
}
