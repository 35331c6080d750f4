//! Behavioural object-tracker simulators.
//!
//! Real trackers (MedianFlow, KCF, CSRT, sparse optical flow) propagate
//! boxes between detector runs. Their failure modes are well understood:
//! positional drift that accumulates with object speed, occasional track
//! loss (the box stops following the object), and lag in scale adaptation.
//! The simulator reproduces those processes per tracker type; downsampled
//! tracker input (`ds`) is cheaper (see `latency.rs`) but drifts faster.
//!
//! The parameters are ordered so the classic cost/robustness trade-off
//! holds: CSRT is the most robust and most expensive, MedianFlow the
//! cheapest and most fragile, with KCF and optical flow in between (and
//! optical flow especially blur-sensitive).

use rand::Rng;

use lr_video::{BBox, FrameTruth, ObjectClass};

use crate::branch::TrackerKind;
use crate::detector::{randn, Detection};

/// Drift/loss parameters per tracker type.
#[derive(Debug, Clone, Copy)]
struct TrackerParams {
    /// Per-frame positional drift as a fraction of object speed.
    drift: f32,
    /// Base per-frame track-loss probability.
    base_loss: f32,
    /// Additional loss probability per unit of relative speed.
    speed_loss: f32,
    /// Pull-back factor re-locking the track onto the object.
    lock: f32,
    /// Loss inflation per downsampling step (CSRT depends on fine
    /// spatial features and suffers most from coarse input).
    ds_loss_coeff: f32,
}

impl TrackerKind {
    fn params(self) -> TrackerParams {
        match self {
            TrackerKind::MedianFlow => TrackerParams {
                drift: 0.50,
                base_loss: 0.005,
                speed_loss: 3.0,
                lock: 0.03,
                ds_loss_coeff: 0.12,
            },
            TrackerKind::Kcf => TrackerParams {
                drift: 0.32,
                base_loss: 0.004,
                speed_loss: 2.0,
                lock: 0.05,
                ds_loss_coeff: 0.15,
            },
            // CSRT: blur-robust (low speed sensitivity) but reliant on
            // fine spatial detail, so downsampling hurts it the most.
            TrackerKind::Csrt => TrackerParams {
                drift: 0.14,
                base_loss: 0.0015,
                speed_loss: 0.9,
                lock: 0.06,
                ds_loss_coeff: 0.45,
            },
            // Optical flow: near-perfect on slow, smooth content; flow
            // constancy collapses under large displacements.
            TrackerKind::OpticalFlow => TrackerParams {
                drift: 0.10,
                base_loss: 0.002,
                speed_loss: 4.5,
                lock: 0.05,
                ds_loss_coeff: 0.08,
            },
        }
    }
}

/// A live track.
#[derive(Debug, Clone)]
struct Track {
    gt_id: Option<u32>,
    bbox: BBox,
    class: ObjectClass,
    score: f32,
    /// Offset of the tracked box center from the true center.
    offset: (f32, f32),
    /// Multiplicative scale error (0 = perfect).
    scale_err: f32,
    /// True while the track still follows its object.
    locked: bool,
    /// Accumulated loss hazard; the track fails when it crosses
    /// `loss_threshold`.
    hazard: f32,
    /// Exponential survival threshold, drawn deterministically at
    /// (re)initialization so that branch labels are comparable across
    /// branches (common random numbers) instead of re-rolling track
    /// losses i.i.d. per frame.
    loss_threshold: f32,
}

/// A tracker simulator holding the current track set.
#[derive(Debug, Clone)]
pub struct TrackerSim {
    kind: TrackerKind,
    downsample: u32,
    tracks: Vec<Track>,
}

impl TrackerSim {
    /// Creates a tracker.
    ///
    /// # Panics
    ///
    /// Panics if `downsample` is zero.
    pub(crate) fn new(kind: TrackerKind, downsample: u32) -> Self {
        assert!(downsample >= 1, "downsample must be >= 1");
        Self {
            kind,
            downsample,
            tracks: Vec::new(),
        }
    }

    /// The tracker type.
    pub(crate) fn kind(&self) -> TrackerKind {
        self.kind
    }

    /// Number of live tracks.
    pub(crate) fn num_tracks(&self) -> usize {
        self.tracks.len()
    }

    /// Re-initializes the track set from fresh detections (called on every
    /// detection frame of a GoF). `truth` is the frame the detections came
    /// from; it seeds each track's deterministic survival threshold.
    pub(crate) fn reinit(&mut self, detections: &[Detection], truth: &FrameTruth) {
        self.tracks.clear();
        self.tracks
            .extend(detections.iter().enumerate().map(|(i, d)| {
                let u = survival_uniform(
                    truth.stream_id,
                    d.gt_id.unwrap_or(0xFFFF_0000 + i as u32),
                    truth.frame_index,
                );
                Track {
                    gt_id: d.gt_id,
                    bbox: d.bbox,
                    class: d.class,
                    score: d.score,
                    offset: (0.0, 0.0),
                    scale_err: 0.0,
                    locked: true,
                    hazard: 0.0,
                    // Exponential survival: lost when the accumulated
                    // hazard exceeds -ln(u).
                    loss_threshold: -(u.max(1e-6).ln()),
                }
            }));
    }

    /// Propagates all tracks across one frame and appends the tracked
    /// boxes to `out` as detections.
    pub(crate) fn step(
        &mut self,
        truth: &FrameTruth,
        rng: &mut impl Rng,
        out: &mut Vec<Detection>,
    ) {
        let p = self.kind.params();
        let ds_drift = (self.downsample as f32).sqrt();
        let ds_loss = 1.0 + p.ds_loss_coeff * (self.downsample as f32 - 1.0);
        let short_side = truth.width.min(truth.height).max(1.0);

        for track in &mut self.tracks {
            // A frame holds a handful of objects, so a scan beats a map.
            // Scanning from the back picks the last object with a
            // duplicated id, as an id-keyed map built in order would.
            let gt = track
                .gt_id
                .and_then(|id| truth.objects.iter().rfind(|o| o.id == id));
            match gt {
                Some(obj) if track.locked => {
                    let speed = obj.speed();
                    let speed_rel = speed / short_side;
                    // Track loss grows with speed and downsampling; the
                    // hazard accumulates against the track's survival
                    // threshold (deterministic per track).
                    let p_loss = ((p.base_loss + p.speed_loss * speed_rel) * ds_loss).min(0.5);
                    track.hazard += p_loss;
                    if track.hazard >= track.loss_threshold {
                        track.locked = false;
                    } else {
                        // Drift: a random positional error proportional to
                        // how far the object moved, minus the tracker's
                        // re-locking pull.
                        let drift_mag = p.drift * speed * ds_drift;
                        track.offset.0 = track.offset.0 * (1.0 - p.lock) + randn(rng) * drift_mag;
                        track.offset.1 = track.offset.1 * (1.0 - p.lock) + randn(rng) * drift_mag;
                        // Scale adaptation lags the true size.
                        track.scale_err = track.scale_err * (1.0 - p.lock)
                            + randn(rng) * p.drift * 0.05 * ds_drift;
                        let (cx, cy) = obj.bbox.center();
                        let s = (1.0 + track.scale_err).clamp(0.5, 2.0);
                        track.bbox = BBox::from_center(
                            cx + track.offset.0,
                            cy + track.offset.1,
                            obj.bbox.w * s,
                            obj.bbox.h * s,
                        )
                        .clamped(truth.width, truth.height);
                        track.score *= 0.997;
                    }
                }
                _ => {
                    // Object gone, track lost, or false-positive track:
                    // the box goes stale and its confidence decays.
                    track.locked = false;
                    track.score *= 0.93;
                }
            }
            if track.bbox.is_valid() && track.score > 0.02 {
                out.push(Detection {
                    bbox: track.bbox,
                    class: track.class,
                    score: track.score,
                    gt_id: track.gt_id,
                });
            }
        }
    }
}

/// Deterministic uniform in `(0, 1]` for track survival (splitmix64).
fn survival_uniform(stream: u64, obj: u32, frame: u32) -> f32 {
    let mut z = stream
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(((obj as u64) << 32) | frame as u64)
        .wrapping_add(0x5175_7261_6C69_7665);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    ((z >> 40) as f32 + 1.0) / (1u64 << 24) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use crate::branch::DetectorConfig;
    use crate::detector::{DetectorFamily, DetectorSim};
    use lr_video::{Video, VideoSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One [`TrackerSim::step`]'s boxes.
    fn stepped(tracker: &mut TrackerSim, truth: &FrameTruth, rng: &mut StdRng) -> Vec<Detection> {
        let mut out = Vec::new();
        tracker.step(truth, rng, &mut out);
        out
    }

    fn video() -> Video {
        Video::generate(VideoSpec {
            id: 0,
            seed: 71,
            width: 640.0,
            height: 480.0,
            num_frames: 200,
        })
    }

    /// [`TrackerSim::step`] with the ground truth looked up in an id-keyed
    /// `BTreeMap`, built in object order once per frame.
    fn step_with_map(
        sim: &mut TrackerSim,
        truth: &FrameTruth,
        rng: &mut impl Rng,
    ) -> Vec<Detection> {
        let p = sim.kind.params();
        let ds_drift = (sim.downsample as f32).sqrt();
        let ds_loss = 1.0 + p.ds_loss_coeff * (sim.downsample as f32 - 1.0);
        let by_id: BTreeMap<u32, &lr_video::GtObject> =
            truth.objects.iter().map(|o| (o.id, o)).collect();
        let short_side = truth.width.min(truth.height).max(1.0);
        let mut out = Vec::with_capacity(sim.tracks.len());
        for track in &mut sim.tracks {
            match track.gt_id.and_then(|id| by_id.get(&id)) {
                Some(obj) if track.locked => {
                    let speed = obj.speed();
                    let speed_rel = speed / short_side;
                    let p_loss = ((p.base_loss + p.speed_loss * speed_rel) * ds_loss).min(0.5);
                    track.hazard += p_loss;
                    if track.hazard >= track.loss_threshold {
                        track.locked = false;
                    } else {
                        let drift_mag = p.drift * speed * ds_drift;
                        track.offset.0 = track.offset.0 * (1.0 - p.lock) + randn(rng) * drift_mag;
                        track.offset.1 = track.offset.1 * (1.0 - p.lock) + randn(rng) * drift_mag;
                        track.scale_err = track.scale_err * (1.0 - p.lock)
                            + randn(rng) * p.drift * 0.05 * ds_drift;
                        let (cx, cy) = obj.bbox.center();
                        let s = (1.0 + track.scale_err).clamp(0.5, 2.0);
                        track.bbox = BBox::from_center(
                            cx + track.offset.0,
                            cy + track.offset.1,
                            obj.bbox.w * s,
                            obj.bbox.h * s,
                        )
                        .clamped(truth.width, truth.height);
                        track.score *= 0.997;
                    }
                }
                _ => {
                    track.locked = false;
                    track.score *= 0.93;
                }
            }
            if track.bbox.is_valid() && track.score > 0.02 {
                out.push(Detection {
                    bbox: track.bbox,
                    class: track.class,
                    score: track.score,
                    gt_id: track.gt_id,
                });
            }
        }
        out
    }

    fn detection_bits(dets: &[Detection]) -> Vec<(Option<u32>, ObjectClass, [u32; 5])> {
        dets.iter()
            .map(|d| {
                let b = d.bbox;
                let bits = [b.x, b.y, b.w, b.h, d.score].map(f32::to_bits);
                (d.gt_id, d.class, bits)
            })
            .collect()
    }

    #[test]
    fn step_matches_the_map_lookup_bit_for_bit() {
        let det = DetectorSim::new(DetectorFamily::FasterRcnn);
        let kinds = [
            TrackerKind::MedianFlow,
            TrackerKind::Kcf,
            TrackerKind::Csrt,
            TrackerKind::OpticalFlow,
        ];
        let mut duplicated = 0;
        for seed in 0..8u64 {
            let v = Video::generate(VideoSpec {
                id: seed as u32,
                seed: 900 + seed,
                width: 640.0,
                height: 480.0,
                num_frames: 90,
            });
            let kind = kinds[seed as usize % kinds.len()];
            let ds = 1 + seed as u32 % 4;
            let mut rng = StdRng::seed_from_u64(seed);
            for start in (0..80).step_by(16) {
                let out = det.detect(&v.frames[start], DetectorConfig::new(576, 100), &mut rng);
                let mut fast = TrackerSim::new(kind, ds);
                fast.reinit(&out.detections, &v.frames[start]);
                let mut reference = fast.clone();
                let mut reference_rng = rng.clone();
                for (i, f) in v.frames[start + 1..start + 10].iter().enumerate() {
                    // Every third frame repeats its first object's id on a
                    // moved, faster copy placed last.
                    let mut truth = f.clone();
                    if i % 3 == 2 {
                        if let Some(first) = truth.objects.first().cloned() {
                            let mut copy = first;
                            copy.bbox.x += 40.0;
                            copy.velocity.0 += 9.0;
                            let mut objects = truth.objects.into_vec();
                            objects.push(copy);
                            truth.objects = objects.into();
                            duplicated += 1;
                        }
                    }
                    let got = stepped(&mut fast, &truth, &mut rng);
                    let want = step_with_map(&mut reference, &truth, &mut reference_rng);
                    let what = format!("video {seed}, start {start}, frame {i}");
                    assert_eq!(detection_bits(&got), detection_bits(&want), "{what}");
                    assert_eq!(rng, reference_rng, "{what}: RNG state");
                }
            }
        }
        assert!(duplicated > 0, "no frame carried a duplicated object id");
    }

    #[test]
    fn duplicated_ids_follow_the_last_object() {
        // A hand-built frame: one tracked id appears twice, far apart; the
        // track must follow the later copy, as the map lookup does.
        let v = video();
        let start = &v.frames[0];
        let obj = start.objects[0].clone();
        let seed = Detection {
            bbox: obj.bbox,
            class: obj.class,
            score: 0.9,
            gt_id: Some(obj.id),
        };
        let mut far = obj.clone();
        far.bbox.x = (obj.bbox.x + 200.0) % (start.width - obj.bbox.w);
        far.velocity = (6.0, -3.0);
        let mut truth = start.clone();
        truth.frame_index += 1;
        truth.objects = vec![obj.clone(), far.clone()].into();
        let mut fast = TrackerSim::new(TrackerKind::Csrt, 1);
        fast.reinit(&[seed], start);
        let mut reference = fast.clone();
        let (mut rng, mut reference_rng) = (StdRng::seed_from_u64(8), StdRng::seed_from_u64(8));
        let got = stepped(&mut fast, &truth, &mut rng);
        let want = step_with_map(&mut reference, &truth, &mut reference_rng);
        assert_eq!(detection_bits(&got), detection_bits(&want));
        assert_eq!(rng, reference_rng);
        assert_eq!(got.len(), 1);
        assert!(got[0].bbox.iou(&far.bbox) > got[0].bbox.iou(&obj.bbox));
    }

    /// Mean IoU between tracked boxes and their ground-truth objects after
    /// propagating `horizon` frames from a detection at frame `start`.
    fn mean_iou_after(kind: TrackerKind, ds: u32, horizon: usize, seed: u64) -> f32 {
        let v = video();
        let det = DetectorSim::new(DetectorFamily::FasterRcnn);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut total = 0.0;
        let mut count = 0usize;
        for start in (0..150).step_by(30) {
            let out = det.detect(&v.frames[start], DetectorConfig::new(576, 100), &mut rng);
            let mut tracker = TrackerSim::new(kind, ds);
            tracker.reinit(&out.detections, &v.frames[start]);
            let mut boxes = Vec::new();
            for f in &v.frames[start + 1..start + 1 + horizon] {
                boxes = stepped(&mut tracker, f, &mut rng);
            }
            let truth = &v.frames[start + horizon];
            let by_id: BTreeMap<u32, &lr_video::GtObject> =
                truth.objects.iter().map(|o| (o.id, o)).collect();
            for b in &boxes {
                if let Some(obj) = b.gt_id.and_then(|id| by_id.get(&id)) {
                    total += b.bbox.iou(&obj.bbox);
                    count += 1;
                }
            }
        }
        total / count.max(1) as f32
    }

    #[test]
    fn csrt_tracks_better_than_medianflow() {
        let csrt = mean_iou_after(TrackerKind::Csrt, 1, 20, 1);
        let mf = mean_iou_after(TrackerKind::MedianFlow, 1, 20, 1);
        assert!(csrt > mf, "CSRT {csrt} vs MedianFlow {mf}");
    }

    #[test]
    fn tracking_quality_decays_with_horizon() {
        let short = mean_iou_after(TrackerKind::Kcf, 1, 3, 2);
        let long = mean_iou_after(TrackerKind::Kcf, 1, 40, 2);
        assert!(short > long, "short {short} vs long {long}");
    }

    #[test]
    fn downsampling_degrades_tracking() {
        let full = mean_iou_after(TrackerKind::Kcf, 1, 20, 3);
        let ds4 = mean_iou_after(TrackerKind::Kcf, 4, 20, 3);
        assert!(full > ds4, "full {full} vs ds4 {ds4}");
    }

    #[test]
    fn reinit_replaces_tracks() {
        let v = video();
        let det = DetectorSim::new(DetectorFamily::FasterRcnn);
        let mut rng = StdRng::seed_from_u64(4);
        let out = det.detect(&v.frames[0], DetectorConfig::new(576, 100), &mut rng);
        let mut tracker = TrackerSim::new(TrackerKind::Csrt, 1);
        tracker.reinit(&out.detections, &v.frames[0]);
        assert_eq!(tracker.num_tracks(), out.detections.len());
        tracker.reinit(&[], &v.frames[0]);
        assert_eq!(tracker.num_tracks(), 0);
    }

    #[test]
    fn stale_tracks_fade_out() {
        // A track whose object vanished decays until it stops reporting.
        let v = video();
        let det = DetectorSim::new(DetectorFamily::FasterRcnn);
        let mut rng = StdRng::seed_from_u64(5);
        let out = det.detect(&v.frames[0], DetectorConfig::new(576, 100), &mut rng);
        let mut tracker = TrackerSim::new(TrackerKind::Kcf, 1);
        tracker.reinit(&out.detections, &v.frames[0]);
        // Feed a frame with no objects: every track goes stale.
        let mut empty = v.frames[1].clone();
        empty.objects = Box::default();
        let mut last_len = usize::MAX;
        for _ in 0..120 {
            let boxes = stepped(&mut tracker, &empty, &mut rng);
            assert!(boxes.len() <= last_len.max(1));
            last_len = boxes.len();
        }
        assert_eq!(last_len, 0, "stale tracks must eventually vanish");
    }

    #[test]
    fn tracked_boxes_stay_in_frame() {
        let v = video();
        let det = DetectorSim::new(DetectorFamily::FasterRcnn);
        let mut rng = StdRng::seed_from_u64(6);
        let out = det.detect(&v.frames[0], DetectorConfig::new(576, 100), &mut rng);
        let mut tracker = TrackerSim::new(TrackerKind::MedianFlow, 4);
        tracker.reinit(&out.detections, &v.frames[0]);
        for f in &v.frames[1..60] {
            for b in stepped(&mut tracker, f, &mut rng) {
                assert!(b.bbox.x >= 0.0 && b.bbox.right() <= f.width + 1e-3);
                assert!(b.bbox.y >= 0.0 && b.bbox.bottom() <= f.height + 1e-3);
            }
        }
    }
}
