//! The GoF executor: tracking-by-detection over a Group-of-Frames.

use lr_device::{DeviceSim, OpError, OpUnit};
use lr_obs::{ObsSink, SpanKind};
use lr_video::FrameTruth;

use crate::branch::Branch;
use crate::detector::{Detection, DetectorFamily, DetectorOutput, DetectorSim};
use crate::latency;
use crate::tracker::TrackerSim;

/// Everything produced by running one GoF under a branch.
#[derive(Debug, Clone)]
pub struct GofResult {
    /// Detections per frame, aligned with the input frames.
    pub per_frame: Vec<Vec<Detection>>,
    /// Virtual milliseconds charged to the detector (GPU).
    pub detector_ms: f64,
    /// Virtual milliseconds charged to the tracker (CPU), summed over the
    /// GoF.
    pub tracker_ms: f64,
    /// The first frame's raw detector output: the source of the ResNet50
    /// and CPoP features.
    pub first_frame_output: DetectorOutput,
    /// Mid-GoF transient detector failures absorbed by reusing the
    /// previous frame's detections (detector-only branches).
    pub absorbed_faults: usize,
    /// Frames that coasted on stale boxes after the watchdog fired (or,
    /// in a tracker-only fallback on a detector-only branch, the whole
    /// GoF).
    pub coasted_frames: usize,
    /// Whether the `deadline_ms` watchdog of [`Mbek::run_gof`] aborted
    /// the GoF.
    pub deadline_aborted: bool,
}

impl GofResult {
    /// Total kernel time charged over the GoF.
    pub fn kernel_ms(&self) -> f64 {
        self.detector_ms + self.tracker_ms
    }

    /// Mean per-frame kernel latency over the GoF (the paper's time
    /// metric).
    pub fn mean_frame_ms(&self) -> f64 {
        self.kernel_ms() / self.per_frame.len().max(1) as f64
    }
}

/// The multi-branch execution kernel.
///
/// Holds a detector family plus the configured branch and its tracker
/// state. Switching branches is the scheduler's job (and is charged via
/// the switching-cost model in `lr-device`); `Mbek` just executes.
#[derive(Debug, Clone)]
pub struct Mbek {
    detector: DetectorSim,
    tracker: Option<TrackerSim>,
    branch: Branch,
    /// Multiplier on kernel base latencies — models implementation
    /// inefficiency of older pipelines (ApproxDet's TF-1.14 stack).
    latency_factor: f64,
}

impl Mbek {
    /// Creates an MBEK over the given detector family (the paper's MBEK
    /// uses Faster R-CNN; YOLO+/SSD+ reuse the same executor), configured
    /// on `branch`.
    pub fn new(family: DetectorFamily, branch: Branch) -> Self {
        let mut mbek = Self {
            detector: DetectorSim::new(family),
            tracker: None,
            branch,
            latency_factor: 1.0,
        };
        mbek.set_branch(branch);
        mbek
    }

    /// Scales all kernel latencies by `factor` (>= 1 models a slower
    /// implementation of the same kernels).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    pub fn with_latency_factor(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "latency factor must be positive");
        self.latency_factor = factor;
        self
    }

    /// The detector family.
    pub fn family(&self) -> DetectorFamily {
        self.detector.family()
    }

    /// Configures the execution branch, resetting tracker state.
    pub fn set_branch(&mut self, branch: Branch) {
        self.tracker = branch
            .tracker
            .map(|kind| TrackerSim::new(kind, branch.downsample));
        self.branch = branch;
    }

    /// Runs one GoF over `frames` (detector on the first frame, tracker on
    /// the rest; detector on *every* frame for detector-only branches),
    /// charging all kernel latencies to `device`.
    ///
    /// Device ops go through [`DeviceSim::run_op`], so an injected
    /// transient failure on the detection frame surfaces as the op's
    /// [`OpError`]: no detections were produced, and the wasted time is
    /// already charged. Mid-GoF detector failures (detector-only
    /// branches) are absorbed by reusing the previous frame's
    /// detections. The optional `deadline_ms` watchdog bounds the GoF's
    /// total kernel milliseconds: once exceeded (a throttle episode, a
    /// stall spike), the remaining frames coast on the last produced
    /// boxes instead of charging more device time. With no fault plan on
    /// the device the result is always `Ok`.
    ///
    /// The observer sees a `Detect` span around the detection frame
    /// (closed even when the op faults, so the wasted time is visible)
    /// and a `Track` span around the rest of the GoF. Observation only
    /// reads the virtual clock, so a [`lr_obs::NullSink`] changes nothing.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty.
    pub fn run_gof(
        &mut self,
        frames: &[FrameTruth],
        device: &mut DeviceSim,
        deadline_ms: Option<f64>,
        obs: &mut impl ObsSink,
    ) -> Result<GofResult, OpError> {
        let branch = self.branch;
        assert!(!frames.is_empty(), "empty GoF");

        let mut per_frame: Vec<Vec<Detection>> = Vec::with_capacity(frames.len());
        let mut detector_ms = 0.0;
        let mut tracker_ms = 0.0;
        let mut absorbed_faults = 0usize;
        let mut coasted_frames = 0usize;
        let mut deadline_aborted = false;

        // Detection frame. A transient failure here means the GoF has no
        // detections to track from: propagate to the caller's ladder.
        let det_base = latency::detector_base_ms(self.detector.family(), branch.detector)
            * self.latency_factor;
        obs.span_begin(SpanKind::Detect, "", device.now_ms());
        match device.run_op(OpUnit::Gpu, det_base) {
            Ok(ms) => detector_ms += ms,
            Err(e) => {
                obs.span_end(device.now_ms());
                return Err(e);
            }
        }
        let first_output = self
            .detector
            .detect(&frames[0], branch.detector, device.rng());
        per_frame.push(first_output.detections.clone());
        if let Some(tracker) = &mut self.tracker {
            tracker.reinit(&first_output.detections, &frames[0]);
        }
        obs.span_end(device.now_ms());

        // Remaining frames (one span for the whole tracked/re-detected
        // tail — per-frame spans would dwarf the trace).
        if frames.len() > 1 {
            obs.span_begin(SpanKind::Track, "", device.now_ms());
        }
        for (idx, frame) in frames.iter().enumerate().skip(1) {
            if let Some(deadline) = deadline_ms {
                if detector_ms + tracker_ms > deadline {
                    // Watchdog: the GoF has already blown its budget
                    // (throttle episode, stall spike). Coast the rest on
                    // the last produced boxes — stale accuracy beats a
                    // cascading SLO violation.
                    let last = per_frame[idx - 1].clone();
                    coasted_frames = frames.len() - idx;
                    per_frame.extend(std::iter::repeat_n(last, coasted_frames));
                    deadline_aborted = true;
                    break;
                }
            }
            match &mut self.tracker {
                Some(tracker) => {
                    let base = latency::tracker_base_ms(
                        tracker.kind(),
                        branch.downsample,
                        tracker.num_tracks(),
                    ) * self.latency_factor;
                    tracker_ms += device.charge(OpUnit::Cpu, base);
                    let boxes = tracker.step(frame, device.rng());
                    per_frame.push(boxes);
                }
                None => match device.run_op(OpUnit::Gpu, det_base) {
                    Ok(ms) => {
                        detector_ms += ms;
                        let out = self.detector.detect(frame, branch.detector, device.rng());
                        per_frame.push(out.detections);
                    }
                    Err(OpError::Transient { wasted_ms }) => {
                        // Mid-GoF failure with prior detections in hand:
                        // absorb by holding the previous frame's boxes.
                        detector_ms += wasted_ms;
                        absorbed_faults += 1;
                        per_frame.push(per_frame[idx - 1].clone());
                    }
                },
            }
        }
        if frames.len() > 1 {
            obs.span_end(device.now_ms());
        }

        Ok(GofResult {
            per_frame,
            detector_ms,
            tracker_ms,
            first_frame_output: first_output,
            absorbed_faults,
            coasted_frames,
            deadline_aborted,
        })
    }

    /// Tracker-only fallback GoF: runs `frames` with **no** detection,
    /// seeding the branch's tracker from `seed_dets` (the last known-good
    /// detections). This is the bottom rung of the pipeline's fallback
    /// ladder after a detection failure. Detector-only branches have no
    /// tracker to seed, so the whole GoF coasts on `seed_dets` unchanged
    /// (charged nothing — the detector is the thing that failed). The
    /// observer sees one `Fallback` span over the whole GoF.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty.
    pub fn run_gof_fallback(
        &mut self,
        frames: &[FrameTruth],
        device: &mut DeviceSim,
        seed_dets: &[Detection],
        obs: &mut impl ObsSink,
    ) -> GofResult {
        let branch = self.branch;
        assert!(!frames.is_empty(), "empty GoF");
        obs.span_begin(SpanKind::Fallback, "", device.now_ms());

        let mut per_frame: Vec<Vec<Detection>> = Vec::with_capacity(frames.len());
        let mut tracker_ms = 0.0;
        let mut coasted_frames = 0usize;

        match &mut self.tracker {
            Some(tracker) => {
                tracker.reinit(seed_dets, &frames[0]);
                for frame in frames {
                    let base = latency::tracker_base_ms(
                        tracker.kind(),
                        branch.downsample,
                        tracker.num_tracks(),
                    ) * self.latency_factor;
                    tracker_ms += device.charge(OpUnit::Cpu, base);
                    per_frame.push(tracker.step(frame, device.rng()));
                }
            }
            None => {
                coasted_frames = frames.len();
                per_frame.extend(std::iter::repeat_n(seed_dets.to_vec(), coasted_frames));
            }
        }

        obs.span_end(device.now_ms());
        let first_frame_output = DetectorOutput {
            detections: per_frame[0].clone(),
            proposal_logits: Vec::new(),
        };
        GofResult {
            per_frame,
            detector_ms: 0.0,
            tracker_ms,
            first_frame_output,
            absorbed_faults: 0,
            coasted_frames,
            deadline_aborted: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::TrackerKind;
    use lr_device::DeviceKind;
    use lr_obs::NullSink;
    use lr_video::{Video, VideoSpec};

    fn video() -> Video {
        Video::generate(VideoSpec {
            id: 0,
            seed: 81,
            width: 640.0,
            height: 480.0,
            num_frames: 64,
        })
    }

    #[test]
    fn tracked_gof_charges_one_detection() {
        let v = video();
        let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 1);
        let mut mbek = Mbek::new(
            DetectorFamily::FasterRcnn,
            Branch::tracked(448, 20, TrackerKind::Kcf, 8, 4),
        );
        let r = mbek
            .run_gof(&v.frames[0..8], &mut dev, None, &mut NullSink)
            .unwrap();
        assert_eq!(r.per_frame.len(), 8);
        assert!(r.detector_ms > 0.0);
        assert!(r.tracker_ms > 0.0);
        // One detection charge: far below 8x the detector cost.
        assert!(
            r.detector_ms
                < 2.0
                    * latency::detector_base_ms(
                        DetectorFamily::FasterRcnn,
                        crate::branch::DetectorConfig::new(448, 20),
                    )
        );
    }

    #[test]
    fn detector_only_branch_detects_every_frame() {
        let v = video();
        let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 2);
        let mut mbek = Mbek::new(DetectorFamily::FasterRcnn, Branch::detector_only(224, 5));
        let r = mbek
            .run_gof(&v.frames[0..4], &mut dev, None, &mut NullSink)
            .unwrap();
        assert_eq!(r.per_frame.len(), 4);
        assert_eq!(r.tracker_ms, 0.0);
        let one = latency::detector_base_ms(
            DetectorFamily::FasterRcnn,
            crate::branch::DetectorConfig::new(224, 5),
        );
        assert!(r.detector_ms > 3.0 * one, "expected ~4 detector charges");
    }

    #[test]
    fn tracked_branch_is_cheaper_per_frame_than_detector_only() {
        let v = video();
        let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 3);
        let mut mbek = Mbek::new(DetectorFamily::FasterRcnn, Branch::detector_only(448, 100));
        let dense = mbek
            .run_gof(&v.frames[0..20], &mut dev, None, &mut NullSink)
            .unwrap();

        mbek.set_branch(Branch::tracked(448, 100, TrackerKind::MedianFlow, 20, 4));
        let tracked = mbek
            .run_gof(&v.frames[0..20], &mut dev, None, &mut NullSink)
            .unwrap();

        assert!(
            tracked.mean_frame_ms() < dense.mean_frame_ms() / 3.0,
            "tracked {} vs dense {}",
            tracked.mean_frame_ms(),
            dense.mean_frame_ms()
        );
    }

    #[test]
    fn device_clock_advances_by_kernel_time() {
        let v = video();
        let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 4);
        let mut mbek = Mbek::new(
            DetectorFamily::FasterRcnn,
            Branch::tracked(320, 5, TrackerKind::Csrt, 8, 1),
        );
        let before = dev.now_ms();
        let r = mbek
            .run_gof(&v.frames[0..8], &mut dev, None, &mut NullSink)
            .unwrap();
        assert!((dev.now_ms() - before - r.kernel_ms()).abs() < 1e-6);
    }

    #[test]
    fn first_frame_output_has_proposals() {
        let v = video();
        let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 5);
        let mut mbek = Mbek::new(
            DetectorFamily::FasterRcnn,
            Branch::tracked(576, 100, TrackerKind::Kcf, 8, 4),
        );
        let r = mbek
            .run_gof(&v.frames[0..8], &mut dev, None, &mut NullSink)
            .unwrap();
        assert!(!r.first_frame_output.proposal_logits.is_empty());
    }

    #[test]
    fn certain_fault_on_detection_frame_propagates() {
        let v = video();
        let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 8);
        dev.set_fault_plan(Some(lr_device::FaultPlan::generate(
            lr_device::FaultConfig {
                transient_rate: 1.0,
                stall_rate: 0.0,
                ..lr_device::FaultConfig::moderate(11)
            },
        )));
        let mut mbek = Mbek::new(
            DetectorFamily::FasterRcnn,
            Branch::tracked(448, 20, TrackerKind::Kcf, 8, 4),
        );
        let err = mbek
            .run_gof(&v.frames[0..8], &mut dev, None, &mut NullSink)
            .unwrap_err();
        let OpError::Transient { wasted_ms } = err;
        assert!(wasted_ms > 0.0);
    }

    #[test]
    fn mid_gof_fault_is_absorbed_on_detector_only_branch() {
        let v = video();
        // Scan seeds for a plan whose first GPU draw passes but a later
        // one fails — absorption only exists for mid-GoF failures.
        let mut found = false;
        for seed in 0..64 {
            let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 9);
            dev.set_fault_plan(Some(lr_device::FaultPlan::generate(
                lr_device::FaultConfig {
                    transient_rate: 0.4,
                    stall_rate: 0.0,
                    ..lr_device::FaultConfig::moderate(seed)
                },
            )));
            let mut mbek = Mbek::new(DetectorFamily::FasterRcnn, Branch::detector_only(224, 5));
            if let Ok(r) = mbek.run_gof(&v.frames[0..8], &mut dev, None, &mut NullSink) {
                if r.absorbed_faults > 0 {
                    assert_eq!(r.per_frame.len(), 8);
                    found = true;
                    break;
                }
            }
        }
        assert!(found, "no seed produced a mid-GoF absorbed fault");
    }

    #[test]
    fn deadline_watchdog_coasts_remaining_frames() {
        let v = video();
        let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 10);
        let mut mbek = Mbek::new(
            DetectorFamily::FasterRcnn,
            Branch::tracked(448, 20, TrackerKind::Kcf, 8, 4),
        );
        let r = mbek
            .run_gof(&v.frames[0..8], &mut dev, Some(0.01), &mut NullSink)
            .unwrap();
        assert!(r.deadline_aborted);
        assert_eq!(r.coasted_frames, 7);
        assert_eq!(r.per_frame.len(), 8);
        assert_eq!(r.tracker_ms, 0.0);
    }

    #[test]
    fn fallback_gof_tracks_from_seed_detections() {
        let v = video();
        let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 11);
        let mut mbek = Mbek::new(
            DetectorFamily::FasterRcnn,
            Branch::tracked(448, 20, TrackerKind::Kcf, 8, 4),
        );
        let seeded = mbek
            .run_gof(&v.frames[0..8], &mut dev, None, &mut NullSink)
            .unwrap();
        let seed_dets = seeded.per_frame.last().unwrap().clone();
        let r = mbek.run_gof_fallback(&v.frames[8..16], &mut dev, &seed_dets, &mut NullSink);
        assert_eq!(r.per_frame.len(), 8);
        assert_eq!(r.detector_ms, 0.0);
        assert!(r.tracker_ms > 0.0);
        assert_eq!(r.coasted_frames, 0);
        assert!(r.first_frame_output.proposal_logits.is_empty());
    }

    #[test]
    fn fallback_gof_coasts_on_detector_only_branch() {
        let v = video();
        let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 12);
        let mut mbek = Mbek::new(
            DetectorFamily::FasterRcnn,
            Branch::tracked(448, 20, TrackerKind::Kcf, 8, 4),
        );
        let seeded = mbek
            .run_gof(&v.frames[0..8], &mut dev, None, &mut NullSink)
            .unwrap();
        let seed_dets = seeded.per_frame.last().unwrap().clone();
        mbek.set_branch(Branch::detector_only(224, 5));
        let before = dev.now_ms();
        let r = mbek.run_gof_fallback(&v.frames[8..16], &mut dev, &seed_dets, &mut NullSink);
        assert_eq!(r.per_frame.len(), 8);
        assert_eq!(r.coasted_frames, 8);
        assert_eq!(r.kernel_ms(), 0.0);
        assert_eq!(dev.now_ms(), before);
        assert_eq!(r.per_frame[0].len(), seed_dets.len());
    }
}
