//! The GoF executor: tracking-by-detection over a Group-of-Frames.

use lr_device::{DeviceSim, OpError, OpUnit};
use lr_obs::{ObsSink, SpanKind};
use lr_video::FrameTruth;

use crate::branch::Branch;
use crate::detector::{Detection, DetectorFamily, DetectorOutput, DetectorSim};
use crate::latency;
use crate::tracker::TrackerSim;

/// Everything produced by running one GoF under a branch.
///
/// A caller keeps one and hands it to every [`Mbek::run_gof`] and
/// [`Mbek::run_gof_fallback`], which clear and refill it: once its
/// buffers have grown, running a GoF allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct GofResult {
    /// Every frame's detections, frame after frame.
    detections: Vec<Detection>,
    /// Per frame, the end of its detections in `detections`.
    frame_ends: Vec<usize>,
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
}

impl GofResult {
    /// Total kernel time charged over the GoF.
    pub fn kernel_ms(&self) -> f64 {
        self.detector_ms + self.tracker_ms
    }

    /// Number of frames the GoF ran.
    pub(crate) fn frames(&self) -> usize {
        self.frame_ends.len()
    }

    /// Frame `i`'s detections.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a frame of the GoF.
    pub fn frame(&self, i: usize) -> &[Detection] {
        let begin = if i == 0 { 0 } else { self.frame_ends[i - 1] };
        &self.detections[begin..self.frame_ends[i]]
    }

    /// Detections per frame, aligned with the input frames.
    pub fn per_frame(&self) -> impl ExactSizeIterator<Item = &[Detection]> + '_ {
        (0..self.frames()).map(|i| self.frame(i))
    }

    /// Empties the result for the next GoF, keeping its buffers.
    fn clear(&mut self) {
        self.detections.clear();
        self.frame_ends.clear();
        self.detector_ms = 0.0;
        self.tracker_ms = 0.0;
        self.first_frame_output.detections.clear();
        self.first_frame_output.proposal_logits.clear();
        self.absorbed_faults = 0;
    }

    /// Closes the current frame: the detections pushed since the last
    /// one are its own.
    fn end_frame(&mut self) {
        self.frame_ends.push(self.detections.len());
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
    /// The detector's scratch ranking, reused across frames.
    order: Vec<usize>,
    /// A mid-GoF detection's output, reused across frames.
    frame_output: DetectorOutput,
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
            order: Vec::new(),
            frame_output: DetectorOutput::default(),
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

    /// Configures the execution branch, resetting tracker state.
    pub fn set_branch(&mut self, branch: Branch) {
        self.tracker = branch
            .tracker
            .map(|kind| TrackerSim::new(kind, branch.downsample));
        self.branch = branch;
    }

    /// Runs one GoF over `frames` (detector on the first frame, tracker on
    /// the rest; detector on *every* frame for detector-only branches),
    /// charging all kernel latencies to `device`, and writes what it
    /// produced into `out`.
    ///
    /// Device ops go through [`DeviceSim::run_op`], so an injected
    /// transient failure on the detection frame surfaces as the op's
    /// [`OpError`]: no detections were produced, the wasted time is
    /// already charged, and `out` holds nothing of use. Mid-GoF detector
    /// failures (detector-only branches) are absorbed by reusing the
    /// previous frame's detections. With no fault plan on the device the
    /// result is always `Ok`.
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
        obs: &mut impl ObsSink,
        out: &mut GofResult,
    ) -> Result<(), OpError> {
        let branch = self.branch;
        assert!(!frames.is_empty(), "empty GoF");
        out.clear();

        // Detection frame. A transient failure here means the GoF has no
        // detections to track from: propagate to the caller's ladder.
        let det_base = latency::detector_base_ms(self.detector.family(), branch.detector)
            * self.latency_factor;
        obs.span_begin(SpanKind::Detect, "", device.now_ms());
        match device.run_op(OpUnit::Gpu, det_base) {
            Ok(ms) => out.detector_ms += ms,
            Err(e) => {
                obs.span_end(device.now_ms());
                return Err(e);
            }
        }
        let first = &mut out.first_frame_output;
        self.detector.detect_into(
            &frames[0],
            branch.detector,
            device.rng(),
            &mut self.order,
            first,
        );
        out.detections.extend_from_slice(&first.detections);
        out.end_frame();
        if let Some(tracker) = &mut self.tracker {
            tracker.reinit(&out.first_frame_output.detections, &frames[0]);
        }
        obs.span_end(device.now_ms());

        // Remaining frames (one span for the whole tracked/re-detected
        // tail — per-frame spans would dwarf the trace).
        if frames.len() > 1 {
            obs.span_begin(SpanKind::Track, "", device.now_ms());
        }
        for frame in &frames[1..] {
            match &mut self.tracker {
                Some(tracker) => {
                    let base = latency::tracker_base_ms(
                        tracker.kind(),
                        branch.downsample,
                        tracker.num_tracks(),
                    ) * self.latency_factor;
                    out.tracker_ms += device.charge(OpUnit::Cpu, base);
                    tracker.step(frame, device.rng(), &mut out.detections);
                }
                None => match device.run_op(OpUnit::Gpu, det_base) {
                    Ok(ms) => {
                        out.detector_ms += ms;
                        let det = &mut self.frame_output;
                        let rng = device.rng();
                        self.detector.detect_into(
                            frame,
                            branch.detector,
                            rng,
                            &mut self.order,
                            det,
                        );
                        out.detections.extend_from_slice(&det.detections);
                    }
                    Err(OpError::Transient { wasted_ms }) => {
                        // Mid-GoF failure with prior detections in hand:
                        // absorb by holding the previous frame's boxes.
                        out.detector_ms += wasted_ms;
                        out.absorbed_faults += 1;
                        let previous = out.frames() - 1;
                        let begin = out.detections.len() - out.frame(previous).len();
                        out.detections.extend_from_within(begin..);
                    }
                },
            }
            out.end_frame();
        }
        if frames.len() > 1 {
            obs.span_end(device.now_ms());
        }
        Ok(())
    }

    /// Tracker-only fallback GoF: runs `frames` with **no** detection,
    /// seeding the branch's tracker from `seed_dets` (the last known-good
    /// detections), and writes what it produced into `out`. This is the
    /// bottom rung of the pipeline's fallback ladder after a detection
    /// failure. Detector-only branches have no tracker to seed, so the
    /// whole GoF coasts on `seed_dets` unchanged (charged nothing — the
    /// detector is the thing that failed). The observer sees one
    /// `Fallback` span over the whole GoF. The result's first-frame
    /// output holds the first frame's boxes and no proposals.
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
        out: &mut GofResult,
    ) {
        let branch = self.branch;
        assert!(!frames.is_empty(), "empty GoF");
        obs.span_begin(SpanKind::Fallback, "", device.now_ms());
        out.clear();

        match &mut self.tracker {
            Some(tracker) => {
                tracker.reinit(seed_dets, &frames[0]);
                for frame in frames {
                    let base = latency::tracker_base_ms(
                        tracker.kind(),
                        branch.downsample,
                        tracker.num_tracks(),
                    ) * self.latency_factor;
                    out.tracker_ms += device.charge(OpUnit::Cpu, base);
                    tracker.step(frame, device.rng(), &mut out.detections);
                    out.end_frame();
                }
            }
            None => {
                for _ in frames {
                    out.detections.extend_from_slice(seed_dets);
                    out.end_frame();
                }
            }
        }

        obs.span_end(device.now_ms());
        let first = &out.detections[..out.frame_ends[0]];
        out.first_frame_output.detections.extend_from_slice(first);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::TrackerKind;
    use lr_device::DeviceKind;
    use lr_obs::NullSink;
    use lr_video::{Video, VideoSpec};

    /// One GoF into a fresh result.
    fn run(
        mbek: &mut Mbek,
        frames: &[FrameTruth],
        dev: &mut DeviceSim,
    ) -> Result<GofResult, OpError> {
        let mut out = GofResult::default();
        mbek.run_gof(frames, dev, &mut NullSink, &mut out)?;
        Ok(out)
    }

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
        let r = run(&mut mbek, &v.frames[0..8], &mut dev).unwrap();
        assert_eq!(r.frames(), 8);
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
        let r = run(&mut mbek, &v.frames[0..4], &mut dev).unwrap();
        assert_eq!(r.frames(), 4);
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
        let dense = run(&mut mbek, &v.frames[0..20], &mut dev).unwrap();

        mbek.set_branch(Branch::tracked(448, 100, TrackerKind::MedianFlow, 20, 4));
        let tracked = run(&mut mbek, &v.frames[0..20], &mut dev).unwrap();

        let per_frame = |r: &GofResult| r.kernel_ms() / r.frames() as f64;
        assert!(
            per_frame(&tracked) < per_frame(&dense) / 3.0,
            "tracked {} vs dense {}",
            per_frame(&tracked),
            per_frame(&dense)
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
        let r = run(&mut mbek, &v.frames[0..8], &mut dev).unwrap();
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
        let r = run(&mut mbek, &v.frames[0..8], &mut dev).unwrap();
        assert!(!r.first_frame_output.proposal_logits.is_empty());
    }

    #[test]
    fn certain_fault_on_detection_frame_propagates() {
        let v = video();
        let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 8);
        dev.set_fault_plan(lr_device::FaultPlan::generate(lr_device::FaultConfig {
            transient_rate: 1.0,
            stall_rate: 0.0,
            ..lr_device::FaultConfig::moderate(11)
        }));
        let mut mbek = Mbek::new(
            DetectorFamily::FasterRcnn,
            Branch::tracked(448, 20, TrackerKind::Kcf, 8, 4),
        );
        let err = run(&mut mbek, &v.frames[0..8], &mut dev).unwrap_err();
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
            dev.set_fault_plan(lr_device::FaultPlan::generate(lr_device::FaultConfig {
                transient_rate: 0.4,
                stall_rate: 0.0,
                ..lr_device::FaultConfig::moderate(seed)
            }));
            let mut mbek = Mbek::new(DetectorFamily::FasterRcnn, Branch::detector_only(224, 5));
            if let Ok(r) = run(&mut mbek, &v.frames[0..8], &mut dev) {
                if r.absorbed_faults > 0 {
                    assert_eq!(r.frames(), 8);
                    found = true;
                    break;
                }
            }
        }
        assert!(found, "no seed produced a mid-GoF absorbed fault");
    }

    #[test]
    fn fallback_gof_tracks_from_seed_detections() {
        let v = video();
        let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 11);
        let mut mbek = Mbek::new(
            DetectorFamily::FasterRcnn,
            Branch::tracked(448, 20, TrackerKind::Kcf, 8, 4),
        );
        let seeded = run(&mut mbek, &v.frames[0..8], &mut dev).unwrap();
        let seed_dets = seeded.frame(seeded.frames() - 1).to_vec();
        let mut r = GofResult::default();
        mbek.run_gof_fallback(
            &v.frames[8..16],
            &mut dev,
            &seed_dets,
            &mut NullSink,
            &mut r,
        );
        assert_eq!(r.frames(), 8);
        assert_eq!(r.detector_ms, 0.0);
        assert!(r.tracker_ms > 0.0);
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
        let seeded = run(&mut mbek, &v.frames[0..8], &mut dev).unwrap();
        let seed_dets = seeded.frame(seeded.frames() - 1).to_vec();
        mbek.set_branch(Branch::detector_only(224, 5));
        let before = dev.now_ms();
        let mut r = GofResult::default();
        mbek.run_gof_fallback(
            &v.frames[8..16],
            &mut dev,
            &seed_dets,
            &mut NullSink,
            &mut r,
        );
        assert_eq!(r.frames(), 8);
        assert!(r.per_frame().all(|dets| *dets == seed_dets));
        assert_eq!(r.kernel_ms(), 0.0);
        assert_eq!(dev.now_ms(), before);
    }

    /// What the allocating loop produced for one GoF.
    struct Allocated {
        per_frame: Vec<Vec<Detection>>,
        detector_ms: f64,
        tracker_ms: f64,
        first_frame_output: DetectorOutput,
        absorbed_faults: usize,
    }

    /// The GoF loop before its buffers were reused: a fresh detector
    /// output per detection, a fresh `Vec` per frame and a clone of the
    /// first frame's detections.
    fn run_gof_allocating(
        mbek: &mut Mbek,
        frames: &[FrameTruth],
        device: &mut DeviceSim,
    ) -> Result<Allocated, OpError> {
        let branch = mbek.branch;
        let mut per_frame: Vec<Vec<Detection>> = Vec::with_capacity(frames.len());
        let (mut detector_ms, mut tracker_ms, mut absorbed_faults) = (0.0, 0.0, 0);
        let det_base = latency::detector_base_ms(mbek.detector.family(), branch.detector)
            * mbek.latency_factor;
        detector_ms += device.run_op(OpUnit::Gpu, det_base)?;
        let first_output = mbek
            .detector
            .detect(&frames[0], branch.detector, device.rng());
        per_frame.push(first_output.detections.clone());
        if let Some(tracker) = &mut mbek.tracker {
            tracker.reinit(&first_output.detections, &frames[0]);
        }
        for (idx, frame) in frames.iter().enumerate().skip(1) {
            match &mut mbek.tracker {
                Some(tracker) => {
                    let base = latency::tracker_base_ms(
                        tracker.kind(),
                        branch.downsample,
                        tracker.num_tracks(),
                    ) * mbek.latency_factor;
                    tracker_ms += device.charge(OpUnit::Cpu, base);
                    let mut boxes = Vec::new();
                    tracker.step(frame, device.rng(), &mut boxes);
                    per_frame.push(boxes);
                }
                None => match device.run_op(OpUnit::Gpu, det_base) {
                    Ok(ms) => {
                        detector_ms += ms;
                        let out = mbek.detector.detect(frame, branch.detector, device.rng());
                        per_frame.push(out.detections);
                    }
                    Err(OpError::Transient { wasted_ms }) => {
                        detector_ms += wasted_ms;
                        absorbed_faults += 1;
                        per_frame.push(per_frame[idx - 1].clone());
                    }
                },
            }
        }
        Ok(Allocated {
            per_frame,
            detector_ms,
            tracker_ms,
            first_frame_output: first_output,
            absorbed_faults,
        })
    }

    #[test]
    fn reused_buffers_give_the_allocating_loop_bit_for_bit() {
        let v = video();
        let faulty = || {
            let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 21);
            dev.set_fault_plan(lr_device::FaultPlan::generate(lr_device::FaultConfig {
                transient_rate: 0.3,
                stall_rate: 0.0,
                ..lr_device::FaultConfig::moderate(5)
            }));
            dev
        };
        let clean = || DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 21);
        let (mut faults, mut absorbed) = (0, 0);
        for make in [&clean as &dyn Fn() -> DeviceSim, &faulty] {
            for branch in crate::branch::small_catalog() {
                let (mut dev, mut reference_dev) = (make(), make());
                let mut mbek = Mbek::new(DetectorFamily::FasterRcnn, branch);
                let mut reference = mbek.clone();
                // One result reused over every GoF of the video. The
                // caller picks a GoF's frames; 5 frames give detector-only
                // branches mid-GoF detections, and a short last GoF.
                let mut out = GofResult::default();
                for start in (0..v.frames.len()).step_by(5) {
                    let frames = &v.frames[start..(start + 5).min(v.frames.len())];
                    let got = mbek.run_gof(frames, &mut dev, &mut NullSink, &mut out);
                    let want = run_gof_allocating(&mut reference, frames, &mut reference_dev);
                    let what = format!("{}, frame {start}", branch.name());
                    assert_eq!(
                        dev.now_ms().to_bits(),
                        reference_dev.now_ms().to_bits(),
                        "{what}"
                    );
                    let want = match (got, want) {
                        (Ok(()), Ok(want)) => want,
                        (Err(a), Err(b)) => {
                            assert_eq!(a, b, "{what}");
                            faults += 1;
                            continue;
                        }
                        (got, want) => panic!("{what}: {got:?} vs {:?}", want.is_ok()),
                    };
                    assert_eq!(out.frames(), want.per_frame.len(), "{what}");
                    for (i, (g, w)) in out.per_frame().zip(&want.per_frame).enumerate() {
                        assert_eq!(g, w.as_slice(), "{what}: frame {i}");
                    }
                    assert_eq!(
                        out.detector_ms.to_bits(),
                        want.detector_ms.to_bits(),
                        "{what}"
                    );
                    assert_eq!(
                        out.tracker_ms.to_bits(),
                        want.tracker_ms.to_bits(),
                        "{what}"
                    );
                    let (g, w) = (&out.first_frame_output, &want.first_frame_output);
                    assert_eq!(g.detections, w.detections, "{what}");
                    assert_eq!(g.proposal_logits, w.proposal_logits, "{what}");
                    assert_eq!(out.absorbed_faults, want.absorbed_faults, "{what}");
                    absorbed += out.absorbed_faults;
                }
            }
        }
        assert!(
            faults > 0 && absorbed > 0,
            "{faults} faults, {absorbed} absorbed"
        );
    }
}
