//! TX2-calibrated base latency tables for detectors and trackers.
//!
//! All functions return milliseconds on an idle Jetson TX2; the
//! `lr-device` simulator applies device, contention, and noise factors.
//! Calibration anchors (from the paper and the ApproxDet measurements it
//! builds on):
//!
//! - Faster R-CNN spans roughly 27 ms (`224x1`) to 245 ms (`576x100`);
//! - trackers cost low single-digit ms (MedianFlow, downsampled) to tens
//!   of ms (CSRT on many objects at full resolution);
//! - the one-stage baselines are cheaper per frame than Faster R-CNN at
//!   equal shape but saturate in accuracy (see `detector.rs`).

use crate::branch::{DetectorConfig, TrackerKind};
use crate::detector::DetectorFamily;

/// Base latency of one detector inference.
pub fn detector_base_ms(family: DetectorFamily, cfg: DetectorConfig) -> f64 {
    let shape_term = (cfg.shape as f64 / 576.0).powf(1.7);
    let nprop_term = 0.22 + 0.78 * (cfg.nprop as f64 / 100.0).powf(0.6);
    match family {
        DetectorFamily::FasterRcnn => 15.0 + 230.0 * shape_term * nprop_term,
        // One-stage: no proposal stage, so nprop does not apply; the knob
        // is ignored (protocols pass nprop = 100 by convention).
        DetectorFamily::Yolo => 11.0 + 125.0 * shape_term,
        DetectorFamily::Ssd => 8.0 + 95.0 * shape_term,
        DetectorFamily::EfficientDetD0 => 138.0,
        DetectorFamily::EfficientDetD3 => 796.0,
        // AdaScale's Faster R-CNN variant without the efficiency work of
        // ApproxDet: substantially slower at equal scale (Table 3 shows
        // 227.9 ms at scale 240).
        DetectorFamily::AdaScale => 40.0 + 1000.0 * (cfg.shape as f64 / 600.0).powf(1.75),
    }
}

/// Base latency of one tracker update over a frame.
///
/// Trackers run per tracked object on the CPU; downsampling the tracker
/// input by `ds` cuts per-object cost roughly as `ds^0.8` (sub-linear:
/// fixed overheads survive downsampling).
pub(crate) fn tracker_base_ms(kind: TrackerKind, downsample: u32, num_objects: usize) -> f64 {
    let ds = (downsample.max(1) as f64).powf(0.8);
    let n = num_objects as f64;
    let (fixed, per_obj) = match kind {
        TrackerKind::MedianFlow => (0.8, 0.55),
        TrackerKind::Kcf => (1.2, 1.1),
        TrackerKind::Csrt => (4.5, 6.5),
        TrackerKind::OpticalFlow => (2.4, 0.9),
    };
    fixed + per_obj * n / ds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frcnn_latency_anchors() {
        let light = detector_base_ms(DetectorFamily::FasterRcnn, DetectorConfig::new(224, 1));
        let heavy = detector_base_ms(DetectorFamily::FasterRcnn, DetectorConfig::new(576, 100));
        assert!((25.0..32.0).contains(&light), "light {light}");
        assert!((235.0..255.0).contains(&heavy), "heavy {heavy}");
    }

    #[test]
    fn latency_is_monotone_in_shape_and_nprop() {
        let f = DetectorFamily::FasterRcnn;
        assert!(
            detector_base_ms(f, DetectorConfig::new(448, 20))
                > detector_base_ms(f, DetectorConfig::new(224, 20))
        );
        assert!(
            detector_base_ms(f, DetectorConfig::new(448, 100))
                > detector_base_ms(f, DetectorConfig::new(448, 5))
        );
    }

    #[test]
    fn one_stage_detectors_are_cheaper_than_frcnn() {
        let cfg = DetectorConfig::new(448, 100);
        let frcnn = detector_base_ms(DetectorFamily::FasterRcnn, cfg);
        assert!(detector_base_ms(DetectorFamily::Yolo, cfg) < frcnn);
        assert!(detector_base_ms(DetectorFamily::Ssd, cfg) < frcnn);
    }

    #[test]
    fn efficientdet_latencies_match_table3() {
        let cfg = DetectorConfig::new(512, 100);
        assert_eq!(detector_base_ms(DetectorFamily::EfficientDetD0, cfg), 138.0);
        assert_eq!(detector_base_ms(DetectorFamily::EfficientDetD3, cfg), 796.0);
    }

    #[test]
    fn adascale_smallest_scale_near_228ms() {
        let ms = detector_base_ms(DetectorFamily::AdaScale, DetectorConfig::new(240, 100));
        assert!((200.0..260.0).contains(&ms), "{ms}");
    }

    #[test]
    fn tracker_cost_ordering_matches_designs() {
        // CSRT is the most expensive; MedianFlow the cheapest.
        let n = 4;
        let mf = tracker_base_ms(TrackerKind::MedianFlow, 1, n);
        let kcf = tracker_base_ms(TrackerKind::Kcf, 1, n);
        let csrt = tracker_base_ms(TrackerKind::Csrt, 1, n);
        assert!(mf < kcf && kcf < csrt);
    }

    #[test]
    fn downsampling_cuts_tracker_cost() {
        let full = tracker_base_ms(TrackerKind::Csrt, 1, 6);
        let ds4 = tracker_base_ms(TrackerKind::Csrt, 4, 6);
        assert!(ds4 < full * 0.6, "ds4 {ds4} vs full {full}");
    }

    #[test]
    fn tracker_cost_scales_with_object_count() {
        assert!(tracker_base_ms(TrackerKind::Kcf, 1, 8) > tracker_base_ms(TrackerKind::Kcf, 1, 1));
    }
}
