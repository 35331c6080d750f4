//! Integration tests pinning down the scheduler's decision behavior —
//! the mechanisms behind each of the paper's claims, tested directly.

use std::sync::Arc;

use litereconfig::offline::{profile_videos, OfflineConfig};
use litereconfig::trainer::{train_scheduler, TrainConfig};
use litereconfig::{FeatureService, Policy, Scheduler, TrainedScheduler};
use lr_device::{DeviceKind, DeviceSim};
use lr_features::FeatureKind;
use lr_kernels::branch::small_catalog;
use lr_kernels::DetectorFamily;
use lr_obs::NullSink;
use lr_video::{Dataset, DatasetConfig, Split, Video};

fn build() -> (Arc<TrainedScheduler>, Video, FeatureService) {
    let dataset = Dataset::new(DatasetConfig {
        train_vision: 0,
        train_scheduler: 3,
        validation: 1,
        id_offset: 40_000,
    });
    let train = dataset.videos(Split::TrainScheduler);
    let val = dataset.video(Split::Validation, 0);
    let svc = FeatureService::new();
    let cfg = OfflineConfig {
        snippet_len: 50,
        ..OfflineConfig::paper(small_catalog(), DetectorFamily::FasterRcnn)
    };
    let ds = profile_videos(&train, &cfg, &svc);
    // The byproduct-gating tests below need content models for the
    // detector-derived features, which the default tiny config skips.
    let train_cfg = TrainConfig {
        heavy_kinds: vec![
            FeatureKind::HoC,
            FeatureKind::CPoP,
            FeatureKind::ResNet50,
            FeatureKind::MobileNetV2,
        ],
        ..TrainConfig::tiny()
    };
    let trained = Arc::new(train_scheduler(&ds, DetectorFamily::FasterRcnn, &train_cfg));
    (trained, val, svc)
}

/// The decision must always return a valid catalog index and charge a
/// plausible scheduler cost.
#[test]
fn decisions_are_well_formed_across_slos() {
    let (trained, video, mut svc) = build();
    for slo in [10.0, 20.0, 33.3, 50.0, 100.0, 500.0] {
        let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 1);
        let mut s = Scheduler::new(trained.clone(), Policy::CostBenefit, slo);
        let d = s.decide(&video, 0, &[], &mut svc, &mut dev, &mut NullSink);
        assert!(d.branch_idx < trained.catalog.len());
        assert!(d.scheduler_ms >= 0.0 && d.scheduler_ms < 500.0);
        assert!(d.predicted_kernel_ms >= 0.0);
    }
}

/// An infeasible SLO must trigger the cheapest-branch fallback, flagged
/// as infeasible.
#[test]
fn impossible_slo_falls_back_to_cheapest_branch() {
    let (trained, video, mut svc) = build();
    let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 2);
    let mut s = Scheduler::new(trained.clone(), Policy::MinCost, 0.2);
    let d = s.decide(&video, 0, &[], &mut svc, &mut dev, &mut NullSink);
    assert!(!d.feasible, "0.2 ms cannot be feasible");
    // The fallback is the branch with minimum predicted latency.
    let light = svc.light(&video, 0, &[]);
    let cheapest = (0..trained.catalog.len())
        .min_by(|&a, &b| {
            trained
                .latency
                .predict_kernel_ms(a, &light, 1.0, 1.0)
                .total_cmp(&trained.latency.predict_kernel_ms(b, &light, 1.0, 1.0))
        })
        .unwrap();
    assert_eq!(d.branch_idx, cheapest);
}

/// Detector-byproduct features become available only after a detection is
/// recorded, and the scheduler uses them afterwards.
#[test]
fn byproduct_features_unlock_after_detection() {
    let (trained, video, mut svc) = build();
    let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 3);
    let mut s = Scheduler::new(
        trained.clone(),
        Policy::MaxContent(FeatureKind::CPoP),
        100.0,
    );
    let d0 = s.decide(&video, 0, &[], &mut svc, &mut dev, &mut NullSink);
    assert!(d0.features.is_empty(), "CPoP cannot be available yet");
    s.record_detection(0, vec![[0.0; 31]; 4]);
    let d1 = s.decide(&video, 8, &[], &mut svc, &mut dev, &mut NullSink);
    assert_eq!(d1.features, vec![FeatureKind::CPoP]);
}

/// After a stream reset the byproducts are gone again.
#[test]
fn stream_reset_clears_byproducts() {
    let (trained, video, mut svc) = build();
    let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 4);
    let mut s = Scheduler::new(
        trained.clone(),
        Policy::MaxContent(FeatureKind::ResNet50),
        100.0,
    );
    s.record_detection(0, vec![[0.0; 31]; 4]);
    let before = s.decide(&video, 8, &[], &mut svc, &mut dev, &mut NullSink);
    assert!(!before.features.is_empty());
    s.reset_stream();
    let after = s.decide(&video, 8, &[], &mut svc, &mut dev, &mut NullSink);
    assert!(after.features.is_empty());
}

/// The tail-aware correction rises faster than the mean when observations
/// are volatile — the mechanism that protects the P95 under bursty
/// contention.
#[test]
fn volatile_latencies_inflate_the_correction_beyond_the_mean() {
    let (trained, _, _) = build();
    let light = vec![0.4, 0.3, 0.2, 0.01];
    let (pred_det, _) = trained.latency.predict_parts(0, &light);

    let mut steady = Scheduler::new(trained.clone(), Policy::MinCost, 50.0);
    let mut bursty = Scheduler::new(trained.clone(), Policy::MinCost, 50.0);
    for i in 0..60 {
        steady.observe_latency(0, &light, pred_det * 2.0, 0.0);
        // Same mean (2x) but alternating 1x / 3x.
        let f = if i % 2 == 0 { 1.0 } else { 3.0 };
        bursty.observe_latency(0, &light, pred_det * f, 0.0);
    }
    assert!(
        bursty.gpu_correction() > steady.gpu_correction() + 0.2,
        "bursty {} vs steady {}",
        bursty.gpu_correction(),
        steady.gpu_correction()
    );
}

/// Switching costs enter the optimizer: with the current branch set, an
/// identical-latency alternative must be penalized by the switch.
#[test]
fn committed_branch_has_zero_switch_cost() {
    let (trained, _, _) = build();
    let mut s = Scheduler::new(trained.clone(), Policy::MinCost, 50.0);
    for idx in 0..trained.catalog.len() {
        s.commit_branch(idx);
        assert_eq!(s.expected_switch_ms(idx), 0.0);
        let other = (idx + 1) % trained.catalog.len();
        assert!(s.expected_switch_ms(other) > 0.0);
    }
}

/// MaxContent must never recruit more than its single designated feature,
/// and CostBenefit never more than two (the configured cap).
#[test]
fn feature_counts_respect_policy_caps() {
    let (trained, video, mut svc) = build();
    let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 5);
    let mut max_content =
        Scheduler::new(trained.clone(), Policy::MaxContent(FeatureKind::HoC), 200.0);
    let mut cost_benefit = Scheduler::new(trained.clone(), Policy::CostBenefit, 200.0);
    for t in [0usize, 8, 16] {
        let d = max_content.decide(&video, t, &[], &mut svc, &mut dev, &mut NullSink);
        assert!(d.features.len() <= 1);
        let d = cost_benefit.decide(&video, t, &[], &mut svc, &mut dev, &mut NullSink);
        assert!(d.features.len() <= 2);
    }
}
