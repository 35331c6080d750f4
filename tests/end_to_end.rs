//! Cross-crate integration tests: the full offline-train / online-run
//! pipeline, exercised end to end at a small scale.

use std::sync::Arc;

use litereconfig::offline::{profile_videos, OfflineConfig};
use litereconfig::pipeline::{run_adaptive, RunConfig};
use litereconfig::trainer::{train_scheduler, TrainConfig};
use litereconfig::{FeatureService, Policy, TrainedScheduler};
use lr_device::DeviceKind;
use lr_kernels::branch::small_catalog;
use lr_kernels::DetectorFamily;
use lr_video::{Dataset, DatasetConfig, Split, Video};

/// Builds a small trained scheduler plus validation videos (shared by the
/// tests in this file; everything is deterministic per id_offset).
fn build(id_offset: u32) -> (Arc<TrainedScheduler>, Vec<Video>, FeatureService) {
    let dataset = Dataset::new(DatasetConfig {
        train_vision: 0,
        train_scheduler: 3,
        validation: 2,
        id_offset,
    });
    let train = dataset.videos(Split::TrainScheduler);
    let val = dataset.videos(Split::Validation);
    let svc = FeatureService::new();
    let cfg = OfflineConfig {
        snippet_len: 50,
        ..OfflineConfig::paper(small_catalog(), DetectorFamily::FasterRcnn)
    };
    let ds = profile_videos(&train, &cfg, &svc);
    let trained = Arc::new(train_scheduler(
        &ds,
        DetectorFamily::FasterRcnn,
        &TrainConfig::tiny(),
    ));
    (trained, val, svc)
}

#[test]
fn full_pipeline_meets_loose_slo_with_nontrivial_accuracy() {
    let (trained, val, mut svc) = build(20_000);
    let cfg = RunConfig::clean(DeviceKind::JetsonTx2, 0.0, 100.0, 1);
    let r = run_adaptive(&val, trained, Policy::CostBenefit, &cfg, &mut svc);
    assert!(r.map > 0.1, "mAP {} too low", r.map);
    assert!(r.meets_slo(100.0), "P95 {} violates SLO", r.latency.p95());
    let frames: usize = val.iter().map(Video::len).sum();
    assert_eq!(r.breakdown.frames, frames);
}

#[test]
fn tighter_slo_gives_lower_latency() {
    let (trained, val, mut svc) = build(21_000);
    let tight = run_adaptive(
        &val,
        trained.clone(),
        Policy::MinCost,
        &RunConfig::clean(DeviceKind::JetsonTx2, 0.0, 25.0, 2),
        &mut svc,
    );
    let loose = run_adaptive(
        &val,
        trained,
        Policy::MinCost,
        &RunConfig::clean(DeviceKind::JetsonTx2, 0.0, 100.0, 2),
        &mut svc,
    );
    // At this tiny training scale the model may settle on the same cheap
    // branch under both SLOs, so allow ties — but the tight run must never
    // be meaningfully slower.
    assert!(
        tight.latency.p95() <= loose.latency.p95() + 1.0,
        "tight {} > loose {}",
        tight.latency.p95(),
        loose.latency.p95()
    );
    assert!(tight.meets_slo(25.0), "tight run violated its own SLO");
}

#[test]
fn xavier_is_faster_than_tx2_for_the_same_policy() {
    let (trained, val, mut svc) = build(22_000);
    // Identical SLO: the Xavier run should show lower or equal detector
    // time for the same decisions envelope.
    let tx2 = run_adaptive(
        &val,
        trained.clone(),
        Policy::MinCost,
        &RunConfig::clean(DeviceKind::JetsonTx2, 0.0, 50.0, 3),
        &mut svc,
    );
    let xavier = run_adaptive(
        &val,
        trained,
        Policy::MinCost,
        &RunConfig::clean(DeviceKind::AgxXavier, 0.0, 50.0, 3),
        &mut svc,
    );
    // Xavier can afford at least the accuracy of the TX2 at equal SLO
    // (it typically exceeds it), and its latency stays within the SLO.
    assert!(xavier.meets_slo(50.0));
    assert!(xavier.map > tx2.map - 0.05);
}

#[test]
fn contention_blows_up_non_adaptive_but_not_adaptive_runs() {
    let (trained, val, mut svc) = build(23_000);
    let mut cfg = RunConfig::clean(DeviceKind::JetsonTx2, 50.0, 50.0, 4);
    let adaptive = run_adaptive(&val, trained.clone(), Policy::MinCost, &cfg, &mut svc);
    cfg.contention_adaptive = false;
    let frozen = run_adaptive(&val, trained, Policy::MinCost, &cfg, &mut svc);
    assert!(
        adaptive.latency.p95() < frozen.latency.p95(),
        "adaptive {} !< frozen {}",
        adaptive.latency.p95(),
        frozen.latency.p95()
    );
}

#[test]
fn mobilenet_variant_pays_for_its_feature() {
    let (trained, val, mut svc) = build(24_000);
    let cfg = RunConfig::clean(DeviceKind::JetsonTx2, 0.0, 33.3, 5);
    let mincost = run_adaptive(&val, trained.clone(), Policy::MinCost, &cfg, &mut svc);
    let mobilenet = run_adaptive(
        &val,
        trained,
        Policy::MaxContent(lr_features::FeatureKind::MobileNetV2),
        &cfg,
        &mut svc,
    );
    // Paying 163 ms per decision under a 33 ms budget must cost either
    // latency or accuracy relative to the content-agnostic variant.
    assert!(
        mobilenet.latency.p95() > mincost.latency.p95() - 1.0 || mobilenet.map < mincost.map + 0.02
    );
}

#[test]
fn runs_are_reproducible_per_seed() {
    let (trained, val, mut svc) = build(25_000);
    let cfg = RunConfig::clean(DeviceKind::JetsonTx2, 0.0, 50.0, 6);
    let a = run_adaptive(&val, trained.clone(), Policy::MinCost, &cfg, &mut svc);
    let b = run_adaptive(&val, trained, Policy::MinCost, &cfg, &mut svc);
    assert_eq!(a.map, b.map);
    assert_eq!(a.latency.p95(), b.latency.p95());
    assert_eq!(a.switches.len(), b.switches.len());
}

#[test]
fn preheating_suppresses_switching_outliers() {
    let (trained, val, mut svc) = build(26_000);
    let mut cfg = RunConfig::clean(DeviceKind::JetsonTx2, 0.0, 50.0, 7);
    cfg.preheat = false;
    let cold = run_adaptive(&val, trained.clone(), Policy::CostBenefit, &cfg, &mut svc);
    cfg.preheat = true;
    let warm = run_adaptive(&val, trained, Policy::CostBenefit, &cfg, &mut svc);
    let outliers =
        |r: &litereconfig::RunResult| r.switches.iter().filter(|s| s.cost_ms > 500.0).count();
    assert!(
        outliers(&warm) <= outliers(&cold),
        "preheating must not add outliers"
    );
}
