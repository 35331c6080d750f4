//! End-to-end check of the endogenous contention loop: co-scheduling
//! streams on one device must slow each of them down relative to
//! running alone, because each stream's measured GPU occupancy becomes
//! the others' contention.

use std::sync::Arc;

use litereconfig::offline::{profile_videos, OfflineConfig};
use litereconfig::{train_scheduler, TrainConfig};
use litereconfig::{FeatureService, Policy, TrainedScheduler};
use lr_device::DeviceKind;
use lr_kernels::branch::small_catalog;
use lr_kernels::DetectorFamily;
use lr_serve::{serve_traced, ServeConfig, SloClass, StreamSpec};
use lr_video::{Video, VideoSpec};

fn trained() -> Arc<TrainedScheduler> {
    let videos: Vec<Video> = (0..2)
        .map(|i| {
            Video::generate(VideoSpec {
                id: 870 + i,
                seed: 6_870 + i as u64,
                width: 640.0,
                height: 480.0,
                num_frames: 60,
            })
        })
        .collect();
    let cfg = OfflineConfig {
        snippet_len: 30,
        catalog: small_catalog(),
        family: DetectorFamily::FasterRcnn,
        seed: 77,
    };
    let ds = profile_videos(&videos, &cfg, &FeatureService::new());
    Arc::new(train_scheduler(
        &ds,
        DetectorFamily::FasterRcnn,
        &TrainConfig::tiny(),
    ))
}

#[test]
fn two_co_scheduled_streams_each_observe_higher_gof_latency_than_alone() {
    let t = trained();
    let mut svc = FeatureService::new();
    // Tight SLO classes keep the streams busy (short frame periods), so
    // their occupancy windows genuinely overlap.
    let a = StreamSpec::synthetic(0, SloClass::Gold, 64);
    let b = StreamSpec::synthetic(1, SloClass::Gold, 64);
    // Freeze latency-model adaptation so both runs pick the same
    // branches: the latency comparison then isolates the endogenous
    // slowdown itself. (With adaptation on, a contended scheduler
    // reconfigures to cheaper branches — trading accuracy, not time.)
    let mut cfg = ServeConfig::new(DeviceKind::JetsonTx2).without_admission();
    cfg.contention_adaptive = false;

    let a_alone = serve_traced(
        std::slice::from_ref(&a),
        t.clone(),
        Policy::MinCost,
        &cfg,
        &mut svc,
    )
    .0;
    let b_alone = serve_traced(
        std::slice::from_ref(&b),
        t.clone(),
        Policy::MinCost,
        &cfg,
        &mut svc,
    )
    .0;
    let together = serve_traced(&[a, b], t, Policy::MinCost, &cfg, &mut svc).0;

    // Alone, a stream observes no contention at all.
    assert!((a_alone.streams[0].mean_slowdown - 1.0).abs() < 1e-9);
    assert!((b_alone.streams[0].mean_slowdown - 1.0).abs() < 1e-9);

    // Together, each observes the other's load…
    for s in &together.streams {
        assert!(
            s.mean_slowdown > 1.0,
            "{} observed no contention when co-scheduled",
            s.name
        );
    }
    // …and each runs its GoFs slower than it did alone. Per-stream
    // seeds depend only on the stream itself, so each shared run is the
    // same run as its solo counterpart plus the other stream's load.
    let solo = [&a_alone.streams[0], &b_alone.streams[0]];
    for (shared, solo) in together.streams.iter().zip(solo) {
        assert!(
            shared.latency.mean() > solo.latency.mean(),
            "{}: shared mean {} ms not above solo mean {} ms",
            shared.name,
            shared.latency.mean(),
            solo.latency.mean()
        );
    }
}

#[test]
fn adaptive_schedulers_absorb_contention_by_reconfiguring() {
    let t = trained();
    let mut svc = FeatureService::new();
    let specs = vec![
        StreamSpec::synthetic(0, SloClass::Gold, 64),
        StreamSpec::synthetic(1, SloClass::Gold, 64),
    ];
    let mut frozen_cfg = ServeConfig::new(DeviceKind::JetsonTx2).without_admission();
    frozen_cfg.contention_adaptive = false;
    let adaptive_cfg = ServeConfig::new(DeviceKind::JetsonTx2).without_admission();

    let frozen = serve_traced(&specs, t.clone(), Policy::MinCost, &frozen_cfg, &mut svc).0;
    let adaptive = serve_traced(&specs, t, Policy::MinCost, &adaptive_cfg, &mut svc).0;

    // Both observe real contention, but the adaptive schedulers react to
    // it and hold their P95 at or below the frozen ones'.
    for (f, a) in frozen.streams.iter().zip(&adaptive.streams) {
        assert!(f.mean_slowdown > 1.0);
        assert!(a.mean_slowdown > 1.0);
        assert!(
            a.latency.p95() <= f.latency.p95() + 1e-9,
            "{}: adaptive p95 {} above frozen p95 {}",
            a.name,
            a.latency.p95(),
            f.latency.p95()
        );
    }
}
