//! The deep stand-ins' weights live exactly as long as something holds
//! them: every holder shares one copy, a service takes its handle only
//! at its first deep miss, and profiling lets go of its handles when it
//! returns.
//!
//! The binary has one test, so no other test holds a handle while it
//! counts them. CI runs it under the default worker count and under
//! `LR_POOL_THREADS=1`, where profiling's consumer runs inline.

use std::sync::Arc;

use litereconfig::offline::{profile_videos, OfflineConfig};
use litereconfig::FeatureService;
use lr_features::{DeepExtractors, FeatureKind};
use lr_kernels::branch::small_catalog;
use lr_kernels::DetectorFamily;
use lr_video::{Video, VideoSpec};

#[test]
fn deep_weights_are_shared_and_freed_with_their_last_holder() {
    let video = Video::generate(VideoSpec {
        id: 0,
        seed: 77,
        width: 640.0,
        height: 480.0,
        num_frames: 40,
    });

    // HoC and HOG take no handle, so the copy built here is freed at once.
    let mut light = FeatureService::new();
    for kind in [FeatureKind::HoC, FeatureKind::Hog] {
        assert!(light.extract_heavy(kind, &video, 0, None).is_some());
    }
    let probe = Arc::downgrade(&DeepExtractors::shared());
    assert!(
        probe.upgrade().is_none(),
        "a service that extracted only HoC and HOG holds the deep weights"
    );

    // Two live services extract through one copy.
    let mut a = FeatureService::new();
    let mut b = FeatureService::new();
    assert!(a
        .extract_heavy(FeatureKind::ResNet50, &video, 0, None)
        .is_some());
    let held_by_a = Arc::downgrade(&DeepExtractors::shared());
    assert!(b
        .extract_heavy(FeatureKind::MobileNetV2, &video, 0, None)
        .is_some());
    let mine = DeepExtractors::shared();
    let a_copy = held_by_a.upgrade().expect("service a let go of its handle");
    assert!(Arc::ptr_eq(&mine, &a_copy), "the services hold two copies");
    drop(a_copy);
    assert_eq!(
        Arc::strong_count(&mine),
        3,
        "services a and b and this test hold the one copy"
    );
    drop((a, b));
    assert_eq!(Arc::strong_count(&mine), 1);

    // Profiling extracts both deep features and keeps no handle.
    let earlier = Arc::downgrade(&mine);
    let cfg = OfflineConfig {
        snippet_len: 20,
        catalog: small_catalog(),
        family: DetectorFamily::FasterRcnn,
        seed: 5,
    };
    let dataset = profile_videos(std::slice::from_ref(&video), &cfg, &light);
    assert_eq!(dataset.len(), 2);
    for record in &dataset.records {
        assert!(record.heavy.contains_key(&FeatureKind::ResNet50));
        assert!(record.heavy.contains_key(&FeatureKind::MobileNetV2));
    }
    assert_eq!(Arc::strong_count(&mine), 1, "profiling kept a handle");
    drop(mine);
    assert!(
        earlier.upgrade().is_none(),
        "the deep weights outlived their last holder"
    );
}
