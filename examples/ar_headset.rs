//! AR headset: a stringent 50 fps (20 ms) objective on the Xavier-class
//! device — the paper's headline "50 fps on AGX Xavier" claim (C1).
//!
//! Compares the four LiteReconfig variants at 20 ms and shows why the
//! cost-benefit analyzer matters: the MobileNet content feature costs
//! 163 ms to use, nearly an order of magnitude over the whole budget, so
//! recruiting it blindly destroys either latency or accuracy.
//!
//! ```sh
//! cargo run --release --example ar_headset
//! ```

use std::sync::Arc;

use litereconfig::offline::{profile_videos, OfflineConfig};
use litereconfig::pipeline::{run_adaptive, RunConfig};
use litereconfig::trainer::{train_scheduler, TrainConfig};
use litereconfig::{FeatureService, Policy};
use lr_device::DeviceKind;
use lr_features::FeatureKind;
use lr_kernels::branch::small_catalog;
use lr_kernels::DetectorFamily;
use lr_video::{Dataset, DatasetConfig, Split};

fn main() {
    let dataset = Dataset::new(DatasetConfig {
        train_vision: 0,
        train_scheduler: 4,
        validation: 3,
        id_offset: 9_000,
    });
    let train_videos = dataset.videos(Split::TrainScheduler);
    let val_videos = dataset.videos(Split::Validation);

    let mut svc = FeatureService::new();
    let offline_cfg = OfflineConfig {
        snippet_len: 50,
        ..OfflineConfig::paper(small_catalog(), DetectorFamily::FasterRcnn)
    };
    let offline = profile_videos(&train_videos, &offline_cfg, &svc);
    let trained = Arc::new(train_scheduler(
        &offline,
        DetectorFamily::FasterRcnn,
        &TrainConfig::tiny(),
    ));

    let slo_ms = 20.0; // 50 fps.
    println!("=== AR headset: 50 fps object detection on AGX Xavier ===\n");
    let variants: [(&str, Policy); 4] = [
        ("LiteReconfig-MinCost", Policy::MinCost),
        (
            "LiteReconfig-MaxContent-ResNet",
            Policy::MaxContent(FeatureKind::ResNet50),
        ),
        (
            "LiteReconfig-MaxContent-MobileNet",
            Policy::MaxContent(FeatureKind::MobileNetV2),
        ),
        ("LiteReconfig (cost-benefit)", Policy::CostBenefit),
    ];
    for (label, policy) in variants {
        let cfg = RunConfig::clean(DeviceKind::AgxXavier, 0.0, slo_ms, 21);
        let r = run_adaptive(&val_videos, trained.clone(), policy, &cfg, &mut svc);
        println!(
            "{label:<36} mAP {:>5.1}%  mean {:>5.1} ms  P95 {:>5.1} ms  {}",
            r.map_pct(),
            r.latency.mean(),
            r.latency.p95(),
            if r.meets_slo(slo_ms) {
                "50 fps sustained"
            } else {
                "SLO violated"
            }
        );
    }
}
