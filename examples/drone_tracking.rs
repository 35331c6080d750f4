//! Drone tracking under GPU contention: the scenario the paper's
//! contention evaluation models.
//!
//! A drone runs object detection at 20 fps while other onboard workloads
//! (SLAM, video encoding) contend for the GPU. This example shows the
//! difference between a contention-adaptive scheduler (LiteReconfig) and
//! a latency-adaptive-only baseline when contention ramps from 0% to 50%
//! mid-mission.
//!
//! ```sh
//! cargo run --release --example drone_tracking
//! ```

use std::sync::Arc;

use litereconfig::offline::{profile_videos, OfflineConfig};
use litereconfig::pipeline::{run_adaptive, RunConfig};
use litereconfig::{train_scheduler, TrainConfig};
use litereconfig::{FeatureService, Policy};
use lr_device::DeviceKind;
use lr_kernels::branch::small_catalog;
use lr_kernels::DetectorFamily;
use lr_video::{Dataset, DatasetConfig, Split};

fn main() {
    let dataset = Dataset::new(DatasetConfig {
        train_vision: 0,
        train_scheduler: 4,
        validation: 3,
        id_offset: 8_000,
    });
    let train_videos = dataset.videos(Split::TrainScheduler);
    let mission_videos = dataset.videos(Split::Validation);

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

    let slo_ms = 50.0; // 20 fps mission requirement.
    println!("=== drone mission: 20 fps object detection, AGX Xavier ===\n");
    for contention in [0.0, 50.0] {
        println!("-- GPU contention from co-located workloads: {contention:.0}% --");
        for (label, adaptive) in [
            ("LiteReconfig (contention-adaptive)", true),
            ("latency-only baseline", false),
        ] {
            let mut cfg = RunConfig::clean(DeviceKind::AgxXavier, contention, slo_ms, 11);
            cfg.contention_adaptive = adaptive;
            let r = run_adaptive(
                &mission_videos,
                trained.clone(),
                Policy::CostBenefit,
                &cfg,
                &mut svc,
            );
            println!(
                "  {label:<36} mAP {:>5.1}%  P95 {:>6.1} ms  SLO {}",
                r.map_pct(),
                r.latency.p95(),
                if r.meets_slo(slo_ms) {
                    "MET"
                } else {
                    "VIOLATED"
                }
            );
        }
        println!();
    }
    println!(
        "The adaptive scheduler senses the inflated GPU latencies through \
         its online corrections and shifts to tracker-heavy branches (the \
         trackers run on the CPU and are immune to GPU contention); the \
         frozen baseline keeps scheduling against its offline latency \
         table and blows the SLO."
    );
}
