//! Quickstart: train a LiteReconfig scheduler and run it on a video
//! stream under a 30 fps latency objective.
//!
//! ```sh
//! cargo run --release --example quickstart
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
    // 1. A dataset: synthetic stand-in for ILSVRC VID, split into
    //    scheduler-training and validation videos.
    let dataset = Dataset::new(DatasetConfig {
        train_vision: 0,
        train_scheduler: 4,
        validation: 2,
        id_offset: 7_000,
    });
    let train_videos = dataset.videos(Split::TrainScheduler);
    let val_videos = dataset.videos(Split::Validation);
    println!(
        "generated {} training and {} validation videos",
        train_videos.len(),
        val_videos.len()
    );

    // 2. Offline phase: profile every branch of the MBEK on the training
    //    split (per-snippet mAP labels + latency observations), then train
    //    the scheduler (accuracy MLPs, latency regressions, Ben tables).
    let mut svc = FeatureService::new();
    let offline_cfg = OfflineConfig {
        snippet_len: 50,
        ..OfflineConfig::paper(small_catalog(), DetectorFamily::FasterRcnn)
    };
    println!(
        "profiling {} branches offline...",
        offline_cfg.catalog.len()
    );
    let offline = profile_videos(&train_videos, &offline_cfg, &svc);
    println!("profiled {} snippets; training scheduler...", offline.len());
    let trained = Arc::new(train_scheduler(
        &offline,
        DetectorFamily::FasterRcnn,
        &TrainConfig::tiny(),
    ));

    // 3. Online phase: stream the validation videos through the full
    //    cost-benefit scheduler on a virtual Jetson TX2 at 30 fps.
    let slo_ms = 33.3;
    let cfg = RunConfig::clean(DeviceKind::JetsonTx2, 0.0, slo_ms, 1);
    let result = run_adaptive(&val_videos, trained, Policy::CostBenefit, &cfg, &mut svc);

    println!("\n=== LiteReconfig @ {slo_ms} ms SLO (TX2, no contention) ===");
    println!("frames processed : {}", result.breakdown.frames);
    println!("mAP              : {:.1}%", result.map_pct());
    println!("mean latency     : {:.1} ms", result.latency.mean());
    println!("P95 latency      : {:.1} ms", result.latency.p95());
    println!(
        "SLO met          : {}",
        if result.meets_slo(slo_ms) {
            "yes"
        } else {
            "no"
        }
    );
    println!("branches used    : {}", result.branches_used.len());
    println!("branch switches  : {}", result.switches.len());
}
