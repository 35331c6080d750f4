//! Multi-camera serving: four streams with mixed SLO classes share one
//! Jetson TX2 through the `lr-serve` runtime.
//!
//! One security camera needs 30 fps (Gold), two interactive feeds run
//! at 20 fps (Silver), and an analytics feed at 10 fps (Bronze). The
//! admission controller decides who gets on the device; the dispatcher
//! interleaves the admitted streams GoF-by-GoF, and every stream's GPU
//! load becomes the others' contention — each per-stream LiteReconfig
//! scheduler then reconfigures (cheaper branches, longer GoFs) to hold
//! its own SLO under the load its neighbors create.
//!
//! ```sh
//! cargo run --release --example multi_camera
//! ```

use std::sync::Arc;

use litereconfig::offline::{profile_videos, OfflineConfig};
use litereconfig::{train_scheduler, TrainConfig};
use litereconfig::{FeatureService, Policy};
use lr_device::DeviceKind;
use lr_kernels::branch::small_catalog;
use lr_kernels::DetectorFamily;
use lr_serve::{serve_traced, ServeConfig, SloClass, StreamSpec};
use lr_video::{Dataset, DatasetConfig, Split};

fn main() {
    // Offline stage: profile the MBEK and train one scheduler, shared
    // (read-only) by every stream's online scheduler.
    let dataset = Dataset::new(DatasetConfig {
        train_vision: 0,
        train_scheduler: 4,
        validation: 0,
        id_offset: 20_000,
    });
    let mut svc = FeatureService::new();
    let offline_cfg = OfflineConfig {
        snippet_len: 50,
        ..OfflineConfig::paper(small_catalog(), DetectorFamily::FasterRcnn)
    };
    let offline = profile_videos(&dataset.videos(Split::TrainScheduler), &offline_cfg, &svc);
    let trained = Arc::new(train_scheduler(
        &offline,
        DetectorFamily::FasterRcnn,
        &TrainConfig::tiny(),
    ));

    // Four cameras, three service classes.
    let specs = vec![
        StreamSpec::synthetic(0, SloClass::Gold, 96),
        StreamSpec::synthetic(1, SloClass::Silver, 96),
        StreamSpec::synthetic(2, SloClass::Silver, 96),
        StreamSpec::synthetic(3, SloClass::Bronze, 96),
    ];
    println!("=== offered streams ===");
    for s in &specs {
        println!(
            "{}  class {:<6}  SLO {:>5.1} ms  ({:.0} fps camera)",
            s.name,
            s.class.label(),
            s.class.slo_ms(),
            1_000.0 / s.class.frame_period_ms()
        );
    }

    let cfg = ServeConfig::new(DeviceKind::JetsonTx2);
    let report = serve_traced(&specs, trained, Policy::CostBenefit, &cfg, &mut svc).0;

    println!("\n=== serve report (TX2, admission on) ===");
    print!("{}", report.format_table());

    println!("\n=== reading the table ===");
    println!("- 'slow' is the mean GPU slowdown each stream observed: it is");
    println!("  measured from the other streams' GPU occupancy, not configured.");
    println!("- Each stream's scheduler saw that slowdown in its latency");
    println!("  predictions and reconfigured to keep its own SLO.");
    println!("- 'admit*' marks a stream the dispatcher degraded mid-run after");
    println!("  sustained SLO violations (backpressure).");
}
