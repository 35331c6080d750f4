//! Traffic monitoring: long-running analytics where *content* shifts
//! between calm highway stretches (slow, sparse) and busy intersections
//! (fast, cluttered) — the content-regime structure the content-aware
//! accuracy model exploits.
//!
//! This example inspects the scheduler's behavior per content regime:
//! which branches it selects when the scene is calm vs busy, and which
//! content features the cost-benefit analyzer recruits.
//!
//! ```sh
//! cargo run --release --example traffic_monitor
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use litereconfig::offline::{profile_videos, OfflineConfig};
use litereconfig::pipeline::{run_adaptive, RunConfig};
use litereconfig::trainer::{train_scheduler, TrainConfig};
use litereconfig::{FeatureService, Policy};
use lr_device::DeviceKind;
use lr_kernels::branch::small_catalog;
use lr_kernels::DetectorFamily;
use lr_video::{Dataset, DatasetConfig, Split};

fn main() {
    let dataset = Dataset::new(DatasetConfig {
        train_vision: 0,
        train_scheduler: 5,
        validation: 3,
        id_offset: 10_000,
    });
    let train_videos = dataset.videos(Split::TrainScheduler);
    let feed_videos = dataset.videos(Split::Validation);

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

    // Show the regime composition of the feeds.
    println!("=== traffic feeds: content regimes over time ===");
    for v in &feed_videos {
        let mut per_regime: BTreeMap<usize, usize> = BTreeMap::new();
        for f in &v.frames {
            *per_regime.entry(f.regime.index()).or_insert(0) += 1;
        }
        let summary: Vec<String> = {
            let mut entries: Vec<_> = per_regime.into_iter().collect();
            entries.sort();
            entries
                .into_iter()
                .map(|(r, n)| format!("regime{r}:{n}f"))
                .collect()
        };
        println!("  feed {}: {}", v.spec.id, summary.join(" "));
    }

    // Run the full scheduler at 10 fps (a typical monitoring SLO) and
    // report the branch mix it settled on.
    let slo_ms = 100.0;
    let cfg = RunConfig::clean(DeviceKind::JetsonTx2, 0.0, slo_ms, 31);
    let r = run_adaptive(
        &feed_videos,
        trained.clone(),
        Policy::CostBenefit,
        &cfg,
        &mut svc,
    );
    println!("\n=== LiteReconfig @ {slo_ms} ms (TX2) ===");
    println!("mAP {:.1}%  P95 {:.1} ms", r.map_pct(), r.latency.p95());
    println!("branch usage (decisions per branch):");
    let mut counts: Vec<(u64, usize)> = r.branch_decisions.into_iter().collect();
    counts.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    for (key, count) in counts.iter().take(8) {
        if let Some(b) = trained.catalog.iter().find(|b| b.key() == *key) {
            println!("  {:>5} x {}", count, b.name());
        }
    }
    println!(
        "\nThe mix of short-GoF branches (busy intersections) and long-GoF \
         branches (calm stretches) is the content-awareness at work; a \
         static configuration would have to pick one and lose either \
         accuracy or latency headroom."
    );
}
