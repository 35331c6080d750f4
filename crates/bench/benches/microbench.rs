//! Micro-benchmarks over the hot paths of the reproduction: feature
//! extraction, accuracy-model inference, the scheduler decision, GoF
//! execution, and mAP evaluation.
//!
//! Criterion is unavailable offline, so this is a plain `harness = false`
//! binary with a warmup + timed-loop harness. Run with
//! `cargo bench -p lr-bench` (always in release).

use std::sync::Arc;
use std::time::Instant;

use litereconfig::offline::{profile_videos, OfflineConfig};
use litereconfig::trainer::{train_scheduler, TrainConfig};
use litereconfig::{FeatureService, Policy, Scheduler};
use lr_device::{DeviceKind, DeviceSim};
use lr_eval::MapAccumulator;
use lr_features::FeatureKind;
use lr_kernels::branch::small_catalog;
use lr_kernels::{Branch, DetectorFamily, Mbek, TrackerKind};
use lr_obs::NullSink;
use lr_video::raster::rasterize;
use lr_video::{Dataset, DatasetConfig, Split, Video, VideoSpec};

/// Times `f` over enough iterations to fill ~200 ms after a short warmup
/// and prints mean per-iteration time.
fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    // Warmup and calibration: measure one call to pick the iteration count.
    let t0 = Instant::now();
    std::hint::black_box(f());
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let iters = ((0.2 / once) as usize).clamp(10, 100_000);
    let t1 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let per_iter = t1.elapsed().as_secs_f64() / iters as f64;
    let (val, unit) = if per_iter >= 1e-3 {
        (per_iter * 1e3, "ms")
    } else {
        (per_iter * 1e6, "us")
    };
    println!("{name:<28} {val:>10.3} {unit}/iter  ({iters} iters)");
}

fn test_video() -> Video {
    Video::generate(VideoSpec {
        id: 0,
        seed: 4242,
        width: 640.0,
        height: 480.0,
        num_frames: 64,
    })
}

fn bench_features() {
    let v = test_video();
    let img = rasterize(&v.frames[0], &v.style, 64);
    let mut svc = FeatureService::new();
    let logits = vec![vec![0.0f32; 31]; 8];

    bench("features/rasterize_64", || {
        rasterize(&v.frames[0], &v.style, 64)
    });
    bench("features/hoc", || lr_features::hoc::extract(&img));
    bench("features/hog", || lr_features::hog::extract(&img));
    bench("features/resnet50_standin", || {
        svc.extract_heavy(FeatureKind::ResNet50, &v, 0, None)
    });
    bench("features/cpop", || lr_features::cpop::cpop_vector(&logits));
}

fn bench_kernels() {
    let v = test_video();
    let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 1);
    let mut mbek = Mbek::new(
        DetectorFamily::FasterRcnn,
        Branch::tracked(448, 100, TrackerKind::Csrt, 8, 4),
    );

    bench("kernels/gof_8_frames", || {
        mbek.run_gof(&v.frames[0..8], &mut dev, None, &mut NullSink)
    });
    let det = lr_kernels::DetectorSim::new(DetectorFamily::FasterRcnn);
    bench("kernels/detect_frame", || {
        det.detect(
            &v.frames[0],
            lr_kernels::DetectorConfig::new(448, 100),
            dev.rng(),
        )
    });
}

fn bench_scheduler() {
    let dataset = Dataset::new(DatasetConfig {
        train_vision: 0,
        train_scheduler: 2,
        validation: 0,
        id_offset: 30_000,
    });
    let train = dataset.videos(Split::TrainScheduler);
    let mut svc = FeatureService::new();
    let cfg = OfflineConfig {
        snippet_len: 50,
        ..OfflineConfig::paper(small_catalog(), DetectorFamily::FasterRcnn)
    };
    let ds = profile_videos(&train, &cfg, &mut svc);
    let trained = Arc::new(train_scheduler(
        &ds,
        DetectorFamily::FasterRcnn,
        &TrainConfig::tiny(),
    ));
    let v = test_video();
    let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 2);

    {
        let mut s = Scheduler::new(trained.clone(), Policy::MinCost, 50.0);
        bench("scheduler/decide_mincost", || {
            s.decide(&v, 0, &[], &mut svc, &mut dev, &mut NullSink)
        });
    }
    {
        let mut s = Scheduler::new(trained.clone(), Policy::CostBenefit, 50.0);
        bench("scheduler/decide_cost_benefit", || {
            s.decide(&v, 0, &[], &mut svc, &mut dev, &mut NullSink)
        });
    }
    let light_model = &trained.accuracy[&FeatureKind::Light];
    bench("scheduler/accuracy_mlp_infer", || {
        light_model.predict(&[0.4, 0.3, 0.2, 0.01], None)
    });
}

fn bench_eval() {
    let v = test_video();
    let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 3);
    let det = lr_kernels::DetectorSim::new(DetectorFamily::FasterRcnn);
    let frames: Vec<_> = v
        .frames
        .iter()
        .map(|f| {
            let out = det.detect(f, lr_kernels::DetectorConfig::new(448, 100), dev.rng());
            (
                litereconfig::offline::to_gt_boxes(f),
                litereconfig::offline::to_pred_boxes(&out.detections),
            )
        })
        .collect();

    bench("eval/map_64_frames", || {
        let mut acc = MapAccumulator::new();
        for (gt, pred) in &frames {
            acc.add_frame(gt, pred);
        }
        acc.finalize(0.5).map
    });
}

fn main() {
    println!("{:-<60}", "");
    bench_features();
    bench_kernels();
    bench_scheduler();
    bench_eval();
    println!("{:-<60}", "");
}
