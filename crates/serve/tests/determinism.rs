//! The parallel dispatcher's determinism contract: `serve_traced` must
//! produce bit-identical reports no matter how many pool workers step a
//! round, because round membership, the occupancy snapshot, and the
//! record/backpressure post-pass are all computed serially and every
//! stream owns its RNG, device clock, and feature cache.

use std::sync::Arc;

use litereconfig::offline::{profile_videos, OfflineConfig};
use litereconfig::{train_scheduler, TrainConfig};
use litereconfig::{FeatureService, Policy, TrainedScheduler};
use lr_device::DeviceKind;
use lr_kernels::branch::small_catalog;
use lr_kernels::DetectorFamily;
use lr_obs::TraceEvent;
use lr_serve::{serve_traced, ObsMode, ServeConfig, ServeReport, SloClass, StreamSpec};
use lr_video::{Video, VideoSpec};

fn trained() -> Arc<TrainedScheduler> {
    let videos: Vec<Video> = (0..2)
        .map(|i| {
            Video::generate(VideoSpec {
                id: 880 + i,
                seed: 7_880 + i as u64,
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
        seed: 88,
    };
    let ds = profile_videos(&videos, &cfg, &FeatureService::new());
    Arc::new(train_scheduler(
        &ds,
        DetectorFamily::FasterRcnn,
        &TrainConfig::tiny(),
    ))
}

/// A mixed-class offered load: every SLO class is represented so the
/// comparison covers pacing, aging, degradation, and backpressure.
fn mixed_specs(n: usize) -> Vec<StreamSpec> {
    (0..n)
        .map(|i| {
            let class = match i % 3 {
                0 => SloClass::Gold,
                1 => SloClass::Silver,
                _ => SloClass::Bronze,
            };
            StreamSpec::synthetic(i as u32, class, 40)
        })
        .collect()
}

/// Exact comparison of everything a report exposes; latency stats are
/// compared through their derived percentiles and counts, which pin the
/// underlying sample multiset for our purposes.
fn assert_reports_identical(a: &ServeReport, b: &ServeReport, label: &str) {
    assert_eq!(a.streams.len(), b.streams.len(), "{label}: stream count");
    for (x, y) in a.streams.iter().zip(&b.streams) {
        assert_eq!(x.name, y.name, "{label}");
        assert_eq!(x.decision, y.decision, "{label}: {}", x.name);
        assert_eq!(x.degraded_midrun, y.degraded_midrun, "{label}: {}", x.name);
        assert_eq!(x.frames, y.frames, "{label}: {}", x.name);
        assert_eq!(x.gofs, y.gofs, "{label}: {}", x.name);
        assert_eq!(x.map.to_bits(), y.map.to_bits(), "{label}: {} mAP", x.name);
        assert_eq!(
            x.violation_rate.to_bits(),
            y.violation_rate.to_bits(),
            "{label}: {} violation rate",
            x.name
        );
        assert_eq!(
            x.mean_slowdown.to_bits(),
            y.mean_slowdown.to_bits(),
            "{label}: {} slowdown",
            x.name
        );
        assert_eq!(
            x.latency.count(),
            y.latency.count(),
            "{label}: {} sample count",
            x.name
        );
        for pct in [0.5, 0.95, 0.99] {
            assert_eq!(
                x.latency.percentile(pct).to_bits(),
                y.latency.percentile(pct).to_bits(),
                "{label}: {} p{}",
                x.name,
                pct * 100.0
            );
        }
        assert_eq!(
            x.latency.mean().to_bits(),
            y.latency.mean().to_bits(),
            "{label}: {} mean latency",
            x.name
        );
        assert_eq!(x.faults, y.faults, "{label}: {} faults", x.name);
        assert_eq!(
            x.degraded_gofs, y.degraded_gofs,
            "{label}: {} degraded GoFs",
            x.name
        );
        assert_eq!(x.evictions, y.evictions, "{label}: {} evictions", x.name);
        assert_eq!(
            x.terminal_evicted, y.terminal_evicted,
            "{label}: {} terminal eviction",
            x.name
        );
        assert_eq!(
            x.recovery_ms_total.to_bits(),
            y.recovery_ms_total.to_bits(),
            "{label}: {} recovery time",
            x.name
        );
    }
}

#[test]
fn serve_reports_are_identical_for_one_and_four_workers() {
    let t = trained();
    let specs = mixed_specs(6);
    for device in [DeviceKind::JetsonTx2, DeviceKind::AgxXavier] {
        for seed in [1u64, 2, 3] {
            let run = |threads: usize| {
                let mut cfg = ServeConfig::new(device);
                cfg.seed = seed;
                cfg.pool_threads = threads;
                let mut svc = FeatureService::new();
                serve_traced(&specs, t.clone(), Policy::CostBenefit, &cfg, &mut svc).0
            };
            let serial = run(1);
            let parallel = run(4);
            assert_reports_identical(&serial, &parallel, &format!("{device:?} seed {seed}"));
        }
    }
}

#[test]
fn faulted_serving_is_thread_count_invariant() {
    // With fault injection live, the eviction/backoff/re-admission
    // machinery and the fallback ladder all run — the report must still
    // be bit-identical for any worker count.
    let t = trained();
    let specs = mixed_specs(6);
    let run = |threads: usize| {
        let mut cfg = ServeConfig::new(DeviceKind::JetsonTx2);
        cfg.seed = 5;
        cfg.pool_threads = threads;
        let mut fault = lr_device::FaultConfig::moderate(404);
        fault.transient_rate = 0.25;
        cfg.fault = Some(fault);
        let mut svc = FeatureService::new();
        serve_traced(&specs, t.clone(), Policy::CostBenefit, &cfg, &mut svc).0
    };
    let serial = run(1);
    assert!(
        serial.total_faults() > 0,
        "fault injection never fired; the test is vacuous"
    );
    assert!(
        serial.total_evictions() > 0,
        "no stream was evicted; the eviction path is untested"
    );
    for threads in [2, 4] {
        assert_reports_identical(
            &serial,
            &run(threads),
            &format!("faulted {threads} workers"),
        );
    }
}

#[test]
fn trace_jsonl_is_thread_count_invariant() {
    // The observability layer inherits the determinism contract: the
    // serialized trace — spans, decision records, rounds — must
    // be byte-identical for any worker count, because per-stream sinks
    // buffer privately and are drained serially in spec order.
    let t = trained();
    let specs = mixed_specs(6);
    let run = |threads: usize| {
        let mut cfg = ServeConfig::new(DeviceKind::JetsonTx2);
        cfg.seed = 21;
        cfg.pool_threads = threads;
        cfg.obs = ObsMode::Trace;
        let mut svc = FeatureService::new();
        serve_traced(&specs, t.clone(), Policy::CostBenefit, &cfg, &mut svc)
    };
    let (report_1, bundle_1) = run(1);
    let jsonl_1 = bundle_1.to_jsonl();
    assert!(
        bundle_1.decisions().next().is_some(),
        "trace produced no decision records; the test is vacuous"
    );
    assert!(
        bundle_1.spans().next().is_some(),
        "trace produced no spans; the test is vacuous"
    );
    for threads in [2, 4] {
        let (report_n, bundle_n) = run(threads);
        assert_reports_identical(&report_1, &report_n, &format!("traced {threads} workers"));
        assert_eq!(
            jsonl_1,
            bundle_n.to_jsonl(),
            "trace JSONL differs between 1 and {threads} workers"
        );
    }
}

#[test]
fn faulted_trace_jsonl_is_thread_count_invariant() {
    // Same contract with fault injection live: DetectorFault spans end
    // on the error path, fallback spans and degrade tags flow into the
    // decision records, and the serialized trace must still be
    // byte-identical for any worker count.
    let t = trained();
    let specs = mixed_specs(6);
    let run = |threads: usize| {
        let mut cfg = ServeConfig::new(DeviceKind::JetsonTx2);
        cfg.seed = 5;
        cfg.pool_threads = threads;
        cfg.obs = ObsMode::Trace;
        let mut fault = lr_device::FaultConfig::moderate(404);
        fault.transient_rate = 0.25;
        cfg.fault = Some(fault);
        let mut svc = FeatureService::new();
        serve_traced(&specs, t.clone(), Policy::CostBenefit, &cfg, &mut svc)
    };
    let (report_1, bundle_1) = run(1);
    assert!(
        report_1.total_faults() > 0,
        "fault injection never fired; the test is vacuous"
    );
    let jsonl_1 = bundle_1.to_jsonl();
    assert!(
        bundle_1.decisions().any(|d| d.faults > 0),
        "no decision record carries a fault; the test is vacuous"
    );
    for threads in [2, 4] {
        let (report_n, bundle_n) = run(threads);
        assert_reports_identical(
            &report_1,
            &report_n,
            &format!("faulted traced {threads} workers"),
        );
        assert_eq!(
            jsonl_1,
            bundle_n.to_jsonl(),
            "faulted trace JSONL differs between 1 and {threads} workers"
        );
    }
}

#[test]
fn observation_never_perturbs_the_run() {
    // The zero-overhead contract: the report must be bit-identical
    // whether observation is off or fully tracing — sinks only read the
    // virtual clock, never advance it or draw RNG.
    let t = trained();
    let specs = mixed_specs(6);
    let run = |mode: ObsMode| {
        let mut cfg = ServeConfig::new(DeviceKind::JetsonTx2);
        cfg.seed = 33;
        cfg.obs = mode;
        let mut svc = FeatureService::new();
        serve_traced(&specs, t.clone(), Policy::CostBenefit, &cfg, &mut svc)
    };
    let (report_off, bundle_off) = run(ObsMode::Off);
    let (report_trace, _) = run(ObsMode::Trace);
    assert_reports_identical(&report_off, &report_trace, "off vs trace");
    assert!(
        bundle_off.events.is_empty(),
        "Off mode must collect nothing"
    );
}

#[test]
fn trace_agrees_with_the_report() {
    // The event log is the only record lr-obs keeps, so every aggregate
    // counted from it must match what the dispatcher reports on its own
    // books: one decision record per GoF, every frame, every fault, and
    // every degraded GoF — clean and with faults injected.
    let t = trained();
    let specs = mixed_specs(6);
    for faulted in [false, true] {
        let mut cfg = ServeConfig::new(DeviceKind::JetsonTx2);
        cfg.seed = 5;
        cfg.obs = ObsMode::Trace;
        if faulted {
            cfg.fault = Some(lr_device::FaultConfig::moderate(404));
        }
        let mut svc = FeatureService::new();
        let (report, bundle) = serve_traced(&specs, t.clone(), Policy::CostBenefit, &cfg, &mut svc);
        let label = if faulted { "faulted" } else { "clean" };
        let sum = |f: fn(&lr_serve::StreamReport) -> usize| report.streams.iter().map(f).sum();
        let records: Vec<_> = bundle.decisions().collect();
        assert_eq!(records.len(), sum(|s| s.gofs), "{label}: decisions vs GoFs");
        assert_eq!(
            records.iter().map(|r| r.frames).sum::<usize>(),
            sum(|s| s.frames),
            "{label}: frames"
        );
        assert_eq!(
            records.iter().map(|r| r.faults as usize).sum::<usize>(),
            report.total_faults(),
            "{label}: faults"
        );
        assert_eq!(
            records.iter().filter(|r| r.degraded).count(),
            sum(|s| s.degraded_gofs),
            "{label}: degraded GoFs"
        );
        assert!(
            bundle
                .events
                .iter()
                .any(|e| matches!(e, TraceEvent::Round(_))),
            "{label}: no dispatch round was recorded"
        );
        if faulted {
            assert!(
                report.total_faults() > 0 && sum(|s| s.degraded_gofs) > 0,
                "no fault degraded a GoF; the faulted case is vacuous"
            );
        }
    }
}

#[test]
fn overload_without_admission_is_also_thread_count_invariant() {
    // No admission gate: everything is admitted, contention is heavy,
    // and backpressure degradation fires — the paths most sensitive to
    // ordering must still be identical under parallel stepping.
    let t = trained();
    let specs = mixed_specs(8);
    let run = |threads: usize| {
        let mut cfg = ServeConfig::new(DeviceKind::JetsonTx2).without_admission();
        cfg.seed = 11;
        cfg.pool_threads = threads;
        let mut svc = FeatureService::new();
        serve_traced(&specs, t.clone(), Policy::CostBenefit, &cfg, &mut svc).0
    };
    let serial = run(1);
    for threads in [2, 4] {
        assert_reports_identical(&serial, &run(threads), &format!("{threads} workers"));
    }
}
