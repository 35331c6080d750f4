//! Fault injection and graceful degradation: what a seeded schedule of
//! GPU thermal throttling, transient op failures, and stall spikes costs
//! end to end — and that the serving runtime absorbs every fault.
//!
//! Runs the mixed-class serving workload on TX2 and AGX Xavier twice:
//! once clean (no fault plan) and once with a moderate seeded
//! `FaultConfig`. The table contrasts mAP / p95 / SLO-violation rate and
//! reports the fault accounting (absorbed faults, degraded-GoF fraction,
//! evictions, terminal evictions) plus the backoff-driven recovery-time
//! distribution across evicted streams.
//!
//! Verified properties (the bin exits non-zero if any fails):
//! - the clean run reports zero faults, degraded GoFs, and evictions;
//! - the faulted run absorbs a nonzero number of faults without any
//!   panic — every fault lands in the fallback ladder or a typed
//!   eviction in the report;
//! - the same fault seed produces a byte-identical report under 1 and 4
//!   pool workers (the determinism contract extends to faulted runs).
//!
//! Usage: `cargo run --release -p lr-bench --bin faults [small|paper] [--check]`
//!
//! `--check` additionally compares the freshly rendered artifact against
//! the committed `results_faults.txt` and fails on any byte difference.

use std::sync::Arc;

use litereconfig::{FeatureService, Policy, TrainedScheduler};
use lr_bench::{scale_from_args, ExperimentScale, Suite};
use lr_device::{DeviceKind, FaultConfig};
use lr_eval::TextTable;
use lr_serve::{serve_traced, ServeConfig, ServeReport, SloClass, StreamSpec};

const ARTIFACT: &str = "results_faults.txt";

fn mixed_specs(n: usize, frames: usize) -> Vec<StreamSpec> {
    (0..n)
        .map(|i| {
            let class = match i % 3 {
                0 => SloClass::Gold,
                1 => SloClass::Silver,
                _ => SloClass::Bronze,
            };
            StreamSpec::synthetic(i as u32, class, frames)
        })
        .collect()
}

/// The benchmark's fault schedule: `moderate` cadence with the transient
/// rate raised enough that the eviction/backoff path exercises at small
/// scale too.
fn bench_fault(seed: u64) -> FaultConfig {
    let mut f = FaultConfig::moderate(seed);
    f.transient_rate = 0.15;
    f.stall_rate = 0.04;
    f
}

fn run_mode(
    device: DeviceKind,
    fault: Option<FaultConfig>,
    pool_threads: usize,
    specs: &[StreamSpec],
    trained: Arc<TrainedScheduler>,
    raster_size: usize,
) -> ServeReport {
    let mut cfg = ServeConfig::new(device);
    cfg.seed = 42;
    cfg.pool_threads = pool_threads;
    cfg.fault = fault;
    cfg.fault_window_gofs = 3;
    cfg.fault_rate_threshold = 0.5;
    cfg.fault_backoff_ms = 250.0;
    let mut svc = FeatureService::with_raster_size(raster_size);
    serve_traced(specs, trained, Policy::CostBenefit, &cfg, &mut svc).0
}

/// min / median / max of per-stream mean recovery time, over streams
/// that were evicted at least once.
fn recovery_distribution(report: &ServeReport) -> Option<(f64, f64, f64)> {
    let mut samples: Vec<f64> = report
        .streams
        .iter()
        .filter(|s| s.evictions > 0)
        .map(|s| s.mean_recovery_ms())
        .collect();
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    Some((
        samples[0],
        samples[samples.len() / 2],
        samples[samples.len() - 1],
    ))
}

fn main() {
    let t0 = std::time::Instant::now();
    let check = std::env::args().any(|a| a == "--check");
    let scale = scale_from_args();
    let suite = Suite::build(scale);
    let (n_streams, frames) = match scale {
        ExperimentScale::Small => (6, 96),
        ExperimentScale::Paper => (9, 240),
    };
    let specs = mixed_specs(n_streams, frames);
    let trained = suite.frcnn.clone();
    let raster_size = suite.svc.raster_size();

    let mut table = TextTable::new(&[
        "Device",
        "Mode",
        "Admit/Degr/Rej",
        "Mean mAP (%)",
        "Agg p50 (ms)",
        "Agg p95 (ms)",
        "Violations (%)",
        "Faults",
        "Degraded GoFs (%)",
        "Evictions (terminal)",
    ]);
    let mut recovery_lines = String::new();
    let mut checks_passed = true;

    for device in [DeviceKind::JetsonTx2, DeviceKind::AgxXavier] {
        for (mode, fault) in [("clean", None), ("faulted", Some(bench_fault(1717)))] {
            let report = run_mode(device, fault, 1, &specs, trained.clone(), raster_size);

            if fault.is_some() {
                // Determinism: the same fault seed must yield a
                // byte-identical report under parallel stepping.
                let parallel = run_mode(device, fault, 4, &specs, trained.clone(), raster_size);
                let a = format!("{}{}", report.format_table(), report.format_fault_table());
                let b = format!(
                    "{}{}",
                    parallel.format_table(),
                    parallel.format_fault_table()
                );
                if a != b {
                    eprintln!(
                        "[faults] CHECK FAILED: {} faulted report differs between 1 and 4 workers",
                        device.name()
                    );
                    checks_passed = false;
                }
                if report.total_faults() == 0 {
                    eprintln!(
                        "[faults] CHECK FAILED: {} faulted run absorbed zero faults",
                        device.name()
                    );
                    checks_passed = false;
                }
                match recovery_distribution(&report) {
                    Some((min, med, max)) => recovery_lines.push_str(&format!(
                        "{}: recovery per eviction min {:.0} / median {:.0} / max {:.0} ms \
                         over {} evictions ({} terminal)\n",
                        device.name(),
                        min,
                        med,
                        max,
                        report.total_evictions(),
                        report.terminal_evictions(),
                    )),
                    None => recovery_lines.push_str(&format!(
                        "{}: no stream exceeded its fault budget (0 evictions)\n",
                        device.name(),
                    )),
                }
            } else if report.total_faults() != 0
                || report.total_evictions() != 0
                || report.degraded_gof_fraction() != 0.0
            {
                eprintln!(
                    "[faults] CHECK FAILED: {} clean run reports fault activity",
                    device.name()
                );
                checks_passed = false;
            }

            let agg = report.admitted_latency();
            table.add_row_owned(vec![
                device.name().to_string(),
                mode.to_string(),
                format!(
                    "{}/{}/{}",
                    report.admitted(),
                    report.degraded(),
                    report.rejected()
                ),
                format!("{:.1}", report.admitted_mean_map() * 100.0),
                format!("{:.1}", agg.percentile(0.5)),
                format!("{:.1}", agg.p95()),
                format!("{:.1}", report.admitted_violation_rate() * 100.0),
                report.total_faults().to_string(),
                format!("{:.1}", report.degraded_gof_fraction() * 100.0),
                format!(
                    "{} ({})",
                    report.total_evictions(),
                    report.terminal_evictions()
                ),
            ]);
            eprintln!(
                "[faults] {} {} -> p95 {:.1} ms, {} faults, {} evictions ({:.0}s elapsed)",
                device.name(),
                mode,
                agg.p95(),
                report.total_faults(),
                report.total_evictions(),
                t0.elapsed().as_secs_f64()
            );
        }
    }

    let rendered = table.render();
    println!("{rendered}");
    let artifact = format!(
        "faults: seeded fault injection vs clean serving ({n_streams} streams x {frames} \
         frames, scale {scale:?})\n\
         Fault schedule: moderate cadence, transient rate 0.15, stall rate 0.04, seed 1717;\n\
         eviction after >=50% faulted GoFs in a 3-GoF window, re-admission after exponential\n\
         backoff from 250 ms. Every fault is absorbed by the fallback ladder or a typed\n\
         eviction; the same seed is byte-identical under 1 and 4 pool workers.\n\n\
         {rendered}\n{recovery_lines}checks: {}\n",
        if checks_passed { "PASS" } else { "FAIL" }
    );

    if check {
        match std::fs::read_to_string(ARTIFACT) {
            Ok(committed) if committed == artifact => {
                eprintln!("[faults] CHECK: committed {ARTIFACT} reproduced byte-identically");
            }
            Ok(_) => {
                eprintln!(
                    "[faults] CHECK FAILED: fresh artifact differs from committed {ARTIFACT}"
                );
                checks_passed = false;
            }
            Err(e) => {
                eprintln!("[faults] CHECK FAILED: cannot read committed {ARTIFACT}: {e}");
                checks_passed = false;
            }
        }
    }

    std::fs::write(ARTIFACT, &artifact).expect("write results_faults.txt");
    eprintln!(
        "[faults] wrote {ARTIFACT} in {:.0}s",
        t0.elapsed().as_secs_f64()
    );
    assert!(checks_passed, "faults acceptance checks failed");
}
