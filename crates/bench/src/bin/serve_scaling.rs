//! Serving capacity: how many concurrent camera streams one board
//! sustains, with and without SLO-aware admission control.
//!
//! Sweeps 1→32 offered streams (a Gold/Silver/Bronze mix) through the
//! `lr-serve` runtime on TX2 and AGX Xavier. Contention is endogenous:
//! each stream's slowdown is measured from the co-scheduled streams'
//! GPU occupancy, so the table shows real capacity collapse — and how
//! admission control converts it into bounded admission instead of
//! unbounded violation.
//!
//! Writes the table to `results_serve_scaling.txt` and verifies two
//! properties: a matched stream's p95 never decreases as streams are
//! added (measured on an adaptation-frozen probe replica, which
//! isolates the raw slowdown — an *adaptive* stream reconfigures to
//! cheaper branches under load, masking it), and at 32 offered streams
//! the admitted SLO-violation rate is strictly lower with admission
//! control than without.
//!
//! Usage: `cargo run --release -p lr-bench --bin serve_scaling [small|paper]`

use std::sync::Arc;

use litereconfig::{Policy, TrainedScheduler};
use lr_bench::{scale_from_args, ExperimentScale, Suite};
use lr_device::DeviceKind;
use lr_eval::TextTable;
use lr_serve::{serve_traced, ServeConfig, ServeReport, SloClass, StreamSpec};

const COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// A deterministic Gold/Silver/Bronze mix: stream `i` keeps its class
/// across sweep points, so growing `n` only *adds* load.
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

/// What one sweep point (device × admission × n) measured, pooled over
/// seed replicas to tame p95 noise.
struct Point {
    admitted: usize,
    degraded: usize,
    rejected: usize,
    latency: lr_eval::LatencyStats,
    /// The matched stream cam-00 (same video, seed, and class at every
    /// sweep point) from a probe replica with latency-model adaptation
    /// frozen: branch choices never change, so its samples isolate the
    /// raw endogenous slowdown. (In the adaptive rows, a contended
    /// scheduler reconfigures to cheaper branches, which can *lower*
    /// p95 while mAP drops — adaptation masks the load signal.)
    /// Only measured for the no-admission sweep.
    cam00_frozen: Option<lr_eval::LatencyStats>,
    violation_pct: f64,
    mean_map_pct: f64,
}

fn run_point(
    device: DeviceKind,
    admission: bool,
    n: usize,
    frames: usize,
    trained: Arc<TrainedScheduler>,
    suite: &mut Suite,
) -> Point {
    const SEEDS: [u64; 3] = [42, 43, 44];
    let specs = mixed_specs(n, frames);

    // The seed replicas (and the adaptation-frozen probe replicas) are
    // independent serve_traced runs, so fan them out. Each worker keeps
    // its own FeatureService: rasters and features are pure functions of
    // (video, frame), so cache placement changes recompute counts but
    // never values, and `par_map_init` returns reports in cell order —
    // the merged stats below are byte-identical for any worker count.
    let cells: Vec<(u64, bool)> = SEEDS
        .iter()
        .map(|&s| (s, false))
        .chain(
            (!admission)
                .then_some(SEEDS)
                .into_iter()
                .flatten()
                .map(|s| (s, true)),
        )
        .collect();
    let raster_size = suite.svc.raster_size();
    let pool = lr_pool::Pool::from_env();
    let mut runs = pool.par_map_init(
        &cells,
        || litereconfig::FeatureService::with_raster_size(raster_size),
        |svc, _, &(seed, frozen)| {
            let mut cfg = ServeConfig::new(device);
            cfg.admission_enabled = admission;
            cfg.contention_adaptive = !frozen;
            cfg.seed = seed;
            serve_traced(&specs, trained.clone(), Policy::CostBenefit, &cfg, svc).0
        },
    );
    let frozen_runs: Vec<ServeReport> = runs.split_off(SEEDS.len());
    let reports = runs;

    let mut latency = lr_eval::LatencyStats::new();
    for r in &reports {
        latency.merge(&r.admitted_latency());
    }
    let cam00_frozen = (!admission).then(|| {
        let mut stats = lr_eval::LatencyStats::new();
        for r in &frozen_runs {
            stats.merge(&r.streams[0].latency);
        }
        stats
    });
    let k = reports.len() as f64;
    Point {
        // Admission decisions depend only on the trained profile, not
        // the seed, so the counts agree across replicas.
        admitted: reports[0].admitted(),
        degraded: reports[0].degraded(),
        rejected: reports[0].rejected(),
        latency,
        cam00_frozen,
        violation_pct: reports
            .iter()
            .map(|r| r.admitted_violation_rate() * 100.0)
            .sum::<f64>()
            / k,
        mean_map_pct: reports
            .iter()
            .map(|r| r.admitted_mean_map() * 100.0)
            .sum::<f64>()
            / k,
    }
}

fn main() {
    let t0 = std::time::Instant::now();
    let scale = scale_from_args();
    let mut suite = Suite::build(scale);
    let frames = match scale {
        ExperimentScale::Small => 48,
        ExperimentScale::Paper => 240,
    };
    let trained = suite.frcnn.clone();

    let mut table = TextTable::new(&[
        "Device",
        "Offered",
        "Admission",
        "Admit/Degr/Rej",
        "Agg p50 (ms)",
        "Agg p95 (ms)",
        "Agg p99 (ms)",
        "cam-00 frozen p95 (ms)",
        "Violations (%)",
        "Mean mAP (%)",
    ]);

    let mut checks_passed = true;
    for device in [DeviceKind::JetsonTx2, DeviceKind::AgxXavier] {
        let mut viol_at_32 = [0.0f64; 2]; // [no admission, admission]
        for admission in [false, true] {
            let mut prev_p95 = 0.0f64;
            for &n in &COUNTS {
                let p = run_point(device, admission, n, frames, trained.clone(), &mut suite);
                let agg = &p.latency;
                let viol = p.violation_pct;
                table.add_row_owned(vec![
                    device.name().to_string(),
                    n.to_string(),
                    if admission { "on" } else { "off" }.to_string(),
                    format!("{}/{}/{}", p.admitted, p.degraded, p.rejected),
                    format!("{:.1}", agg.percentile(0.5)),
                    format!("{:.1}", agg.p95()),
                    format!("{:.1}", agg.p99()),
                    p.cam00_frozen
                        .as_ref()
                        .map_or_else(|| "-".to_string(), |s| format!("{:.1}", s.p95())),
                    format!("{viol:.1}"),
                    format!("{:.1}", p.mean_map_pct),
                ]);
                eprintln!(
                    "[serve_scaling] {} n={} admission={} -> p95 {:.1} ms, viol {:.1}% ({:.0}s elapsed)",
                    device.name(),
                    n,
                    admission,
                    agg.p95(),
                    viol,
                    t0.elapsed().as_secs_f64()
                );
                if n == 32 {
                    viol_at_32[admission as usize] = viol;
                }
                // Endogenous contention: adding streams can only add GPU
                // load on cam-00 (same video, seed, and class at every
                // point). With adaptation frozen its branch choices never
                // change, so each sample is the same work stretched by the
                // measured slowdown — p95 must not improve.
                if let Some(frozen) = &p.cam00_frozen {
                    if frozen.p95() + 1e-9 < prev_p95 {
                        eprintln!(
                            "[serve_scaling] CHECK FAILED: {} cam-00 frozen p95 {:.2} < {:.2} at n={}",
                            device.name(),
                            frozen.p95(),
                            prev_p95,
                            n
                        );
                        checks_passed = false;
                    }
                    prev_p95 = prev_p95.max(frozen.p95());
                }
            }
        }
        if viol_at_32[1] >= viol_at_32[0] {
            eprintln!(
                "[serve_scaling] CHECK FAILED: {} violation rate at 32 streams with admission \
                 ({:.1}%) not below without ({:.1}%)",
                device.name(),
                viol_at_32[1],
                viol_at_32[0]
            );
            checks_passed = false;
        } else {
            eprintln!(
                "[serve_scaling] {} @32 offered: violations {:.1}% (admission) vs {:.1}% (open door)",
                device.name(),
                viol_at_32[1],
                viol_at_32[0]
            );
        }
    }

    let rendered = table.render();
    println!("{rendered}");
    let artifact = format!(
        "serve_scaling: lr-serve capacity sweep ({} frames/stream, seeds 42-44 pooled, scale {:?})\n\
         Classes cycle gold(33.3ms)/silver(50ms)/bronze(100ms); contention is endogenous\n\
         (measured co-stream GPU occupancy), admission capacity 0.85. The cam-00 frozen\n\
         column is a probe replica with adaptation frozen, isolating the raw slowdown\n\
         on one matched stream.\n\n{rendered}\nchecks: {}\n",
        frames,
        scale,
        if checks_passed { "PASS" } else { "FAIL" }
    );
    std::fs::write("results_serve_scaling.txt", artifact).expect("write results_serve_scaling.txt");
    eprintln!(
        "[serve_scaling] wrote results_serve_scaling.txt in {:.0}s",
        t0.elapsed().as_secs_f64()
    );
    assert!(checks_passed, "serve_scaling acceptance checks failed");
}
