//! The serving artifacts beyond the paper: the multi-stream capacity
//! sweep (`serve_scaling`), seeded fault injection (`faults`) and
//! deterministic tracing (`trace`). Each verifies its own acceptance
//! properties in-process, ends with a `checks:` line, and fails with
//! [`ReproError::ChecksFailed`] when one does not hold.

use std::fmt::Write;
use std::sync::Arc;

use litereconfig::{FeatureService, Policy, TrainedScheduler};
use lr_device::{DeviceKind, FaultConfig};
use lr_eval::{LatencyStats, TextTable};
use lr_obs::{branch_residency, budget_breakdown, switch_matrix, violation_attribution};
use lr_obs::{DecisionRecord, ObsBundle, TraceEvent};
use lr_serve::{serve_traced, ObsMode, ServeConfig, ServeReport, SloClass, StreamSpec};

use crate::repro::{Ctx, ReproError};
use crate::suite::ExperimentScale;

/// Where `trace` writes the clean trace for `examples/trace_inspect.rs`.
const JSONL_PATH: &str = "target/trace.jsonl";

/// The seed of the shared fault schedule.
const FAULT_SEED: u64 = 1717;

/// A deterministic Gold/Silver/Bronze mix: stream `i` keeps its class for
/// any `n`, so growing `n` only *adds* load.
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

/// The `faults` and `trace` workload at a scale: (streams, frames).
fn fault_workload(scale: ExperimentScale) -> (usize, usize) {
    match scale {
        ExperimentScale::Small => (6, 96),
        ExperimentScale::Paper => (9, 240),
    }
}

/// Serves the `faults`/`trace` workload once at seed 42 under the
/// dispatcher's eviction policy: a stream is evicted after >= 50% faulted
/// GoFs in a 3-GoF window, with re-admission backoff from 250 ms. `faulted` applies the shared schedule: `moderate` cadence
/// with the transient rate raised enough that the eviction/backoff path
/// runs at small scale too.
fn serve_faulted(
    device: DeviceKind,
    faulted: bool,
    pool_threads: usize,
    obs: ObsMode,
    specs: &[StreamSpec],
    trained: Arc<TrainedScheduler>,
) -> (ServeReport, ObsBundle) {
    let mut cfg = ServeConfig::new(device);
    cfg.seed = 42;
    cfg.pool_threads = pool_threads;
    cfg.obs = obs;
    cfg.fault = faulted.then(|| {
        let mut f = FaultConfig::moderate(FAULT_SEED);
        f.transient_rate = 0.15;
        f.stall_rate = 0.04;
        f
    });
    serve_traced(
        specs,
        trained,
        Policy::CostBenefit,
        &cfg,
        &mut FeatureService::new(),
    )
}

/// The report rendered to its full textual form — the identity object of
/// the determinism checks.
fn report_bytes(report: &ServeReport) -> String {
    format!("{}{}", report.format_table(), report.format_fault_table())
}

/// Collects failed acceptance checks; each is reported on stderr.
struct Checks {
    artifact: &'static str,
    passed: bool,
}

impl Checks {
    fn new(artifact: &'static str) -> Self {
        Self {
            artifact,
            passed: true,
        }
    }

    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            eprintln!("[{}] CHECK FAILED: {}", self.artifact, what());
            self.passed = false;
        }
    }

    fn line(&self) -> &'static str {
        if self.passed {
            "checks: PASS"
        } else {
            "checks: FAIL"
        }
    }

    /// The rendered artifact, or the failure that carries it.
    fn finish(self, text: String) -> Result<String, ReproError> {
        if self.passed {
            Ok(text)
        } else {
            Err(ReproError::ChecksFailed {
                artifact: self.artifact,
                text,
            })
        }
    }
}

/// What one capacity-sweep point (device × admission × n) measured,
/// pooled over seed replicas to tame p95 noise.
struct Point {
    admitted: usize,
    degraded: usize,
    rejected: usize,
    latency: LatencyStats,
    /// The matched stream cam-00 (same video, seed, and class at every
    /// sweep point) from a probe replica with latency-model adaptation
    /// frozen: branch choices never change, so its samples isolate the
    /// raw endogenous slowdown. (In the adaptive rows, a contended
    /// scheduler reconfigures to cheaper branches, which can *lower*
    /// p95 while mAP drops — adaptation masks the load signal.)
    /// Only measured for the no-admission sweep.
    cam00_frozen: Option<LatencyStats>,
    violation_pct: f64,
    mean_map_pct: f64,
}

fn run_point(
    ctx: &Ctx,
    device: DeviceKind,
    admission: bool,
    n: usize,
    frames: usize,
    trained: &Arc<TrainedScheduler>,
) -> Point {
    const SEEDS: [u64; 3] = [42, 43, 44];
    let specs = mixed_specs(n, frames);

    // The seed replicas (and the adaptation-frozen probe replicas) are
    // independent runs with per-worker feature caches; results return in
    // cell order, so the merged stats are the same for any worker count.
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
    let mut reports =
        ctx.pool
            .par_map_init(&cells, FeatureService::new, |svc, _, &(seed, frozen)| {
                let mut cfg = ServeConfig::new(device);
                cfg.admission_enabled = admission;
                cfg.contention_adaptive = !frozen;
                cfg.seed = seed;
                serve_traced(&specs, trained.clone(), Policy::CostBenefit, &cfg, svc).0
            });
    let frozen_runs: Vec<ServeReport> = reports.split_off(SEEDS.len());

    let mut latency = LatencyStats::new();
    for r in &reports {
        latency.merge(&r.admitted_latency());
    }
    let cam00_frozen = (!admission).then(|| {
        let mut stats = LatencyStats::new();
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

/// Serving capacity: sweeps 1→32 offered streams through `lr-serve` on
/// TX2 and AGX Xavier, with and without SLO-aware admission control.
///
/// Checks that a matched stream's p95 never decreases as streams are
/// added (on an adaptation-frozen probe replica, which isolates the raw
/// slowdown), and that at 32 offered streams the admitted SLO-violation
/// rate is strictly lower with admission control than without.
pub(crate) fn serve_scaling(ctx: &Ctx) -> Result<String, ReproError> {
    const COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 32];
    let scale = ctx.scale;
    let frames = match scale {
        ExperimentScale::Small => 48,
        ExperimentScale::Paper => 240,
    };
    let trained = ctx.suite().frcnn.clone();

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

    let mut checks = Checks::new("serve_scaling");
    for device in [DeviceKind::JetsonTx2, DeviceKind::AgxXavier] {
        let mut viol_at_32 = [0.0f64; 2]; // [no admission, admission]
        for admission in [false, true] {
            let mut prev_p95 = 0.0f64;
            for &n in &COUNTS {
                let p = run_point(ctx, device, admission, n, frames, &trained);
                let agg = &p.latency;
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
                    format!("{:.1}", p.violation_pct),
                    format!("{:.1}", p.mean_map_pct),
                ]);
                if n == 32 {
                    viol_at_32[admission as usize] = p.violation_pct;
                }
                // Endogenous contention: adding streams can only add GPU
                // load on cam-00 (same video, seed, and class at every
                // point). With adaptation frozen its branch choices never
                // change, so each sample is the same work stretched by the
                // measured slowdown — p95 must not improve.
                if let Some(frozen) = &p.cam00_frozen {
                    checks.require(frozen.p95() + 1e-9 >= prev_p95, || {
                        format!(
                            "{} cam-00 frozen p95 {:.2} < {:.2} at n={n}",
                            device.name(),
                            frozen.p95(),
                            prev_p95
                        )
                    });
                    prev_p95 = prev_p95.max(frozen.p95());
                }
            }
        }
        checks.require(viol_at_32[1] < viol_at_32[0], || {
            format!(
                "{} violation rate at 32 streams with admission ({:.1}%) not below \
                 without ({:.1}%)",
                device.name(),
                viol_at_32[1],
                viol_at_32[0]
            )
        });
    }

    let text = format!(
        "serve_scaling: lr-serve capacity sweep ({frames} frames/stream, seeds 42-44 pooled, \
         scale {scale:?})\n\
         Classes cycle gold(33.3ms)/silver(50ms)/bronze(100ms); contention is endogenous\n\
         (measured co-stream GPU occupancy), admission capacity 0.85. The cam-00 frozen\n\
         column is a probe replica with adaptation frozen, isolating the raw slowdown\n\
         on one matched stream.\n\n{}\n{}\n",
        table.render(),
        checks.line()
    );
    checks.finish(text)
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
    samples.sort_by(|a, b| a.total_cmp(b));
    Some((
        *samples.first()?,
        samples[samples.len() / 2],
        *samples.last()?,
    ))
}

/// Fault injection and graceful degradation: the mixed-class workload on
/// TX2 and AGX Xavier, clean and under the seeded fault schedule.
///
/// Checks that the clean run reports zero faults, degraded GoFs and
/// evictions; that the faulted run absorbs a nonzero number of faults
/// without a panic; and that the same fault seed gives a byte-identical
/// report under 1 and 4 pool workers.
pub(crate) fn faults(ctx: &Ctx) -> Result<String, ReproError> {
    let scale = ctx.scale;
    let (n_streams, frames) = fault_workload(scale);
    let specs = mixed_specs(n_streams, frames);
    let trained = ctx.suite().frcnn.clone();

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
    let mut checks = Checks::new("faults");

    for device in [DeviceKind::JetsonTx2, DeviceKind::AgxXavier] {
        for faulted in [false, true] {
            let serve = |threads| {
                serve_faulted(
                    device,
                    faulted,
                    threads,
                    ObsMode::Off,
                    &specs,
                    trained.clone(),
                )
                .0
            };
            let report = serve(1);
            if faulted {
                let parallel = serve(4);
                checks.require(report_bytes(&report) == report_bytes(&parallel), || {
                    format!(
                        "{} faulted report differs between 1 and 4 workers",
                        device.name()
                    )
                });
                checks.require(report.total_faults() > 0, || {
                    format!("{} faulted run absorbed zero faults", device.name())
                });
                match recovery_distribution(&report) {
                    Some((min, med, max)) => writeln!(
                        recovery_lines,
                        "{}: recovery per eviction min {:.0} / median {:.0} / max {:.0} ms \
                         over {} evictions ({} terminal)",
                        device.name(),
                        min,
                        med,
                        max,
                        report.total_evictions(),
                        report.terminal_evictions(),
                    )?,
                    None => writeln!(
                        recovery_lines,
                        "{}: no stream exceeded its fault budget (0 evictions)",
                        device.name(),
                    )?,
                }
            } else {
                checks.require(
                    report.total_faults() == 0
                        && report.total_evictions() == 0
                        && report.degraded_gof_fraction() == 0.0,
                    || format!("{} clean run reports fault activity", device.name()),
                );
            }

            let agg = report.admitted_latency();
            table.add_row_owned(vec![
                device.name().to_string(),
                if faulted { "faulted" } else { "clean" }.to_string(),
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
        }
    }

    let text = format!(
        "faults: seeded fault injection vs clean serving ({n_streams} streams x {frames} \
         frames, scale {scale:?})\n\
         Fault schedule: moderate cadence, transient rate 0.15, stall rate 0.04, seed 1717;\n\
         eviction after >=50% faulted GoFs in a 3-GoF window, re-admission after exponential\n\
         backoff from 250 ms. Every fault is absorbed by the fallback ladder or a typed\n\
         eviction; the same seed is byte-identical under 1 and 4 pool workers.\n\n\
         {}\n{recovery_lines}{}\n",
        table.render(),
        checks.line()
    );
    checks.finish(text)
}

/// Renders the analysis of one mode's event log. Every count is taken
/// from the events themselves.
fn analysis_section(label: &str, bundle: &ObsBundle) -> Result<String, ReproError> {
    let decisions: Vec<DecisionRecord> = bundle.decisions().cloned().collect();
    let mut out = String::new();
    writeln!(
        out,
        "== {label} ==\n\
         decisions {}  spans {}  rounds {}  switches {}  faults {}  degraded GoFs {}\n",
        decisions.len(),
        bundle.spans().count(),
        bundle
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Round(_)))
            .count(),
        decisions.iter().filter(|d| d.switched).count(),
        decisions.iter().map(|d| u64::from(d.faults)).sum::<u64>(),
        decisions.iter().filter(|d| d.degraded).count(),
    )?;

    let mut res = TextTable::new(&["Branch", "Decisions", "Frames", "Frame share (%)"]);
    let residency = branch_residency(&decisions);
    let total_frames: u64 = residency.iter().map(|r| r.frames).sum();
    for r in &residency {
        res.add_row_owned(vec![
            r.key.clone(),
            r.decisions.to_string(),
            r.frames.to_string(),
            format!(
                "{:.1}",
                100.0 * r.frames as f64 / total_frames.max(1) as f64
            ),
        ]);
    }
    writeln!(out, "Branch residency:\n{}", res.render())?;

    out.push_str("Switch matrix (src -> dst):\n");
    let switches = switch_matrix(&decisions);
    if switches.is_empty() {
        out.push_str("(no reconfigurations)\n");
    } else {
        let mut m = TextTable::new(&["From", "To", "Count"]);
        for (src, dst, n) in &switches {
            m.add_row_owned(vec![src.clone(), dst.clone(), n.to_string()]);
        }
        out.push_str(&m.render());
    }
    out.push('\n');

    let bd = budget_breakdown(&decisions);
    let mut budget = TextTable::new(&[
        "L0 (ms)",
        "S0 (ms)",
        "S(f_H) (ms)",
        "C(b0,b) (ms)",
        "Amortized (ms)",
        "Slack (ms)",
        "Actual (ms)",
        "p95 by GoF (ms)",
    ]);
    budget.add_row_owned(
        [
            bd.l0_ms,
            bd.s0_ms,
            bd.s_heavy_ms,
            bd.c_switch_ms,
            bd.amortized_ms,
            bd.slack_ms,
            bd.actual_ms,
            bd.actual_p95_ms,
        ]
        .iter()
        .map(|v| format!("{v:.2}"))
        .collect(),
    );
    writeln!(
        out,
        "Latency-budget decomposition (mean over GoFs of per-frame terms, {} decisions):\n{}",
        bd.decisions,
        budget.render()
    )?;

    out.push_str("SLO-violating GoFs by cause:\n");
    let attribution = violation_attribution(&decisions);
    if attribution.is_empty() {
        out.push_str("(no violations)\n");
    } else {
        let mut v = TextTable::new(&["Cause", "GoFs"]);
        for (cause, n) in &attribution {
            v.add_row_owned(vec![cause.name().to_string(), n.to_string()]);
        }
        out.push_str(&v.render());
    }
    out.push('\n');
    Ok(out)
}

/// Deterministic tracing of the serving runtime: the `faults` workload on
/// TX2, clean and faulted, with full tracing on, and an analysis of the
/// decision records (per-branch residency, the switch matrix, the Eq. 3
/// latency-budget decomposition against achieved latency, and the
/// dominant cause of every SLO-violating GoF).
///
/// Checks that the serve report is byte-identical with observation off
/// and tracing; that the trace JSONL is byte-identical under 1, 2 and 4
/// pool workers, clean and faulted; and that it parses back through
/// `lr_obs::parse_jsonl`. The clean trace is also written to
/// `target/trace.jsonl` for `examples/trace_inspect.rs`.
pub(crate) fn trace(ctx: &Ctx) -> Result<String, ReproError> {
    let scale = ctx.scale;
    let (n_streams, frames) = fault_workload(scale);
    let specs = mixed_specs(n_streams, frames);
    let trained = ctx.suite().frcnn.clone();
    let mut checks = Checks::new("trace");
    let mut sections = String::new();

    for (mode, faulted) in [("clean", false), ("faulted", true)] {
        let serve = |threads, obs| {
            serve_faulted(
                DeviceKind::JetsonTx2,
                faulted,
                threads,
                obs,
                &specs,
                trained.clone(),
            )
        };
        // The identity battery: off vs trace, and the trace itself under
        // 1/2/4 workers.
        let (report_off, _) = serve(1, ObsMode::Off);
        let (report_trace, bundle_trace) = serve(1, ObsMode::Trace);
        checks.require(
            report_bytes(&report_trace) == report_bytes(&report_off),
            || format!("{mode} report differs across observation modes"),
        );
        let jsonl = bundle_trace.to_jsonl();
        for threads in [2usize, 4] {
            let (_, bundle_n) = serve(threads, ObsMode::Trace);
            checks.require(bundle_n.to_jsonl() == jsonl, || {
                format!("{mode} trace JSONL differs between 1 and {threads} workers")
            });
        }
        match lr_obs::parse_jsonl(&jsonl) {
            Ok(values) => checks.require(values.len() == jsonl.lines().count(), || {
                format!("{mode} trace parsed to wrong line count")
            }),
            Err(e) => checks.require(false, || format!("{mode} trace does not parse back: {e}")),
        }
        if !faulted {
            let path = std::path::Path::new(JSONL_PATH);
            std::fs::create_dir_all("target")
                .and_then(|()| std::fs::write(path, &jsonl))
                .map_err(|e| ReproError::io(path, e))?;
        }
        sections.push_str(&analysis_section(mode, &bundle_trace)?);
    }

    let text = format!(
        "trace: deterministic observability of the serving runtime ({n_streams} streams x \
         {frames} frames, scale {scale:?}, TX2)\n\
         Per-stream sinks record spans, scheduler decision records (Eq. 3 budget terms), and\n\
         dispatch rounds on the virtual clock; buffers merge serially in (stream, gof) order.\n\
         Verified in-process: the serve report is byte-identical with observation off and on,\n\
         and the trace JSONL is byte-identical under 1, 2, and 4 pool workers — clean and\n\
         faulted (moderate cadence, transient rate 0.15, stall rate 0.04, seed 1717).\n\n\
         {sections}{}\n",
        checks.line()
    );
    checks.finish(text)
}
