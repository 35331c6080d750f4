//! The offline build every workload starts from, and each workload's
//! operations. An operation is one cell (a single-stream run the
//! benchmark steps GoF by GoF) or one `serve_traced` call.

use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use litereconfig::offline::{profile_videos, OfflineConfig};
use litereconfig::{
    train_scheduler, FeatureService, GofStep, Policy, RunConfig, RunResult, StreamPipeline,
    TrainConfig, TrainedScheduler,
};
use lr_device::{DeviceKind, DeviceSim};
use lr_features::FeatureKind;
use lr_kernels::DetectorFamily;
use lr_obs::{ObsBundle, ObsMode, ObsSink};
use lr_serve::{serve_traced, ServeConfig, ServeReport, SloClass, StreamSpec};
use lr_video::{Dataset, DatasetConfig, Split, Video};

use crate::digest::{self, Digest};

/// Seed variants an operation can run under. The run seed picks the
/// variant of each operation, so the committed reference needs one
/// digest per operation and variant, whatever seed a run is given.
pub const VARIANTS: u64 = 8;

/// Streams and frames per stream of the serving workload.
pub const SERVE_STREAMS: u32 = 32;
const SERVE_FRAMES: usize = 240;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// LiteReconfig's cost-benefit policy over the Table 2 grid.
    CostBenefitGrid,
    /// MaxContent-ResNet50 and -MobileNetV2 cells: a cold deep
    /// extraction on every GoF.
    MaxContentDeep,
    /// 32 synthetic streams served on one TX2.
    ServeOpen32,
}

impl Workload {
    /// Every workload, in reference order.
    pub const ALL: [Workload; 3] = [
        Workload::CostBenefitGrid,
        Workload::MaxContentDeep,
        Workload::ServeOpen32,
    ];

    /// The workload's name on the command line and in the reference.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CostBenefitGrid => "costbenefit_grid",
            Workload::MaxContentDeep => "maxcontent_deep",
            Workload::ServeOpen32 => "serve_open32",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The operations of the measured phase, cycled in order.
    pub fn ops(self) -> Vec<Op> {
        match self {
            Workload::CostBenefitGrid => grid_cells(),
            Workload::MaxContentDeep => deep_cells(),
            Workload::ServeOpen32 => vec![Op::Serve],
        }
    }

    /// The operations of the traced run's pipeline split: the measured
    /// ones, except that serving is split into its streams, each stepped
    /// as a single pipeline so the benchmark can observe it.
    pub fn split_ops(self) -> Vec<Op> {
        match self {
            Workload::ServeOpen32 => (0..SERVE_STREAMS).map(Op::Stream).collect(),
            other => other.ops(),
        }
    }
}

/// One operation.
#[derive(Debug, Clone)]
pub enum Op {
    /// A single-stream cell.
    Cell(Cell),
    /// One `serve_traced` call over the serving workload's streams.
    Serve,
    /// One serving stream stepped as a single pipeline.
    Stream(u32),
}

impl Op {
    /// The operation's name in the reference.
    pub fn name(&self) -> String {
        match self {
            Op::Cell(c) => c.name.clone(),
            Op::Serve => "serve".to_string(),
            Op::Stream(k) => format!("stream{k:02}"),
        }
    }
}

/// A single-stream run over a slice of the validation videos.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Name in the reference.
    pub name: String,
    /// Scheduling policy.
    pub policy: Policy,
    /// Board.
    pub device: DeviceKind,
    /// GPU contention percentage.
    pub contention_pct: f64,
    /// Latency SLO.
    pub slo_ms: f64,
    /// Validation videos played.
    pub videos: Range<usize>,
    /// Run seed of variant 0; variant `v` adds `10_000 * v`.
    pub seed_base: u64,
}

impl Cell {
    /// The run configuration under one seed variant.
    pub fn config(&self, variant: u64) -> RunConfig {
        RunConfig::clean(
            self.device,
            self.contention_pct,
            self.slo_ms,
            self.seed_base + 10_000 * variant,
        )
    }
}

/// TX2 and Xavier × 0/50% contention × the three paper SLOs, over all 16
/// validation videos. Variant 0 uses Table 2's cell seeds.
fn grid_cells() -> Vec<Op> {
    let scenarios = [
        (DeviceKind::JetsonTx2, 0.0),
        (DeviceKind::JetsonTx2, 50.0),
        (DeviceKind::AgxXavier, 0.0),
        (DeviceKind::AgxXavier, 50.0),
    ];
    let mut ops = Vec::new();
    for (si, &(device, contention_pct)) in scenarios.iter().enumerate() {
        for (slo_i, &slo_ms) in device.paper_slos_ms().iter().enumerate() {
            let board = match device {
                DeviceKind::JetsonTx2 => "tx2",
                DeviceKind::AgxXavier => "xavier",
            };
            ops.push(Op::Cell(Cell {
                name: format!("{board}-c{contention_pct}-slo{slo_ms}"),
                policy: Policy::CostBenefit,
                device,
                contention_pct,
                slo_ms,
                videos: 0..16,
                seed_base: 1000 + si as u64 * 100 + slo_i as u64,
            }));
        }
    }
    ops
}

/// MaxContent-ResNet50 then -MobileNetV2 on the first validation video,
/// TX2 at 50 ms: a lap short enough to repeat within a run.
fn deep_cells() -> Vec<Op> {
    [FeatureKind::ResNet50, FeatureKind::MobileNetV2]
        .into_iter()
        .map(|kind| {
            Op::Cell(Cell {
                name: format!("{}-video0", kind.name().to_lowercase()),
                policy: Policy::MaxContent(kind),
                device: DeviceKind::JetsonTx2,
                contention_pct: 0.0,
                slo_ms: 50.0,
                videos: 0..1,
                seed_base: 7000,
            })
        })
        .collect()
}

/// The offline build: dataset, profiling, and the trained scheduler.
pub struct Setup {
    /// Validation videos.
    pub val_videos: Vec<Video>,
    /// The trained Faster R-CNN scheduler.
    pub trained: Arc<TrainedScheduler>,
    /// Raster edge length of the build's feature service.
    pub raster_size: usize,
    /// Host seconds generating the scheduler-training and validation
    /// videos.
    pub generate_s: f64,
    /// Host seconds in `profile_videos`.
    pub profile_s: f64,
    /// Host seconds in `train_scheduler`.
    pub train_s: f64,
    /// Snippets × branches labelled by profiling.
    pub labels: usize,
    /// Digest of the profiled dataset and the trained scheduler.
    pub digest: u64,
}

impl Setup {
    /// Host seconds of the whole build.
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.profile_s + self.train_s
    }
}

/// Runs the paper-scale Faster R-CNN offline build every bench binary
/// pays: 24 scheduler-training videos profiled over the full branch
/// catalog, then the scheduler trained with the paper-scale config.
pub fn offline_build() -> Setup {
    let t = Instant::now();
    let dataset = Dataset::new(DatasetConfig {
        train_vision: 45,
        train_scheduler: 24,
        validation: 16,
        id_offset: 0,
    });
    let train_videos = dataset.videos(Split::TrainScheduler);
    let val_videos = dataset.videos(Split::Validation);
    let generate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut svc = FeatureService::new();
    let cfg = OfflineConfig::paper(
        lr_kernels::branch::default_catalog(),
        DetectorFamily::FasterRcnn,
    );
    let ds = profile_videos(&train_videos, &cfg, &mut svc);
    let profile_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let trained = train_scheduler(&ds, DetectorFamily::FasterRcnn, &TrainConfig::fast());
    let train_s = t.elapsed().as_secs_f64();

    let mut d = Digest::default();
    digest::offline_build(&mut d, &ds, &trained);
    Setup {
        val_videos,
        trained: Arc::new(trained),
        raster_size: svc.raster_size(),
        generate_s,
        profile_s,
        train_s,
        labels: ds.len() * ds.catalog.len(),
        digest: d.finish(),
    }
}

/// What one stepped cell produced.
pub struct CellOutcome {
    /// Digest of every GoF step and the run result.
    pub digest: u64,
    /// The run result.
    pub result: RunResult,
    /// Host time of each `step_gof_obs` call.
    pub step_times: Vec<Duration>,
    /// Host time of `into_result`.
    pub into_result: Duration,
}

/// Steps one pipeline to completion, timing each GoF; `after_step` sees
/// the sink right after each step.
pub fn run_cell<S: ObsSink>(
    trained: &Arc<TrainedScheduler>,
    videos: Vec<Video>,
    policy: Policy,
    cfg: &RunConfig,
    svc: &mut FeatureService,
    sink: &mut S,
    mut after_step: impl FnMut(&mut S, &GofStep, Duration),
) -> CellOutcome {
    let mut device = DeviceSim::new(cfg.device, cfg.contention_pct, cfg.seed);
    let mut pipeline = StreamPipeline::new(videos, trained.clone(), policy, cfg);
    let mut d = Digest::default();
    let mut step_times = Vec::new();
    loop {
        let t = Instant::now();
        let Some(step) = pipeline.step_gof_obs(svc, &mut device, sink) else {
            break;
        };
        let dt = t.elapsed();
        step_times.push(dt);
        after_step(sink, &step, dt);
        digest::gof_step(&mut d, &step);
    }
    let t = Instant::now();
    let result = pipeline.into_result();
    let into_result = t.elapsed();
    digest::run_result(&mut d, &result);
    CellOutcome {
        digest: d.finish(),
        result,
        step_times,
        into_result,
    }
}

/// The serving workload's offered streams: Gold/Silver/Bronze in turn.
pub fn serve_specs() -> Vec<StreamSpec> {
    (0..SERVE_STREAMS)
        .map(|i| {
            let class = match i % 3 {
                0 => SloClass::Gold,
                1 => SloClass::Silver,
                _ => SloClass::Bronze,
            };
            StreamSpec::synthetic(i, class, SERVE_FRAMES)
        })
        .collect()
}

/// Serving config: CostBenefit on one TX2, admission off.
pub fn serve_config(variant: u64, threads: usize, obs: ObsMode) -> ServeConfig {
    let mut cfg = ServeConfig::new(DeviceKind::JetsonTx2).without_admission();
    cfg.seed = 42 + variant;
    cfg.pool_threads = threads;
    cfg.obs = obs;
    cfg
}

/// What one serve call produced.
pub struct ServeOutcome {
    /// Digest of the report.
    pub digest: u64,
    /// The report.
    pub report: ServeReport,
    /// Observability bundle (empty unless traced).
    pub bundle: ObsBundle,
    /// Host time of the call.
    pub wall: Duration,
}

/// One `serve_traced` call.
pub fn run_serve(setup: &Setup, specs: &[StreamSpec], cfg: &ServeConfig) -> ServeOutcome {
    let mut template = FeatureService::with_raster_size(setup.raster_size);
    let t = Instant::now();
    let (report, bundle) = serve_traced(
        specs,
        setup.trained.clone(),
        Policy::CostBenefit,
        cfg,
        &mut template,
    );
    let wall = t.elapsed();
    let mut d = Digest::default();
    digest::serve_report(&mut d, &report);
    ServeOutcome {
        digest: d.finish(),
        report,
        bundle,
        wall,
    }
}

/// Run config of serving stream `k` stepped alone: its class SLO, no
/// contention, a seed derived from the variant and the stream.
pub fn stream_config(spec: &StreamSpec, k: u32, variant: u64) -> RunConfig {
    RunConfig::clean(
        DeviceKind::JetsonTx2,
        0.0,
        spec.class.slo_ms(),
        42 + variant * 1_000 + u64::from(k),
    )
}

/// Reference key of an operation under a seed variant.
pub fn op_key(workload: Workload, op: &Op, variant: u64) -> String {
    format!("{}/{}/v{variant}", workload.name(), op.name())
}

/// Reference key of the offline build.
pub const SETUP_KEY: &str = "setup/offline_build/v0";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_ops_are_unique() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            for ops in [w.ops(), w.split_ops()] {
                let names: std::collections::BTreeSet<String> = ops.iter().map(Op::name).collect();
                assert_eq!(names.len(), ops.len(), "{} op names collide", w.name());
            }
        }
        assert_eq!(Workload::parse("nope"), None);
        assert_eq!(grid_cells().len(), 12);
        assert_eq!(deep_cells().len(), 2);
    }

    #[test]
    fn variant_zero_uses_table2_seeds() {
        let Op::Cell(c) = &grid_cells()[4] else {
            panic!("grid ops are cells");
        };
        // Second scenario (TX2, 50%), second SLO.
        assert_eq!(c.config(0).seed, 1101);
        assert_eq!(c.config(3).seed, 31101);
        assert_eq!(c.name, "tx2-c50-slo50");
    }
}
