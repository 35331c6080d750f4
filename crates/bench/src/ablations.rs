//! Ablations of LiteReconfig's design choices (DESIGN.md §6):
//!
//! 1. the switching-cost term `C(b0, b)` in the optimizer (on/off);
//! 2. cost-benefit feature selection vs a fixed feature policy, with the
//!    trained `Ben(f, SLO)` table behind the selection;
//! 3. feasibility headroom (the conservatism that protects the P95);
//! 4. snippet length N for the accuracy labels.

use std::fmt::Write;
use std::sync::Arc;

use litereconfig::offline::{profile_videos, OfflineConfig};
use litereconfig::pipeline::{run_adaptive, RunConfig, StreamPipeline};
use litereconfig::train_scheduler;
use litereconfig::{FeatureService, Policy};
use lr_device::{DeviceKind, DeviceSim, SwitchingCostModel};
use lr_eval::TextTable;
use lr_features::{FeatureKind, HEAVY_FEATURE_KINDS};
use lr_kernels::DetectorFamily;
use lr_obs::NullSink;

use crate::repro::{Ctx, ReproError};
use crate::suite::{ExperimentScale, Suite};

/// Renders all four ablations at 33.3 ms on the TX2.
pub(crate) fn ablations(ctx: &Ctx) -> Result<String, ReproError> {
    let suite = ctx.suite();
    let scale = suite.scale;
    let slo = 33.3;
    let pool = ctx.pool;
    let mut out = String::new();

    // --- Ablation 1: switching-cost term on/off. -------------------------
    // Turning the term off is equivalent to a zero-cost switching model in
    // the *optimizer* (execution still pays real switching costs).
    let mut no_switch = (*suite.frcnn).clone();
    no_switch.switching = SwitchingCostModel {
        base_ms: 0.0,
        dst_coeff: 0.0,
        src_light_bonus_ms: 0.0,
        src_scale_ms: 1.0,
    };
    let optimizer_arms = [
        ("with C(b0,b)", suite.frcnn.clone()),
        ("without C(b0,b)", Arc::new(no_switch)),
    ];
    let mut t1 = TextTable::new(&["Optimizer", "mAP (%)", "P95 (ms)", "Switches"]);
    for row in pool.par_map_init(
        &optimizer_arms,
        FeatureService::new,
        |svc, _, (name, trained)| {
            let cfg = RunConfig::clean(DeviceKind::JetsonTx2, 0.0, slo, 6000);
            let r = run_adaptive(
                &suite.val_videos,
                trained.clone(),
                Policy::CostBenefit,
                &cfg,
                svc,
            );
            vec![
                name.to_string(),
                format!("{:.1}", r.map_pct()),
                format!("{:.1}", r.latency.p95()),
                r.switches.len().to_string(),
            ]
        },
    ) {
        t1.add_row_owned(row);
    }
    writeln!(
        out,
        "\nAblation 1: switching-cost term in the optimizer ({slo} ms, TX2)\n{}",
        t1.render()
    )?;

    // --- Ablation 2: feature selection policy. ---------------------------
    let mut t2 = TextTable::new(&[
        "Feature policy",
        "mAP (%)",
        "P95 (ms)",
        "Scheduler ms/frame",
    ]);
    let policies: [(&str, Policy); 3] = [
        ("cost-benefit (paper)", Policy::CostBenefit),
        ("none (MinCost)", Policy::MinCost),
        (
            "always-MobileNet (most expensive)",
            Policy::MaxContent(FeatureKind::MobileNetV2),
        ),
    ];
    for row in pool.par_map_init(&policies, FeatureService::new, |svc, i, (name, policy)| {
        let cfg = RunConfig::clean(DeviceKind::JetsonTx2, 0.0, slo, 6100 + i as u64);
        let r = run_adaptive(&suite.val_videos, suite.frcnn.clone(), *policy, &cfg, svc);
        vec![
            name.to_string(),
            format!("{:.1}", r.map_pct()),
            format!("{:.1}", r.latency.p95()),
            format!(
                "{:.2}",
                r.breakdown.scheduler_ms / r.breakdown.frames.max(1) as f64
            ),
        ]
    }) {
        t2.add_row_owned(row);
    }
    writeln!(
        out,
        "Ablation 2: feature selection policy ({slo} ms, TX2)\n{}",
        t2.render()
    )?;
    // The benefit estimates cost-benefit selection weighs against each
    // feature's cost.
    let ben_slos = [33.3, 50.0, 100.0];
    let mut ben = TextTable::new(&["Feature", "Ben @33.3ms", "Ben @50ms", "Ben @100ms"]);
    for kind in HEAVY_FEATURE_KINDS {
        ben.add_row_owned(
            std::iter::once(kind.name().to_string())
                .chain(
                    ben_slos
                        .iter()
                        .map(|&s| format!("{:+.3}", suite.frcnn.ben.single(kind, s))),
                )
                .collect(),
        );
    }
    writeln!(
        out,
        "Ben(f, SLO): trained feature benefit\n{}",
        ben.render()
    )?;

    // --- Ablation 3: feasibility headroom. --------------------------------
    let mut t3 = TextTable::new(&["Headroom", "mAP (%)", "P95 (ms)", "Meets SLO"]);
    let headrooms = [1.0, 0.95, 0.88, 0.75];
    for row in pool.par_map_init(&headrooms, FeatureService::new, |svc, i, &headroom| {
        let cfg = RunConfig::clean(DeviceKind::JetsonTx2, 0.0, slo, 6200 + i as u64);
        let (map_pct, p95) = run_with_headroom(suite, svc, headroom, &cfg);
        vec![
            format!("{headroom:.2}"),
            format!("{map_pct:.1}"),
            format!("{p95:.1}"),
            if p95 <= slo { "yes" } else { "NO" }.to_string(),
        ]
    }) {
        t3.add_row_owned(row);
    }
    writeln!(
        out,
        "Ablation 3: feasibility headroom ({slo} ms, TX2)\n{}",
        t3.render()
    )?;

    // --- Ablation 4: snippet length N. ------------------------------------
    // Shorter snippets = finer-grained but noisier labels; very long
    // snippets tend toward a content-agnostic model (paper footnote 3).
    let mut t4 = TextTable::new(&["Snippet N", "Records", "Light-model regret @100ms"]);
    let lens: &[usize] = if scale == ExperimentScale::Small {
        &[25, 50]
    } else {
        &[50, 100, 200]
    };
    for row in pool.par_map(lens, |&n| {
        // The suite's own snippet length is its Faster R-CNN build.
        let built;
        let (ds, trained) = if n == scale.snippet_len() {
            (&suite.frcnn_dataset, &*suite.frcnn)
        } else {
            let cfg = OfflineConfig {
                snippet_len: n,
                ..OfflineConfig::paper(scale.frcnn_catalog(), DetectorFamily::FasterRcnn)
            };
            let ds = profile_videos(&suite.train_videos, &cfg, &FeatureService::new());
            // Only the Light model is read; per-kind seeding keeps its bits.
            let light_only = scale.train_config().light_only();
            let trained = train_scheduler(&ds, DetectorFamily::FasterRcnn, &light_only);
            built = (ds, trained);
            (&built.0, &built.1)
        };
        let light = &trained.accuracy[&FeatureKind::Light];
        let mut regret = 0.0f32;
        for r in &ds.records {
            let pred = light.predict(&r.light, None);
            let mut best = (0usize, f32::NEG_INFINITY);
            for (i, &p) in pred.iter().enumerate() {
                if r.branch_det_ms[i] + r.branch_trk_ms[i] <= 100.0 && p > best.1 {
                    best = (i, p);
                }
            }
            regret += ds.oracle_map_under_budget(r, 100.0) - r.branch_map[best.0];
        }
        vec![
            n.to_string(),
            ds.len().to_string(),
            format!("{:.3}", regret / ds.len().max(1) as f32),
        ]
    }) {
        t4.add_row_owned(row);
    }
    writeln!(
        out,
        "Ablation 4: snippet length N (offline label granularity)\n{}",
        t4.render()
    )?;
    Ok(out)
}

/// Runs the full policy with a custom scheduler headroom; returns
/// (mAP %, P95 ms).
fn run_with_headroom(
    suite: &Suite,
    svc: &mut FeatureService,
    headroom: f64,
    cfg: &RunConfig,
) -> (f64, f64) {
    let mut device = DeviceSim::new(cfg.device, cfg.contention_pct, cfg.seed);
    let mut pipeline = StreamPipeline::new(
        suite.val_videos.clone(),
        suite.frcnn.clone(),
        Policy::CostBenefit,
        cfg,
    );
    pipeline.set_headroom(headroom);
    while pipeline
        .step_gof_obs(svc, &mut device, &mut NullSink)
        .is_some()
    {}
    let r = pipeline.into_result();
    (r.map_pct(), r.latency.p95())
}
