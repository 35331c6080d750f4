//! Ablations of LiteReconfig's design choices (DESIGN.md §5):
//!
//! 1. the switching-cost term `C(b0, b)` in the optimizer (on/off);
//! 2. cost-benefit feature selection vs always-all-features;
//! 3. feasibility headroom (the conservatism that protects the P95);
//! 4. snippet length N for the accuracy labels.
//!
//! Usage: `cargo run --release -p lr-bench --bin ablations [small|paper]`

use std::sync::Arc;

use litereconfig::offline::{profile_videos, OfflineConfig};
use litereconfig::pipeline::{run_adaptive, RunConfig, StreamPipeline};
use litereconfig::trainer::train_scheduler;
use litereconfig::Policy;
use lr_bench::{scale_from_args, ExperimentScale, Suite};
use lr_device::{DeviceKind, DeviceSim, SwitchingCostModel};
use lr_eval::TextTable;
use lr_kernels::DetectorFamily;
use lr_obs::NullSink;
use lr_video::{Dataset, Split};

fn main() {
    let scale = scale_from_args();
    let suite = Suite::build(scale);
    let slo = 33.3;
    let raster_size = suite.svc.raster_size();
    let pool = lr_pool::Pool::from_env();
    let fresh_svc = || litereconfig::FeatureService::with_raster_size(raster_size);

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
    let no_switch = Arc::new(no_switch);

    let mut t1 = TextTable::new(&["Optimizer", "mAP (%)", "P95 (ms)", "Switches"]);
    let optimizer_arms = [
        ("with C(b0,b)", suite.frcnn.clone()),
        ("without C(b0,b)", no_switch),
    ];
    for row in pool.par_map_init(&optimizer_arms, fresh_svc, |svc, _, (name, trained)| {
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
    }) {
        t1.add_row_owned(row);
    }
    println!(
        "\nAblation 1: switching-cost term in the optimizer ({slo} ms, TX2)\n{}",
        t1.render()
    );

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
            Policy::MaxContent(lr_features::FeatureKind::MobileNetV2),
        ),
    ];
    for row in pool.par_map_init(&policies, fresh_svc, |svc, i, (name, policy)| {
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
    println!(
        "Ablation 2: feature selection policy ({slo} ms, TX2)\n{}",
        t2.render()
    );

    // --- Ablation 3: feasibility headroom. --------------------------------
    let mut t3 = TextTable::new(&["Headroom", "mAP (%)", "P95 (ms)", "Meets SLO"]);
    let headrooms = [1.0, 0.95, 0.88, 0.75];
    for row in pool.par_map_init(&headrooms, fresh_svc, |svc, i, &headroom| {
        let cfg = RunConfig::clean(DeviceKind::JetsonTx2, 0.0, slo, 6200 + i as u64);
        let r = run_with_headroom(&suite, svc, headroom, &cfg);
        vec![
            format!("{headroom:.2}"),
            format!("{:.1}", r.0),
            format!("{:.1}", r.1),
            if r.1 <= slo { "yes" } else { "NO" }.to_string(),
        ]
    }) {
        t3.add_row_owned(row);
    }
    println!(
        "Ablation 3: feasibility headroom ({slo} ms, TX2)\n{}",
        t3.render()
    );

    // --- Ablation 4: snippet length N. ------------------------------------
    // Shorter snippets = finer-grained but noisier labels; very long
    // snippets tend toward a content-agnostic model (paper footnote 3).
    let mut t4 = TextTable::new(&["Snippet N", "Records", "Light-model regret @100ms"]);
    let dataset = Dataset::new(scale.dataset_config());
    let train_videos = dataset.videos(Split::TrainScheduler);
    let lens: &[usize] = if scale == ExperimentScale::Small {
        &[25, 50]
    } else {
        &[50, 100, 200]
    };
    for row in pool.par_map_init(lens, fresh_svc, |svc, _, &n| {
        let cfg = OfflineConfig {
            snippet_len: n,
            ..OfflineConfig::paper(scale.frcnn_catalog(), DetectorFamily::FasterRcnn)
        };
        let ds = profile_videos(&train_videos, &cfg, svc);
        let trained = train_scheduler(&ds, DetectorFamily::FasterRcnn, &scale.train_config());
        let light = &trained.accuracy[&lr_features::FeatureKind::Light];
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
    println!(
        "Ablation 4: snippet length N (offline label granularity)\n{}",
        t4.render()
    );

    // --- Ablation 5: optimizer (paper's SGD+momentum vs Adam). -----------
    // Retrains the light accuracy model with both optimizers on identical
    // data/architecture and compares the fit.
    {
        use lr_nn::adam::{Adam, AdamMlp};
        use lr_nn::{Matrix, Mlp, MlpConfig, Sgd};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let ds = &suite.frcnn_dataset;
        let n = ds.len();
        let out_dim = ds.catalog.len();
        let mut x = Vec::new();
        let mut y = Vec::new();
        for r in &ds.records {
            x.extend_from_slice(&r.light);
            y.extend_from_slice(&r.branch_map);
        }
        let x = Matrix::from_vec(n, 4, x);
        let y = Matrix::from_vec(n, out_dim, y);
        let cfg = MlpConfig {
            hidden_activation: lr_nn::layers::Activation::LeakyRelu,
            ..MlpConfig::regression(4, &[96, 96, 96, 96], out_dim)
        };

        let mut rng = StdRng::seed_from_u64(77);
        let mut sgd_net = Mlp::new(&cfg, &mut rng);
        let sgd_hist = sgd_net.fit(
            &x,
            &y,
            Sgd::paper(0.004, 1e-4).with_grad_clip(2.0),
            150,
            32,
            &mut rng,
        );
        let mut rng = StdRng::seed_from_u64(77);
        let mut adam_net = AdamMlp::new(&cfg, &mut rng);
        let adam_hist = adam_net.fit(&x, &y, Adam::default(), 150, 32, &mut rng);
        println!(
            "Ablation 5: optimizer — SGD+momentum (paper) final MSE {:.4}, Adam final MSE {:.4}",
            sgd_hist.last().copied().unwrap_or(f32::NAN),
            adam_hist.last().copied().unwrap_or(f32::NAN)
        );
    }
}

/// Runs the full policy with a custom scheduler headroom; returns
/// (mAP %, P95 ms). The feature service is passed separately so
/// concurrent arms can each use their own cache.
fn run_with_headroom(
    suite: &Suite,
    svc: &mut litereconfig::FeatureService,
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
