//! Tables 1–4 of the paper.

use std::fmt::Write;

use litereconfig::pipeline::{run_adaptive, RunConfig, RunResult};
use litereconfig::{run_adascale_ms, run_heavy_model, run_static_detector, AdaptiveProtocol};
use litereconfig::{FeatureService, Policy};
use lr_device::{DeviceKind, DeviceSim, OpUnit};
use lr_eval::TextTable;
use lr_features::{FeatureKind, ALL_FEATURE_KINDS, HEAVY_FEATURE_KINDS};
use lr_kernels::HeavyModel;
use lr_kernels::{DetectorConfig, DetectorFamily};

use crate::repro::{Ctx, ReproError};

/// Table 1: each feature's dimensionality and its extraction/prediction
/// cost as charged to the virtual TX2, with the charged costs verified
/// empirically through the device simulator. Independent of the scale.
pub(crate) fn table1(_: &Ctx) -> Result<String, ReproError> {
    let mut table = TextTable::new(&[
        "Feature",
        "Dim (ours)",
        "Dim (paper)",
        "Extract (ms)",
        "Predict (ms)",
        "Unit",
        "Marginal extract (ms)",
    ]);
    let paper_dims = [4usize, 768, 5400, 1024, 31, 1280];
    for (kind, paper_dim) in ALL_FEATURE_KINDS.into_iter().zip(paper_dims) {
        let c = kind.cost();
        table.add_row_owned(vec![
            kind.name().to_string(),
            c.dim.to_string(),
            paper_dim.to_string(),
            format!("{:.2}", c.extract_ms),
            format!("{:.2}", c.predict_ms),
            if c.extract_on_gpu { "GPU" } else { "CPU" }.to_string(),
            format!("{:.2}", c.marginal_extract_ms),
        ]);
    }
    let mut out = String::new();
    writeln!(out, "Table 1: features and their costs (TX2-calibrated)\n")?;
    writeln!(out, "{}", table.render())?;

    // Empirical check: mean charged cost over 200 virtual extractions
    // (includes device noise) should track the table.
    let mut dev = DeviceSim::new(DeviceKind::JetsonTx2, 0.0, 1);
    let mut check = TextTable::new(&["Feature", "Table extract (ms)", "Charged mean (ms)"]);
    for kind in ALL_FEATURE_KINDS {
        let c = kind.cost();
        let unit = if c.extract_on_gpu {
            OpUnit::Gpu
        } else {
            OpUnit::Cpu
        };
        let mean: f64 = (0..200)
            .map(|_| dev.charge(unit, c.extract_ms))
            .sum::<f64>()
            / 200.0;
        check.add_row_owned(vec![
            kind.name().to_string(),
            format!("{:.2}", c.extract_ms),
            format!("{:.2}", mean),
        ]);
    }
    writeln!(out, "Charged-cost verification (200 samples, idle TX2):\n")?;
    writeln!(out, "{}", check.render())?;
    Ok(out)
}

/// Formats an mAP-or-failure cell the way Table 2 does: the accuracy when
/// the P95 latency met the SLO, "F" otherwise.
fn map_cell(map_pct: f64, p95_ms: f64, slo_ms: f64) -> String {
    if p95_ms <= slo_ms {
        format!("{map_pct:.1}")
    } else {
        "F".to_string()
    }
}

/// Table 2's scenarios, (device, GPU contention %), in row order. The
/// first, the TX2 without contention, is the evaluation grid that
/// Figures 3 and 4 read as well.
const SCENARIOS: [(DeviceKind, f64); 4] = [
    (DeviceKind::JetsonTx2, 0.0),
    (DeviceKind::JetsonTx2, 50.0),
    (DeviceKind::AgxXavier, 0.0),
    (DeviceKind::AgxXavier, 50.0),
];

/// Table 2's whole grid: every (scenario, protocol, SLO) cell in one
/// fan-out, grouped by scenario, then protocol, then SLO. The seed
/// depends only on the cell's coordinates, so a cell runs the same
/// wherever it is computed. Its first [`SCENARIOS`] entry, the TX2
/// without contention, is [`Ctx::tx2_grid`].
pub(crate) fn table2_grid(ctx: &Ctx) -> Vec<RunResult> {
    let suite = ctx.suite();
    let mut cells = Vec::new();
    for (scenario_idx, &(device, contention)) in SCENARIOS.iter().enumerate() {
        for protocol in AdaptiveProtocol::all() {
            let trained = suite.scheduler(protocol.family());
            for (slo_idx, slo) in device.paper_slos_ms().into_iter().enumerate() {
                let seed = 1000 + scenario_idx as u64 * 100 + slo_idx as u64;
                cells.push((protocol, trained.clone(), device, contention, slo, seed));
            }
        }
    }
    ctx.pool.par_map_init(
        &cells,
        FeatureService::new,
        |svc, _, (protocol, trained, device, contention, slo, seed)| {
            protocol.run(
                &suite.val_videos,
                trained.clone(),
                *device,
                *contention,
                *slo,
                *seed,
                svc,
            )
        },
    )
}

/// Table 2: mAP and P95 latency for all seven adaptive protocols, on TX2
/// and AGX Xavier, at 0% and 50% GPU contention, across three latency
/// SLOs per device. Every (scenario, protocol, SLO) cell is an
/// independent seeded run of the shared [`Ctx::table2_grid`].
pub(crate) fn table2(ctx: &Ctx) -> Result<String, ReproError> {
    let measured: Vec<(f64, f64)> = ctx
        .table2_grid()
        .iter()
        .map(|r| (r.map_pct(), r.latency.p95()))
        .collect();

    let mut table = TextTable::new(&[
        "Device, SLOs (ms)",
        "Contention",
        "Model",
        "mAP (%)",
        "P95 latency (ms)",
    ]);
    let protocols = AdaptiveProtocol::all();
    let rows = SCENARIOS
        .iter()
        .flat_map(|scenario| protocols.iter().map(move |protocol| (scenario, protocol)));
    let slos_per_row = DeviceKind::JetsonTx2.paper_slos_ms().len();
    for ((&(device, contention), protocol), chunk) in rows.zip(measured.chunks(slos_per_row)) {
        let slos = device.paper_slos_ms();
        let maps: Vec<String> = chunk
            .iter()
            .zip(&slos)
            .map(|(&(map_pct, p95), &slo)| map_cell(map_pct, p95, slo))
            .collect();
        let p95s: Vec<String> = chunk.iter().map(|(_, p95)| format!("{p95:.1}")).collect();
        let slo_label = format!(
            "{}, {}",
            device.name(),
            slos.iter()
                .map(|s| format!("{s}"))
                .collect::<Vec<_>>()
                .join("/")
        );
        table.add_row_owned(vec![
            slo_label,
            format!("{contention:.0}%"),
            protocol.name().to_string(),
            maps.join("/"),
            p95s.join("/"),
        ]);
    }

    let mut out = String::new();
    writeln!(
        out,
        "\nTable 2: performance comparison on the synthetic-VID validation set"
    )?;
    writeln!(
        out,
        "(\"F\" = the protocol's P95 latency violated the SLO, as in the paper)\n"
    )?;
    writeln!(out, "{}", table.render())?;
    writeln!(out, "CSV:\n{}", table.render_csv())?;
    Ok(out)
}

/// One baseline row of Table 3; all variants run on the heavy-model
/// video subset with a fixed seed.
enum Baseline {
    Heavy(HeavyModel),
    Static {
        family: DetectorFamily,
        cfg: DetectorConfig,
        name: &'static str,
        mem: &'static str,
        seed: u64,
    },
    AdaScaleMs,
}

/// Table 3: LiteReconfig vs accuracy-optimized video object detectors
/// (SELSA, MEGA, REPP, EfficientDet, AdaScale) on the TX2.
pub(crate) fn table3(ctx: &Ctx) -> Result<String, ReproError> {
    let suite = ctx.suite();
    // The heavy models are painfully slow even virtually; a subset of the
    // validation videos gives stable mAP at a fraction of the cost.
    let heavy_videos = &suite.val_videos[..suite.val_videos.len().min(4)];

    let mut table = TextTable::new(&[
        "Model, latency SLO",
        "mAP (%)",
        "Mean latency (ms)",
        "Memory (GB)",
    ]);

    let mut baselines: Vec<Baseline> = HeavyModel::all().into_iter().map(Baseline::Heavy).collect();
    for (family, name, mem) in [
        (DetectorFamily::EfficientDetD3, "EfficientDet D3", "5.68"),
        (DetectorFamily::EfficientDetD0, "EfficientDet D0", "2.22"),
    ] {
        baselines.push(Baseline::Static {
            family,
            cfg: DetectorConfig::new(512, 100),
            name,
            mem,
            seed: 2,
        });
    }
    baselines.push(Baseline::AdaScaleMs);
    for (name, shape) in [
        ("AdaScale-SS-600, no SLO", 600),
        ("AdaScale-SS-480, no SLO", 480),
        ("AdaScale-SS-360, no SLO", 360),
        ("AdaScale-SS-240, no SLO", 240),
    ] {
        baselines.push(Baseline::Static {
            family: DetectorFamily::AdaScale,
            cfg: DetectorConfig::new(shape, 100),
            name,
            mem: "3.2",
            seed: 3,
        });
    }

    let baseline_rows = ctx.pool.par_map(&baselines, |b| match b {
        Baseline::Heavy(model) => {
            match run_heavy_model(*model, heavy_videos, DeviceKind::JetsonTx2, 1) {
                Ok(r) => vec![
                    format!("{}, no SLO", model.name()),
                    format!("{:.1}", r.map_pct()),
                    format!("{:.0}", r.latency.mean()),
                    format!("{:.2}", model.reported_memory_gb()),
                ],
                Err(_) => vec![
                    format!("{}, no SLO", model.name()),
                    "OOM".into(),
                    "OOM".into(),
                    format!("{:.2}", model.reported_memory_gb()),
                ],
            }
        }
        Baseline::Static {
            family,
            cfg,
            name,
            mem,
            seed,
        } => {
            let r = run_static_detector(
                *family,
                *cfg,
                heavy_videos,
                DeviceKind::JetsonTx2,
                0.0,
                *seed,
            );
            vec![
                name.to_string(),
                format!("{:.1}", r.map_pct()),
                if *family == DetectorFamily::AdaScale {
                    format!("{:.1}", r.latency.mean())
                } else {
                    format!("{:.0}", r.latency.mean())
                },
                mem.to_string(),
            ]
        }
        Baseline::AdaScaleMs => {
            let r = run_adascale_ms(heavy_videos, DeviceKind::JetsonTx2, 5);
            vec![
                "AdaScale-MS, no SLO".to_string(),
                format!("{:.1}", r.map_pct()),
                format!("{:.1}", r.latency.mean()),
                "3.26".into(),
            ]
        }
    });
    for row in baseline_rows {
        table.add_row_owned(row);
    }

    // LiteReconfig at the three TX2 SLOs (full validation set).
    let slos = [100.0f64, 50.0, 33.3];
    let lr_results = ctx
        .pool
        .par_map_init(&slos, FeatureService::new, |svc, _, &slo| {
            let r = run_adaptive(
                &suite.val_videos,
                suite.frcnn.clone(),
                Policy::CostBenefit,
                &AdaptiveProtocol::LiteReconfig.run_config(DeviceKind::JetsonTx2, 0.0, slo, 4),
                svc,
            );
            (r.map_pct(), r.latency.mean())
        });
    let mut lr_mean_33 = None;
    for (&slo, &(map_pct, mean)) in slos.iter().zip(&lr_results) {
        if slo == 33.3 {
            lr_mean_33 = Some(mean);
        }
        table.add_row_owned(vec![
            format!("LiteReconfig, {slo} ms"),
            format!("{map_pct:.1}"),
            format!("{mean:.1}"),
            "4.1".into(),
        ]);
    }

    let mut out = String::new();
    writeln!(
        out,
        "Table 3: comparison with accuracy-optimized solutions (TX2)\n"
    )?;
    writeln!(out, "{}", table.render())?;

    // Speedup claims (C3): LiteReconfig vs SELSA / MEGA / REPP.
    if let Some(lr) = lr_mean_33 {
        writeln!(
            out,
            "Speedups of LiteReconfig @33.3 ms SLO (paper: 74.9x / 30.5x / 20.0x):"
        )?;
        for (name, ms) in [
            ("SELSA-ResNet-50", 2112.0),
            ("MEGA-ResNet-50 (base)", 861.0),
            ("REPP over YOLOv3", 565.0),
        ] {
            writeln!(out, "  vs {name:<22} {:.1}x", ms / lr)?;
        }
    }
    Ok(out)
}

/// Table 4: accuracy when one content feature is always used with its
/// overhead ignored (the latency objective applies to the MBEK only).
pub(crate) fn table4(ctx: &Ctx) -> Result<String, ReproError> {
    let suite = ctx.suite();
    let slos = [33.3, 50.0, 100.0];
    let mut table = TextTable::new(&["Feature", "33.3 ms", "50.0 ms", "100.0 ms"]);

    // "None" row: the content-agnostic model under the same
    // kernel-only-budget protocol.
    let mut configs: Vec<(String, Policy)> = vec![(
        "None".to_string(),
        Policy::ForcedFeatureFree(FeatureKind::Light),
    )];
    for kind in HEAVY_FEATURE_KINDS {
        configs.push((kind.name().to_string(), Policy::ForcedFeatureFree(kind)));
    }

    let cells: Vec<(usize, usize)> = (0..configs.len())
        .flat_map(|row_idx| (0..slos.len()).map(move |slo_idx| (row_idx, slo_idx)))
        .collect();
    let maps = ctx.pool.par_map_init(
        &cells,
        FeatureService::new,
        |svc, _, &(row_idx, slo_idx)| {
            let cfg = RunConfig::clean(
                DeviceKind::JetsonTx2,
                0.0,
                slos[slo_idx],
                2000 + row_idx as u64 * 10 + slo_idx as u64,
            );
            let policy = configs[row_idx].1;
            run_adaptive(&suite.val_videos, suite.frcnn.clone(), policy, &cfg, svc).map_pct()
        },
    );
    let rows: Vec<(&str, &[f64])> = configs
        .iter()
        .map(|(name, _)| name.as_str())
        .zip(maps.chunks(slos.len()))
        .collect();

    for (name, maps) in &rows {
        table.add_row_owned(
            std::iter::once(name.to_string())
                .chain(maps.iter().map(|m| format!("{m:.1}%")))
                .collect(),
        );
    }
    let mut out = String::new();
    writeln!(
        out,
        "\nTable 4: accuracy of forced single content features (overhead ignored, TX2)\n"
    )?;
    writeln!(out, "{}", table.render())?;

    // The paper's headline from this table: every content feature beats
    // "None".
    let none = rows[0].1;
    let above: Vec<bool> = rows[1..]
        .iter()
        .flat_map(|(_, maps)| maps.iter().zip(none).map(|(m, n)| m >= n))
        .collect();
    writeln!(
        out,
        "content-feature cells at or above the content-agnostic row: {}/{}",
        above.iter().filter(|&&a| a).count(),
        above.len()
    )?;
    Ok(out)
}
