//! Figures 2–5 of the paper and the branch-space Pareto frontier.

use std::fmt::Write;

use litereconfig::pipeline::{run_adaptive, RunConfig};
use litereconfig::protocols::AdaptiveProtocol;
use litereconfig::{FeatureService, Policy};
use lr_device::{DeviceKind, SwitchingCostModel};
use lr_eval::TextTable;
use lr_features::FeatureKind;
use lr_kernels::{latency, DetectorConfig, DetectorFamily};

use crate::repro::{Ctx, ReproError};

/// Figure 2: accuracy-vs-latency curves for the content-agnostic, the
/// ResNet content-aware and the MobileNet content-aware strategies.
///
/// Each strategy pays its real feature costs; sweeping the SLO traces the
/// curve. The paper's shape: ResNet-aware dominates content-agnostic
/// (detector-byproduct features are nearly free), while MobileNet-aware
/// falls below it (its 153.96 ms extraction eats the kernel's budget).
pub(crate) fn figure2(ctx: &Ctx) -> Result<String, ReproError> {
    let suite = ctx.suite();
    let slos = [25.0, 33.3, 50.0, 66.7, 100.0];
    let strategies = [
        ("content-agnostic", Policy::MinCost),
        (
            "content-aware (ResNet)",
            Policy::MaxContent(FeatureKind::ResNet50),
        ),
        (
            "content-aware (MobileNet)",
            Policy::MaxContent(FeatureKind::MobileNetV2),
        ),
    ];

    let mut table = TextTable::new(&[
        "Strategy",
        "SLO (ms)",
        "mAP (%)",
        "Mean latency (ms)",
        "P95 (ms)",
    ]);
    let cells: Vec<(usize, usize)> = (0..strategies.len())
        .flat_map(|si| (0..slos.len()).map(move |li| (si, li)))
        .collect();
    let rows = ctx
        .pool
        .par_map_init(&cells, FeatureService::new, |svc, _, &(si, li)| {
            let (name, policy) = strategies[si];
            let slo = slos[li];
            let cfg = RunConfig::clean(
                DeviceKind::JetsonTx2,
                0.0,
                slo,
                3000 + si as u64 * 10 + li as u64,
            );
            let r = run_adaptive(&suite.val_videos, suite.frcnn.clone(), policy, &cfg, svc);
            vec![
                name.to_string(),
                format!("{slo}"),
                format!("{:.1}", r.map_pct()),
                format!("{:.1}", r.latency.mean()),
                format!("{:.1}", r.latency.p95()),
            ]
        });
    for row in rows {
        table.add_row_owned(row);
    }
    let mut out = String::new();
    writeln!(
        out,
        "\nFigure 2 data: accuracy vs latency per strategy (TX2, no contention)\n"
    )?;
    writeln!(out, "{}", table.render())?;
    writeln!(out, "CSV:\n{}", table.render_csv())?;
    Ok(out)
}

/// Figure 3: latency breakdown of each system component (detector,
/// tracker, modeling cost, switching cost), normalized by the SLO, for
/// Table 2's TX2 no-contention runs.
pub(crate) fn figure3(ctx: &Ctx) -> Result<String, ReproError> {
    let slos = DeviceKind::JetsonTx2.paper_slos_ms();
    let mut table = TextTable::new(&[
        "Protocol",
        "SLO (ms)",
        "Detector (%SLO)",
        "Tracker (%SLO)",
        "Modeling (%SLO)",
        "Switching (%SLO)",
        "Overhead (%SLO)",
        "Total (%SLO)",
        "Meets SLO",
    ]);
    for (protocol, runs) in AdaptiveProtocol::all()
        .into_iter()
        .zip(ctx.tx2_grid().chunks(slos.len()))
    {
        for (&slo, r) in slos.iter().zip(runs) {
            let b = &r.breakdown;
            let pct = |ms: f64| format!("{:.1}", 100.0 * b.fraction_of_slo(ms, slo));
            // The paper omits bars for protocols that cannot satisfy the
            // SLO (ApproxDet at 33.3/50 ms).
            table.add_row_owned(vec![
                protocol.name().to_string(),
                format!("{slo}"),
                pct(b.detector_ms),
                pct(b.tracker_ms),
                pct(b.scheduler_ms),
                pct(b.switch_ms),
                pct(b.overhead_ms),
                pct(b.total_ms()),
                if r.meets_slo(slo) {
                    "yes"
                } else {
                    "NO (bar omitted in paper)"
                }
                .to_string(),
            ]);
        }
    }
    let mut out = String::new();
    writeln!(
        out,
        "\nFigure 3 data: per-component mean frame latency as % of the SLO (TX2)\n"
    )?;
    writeln!(out, "{}", table.render())?;
    writeln!(out, "CSV:\n{}", table.render_csv())?;
    Ok(out)
}

/// Figure 4: branch coverage — the number of distinct execution branches
/// each protocol invokes in Table 2's TX2 no-contention runs.
pub(crate) fn figure4(ctx: &Ctx) -> Result<String, ReproError> {
    let mut table = TextTable::new(&[
        "Protocol",
        "Branches @33.3ms",
        "Branches @50ms",
        "Branches @100ms",
        "Switches @33.3ms",
    ]);
    let slos = DeviceKind::JetsonTx2.paper_slos_ms();
    for (protocol, runs) in AdaptiveProtocol::all()
        .into_iter()
        .zip(ctx.tx2_grid().chunks(slos.len()))
    {
        table.add_row_owned(
            std::iter::once(protocol.name().to_string())
                .chain(runs.iter().map(|r| r.branches_used.len().to_string()))
                .chain(std::iter::once(runs[0].switches.len().to_string()))
                .collect(),
        );
    }
    let mut out = String::new();
    writeln!(
        out,
        "\nFigure 4 data: branch coverage per protocol (TX2, no contention)\n"
    )?;
    writeln!(out, "{}", table.render())?;
    Ok(out)
}

/// The (shape, nprop) branch axes of Figure 5.
const AXES: [(u32, u32); 8] = [
    (224, 1),
    (224, 100),
    (320, 1),
    (320, 100),
    (448, 1),
    (448, 100),
    (576, 1),
    (576, 100),
];

/// Figure 5: switching overhead between execution branches — offline
/// heatmap (deterministic model) and online runs at two SLOs with the
/// cold-miss outliers.
pub(crate) fn figure5(ctx: &Ctx) -> Result<String, ReproError> {
    let mut out = String::new();
    // (a) Offline heatmap from the deterministic model.
    let model = SwitchingCostModel::paper_default();
    let header: Vec<String> = std::iter::once("src \\ dst".to_string())
        .chain(AXES.iter().map(|(s, n)| format!("{s}x{n}")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut offline = TextTable::new(&header_refs);
    for &(ss, sn) in &AXES {
        let src_ms =
            latency::detector_base_ms(DetectorFamily::FasterRcnn, DetectorConfig::new(ss, sn));
        let mut row = vec![format!("{ss}x{sn}")];
        for &(ds, dn) in &AXES {
            let dst_ms =
                latency::detector_base_ms(DetectorFamily::FasterRcnn, DetectorConfig::new(ds, dn));
            row.push(format!("{:.1}", model.offline_cost_ms(src_ms, dst_ms)));
        }
        offline.add_row_owned(row);
    }
    writeln!(
        out,
        "Figure 5(a): offline switching overhead between branches (ms)\n"
    )?;
    writeln!(out, "{}", offline.render())?;

    // (b) Online switching costs observed in real runs WITHOUT preheating,
    // exposing the 1-5 s cold-miss outliers at non-repeating cells.
    let suite = ctx.suite();
    let slos = [33.3f64, 50.0];
    let all_costs: Vec<Vec<f64>> =
        ctx.pool
            .par_map_init(&slos, FeatureService::new, |svc, run_idx, &slo| {
                let mut cfg = AdaptiveProtocol::LiteReconfig.run_config(
                    DeviceKind::JetsonTx2,
                    0.0,
                    slo,
                    90 + run_idx as u64,
                );
                cfg.preheat = false;
                let r = run_adaptive(
                    &suite.val_videos,
                    suite.frcnn.clone(),
                    Policy::CostBenefit,
                    &cfg,
                    svc,
                );
                r.switches.iter().map(|s| s.cost_ms).collect()
            });
    for (slo, costs) in slos.into_iter().zip(all_costs) {
        let outliers = costs.iter().filter(|&&c| c > 500.0).count();
        let typical: Vec<f64> = costs.iter().copied().filter(|&c| c <= 500.0).collect();
        let mean_typical = typical.iter().sum::<f64>() / typical.len().max(1) as f64;
        writeln!(
            out,
            "Figure 5(b) online, {slo} ms SLO: {} switches, typical cost {:.1} ms, \
             {} cold-miss outliers (1-5 s range: {})",
            costs.len(),
            mean_typical,
            outliers,
            costs
                .iter()
                .filter(|&&c| (1000.0..5500.0).contains(&c))
                .count()
        )?;
        // A small sample of the largest observed switches.
        let mut sorted = costs;
        sorted.sort_by(|a, b| b.total_cmp(a));
        let top: Vec<String> = sorted.iter().take(5).map(|c| format!("{c:.0}")).collect();
        writeln!(
            out,
            "  largest observed switch costs (ms): {}",
            top.join(", ")
        )?;
    }
    writeln!(
        out,
        "\nAs in the paper, outliers appear only at first use of a branch \
         (cold graph build) and vanish as the system warms up; the \
         experiments in Table 2 preheat all branches."
    )?;
    Ok(out)
}

/// Branch-space Pareto frontier (the accuracy-latency curve sketched in
/// the paper's Figure 1, bottom right): mean offline mAP vs mean
/// per-frame kernel latency for every catalog branch.
pub(crate) fn pareto(ctx: &Ctx) -> Result<String, ReproError> {
    let ds = &ctx.suite().frcnn_dataset;

    // Per-branch means are independent column reductions over the
    // offline records.
    let branches: Vec<usize> = (0..ds.catalog.len()).collect();
    let mut rows: Vec<(String, f64, f64)> = ctx.pool.par_map(&branches, |&i| {
        let mean_map: f64 = ds
            .records
            .iter()
            .map(|r| r.branch_map[i] as f64)
            .sum::<f64>()
            / ds.len() as f64;
        let mean_ms: f64 = ds
            .records
            .iter()
            .map(|r| r.branch_det_ms[i] + r.branch_trk_ms[i])
            .sum::<f64>()
            / ds.len() as f64;
        (ds.catalog[i].name(), mean_ms, mean_map)
    });
    rows.sort_by(|a, b| a.1.total_cmp(&b.1));

    // Pareto frontier: strictly increasing accuracy with latency.
    let mut best = f64::NEG_INFINITY;
    let frontier: Vec<bool> = rows
        .iter()
        .map(|row| {
            let on = row.2 > best;
            best = best.max(row.2);
            on
        })
        .collect();

    let mut table = TextTable::new(&[
        "Branch",
        "Mean kernel ms/frame",
        "Mean snippet mAP",
        "Pareto",
    ]);
    for ((name, ms, map), &on) in rows.iter().zip(&frontier) {
        table.add_row_owned(vec![
            name.clone(),
            format!("{ms:.1}"),
            format!("{map:.3}"),
            if on { "*" } else { "" }.to_string(),
        ]);
    }
    let mut out = String::new();
    writeln!(
        out,
        "\nBranch accuracy-latency space ({} branches, offline labels)\n",
        rows.len()
    )?;
    writeln!(out, "{}", table.render())?;
    let n_frontier = frontier.iter().filter(|&&f| f).count();
    writeln!(
        out,
        "{n_frontier} Pareto-optimal branches out of {} — the set any good \
         scheduler's choices should concentrate on.",
        rows.len()
    )?;
    writeln!(out, "\nCSV:\n{}", table.render_csv())?;
    Ok(out)
}
