//! Table 1: the feature cost table.
//!
//! Prints each feature's dimensionality and its extraction/prediction
//! cost as charged to the virtual TX2, and verifies the charged costs
//! empirically by timing virtual charges through the device simulator.
//!
//! Usage: `cargo run --release -p lr-bench --bin table1 [small|paper]`

use lr_device::{DeviceKind, DeviceSim, OpUnit};
use lr_eval::TextTable;
use lr_features::ALL_FEATURE_KINDS;

fn main() {
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
    println!("Table 1: features and their costs (TX2-calibrated)\n");
    println!("{}", table.render());

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
    println!("Charged-cost verification (200 samples, idle TX2):\n");
    println!("{}", check.render());
}
