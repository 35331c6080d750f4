//! Speed gate for the register-tiled matmul kernel, in all three
//! layouts the accuracy MLPs train with, and for the packed one-row
//! forward the scheduler runs them with.
//!
//! The test times `Matrix::matmul_naive` (the textbook triple loop)
//! against the kernel on a fixed 192×256 · 256×160 product, once per
//! layout: `Matrix::matmul` (the forward pass, `A·B`),
//! `Matrix::transposed_matmul` (the weight gradient, fed `Aᵀ`) and
//! `Matrix::matmul_transposed` (the input gradient, fed `Bᵀ`; its time
//! includes building the transpose). It then times `PackedMlp::infer_row`
//! against a `matmul_naive` chain of the same layers on the HoC accuracy
//! model's shape, 772 → 96×4 → 272, one row. It fails if any speedup
//! falls below 75% of its recorded baseline. A ratio of two timings of
//! the same process transfers across hosts far better than raw
//! wall-clock, which is why the gate compares ratios. All timings run
//! in one test, one after another, because timings that run at once
//! read low. Every other host-time number lives in hostbench.
//!
//! lr-nn picks each kernel's build at run time, so on an x86-64 host
//! with AVX2 the gate times the AVX2 build of the tiled kernel and of
//! the one-row forward; elsewhere it times the plain build. The naive
//! loop is never dispatched. The recorded baselines predate the AVX2
//! build, so on an AVX2 host the gate holds it to the plain build's
//! bounds.
//!
//! Timing is meaningless without optimisation, so the test only runs in
//! release: `cargo test --release -p lr-bench --test matmul_gate`.

use std::time::Instant;

use lr_nn::{Activation, Dense};
use lr_nn::{Matrix, PackedMlp};

/// Naive-over-kernel speedup of `matmul` last recorded for this exact
/// workload (same generator, seeds, shapes and `REPS`) on a 1-vCPU host,
/// when the kernel was the blocked i-k-j loop that preceded the tiled
/// one. It bounds all three layouts.
const BASELINE_SPEEDUP: f64 = 5.237;
/// Naive-chain-over-packed speedup of the one-row forward, recorded for
/// this exact workload on a 2-vCPU x86-64 host.
const ROW_BASELINE_SPEEDUP: f64 = 11.46;
/// A fresh speedup below this fraction of the baseline is a regression.
const REGRESSION_FACTOR: f64 = 0.75;
/// Products per timed sample.
const REPS: usize = 8;
/// One-row forward passes per timed sample.
const ROW_REPS: usize = 200;
/// Each side is timed as the best of this many samples, which damps
/// scheduler noise without moving the bound.
const SAMPLES: usize = 3;

/// He-uniform-ish deterministic matrix for the matmul workload.
fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut z = seed;
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
            (x as f64 / u64::MAX as f64) as f32 - 0.5
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Wall time in milliseconds of `reps` calls to `f`.
fn time_ms<T>(reps: usize, f: impl Fn() -> T) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// Naive-over-kernel speedup of `reps` calls, each side timed as the
/// best of `SAMPLES`.
fn speedup<T, U>(reps: usize, naive: impl Fn() -> T, kernel: impl Fn() -> U) -> f64 {
    // Samples alternate between the two sides, so a slow spell on the
    // host lands on both rather than on one.
    let (mut naive_ms, mut kernel_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..SAMPLES {
        naive_ms = naive_ms.min(time_ms(reps, &naive));
        kernel_ms = kernel_ms.min(time_ms(reps, &kernel));
    }
    eprintln!("[matmul_gate] naive {naive_ms:.1} ms  kernel {kernel_ms:.1} ms");
    naive_ms / kernel_ms.max(1e-9)
}

/// The HoC accuracy model's layers: weights, bias and activation.
fn hoc_model_layers() -> Vec<(Matrix, Matrix, Activation)> {
    let dims = [772, 96, 96, 96, 96, 272];
    dims.windows(2)
        .enumerate()
        .map(|(i, w)| {
            let act = if i + 2 == dims.len() {
                Activation::Linear
            } else {
                Activation::LeakyRelu
            };
            let seed = 0x10 + 2 * i as u64;
            let weights = random_matrix(w[0], w[1], seed);
            (weights, random_matrix(1, w[1], seed + 1), act)
        })
        .collect()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: release only")]
fn tiled_matmul_keeps_its_speedup_over_the_naive_loop_in_every_layout() {
    let a = random_matrix(192, 256, 0xA);
    let b = random_matrix(256, 160, 0xB);
    let (a_t, b_t) = (a.transpose(), b.transpose());
    let naive = || a.matmul_naive(&b);
    let layers = hoc_model_layers();
    let packed = PackedMlp::new(
        layers
            .iter()
            .map(|(w, b, act)| Dense::from_parameters(w.clone(), b.clone(), *act))
            .collect(),
    );
    let input = random_matrix(1, 772, 0xC);
    let naive_row = || {
        layers.iter().fold(input.clone(), |x, (w, b, act)| {
            act.forward(&x.matmul_naive(w).add_row_broadcast(b))
        })
    };
    let packed_row = || {
        let (mut x, mut spare) = (input.as_slice().to_vec(), Vec::new());
        packed.infer_row(&mut x, &mut spare);
        x
    };
    assert_eq!(packed_row(), naive_row().as_slice());
    let speedups = [
        (
            "matmul",
            speedup(REPS, naive, || a.matmul(&b)),
            BASELINE_SPEEDUP,
        ),
        (
            "transposed_matmul",
            speedup(REPS, naive, || a_t.transposed_matmul(&b)),
            BASELINE_SPEEDUP,
        ),
        (
            "matmul_transposed",
            speedup(REPS, naive, || a.matmul_transposed(&b_t)),
            BASELINE_SPEEDUP,
        ),
        (
            "packed one-row forward",
            speedup(ROW_REPS, naive_row, packed_row),
            ROW_BASELINE_SPEEDUP,
        ),
    ];
    for (name, s, baseline) in speedups {
        let bound = REGRESSION_FACTOR * baseline;
        eprintln!("[matmul_gate] {name}: speedup {s:.2}x (bound {bound:.2}x)");
    }
    for (name, s, baseline) in speedups {
        assert!(
            s >= REGRESSION_FACTOR * baseline,
            "{name} speedup {s:.2}x < {:.0}% of baseline {baseline:.3}x",
            REGRESSION_FACTOR * 100.0
        );
    }
}
