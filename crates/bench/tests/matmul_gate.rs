//! Speed gate for the register-tiled matmul kernel, in all three
//! layouts the accuracy MLPs train with.
//!
//! The test times `Matrix::matmul_naive` (the textbook triple loop)
//! against the kernel on a fixed 192×256 · 256×160 product, once per
//! layout: `Matrix::matmul` (the forward pass, `A·B`),
//! `Matrix::transposed_matmul` (the weight gradient, fed `Aᵀ`) and
//! `Matrix::matmul_transposed` (the input gradient, fed `Bᵀ`; its time
//! includes building the transpose). It fails if any layout's speedup
//! falls below 75% of the recorded baseline. A ratio of two timings of
//! the same process transfers across hosts far better than raw
//! wall-clock, which is why the gate compares ratios. Every other
//! host-time number lives in hostbench.
//!
//! Timing is meaningless without optimisation, so the test only runs in
//! release: `cargo test --release -p lr-bench --test matmul_gate`.

use std::time::Instant;

use lr_nn::Matrix;

/// Naive-over-kernel speedup of `matmul` last recorded for this exact
/// workload (same generator, seeds, shapes and `REPS`) on a 1-vCPU host,
/// when the kernel was the blocked i-k-j loop that preceded the tiled
/// one. It bounds all three layouts.
const BASELINE_SPEEDUP: f64 = 5.237;
/// A fresh speedup below this fraction of the baseline is a regression.
const REGRESSION_FACTOR: f64 = 0.75;
/// Products per timed sample.
const REPS: usize = 8;
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

/// Wall time in milliseconds of `REPS` calls to `f`.
fn time_ms(f: impl Fn() -> Matrix) -> f64 {
    let t = Instant::now();
    for _ in 0..REPS {
        std::hint::black_box(f());
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// Naive-over-kernel speedup, each side timed as the best of
/// `SAMPLES`.
fn speedup(naive: impl Fn() -> Matrix, kernel: impl Fn() -> Matrix) -> f64 {
    // Samples alternate between the two sides, so a slow spell on the
    // host lands on both rather than on one.
    let (mut naive_ms, mut kernel_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..SAMPLES {
        naive_ms = naive_ms.min(time_ms(&naive));
        kernel_ms = kernel_ms.min(time_ms(&kernel));
    }
    eprintln!("[matmul_gate] naive {naive_ms:.1} ms  kernel {kernel_ms:.1} ms");
    naive_ms / kernel_ms.max(1e-9)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate: release only")]
fn tiled_matmul_keeps_its_speedup_over_the_naive_loop_in_every_layout() {
    let a = random_matrix(192, 256, 0xA);
    let b = random_matrix(256, 160, 0xB);
    let (a_t, b_t) = (a.transpose(), b.transpose());
    let naive = || a.matmul_naive(&b);
    let speedups = [
        ("matmul", speedup(naive, || a.matmul(&b))),
        (
            "transposed_matmul",
            speedup(naive, || a_t.transposed_matmul(&b)),
        ),
        (
            "matmul_transposed",
            speedup(naive, || a.matmul_transposed(&b_t)),
        ),
    ];
    let bound = REGRESSION_FACTOR * BASELINE_SPEEDUP;
    for (name, s) in speedups {
        eprintln!("[matmul_gate] {name}: speedup {s:.2}x (bound {bound:.2}x)");
    }
    for (name, s) in speedups {
        assert!(
            s >= bound,
            "{name} speedup {s:.2}x < {:.0}% of baseline {BASELINE_SPEEDUP:.3}x",
            REGRESSION_FACTOR * 100.0
        );
    }
}
