//! Runtime choice between the plain, the AVX2 and the AVX-512 build of
//! the crate's three hot kernels, and the crate's only `unsafe`.
//!
//! Each kernel body is one `#[inline(always)]` function: the tiled
//! product [`tensor::gemm_add`], which runs every product of
//! [`Mlp::fit`](crate::Mlp::fit); the one-row forward
//! [`PackedMlp::forward_row`], which runs every
//! [`PackedMlp::infer_row`]; and the zero-skipping conv product
//! [`conv::add_im2col_product`], which runs every
//! [`Conv2d::forward`](crate::conv::Conv2d::forward). The entry points
//! here compile each body for the crate's target (SSE2 on x86-64) and
//! again inside a `#[target_feature(enable = "avx2")]` wrapper, where
//! LLVM may use 256-bit lanes. The tiled product has a third build,
//! inside `#[target_feature(enable = "avx512f")]`, which runs 8 x 32
//! tiles in 512-bit lanes. A wider build runs when
//! `is_x86_feature_detected!` finds its feature; std caches that probe,
//! so each call costs a load and a branch or two. The one-row forward
//! and the conv product have no AVX-512 build: a 64-wide one-row panel
//! ran the HoC shape in 7.2–8.0 µs against AVX2's 7.3–9.0 µs, bound by
//! L2 bandwidth.
//!
//! Only `avx2` and `avx512f` are enabled, never `fma`. rustc emits no
//! `contract` flag, so each multiply and add stays a separate, rounded
//! operation and every sum keeps its order: every build gives the same
//! bits. With `fma` enabled, a future `mul_add` would change results
//! silently.

#![allow(unsafe_code)]

use crate::conv;
use crate::packed::PackedMlp;
use crate::tensor::{self, Lhs, Matrix};

/// `out += a * b`, row-major `a.rows x b.cols()`: [`tensor::gemm_add`]
/// in the widest build this CPU runs.
pub(crate) fn gemm_add(a: Lhs<'_>, b: &Matrix, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx512f") {
        // SAFETY: the CPU running this call has AVX-512F, the only
        // feature `avx512::gemm_add` enables.
        return unsafe { avx512::gemm_add(a, b, out) };
    }
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU running this call has AVX2, the only feature
        // `avx2::gemm_add` enables.
        return unsafe { avx2::gemm_add(a, b, out) };
    }
    tensor::gemm_add::<{ tensor::MR }, { tensor::NR }>(a, b, out)
}

/// One example through every layer of `net`:
/// [`PackedMlp::forward_row`] in the widest build this CPU runs.
pub(crate) fn forward_row(net: &PackedMlp, x: &mut Vec<f32>, spare: &mut Vec<f32>) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU running this call has AVX2, the only feature
        // `avx2::forward_row` enables.
        return unsafe { avx2::forward_row(net, x, spare) };
    }
    net.forward_row(x, spare)
}

/// `acc += cols * weights`, skipping zero inputs:
/// [`conv::add_im2col_product`] in the widest build this CPU runs.
pub(crate) fn add_im2col_product(cols: &Matrix, weights: &Matrix, acc: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU running this call has AVX2, the only feature
        // `avx2::add_im2col_product` enables.
        return unsafe { avx2::add_im2col_product(cols, weights, acc) };
    }
    conv::add_im2col_product(cols, weights, acc)
}

/// The AVX2 builds.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;

    /// [`tensor::gemm_add`] compiled with AVX2.
    ///
    /// # Safety
    ///
    /// The CPU running the call must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) fn gemm_add(a: Lhs<'_>, b: &Matrix, out: &mut [f32]) {
        tensor::gemm_add::<{ tensor::MR }, { tensor::NR }>(a, b, out)
    }

    /// [`conv::add_im2col_product`] compiled with AVX2.
    ///
    /// # Safety
    ///
    /// The CPU running the call must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) fn add_im2col_product(cols: &Matrix, weights: &Matrix, acc: &mut [f32]) {
        conv::add_im2col_product(cols, weights, acc)
    }

    /// [`PackedMlp::forward_row`] compiled with AVX2.
    ///
    /// # Safety
    ///
    /// The CPU running the call must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) fn forward_row(net: &PackedMlp, x: &mut Vec<f32>, spare: &mut Vec<f32>) {
        net.forward_row(x, spare)
    }
}

/// The AVX-512 build.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::*;

    /// Column-panel width of the AVX-512 build: two 16-lane registers
    /// per tile row.
    const WIDE: usize = 2 * tensor::NR;
    /// Tile height of the AVX-512 build: 8 x 32 keeps sixteen of the 32
    /// registers as accumulators. It ran the training forward about
    /// 1.25x as fast as 4 x 32; 12 rows spilled and ran 6x slower.
    const TALL: usize = 2 * tensor::MR;

    /// [`tensor::gemm_add`] compiled with AVX-512F, on 8 x 32 tiles.
    ///
    /// # Safety
    ///
    /// The CPU running the call must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub(super) fn gemm_add(a: Lhs<'_>, b: &Matrix, out: &mut [f32]) {
        tensor::gemm_add::<TALL, WIDE>(a, b, out)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    #[cfg_attr(
        not(target_arch = "x86_64"),
        ignore = "the AVX2 twins exist only on x86-64"
    )]
    fn avx2_twins_are_bit_identical_to_the_plain_bodies() {
        #[cfg(target_arch = "x86_64")]
        x86_64::twins_match_on_every_kernel_test_shape();
    }

    /// Each AVX2 wrapper must beat its plain body by `MIN_SPEEDUP` on
    /// one kernel-test shape, so a body that stops being inlined into
    /// its wrapper (and so runs its SSE2 build there) fails here, where
    /// the bit-for-bit test above still passes.
    #[test]
    #[cfg_attr(
        any(debug_assertions, not(target_arch = "x86_64")),
        ignore = "a speed ratio needs an optimised x86-64 build"
    )]
    fn avx2_twins_outrun_the_plain_bodies() {
        #[cfg(target_arch = "x86_64")]
        x86_64::twins_outrun_the_plain_bodies();
    }

    /// The AVX-512 tiled kernel gives the plain body's bits on every
    /// kernel-test shape; on a CPU without AVX-512F it passes with a note.
    #[test]
    #[cfg_attr(
        not(target_arch = "x86_64"),
        ignore = "the AVX-512 build exists only on x86-64"
    )]
    fn avx512_gemm_is_bit_identical_to_the_plain_body() {
        #[cfg(target_arch = "x86_64")]
        x86_64::avx512_gemm_matches_on_every_kernel_test_shape();
    }

    /// The AVX-512 tiled kernel must beat the AVX2 build by
    /// `MIN_AVX512_SPEEDUP` on a training shape, in the forward and the
    /// dW layout, so a dispatch that stops picking it, or a build that
    /// stops using 512-bit lanes, fails here.
    #[test]
    #[cfg_attr(
        any(debug_assertions, not(target_arch = "x86_64")),
        ignore = "a speed ratio needs an optimised x86-64 build"
    )]
    fn avx512_gemm_outruns_the_avx2_build() {
        #[cfg(target_arch = "x86_64")]
        x86_64::avx512_gemm_outruns_the_avx2_build();
    }

    #[cfg(target_arch = "x86_64")]
    mod x86_64 {
        use super::super::*;
        use crate::init::{he_uniform, seeded_rng};
        use crate::{conv, packed, tensor, MlpConfig};
        use std::hint::black_box;

        /// The least speedup of an AVX2 wrapper over its plain body. On
        /// a 2-vCPU AVX2 Xeon the three measure 1.5–2.0x, and 0.97–1.01x
        /// once a body's `#[inline(always)]` is deleted.
        const MIN_SPEEDUP: f64 = 1.3;

        fn bits(xs: &[f32]) -> Vec<u32> {
            xs.iter().map(|v| v.to_bits()).collect()
        }

        pub(super) fn twins_match_on_every_kernel_test_shape() {
            assert!(
                is_x86_feature_detected!("avx2"),
                "this x86-64 CPU lacks the `avx2` feature, so the AVX2 twins cannot be checked"
            );
            // SAFETY: this CPU has AVX2, asserted above.
            gemm_twins_match(|a, b, out| unsafe { avx2::gemm_add(a, b, out) });
            conv_twins_match();
            forward_twins_match();
        }

        /// A build of [`tensor::gemm_add`]: `out += a * b`.
        type Gemm = fn(Lhs<'_>, &Matrix, &mut [f32]);

        /// The plain body, at the width the plain and AVX2 builds use.
        fn plain_gemm(a: Lhs<'_>, b: &Matrix, out: &mut [f32]) {
            tensor::gemm_add::<{ tensor::MR }, { tensor::NR }>(a, b, out)
        }

        pub(super) fn avx512_gemm_matches_on_every_kernel_test_shape() {
            if !is_x86_feature_detected!("avx512f") {
                eprintln!("skipped: this CPU lacks the `avx512f` feature");
                return;
            }
            // SAFETY: this CPU has AVX-512F, checked above.
            gemm_twins_match(|a, b, out| unsafe { avx512::gemm_add(a, b, out) });
        }

        /// Adds the `m`-row product `a * b` to a zero and to a
        /// bias-seeded `out` through the plain body and `wide`.
        fn assert_gemm_twins(m: usize, a: Lhs<'_>, b: &Matrix, wide: Gemm, what: &str) {
            let bias: Vec<f32> = (0..b.cols()).map(|j| j as f32 * 0.25 - 1.0).collect();
            for seed in [vec![0.0; b.cols()], bias] {
                let mut plain = seed.repeat(m);
                let mut widened = plain.clone();
                plain_gemm(a, b, &mut plain);
                wide(a, b, &mut widened);
                assert_eq!(bits(&widened), bits(&plain), "{what}");
            }
        }

        /// The shapes of the tiled-kernel and `matmul_transposed` tests,
        /// in the layouts the products read: `A * B` (forward and dX)
        /// and `(A^T)^T * B` (dW), with `±0.0` left-hand entries.
        fn gemm_twins_match(wide: Gemm) {
            let mut rng = seeded_rng(1717);
            let shapes = tensor::tests::tiled_kernel_shapes()
                .into_iter()
                .chain(tensor::tests::TRANSPOSED_SHAPES);
            for (m, k, n) in shapes {
                let a = tensor::tests::with_signed_zeros(m, k, &mut rng);
                let b = he_uniform(k, n, &mut rng);
                let what = format!("A * B, {m}x{k}x{n}");
                assert_gemm_twins(m, Lhs::rows_of(&a), &b, wide, &what);
                let at = a.transpose();
                let what = format!("A^T^T * B, {m}x{k}x{n}");
                assert_gemm_twins(m, Lhs::columns_of(&at), &b, wide, &what);
            }
        }

        /// The products of the im2col conv test, whose inputs hold
        /// `±0.0` and the ReLU zeros the kernel skips.
        fn conv_twins_match() {
            for (cols, weights, seed) in conv::tests::im2col_products() {
                let (mut plain, mut wide) = (seed.clone(), seed);
                conv::add_im2col_product(&cols, &weights, &mut plain);
                // SAFETY: the caller asserted that this CPU has AVX2.
                unsafe { avx2::add_im2col_product(&cols, &weights, &mut wide) };
                let what = format!(
                    "{}x{} * {}x{}",
                    cols.rows(),
                    cols.cols(),
                    weights.rows(),
                    weights.cols()
                );
                assert_eq!(bits(&wide), bits(&plain), "{what}");
            }
        }

        /// Runs each test row through both builds of `net`'s forward.
        fn assert_forward_twins(net: &PackedMlp, k: usize, seed: u64, what: &str) {
            let (mut plain, mut wide, mut spare) = (Vec::new(), Vec::new(), Vec::new());
            for input in packed::tests::rows(k, seed) {
                plain.clone_from(&input);
                net.forward_row(&mut plain, &mut spare);
                wide.clone_from(&input);
                // SAFETY: the caller asserted that this CPU has AVX2.
                unsafe { avx2::forward_row(net, &mut wide, &mut spare) };
                assert_eq!(bits(&wide), bits(&plain), "{what}");
            }
        }

        /// The shapes of the one-row and deep packed-forward tests.
        fn forward_twins_match() {
            packed::tests::for_each_one_row_case(|mlp, k, seed, _, what| {
                assert_forward_twins(&PackedMlp::from(mlp), k, seed, what);
            });
            let net = PackedMlp::from(packed::tests::stepped_mlp(&packed::tests::hoc_model(), 3));
            assert_forward_twins(&net, 772, 3, "772 -> 96x4 -> 272");
        }

        /// How many times faster `run(true)`, the wider build, is than
        /// `run(false)`, the narrower one: the median, over `REPS`
        /// rounds, of `iters` narrow calls timed against `iters` wide
        /// calls right after, so that a busy spell of the host slows
        /// both sides of a round.
        #[expect(
            clippy::disallowed_methods,
            reason = "a speed test times the host on purpose"
        )]
        fn speedup(iters: usize, mut run: impl FnMut(bool)) -> f64 {
            const REPS: usize = 15;
            let mut time = |wide: bool| {
                let start = std::time::Instant::now();
                for _ in 0..iters {
                    run(black_box(wide));
                }
                start.elapsed().as_secs_f64()
            };
            let mut ratios: Vec<f64> = (0..REPS).map(|_| time(false) / time(true)).collect();
            ratios.sort_by(f64::total_cmp);
            ratios[REPS / 2]
        }

        pub(super) fn twins_outrun_the_plain_bodies() {
            if !is_x86_feature_detected!("avx2") {
                eprintln!("skipped: this CPU lacks the `avx2` feature");
                return;
            }
            // A shape of the tiled-kernel test.
            let mut rng = seeded_rng(1717);
            let a = tensor::tests::with_signed_zeros(32, 1284, &mut rng);
            let b = he_uniform(1284, 96, &mut rng);
            let mut out = vec![0.0; 32 * 96];
            let gemm = speedup(20, |wide| {
                let (a, out) = (Lhs::rows_of(&a), black_box(&mut out));
                if wide {
                    // SAFETY: this CPU has AVX2, checked above.
                    unsafe { avx2::gemm_add(a, &b, out) }
                } else {
                    plain_gemm(a, &b, out)
                }
            });

            // A shape of the one-row test. Its output is one 16-wide
            // panel; on wider layers the AVX2 gain swings with the
            // panels' alignment, from run to run.
            let layer = MlpConfig::regression(772, &[], 16);
            let net = PackedMlp::from(packed::tests::stepped_mlp(&layer, 3));
            let [input, _] = packed::tests::rows(772, 3);
            let (mut x, mut spare) = (Vec::new(), Vec::new());
            let forward = speedup(10_000, |wide| {
                x.clone_from(&input);
                let x = black_box(&mut x);
                if wide {
                    // SAFETY: this CPU has AVX2, checked above.
                    unsafe { avx2::forward_row(&net, x, &mut spare) }
                } else {
                    net.forward_row(x, &mut spare)
                }
            });

            // The MobileNetV2 stand-in's middle layer (24 -> 96 channels,
            // 3x3 taps) over 64 positions. The im2col test's products
            // are at most 40 outputs wide, too narrow to show the gain.
            let cols = tensor::tests::with_signed_zeros(64, 24 * 9, &mut rng);
            let weights = he_uniform(24 * 9, 96, &mut rng);
            let mut acc = vec![0.0; 64 * 96];
            let conv = speedup(100, |wide| {
                let acc = black_box(&mut acc);
                if wide {
                    // SAFETY: this CPU has AVX2, checked above.
                    unsafe { avx2::add_im2col_product(&cols, &weights, acc) }
                } else {
                    conv::add_im2col_product(&cols, &weights, acc)
                }
            });

            for (kernel, ratio) in [
                ("gemm_add", gemm),
                ("forward_row", forward),
                ("add_im2col_product", conv),
            ] {
                assert!(
                    ratio >= MIN_SPEEDUP,
                    "the AVX2 build of {kernel} is only {ratio:.2}x its plain body (want {MIN_SPEEDUP}x)"
                );
            }
        }

        /// The least speedup of the AVX-512 tiled kernel over its AVX2
        /// build. On a 2-vCPU AVX-512 Xeon both products measure
        /// 1.8–2.1x; with the AVX2 build's 4 x 16 tiles the AVX-512 build
        /// measures 1.11–1.16x, and with 8 x 16 tiles 1.32–1.38x.
        const MIN_AVX512_SPEEDUP: f64 = 1.2;

        pub(super) fn avx512_gemm_outruns_the_avx2_build() {
            if !is_x86_feature_detected!("avx512f") {
                eprintln!("skipped: this CPU lacks the `avx512f` feature");
                return;
            }
            // The MobileNetV2 model's first layer at batch 32: its forward
            // product, X * W, and its dW product, X^T * dY.
            let mut rng = seeded_rng(1717);
            let x = tensor::tests::with_signed_zeros(32, 1284, &mut rng);
            let w = he_uniform(1284, 96, &mut rng);
            let dy = he_uniform(32, 96, &mut rng);
            for (what, a, b, m) in [
                ("forward, 32x1284x96", Lhs::rows_of(&x), &w, 32),
                ("dW, 1284x32x96", Lhs::columns_of(&x), &dy, 1284),
            ] {
                let mut out = vec![0.0; m * b.cols()];
                let ratio = speedup(20, |wide| {
                    let out = black_box(&mut out);
                    if wide {
                        // SAFETY: this CPU has AVX-512F, checked above.
                        unsafe { avx512::gemm_add(a, b, out) }
                    } else if is_x86_feature_detected!("avx2") {
                        // SAFETY: this CPU has AVX2, checked just now.
                        unsafe { avx2::gemm_add(a, b, out) }
                    } else {
                        plain_gemm(a, b, out)
                    }
                });
                assert!(
                    ratio >= MIN_AVX512_SPEEDUP,
                    "the AVX-512 build of gemm_add ({what}) is only {ratio:.2}x the AVX2 build (want {MIN_AVX512_SPEEDUP}x)"
                );
            }
        }
    }
}
