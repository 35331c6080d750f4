//! Runtime choice between the plain and the AVX2 build of the crate's
//! three hot kernels, and the crate's only `unsafe`.
//!
//! Each kernel body is one `#[inline(always)]` function: the tiled
//! product [`tensor::gemm_add`], which runs every product of
//! [`Mlp::fit`](crate::Mlp::fit); the one-row forward
//! [`PackedMlp::forward_row`], which runs every
//! [`PackedMlp::infer_row`]; and the zero-skipping conv product
//! [`conv::add_im2col_product`], which runs every
//! [`Conv2d::forward`](crate::conv::Conv2d::forward). The entry points
//! here compile each body twice: once for the crate's target (SSE2 on
//! x86-64) and once inside a `#[target_feature(enable = "avx2")]`
//! wrapper, where LLVM may use 256-bit lanes. The AVX2 build runs when
//! `is_x86_feature_detected!` finds the feature; std caches that probe,
//! so each call costs one load and a branch.
//!
//! Only `avx2` is enabled, never `fma`. rustc emits no `contract` flag,
//! so each multiply and add stays a separate, rounded operation and
//! every sum keeps its order: both builds give the same bits. With
//! `fma` enabled, a future `mul_add` would change results silently.

#![allow(unsafe_code)]

use crate::conv;
use crate::packed::PackedMlp;
use crate::tensor::{self, Lhs, Matrix};

/// `out += a * b`, row-major `a.rows x b.cols()`: [`tensor::gemm_add`]
/// in the widest build this CPU runs.
pub(crate) fn gemm_add(a: Lhs<'_>, b: &Matrix, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU running this call has AVX2, the only feature
        // `avx2::gemm_add` enables.
        return unsafe { avx2::gemm_add(a, b, out) };
    }
    tensor::gemm_add(a, b, out)
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
        tensor::gemm_add(a, b, out)
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

    #[cfg(target_arch = "x86_64")]
    mod x86_64 {
        use super::super::*;
        use crate::init::{he_uniform, seeded_rng};
        use crate::{conv, packed, tensor};

        fn bits(xs: &[f32]) -> Vec<u32> {
            xs.iter().map(|v| v.to_bits()).collect()
        }

        pub(super) fn twins_match_on_every_kernel_test_shape() {
            assert!(
                is_x86_feature_detected!("avx2"),
                "this x86-64 CPU lacks the `avx2` feature, so the AVX2 twins cannot be checked"
            );
            gemm_twins_match();
            conv_twins_match();
            forward_twins_match();
        }

        /// Adds the `m`-row product `a * b` to a zero and to a
        /// bias-seeded `out` through both builds.
        fn assert_gemm_twins(m: usize, a: Lhs<'_>, b: &Matrix, what: &str) {
            let bias: Vec<f32> = (0..b.cols()).map(|j| j as f32 * 0.25 - 1.0).collect();
            for seed in [vec![0.0; b.cols()], bias] {
                let mut plain = seed.repeat(m);
                let mut wide = plain.clone();
                tensor::gemm_add(a, b, &mut plain);
                // SAFETY: the caller asserted that this CPU has AVX2.
                unsafe { avx2::gemm_add(a, b, &mut wide) };
                assert_eq!(bits(&wide), bits(&plain), "{what}");
            }
        }

        /// The shapes of the tiled-kernel and `matmul_transposed` tests,
        /// in the layouts the products read: `A * B` (forward and dX)
        /// and `(A^T)^T * B` (dW), with `±0.0` left-hand entries.
        fn gemm_twins_match() {
            let mut rng = seeded_rng(1717);
            let shapes = tensor::tests::tiled_kernel_shapes()
                .into_iter()
                .chain(tensor::tests::TRANSPOSED_SHAPES);
            for (m, k, n) in shapes {
                let a = tensor::tests::with_signed_zeros(m, k, &mut rng);
                let b = he_uniform(k, n, &mut rng);
                assert_gemm_twins(m, Lhs::rows_of(&a), &b, &format!("A * B, {m}x{k}x{n}"));
                let at = a.transpose();
                let what = format!("A^T^T * B, {m}x{k}x{n}");
                assert_gemm_twins(m, Lhs::columns_of(&at), &b, &what);
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
    }
}
