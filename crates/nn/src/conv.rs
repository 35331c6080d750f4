//! Forward-only 2-D convolutional stacks.
//!
//! The paper extracts "deep" content features (ResNet50, MobileNetV2) with
//! pretrained CNNs. This reproduction has no pretrained weights, so those
//! features are synthesized by small *fixed-weight* convolutional stacks:
//! random but deterministic filters followed by ReLU, striding, and global
//! average pooling. Such stacks are well-known to produce content-dependent
//! embeddings (random-feature networks) — which is all the scheduler's
//! accuracy predictor needs.
//!
//! No backpropagation is implemented here; these stacks are never trained.

use std::borrow::Cow;

use rand::Rng;

use crate::tensor::Matrix;

/// A channels-height-width `f32` feature map (CHW layout).
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMap {
    channels: usize,
    height: usize,
    width: usize,
    data: Vec<f32>,
}

impl FeatureMap {
    /// Creates a feature map from a CHW buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer length does not match.
    pub fn from_chw(channels: usize, height: usize, width: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), channels * height * width, "CHW buffer mismatch");
        Self {
            channels,
            height,
            width,
            data,
        }
    }

    /// Number of channels.
    pub(crate) fn channels(&self) -> usize {
        self.channels
    }

    /// Spatial height.
    pub(crate) fn height(&self) -> usize {
        self.height
    }

    /// Spatial width.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Global average pool: one value per channel.
    pub(crate) fn global_average_pool(&self) -> Vec<f32> {
        let hw = (self.height * self.width) as f32;
        (0..self.channels)
            .map(|c| {
                let start = c * self.height * self.width;
                self.data[start..start + self.height * self.width]
                    .iter()
                    .sum::<f32>()
                    / hw
            })
            .collect()
    }
}

/// A single 2-D convolution layer with square kernels, stride, and ReLU.
///
/// The forward pass lowers the input to im2col (one row per output
/// position, one column per tap) and multiplies it by the weights with
/// a zero-skipping blocked loop of its own.
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    // Weights as a taps x out-channels matrix, taps in (ic, ky, kx) order:
    // the right-hand side of the im2col product, and the only copy.
    weights: Matrix,
    bias: Vec<f32>,
}

impl Conv2d {
    /// Creates a conv layer with He-style random filters from `rng`.
    ///
    /// The filters are drawn one output channel at a time, each in
    /// `(ic, ky, kx)` order, then the biases.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub(crate) fn random(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(kernel > 0 && stride > 0, "kernel/stride must be positive");
        let taps = in_channels * kernel * kernel;
        let bound = (2.0 / taps as f32).sqrt();
        let mut weights = Matrix::zeros(taps, out_channels);
        for oc in 0..out_channels {
            for tap in 0..taps {
                weights[(tap, oc)] = rng.gen_range(-bound..=bound);
            }
        }
        let bias = (0..out_channels)
            .map(|_| rng.gen_range(-0.05..=0.05))
            .collect();
        Self {
            in_channels,
            out_channels,
            kernel,
            stride,
            weights,
            bias,
        }
    }

    /// Output spatial size for an input of the given size (valid padding).
    fn out_size(&self, input: usize) -> usize {
        if input < self.kernel {
            1
        } else {
            (input - self.kernel) / self.stride + 1
        }
    }

    /// Forward pass with ReLU.
    ///
    /// Inputs smaller than the kernel are zero-padded up to kernel size.
    ///
    /// Each output is its bias plus the tap products in ascending
    /// `(ic, ky, kx)` order. The kernel skips zero inputs (padding taps
    /// included); their products are `±0.0`, which cannot change a sum
    /// that starts from a bias other than `-0.0`, so the result is the
    /// same as a direct per-tap loop's bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the input channel count does not match.
    pub(crate) fn forward(&self, input: &FeatureMap) -> FeatureMap {
        assert_eq!(
            input.channels(),
            self.in_channels,
            "channel mismatch: input {} vs layer {}",
            input.channels(),
            self.in_channels
        );
        let (oh, ow) = (self.out_size(input.height()), self.out_size(input.width()));
        let positions = oh * ow;
        let cols = self.im2col(input);
        let mut acc: Vec<f32> = self.bias.repeat(positions);
        crate::simd::add_im2col_product(&cols, &self.weights, &mut acc);
        // Positions x channels back to CHW, applying ReLU.
        let mut out = vec![0.0; self.out_channels * positions];
        for (p, row) in acc.chunks_exact(self.out_channels).enumerate() {
            for (oc, &v) in row.iter().enumerate() {
                out[oc * positions + p] = v.max(0.0);
            }
        }
        FeatureMap::from_chw(self.out_channels, oh, ow, out)
    }

    /// The im2col matrix of `input`: one row per output position, one
    /// column per `(ic, ky, kx)` tap.
    fn im2col(&self, input: &FeatureMap) -> Matrix {
        let (ih, iw) = (input.height(), input.width());
        let (oh, ow) = (self.out_size(ih), self.out_size(iw));
        let (k, s) = (self.kernel, self.stride);
        let taps = self.weights.rows();
        let mut cols = Matrix::zeros(oh * ow, taps);
        for (p, row) in cols.as_mut_slice().chunks_exact_mut(taps).enumerate() {
            let (y0, x0) = ((p / ow) * s, (p % ow) * s);
            // Taps past the input's edge stay 0; `x0 < iw` and `y0 < ih`
            // hold by construction of `out_size`.
            let span = k.min(iw - x0);
            for ic in 0..self.in_channels {
                for ky in 0..k.min(ih - y0) {
                    let src = (ic * ih + y0 + ky) * iw + x0;
                    let dst = (ic * k + ky) * k;
                    row[dst..dst + span].copy_from_slice(&input.data[src..src + span]);
                }
            }
        }
        cols
    }
}

/// Adds `cols * weights` onto `acc` (positions x out-channels, each
/// row seeded with the biases).
///
/// This keeps its own blocked i-k-j loop instead of the crate's tiled
/// matmul kernel because it skips zero inputs, and im2col inputs are
/// mostly zeros: the ReLU outputs of the previous layer, and padding.
/// On the conv stand-ins (2-vCPU x86-64 host) this loop reads about
/// 0.10 ns per multiply-add; without the skip it reads 0.24, and the
/// tiled kernel 0.28–0.38. Per output the taps are still added in
/// ascending order, so a skip changes no result (see
/// [`Conv2d::forward`]). In alternating runs on one host the AVX2 build
/// read 0.10–0.12 ns per multiply-add against 0.12–0.16 for the plain
/// one.
///
/// This is the kernel's body; [`crate::simd::add_im2col_product`] runs
/// it in the widest build the CPU supports.
#[inline(always)]
pub(crate) fn add_im2col_product(cols: &Matrix, weights: &Matrix, acc: &mut [f32]) {
    const BLOCK_I: usize = 16;
    const BLOCK_K: usize = 64;
    let (positions, taps, n) = (cols.rows(), cols.cols(), weights.cols());
    debug_assert_eq!(acc.len(), positions * n);
    let (a, b) = (cols.as_slice(), weights.as_slice());
    for ii in (0..positions).step_by(BLOCK_I) {
        let i_end = (ii + BLOCK_I).min(positions);
        for kk in (0..taps).step_by(BLOCK_K) {
            let k_end = (kk + BLOCK_K).min(taps);
            for i in ii..i_end {
                let out_row = &mut acc[i * n..(i + 1) * n];
                for (k, &x) in (kk..k_end).zip(&a[i * taps + kk..i * taps + k_end]) {
                    if x == 0.0 {
                        continue;
                    }
                    for (o, &w) in out_row.iter_mut().zip(&b[k * n..(k + 1) * n]) {
                        *o += x * w;
                    }
                }
            }
        }
    }
}

/// A stack of convolution layers ending in global average pooling.
///
/// # Examples
///
/// ```
/// use lr_nn::conv::{ConvStack, FeatureMap};
///
/// let stack = ConvStack::random(&[(3, 8, 3, 2), (8, 16, 3, 2)], 42);
/// let input = FeatureMap::from_chw(3, 32, 32, vec![0.0; 3 * 32 * 32]);
/// let embedding = stack.embed(&input);
/// assert_eq!(embedding.len(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct ConvStack {
    layers: Vec<Conv2d>,
}

impl ConvStack {
    /// Builds a stack from `(in_c, out_c, kernel, stride)` specs with
    /// deterministic random weights derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if specs are empty or channel counts do not chain.
    pub fn random(specs: &[(usize, usize, usize, usize)], seed: u64) -> Self {
        assert!(!specs.is_empty(), "at least one conv layer required");
        for w in specs.windows(2) {
            assert_eq!(w[0].1, w[1].0, "conv channel chain mismatch");
        }
        let mut rng = crate::init::seeded_rng(seed);
        let layers = specs
            .iter()
            .map(|&(ic, oc, k, s)| Conv2d::random(ic, oc, k, s, &mut rng))
            .collect();
        Self { layers }
    }

    /// Runs the stack and global-average-pools the final map into an
    /// embedding vector.
    pub fn embed(&self, input: &FeatureMap) -> Vec<f32> {
        let mut x = Cow::Borrowed(input);
        for layer in &self.layers {
            x = Cow::Owned(layer.forward(&x));
        }
        x.global_average_pool()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Test-only constructor and element access for the fixtures and the
    /// direct-loop reference.
    impl FeatureMap {
        /// Creates a zeroed feature map.
        ///
        /// # Panics
        ///
        /// Panics if any dimension is zero.
        pub(crate) fn zeros(channels: usize, height: usize, width: usize) -> Self {
            assert!(
                channels > 0 && height > 0 && width > 0,
                "feature map dimensions must be non-zero"
            );
            Self {
                channels,
                height,
                width,
                data: vec![0.0; channels * height * width],
            }
        }

        /// Value at `(c, y, x)`.
        pub(crate) fn get(&self, c: usize, y: usize, x: usize) -> f32 {
            self.data[(c * self.height + y) * self.width + x]
        }

        /// Sets the value at `(c, y, x)`.
        pub(crate) fn set(&mut self, c: usize, y: usize, x: usize, v: f32) {
            self.data[(c * self.height + y) * self.width + x] = v;
        }

        /// Raw CHW buffer.
        pub(crate) fn as_slice(&self) -> &[f32] {
            &self.data
        }
    }

    /// Reference convolution: the direct six-deep loop, summing from the
    /// bias over every in-bounds tap in `(ic, ky, kx)` order, zero inputs
    /// included.
    fn forward_direct(conv: &Conv2d, input: &FeatureMap) -> FeatureMap {
        let oh = conv.out_size(input.height());
        let ow = conv.out_size(input.width());
        let mut out = FeatureMap::zeros(conv.out_channels, oh, ow);
        let k = conv.kernel;
        for oc in 0..conv.out_channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = conv.bias[oc];
                    for ic in 0..conv.in_channels {
                        for ky in 0..k {
                            let iy = oy * conv.stride + ky;
                            if iy >= input.height() {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = ox * conv.stride + kx;
                                if ix >= input.width() {
                                    continue;
                                }
                                let tap = (ic * k + ky) * k + kx;
                                acc += conv.weights[(tap, oc)] * input.get(ic, iy, ix);
                            }
                        }
                    }
                    out.set(oc, oy, ox, acc.max(0.0));
                }
            }
        }
        out
    }

    fn bits(fm: &FeatureMap) -> Vec<u32> {
        fm.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The im2col test's layers and inputs: each shape's layer on a map
    /// with exact zeros, then a second layer on its ReLU output, which
    /// is full of exact zeros.
    fn im2col_cases() -> Vec<(Conv2d, FeatureMap)> {
        let mut rng = crate::init::seeded_rng(31);
        // (in_c, out_c, kernel, stride, height, width): strides 1/2/4,
        // kernels larger than the input on one or both axes, and channel
        // counts whose tap totals straddle the kernel's 64-wide tiles.
        let shapes = [
            (3, 8, 3, 1, 9, 11),
            (3, 16, 5, 4, 64, 64),
            (16, 24, 3, 2, 15, 15),
            (8, 40, 3, 2, 7, 6),
            (4, 6, 5, 2, 3, 3),
            (2, 5, 5, 1, 9, 4),
            (1, 3, 7, 4, 2, 30),
            (9, 17, 1, 1, 5, 5),
        ];
        let mut cases = Vec::new();
        for &(ic, oc, k, s, h, w) in &shapes {
            let conv = Conv2d::random(ic, oc, k, s, &mut rng);
            let data: Vec<f32> = (0..ic * h * w)
                .map(|i| match i % 5 {
                    // Exact zeros, as in a post-ReLU map, and a negative zero.
                    0 | 2 => 0.0,
                    4 if i % 3 == 0 => -0.0,
                    _ => rng.gen_range(-1.0..=1.0),
                })
                .collect();
            let input = FeatureMap::from_chw(ic, h, w, data);
            let relu = conv.forward(&input);
            let next = Conv2d::random(oc, 4, 3, 1, &mut rng);
            cases.push((conv, input));
            cases.push((next, relu));
        }
        cases
    }

    /// The product each im2col case runs: its im2col matrix, the layer's
    /// weights, and the bias-seeded accumulator.
    pub(crate) fn im2col_products() -> Vec<(Matrix, Matrix, Vec<f32>)> {
        im2col_cases()
            .into_iter()
            .map(|(conv, input)| {
                let cols = conv.im2col(&input);
                let acc = conv.bias.repeat(cols.rows());
                (cols, conv.weights, acc)
            })
            .collect()
    }

    #[test]
    fn im2col_forward_is_bit_identical_to_the_direct_loop() {
        for (conv, input) in im2col_cases() {
            let shape = (
                conv.in_channels,
                conv.out_channels,
                conv.kernel,
                conv.stride,
            );
            assert_eq!(
                bits(&conv.forward(&input)),
                bits(&forward_direct(&conv, &input)),
                "layer {shape:?} on {}x{}",
                input.height(),
                input.width()
            );
        }
    }

    #[test]
    fn random_draws_filters_per_output_channel_then_biases() {
        let (ic, oc, k) = (3, 4, 3);
        let conv = Conv2d::random(ic, oc, k, 2, &mut crate::init::seeded_rng(77));
        // The draw order of the flat [oc][ic][ky][kx] layout.
        let mut rng = crate::init::seeded_rng(77);
        let bound = (2.0 / (ic * k * k) as f32).sqrt();
        let flat: Vec<f32> = (0..oc * ic * k * k)
            .map(|_| rng.gen_range(-bound..=bound))
            .collect();
        let bias: Vec<f32> = (0..oc).map(|_| rng.gen_range(-0.05..=0.05)).collect();
        for o in 0..oc {
            for tap in 0..ic * k * k {
                assert_eq!(conv.weights[(tap, o)], flat[o * ic * k * k + tap]);
            }
        }
        assert_eq!(conv.bias, bias);
    }

    #[test]
    fn conv_output_shape() {
        let mut rng = crate::init::seeded_rng(0);
        let conv = Conv2d::random(3, 4, 3, 2, &mut rng);
        let out = conv.forward(&FeatureMap::zeros(3, 9, 9));
        assert_eq!(
            (out.channels(), out.height(), out.width()),
            (4, 4, 4) // (9-3)/2+1 = 4.
        );
    }

    #[test]
    fn conv_identity_kernel_passes_values() {
        // A 1x1 kernel with weight 1 and zero bias is identity (plus ReLU).
        let conv = Conv2d {
            in_channels: 1,
            out_channels: 1,
            kernel: 1,
            stride: 1,
            weights: Matrix::from_vec(1, 1, vec![1.0]),
            bias: vec![0.0],
        };
        let mut input = FeatureMap::zeros(1, 2, 2);
        input.set(0, 0, 0, 3.0);
        input.set(0, 1, 1, -2.0);
        let out = conv.forward(&input);
        assert_eq!(out.get(0, 0, 0), 3.0);
        assert_eq!(out.get(0, 1, 1), 0.0); // ReLU clamps the negative.
    }

    #[test]
    fn global_average_pool_means_per_channel() {
        let mut fm = FeatureMap::zeros(2, 2, 2);
        for y in 0..2 {
            for x in 0..2 {
                fm.set(0, y, x, 1.0);
                fm.set(1, y, x, (y * 2 + x) as f32);
            }
        }
        assert_eq!(fm.global_average_pool(), vec![1.0, 1.5]);
    }

    #[test]
    fn stack_embedding_is_deterministic_and_content_dependent() {
        let stack = ConvStack::random(&[(3, 8, 3, 2), (8, 16, 3, 2)], 5);
        let zero = FeatureMap::zeros(3, 24, 24);
        let mut bright = FeatureMap::zeros(3, 24, 24);
        for c in 0..3 {
            for y in 0..24 {
                for x in 0..24 {
                    bright.set(c, y, x, 0.8);
                }
            }
        }
        let e0 = stack.embed(&zero);
        let e0b = stack.embed(&zero);
        let e1 = stack.embed(&bright);
        assert_eq!(e0, e0b, "embedding must be deterministic");
        assert_ne!(e0, e1, "embedding must depend on content");
        assert_eq!(e0.len(), 16);
    }

    #[test]
    fn tiny_input_is_padded_not_panicking() {
        let stack = ConvStack::random(&[(1, 4, 5, 2)], 9);
        let out = stack.embed(&FeatureMap::zeros(1, 2, 2));
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "conv channel chain mismatch")]
    fn stack_rejects_bad_chain() {
        let _ = ConvStack::random(&[(3, 8, 3, 2), (4, 16, 3, 2)], 0);
    }
}
