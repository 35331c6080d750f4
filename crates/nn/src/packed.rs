//! Inference-only multi-layer perceptron, packed for one example at a
//! time.
//!
//! The scheduler queries each accuracy model with a single input row per
//! GoF. [`PackedMlp`] is what a trained [`Mlp`] becomes for that: each
//! layer's weights are repacked once into contiguous column panels, and
//! nothing else of training is kept — no row-major copy, no momentum
//! buffers.
//!
//! Every output is summed from `+0.0` over its products in ascending
//! inner index, then the bias is added, then the activation applied:
//! the order [`Mlp::infer`] uses. The two agree bit for bit.

use crate::layers::{Activation, Dense};
use crate::mlp::Mlp;

/// Columns of a full panel: 32 accumulators, eight SSE registers in the
/// plain x86-64 build and four AVX2 ones in the wide build.
const WIDE: usize = 32;
/// Columns of the one narrower panel a layer may end with.
const NARROW: usize = 16;
/// Bytes every layer's first panel is aligned to: one cache line, so
/// where the allocator puts the panels changes no load's cache-line
/// split from one run to the next.
const PANEL_ALIGN: usize = 64;
/// Spare values allocated ahead of the panels, enough to reach the
/// next [`PANEL_ALIGN`] boundary from any `f32` address.
const PANEL_PAD: usize = PANEL_ALIGN / size_of::<f32>() - 1;

/// A stack of dense layers that runs one example at a time and cannot
/// be trained.
///
/// # Examples
///
/// ```
/// use lr_nn::init::seeded_rng;
/// use lr_nn::{Matrix, Mlp, MlpConfig, PackedMlp};
///
/// let mlp = Mlp::new(&MlpConfig::regression(3, &[40], 2), &mut seeded_rng(1));
/// let batch = mlp.infer(&Matrix::row_vector(&[0.5, -1.0, 2.0]));
/// let packed = PackedMlp::from(mlp);
/// let (mut x, mut spare) = (vec![0.5, -1.0, 2.0], Vec::new());
/// packed.infer_row(&mut x, &mut spare);
/// assert_eq!(x, batch.as_slice());
/// ```
#[derive(Debug, Clone)]
pub struct PackedMlp {
    layers: Vec<PackedDense>,
}

/// One dense layer with its weights in column panels.
#[derive(Debug, Clone)]
struct PackedDense {
    in_dim: usize,
    out_dim: usize,
    /// The weight matrix, panel by panel: each [`WIDE`]-column panel as
    /// `in_dim` rows of `WIDE`, then at most one [`NARROW`] panel the
    /// same way, then each leftover column as `in_dim` contiguous
    /// values.
    panels: AlignedPanels,
    bias: Vec<f32>,
    activation: Activation,
}

/// Values whose first one sits on a [`PANEL_ALIGN`]-byte boundary: a
/// buffer allocated [`PANEL_PAD`] values longer than its contents and
/// read from the boundary on.
#[derive(Debug)]
struct AlignedPanels {
    buf: Vec<f32>,
    /// Index in `buf` of the first value.
    start: usize,
}

impl AlignedPanels {
    /// An empty buffer with room for `len` values after the boundary.
    fn with_capacity(len: usize) -> Self {
        let mut buf: Vec<f32> = Vec::with_capacity(len + PANEL_PAD);
        let start = buf.as_ptr().align_offset(PANEL_ALIGN).min(PANEL_PAD);
        buf.resize(start, 0.0);
        Self { buf, start }
    }

    /// Appends `values`, which must fit the capacity: a buffer that
    /// grew would move, and lose its alignment.
    fn extend_from_slice(&mut self, values: &[f32]) {
        debug_assert!(self.buf.len() + values.len() <= self.buf.capacity());
        self.buf.extend_from_slice(values);
    }

    fn as_slice(&self) -> &[f32] {
        &self.buf[self.start..]
    }
}

impl Clone for AlignedPanels {
    /// A copy aligned afresh, at its own offset.
    fn clone(&self) -> Self {
        let mut copy = Self::with_capacity(self.as_slice().len());
        copy.extend_from_slice(self.as_slice());
        copy
    }
}

impl PackedMlp {
    /// Packs a stack of dense layers, consuming them.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or a layer's input width differs from
    /// the output width of the layer before it.
    pub fn new(layers: Vec<Dense>) -> Self {
        assert!(!layers.is_empty(), "a network needs at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(pair[0].out_dim(), pair[1].in_dim(), "layer width mismatch");
        }
        Self {
            layers: layers.into_iter().map(PackedDense::new).collect(),
        }
    }

    /// The widest vector a forward pass holds: the input or any layer's
    /// output. Buffers of this capacity make [`PackedMlp::infer_row`]
    /// allocation-free.
    pub fn width(&self) -> usize {
        let outputs = self.layers.iter().map(|l| l.out_dim);
        outputs.fold(self.layers[0].in_dim, usize::max)
    }

    /// Forward pass of one example. `x` holds the input on entry and the
    /// output on return; `spare` is scratch. The two swap once per
    /// layer, and neither reallocates if both have capacity
    /// [`PackedMlp::width`].
    ///
    /// # Panics
    ///
    /// Panics if `x` does not have the first layer's input width.
    pub fn infer_row(&self, x: &mut Vec<f32>, spare: &mut Vec<f32>) {
        assert_eq!(x.len(), self.layers[0].in_dim, "input dimension mismatch");
        crate::simd::forward_row(self, x, spare);
    }

    /// The body of [`PackedMlp::infer_row`] after its width check;
    /// [`crate::simd::forward_row`] runs it in the widest build the CPU
    /// supports.
    #[inline(always)]
    pub(crate) fn forward_row(&self, x: &mut Vec<f32>, spare: &mut Vec<f32>) {
        for layer in &self.layers {
            spare.resize(layer.out_dim, 0.0);
            layer.forward(x, spare);
            std::mem::swap(x, spare);
        }
    }
}

impl From<Mlp> for PackedMlp {
    /// Converts a trained network for inference, dropping its training
    /// state.
    fn from(mlp: Mlp) -> Self {
        Self::new(mlp.into_layers())
    }
}

impl PackedDense {
    fn new(layer: Dense) -> Self {
        let (in_dim, out_dim) = (layer.in_dim(), layer.out_dim());
        let (weights, bias, activation) = layer.into_parts();
        let (wide, narrow) = panel_split(out_dim);
        let mut panels = AlignedPanels::with_capacity(in_dim * out_dim);
        let widths = std::iter::repeat_n(WIDE, wide / WIDE)
            .chain(std::iter::repeat_n(NARROW, narrow / NARROW))
            .chain(std::iter::repeat_n(1, out_dim - wide - narrow));
        let mut j = 0;
        for width in widths {
            for p in 0..in_dim {
                panels.extend_from_slice(&weights.row(p)[j..j + width]);
            }
            j += width;
        }
        Self {
            in_dim,
            out_dim,
            panels,
            bias: bias.as_slice().to_vec(),
            activation,
        }
    }

    /// `out = act(x W + b)` for one row `x`.
    #[inline(always)]
    fn forward(&self, x: &[f32], out: &mut [f32]) {
        let k = self.in_dim;
        let (wide, narrow) = panel_split(self.out_dim);
        let (wide_w, rest) = self.panels.as_slice().split_at(wide * k);
        let (narrow_w, single_w) = rest.split_at(narrow * k);
        let (wide_out, rest) = out.split_at_mut(wide);
        let (narrow_out, single_out) = rest.split_at_mut(narrow);
        let panels = wide_w.chunks_exact(WIDE * k);
        for (panel, dst) in panels.zip(wide_out.as_chunks_mut::<WIDE>().0) {
            *dst = panel_sums(x, panel);
        }
        if let Some(dst) = narrow_out.as_chunks_mut::<NARROW>().0.first_mut() {
            *dst = panel_sums(x, narrow_w);
        }
        for (column, dst) in single_w.chunks_exact(k).zip(single_out) {
            *dst = panel_sums::<1>(x, column)[0];
        }
        for (o, &b) in out.iter_mut().zip(&self.bias) {
            *o += b;
        }
        self.activation.apply_in_place(out);
        crate::debug_assert_finite!(&*out, "packed dense forward");
    }
}

/// How many of `n` columns go to full panels and to the narrow panel;
/// the rest are single columns.
fn panel_split(n: usize) -> (usize, usize) {
    let wide = n / WIDE * WIDE;
    let narrow = if n - wide >= NARROW { NARROW } else { 0 };
    (wide, narrow)
}

/// The `W` dot products of `x` with one panel's columns, each summed
/// from `+0.0` in ascending inner index.
#[inline(always)]
fn panel_sums<const W: usize>(x: &[f32], panel: &[f32]) -> [f32; W] {
    let mut acc = [0.0f32; W];
    for (&xp, row) in x.iter().zip(panel.as_chunks::<W>().0) {
        for (a, &w) in acc.iter_mut().zip(row) {
            *a += xp * w;
        }
    }
    acc
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::init::{seeded_rng, uniform};
    use crate::mlp::MlpConfig;
    use crate::optim::Sgd;
    use crate::tensor::Matrix;

    const ACTIVATIONS: [Activation; 4] = [
        Activation::Linear,
        Activation::Relu,
        Activation::LeakyRelu,
        Activation::Tanh,
    ];

    /// An `Mlp` of the given widths after one SGD step, so its biases
    /// are not all zero.
    pub(crate) fn stepped_mlp(cfg: &MlpConfig, seed: u64) -> Mlp {
        let mut rng = seeded_rng(seed);
        let mut mlp = Mlp::new(cfg, &mut rng);
        let inputs = uniform(2, cfg.input_dim, 1.0, &mut rng);
        let targets = uniform(2, cfg.output_dim, 1.0, &mut rng);
        mlp.fit(&inputs, &targets, Sgd::plain(0.1), 1, 2, &mut rng);
        mlp
    }

    /// Test rows of width `k`: uniform values in ±1 with every seventh a
    /// `+0.0` and every seventh, offset, a `-0.0`; then all `-0.0`.
    pub(crate) fn rows(k: usize, seed: u64) -> [Vec<f32>; 2] {
        let mut mixed = uniform(1, k, 1.0, &mut seeded_rng(seed))
            .as_slice()
            .to_vec();
        for (i, v) in mixed.iter_mut().enumerate() {
            match i % 7 {
                0 => *v = 0.0,
                3 => *v = -0.0,
                _ => {}
            }
        }
        [mixed, vec![-0.0; k]]
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// Checks the packed forward against `Mlp::infer` on a 1-row matrix
    /// for every test row; returns how many outputs were negative.
    fn assert_matches(mlp: Mlp, k: usize, seed: u64, what: &str) -> usize {
        let inputs = rows(k, seed);
        let want: Vec<Matrix> = inputs
            .iter()
            .map(|x| mlp.infer(&Matrix::row_vector(x)))
            .collect();
        let packed = PackedMlp::from(mlp);
        let mut negatives = 0;
        let (mut x, mut spare) = (Vec::new(), Vec::new());
        for (input, want) in inputs.iter().zip(&want) {
            x.clone_from(input);
            packed.infer_row(&mut x, &mut spare);
            assert_eq!(bits(&x), bits(want.as_slice()), "{what}");
            negatives += x.iter().filter(|&&v| v < 0.0).count();
        }
        negatives
    }

    /// Calls `f` with each network of the one-row test, every input
    /// width against every output width (each panel split) and
    /// activation, stepped from its own seed: `(mlp, k, seed, act, what)`.
    pub(crate) fn for_each_one_row_case(mut f: impl FnMut(Mlp, usize, u64, Activation, &str)) {
        for (ki, k) in [1, 4, 35, 772, 1768].into_iter().enumerate() {
            for (ni, n) in [1, 15, 16, 17, 31, 32, 33, 96, 272].into_iter().enumerate() {
                for (ai, act) in ACTIVATIONS.into_iter().enumerate() {
                    let cfg = MlpConfig {
                        hidden_activation: act,
                        output_activation: act,
                        ..MlpConfig::regression(k, &[], n)
                    };
                    let seed = (ki * 100 + ni * 10 + ai) as u64;
                    let what = format!("{k} -> {n}, {act:?}");
                    f(stepped_mlp(&cfg, seed), k, seed, act, &what);
                }
            }
        }
    }

    /// The HoC accuracy model: light + 768-bin HoC, four 96-wide leaky
    /// hidden layers, 272 branches.
    pub(crate) fn hoc_model() -> MlpConfig {
        MlpConfig {
            hidden_activation: Activation::LeakyRelu,
            ..MlpConfig::regression(772, &[96; 4], 272)
        }
    }

    #[test]
    fn one_row_forward_is_bit_identical_to_mlp_infer() {
        let mut leaky_negatives = 0;
        for_each_one_row_case(|mlp, k, seed, act, what| {
            let negatives = assert_matches(mlp, k, seed, what);
            if act == Activation::LeakyRelu {
                leaky_negatives += negatives;
            }
        });
        assert!(leaky_negatives > 0, "no LeakyRelu output went negative");
    }

    #[test]
    fn deep_forward_is_bit_identical_at_the_hoc_model_shape() {
        assert_matches(stepped_mlp(&hoc_model(), 3), 772, 3, "772 -> 96x4 -> 272");
    }

    #[test]
    fn buffers_of_the_network_width_are_not_reallocated() {
        let cfg = MlpConfig::regression(5, &[40, 8], 3);
        let packed = PackedMlp::from(Mlp::new(&cfg, &mut seeded_rng(2)));
        assert_eq!(packed.width(), 40);
        let mut x = Vec::with_capacity(packed.width());
        let mut spare = Vec::with_capacity(packed.width());
        x.extend_from_slice(&[0.1, 0.2, 0.3, 0.4, 0.5]);
        let pointers = [x.as_ptr(), spare.as_ptr()];
        packed.infer_row(&mut x, &mut spare);
        assert_eq!(x.len(), 3);
        // Three layers: an odd number of swaps.
        assert_eq!([spare.as_ptr(), x.as_ptr()], pointers);
    }

    #[test]
    fn every_layer_and_every_clone_starts_on_a_cache_line() {
        let packed = PackedMlp::from(stepped_mlp(&hoc_model(), 3));
        let copy = packed.clone();
        for net in [&packed, &copy] {
            for layer in &net.layers {
                let panels = layer.panels.as_slice();
                assert_eq!(panels.len(), layer.in_dim * layer.out_dim);
                assert_eq!(panels.as_ptr().addr() % PANEL_ALIGN, 0);
            }
        }
        let (mut x, mut spare) = (rows(772, 3)[0].clone(), Vec::new());
        let mut y = x.clone();
        packed.infer_row(&mut x, &mut spare);
        copy.infer_row(&mut y, &mut spare);
        assert_eq!(bits(&x), bits(&y));
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn infer_row_rejects_wrong_width() {
        let mlp = Mlp::new(&MlpConfig::regression(4, &[4], 1), &mut seeded_rng(1));
        PackedMlp::from(mlp).infer_row(&mut vec![1.0, 2.0], &mut Vec::new());
    }
}
