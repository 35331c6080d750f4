//! Sequential multi-layer perceptron with mini-batch SGD training.
//!
//! [`Mlp::fit`] reads its training set through [`Examples`], one example
//! at a time, so each mini-batch is gathered straight from wherever the
//! examples live: a caller whose inputs are derived (standardized,
//! concatenated) builds them into the batch and never holds the whole
//! derived matrix. A step keeps every buffer it touches in one
//! workspace, and computes each layer's weight gradient a few dozen
//! rows at a time, applying each chunk to the weights as it goes, so the
//! gradient of the widest layer is never whole.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::layers::{Activation, Dense, DenseVelocity};
use crate::loss;
use crate::optim::Sgd;
use crate::tensor::{Lhs, Matrix};

/// Rows of a layer's weight gradient computed and applied at a time.
/// At 32 rows the chunk is a 12 KB buffer for a 96-wide layer, and each
/// chunk's product still runs whole register tiles.
const DW_CHUNK_ROWS: usize = 32;

/// A training set that [`Mlp::fit`] reads one example at a time.
///
/// Matrices with one example per row are examples as they are:
///
/// ```
/// use lr_nn::{init::seeded_rng, Matrix, Mlp, MlpConfig, Sgd};
///
/// let inputs = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
/// let targets = Matrix::from_vec(2, 1, vec![1.0, 0.0]);
/// let mut rng = seeded_rng(1);
/// let mut mlp = Mlp::new(&MlpConfig::regression(2, &[4], 1), &mut rng);
/// let history = mlp.fit(&(&inputs, &targets), Sgd::paper(0.1, 0.0), 3, 2, &mut rng);
/// assert_eq!(history.len(), 3);
/// ```
pub trait Examples {
    /// Number of examples.
    fn count(&self) -> usize;
    /// Writes example `i`'s input into `out`, one network input wide.
    fn input_into(&self, i: usize, out: &mut [f32]);
    /// Writes example `i`'s target into `out`, one network output wide.
    fn target_into(&self, i: usize, out: &mut [f32]);
}

/// `(inputs, targets)`: example `i` is row `i` of each.
///
/// # Panics
///
/// [`Examples::count`] panics if the two row counts differ, and the
/// writers panic if a row's width differs from the network's.
impl Examples for (&Matrix, &Matrix) {
    fn count(&self) -> usize {
        assert_eq!(self.0.rows(), self.1.rows(), "dataset size mismatch");
        self.0.rows()
    }

    fn input_into(&self, i: usize, out: &mut [f32]) {
        out.copy_from_slice(self.0.row(i));
    }

    fn target_into(&self, i: usize, out: &mut [f32]) {
        out.copy_from_slice(self.1.row(i));
    }
}

/// Architecture description for an [`Mlp`].
///
/// # Examples
///
/// The paper's 6-layer accuracy predictor head (after feature projection)
/// with 256-unit hidden layers and `M` outputs:
///
/// ```
/// use lr_nn::MlpConfig;
///
/// let cfg = MlpConfig::regression(512, &[256, 256, 256, 256], 45);
/// assert_eq!(cfg.hidden_dims.len() + 2, 6);
/// ```
#[derive(Debug, Clone)]
pub struct MlpConfig {
    /// Input dimensionality.
    pub input_dim: usize,
    /// Hidden layer widths, in order.
    pub hidden_dims: Vec<usize>,
    /// Output dimensionality.
    pub output_dim: usize,
    /// Activation for hidden layers.
    pub hidden_activation: Activation,
    /// Activation for the output layer.
    pub output_activation: Activation,
}

impl MlpConfig {
    /// A regression network: ReLU hidden layers, linear output.
    pub fn regression(input_dim: usize, hidden_dims: &[usize], output_dim: usize) -> Self {
        Self {
            input_dim,
            hidden_dims: hidden_dims.to_vec(),
            output_dim,
            hidden_activation: Activation::Relu,
            output_activation: Activation::Linear,
        }
    }

    /// Full list of layer dims, input first and output last.
    pub(crate) fn layer_dims(&self) -> Vec<usize> {
        let mut dims = Vec::with_capacity(self.hidden_dims.len() + 2);
        dims.push(self.input_dim);
        dims.extend_from_slice(&self.hidden_dims);
        dims.push(self.output_dim);
        dims
    }
}

/// A sequential stack of dense layers trainable with mini-batch SGD.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
    velocities: Vec<DenseVelocity>,
}

impl Mlp {
    /// Builds the network described by `config`, initializing weights from
    /// `rng`.
    ///
    /// # Panics
    ///
    /// Panics if the config has a zero dimension anywhere.
    pub fn new(config: &MlpConfig, rng: &mut impl Rng) -> Self {
        let dims = config.layer_dims();
        assert!(dims.iter().all(|&d| d > 0), "zero-width layer in config");
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for i in 0..dims.len() - 1 {
            let act = if i + 2 == dims.len() {
                config.output_activation
            } else {
                config.hidden_activation
            };
            layers.push(Dense::new(dims[i], dims[i + 1], act, rng));
        }
        let shapes = dims.windows(2);
        let velocities = shapes.map(|d| DenseVelocity::zeros(d[0], d[1])).collect();
        Self { layers, velocities }
    }

    /// Inference on a `batch x input_dim` matrix, returning
    /// `batch x output_dim`.
    ///
    /// Uses two ping-pong scratch matrices instead of allocating fresh
    /// activations per layer; the result is bit-identical to chaining
    /// each layer's allocating forward pass.
    pub fn infer(&self, input: &Matrix) -> Matrix {
        let mut cur = Matrix::zeros(input.rows(), self.layers[0].out_dim());
        self.layers[0].infer_into(input, &mut cur);
        let mut next = Matrix::zeros(1, 1);
        for layer in &self.layers[1..] {
            layer.infer_into(&cur, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }

    /// Trains for `epochs` epochs over `examples`, shuffling each epoch;
    /// returns the per-epoch mean batch losses.
    ///
    /// Each mini-batch is gathered from `examples` into the workspace
    /// and is one SGD step. Every buffer a step touches lives in one
    /// workspace sized here, so steps do not allocate. Training stops
    /// early if the epoch loss is non-finite (divergence) — in that case
    /// the returned vector is shorter than `epochs`.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero or there are no examples, and if
    /// an example's widths differ from the network's.
    pub fn fit(
        &mut self,
        examples: &impl Examples,
        opt: Sgd,
        epochs: usize,
        batch_size: usize,
        rng: &mut impl Rng,
    ) -> Vec<f32> {
        assert!(batch_size > 0, "batch size must be positive");
        let n = examples.count();
        assert!(n > 0, "no examples to fit");
        let mut order: Vec<usize> = (0..n).collect();
        let mut ws = Workspace::new(&self.layers, batch_size.min(n));
        let mut history = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            order.shuffle(rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in order.chunks(batch_size) {
                ws.gather(examples, chunk);
                epoch_loss += self.step(&mut ws, opt);
                batches += 1;
            }
            let mean = epoch_loss / batches.max(1) as f32;
            history.push(mean);
            if !mean.is_finite() {
                break;
            }
        }
        history
    }

    /// One SGD step on the batch gathered in `ws`; returns the batch MSE
    /// before the update.
    ///
    /// Per layer, from the last: the loss gradient with respect to the
    /// layer's output becomes the gradient with respect to its
    /// pre-activation `g`, which gives `db` (its column sums) and, from
    /// the weights before they move, `dX = g W^T` for the layer below.
    /// Then `dW = x^T g` is computed and applied a chunk of rows at a
    /// time ([`step_weights`]).
    fn step(&mut self, ws: &mut Workspace, opt: Sgd) -> f32 {
        for (l, layer) in self.layers.iter().enumerate() {
            let (input, output) = ws.acts.split_at_mut(l + 1);
            layer.infer_into(&input[l], &mut output[0]);
        }
        let depth = self.layers.len();
        let grad = &mut ws.grads[depth - 1];
        let batch_loss = loss::mse_with_batch_mean_gradient(&ws.acts[depth], &ws.targets, grad);
        crate::debug_assert_finite!(batch_loss, "train step loss");
        if opt.grad_clip.is_finite() {
            let norm = grad.frobenius_norm();
            if norm > opt.grad_clip {
                grad.scale_in_place(opt.grad_clip / norm);
            }
        }
        let layers = self.layers.iter_mut().zip(self.velocities.iter_mut());
        for (l, (layer, vel)) in layers.enumerate().rev() {
            let (below, here) = ws.grads.split_at_mut(l);
            let grad = &mut here[0];
            layer.activation().backprop_in_place(&ws.acts[l + 1], grad);
            grad.sum_rows_into(&mut ws.grad_bias);
            if let Some(grad_input) = below.last_mut() {
                layer.weights().transpose_into(&mut ws.weights_t);
                grad.matmul_into(&ws.weights_t, grad_input);
            }
            let (input, chunk) = (&ws.acts[l], &mut ws.grad_chunk);
            step_weights(DW_CHUNK_ROWS, layer, vel, input, grad, opt, chunk);
            layer.sgd_step_bias(ws.grad_bias.as_slice(), opt, vel);
        }
        batch_loss
    }

    /// The trained layers, each with its weights' momentum buffer as
    /// spare room, consuming the network.
    pub(crate) fn into_layers(self) -> impl Iterator<Item = (Dense, Vec<f32>)> {
        let spares = self
            .velocities
            .into_iter()
            .map(DenseVelocity::into_weight_buffer);
        self.layers.into_iter().zip(spares)
    }
}

/// Steps `layer`'s weights by `dW = input^T grad`, `rows` rows at a
/// time: each chunk of `dW` is computed into `chunk` and applied to
/// those rows of the weights and momentum at once.
///
/// Each element of `dW` is the kernel's one sum, in the same order
/// whatever rows the product covers, and the update is elementwise, so
/// the weights end bit for bit where a step from the whole `dW` would
/// leave them.
fn step_weights(
    rows: usize,
    layer: &mut Dense,
    vel: &mut DenseVelocity,
    input: &Matrix,
    grad: &Matrix,
    opt: Sgd,
    chunk: &mut [f32],
) {
    let in_dim = input.cols();
    let mut first = 0;
    while first < in_dim {
        let end = (first + rows).min(in_dim);
        let dw = &mut chunk[..(end - first) * grad.cols()];
        dw.fill(0.0);
        crate::simd::gemm_add(Lhs::column_range(input, first..end), grad, dw);
        crate::debug_assert_finite!(&*dw, "weight gradient");
        layer.sgd_step_rows(first, dw, opt, vel);
        first = end;
    }
}

/// Every buffer one training step touches, sized once per [`Mlp::fit`]
/// for its largest batch. A shorter tail batch shrinks the batch-row
/// buffers within their capacity, so no step allocates. The batch is
/// the only copy of the examples that training holds, and a layer's
/// weight gradient never exists whole: one [`DW_CHUNK_ROWS`]-row chunk
/// at a time.
struct Workspace {
    /// `acts[0]` is the gathered batch; `acts[l + 1]` is layer `l`'s
    /// output.
    acts: Vec<Matrix>,
    /// The gathered targets.
    targets: Matrix,
    /// `grads[l]`: the loss gradient with respect to layer `l`'s output,
    /// turned in place into the gradient with respect to its
    /// pre-activation.
    grads: Vec<Matrix>,
    /// One chunk of one layer's weight gradient: [`DW_CHUNK_ROWS`] rows
    /// of the widest layer.
    grad_chunk: Vec<f32>,
    /// One layer's bias gradient at a time.
    grad_bias: Matrix,
    /// One layer's transposed weights at a time, for `dX`. Layer 0 has
    /// no layer below to pass `dX` to, so this is sized to the widest of
    /// the others.
    weights_t: Matrix,
}

impl Workspace {
    fn new(layers: &[Dense], batch: usize) -> Self {
        let most = |f: &dyn Fn(&Dense) -> usize| layers.iter().map(f).max().unwrap_or(1);
        let size = |l: &Dense| l.in_dim() * l.out_dim();
        let mut acts = vec![Matrix::zeros(batch, layers[0].in_dim())];
        acts.extend(layers.iter().map(|l| Matrix::zeros(batch, l.out_dim())));
        Self {
            grads: acts[1..].to_vec(),
            targets: acts[layers.len()].clone(),
            acts,
            grad_chunk: vec![0.0; most(&|l| l.in_dim().min(DW_CHUNK_ROWS) * l.out_dim())],
            grad_bias: Matrix::zeros(1, most(&Dense::out_dim)),
            weights_t: Matrix::zeros(1, layers[1..].iter().map(size).max().unwrap_or(1)),
        }
    }

    /// Gathers the examples `rows` into the batch and its targets.
    fn gather(&mut self, examples: &impl Examples, rows: &[usize]) {
        let (inputs, targets) = (&mut self.acts[0], &mut self.targets);
        let (in_dim, out_dim) = (inputs.cols(), targets.cols());
        inputs.resize(rows.len(), in_dim);
        targets.resize(rows.len(), out_dim);
        let xs = inputs.as_mut_slice().chunks_exact_mut(in_dim);
        let ys = targets.as_mut_slice().chunks_exact_mut(out_dim);
        for ((&i, x), y) in rows.iter().zip(xs).zip(ys) {
            examples.input_into(i, x);
            examples.target_into(i, y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;

    #[test]
    fn config_layer_dims() {
        let cfg = MlpConfig::regression(10, &[8, 6], 4);
        assert_eq!(cfg.layer_dims(), vec![10, 8, 6, 4]);
    }

    #[test]
    fn infer_shapes() {
        let mut rng = seeded_rng(1);
        let mlp = Mlp::new(&MlpConfig::regression(4, &[8], 3), &mut rng);
        let out = mlp.infer(&Matrix::zeros(5, 4));
        assert_eq!((out.rows(), out.cols()), (5, 3));
    }

    #[test]
    fn learns_linear_function() {
        let mut rng = seeded_rng(7);
        let mut mlp = Mlp::new(&MlpConfig::regression(2, &[16], 1), &mut rng);
        // Target: y = 0.5 x0 - 0.25 x1.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..64 {
            let a = (i % 8) as f32 / 8.0 - 0.5;
            let b = (i / 8) as f32 / 8.0 - 0.5;
            xs.extend_from_slice(&[a, b]);
            ys.push(0.5 * a - 0.25 * b);
        }
        let inputs = Matrix::from_vec(64, 2, xs);
        let targets = Matrix::from_vec(64, 1, ys);
        let history = mlp.fit(
            &(&inputs, &targets),
            Sgd::paper(0.05, 0.0),
            200,
            16,
            &mut rng,
        );
        let final_loss = *history.last().unwrap();
        assert!(
            final_loss < 1e-3,
            "network failed to fit a linear map: loss {final_loss}"
        );
        assert!(history[0] > final_loss, "loss did not decrease");
    }

    #[test]
    fn learns_nonlinear_function() {
        let mut rng = seeded_rng(13);
        let mut mlp = Mlp::new(&MlpConfig::regression(1, &[32, 32], 1), &mut rng);
        let n = 128;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            let x = i as f32 / n as f32 * 2.0 - 1.0;
            xs.push(x);
            ys.push(x * x);
        }
        let inputs = Matrix::from_vec(n, 1, xs);
        let targets = Matrix::from_vec(n, 1, ys);
        mlp.fit(
            &(&inputs, &targets),
            Sgd::paper(0.05, 0.0),
            400,
            32,
            &mut rng,
        );
        let mse = loss::tests::mse(&mlp.infer(&inputs), &targets);
        assert!(mse < 5e-3, "failed to fit x^2: mse {mse}");
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let cfg = MlpConfig::regression(4, &[8], 2);
        let mut with_decay = Mlp::new(&cfg, &mut seeded_rng(3));
        let mut without_decay = with_decay.clone();
        let inputs = Matrix::zeros(8, 4);
        let targets = Matrix::zeros(8, 2);
        let fit = |mlp: &mut Mlp, decay: f32| {
            mlp.fit(
                &(&inputs, &targets),
                Sgd::paper(0.1, decay),
                50,
                8,
                &mut seeded_rng(4),
            )
        };
        fit(&mut with_decay, 1e-2);
        fit(&mut without_decay, 0.0);
        let norm_with: f32 = with_decay.layers[0].weights().frobenius_norm();
        let norm_without: f32 = without_decay.layers[0].weights().frobenius_norm();
        assert!(
            norm_with < norm_without,
            "decay {norm_with} !< no-decay {norm_without}"
        );
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let cfg = MlpConfig::regression(3, &[8], 1);
        let inputs = Matrix::from_vec(4, 3, (0..12).map(|i| i as f32 / 12.0).collect());
        let targets = Matrix::from_vec(4, 1, vec![0.1, 0.2, 0.3, 0.4]);
        let run = || {
            let mut rng = seeded_rng(99);
            let mut mlp = Mlp::new(&cfg, &mut rng);
            mlp.fit(&(&inputs, &targets), Sgd::default(), 20, 2, &mut rng);
            mlp.infer(&Matrix::row_vector(&[0.5, 0.5, 0.5]))
        };
        assert_eq!(run(), run());
    }

    /// One layer of the allocating reference step: its parameters and
    /// momentum buffers.
    struct RefLayer {
        w: Matrix,
        b: Matrix,
        act: Activation,
        vw: Matrix,
        vb: Matrix,
    }

    /// A reference SGD step that shares no code with [`Mlp::step`]:
    /// every product is `matmul_naive` on an explicit transpose, and
    /// every element-wise stage builds a new matrix.
    fn reference_step(layers: &mut [RefLayer], x: &Matrix, t: &Matrix, opt: Sgd) -> f32 {
        let mut outs = vec![x.clone()];
        for l in layers.iter() {
            let pre = outs[outs.len() - 1]
                .matmul_naive(&l.w)
                .add_row_broadcast(&l.b);
            outs.push(l.act.forward(&pre));
        }
        let d = outs[layers.len()].sub(t);
        let loss = d.as_slice().iter().map(|v| v * v).sum::<f32>() / d.as_slice().len() as f32;
        let mut grad = d.scaled(2.0 / x.rows() as f32);
        if opt.grad_clip.is_finite() {
            let norm = grad.frobenius_norm();
            if norm > opt.grad_clip {
                grad.scale_in_place(opt.grad_clip / norm);
            }
        }
        for (i, l) in layers.iter_mut().enumerate().rev() {
            let y = &outs[i + 1];
            let derivative = match l.act {
                Activation::Linear => Matrix::full(y.rows(), y.cols(), 1.0),
                Activation::Relu => y.map(|v| if v > 0.0 { 1.0 } else { 0.0 }),
                Activation::LeakyRelu => y.map(|v| if v > 0.0 { 1.0 } else { 0.01 }),
                Activation::Tanh => y.map(|v| 1.0 - v * v),
            };
            let dpre = grad.hadamard(&derivative);
            let gw = outs[i].transpose().matmul_naive(&dpre);
            let gb = Matrix::full(1, dpre.rows(), 1.0).matmul_naive(&dpre);
            grad = dpre.matmul_naive(&l.w.transpose());
            l.vw.scale_in_place(opt.momentum);
            l.vw.axpy_in_place(&gw, 1.0);
            l.vw.axpy_in_place(&l.w, opt.weight_decay);
            l.w.axpy_in_place(&l.vw, -opt.learning_rate);
            l.vb.scale_in_place(opt.momentum);
            l.vb.axpy_in_place(&gb, 1.0);
            l.b.axpy_in_place(&l.vb, -opt.learning_rate);
        }
        loss
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The given rows of `m`, in order.
    fn rows_of(m: &Matrix, rows: &[usize]) -> Matrix {
        Matrix::from_rows(&rows.iter().map(|&r| m.row(r)).collect::<Vec<_>>())
    }

    #[test]
    fn fit_is_bit_identical_to_the_reference_step_at_paper_scale() {
        // The paper-scale accuracy MLP (light + MobileNetV2 inputs, four
        // 96-wide leaky hidden layers, 272 branches), clipped as the
        // predictor trains it: one epoch of nine 32-row batches and a
        // 2-row tail. A seventh of the inputs are zeros of either sign.
        let cfg = MlpConfig {
            hidden_activation: Activation::LeakyRelu,
            ..MlpConfig::regression(1284, &[96; 4], 272)
        };
        let mut rng = seeded_rng(17);
        let mut mlp = Mlp::new(&cfg, &mut rng);
        let n = 9 * 32 + 2;
        let mut inputs = crate::init::he_uniform(n, 1284, &mut rng);
        for (i, v) in inputs.as_mut_slice().iter_mut().enumerate() {
            match i % 14 {
                0 => *v = 0.0,
                7 => *v = -0.0,
                _ => {}
            }
        }
        let targets = crate::init::he_uniform(n, 272, &mut rng).map(f32::abs);
        let opt = Sgd::paper(0.05, 1e-4).with_grad_clip(2.0);
        let mut reference: Vec<RefLayer> = mlp
            .layers
            .iter()
            .map(|l| RefLayer {
                w: l.weights().clone(),
                b: l.bias().clone(),
                act: l.activation(),
                vw: Matrix::zeros(l.in_dim(), l.out_dim()),
                vb: Matrix::zeros(1, l.out_dim()),
            })
            .collect();

        let history = mlp.fit(&(&inputs, &targets), opt, 1, 32, &mut seeded_rng(5));

        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut seeded_rng(5));
        let mut epoch_loss = 0.0;
        for chunk in order.chunks(32) {
            let (bx, by) = (rows_of(&inputs, chunk), rows_of(&targets, chunk));
            epoch_loss += reference_step(&mut reference, &bx, &by, opt);
        }
        assert_eq!(history.len(), 1);
        assert_eq!(history[0].to_bits(), (epoch_loss / 10.0f32).to_bits());
        for (i, (got, want)) in mlp.layers.iter().zip(&reference).enumerate() {
            assert_eq!(bits(got.weights()), bits(&want.w), "layer {i} weights");
            assert_eq!(bits(got.bias()), bits(&want.b), "layer {i} bias");
        }
    }

    /// Standardizes each input as it is gathered, the way a caller with
    /// derived inputs fits: row `i` is `(raw[i] - mean) / std`,
    /// elementwise.
    struct Standardized<'a> {
        raw: &'a Matrix,
        targets: &'a Matrix,
        mean: Vec<f32>,
        std: Vec<f32>,
    }

    impl Standardized<'_> {
        fn row(&self, i: usize) -> impl Iterator<Item = f32> + '_ {
            let stats = self.mean.iter().zip(&self.std);
            self.raw
                .row(i)
                .iter()
                .zip(stats)
                .map(|(&v, (&m, &s))| (v - m) / s)
        }
    }

    impl Examples for Standardized<'_> {
        fn count(&self) -> usize {
            self.raw.rows()
        }

        fn input_into(&self, i: usize, out: &mut [f32]) {
            for (o, v) in out.iter_mut().zip(self.row(i)) {
                *o = v;
            }
        }

        fn target_into(&self, i: usize, out: &mut [f32]) {
            out.copy_from_slice(self.targets.row(i));
        }
    }

    #[test]
    fn fit_from_a_row_source_equals_fit_from_the_materialised_matrix() {
        // 23 examples in batches of 5 leave a 3-row tail each epoch.
        let (n, in_dim, out_dim) = (23, 37, 6);
        let mut rng = seeded_rng(31);
        let raw = crate::tensor::tests::with_signed_zeros(n, in_dim, &mut rng);
        let targets = crate::init::he_uniform(n, out_dim, &mut rng);
        let mean: Vec<f32> = (0..in_dim).map(|d| d as f32 * 0.01 - 0.2).collect();
        let std: Vec<f32> = (0..in_dim).map(|d| 0.5 + d as f32 * 0.03).collect();
        let source = Standardized {
            raw: &raw,
            targets: &targets,
            mean,
            std,
        };
        let scaled: Vec<f32> = (0..n).flat_map(|i| source.row(i)).collect();
        let scaled = Matrix::from_vec(n, in_dim, scaled);
        for act in [
            Activation::Linear,
            Activation::Relu,
            Activation::LeakyRelu,
            Activation::Tanh,
        ] {
            let cfg = MlpConfig {
                hidden_activation: act,
                output_activation: act,
                ..MlpConfig::regression(in_dim, &[40, 9], out_dim)
            };
            let start = Mlp::new(&cfg, &mut seeded_rng(8));
            let opt = Sgd::paper(0.03, 1e-3).with_grad_clip(1.5);
            let (mut from_source, mut from_matrix) = (start.clone(), start);
            let a = from_source.fit(&source, opt, 3, 5, &mut seeded_rng(9));
            let b = from_matrix.fit(&(&scaled, &targets), opt, 3, 5, &mut seeded_rng(9));
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{act:?}: losses"
            );
            for (l, (x, y)) in from_source
                .layers
                .iter()
                .zip(&from_matrix.layers)
                .enumerate()
            {
                assert_eq!(
                    bits(x.weights()),
                    bits(y.weights()),
                    "{act:?}: layer {l} weights"
                );
                assert_eq!(bits(x.bias()), bits(y.bias()), "{act:?}: layer {l} bias");
            }
        }
    }

    #[test]
    fn chunked_weight_step_equals_the_whole_matrix_step() {
        // A 70-row input (with signed zeros) against a 33-wide gradient,
        // stepped twice so the momentum carries; chunks of 1, 7 and 64
        // rows leave ragged last chunks, and 70 and 200 cover the layer
        // at once.
        let (batch, in_dim, out_dim) = (13, 70, 33);
        let mut rng = seeded_rng(44);
        let start = Dense::new(in_dim, out_dim, Activation::Relu, &mut rng);
        let inputs = [
            crate::tensor::tests::with_signed_zeros(batch, in_dim, &mut rng),
            crate::tensor::tests::with_signed_zeros(batch, in_dim, &mut rng),
        ];
        let grads = [
            crate::init::he_uniform(batch, out_dim, &mut rng),
            crate::init::he_uniform(batch, out_dim, &mut rng),
        ];
        let opt = Sgd::paper(0.05, 1e-3);

        // The whole-matrix step: all of dW, then one elementwise pass.
        let mut w = start.weights().clone();
        let mut v = Matrix::zeros(in_dim, out_dim);
        for (x, g) in inputs.iter().zip(&grads) {
            let dw = x.transposed_matmul(g);
            for ((w, v), &g) in w
                .as_mut_slice()
                .iter_mut()
                .zip(v.as_mut_slice())
                .zip(dw.as_slice())
            {
                *v *= opt.momentum;
                *v += g;
                *v += *w * opt.weight_decay;
                *w += *v * -opt.learning_rate;
            }
        }

        for rows in [1, 7, 64, 70, 200] {
            let mut layer = start.clone();
            let mut vel = DenseVelocity::zeros(in_dim, out_dim);
            let mut chunk = vec![0.0; rows.min(in_dim) * out_dim];
            for (x, g) in inputs.iter().zip(&grads) {
                step_weights(rows, &mut layer, &mut vel, x, g, opt, &mut chunk);
            }
            assert_eq!(bits(layer.weights()), bits(&w), "{rows}-row chunks");
        }
    }
}
