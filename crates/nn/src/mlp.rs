//! Sequential multi-layer perceptron with mini-batch SGD training.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::layers::{Activation, Dense, DenseVelocity};
use crate::loss;
use crate::optim::Sgd;
use crate::tensor::Matrix;

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
/// assert_eq!(cfg.layer_dims(), vec![512, 256, 256, 256, 256, 45]);
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
    pub fn layer_dims(&self) -> Vec<usize> {
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
        let velocities = layers.iter().map(Dense::zero_velocity).collect();
        Self { layers, velocities }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Total number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(Dense::parameter_count).sum()
    }

    /// Inference on a `batch x input_dim` matrix, returning
    /// `batch x output_dim`.
    ///
    /// Uses two ping-pong scratch matrices instead of allocating fresh
    /// activations per layer; the result is bit-identical to chaining
    /// [`Dense::infer`].
    pub fn infer(&self, input: &Matrix) -> Matrix {
        let (first, rest) = self.layers.split_first().expect("non-empty");
        let mut cur = Matrix::zeros(input.rows(), first.out_dim());
        first.infer_into(input, &mut cur);
        let mut next = Matrix::zeros(1, 1);
        for layer in rest {
            layer.infer_into(&cur, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }

    /// Convenience: inference on a single example given as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.input_dim()`.
    pub fn infer_one(&self, input: &[f32]) -> Vec<f32> {
        assert_eq!(input.len(), self.input_dim(), "input dimension mismatch");
        let out = self.infer(&Matrix::row_vector(input));
        out.as_slice().to_vec()
    }

    /// One SGD step on a mini-batch; returns the batch MSE before the
    /// update.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches between inputs, targets, and the network.
    pub fn train_batch(&mut self, inputs: &Matrix, targets: &Matrix, opt: Sgd) -> f32 {
        assert_eq!(inputs.rows(), targets.rows(), "batch size mismatch");
        assert_eq!(inputs.cols(), self.input_dim(), "input dim mismatch");
        assert_eq!(targets.cols(), self.output_dim(), "target dim mismatch");

        let mut x = inputs.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x);
        }
        let batch_loss = loss::mse(&x, targets);
        crate::debug_assert_finite!(batch_loss, "train_batch loss");
        let mut grad = loss::mse_gradient_batch_mean(&x, targets);
        if opt.grad_clip.is_finite() {
            let norm = grad.frobenius_norm();
            if norm > opt.grad_clip {
                grad.scale_in_place(opt.grad_clip / norm);
            }
        }
        let layers = self.layers.iter_mut().zip(self.velocities.iter_mut());
        for (i, (layer, vel)) in layers.enumerate().rev() {
            let grad_input = layer.backward(&grad, i > 0);
            layer.apply_update(opt.learning_rate, opt.momentum, opt.weight_decay, vel);
            if let Some(g) = grad_input {
                grad = g;
            }
        }
        batch_loss
    }

    /// Trains for `epochs` epochs over a dataset of row-examples, shuffling
    /// each epoch; returns the per-epoch mean batch losses.
    ///
    /// The dataset is `n x input_dim` inputs with `n x output_dim` targets.
    /// Training stops early if the epoch loss is non-finite (divergence) —
    /// in that case the returned vector is shorter than `epochs`.
    pub fn fit(
        &mut self,
        inputs: &Matrix,
        targets: &Matrix,
        opt: Sgd,
        epochs: usize,
        batch_size: usize,
        rng: &mut impl Rng,
    ) -> Vec<f32> {
        assert!(batch_size > 0, "batch size must be positive");
        assert_eq!(inputs.rows(), targets.rows(), "dataset size mismatch");
        let n = inputs.rows();
        let mut order: Vec<usize> = (0..n).collect();
        let mut history = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            order.shuffle(rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in order.chunks(batch_size) {
                let bx = gather_rows(inputs, chunk);
                let by = gather_rows(targets, chunk);
                epoch_loss += self.train_batch(&bx, &by, opt);
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

    /// Mean squared error of the network on a dataset.
    pub fn evaluate_mse(&self, inputs: &Matrix, targets: &Matrix) -> f32 {
        loss::mse(&self.infer(inputs), targets)
    }
}

/// Collects the given rows of `m` into a new matrix.
fn gather_rows(m: &Matrix, rows: &[usize]) -> Matrix {
    let mut data = Vec::with_capacity(rows.len() * m.cols());
    for &r in rows {
        data.extend_from_slice(m.row(r));
    }
    Matrix::from_vec(rows.len(), m.cols(), data)
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
        assert_eq!(mlp.depth(), 2);
    }

    #[test]
    fn parameter_count_matches_architecture() {
        let mut rng = seeded_rng(1);
        let mlp = Mlp::new(&MlpConfig::regression(4, &[8], 3), &mut rng);
        // (4*8 + 8) + (8*3 + 3) = 40 + 27.
        assert_eq!(mlp.parameter_count(), 67);
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
        let history = mlp.fit(&inputs, &targets, Sgd::paper(0.05, 0.0), 200, 16, &mut rng);
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
        mlp.fit(&inputs, &targets, Sgd::paper(0.05, 0.0), 400, 32, &mut rng);
        let mse = mlp.evaluate_mse(&inputs, &targets);
        assert!(mse < 5e-3, "failed to fit x^2: mse {mse}");
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let cfg = MlpConfig::regression(4, &[8], 2);
        let mut with_decay = Mlp::new(&cfg, &mut seeded_rng(3));
        let mut without_decay = with_decay.clone();
        let inputs = Matrix::zeros(8, 4);
        let targets = Matrix::zeros(8, 2);
        for _ in 0..50 {
            with_decay.train_batch(&inputs, &targets, Sgd::paper(0.1, 1e-2));
            without_decay.train_batch(&inputs, &targets, Sgd::paper(0.1, 0.0));
        }
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
            mlp.fit(&inputs, &targets, Sgd::default(), 20, 2, &mut rng);
            mlp.infer_one(&[0.5, 0.5, 0.5])
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn infer_one_rejects_wrong_width() {
        let mut rng = seeded_rng(1);
        let mlp = Mlp::new(&MlpConfig::regression(4, &[4], 1), &mut rng);
        let _ = mlp.infer_one(&[1.0, 2.0]);
    }
}
