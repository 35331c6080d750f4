//! Adam optimizer — used by the optimizer ablation (the paper trains its
//! accuracy models with SGD+momentum; Adam is the obvious alternative and
//! the ablation harness compares them).

use rand::seq::SliceRandom;
use rand::Rng;

use crate::layers::Dense;
use crate::loss;
use crate::mlp::MlpConfig;
use crate::tensor::Matrix;

/// Adam hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adam {
    /// Step size.
    pub learning_rate: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub epsilon: f32,
    /// Decoupled L2 weight decay.
    pub weight_decay: f32,
}

impl Default for Adam {
    fn default() -> Self {
        Self {
            learning_rate: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            weight_decay: 1e-4,
        }
    }
}

/// Per-tensor Adam state.
#[derive(Debug, Clone)]
struct Moments {
    m: Matrix,
    v: Matrix,
}

impl Moments {
    fn zeros_like(w: &Matrix) -> Self {
        Self {
            m: Matrix::zeros(w.rows(), w.cols()),
            v: Matrix::zeros(w.rows(), w.cols()),
        }
    }
}

/// An MLP trained with Adam. A separate type from [`crate::Mlp`] so the
/// two optimizers cannot be mixed accidentally mid-training.
#[derive(Debug, Clone)]
pub struct AdamMlp {
    layers: Vec<Dense>,
    weight_moments: Vec<Moments>,
    bias_moments: Vec<Moments>,
    step: u64,
}

impl AdamMlp {
    /// Builds the network described by `config`.
    pub fn new(config: &MlpConfig, rng: &mut impl Rng) -> Self {
        let dims = config.layer_dims();
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for i in 0..dims.len() - 1 {
            let act = if i + 2 == dims.len() {
                config.output_activation
            } else {
                config.hidden_activation
            };
            layers.push(Dense::new(dims[i], dims[i + 1], act, rng));
        }
        let weight_moments = layers
            .iter()
            .map(|l| Moments::zeros_like(l.weights()))
            .collect();
        let bias_moments = layers
            .iter()
            .map(|l| Moments::zeros_like(l.bias()))
            .collect();
        Self {
            layers,
            weight_moments,
            bias_moments,
            step: 0,
        }
    }

    /// Inference on a batch.
    pub fn infer(&self, input: &Matrix) -> Matrix {
        let mut x = input.clone();
        for layer in &self.layers {
            x = layer.infer(&x);
        }
        x
    }

    /// One Adam step on a mini-batch; returns the batch MSE before the
    /// update.
    pub fn train_batch(&mut self, inputs: &Matrix, targets: &Matrix, opt: Adam) -> f32 {
        let mut x = inputs.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x);
        }
        let batch_loss = loss::mse(&x, targets);
        let mut grad = loss::mse_gradient_batch_mean(&x, targets);
        // Collect per-layer gradients via backward.
        let mut grads: Vec<(Matrix, Matrix)> = Vec::with_capacity(self.layers.len());
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            if let Some(g) = layer.backward(&grad, i > 0) {
                grad = g;
            }
            grads.push(layer.take_gradients().expect("gradients after backward"));
        }
        grads.reverse();

        self.step += 1;
        let t = self.step as f32;
        let bc1 = 1.0 - opt.beta1.powf(t);
        let bc2 = 1.0 - opt.beta2.powf(t);
        for ((layer, (gw, gb)), (wm, bm)) in self.layers.iter_mut().zip(grads).zip(
            self.weight_moments
                .iter_mut()
                .zip(self.bias_moments.iter_mut()),
        ) {
            adam_update(
                layer.weights_mut(),
                &gw,
                wm,
                opt,
                bc1,
                bc2,
                opt.weight_decay,
            );
            adam_update(layer.bias_mut(), &gb, bm, opt, bc1, bc2, 0.0);
        }
        batch_loss
    }

    /// Trains for `epochs` epochs, shuffling each epoch; returns per-epoch
    /// mean batch losses.
    pub fn fit(
        &mut self,
        inputs: &Matrix,
        targets: &Matrix,
        opt: Adam,
        epochs: usize,
        batch_size: usize,
        rng: &mut impl Rng,
    ) -> Vec<f32> {
        assert!(batch_size > 0, "batch size must be positive");
        let n = inputs.rows();
        let mut order: Vec<usize> = (0..n).collect();
        let mut history = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            order.shuffle(rng);
            let mut total = 0.0;
            let mut batches = 0;
            for chunk in order.chunks(batch_size) {
                let bx = gather(inputs, chunk);
                let by = gather(targets, chunk);
                total += self.train_batch(&bx, &by, opt);
                batches += 1;
            }
            history.push(total / batches.max(1) as f32);
        }
        history
    }

    /// Mean squared error on a dataset.
    pub fn evaluate_mse(&self, inputs: &Matrix, targets: &Matrix) -> f32 {
        loss::mse(&self.infer(inputs), targets)
    }
}

fn gather(m: &Matrix, rows: &[usize]) -> Matrix {
    let mut data = Vec::with_capacity(rows.len() * m.cols());
    for &r in rows {
        data.extend_from_slice(m.row(r));
    }
    Matrix::from_vec(rows.len(), m.cols(), data)
}

/// One Adam update for a single parameter tensor.
fn adam_update(
    param: &mut Matrix,
    grad: &Matrix,
    moments: &mut Moments,
    opt: Adam,
    bias_correction1: f32,
    bias_correction2: f32,
    weight_decay: f32,
) {
    let g = if weight_decay > 0.0 {
        let mut g = grad.clone();
        g.axpy_in_place(param, weight_decay);
        g
    } else {
        grad.clone()
    };
    moments.m.scale_in_place(opt.beta1);
    moments.m.axpy_in_place(&g, 1.0 - opt.beta1);
    moments.v.scale_in_place(opt.beta2);
    let g2 = g.hadamard(&g);
    moments.v.axpy_in_place(&g2, 1.0 - opt.beta2);
    for i in 0..param.as_slice().len() {
        let m_hat = moments.m.as_slice()[i] / bias_correction1;
        let v_hat = moments.v.as_slice()[i] / bias_correction2;
        param.as_mut_slice()[i] -= opt.learning_rate * m_hat / (v_hat.sqrt() + opt.epsilon);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;
    use crate::mlp::MlpConfig;

    #[test]
    fn adam_fits_a_linear_function() {
        let mut rng = seeded_rng(5);
        let mut net = AdamMlp::new(&MlpConfig::regression(2, &[16], 1), &mut rng);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..64 {
            let a = (i % 8) as f32 / 8.0 - 0.5;
            let b = (i / 8) as f32 / 8.0 - 0.5;
            xs.extend_from_slice(&[a, b]);
            ys.push(0.3 * a - 0.7 * b);
        }
        let x = Matrix::from_vec(64, 2, xs);
        let y = Matrix::from_vec(64, 1, ys);
        let hist = net.fit(&x, &y, Adam::default(), 400, 16, &mut rng);
        assert!(*hist.last().unwrap() < 2e-3, "loss {:?}", hist.last());
    }

    #[test]
    fn adam_converges_faster_than_plain_sgd_on_this_task() {
        // Not a universal truth, but on this ill-scaled input it holds and
        // pins down that the moment normalization actually works.
        let build_data = || {
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            for i in 0..64 {
                let a = (i % 8) as f32 * 100.0; // badly scaled dim
                let b = (i / 8) as f32 / 100.0; // tiny dim
                xs.extend_from_slice(&[a, b]);
                ys.push(0.001 * a + 10.0 * b);
            }
            (Matrix::from_vec(64, 2, xs), Matrix::from_vec(64, 1, ys))
        };
        let (x, y) = build_data();
        let mut rng = seeded_rng(6);
        let mut adam = AdamMlp::new(&MlpConfig::regression(2, &[8], 1), &mut rng);
        let adam_loss = *adam
            .fit(&x, &y, Adam::default(), 100, 16, &mut rng)
            .last()
            .unwrap();
        let mut rng = seeded_rng(6);
        let mut sgd = crate::Mlp::new(&MlpConfig::regression(2, &[8], 1), &mut rng);
        let sgd_loss = *sgd
            .fit(&x, &y, crate::Sgd::plain(1e-5), 100, 16, &mut rng)
            .last()
            .unwrap();
        assert!(adam_loss < sgd_loss, "adam {adam_loss} vs sgd {sgd_loss}");
    }

    #[test]
    fn moments_have_parameter_shapes() {
        let mut rng = seeded_rng(7);
        let net = AdamMlp::new(&MlpConfig::regression(3, &[4], 2), &mut rng);
        assert_eq!(net.weight_moments.len(), 2);
        assert_eq!(net.weight_moments[0].m.rows(), 3);
        assert_eq!(net.bias_moments[1].v.cols(), 2);
    }
}
