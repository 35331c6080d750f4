//! Fully-connected layers and activations with backpropagation.

use rand::Rng;

use crate::init;
use crate::optim::Sgd;
use crate::tensor::Matrix;

/// Activation applied after a dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity (no nonlinearity) — used on output layers for regression.
    Linear,
    /// Rectified linear unit, the activation the paper uses throughout.
    Relu,
    /// Leaky ReLU (slope 0.01 for negative inputs) — used by the accuracy
    /// models to avoid dead-unit collapse on small training sets.
    LeakyRelu,
    /// Hyperbolic tangent, used by some feature stacks.
    Tanh,
}

impl Activation {
    /// Applies the activation element-wise.
    pub fn forward(self, x: &Matrix) -> Matrix {
        let mut out = x.clone();
        self.apply_in_place(out.as_mut_slice());
        out
    }

    /// Applies the activation to each value of `xs`, in place: the one
    /// definition every forward pass uses, batch or packed.
    pub(crate) fn apply_in_place(self, xs: &mut [f32]) {
        match self {
            Activation::Linear => {}
            Activation::Relu => {
                for v in xs {
                    *v = v.max(0.0);
                }
            }
            Activation::LeakyRelu => {
                for v in xs {
                    if *v <= 0.0 {
                        *v *= 0.01;
                    }
                }
            }
            Activation::Tanh => {
                for v in xs {
                    *v = v.tanh();
                }
            }
        }
    }

    /// Turns `grad`, the loss gradient with respect to this
    /// activation's output `y`, into the gradient with respect to its
    /// input, in place: each element is multiplied by the derivative
    /// expressed in terms of `y`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub(crate) fn backprop_in_place(self, y: &Matrix, grad: &mut Matrix) {
        assert_eq!(
            (y.rows(), y.cols()),
            (grad.rows(), grad.cols()),
            "activation gradient shape mismatch"
        );
        let pairs = grad.as_mut_slice().iter_mut().zip(y.as_slice());
        match self {
            // The derivative is 1 everywhere, and `g * 1.0 == g`.
            Activation::Linear => {}
            Activation::Relu => pairs.for_each(|(g, &y)| *g *= if y > 0.0 { 1.0 } else { 0.0 }),
            Activation::LeakyRelu => {
                pairs.for_each(|(g, &y)| *g *= if y > 0.0 { 1.0 } else { 0.01 })
            }
            Activation::Tanh => pairs.for_each(|(g, &y)| *g *= 1.0 - y * y),
        }
    }
}

/// A dense layer `y = act(x W + b)`.
///
/// A layer holds only its parameters: training keeps the activations
/// and gradients of a step in the workspace of [`crate::Mlp::fit`].
#[derive(Debug, Clone)]
pub struct Dense {
    weights: Matrix,
    bias: Matrix,
    activation: Activation,
}

impl Dense {
    /// Creates a dense layer with He initialization (ReLU/linear) or Xavier
    /// (tanh) and zero bias.
    pub(crate) fn new(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        let weights = match activation {
            Activation::Tanh => init::xavier_uniform(in_dim, out_dim, rng),
            _ => init::he_uniform(in_dim, out_dim, rng),
        };
        Self {
            weights,
            bias: Matrix::zeros(1, out_dim),
            activation,
        }
    }

    /// Creates a layer from explicit parameters (used for fixed-weight
    /// feature stacks and for tests).
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 x weights.cols()`.
    pub fn from_parameters(weights: Matrix, bias: Matrix, activation: Activation) -> Self {
        assert_eq!(bias.rows(), 1, "bias must be a row vector");
        assert_eq!(bias.cols(), weights.cols(), "bias width mismatch");
        Self {
            weights,
            bias,
            activation,
        }
    }

    /// Input dimensionality.
    pub(crate) fn in_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output dimensionality.
    pub(crate) fn out_dim(&self) -> usize {
        self.weights.cols()
    }

    /// The weight matrix.
    pub(crate) fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// The activation applied after the affine map.
    pub(crate) fn activation(&self) -> Activation {
        self.activation
    }

    /// The layer's weights, bias and activation, consuming it.
    pub(crate) fn into_parts(self) -> (Matrix, Matrix, Activation) {
        (self.weights, self.bias, self.activation)
    }

    /// Forward pass writing into a caller-owned scratch matrix (resized
    /// and fully overwritten). Bit-identical to an allocating forward pass; reusing
    /// the scratch across calls keeps batch inference and training steps
    /// from allocating.
    pub(crate) fn infer_into(&self, input: &Matrix, out: &mut Matrix) {
        input.matmul_into(&self.weights, out);
        out.add_row_broadcast_in_place(&self.bias);
        self.activation.apply_in_place(out.as_mut_slice());
        crate::debug_assert_finite!(&*out, "dense layer forward");
    }

    /// One SGD-with-momentum step on the weight rows from `first` on that
    /// `grad` covers (whole rows, row-major), updating those rows of the
    /// weights and of `velocity` in place.
    ///
    /// Per weight: `v = v * momentum + g + decay * w`, then
    /// `w = w - lr * v`. Each update reads only its own weight, velocity
    /// and gradient, so stepping a layer a few rows at a time ends bit
    /// for bit where one whole-matrix step would.
    ///
    /// # Panics
    ///
    /// Panics if `grad` is not whole rows or runs past the last row.
    pub(crate) fn sgd_step_rows(
        &mut self,
        first: usize,
        grad: &[f32],
        opt: Sgd,
        velocity: &mut DenseVelocity,
    ) {
        let width = self.out_dim();
        assert_eq!(grad.len() % width, 0, "gradient is not whole rows");
        let span = first * width..first * width + grad.len();
        let (momentum, decay, step) = (opt.momentum, opt.weight_decay, -opt.learning_rate);
        let weights = self.weights.as_mut_slice()[span.clone()].iter_mut();
        let v = velocity.weights.as_mut_slice()[span].iter_mut();
        for ((w, v), &g) in weights.zip(v).zip(grad) {
            *v *= momentum;
            *v += g;
            *v += *w * decay;
            *w += *v * step;
        }
    }

    /// The bias's SGD-with-momentum step from its gradient: the weights'
    /// update without decay (biases are not decayed, matching common
    /// practice).
    pub(crate) fn sgd_step_bias(&mut self, grad: &[f32], opt: Sgd, velocity: &mut DenseVelocity) {
        let (momentum, step) = (opt.momentum, -opt.learning_rate);
        let bias = self.bias.as_mut_slice().iter_mut();
        let v = velocity.bias.as_mut_slice().iter_mut();
        for ((b, v), &g) in bias.zip(v).zip(grad) {
            *v *= momentum;
            *v += g;
            *b += *v * step;
        }
    }
}

/// Momentum buffers for one dense layer.
#[derive(Debug, Clone)]
pub(crate) struct DenseVelocity {
    weights: Matrix,
    bias: Matrix,
}

impl DenseVelocity {
    /// Zeroed momentum for an `in_dim x out_dim` layer. The weights'
    /// buffer has room for the layer's packed panels, which it becomes
    /// when training ends ([`crate::PackedMlp`]'s `From<Mlp>`).
    pub(crate) fn zeros(in_dim: usize, out_dim: usize) -> Self {
        let mut weights = Vec::with_capacity(in_dim * out_dim + crate::packed::PANEL_PAD);
        weights.resize(in_dim * out_dim, 0.0);
        Self {
            weights: Matrix::from_vec(in_dim, out_dim, weights),
            bias: Matrix::zeros(1, out_dim),
        }
    }

    /// The weights' momentum buffer, for reuse, consuming the velocity.
    pub(crate) fn into_weight_buffer(self) -> Vec<f32> {
        self.weights.into_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;

    /// Test-only accessors: the layer's bias and an allocating forward pass.
    impl Dense {
        /// The bias row vector.
        pub(crate) fn bias(&self) -> &Matrix {
            &self.bias
        }

        /// Forward pass.
        pub(crate) fn infer(&self, input: &Matrix) -> Matrix {
            let mut out = Matrix::zeros(input.rows(), self.out_dim());
            self.infer_into(input, &mut out);
            out
        }
    }

    #[test]
    fn relu_zeroes_negatives() {
        let x = Matrix::row_vector(&[-1.0, 0.0, 2.0]);
        assert_eq!(
            Activation::Relu.forward(&x),
            Matrix::row_vector(&[0.0, 0.0, 2.0])
        );
    }

    #[test]
    fn linear_layer_computes_affine_map() {
        let w = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
        let b = Matrix::row_vector(&[0.5, -0.5]);
        let layer = Dense::from_parameters(w, b, Activation::Linear);
        let y = layer.infer(&Matrix::row_vector(&[3.0, 4.0]));
        assert_eq!(y, Matrix::row_vector(&[3.5, 7.5]));
    }

    /// Numerically checks the weight gradient of a single layer with MSE
    /// loss against a central finite difference.
    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = seeded_rng(42);
        let mut layer = Dense::new(3, 2, Activation::Tanh, &mut rng);
        let x = Matrix::row_vector(&[0.3, -0.7, 0.9]);
        let target = Matrix::row_vector(&[0.2, -0.1]);

        // Analytic gradient: L = 0.5 * ||y - t||^2 so dL/dy = y - t.
        let y = layer.infer(&x);
        let mut grad = y.sub(&target);
        layer.activation().backprop_in_place(&y, &mut grad);
        let analytic = x.transposed_matmul(&grad);

        let eps = 1e-3;
        for r in 0..3 {
            for c in 0..2 {
                let orig = layer.weights[(r, c)];
                layer.weights[(r, c)] = orig + eps;
                let lp = half_mse(&layer.infer(&x), &target);
                layer.weights[(r, c)] = orig - eps;
                let lm = half_mse(&layer.infer(&x), &target);
                layer.weights[(r, c)] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let got = analytic[(r, c)];
                assert!(
                    (numeric - got).abs() < 1e-3,
                    "grad mismatch at ({r},{c}): numeric {numeric} vs analytic {got}"
                );
            }
        }
    }

    fn half_mse(y: &Matrix, t: &Matrix) -> f32 {
        let d = y.sub(t);
        0.5 * d.as_slice().iter().map(|v| v * v).sum::<f32>()
    }

    #[test]
    fn update_moves_weights_against_gradient() {
        let w = Matrix::from_rows(&[&[1.0]]);
        let b = Matrix::row_vector(&[0.0]);
        let mut layer = Dense::from_parameters(w, b, Activation::Linear);
        let mut vel = DenseVelocity::zeros(1, 1);
        // Target 0, so output 1.0 has positive gradient: weight must shrink.
        let x = Matrix::row_vector(&[1.0]);
        let grad = layer.infer(&x);
        let opt = Sgd::plain(0.1);
        layer.sgd_step_rows(0, x.transposed_matmul(&grad).as_slice(), opt, &mut vel);
        layer.sgd_step_bias(grad.as_slice(), opt, &mut vel);
        assert!(layer.weights()[(0, 0)] < 1.0);
        assert!(layer.bias()[(0, 0)] < 0.0);
    }

    #[test]
    fn backprop_scales_by_the_derivative_at_the_output() {
        let y = Matrix::row_vector(&[-0.5, 0.0, 0.5]);
        let grad = Matrix::row_vector(&[2.0, -2.0, 2.0]);
        let through = |act: Activation| {
            let mut g = grad.clone();
            act.backprop_in_place(&y, &mut g);
            g
        };
        assert_eq!(through(Activation::Linear), grad);
        assert_eq!(
            through(Activation::Relu),
            Matrix::row_vector(&[0.0, -0.0, 2.0])
        );
        assert_eq!(
            through(Activation::LeakyRelu),
            Matrix::row_vector(&[0.02, -0.02, 2.0])
        );
        assert_eq!(
            through(Activation::Tanh),
            Matrix::row_vector(&[1.5, -2.0, 1.5])
        );
    }
}
