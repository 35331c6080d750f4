//! Fully-connected layers and activations with backpropagation.

use rand::Rng;

use crate::init;
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
        self.apply_in_place(&mut out);
        out
    }

    /// Applies the activation element-wise, in place. Bit-identical to
    /// [`Activation::forward`] without the allocation.
    pub fn apply_in_place(self, x: &mut Matrix) {
        match self {
            Activation::Linear => {}
            Activation::Relu => {
                for v in x.as_mut_slice() {
                    *v = v.max(0.0);
                }
            }
            Activation::LeakyRelu => {
                for v in x.as_mut_slice() {
                    if *v <= 0.0 {
                        *v *= 0.01;
                    }
                }
            }
            Activation::Tanh => {
                for v in x.as_mut_slice() {
                    *v = v.tanh();
                }
            }
        }
    }

    /// Derivative of the activation expressed in terms of the
    /// *post-activation* output `y`.
    pub fn derivative_from_output(self, y: &Matrix) -> Matrix {
        match self {
            Activation::Linear => Matrix::full(y.rows(), y.cols(), 1.0),
            Activation::Relu => y.map(|v| if v > 0.0 { 1.0 } else { 0.0 }),
            Activation::LeakyRelu => y.map(|v| if v > 0.0 { 1.0 } else { 0.01 }),
            Activation::Tanh => y.map(|v| 1.0 - v * v),
        }
    }
}

/// A dense layer `y = act(x W + b)` with cached activations for backprop.
#[derive(Debug, Clone)]
pub struct Dense {
    weights: Matrix,
    bias: Matrix,
    activation: Activation,
    // Caches from the most recent forward pass, used by `backward`.
    last_input: Option<Matrix>,
    last_output: Option<Matrix>,
    // Gradients from the most recent backward pass.
    grad_weights: Option<Matrix>,
    grad_bias: Option<Matrix>,
}

impl Dense {
    /// Creates a dense layer with He initialization (ReLU/linear) or Xavier
    /// (tanh) and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, activation: Activation, rng: &mut impl Rng) -> Self {
        let weights = match activation {
            Activation::Tanh => init::xavier_uniform(in_dim, out_dim, rng),
            _ => init::he_uniform(in_dim, out_dim, rng),
        };
        Self {
            weights,
            bias: Matrix::zeros(1, out_dim),
            activation,
            last_input: None,
            last_output: None,
            grad_weights: None,
            grad_bias: None,
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
            last_input: None,
            last_output: None,
            grad_weights: None,
            grad_bias: None,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weights.cols()
    }

    /// The weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// The bias row vector.
    pub fn bias(&self) -> &Matrix {
        &self.bias
    }

    /// Number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.cols()
    }

    /// Forward pass caching activations for a subsequent `backward`.
    pub fn forward(&mut self, input: &Matrix) -> Matrix {
        let out = self.infer(input);
        self.last_input = Some(input.clone());
        self.last_output = Some(out.clone());
        out
    }

    /// Forward pass without caching (inference only).
    pub fn infer(&self, input: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(input.rows(), self.out_dim());
        self.infer_into(input, &mut out);
        out
    }

    /// Forward pass writing into a caller-owned scratch matrix (resized
    /// and fully overwritten). Bit-identical to [`Dense::infer`]; reusing
    /// the scratch across calls removes the per-inference allocations on
    /// the scheduler hot path.
    pub fn infer_into(&self, input: &Matrix, out: &mut Matrix) {
        input.matmul_into(&self.weights, out);
        out.add_row_broadcast_in_place(&self.bias);
        self.activation.apply_in_place(out);
        crate::debug_assert_finite!(&*out, "dense layer forward");
    }

    /// Backward pass. Takes `dL/dy` and stores the parameter gradients
    /// for the optimizer. Returns `dL/dx` only when `has_predecessor`:
    /// the first layer of a network has nobody to pass it to, and for a
    /// wide input it is the most expensive product of the step.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, grad_output: &Matrix, has_predecessor: bool) -> Option<Matrix> {
        let input = self
            .last_input
            .as_ref()
            .expect("backward called before forward");
        let output = self.last_output.as_ref().expect("missing forward cache");
        // dL/d(pre-activation).
        let dpre = grad_output.hadamard(&self.activation.derivative_from_output(output));
        self.grad_weights = Some(input.transposed_matmul(&dpre));
        self.grad_bias = Some(dpre.sum_rows());
        has_predecessor.then(|| dpre.matmul_transposed(&self.weights))
    }

    /// Applies an SGD-with-momentum update using the stored gradients.
    ///
    /// `velocity` must hold one entry per parameter tensor (weights, bias)
    /// and is updated in place. `weight_decay` is the L2 coefficient applied
    /// to the weights only (biases are not decayed, matching common
    /// practice).
    ///
    /// # Panics
    ///
    /// Panics if called before `backward`.
    pub fn apply_update(
        &mut self,
        lr: f32,
        momentum: f32,
        weight_decay: f32,
        velocity: &mut DenseVelocity,
    ) {
        let gw = self
            .grad_weights
            .take()
            .expect("apply_update called before backward");
        let gb = self.grad_bias.take().expect("missing bias gradient");
        // v <- momentum * v + (grad + decay * w); w <- w - lr * v.
        velocity.weights.scale_in_place(momentum);
        velocity.weights.axpy_in_place(&gw, 1.0);
        velocity.weights.axpy_in_place(&self.weights, weight_decay);
        self.weights.axpy_in_place(&velocity.weights, -lr);

        velocity.bias.scale_in_place(momentum);
        velocity.bias.axpy_in_place(&gb, 1.0);
        self.bias.axpy_in_place(&velocity.bias, -lr);
    }

    /// Creates a zeroed velocity buffer matching this layer's shape.
    pub fn zero_velocity(&self) -> DenseVelocity {
        DenseVelocity {
            weights: Matrix::zeros(self.weights.rows(), self.weights.cols()),
            bias: Matrix::zeros(1, self.bias.cols()),
        }
    }
}

/// Momentum buffers for one dense layer.
#[derive(Debug, Clone)]
pub struct DenseVelocity {
    pub(crate) weights: Matrix,
    pub(crate) bias: Matrix,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;

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

    #[test]
    fn forward_then_infer_agree() {
        let mut rng = seeded_rng(11);
        let mut layer = Dense::new(5, 3, Activation::Relu, &mut rng);
        let x = Matrix::row_vector(&[0.1, -0.2, 0.3, 0.4, -0.5]);
        let a = layer.forward(&x);
        let b = layer.infer(&x);
        assert_eq!(a, b);
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
        let y = layer.forward(&x);
        let grad_out = y.sub(&target);
        let _ = layer.backward(&grad_out, false);
        let analytic = layer.grad_weights.clone().unwrap();

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
        let mut vel = layer.zero_velocity();
        let x = Matrix::row_vector(&[1.0]);
        // Target 0, so output 1.0 has positive gradient: weight must shrink.
        let y = layer.forward(&x);
        let grad = y.clone();
        let _ = layer.backward(&grad, false);
        layer.apply_update(0.1, 0.0, 0.0, &mut vel);
        assert!(layer.weights()[(0, 0)] < 1.0);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_without_forward_panics() {
        let mut rng = seeded_rng(0);
        let mut layer = Dense::new(2, 2, Activation::Relu, &mut rng);
        let _ = layer.backward(&Matrix::zeros(1, 2), true);
    }
}
