//! Optimizers.
//!
//! The paper trains its accuracy prediction networks with stochastic
//! gradient descent, momentum 0.9, and L2 regularization (§4). [`Sgd`]
//! implements exactly that configuration.

/// SGD hyper-parameters with momentum and L2 weight decay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sgd {
    /// Learning rate.
    pub learning_rate: f32,
    /// Momentum coefficient (the paper uses 0.9).
    pub momentum: f32,
    /// L2 regularization coefficient applied to weights.
    pub weight_decay: f32,
    /// Clip the loss gradient's Frobenius norm to this value before
    /// backpropagation (`f32::INFINITY` disables clipping). Guards wide
    /// regression heads against divergence spirals.
    pub grad_clip: f32,
}

impl Sgd {
    /// The paper's configuration: momentum 0.9 with the given learning rate
    /// and decay.
    pub fn paper(learning_rate: f32, weight_decay: f32) -> Self {
        Self {
            learning_rate,
            momentum: 0.9,
            weight_decay,
            grad_clip: f32::INFINITY,
        }
    }

    /// Returns a copy with gradient clipping enabled.
    pub fn with_grad_clip(self, clip: f32) -> Self {
        Self {
            grad_clip: clip,
            ..self
        }
    }
}

impl Default for Sgd {
    fn default() -> Self {
        Sgd::paper(1e-2, 1e-4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plain SGD (no momentum, no decay) for the unit tests.
    impl Sgd {
        /// Plain SGD (no momentum, no decay) for tests and ablations.
        pub(crate) fn plain(learning_rate: f32) -> Self {
            Self {
                learning_rate,
                momentum: 0.0,
                weight_decay: 0.0,
                grad_clip: f32::INFINITY,
            }
        }
    }

    #[test]
    fn paper_config_uses_momentum_09() {
        let s = Sgd::paper(0.01, 1e-4);
        assert_eq!(s.momentum, 0.9);
    }
}
