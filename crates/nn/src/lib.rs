//! Minimal from-scratch neural-network library for the LiteReconfig
//! reproduction.
//!
//! The paper trains a 6-layer fully-connected accuracy prediction model with
//! MSE loss and SGD (momentum 0.9, L2 regularization). This crate provides
//! exactly the pieces needed for that, plus forward-only convolutional
//! stacks used to synthesize "deep" content features (the stand-ins for the
//! paper's ResNet50 and MobileNetV2 extractors):
//!
//! - [`Matrix`]: a dense row-major `f32` matrix with the handful of
//!   BLAS-like kernels the rest of the crate needs.
//! - [`Dense`] and [`Activation`]: dense (fully-connected) layers and
//!   activations with backpropagation.
//! - [`Mlp`]: a sequential multi-layer perceptron.
//! - [`PackedMlp`]: a trained [`Mlp`] converted for one-row
//!   inference, its weights packed into column panels.
//! - [`Sgd`]: stochastic gradient descent with momentum and weight
//!   decay.
//! - [`conv`]: forward-only 2-D convolution / pooling used by the feature
//!   extractors.
//!
//! Everything is deterministic given a seed. The only `unsafe` is in the
//! private `simd` module: the guarded calls that run the tiled product,
//! the one-row forward and the conv product in their AVX2 build when the
//! CPU has AVX2. Both builds give the same bits.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod conv;
pub mod init;
mod layers;
mod linreg;
mod loss;
mod mlp;
mod optim;
mod packed;
mod sanitize;
mod simd;
mod tensor;

pub use layers::{Activation, Dense};
pub use linreg::{fit_ridge, LinearModel};
pub use mlp::{Examples, Mlp, MlpConfig};
pub use optim::Sgd;
pub use packed::PackedMlp;
pub use tensor::Matrix;

use sanitize::debug_assert_finite;
