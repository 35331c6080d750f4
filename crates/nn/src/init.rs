//! Deterministic weight initialization.
//!
//! All initializers take an explicit RNG so that the entire training
//! pipeline is reproducible from a single seed — a property the experiment
//! harness relies on when regenerating tables.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::tensor::Matrix;

/// Creates a seeded RNG for weight initialization.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Xavier/Glorot uniform initialization for a `fan_in x fan_out` weight
/// matrix: `U(-sqrt(6/(fan_in+fan_out)), +sqrt(6/(fan_in+fan_out)))`.
pub(crate) fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Matrix {
    let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(fan_in, fan_out, bound, rng)
}

/// He/Kaiming uniform initialization, appropriate before ReLU activations:
/// `U(-sqrt(6/fan_in), +sqrt(6/fan_in))`.
pub(crate) fn he_uniform(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Matrix {
    let bound = (6.0 / fan_in as f32).sqrt();
    uniform(fan_in, fan_out, bound, rng)
}

/// Uniform initialization in `[-bound, bound]`.
pub fn uniform(rows: usize, cols: usize, bound: f32, rng: &mut impl Rng) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(-bound..=bound))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_is_deterministic_per_seed() {
        let a = xavier_uniform(8, 4, &mut seeded_rng(7));
        let b = xavier_uniform(8, 4, &mut seeded_rng(7));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = xavier_uniform(8, 4, &mut seeded_rng(1));
        let b = xavier_uniform(8, 4, &mut seeded_rng(2));
        assert_ne!(a, b);
    }

    #[test]
    fn xavier_respects_bound() {
        let fan_in = 100;
        let fan_out = 50;
        let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
        let w = xavier_uniform(fan_in, fan_out, &mut seeded_rng(3));
        assert!(w.as_slice().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn he_respects_bound() {
        let bound = (6.0_f32 / 64.0).sqrt();
        let w = he_uniform(64, 32, &mut seeded_rng(4));
        assert!(w.as_slice().iter().all(|v| v.abs() <= bound));
    }
}
