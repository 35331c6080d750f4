//! Loss functions.

use crate::tensor::Matrix;

/// The mean squared error of `pred` over all elements, and into `grad`
/// (resized to fit) its gradient with respect to `pred` for the
/// *per-example* MSE (mean over the batch, sum over output dimensions):
/// `2 (pred - target) / batch`.
///
/// Use this for training multi-output regressors: normalizing by the
/// output count as well shrinks per-output gradients with the output
/// width, which stalls learning for wide heads (e.g. one output per
/// execution branch).
///
/// # Panics
///
/// Panics if the shapes of `pred` and `target` differ.
pub(crate) fn mse_with_batch_mean_gradient(
    pred: &Matrix,
    target: &Matrix,
    grad: &mut Matrix,
) -> f32 {
    assert_eq!(
        (pred.rows(), pred.cols()),
        (target.rows(), target.cols()),
        "mse shape mismatch"
    );
    grad.resize(pred.rows(), pred.cols());
    let diffs = pred.as_slice().iter().zip(target.as_slice());
    for (g, (&p, &t)) in grad.as_mut_slice().iter_mut().zip(diffs) {
        *g = p - t;
    }
    let d = grad.as_slice();
    let loss = d.iter().map(|v| v * v).sum::<f32>() / d.len() as f32;
    crate::debug_assert_finite!(loss, "mse loss");
    grad.scale_in_place(2.0 / pred.rows() as f32);
    loss
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Reference mean squared error over all elements:
    /// `mean((pred - target)^2)`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub(crate) fn mse(pred: &Matrix, target: &Matrix) -> f32 {
        let d = pred.sub(target);
        let loss = d.as_slice().iter().map(|v| v * v).sum::<f32>() / d.as_slice().len() as f32;
        crate::debug_assert_finite!(loss, "mse loss");
        loss
    }

    #[test]
    fn mse_of_equal_is_zero() {
        let a = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        assert_eq!(mse(&a, &a), 0.0);
    }

    #[test]
    fn mse_known_value() {
        let p = Matrix::row_vector(&[0.0, 0.0]);
        let t = Matrix::row_vector(&[1.0, -1.0]);
        assert_eq!(mse(&p, &t), 1.0);
    }

    #[test]
    fn fused_loss_and_gradient_match_the_separate_ones() {
        let p = Matrix::from_rows(&[&[0.3, -0.4, 0.9], &[0.1, 0.7, -0.2]]);
        let t = Matrix::from_rows(&[&[0.1, 0.2, 0.5], &[0.0, 0.3, 0.3]]);
        let mut g = Matrix::zeros(1, 1);
        assert_eq!(mse_with_batch_mean_gradient(&p, &t, &mut g), mse(&p, &t));
        assert_eq!(g, p.sub(&t).scaled(2.0 / 2.0));
    }

    /// On one example the per-example gradient is the output count times
    /// the gradient of the all-element MSE, which a finite difference
    /// estimates.
    #[test]
    fn gradient_matches_finite_difference() {
        let mut p = Matrix::row_vector(&[0.3, -0.4, 0.9]);
        let t = Matrix::row_vector(&[0.1, 0.2, 0.5]);
        let mut g = Matrix::zeros(1, 1);
        mse_with_batch_mean_gradient(&p, &t, &mut g);
        let eps = 1e-3;
        for i in 0..3 {
            let orig = p.as_slice()[i];
            p.as_mut_slice()[i] = orig + eps;
            let lp = mse(&p, &t);
            p.as_mut_slice()[i] = orig - eps;
            let lm = mse(&p, &t);
            p.as_mut_slice()[i] = orig;
            let numeric = 3.0 * (lp - lm) / (2.0 * eps);
            assert!((numeric - g.as_slice()[i]).abs() < 3e-3);
        }
    }
}
