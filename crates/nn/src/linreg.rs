//! Ridge (L2-regularized) linear regression with a closed-form solve.
//!
//! The paper reuses ApproxDet's latency predictors: per-branch linear
//! regressions on the light-weight features. Those models are tiny (five
//! coefficients), so a closed-form normal-equation solve is the right
//! tool.

/// A fitted linear model `y = w . x + b`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    /// Feature weights.
    pub weights: Vec<f32>,
    /// Intercept.
    pub bias: f32,
}

impl LinearModel {
    /// Predicts for one input.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong width.
    pub fn predict(&self, x: &[f32]) -> f32 {
        assert_eq!(x.len(), self.weights.len(), "feature width mismatch");
        self.bias
            + self
                .weights
                .iter()
                .zip(x.iter())
                .map(|(&w, &v)| w * v)
                .sum::<f32>()
    }
}

/// Fits ridge regression by solving `(X^T X + lambda I) w = X^T y` over
/// inputs augmented with a constant-1 column (the intercept is not
/// regularized... the lambda on it is negligible for the use case).
///
/// Returns `None` when there are no examples or the system is singular
/// beyond repair (which cannot happen for `lambda > 0`).
///
/// # Panics
///
/// Panics if rows have inconsistent widths or `xs.len() != ys.len()`.
pub fn fit_ridge(xs: &[Vec<f32>], ys: &[f32], lambda: f32) -> Option<LinearModel> {
    if xs.is_empty() {
        return None;
    }
    assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
    let d = xs[0].len();
    let n = d + 1; // + intercept column.

    // Accumulate the normal equations.
    let mut a = vec![vec![0.0f64; n]; n];
    let mut b = vec![0.0f64; n];
    for (x, &y) in xs.iter().zip(ys.iter()) {
        assert_eq!(x.len(), d, "ragged feature rows");
        let aug = |i: usize| -> f64 {
            if i < d {
                x[i] as f64
            } else {
                1.0
            }
        };
        for i in 0..n {
            let xi = aug(i);
            b[i] += xi * y as f64;
            for (j, aij) in a[i].iter_mut().enumerate() {
                *aij += xi * aug(j);
            }
        }
    }
    for (i, row) in a.iter_mut().enumerate().take(d) {
        row[i] += lambda as f64;
    }

    let w = solve_linear_system(a, b)?;
    Some(LinearModel {
        weights: w[..d].iter().map(|&v| v as f32).collect(),
        bias: w[d] as f32,
    })
}

/// Solves `A x = b` by Gaussian elimination with partial pivoting.
/// Returns `None` for singular systems.
pub(crate) fn solve_linear_system(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    assert!(a.len() == n && a.iter().all(|r| r.len() == n), "shape");
    for col in 0..n {
        // Pivot.
        let pivot = (col..n).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate below.
        let (upper, lower) = a.split_at_mut(col + 1);
        let pivot_row = &upper[col];
        for (off, row) in lower.iter_mut().enumerate() {
            let f = row[col] / pivot_row[col];
            if f == 0.0 {
                continue;
            }
            for (x, &p) in row[col..n].iter_mut().zip(&pivot_row[col..n]) {
                *x -= f * p;
            }
            b[col + 1 + off] -= f * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0f64; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in row + 1..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_identity_system() {
        let a = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let x = solve_linear_system(a, vec![3.0, -2.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12 && (x[1] + 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_system_returns_none() {
        let a = vec![vec![1.0, 1.0], vec![2.0, 2.0]];
        assert!(solve_linear_system(a, vec![1.0, 2.0]).is_none());
    }

    #[test]
    fn recovers_exact_linear_function() {
        // y = 2 x0 - 3 x1 + 0.5 on a grid.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..5 {
            for j in 0..5 {
                let x0 = i as f32;
                let x1 = j as f32;
                xs.push(vec![x0, x1]);
                ys.push(2.0 * x0 - 3.0 * x1 + 0.5);
            }
        }
        let m = fit_ridge(&xs, &ys, 1e-6).unwrap();
        assert!((m.weights[0] - 2.0).abs() < 1e-3);
        assert!((m.weights[1] + 3.0).abs() < 1e-3);
        assert!((m.bias - 0.5).abs() < 1e-3);
        assert!((m.predict(&[1.0, 1.0]) - (-0.5)).abs() < 1e-3);
    }

    #[test]
    fn ridge_shrinks_weights() {
        let xs: Vec<Vec<f32>> = (0..20).map(|i| vec![i as f32 / 10.0]).collect();
        let ys: Vec<f32> = xs.iter().map(|x| 4.0 * x[0]).collect();
        let small = fit_ridge(&xs, &ys, 1e-6).unwrap();
        let big = fit_ridge(&xs, &ys, 100.0).unwrap();
        assert!(big.weights[0].abs() < small.weights[0].abs());
    }

    #[test]
    fn empty_input_is_none() {
        assert!(fit_ridge(&[], &[], 1.0).is_none());
    }

    #[test]
    fn constant_target_fits_bias_only() {
        let xs: Vec<Vec<f32>> = (0..10).map(|i| vec![i as f32]).collect();
        let ys = vec![7.0f32; 10];
        let m = fit_ridge(&xs, &ys, 1e-3).unwrap();
        assert!((m.predict(&[3.0]) - 7.0).abs() < 0.05);
    }
}
