//! Dense row-major matrices and the small set of kernels the library needs.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major `f32` matrix.
///
/// This is the only tensor type in the crate. Vectors are represented as
/// `1 x n` or `n x 1` matrices, and mini-batches as `batch x dim` matrices.
///
/// # Examples
///
/// ```
/// use lr_nn::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates a matrix of zeros with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with a constant value.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        m.data.fill(value);
        m
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of equally-sized rows.
    ///
    /// # Panics
    ///
    /// Panics if rows are empty or have differing lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "at least one row required");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows are not allowed");
            data.extend_from_slice(r);
        }
        Self::from_vec(rows.len(), cols, data)
    }

    /// Creates a `1 x n` row vector from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// A view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {} out of bounds ({})", r, self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * rhs`.
    ///
    /// Delegates to the blocked kernel ([`Matrix::matmul_into`]); the
    /// result is bit-identical to the reference i-k-j loop because
    /// blocking never reorders the per-element accumulation.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix product `self * rhs` written into `out`, which is resized
    /// to `self.rows x rhs.cols` and fully overwritten. Reusing one
    /// scratch matrix across calls avoids a fresh allocation per product,
    /// which matters on the scheduler's per-GoF inference hot path.
    ///
    /// The kernel is blocked over (row, inner-dim) tiles so the `rhs`
    /// panel loaded for a tile is reused across a strip of output rows.
    /// For every output element the inner dimension is still walked in
    /// ascending order with the same zero-skip as the reference i-k-j
    /// loop, so the f32 accumulation order — and therefore the result —
    /// is bit-identical for any tile size.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.resize(self.rows, rhs.cols);
        out.data.fill(0.0);
        self.matmul_rows_into(rhs, 0, self.rows, &mut out.data);
        crate::debug_assert_finite!(&*out, "matmul");
    }

    /// Reference (i, j, k) matmul kept for kernel cross-checking. Its
    /// accumulation order differs from [`Matrix::matmul`], so outputs
    /// agree only up to f32 rounding.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_naive(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for j in 0..rhs.cols {
                let mut acc = 0.0f32;
                for k in 0..self.cols {
                    acc += self.data[i * self.cols + k] * rhs.data[k * rhs.cols + j];
                }
                out.data[i * rhs.cols + j] = acc;
            }
        }
        crate::debug_assert_finite!(out, "matmul_naive");
        out
    }

    /// Blocked kernel for output rows `row_lo..row_hi`: adds those rows
    /// of `self * rhs` onto `out`, which holds exactly those rows. A
    /// zero-filled `out` yields the plain product; a row seeded with a
    /// bias yields an affine map whose per-element sum starts from the
    /// bias. Row tiling reuses each `rhs` panel across a strip of output
    /// rows; per element the inner dimension stays ascending
    /// (bit-identical to i-k-j).
    pub(crate) fn matmul_rows_into(
        &self,
        rhs: &Matrix,
        row_lo: usize,
        row_hi: usize,
        out: &mut [f32],
    ) {
        const BLOCK_I: usize = 16;
        const BLOCK_K: usize = 64;
        debug_assert_eq!(out.len(), (row_hi - row_lo) * rhs.cols);
        let n = rhs.cols;
        for ii in (row_lo..row_hi).step_by(BLOCK_I) {
            let i_end = (ii + BLOCK_I).min(row_hi);
            for kk in (0..self.cols).step_by(BLOCK_K) {
                let k_end = (kk + BLOCK_K).min(self.cols);
                for i in ii..i_end {
                    let a_tile = &self.data[i * self.cols + kk..i * self.cols + k_end];
                    let out_row = &mut out[(i - row_lo) * n..(i - row_lo + 1) * n];
                    for (dk, &a) in a_tile.iter().enumerate() {
                        if a == 0.0 {
                            continue;
                        }
                        let k = kk + dk;
                        let b_row = &rhs.data[k * n..(k + 1) * n];
                        for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                            *o += a * b;
                        }
                    }
                }
            }
        }
    }

    /// Matrix product with the transpose of `rhs`: `self * rhs^T`.
    ///
    /// Transposes `rhs` and runs the blocked kernel. For finite inputs
    /// this is bit-identical to a per-element dot product from `0.0`:
    /// both add the products in ascending inner index, and the products
    /// the kernel skips (`self` entry zero) are `±0.0`, which leave a
    /// running sum that starts from `+0.0` unchanged.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_transposed(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_transposed shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        self.matmul(&rhs.transpose())
    }

    /// Product of the transpose of `self` with `rhs`: `self^T * rhs`.
    pub fn transposed_matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "transposed_matmul shape mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        for k in 0..self.rows {
            let a_row = self.row(k);
            let b_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        crate::debug_assert_finite!(out, "transposed_matmul");
        out
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for (i, row) in self.data.chunks_exact(self.cols).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                out.data[j * self.rows + i] = v;
            }
        }
        out
    }

    /// Element-wise sum with another matrix of the same shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a + b)
    }

    /// Element-wise difference.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a * b)
    }

    /// Adds a `1 x cols` row vector to every row (bias broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 x self.cols()`.
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.add_row_broadcast_in_place(bias);
        out
    }

    /// Adds a `1 x cols` row vector to every row, in place.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 x self.cols()`.
    pub fn add_row_broadcast_in_place(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        for r in 0..self.rows {
            let cols = self.cols;
            for (o, &b) in self.data[r * cols..(r + 1) * cols]
                .iter_mut()
                .zip(bias.data.iter())
            {
                *o += b;
            }
        }
    }

    /// Reshapes in place to `rows x cols`, reusing the existing buffer.
    /// Element values after a resize are unspecified (callers are
    /// expected to overwrite them); this exists so scratch matrices can
    /// be recycled across calls without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Sums each column into a `1 x cols` row vector.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r).iter()) {
                *o += v;
            }
        }
        out
    }

    /// Scales every element in place.
    pub fn scale_in_place(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Returns a scaled copy.
    pub fn scaled(&self, s: f32) -> Matrix {
        let mut out = self.clone();
        out.scale_in_place(s);
        out
    }

    /// Applies a function element-wise, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let data = self.data.iter().map(|&v| f(v)).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// `self += rhs * s` (axpy), in place.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy_in_place(&mut self, rhs: &Matrix, s: f32) {
        assert_eq!(self.rows, rhs.rows, "axpy row mismatch");
        assert_eq!(self.cols, rhs.cols, "axpy col mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b * s;
        }
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&v| v * v).sum::<f32>().sqrt()
    }

    fn zip_with(&self, rhs: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "row mismatch");
        assert_eq!(self.cols, rhs.cols, "col mismatch");
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        let out = Matrix::from_vec(self.rows, self.cols, data);
        crate::debug_assert_finite!(out, "elementwise zip");
        out
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[0.0, 3.0, 4.0]]);
        assert_eq!(a.matmul(&Matrix::identity(3)), a);
    }

    /// Reference `self * rhs^T`: one dot product per element, summed
    /// from `0.0` in ascending inner index, zero products included.
    fn dot_product_reference(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let mut acc = 0.0;
                for (&x, &y) in a.row(i).iter().zip(b.row(j)) {
                    acc += x * y;
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    #[test]
    fn matmul_transposed_is_bit_identical_to_the_dot_product_loop() {
        // Shapes straddle the 16/64 tile boundaries; a third of the
        // left-hand entries are exact zeros (some negative), which the
        // blocked kernel skips and the dot product adds.
        let mut rng = crate::init::seeded_rng(808);
        let shapes = [
            (1usize, 1usize, 1usize),
            (7, 5, 3),
            (17, 65, 9),
            (33, 130, 70),
        ];
        for &(m, k, n) in &shapes {
            let mut a = crate::init::he_uniform(m, k, &mut rng);
            for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
                match i % 6 {
                    0 => *v = 0.0,
                    3 => *v = -0.0,
                    _ => {}
                }
            }
            let b = crate::init::he_uniform(n, k, &mut rng);
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&a.matmul_transposed(&b)),
                bits(&dot_product_reference(&a, &b)),
                "{m}x{k} * ({n}x{k})^T"
            );
        }
    }

    #[test]
    fn transposed_matmul_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        assert_eq!(a.transposed_matmul(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn bias_broadcast_adds_to_every_row() {
        let a = Matrix::zeros(3, 2);
        let bias = Matrix::row_vector(&[1.0, -1.0]);
        let out = a.add_row_broadcast(&bias);
        for r in 0..3 {
            assert_eq!(out.row(r), &[1.0, -1.0]);
        }
    }

    #[test]
    fn sum_rows_collapses_to_column_sums() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(a.sum_rows(), Matrix::row_vector(&[9.0, 12.0]));
    }

    #[test]
    fn axpy_accumulates_scaled() {
        let mut a = Matrix::full(2, 2, 1.0);
        let b = Matrix::full(2, 2, 2.0);
        a.axpy_in_place(&b, 0.5);
        assert_eq!(a, Matrix::full(2, 2, 2.0));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_length_mismatch_panics() {
        let _ = Matrix::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn mean_and_norm() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.mean(), 3.5);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn blocked_matmul_matches_naive_on_random_matrices() {
        // Shapes straddle the 16/64 tile boundaries on purpose.
        let mut rng = crate::init::seeded_rng(2024);
        for &(m, k, n) in &[(1usize, 5usize, 3usize), (17, 65, 9), (33, 130, 20)] {
            let a = crate::init::he_uniform(m, k, &mut rng);
            let b = crate::init::he_uniform(k, n, &mut rng);
            let blocked = a.matmul(&b);
            let naive = a.matmul_naive(&b);
            for (x, y) in blocked.as_slice().iter().zip(naive.as_slice()) {
                assert!(
                    (x - y).abs() <= 1e-4 * (1.0 + y.abs()),
                    "blocked {x} vs naive {y}"
                );
            }
        }
    }

    #[test]
    fn matmul_into_reuses_scratch_and_matches_matmul() {
        let mut rng = crate::init::seeded_rng(7);
        let mut scratch = Matrix::zeros(1, 1);
        for &(m, k, n) in &[(3usize, 4usize, 5usize), (20, 70, 6), (5, 2, 9)] {
            let a = crate::init::he_uniform(m, k, &mut rng);
            let b = crate::init::he_uniform(k, n, &mut rng);
            a.matmul_into(&b, &mut scratch);
            assert_eq!(scratch, a.matmul(&b));
        }
    }
}
