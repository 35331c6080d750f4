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
/// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// let b = Matrix::from_vec(2, 1, vec![1.0, 1.0]);
/// assert_eq!(a.matmul(&b).as_slice(), &[3.0, 7.0]);
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
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
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

    /// Creates a `1 x n` row vector from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The underlying row-major buffer, consuming the matrix.
    pub(crate) fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Mutable access to the underlying row-major buffer.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f32] {
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
    /// Runs the register-tiled kernel through `Matrix::matmul_into`;
    /// the result is bit-identical to [`Matrix::matmul_naive`].
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
    /// which matters in every training step.
    ///
    /// Each output is the sum from `+0.0` of its products in ascending
    /// inner index, the same sum [`Matrix::matmul_naive`] computes, so
    /// the two agree bit for bit.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub(crate) fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.resize(self.rows, rhs.cols);
        out.data.fill(0.0);
        crate::simd::gemm_add(Lhs::rows_of(self), rhs, &mut out.data);
        crate::debug_assert_finite!(&*out, "matmul");
    }

    /// Reference (i, j, k) matmul kept for kernel cross-checking: one
    /// sum per output, from `0.0`, in ascending inner index. Every other
    /// product in this module adds the same terms in the same order, so
    /// for finite inputs they all match this one bit for bit.
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

    /// Matrix product with the transpose of `rhs`: `self * rhs^T`.
    ///
    /// Transposes `rhs` and runs the tiled kernel, so each output is a
    /// dot product summed from `+0.0` in ascending inner index.
    /// Training keeps the transpose in its workspace and calls
    /// `Matrix::transpose_into` and `Matrix::matmul_into` instead.
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
    /// The kernel reads `self` column-wise in place; no transpose is
    /// built. Training runs the same product a few dozen columns of
    /// `self` at a time (`Mlp::fit`'s weight gradient).
    ///
    /// # Panics
    ///
    /// Panics on row-count mismatch.
    pub fn transposed_matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "transposed_matmul shape mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        crate::simd::gemm_add(Lhs::columns_of(self), rhs, &mut out.data);
        crate::debug_assert_finite!(&out, "transposed_matmul");
        out
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Writes the transpose into `out`, which is resized to
    /// `self.cols x self.rows` and fully overwritten.
    pub(crate) fn transpose_into(&self, out: &mut Matrix) {
        out.resize(self.cols, self.rows);
        for (i, row) in self.data.chunks_exact(self.cols).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                out.data[j * self.rows + i] = v;
            }
        }
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
    pub(crate) fn add_row_broadcast_in_place(&mut self, bias: &Matrix) {
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
    pub(crate) fn resize(&mut self, rows: usize, cols: usize) {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Sums each column, from `0.0` and in row order, into `out`, which
    /// is resized to `1 x cols` and fully overwritten.
    pub(crate) fn sum_rows_into(&self, out: &mut Matrix) {
        out.resize(1, self.cols);
        out.data.fill(0.0);
        for row in self.data.chunks_exact(self.cols) {
            for (o, &v) in out.data.iter_mut().zip(row) {
                *o += v;
            }
        }
    }

    /// Scales every element in place.
    pub(crate) fn scale_in_place(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Applies a function element-wise, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let data = self.data.iter().map(|&v| f(v)).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Frobenius norm.
    pub(crate) fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&v| v * v).sum::<f32>().sqrt()
    }
}

/// Rows of the register tile in the plain and AVX2 builds: left-operand
/// rows sharing each loaded right-hand panel. The AVX-512 build runs
/// 8-row tiles first, then this height.
pub(crate) const MR: usize = 4;
/// Columns of the register tile in the plain and AVX2 builds: one
/// right-hand panel row. 4 x 16 beat 4 x 8, 6 x 16 and 8 x 8 on the
/// training shapes in the SSE2 build (x86-64), and it keeps the AVX2
/// build at eight 8-lane accumulators. The AVX-512 build runs 32-wide
/// panels first, then this width.
pub(crate) const NR: usize = 16;

/// The left operand of [`gemm_add`]: an `rows x inner` view whose
/// element `(i, p)` is `data[i * row_stride + p * inner_stride]`, so a
/// matrix and its transpose are both read in place.
#[derive(Clone, Copy)]
pub(crate) struct Lhs<'a> {
    data: &'a [f32],
    rows: usize,
    inner: usize,
    row_stride: usize,
    inner_stride: usize,
}

impl<'a> Lhs<'a> {
    /// `m` as it is.
    pub(crate) fn rows_of(m: &'a Matrix) -> Self {
        Self {
            data: &m.data,
            rows: m.rows,
            inner: m.cols,
            row_stride: m.cols,
            inner_stride: 1,
        }
    }

    /// The transpose of `m`, read in place.
    pub(crate) fn columns_of(m: &'a Matrix) -> Self {
        Self::column_range(m, 0..m.cols)
    }

    /// The transpose of columns `cols` of `m`, read in place: row `i` of
    /// the view is column `cols.start + i` of `m`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or runs past `m`'s last column.
    pub(crate) fn column_range(m: &'a Matrix, cols: std::ops::Range<usize>) -> Self {
        assert!(
            cols.start < cols.end && cols.end <= m.cols,
            "column range {cols:?} of a {}-column matrix",
            m.cols
        );
        Self {
            data: &m.data[cols.start..],
            rows: cols.len(),
            inner: m.rows,
            row_stride: 1,
            inner_stride: m.cols,
        }
    }

    fn at(&self, i: usize, p: usize) -> f32 {
        self.data[i * self.row_stride + p * self.inner_stride]
    }
}

/// The crate's one dense product kernel: `out += a * b`, with `out`
/// row-major `a.rows x b.cols()`.
///
/// Column panels of `b`, `W` wide, are the outer loop, so a panel stays
/// in cache across every row tile; the columns a `W`-wide panel cannot
/// cover run in [`NR`]-wide panels, and the last few one at a time.
/// Within a panel, rows go in `M`-row tiles, then [`MR`]-row tiles, then
/// one tile of the 1–3 rows left. Each tile of `out` is held in locals,
/// starts from `out`'s current value, and adds `a(i, p) * b(p, j)` — a
/// multiply, then an add — for `p` ascending. Every output is therefore
/// the same sum, in the same order, that [`Matrix::matmul_naive`]
/// computes from a zero-filled `out`, whatever the tile shape. No zero
/// `a` is skipped: such a product is `±0.0`, which leaves a finite sum
/// that starts from `+0.0` unchanged, so skipping would change no result
/// and only cost a branch.
///
/// This is the kernel's body; [`crate::simd::gemm_add`] runs it in the
/// widest build the CPU supports: `M` x `W` = [`MR`] x [`NR`], except in
/// the AVX-512 build.
#[inline(always)]
pub(crate) fn gemm_add<const M: usize, const W: usize>(a: Lhs<'_>, b: &Matrix, out: &mut [f32]) {
    debug_assert_eq!(a.inner, b.rows);
    debug_assert_eq!(out.len(), a.rows * b.cols);
    let j = panels::<M, W>(a, b, 0, out);
    let j = panels::<M, NR>(a, b, j, out);
    // Columns past the last full panel: one sum per output, same order.
    let n = b.cols;
    for i in 0..a.rows {
        for jj in j..n {
            let mut acc = out[i * n + jj];
            for p in 0..a.inner {
                acc += a.at(i, p) * b.data[p * n + jj];
            }
            out[i * n + jj] = acc;
        }
    }
}

/// Every whole `W`-wide column panel of [`gemm_add`] from column `j`
/// on, in `M`-row tiles first; returns the first column left over.
#[inline(always)]
fn panels<const M: usize, const W: usize>(
    a: Lhs<'_>,
    b: &Matrix,
    mut j: usize,
    out: &mut [f32],
) -> usize {
    while j + W <= b.cols {
        let mut i = 0;
        while i + M <= a.rows {
            tile::<M, W>(a, i, b, j, out);
            i += M;
        }
        while i + MR <= a.rows {
            tile::<MR, W>(a, i, b, j, out);
            i += MR;
        }
        match a.rows - i {
            1 => tile::<1, W>(a, i, b, j, out),
            2 => tile::<2, W>(a, i, b, j, out),
            3 => tile::<3, W>(a, i, b, j, out),
            _ => {}
        }
        j += W;
    }
    j
}

/// One `R x W` tile of [`gemm_add`]: rows `i..i + R`, columns
/// `j..j + W`.
#[inline(always)]
fn tile<const R: usize, const W: usize>(
    a: Lhs<'_>,
    i: usize,
    b: &Matrix,
    j: usize,
    out: &mut [f32],
) {
    let n = b.cols;
    let mut acc = [[0.0f32; W]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        let at = (i + r) * n + j;
        row.copy_from_slice(&out[at..at + W]);
    }
    for p in 0..a.inner {
        let panel = &b.data[p * n + j..p * n + j + W];
        for (r, row) in acc.iter_mut().enumerate() {
            let x = a.at(i + r, p);
            for (o, &y) in row.iter_mut().zip(panel) {
                *o += x * y;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        let at = (i + r) * n + j;
        out[at..at + W].copy_from_slice(row);
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
pub(crate) mod tests {
    use super::*;

    /// Test-only constructors and element-wise operations, for the
    /// unit tests' fixtures and `mlp`'s allocating reference step.
    impl Matrix {
        /// Creates a matrix filled with a constant value.
        pub(crate) fn full(rows: usize, cols: usize, value: f32) -> Self {
            let mut m = Self::zeros(rows, cols);
            m.data.fill(value);
            m
        }

        /// Creates a matrix from a slice of equally-sized rows.
        ///
        /// # Panics
        ///
        /// Panics if rows are empty or have differing lengths.
        pub(crate) fn from_rows(rows: &[&[f32]]) -> Self {
            assert!(!rows.is_empty(), "at least one row required");
            let cols = rows[0].len();
            let mut data = Vec::with_capacity(rows.len() * cols);
            for r in rows {
                assert_eq!(r.len(), cols, "ragged rows are not allowed");
                data.extend_from_slice(r);
            }
            Self::from_vec(rows.len(), cols, data)
        }

        /// Element-wise difference.
        pub(crate) fn sub(&self, rhs: &Matrix) -> Matrix {
            self.zip_with(rhs, |a, b| a - b)
        }

        /// Element-wise (Hadamard) product.
        pub(crate) fn hadamard(&self, rhs: &Matrix) -> Matrix {
            self.zip_with(rhs, |a, b| a * b)
        }

        /// Returns a scaled copy.
        pub(crate) fn scaled(&self, s: f32) -> Matrix {
            let mut out = self.clone();
            out.scale_in_place(s);
            out
        }

        /// `self += rhs * s` (axpy), in place.
        ///
        /// # Panics
        ///
        /// Panics on shape mismatch.
        pub(crate) fn axpy_in_place(&mut self, rhs: &Matrix, s: f32) {
            assert_eq!(self.rows, rhs.rows, "axpy row mismatch");
            assert_eq!(self.cols, rhs.cols, "axpy col mismatch");
            for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
                *a += b * s;
            }
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

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
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

    /// `(m, k, n)` shapes of the `matmul_transposed` test; they straddle
    /// the 4x16 tile boundaries.
    pub(crate) const TRANSPOSED_SHAPES: [(usize, usize, usize); 4] =
        [(1, 1, 1), (7, 5, 3), (17, 65, 9), (33, 130, 70)];

    #[test]
    fn matmul_transposed_is_bit_identical_to_the_dot_product_loop() {
        // A third of the left-hand entries are exact zeros (some
        // negative), whose products the kernel and the dot product both
        // add.
        let mut rng = crate::init::seeded_rng(808);
        for (m, k, n) in TRANSPOSED_SHAPES {
            let a = with_signed_zeros(m, k, &mut rng);
            let b = crate::init::he_uniform(n, k, &mut rng);
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
        let mut out = Matrix::zeros(1, 1);
        a.sum_rows_into(&mut out);
        assert_eq!(out, Matrix::row_vector(&[9.0, 12.0]));
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
    fn frobenius_norm_of_a_3_4_row() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn blocked_matmul_matches_naive_on_random_matrices() {
        let mut rng = crate::init::seeded_rng(2024);
        for &(m, k, n) in &[(1usize, 5usize, 3usize), (17, 65, 9), (33, 130, 20)] {
            let a = crate::init::he_uniform(m, k, &mut rng);
            let b = crate::init::he_uniform(k, n, &mut rng);
            assert_eq!(
                bits(&a.matmul(&b)),
                bits(&a.matmul_naive(&b)),
                "{m}x{k}x{n}"
            );
        }
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// `m x k` He-uniform entries with every third one an exact zero,
    /// alternately `+0.0` and `-0.0`.
    pub(crate) fn with_signed_zeros(m: usize, k: usize, rng: &mut rand::rngs::StdRng) -> Matrix {
        let mut a = crate::init::he_uniform(m, k, rng);
        for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
            match i % 6 {
                0 => *v = 0.0,
                3 => *v = -0.0,
                _ => {}
            }
        }
        a
    }

    /// `(m, k, n)` shapes of the tiled-kernel test: every row remainder
    /// of the 4- and 8-row tiles against full, partial and no 16- and
    /// 32-wide column panels; 1x1, k = 1 and M = 1; the single-row
    /// inference shapes;
    /// and the training shapes (forward, a 2-row tail batch, and the dW
    /// and dX products of the 96-wide stack).
    pub(crate) fn tiled_kernel_shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = vec![
            (1usize, 1usize, 1usize),
            (1, 772, 96),
            (1, 96, 272),
            (2, 1284, 96),
            (32, 1284, 96),
            (32, 96, 96),
            (32, 96, 272),
            (96, 32, 272),
            (32, 272, 96),
        ];
        for m in 1..=13 {
            for n in [1, 3, 15, 16, 17, 32, 35] {
                shapes.push((m, 1, n));
                shapes.push((m, 11, n));
            }
        }
        shapes
    }

    #[test]
    fn tiled_kernel_is_bit_identical_to_the_naive_loop_in_every_layout() {
        let mut rng = crate::init::seeded_rng(1717);
        for (m, k, n) in tiled_kernel_shapes() {
            let a = with_signed_zeros(m, k, &mut rng);
            let b = crate::init::he_uniform(k, n, &mut rng);
            let want = bits(&a.matmul_naive(&b));
            let at = a.transpose();
            assert_eq!(bits(&a.matmul(&b)), want, "A * B, {m}x{k}x{n}");
            assert_eq!(
                bits(&at.transposed_matmul(&b)),
                want,
                "A^T^T * B, {m}x{k}x{n}"
            );
            let bt = b.transpose();
            assert_eq!(
                bits(&a.matmul_transposed(&bt)),
                want,
                "A * B^T^T, {m}x{k}x{n}"
            );

            // Seeded with a bias row, each output sums from its bias.
            let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.25 - 1.0).collect();
            let mut seeded = bias.repeat(m);
            crate::simd::gemm_add(Lhs::rows_of(&a), &b, &mut seeded);
            let mut want = bias.repeat(m);
            for i in 0..m {
                for j in 0..n {
                    for p in 0..k {
                        want[i * n + j] += a[(i, p)] * b[(p, j)];
                    }
                }
            }
            let seeded_bits: Vec<u32> = seeded.iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(seeded_bits, want_bits, "bias + A * B, {m}x{k}x{n}");
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
