//! Row-major dense matrix.

use crate::error::LinalgError;
use crate::vector;
use crate::Result;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `f64` matrix.
///
/// Storage is a single contiguous `Vec<f64>` of length `rows * cols`; element
/// `(i, j)` lives at `data[i * cols + j]`. Row-major layout makes per-row
/// feature access (the dominant pattern in regression) a contiguous slice.
#[derive(Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Create the `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a flat row-major buffer.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(LinalgError::ShapeMismatch(format!(
                "buffer of {} elements cannot form a {rows}x{cols} matrix",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Build from row slices; every row must have the same length.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] on ragged input.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::ShapeMismatch(format!(
                    "row {i} has {} columns, expected {cols}",
                    r.len()
                )));
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix { rows: rows.len(), cols, data })
    }

    /// Build by evaluating `f(i, j)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True when the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Flat row-major view of the underlying buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable row-major view of the underlying buffer. Lets kernels
    /// split several rows out at once (e.g. rank-4 panel updates) where
    /// [`Matrix::row_mut`] could only hand out one row per borrow.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume into the underlying buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch(format!(
                "matvec: {}x{} times vector of length {}",
                self.rows,
                self.cols,
                x.len()
            )));
        }
        Ok((0..self.rows).map(|i| vector::dot(self.row(i), x)).collect())
    }

    /// Matrix–vector product `A x` written into a caller-owned buffer — the
    /// allocation-free variant of [`Matrix::mul_vec`] used on the
    /// recommend/record hot path.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] if `x.len() != cols` or
    /// `out.len() != rows`.
    pub fn mul_vec_into(&self, x: &[f64], out: &mut [f64]) -> Result<()> {
        if x.len() != self.cols || out.len() != self.rows {
            return Err(LinalgError::ShapeMismatch(format!(
                "matvec_into: {}x{} times vector of length {} into buffer of length {}",
                self.rows,
                self.cols,
                x.len(),
                out.len()
            )));
        }
        for (i, o) in out.iter_mut().enumerate() {
            *o = vector::dot(self.row(i), x);
        }
        Ok(())
    }

    /// Overwrite this matrix with the contents of `src` without reallocating.
    ///
    /// # Panics
    /// Panics on a shape mismatch (scratch buffers are sized once; a
    /// mismatch is a programmer error on the hot path).
    pub fn copy_from(&mut self, src: &Matrix) {
        assert_eq!(self.shape(), src.shape(), "copy_from: shape mismatch");
        self.data.copy_from_slice(&src.data);
    }

    /// Reshape to `rows × cols` and zero every element, reusing the existing
    /// buffer when the shape already matches (the scratch-reset primitive).
    pub fn reset_zeroed(&mut self, rows: usize, cols: usize) {
        if self.rows == rows && self.cols == cols {
            self.data.iter_mut().for_each(|v| *v = 0.0);
        } else {
            *self = Matrix::zeros(rows, cols);
        }
    }

    /// Naive triple-loop product `A B` in `ikj` order (streams through rows of
    /// `B`, which is cache-friendly for row-major data).
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] on inner-dimension mismatch.
    pub fn mul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch(format!(
                "matmul: {}x{} times {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let brow = other.row(k);
                let orow = out.row_mut(i);
                vector::axpy(a, brow, orow);
            }
        }
        Ok(out)
    }

    /// Cache-blocked product `A B` with square tiles of side `block`.
    ///
    /// Identical result to [`Matrix::mul`]; used by the matrix-squaring
    /// workload where operands no longer fit in cache. A `block` of 0 is
    /// rounded up to 1.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] on inner-dimension mismatch.
    pub fn mul_blocked(&self, other: &Matrix, block: usize) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch(format!(
                "matmul: {}x{} times {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let b = block.max(1);
        let (n, m, p) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(n, p);
        for ii in (0..n).step_by(b) {
            let i_end = (ii + b).min(n);
            for kk in (0..m).step_by(b) {
                let k_end = (kk + b).min(m);
                for jj in (0..p).step_by(b) {
                    let j_end = (jj + b).min(p);
                    for i in ii..i_end {
                        for k in kk..k_end {
                            let a = self[(i, k)];
                            if a == 0.0 {
                                continue;
                            }
                            let brow = &other.data[k * p + jj..k * p + j_end];
                            let orow = &mut out.data[i * p + jj..i * p + j_end];
                            vector::axpy(a, brow, orow);
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// `AᵀA` (the Gram matrix), exploiting symmetry: only the upper triangle
    /// is computed, then mirrored.
    pub fn gram(&self) -> Matrix {
        let m = self.cols;
        let mut g = Matrix::zeros(m, m);
        for row in 0..self.rows {
            let r = self.row(row);
            for i in 0..m {
                let ri = r[i];
                if ri == 0.0 {
                    continue;
                }
                for j in i..m {
                    g[(i, j)] += ri * r[j];
                }
            }
        }
        for i in 0..m {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// `Aᵀ y`.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] if `y.len() != rows`.
    pub fn t_mul_vec(&self, y: &[f64]) -> Result<Vec<f64>> {
        if y.len() != self.rows {
            return Err(LinalgError::ShapeMismatch(format!(
                "tranpose-matvec: {}x{} with vector of length {}",
                self.rows,
                self.cols,
                y.len()
            )));
        }
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            vector::axpy(y[i], self.row(i), &mut out);
        }
        Ok(out)
    }

    /// Element-wise sum `A + B`.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch(format!(
                "add: {:?} vs {:?}",
                self.shape(),
                other.shape()
            )));
        }
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect();
        Ok(Matrix { rows: self.rows, cols: self.cols, data })
    }

    /// Element-wise difference `A - B`.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch(format!(
                "sub: {:?} vs {:?}",
                self.shape(),
                other.shape()
            )));
        }
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a - b).collect();
        Ok(Matrix { rows: self.rows, cols: self.cols, data })
    }

    /// Multiply every element by `alpha`, in place.
    pub fn scale_mut(&mut self, alpha: f64) {
        vector::scale(alpha, &mut self.data);
    }

    /// Maximum absolute element (∞-norm of the flattened buffer).
    pub fn max_abs(&self) -> f64 {
        vector::norm_inf(&self.data)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        vector::norm2(&self.data)
    }

    /// True when `self` and `other` agree element-wise within tolerances.
    pub fn allclose(&self, other: &Matrix, rtol: f64, atol: f64) -> bool {
        self.shape() == other.shape() && vector::allclose(&self.data, &other.data, rtol, atol)
    }

    /// Append a row.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] if `row.len() != cols` (unless the
    /// matrix is still 0×0, in which case the first row fixes the width).
    pub fn push_row(&mut self, row: &[f64]) -> Result<()> {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        } else if row.len() != self.cols {
            return Err(LinalgError::ShapeMismatch(format!(
                "push_row: row of length {} into matrix with {} columns",
                row.len(),
                self.cols
            )));
        }
        self.data.extend_from_slice(row);
        self.rows += 1;
        Ok(())
    }

    /// A copy with a leading column of ones (the bias/intercept column used
    /// to fold `b` into `w` when fitting `R = wᵀx + b`).
    pub fn with_intercept(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols + 1);
        for i in 0..self.rows {
            out[(i, 0)] = 1.0;
            out.row_mut(i)[1..].copy_from_slice(self.row(i));
        }
        out
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for i in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ... ({} more rows)", self.rows - max_rows)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap()
    }

    #[test]
    fn construction_and_indexing() {
        let m = sample();
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(2, 1)], 6.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn from_vec_validates_shape() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(1 << 32, 1 << 32, vec![]).is_err(), "overflowing shape");
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::ShapeMismatch(_)));
    }

    #[test]
    fn identity_and_from_fn() {
        let i3 = Matrix::identity(3);
        let m = Matrix::from_fn(3, 3, |i, j| if i == j { 1.0 } else { 0.0 });
        assert_eq!(i3, m);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (2, 3));
        assert_eq!(m.transpose()[(0, 2)], 5.0);
    }

    #[test]
    fn matvec() {
        let m = sample();
        assert_eq!(m.mul_vec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0, 11.0]);
        assert!(m.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn matmul_against_hand_computed() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.mul(&b).unwrap();
        let expect = Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap();
        assert_eq!(c, expect);
        assert!(a.mul(&sample()).is_err());
    }

    #[test]
    fn identity_is_neutral() {
        let a = sample();
        let i = Matrix::identity(2);
        assert_eq!(a.mul(&i).unwrap(), a);
    }

    #[test]
    fn blocked_matches_naive() {
        let a = Matrix::from_fn(17, 13, |i, j| (i as f64) - 0.5 * (j as f64));
        let b = Matrix::from_fn(13, 19, |i, j| (i * j) as f64 * 0.01 - 1.0);
        let naive = a.mul(&b).unwrap();
        for block in [1, 2, 4, 7, 16, 64] {
            let blocked = a.mul_blocked(&b, block).unwrap();
            assert!(blocked.allclose(&naive, 1e-12, 1e-12), "block={block}");
        }
    }

    #[test]
    fn gram_matches_explicit_transpose_product() {
        let a = Matrix::from_fn(6, 4, |i, j| ((i + 1) * (j + 2)) as f64 % 5.0 - 2.0);
        let g = a.gram();
        let explicit = a.transpose().mul(&a).unwrap();
        assert!(g.allclose(&explicit, 1e-12, 1e-12));
        // gram is symmetric
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(g[(i, j)], g[(j, i)]);
            }
        }
    }

    #[test]
    fn t_mul_vec_matches_transpose() {
        let a = sample();
        let y = vec![1.0, -1.0, 2.0];
        let direct = a.t_mul_vec(&y).unwrap();
        let via_t = a.transpose().mul_vec(&y).unwrap();
        assert_eq!(direct, via_t);
        assert!(a.t_mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn add_sub_scale() {
        let a = sample();
        let sum = a.add(&a).unwrap();
        assert_eq!(sum[(2, 1)], 12.0);
        let diff = sum.sub(&a).unwrap();
        assert_eq!(diff, a);
        let mut half = a.clone();
        half.scale_mut(0.5);
        assert_eq!(half[(0, 1)], 1.0);
        assert!(a.add(&Matrix::identity(2)).is_err());
        assert!(a.sub(&Matrix::identity(2)).is_err());
    }

    #[test]
    fn push_row_grows_and_validates() {
        let mut m = Matrix::zeros(0, 0);
        m.push_row(&[1.0, 2.0]).unwrap();
        m.push_row(&[3.0, 4.0]).unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert!(m.push_row(&[1.0]).is_err());
    }

    #[test]
    fn with_intercept_prepends_ones() {
        let m = sample().with_intercept();
        assert_eq!(m.shape(), (3, 3));
        assert_eq!(m.col(0), vec![1.0, 1.0, 1.0]);
        assert_eq!(m[(1, 1)], 3.0);
    }

    #[test]
    fn norms_and_debug() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, -4.0]]).unwrap();
        assert_eq!(m.frobenius_norm(), 5.0);
        assert_eq!(m.max_abs(), 4.0);
        let s = format!("{m:?}");
        assert!(s.contains("2x2"));
    }
}
