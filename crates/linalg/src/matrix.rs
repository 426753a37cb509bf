//! Row-major dense matrix type and elementwise/product operations.

use crate::{LinalgError, Result};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f64` values.
///
/// # Examples
///
/// ```
/// use emod_linalg::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(a[(1, 0)], 3.0);
/// assert_eq!(a.transpose()[(0, 1)], 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
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
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "cannot build a matrix from zero rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {} out of bounds", r);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {} out of bounds", r);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column {} out of bounds", c);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Views the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when the inner dimensions differ.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += aik * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: (v.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum::<f64>())
            .collect())
    }

    /// The Gram matrix `selfᵀ * self`, computed without forming the transpose.
    ///
    /// This is the information matrix `X'X` of a design matrix `X`, the
    /// quantity whose determinant the D-optimality criterion maximizes.
    pub fn gram(&self) -> Matrix {
        let k = self.cols;
        let mut g = Matrix::zeros(k, k);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..k {
                let xi = row[i];
                if xi == 0.0 {
                    continue;
                }
                for j in i..k {
                    g[(i, j)] += xi * row[j];
                }
            }
        }
        for i in 0..k {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// Elementwise sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix::from_vec(self.rows, self.cols, data))
    }

    /// Returns `self` scaled by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        let data = self.data.iter().map(|a| a * s).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Adds `lambda` to every diagonal entry (ridge regularization), in place.
    pub fn add_diagonal(&mut self, lambda: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += lambda;
        }
    }

    /// Appends a row to the bottom of the matrix.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "row width mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Solves the least-squares problem `min ||self * b - y||²` via QR, with a
    /// ridge-regularized normal-equation fallback when the design is rank
    /// deficient.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `y.len() != self.rows()`, or
    /// [`LinalgError::Singular`] if even the ridge fallback fails.
    pub fn solve_lstsq(&self, y: &[f64]) -> Result<Vec<f64>> {
        if y.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: (y.len(), 1),
            });
        }
        match crate::Qr::new(self) {
            Ok(qr) if qr.is_full_rank() => qr.solve(y),
            _ => {
                // Ridge fallback: (X'X + λI) b = X'y.
                let mut gram = self.gram();
                let scale = gram
                    .as_slice()
                    .iter()
                    .fold(0.0f64, |m, v| m.max(v.abs()))
                    .max(1.0);
                gram.add_diagonal(1e-8 * scale);
                let xty = self.transpose().matvec(y)?;
                let chol = crate::Cholesky::new(&gram).map_err(|_| LinalgError::Singular)?;
                chol.solve(&xty)
            }
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry difference to `rhs`; `None` on shape mismatch.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> Option<f64> {
        if self.shape() != rhs.shape() {
            return None;
        }
        Some(
            self.data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max),
        )
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(12) {
                write!(f, "{:>10.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 12 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, -1.0, 2.0], &[0.0, 3.0, 1.0]]);
        let v = [2.0, 1.0, 0.5];
        let got = a.matvec(&v).unwrap();
        assert_eq!(got, vec![2.0, 3.5]);
    }

    #[test]
    fn gram_equals_xtx() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let g = x.gram();
        let xtx = x.transpose().matmul(&x).unwrap();
        assert_eq!(g.max_abs_diff(&xtx), Some(0.0));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn push_row_grows() {
        let mut a = Matrix::zeros(1, 2);
        a.push_row(&[7.0, 8.0]);
        assert_eq!(a.rows(), 2);
        assert_eq!(a.row(1), &[7.0, 8.0]);
    }

    #[test]
    fn lstsq_exact_line() {
        // y = 1 + 2x fit from noiseless data.
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]);
        let y = [1.0, 3.0, 5.0, 7.0];
        let b = x.solve_lstsq(&y).unwrap();
        assert!((b[0] - 1.0).abs() < 1e-10);
        assert!((b[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn lstsq_rank_deficient_uses_ridge() {
        // Duplicate column: infinitely many solutions; ridge picks a finite one.
        let x = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let y = [2.0, 4.0, 6.0];
        let b = x.solve_lstsq(&y).unwrap();
        let pred: Vec<f64> = x.matvec(&b).unwrap();
        for (p, t) in pred.iter().zip(&y) {
            assert!((p - t).abs() < 1e-3, "pred {} target {}", p, t);
        }
    }

    #[test]
    fn add_and_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.add(&b).unwrap().row(0), &[4.0, 6.0]);
        assert_eq!(a.scale(2.0).row(0), &[2.0, 4.0]);
        assert!(a.add(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn debug_is_nonempty() {
        let a = Matrix::zeros(1, 1);
        assert!(!format!("{:?}", a).is_empty());
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_bad_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![0.0; 3]);
    }
}
