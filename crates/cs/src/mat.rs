//! Dense matrices.
//!
//! Small explicit matrices back the block-based CS baseline (8×8 blocks
//! → 64-column matrices), greedy solvers' Gram systems, and the
//! coherence/RIP analyses. Storage is row-major `f64`.

use crate::op::LinearOperator;

/// A dense row-major matrix.
///
/// # Examples
///
/// ```
/// use tepics_cs::{DenseMatrix, LinearOperator};
///
/// let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// let y = a.apply_vec(&[1.0, 1.0]);
/// assert_eq!(y, vec![3.0, 7.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = DenseMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Creates a matrix from row vectors.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or rows have unequal lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "rows must be non-empty");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "row {i} has inconsistent length");
            data.extend_from_slice(r);
        }
        DenseMatrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        DenseMatrix::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn col_count(&self) -> usize {
        self.cols
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of range");
        self.data[row * self.cols + col]
    }

    /// Writes element `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, v: f64) {
        assert!(row < self.rows && col < self.cols, "index out of range");
        self.data[row * self.cols + col] = v;
    }

    /// Borrow of row `r`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The backing row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Transposed copy.
    pub fn transposed(&self) -> DenseMatrix {
        DenseMatrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Matrix product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, other.rows, "inner dimension mismatch");
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[r * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                for c in 0..other.cols {
                    out.data[r * other.cols + c] += a * other.data[k * other.cols + c];
                }
            }
        }
        out
    }

    /// Gram matrix `AᵀA` (`cols × cols`).
    pub fn gram(&self) -> DenseMatrix {
        let mut g = DenseMatrix::zeros(self.cols, self.cols);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..self.cols {
                let ri = row[i];
                if ri == 0.0 {
                    continue;
                }
                for (j, &rj) in row.iter().enumerate().skip(i) {
                    g.data[i * self.cols + j] += ri * rj;
                }
            }
        }
        // Mirror the upper triangle.
        for i in 0..self.cols {
            for j in 0..i {
                g.data[i * self.cols + j] = g.data[j * self.cols + i];
            }
        }
        g
    }
}

impl LinearOperator for DenseMatrix {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "input length mismatch");
        assert_eq!(y.len(), self.rows, "output length mismatch");
        for (r, yr) in y.iter_mut().enumerate() {
            *yr = crate::op::dot(self.row(r), x);
        }
    }

    fn apply_adjoint(&self, y: &[f64], x: &mut [f64]) {
        assert_eq!(y.len(), self.rows, "input length mismatch");
        assert_eq!(x.len(), self.cols, "output length mismatch");
        x.fill(0.0);
        for (r, &yr) in y.iter().enumerate() {
            crate::op::axpy(yr, self.row(r), x);
        }
    }

    fn column_into(&self, j: usize, out: &mut [f64]) {
        assert!(j < self.cols, "column {j} out of range");
        assert_eq!(out.len(), self.rows, "output length mismatch");
        for (r, o) in out.iter_mut().enumerate() {
            *o = self.data[r * self.cols + j];
        }
    }

    fn column(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "column {j} out of range");
        (0..self.rows)
            .map(|r| self.data[r * self.cols + j])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::adjoint_mismatch;

    #[test]
    fn matvec_and_adjoint_agree_with_manual() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 0.0, 2.0], vec![-1.0, 3.0, 1.0]]);
        assert_eq!(a.apply_vec(&[1.0, 1.0, 1.0]), vec![3.0, 3.0]);
        assert_eq!(a.apply_adjoint_vec(&[1.0, 1.0]), vec![0.0, 3.0, 3.0]);
        assert!(adjoint_mismatch(&a, 20, 9) < 1e-12);
    }

    #[test]
    fn matmul_known_product() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = DenseMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[2.0, 1.0, 4.0, 3.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = DenseMatrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        let i = DenseMatrix::identity(3);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn gram_matches_explicit_product() {
        let a = DenseMatrix::from_fn(5, 3, |r, c| ((r + 2 * c) % 4) as f64 - 1.5);
        let g1 = a.gram();
        let g2 = a.transposed().matmul(&a);
        for (x, y) in g1.as_slice().iter().zip(g2.as_slice()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn transpose_involution() {
        let a = DenseMatrix::from_fn(4, 6, |r, c| (r * 6 + c) as f64);
        assert_eq!(a.transposed().transposed(), a);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn bad_matmul_panics() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        a.matmul(&b);
    }
}
