//! Dense matrices over GF(2⁸) with Gauss–Jordan inversion.
//!
//! Used to derive systematic Reed–Solomon encoding matrices and to solve
//! the linear systems arising in decoding (both the fixed-rate and the
//! rateless codes).

use crate::gf256;

/// A dense row-major matrix over GF(2⁸).
///
/// ```
/// use rsb_coding::matrix::Matrix;
/// let id = Matrix::identity(3);
/// let v = Matrix::vandermonde(5, 3);
/// assert_eq!(&v * &id, v);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            writeln!(f, "  {:02x?}", self.row(r))?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a zero matrix of the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zero(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m.set(i, i, 1);
        }
        m
    }

    /// Creates a matrix from explicit rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have unequal lengths.
    pub fn from_rows(rows: Vec<Vec<u8>>) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix must have at least one column");
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "all rows must have equal length"
        );
        let nrows = rows.len();
        let data = rows.into_iter().flatten().collect();
        Matrix {
            rows: nrows,
            cols,
            data,
        }
    }

    /// Creates the `rows × cols` Vandermonde matrix with evaluation points
    /// `0, 1, …, rows-1`: entry `(i, j) = iʲ`.
    ///
    /// Any `cols` rows with distinct evaluation points are linearly
    /// independent, the property underpinning MDS decoding.
    ///
    /// # Panics
    ///
    /// Panics if `rows > 256` (GF(2⁸) has only 256 distinct points).
    pub fn vandermonde(rows: usize, cols: usize) -> Self {
        assert!(rows <= 256, "at most 256 distinct evaluation points");
        let mut m = Matrix::zero(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, gf256::pow(i as u8, j as u32));
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns entry `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> u8 {
        self.data[r * self.cols + c]
    }

    /// Sets entry `(r, c)` to `v`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: u8) {
        self.data[r * self.cols + c] = v;
    }

    /// Returns row `r` as a slice.
    pub fn row(&self, r: usize) -> &[u8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns a new matrix consisting of the selected rows, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds or `indices` is empty.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        assert!(!indices.is_empty(), "matrix must have at least one row");
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Multiplies `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn multiply(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch in multiply");
        let mut out = Matrix::zero(self.rows, rhs.cols);
        // Row-major accumulation: out.row(i) ^= self[i][l] · rhs.row(l),
        // each row update running through the dispatched bulk kernel.
        for i in 0..self.rows {
            let dst = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for l in 0..self.cols {
                gf256::mul_acc(dst, rhs.row(l), self.get(i, l));
            }
        }
        out
    }

    /// Inverts a square matrix by Gauss–Jordan elimination.
    ///
    /// Returns `None` if the matrix is singular.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn inverse(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "only square matrices invert");
        let n = self.rows;
        let mut work = self.clone();
        let mut out = Matrix::identity(n);
        for col in 0..n {
            // Find a pivot.
            let pivot = (col..n).find(|&r| work.get(r, col) != 0)?;
            if pivot != col {
                work.swap_rows(pivot, col);
                out.swap_rows(pivot, col);
            }
            let p = work.get(col, col);
            let pinv = gf256::inv(p);
            work.scale_row(col, pinv);
            out.scale_row(col, pinv);
            for r in 0..n {
                if r != col {
                    let factor = work.get(r, col);
                    if factor != 0 {
                        work.add_scaled_row(r, col, factor);
                        out.add_scaled_row(r, col, factor);
                    }
                }
            }
        }
        Some(out)
    }

    /// Returns a nonzero vector `x` with `self · x = 0`, or `None` if the
    /// columns are linearly independent (trivial kernel).
    ///
    /// Used by the executable pigeonhole argument (the paper's Claim 1):
    /// for a linear code, two `I`-colliding values differ by a kernel
    /// element of the `I`-restricted encoding map.
    pub fn null_vector(&self) -> Option<Vec<u8>> {
        // Reduce to row-echelon form, tracking pivot columns.
        let mut work = self.clone();
        let mut pivot_col_of_row: Vec<usize> = Vec::new();
        let mut row = 0;
        for col in 0..work.cols {
            if row == work.rows {
                break;
            }
            if let Some(p) = (row..work.rows).find(|&r| work.get(r, col) != 0) {
                work.swap_rows(p, row);
                let pinv = gf256::inv(work.get(row, col));
                work.scale_row(row, pinv);
                for r in 0..work.rows {
                    if r != row {
                        let factor = work.get(r, col);
                        if factor != 0 {
                            work.add_scaled_row(r, row, factor);
                        }
                    }
                }
                pivot_col_of_row.push(col);
                row += 1;
            }
        }
        let pivots: std::collections::HashSet<usize> = pivot_col_of_row.iter().copied().collect();
        let free = (0..work.cols).find(|c| !pivots.contains(c))?;
        // Back-substitute with the free variable set to 1.
        let mut x = vec![0u8; work.cols];
        x[free] = 1;
        for (r, &pc) in pivot_col_of_row.iter().enumerate() {
            // x[pc] = -Σ_{c != pc} work[r][c]·x[c]; negation is identity.
            x[pc] = gf256::mul(work.get(r, free), 1);
        }
        Some(x)
    }

    /// Returns the rank of the matrix (Gaussian elimination on a copy).
    pub fn rank(&self) -> usize {
        let mut work = self.clone();
        let mut rank = 0;
        for col in 0..work.cols {
            if rank == work.rows {
                break;
            }
            if let Some(pivot) = (rank..work.rows).find(|&r| work.get(r, col) != 0) {
                work.swap_rows(pivot, rank);
                let pinv = gf256::inv(work.get(rank, col));
                work.scale_row(rank, pinv);
                for r in 0..work.rows {
                    if r != rank {
                        let factor = work.get(r, col);
                        if factor != 0 {
                            work.add_scaled_row(r, rank, factor);
                        }
                    }
                }
                rank += 1;
            }
        }
        rank
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        let (head, tail) = self.data.split_at_mut(hi * self.cols);
        head[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut tail[..self.cols]);
    }

    fn scale_row(&mut self, r: usize, factor: u8) {
        let start = r * self.cols;
        gf256::scale(&mut self.data[start..start + self.cols], factor);
    }

    /// `row[dst] ^= factor * row[src]`.
    fn add_scaled_row(&mut self, dst: usize, src: usize, factor: u8) {
        let (dst_row, src_row) = if dst < src {
            let (a, b) = self.data.split_at_mut(src * self.cols);
            (
                &mut a[dst * self.cols..(dst + 1) * self.cols],
                &b[..self.cols],
            )
        } else {
            let (a, b) = self.data.split_at_mut(dst * self.cols);
            (
                &mut b[..self.cols],
                &a[src * self.cols..(src + 1) * self.cols],
            )
        };
        gf256::mul_acc(dst_row, src_row, factor);
    }
}

impl std::ops::Mul for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: &Matrix) -> Matrix {
        self.multiply(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_multiplication() {
        let v = Matrix::vandermonde(4, 4);
        let id = Matrix::identity(4);
        assert_eq!(&v * &id, v);
        assert_eq!(&id * &v, v);
    }

    #[test]
    fn vandermonde_shape() {
        let v = Matrix::vandermonde(6, 3);
        assert_eq!(v.rows(), 6);
        assert_eq!(v.cols(), 3);
        // Row i is [1, i, i²].
        for i in 0..6u8 {
            assert_eq!(v.get(i as usize, 0), 1);
            assert_eq!(v.get(i as usize, 1), i);
            assert_eq!(v.get(i as usize, 2), gf256::mul(i, i));
        }
    }

    #[test]
    fn inverse_of_identity() {
        let id = Matrix::identity(5);
        assert_eq!(id.inverse().unwrap(), id);
    }

    #[test]
    fn inverse_roundtrip_vandermonde() {
        for n in 1..=8 {
            let v = Matrix::vandermonde(n, n);
            let vi = v.inverse().expect("vandermonde is invertible");
            assert_eq!(&v * &vi, Matrix::identity(n));
            assert_eq!(&vi * &v, Matrix::identity(n));
        }
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let m = Matrix::from_rows(vec![vec![1, 2], vec![1, 2]]);
        assert!(m.inverse().is_none());
        let z = Matrix::zero(3, 3);
        assert!(z.inverse().is_none());
    }

    #[test]
    fn any_square_vandermonde_submatrix_invertible() {
        // The MDS property: any k rows of an n×k Vandermonde invert.
        let n = 12;
        let k = 4;
        let v = Matrix::vandermonde(n, k);
        // A few representative subsets.
        for subset in [
            vec![0, 1, 2, 3],
            vec![8, 9, 10, 11],
            vec![0, 5, 7, 11],
            vec![3, 4, 9, 10],
        ] {
            let sub = v.select_rows(&subset);
            assert!(
                sub.inverse().is_some(),
                "rows {subset:?} should be invertible"
            );
        }
    }

    #[test]
    fn rank_of_vandermonde() {
        assert_eq!(Matrix::vandermonde(6, 3).rank(), 3);
        assert_eq!(Matrix::vandermonde(3, 3).rank(), 3);
        assert_eq!(Matrix::zero(4, 4).rank(), 0);
        let m = Matrix::from_rows(vec![vec![1, 2, 3], vec![1, 2, 3], vec![0, 1, 0]]);
        assert_eq!(m.rank(), 2);
    }

    #[test]
    fn select_rows_preserves_content() {
        let v = Matrix::vandermonde(5, 2);
        let s = v.select_rows(&[4, 0]);
        assert_eq!(s.row(0), v.row(4));
        assert_eq!(s.row(1), v.row(0));
    }

    #[test]
    fn multiply_known_case() {
        let a = Matrix::from_rows(vec![vec![1, 2], vec![3, 4]]);
        let b = Matrix::from_rows(vec![vec![5, 6], vec![7, 8]]);
        let c = &a * &b;
        // c[0][0] = 1*5 + 2*7 (in GF(256))
        assert_eq!(c.get(0, 0), gf256::mul(1, 5) ^ gf256::mul(2, 7));
        assert_eq!(c.get(1, 1), gf256::mul(3, 6) ^ gf256::mul(4, 8));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn multiply_mismatch_panics() {
        let a = Matrix::zero(2, 3);
        let b = Matrix::zero(2, 3);
        let _ = &a * &b;
    }

    #[test]
    fn null_vector_of_wide_matrix() {
        // More columns than rows: a kernel element must exist.
        for (rows, cols) in [(1usize, 2usize), (2, 4), (3, 5)] {
            let m = Matrix::vandermonde(rows, cols);
            let x = m.null_vector().expect("wide matrix has a kernel");
            assert!(x.iter().any(|&v| v != 0), "kernel vector must be nonzero");
            // Verify A·x = 0.
            for r in 0..rows {
                assert_eq!(gf256::dot(m.row(r), &x), 0, "{rows}x{cols} row {r}");
            }
        }
    }

    #[test]
    fn null_vector_none_for_full_column_rank() {
        assert!(Matrix::identity(3).null_vector().is_none());
        assert!(Matrix::vandermonde(5, 3).null_vector().is_none());
    }

    #[test]
    fn null_vector_of_singular_square_matrix() {
        let m = Matrix::from_rows(vec![vec![1, 2], vec![1, 2]]);
        let x = m.null_vector().unwrap();
        for r in 0..2 {
            assert_eq!(gf256::dot(m.row(r), &x), 0);
        }
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", Matrix::identity(2));
        assert!(s.contains("Matrix 2x2"));
    }
}
