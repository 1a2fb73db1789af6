use crate::NumericError;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major matrix of `f64` values.
///
/// `Matrix` is deliberately small: it supports exactly the operations the
/// regression machinery in `dynawave-neural` needs (products, transposes,
/// Cholesky and LU factorization) with validated dimensions.
///
/// # Examples
///
/// ```
/// use dynawave_numeric::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b).unwrap();
/// assert_eq!(c[(1, 0)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows
            .checked_mul(cols)
            // dynalint:allow(D001) -- documented panic: overflowing usize is unrecoverable
            .expect("matrix dimensions overflow usize");
        Matrix {
            rows,
            cols,
            data: vec![0.0; len],
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

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            assert_eq!(row.len(), ncols, "ragged rows in Matrix::from_rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: nrows,
            cols: ncols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, NumericError> {
        if data.len() != rows * cols {
            return Err(NumericError::DimensionMismatch {
                left: (rows, cols),
                right: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {} out of bounds ({})", r, self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {} out of bounds ({})", r, self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "col {} out of bounds ({})", c, self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Flat row-major view of the underlying storage.
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
    /// Returns [`NumericError::DimensionMismatch`] unless
    /// `self.cols() == rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, NumericError> {
        if self.cols != rhs.rows {
            return Err(NumericError::DimensionMismatch {
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                // dynalint:allow(D003) -- exact-zero skip: only bit-zero entries may be elided
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
    /// Returns [`NumericError::DimensionMismatch`] unless
    /// `self.cols() == v.len()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, NumericError> {
        if self.cols != v.len() {
            return Err(NumericError::DimensionMismatch {
                left: self.shape(),
                right: (v.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Gram matrix `selfᵀ * self`, computed without forming the transpose.
    ///
    /// Each row `r` adds `r_i · r[i..]` to row `i` of the upper triangle,
    /// skipping exact-zero `r_i`, so every entry sums its products in row
    /// order.
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut g = Matrix::zeros(n, n);
        for row in self.data.chunks_exact(n.max(1)).take(self.rows) {
            for (i, (&ri, g_row)) in row
                .iter()
                .zip(g.data.chunks_exact_mut(n.max(1)))
                .enumerate()
            {
                // dynalint:allow(D003) -- exact-zero skip: only bit-zero entries may be elided
                if ri == 0.0 {
                    continue;
                }
                for (gij, &rj) in g_row[i..].iter_mut().zip(&row[i..]) {
                    *gij += ri * rj;
                }
            }
        }
        // Mirror the upper triangle.
        for i in 0..n {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// Cholesky factorization of a symmetric positive-definite matrix.
    ///
    /// Returns lower-triangular `L` with `L * Lᵀ == self`.
    ///
    /// Row `i` keeps one accumulator per entry `l_ij`. As soon as `l_ij`
    /// is final it is subtracted, times column `j` of `L`, from every
    /// later accumulator of the row, so each entry sees the subtractions
    /// `l_ik · l_jk` for `k = 0, 1, …, j−1` in that order.
    ///
    /// # Errors
    ///
    /// [`NumericError::NotSquare`] if the matrix is not square and
    /// [`NumericError::Singular`] if it is not (numerically) positive
    /// definite.
    pub fn cholesky(&self) -> Result<Matrix, NumericError> {
        if self.rows != self.cols {
            return Err(NumericError::NotSquare {
                shape: self.shape(),
            });
        }
        let n = self.rows;
        // Column-major L: `cols[j * n + m]` is `l_mj`, so column `j` of L
        // is contiguous for the accumulator update.
        let mut cols = vec![0.0; n * n];
        let mut acc = vec![0.0; n];
        for (i, a_row) in self.data.chunks_exact(n.max(1)).take(n).enumerate() {
            acc.copy_from_slice(a_row);
            for j in 0..=i {
                let (col_j, _) = cols.split_at_mut((j + 1) * n);
                let col_j = &mut col_j[j * n..];
                let sum = acc[j];
                let l_ij = if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(NumericError::Singular);
                    }
                    sum.sqrt()
                } else {
                    sum / col_j[j]
                };
                col_j[i] = l_ij;
                for (a, &l_mj) in acc[j + 1..=i].iter_mut().zip(&col_j[j + 1..=i]) {
                    *a -= l_ij * l_mj;
                }
            }
        }
        let mut l = Matrix::zeros(n, n);
        for (j, col) in cols.chunks_exact(n.max(1)).take(n).enumerate() {
            for (m, &v) in col.iter().enumerate().skip(j) {
                l.data[m * n + j] = v;
            }
        }
        Ok(l)
    }

    /// LU factorization with partial pivoting.
    ///
    /// Returns `(lu, perm)` where `lu` packs both factors and `perm` is the
    /// row permutation. Intended to be consumed by
    /// [`solve::lu_solve`](crate::solve::lu_solve).
    ///
    /// # Errors
    ///
    /// [`NumericError::NotSquare`] or [`NumericError::Singular`].
    pub fn lu(&self) -> Result<(Matrix, Vec<usize>), NumericError> {
        if self.rows != self.cols {
            return Err(NumericError::NotSquare {
                shape: self.shape(),
            });
        }
        let n = self.rows;
        let mut lu = self.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for col in 0..n {
            // Pivot selection.
            let mut pivot = col;
            let mut max = lu[(col, col)].abs();
            for r in (col + 1)..n {
                let v = lu[(r, col)].abs();
                if v > max {
                    max = v;
                    pivot = r;
                }
            }
            if max < 1e-300 || !max.is_finite() {
                return Err(NumericError::Singular);
            }
            if pivot != col {
                perm.swap(pivot, col);
                for c in 0..n {
                    let a = lu[(pivot, c)];
                    let b = lu[(col, c)];
                    lu[(pivot, c)] = b;
                    lu[(col, c)] = a;
                }
            }
            let d = lu[(col, col)];
            for r in (col + 1)..n {
                let f = lu[(r, col)] / d;
                lu[(r, col)] = f;
                for c in (col + 1)..n {
                    let upd = lu[(col, c)] * f;
                    lu[(r, c)] -= upd;
                }
            }
        }
        Ok((lu, perm))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Applies `f` element-wise, returning a new matrix.
    pub fn map<F: Fn(f64) -> f64>(&self, f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|v| v * s)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics on shape mismatch.
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix addition shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics on shape mismatch.
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "matrix subtraction shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        self.scale(s)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:10.4}", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dynawave_testkit::{check, Rng};

    /// `Matrix::gram` as it was before the row-slice kernel: the oracle
    /// the kernel must match bit for bit.
    fn gram_oracle(a: &Matrix) -> Matrix {
        let mut g = Matrix::zeros(a.cols, a.cols);
        for r in 0..a.rows {
            let row = a.row(r);
            for i in 0..a.cols {
                let ri = row[i];
                if ri == 0.0 {
                    continue;
                }
                for j in i..a.cols {
                    g[(i, j)] += ri * row[j];
                }
            }
        }
        for i in 0..a.cols {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// `Matrix::cholesky` as it was before the column accumulators: the
    /// oracle the kernel must match bit for bit.
    fn cholesky_oracle(a: &Matrix) -> Result<Matrix, NumericError> {
        let n = a.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(NumericError::Singular);
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    /// An entry that is often an exact `+0.0` or `-0.0`, so kernels that
    /// skip zeros take both branches.
    pub(crate) fn entry(rng: &mut Rng) -> f64 {
        match rng.range_usize(0, 4) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.range_f64(-2.0, 2.0),
        }
    }

    /// A `rows x cols` matrix as `(row-major entries, cols)`.
    pub(crate) fn matrix_case(rng: &mut Rng) -> (Vec<f64>, usize) {
        let cols = rng.range_usize(1, 13);
        let rows = rng.range_usize(1, 31);
        ((0..rows * cols).map(|_| entry(rng)).collect(), cols)
    }

    /// Rebuilds the matrix of a (possibly shrunk) case; `None` when empty.
    pub(crate) fn case_matrix((data, cols): &(Vec<f64>, usize)) -> Option<Matrix> {
        let rows = data.len() / (*cols).max(1);
        if rows == 0 || *cols == 0 {
            return None;
        }
        Matrix::from_vec(rows, *cols, data[..rows * cols].to_vec()).ok()
    }

    pub(crate) fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn gram_matches_the_oracle_bit_for_bit() {
        check("gram == oracle").cases(256).run(matrix_case, |case| {
            let Some(a) = case_matrix(case) else {
                return Ok(());
            };
            let (got, want) = (a.gram(), gram_oracle(&a));
            if !same_bits(got.as_slice(), want.as_slice()) {
                return Err(format!("gram {got:?} != oracle {want:?}"));
            }
            Ok(())
        });
    }

    #[test]
    fn cholesky_matches_the_oracle_bit_for_bit() {
        // Gram matrices plus a ridge of 0, tiny or unit size: positive
        // definite, semi-definite and indefinite-by-rounding inputs alike.
        check("cholesky == oracle")
            .cases(256)
            .run(matrix_case, |case| {
                let Some(a) = case_matrix(case) else {
                    return Ok(());
                };
                for ridge in [0.0, 1e-12, 1.0] {
                    let mut g = a.gram();
                    for i in 0..g.rows() {
                        g[(i, i)] += ridge;
                    }
                    let same = match (g.cholesky(), cholesky_oracle(&g)) {
                        (Ok(l), Ok(o)) => same_bits(l.as_slice(), o.as_slice()),
                        (got, want) => got == want,
                    };
                    if !same {
                        return Err(format!("ridge {ridge}: cholesky differs from the oracle"));
                    }
                }
                Ok(())
            });
    }

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
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1.0; 3]),
            Err(NumericError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(NumericError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5]]);
        let v = [3.0, 4.0];
        let got = a.matvec(&v).unwrap();
        assert_eq!(got, vec![-1.0, 8.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn gram_equals_explicit_transpose_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let explicit = a.transpose().matmul(&a).unwrap();
        let gram = a.gram();
        assert!((&explicit - &gram).frobenius_norm() < 1e-12);
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let l = a.cholesky().unwrap();
        let back = l.matmul(&l.transpose()).unwrap();
        assert!((&a - &back).frobenius_norm() < 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert_eq!(a.cholesky().unwrap_err(), NumericError::Singular);
    }

    #[test]
    fn cholesky_rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(a.cholesky(), Err(NumericError::NotSquare { .. })));
    }

    #[test]
    fn lu_detects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(a.lu().unwrap_err(), NumericError::Singular);
    }

    #[test]
    fn display_is_nonempty() {
        let a = Matrix::identity(2);
        assert!(!format!("{a}").is_empty());
    }
}
