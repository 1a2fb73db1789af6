//! Linear solvers built on the factorizations in [`Matrix`].
//!
//! Every solver consults the deterministic fault-injection hook
//! ([`crate::fault`]) on entry. The hook is inert in production — only the
//! chaos test harness installs a [`crate::fault::FaultPlan`] — but it lets
//! tests force `Singular`, non-finite and early-termination failures at
//! exactly these sites to exercise the recovery ladder above.

use crate::fault::{self, FaultKind, FaultSite};
use crate::{Matrix, NumericError};

/// Resolves an injected fault at a solver site into the solver's
/// failure behavior: `Singular`/`EarlyStop` become errors, `NonFinite`
/// silently yields a NaN solution of length `n` (the caller must
/// sanitize — that is the point of injecting it).
fn injected_outcome(kind: FaultKind, n: usize) -> Result<Vec<f64>, NumericError> {
    match kind {
        FaultKind::Singular => Err(NumericError::Singular),
        FaultKind::EarlyStop => Err(NumericError::Empty),
        FaultKind::NonFinite => Ok(vec![f64::NAN; n]),
    }
}

/// Solves `A x = b` via LU factorization with partial pivoting.
///
/// # Errors
///
/// Propagates [`NumericError::NotSquare`] / [`NumericError::Singular`] from
/// the factorization, and [`NumericError::DimensionMismatch`] if `b` has the
/// wrong length.
///
/// # Examples
///
/// ```
/// use dynawave_numeric::{Matrix, solve};
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
/// let x = solve::lu_solve(&a, &[3.0, 5.0]).unwrap();
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// ```
pub fn lu_solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, NumericError> {
    if let Some(kind) = fault::inject(FaultSite::LuSolve) {
        return injected_outcome(kind, b.len());
    }
    if a.rows() != b.len() {
        return Err(NumericError::DimensionMismatch {
            left: a.shape(),
            right: (b.len(), 1),
        });
    }
    let (lu, perm) = a.lu()?;
    let n = b.len();
    // Apply permutation, then forward substitution (L has implicit unit diagonal).
    let mut y: Vec<f64> = perm.iter().map(|&p| b[p]).collect(); // dynalint:allow(D010) -- `perm` permutes 0..n and n == b.len()
    for i in 0..n {
        for k in 0..i {
            y[i] -= lu[(i, k)] * y[k];
        }
    }
    // Backward substitution with U.
    let mut x = y;
    for i in (0..n).rev() {
        for k in (i + 1)..n {
            x[i] -= lu[(i, k)] * x[k];
        }
        x[i] /= lu[(i, i)];
    }
    Ok(x)
}

/// Solves `A x = b` for symmetric positive-definite `A` via Cholesky.
///
/// # Errors
///
/// Propagates factorization errors; [`NumericError::DimensionMismatch`] if
/// `b` has the wrong length.
pub fn cholesky_solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, NumericError> {
    if let Some(kind) = fault::inject(FaultSite::CholeskySolve) {
        return injected_outcome(kind, b.len());
    }
    if a.rows() != b.len() {
        return Err(NumericError::DimensionMismatch {
            left: a.shape(),
            right: (b.len(), 1),
        });
    }
    let l = a.cholesky()?;
    let n = b.len();
    // Forward: L y = b.
    let mut y = b.to_vec();
    for i in 0..n {
        for k in 0..i {
            y[i] -= l[(i, k)] * y[k];
        }
        y[i] /= l[(i, i)];
    }
    // Backward: Lᵀ x = y.
    let mut x = y;
    for i in (0..n).rev() {
        for k in (i + 1)..n {
            x[i] -= l[(k, i)] * x[k];
        }
        x[i] /= l[(i, i)];
    }
    Ok(x)
}

/// Ridge (Tikhonov-regularized) least squares:
/// `w = (XᵀX + λI)⁻¹ Xᵀ y`.
///
/// This is the output-weight fit used by the RBF networks: `x` is the
/// `n_samples x n_features` design matrix, `y` the targets and `lambda >= 0`
/// the regularization strength. With `lambda == 0` this degenerates to
/// ordinary least squares and may fail on rank-deficient designs.
///
/// # Errors
///
/// [`NumericError::DimensionMismatch`] if `y.len() != x.rows()`;
/// [`NumericError::Singular`] if the regularized normal matrix is not
/// positive definite; [`NumericError::Empty`] for an empty design.
pub fn ridge_regression(x: &Matrix, y: &[f64], lambda: f64) -> Result<Vec<f64>, NumericError> {
    if let Some(kind) = fault::inject(FaultSite::RidgeSolve) {
        return injected_outcome(kind, x.cols());
    }
    if x.rows() == 0 || x.cols() == 0 {
        return Err(NumericError::Empty);
    }
    if x.rows() != y.len() {
        return Err(NumericError::DimensionMismatch {
            left: x.shape(),
            right: (y.len(), 1),
        });
    }
    let mut gram = x.gram();
    for i in 0..gram.rows() {
        gram[(i, i)] += lambda;
    }
    let xty = transpose_times(x, y);
    // Cholesky is the fast path; fall back to LU when lambda == 0 leaves the
    // normal matrix only semi-definite.
    match cholesky_solve(&gram, &xty) {
        Ok(w) => Ok(w),
        Err(NumericError::Singular) => lu_solve(&gram, &xty),
        Err(e) => Err(e),
    }
}

/// `Xᵀ y`, accumulated one row of `x` at a time. Each entry starts at
/// `-0.0` and adds `x_rc · y_r` in row order, exactly as
/// `x.transpose().matvec(y)` sums it, without forming the transpose.
/// The caller guarantees `y.len() == x.rows()`.
fn transpose_times(x: &Matrix, y: &[f64]) -> Vec<f64> {
    let mut acc = vec![-0.0; x.cols()];
    for (row, &yr) in x.as_slice().chunks_exact(x.cols().max(1)).zip(y) {
        for (a, &v) in acc.iter_mut().zip(row) {
            *a += v * yr;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::tests::{case_matrix, entry, matrix_case, same_bits};
    use dynawave_testkit::check;

    #[test]
    fn transpose_times_matches_transpose_matvec_bit_for_bit() {
        check("Xᵀy == x.transpose().matvec(y)").cases(256).run(
            |rng: &mut dynawave_testkit::Rng| {
                let (data, cols) = matrix_case(rng);
                let y = (0..data.len() / cols).map(|_| entry(rng)).collect();
                ((data, cols), y)
            },
            |(case, y): &((Vec<f64>, usize), Vec<f64>)| {
                let Some(x) = case_matrix(case) else {
                    return Ok(());
                };
                if y.len() < x.rows() {
                    return Ok(());
                }
                let y = &y[..x.rows()];
                let (got, want) = (transpose_times(&x, y), x.transpose().matvec(y).unwrap());
                if !same_bits(&got, &want) {
                    return Err(format!("{got:?} != {want:?}"));
                }
                Ok(())
            },
        );
    }

    #[test]
    fn transpose_times_keeps_the_sign_of_an_all_negative_zero_sum() {
        let x = Matrix::from_rows(&[&[-0.0, 1.0], &[0.0, 2.0]]);
        let got = transpose_times(&x, &[1.0, -0.0]);
        let want = x.transpose().matvec(&[1.0, -0.0]).unwrap();
        assert!(same_bits(&got, &want), "{got:?} vs {want:?}");
        assert!(got[0].is_sign_negative());
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn lu_solve_3x3() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, 1.0], &[1.0, 3.0, 2.0], &[1.0, 0.0, 0.0]]);
        let x_true = [1.0, -2.0, 3.0];
        let b = a.matvec(&x_true).unwrap();
        let x = lu_solve(&a, &b).unwrap();
        assert_close(&x, &x_true, 1e-12);
    }

    #[test]
    fn lu_solve_needs_pivoting() {
        // Zero on the diagonal forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = lu_solve(&a, &[2.0, 5.0]).unwrap();
        assert_close(&x, &[5.0, 2.0], 1e-12);
    }

    #[test]
    fn cholesky_solve_spd() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let x_true = [0.5, -1.5];
        let b = a.matvec(&x_true).unwrap();
        let x = cholesky_solve(&a, &b).unwrap();
        assert_close(&x, &x_true, 1e-12);
    }

    #[test]
    fn ridge_shrinks_towards_zero() {
        let x = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let y = [2.0, 4.0, 6.0];
        let w0 = ridge_regression(&x, &y, 0.0).unwrap();
        let w_big = ridge_regression(&x, &y, 100.0).unwrap();
        assert!((w0[0] - 2.0).abs() < 1e-9);
        assert!(w_big[0] < w0[0]);
        assert!(w_big[0] > 0.0);
    }

    #[test]
    fn ridge_handles_rank_deficiency_with_lambda() {
        // Duplicate column: XtX is singular, but lambda fixes it.
        let x = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let y = [2.0, 4.0, 6.0];
        let w = ridge_regression(&x, &y, 1e-6).unwrap();
        // Symmetry: both columns carry equal weight.
        assert!((w[0] - w[1]).abs() < 1e-6);
        assert!((w[0] + w[1] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn mismatched_target_length_errors() {
        let x = Matrix::zeros(3, 2);
        assert!(matches!(
            ridge_regression(&x, &[1.0, 2.0], 0.1),
            Err(NumericError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn empty_design_errors() {
        let x = Matrix::zeros(0, 0);
        assert!(matches!(
            ridge_regression(&x, &[], 0.1),
            Err(NumericError::Empty)
        ));
    }

    #[test]
    fn injected_cholesky_fault_falls_back_to_lu_inside_ridge() {
        use crate::fault::{with_plan, FaultKind, FaultPlan, FaultSite};
        let x = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let y = [2.0, 4.0, 6.0];
        // Faulting only the Cholesky path exercises ridge's existing
        // Singular → LU fallback: the overall solve still succeeds.
        let plan = FaultPlan::new(11)
            .rate(1.0)
            .targeting(&[FaultSite::CholeskySolve])
            .kinds(&[FaultKind::Singular]);
        let (w, report) = with_plan(plan, || ridge_regression(&x, &y, 1e-9).unwrap());
        assert!((w[0] - 2.0).abs() < 1e-6);
        assert_eq!(report.fired, 1);
    }

    #[test]
    fn injected_ridge_faults_cover_all_kinds() {
        use crate::fault::{with_plan, FaultKind, FaultPlan, FaultSite};
        let x = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let y = [1.0, 2.0];
        for (kind, check) in [
            (
                FaultKind::Singular,
                Box::new(|r: Result<Vec<f64>, NumericError>| {
                    matches!(r, Err(NumericError::Singular))
                }) as Box<dyn Fn(Result<Vec<f64>, NumericError>) -> bool>,
            ),
            (
                FaultKind::EarlyStop,
                Box::new(|r| matches!(r, Err(NumericError::Empty))),
            ),
            (
                FaultKind::NonFinite,
                Box::new(|r| matches!(r, Ok(w) if w.iter().all(|v| v.is_nan()))),
            ),
        ] {
            let plan = FaultPlan::new(13)
                .rate(1.0)
                .targeting(&[FaultSite::RidgeSolve])
                .kinds(&[kind]);
            let (r, report) = with_plan(plan, || ridge_regression(&x, &y, 1e-6));
            assert!(check(r), "unexpected outcome for {}", kind.name());
            assert_eq!(report.fired, 1);
        }
    }
}
