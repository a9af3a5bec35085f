//! Preconditioned conjugate-gradient solver for the matrix-free SEM
//! operators (the paper's "Helmholtz and Poisson iterative solvers ... based
//! on conjugate gradient method").
//!
//! Vector primitives are the serial [`nkg_simd`] kernels: the vectors are
//! condensed boundary unknowns (of the order of 10³ entries), far below
//! the length at which a fork pays, so the iteration history cannot
//! depend on the thread count.

use nkg_simd::{axpy, dot, xpby};

/// Outcome of a CG solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgResult {
    /// Iterations performed.
    pub iterations: usize,
    /// Final residual 2-norm.
    pub residual: f64,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// True when the iteration stopped because `pᵀAp ≤ 0`: the operator
    /// (or preconditioner) is not SPD on the Krylov subspace, or round-off
    /// destroyed the search direction. The residual reported alongside is
    /// the last *valid* one, so `converged: false, breakdown: true` must
    /// never be read as "ran out of iterations".
    pub breakdown: bool,
}

/// Reusable buffers for [`pcg_ws`]: four length-`n` vectors that would
/// otherwise be reallocated on every solve. A persistent solver object
/// (see [`crate::precon::EllipticSolver`]) keeps one of these alive so the
/// time-stepping hot loop performs zero heap allocation.
#[derive(Debug, Default, Clone)]
pub struct CgWorkspace {
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
}

impl CgWorkspace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow (never shrink) the buffers to length `n`.
    fn ensure(&mut self, n: usize) {
        if self.r.len() < n {
            self.r.resize(n, 0.0);
            self.z.resize(n, 0.0);
            self.p.resize(n, 0.0);
            self.ap.resize(n, 0.0);
        }
    }
}

/// Solve `A x = b` by preconditioned CG.
///
/// * `apply` — the SPD operator: `apply(p, out)` writes `A p` into `out`;
/// * `precond` — application of `M⁻¹` (pass a copy for no preconditioning);
/// * `x` — initial guess on entry, solution on exit;
/// * convergence when `‖r‖₂ ≤ tol · max(‖b‖₂, 1e-300)`.
///
/// The caller is responsible for masking Dirichlet DoFs inside `apply` and
/// `precond` (residual components at masked DoFs must come out zero).
pub fn pcg(
    apply: impl FnMut(&[f64], &mut [f64]),
    precond: impl FnMut(&[f64], &mut [f64]),
    b: &[f64],
    x: &mut [f64],
    tol: f64,
    max_iter: usize,
) -> CgResult {
    pcg_ws(apply, precond, b, x, tol, max_iter, &mut CgWorkspace::new())
}

/// [`pcg`] with caller-provided workspace: no heap allocation when the
/// workspace buffers are already at least `b.len()` long.
#[allow(clippy::too_many_arguments)]
pub fn pcg_ws(
    apply: impl FnMut(&[f64], &mut [f64]),
    precond: impl FnMut(&[f64], &mut [f64]),
    b: &[f64],
    x: &mut [f64],
    tol: f64,
    max_iter: usize,
    ws: &mut CgWorkspace,
) -> CgResult {
    let bnorm = dot(b, b).sqrt().max(1e-300);
    pcg_until(apply, precond, b, x, tol * bnorm, max_iter, ws)
}

/// [`pcg_ws`] stopping on the absolute residual norm `‖r‖₂ ≤ threshold`,
/// for callers whose tolerance is relative to something other than `‖b‖`
/// (the condensed engine measures against the uncondensed RHS).
#[allow(clippy::too_many_arguments)]
pub(crate) fn pcg_until(
    mut apply: impl FnMut(&[f64], &mut [f64]),
    mut precond: impl FnMut(&[f64], &mut [f64]),
    b: &[f64],
    x: &mut [f64],
    threshold: f64,
    max_iter: usize,
    ws: &mut CgWorkspace,
) -> CgResult {
    let n = b.len();
    assert_eq!(x.len(), n);
    ws.ensure(n);
    let (r, z, p, ap) = (
        &mut ws.r[..n],
        &mut ws.z[..n],
        &mut ws.p[..n],
        &mut ws.ap[..n],
    );

    // r = b - A x
    apply(x, ap);
    for i in 0..n {
        r[i] = b[i] - ap[i];
    }
    let mut rnorm = dot(r, r).sqrt();
    if rnorm <= threshold {
        return CgResult {
            iterations: 0,
            residual: rnorm,
            converged: true,
            breakdown: false,
        };
    }
    precond(r, z);
    p.copy_from_slice(z);
    let mut rz = dot(r, z);
    for it in 1..=max_iter {
        apply(p, ap);
        let pap = dot(p, ap);
        if pap <= 0.0 {
            // Operator not SPD on this subspace (or round-off breakdown).
            return CgResult {
                iterations: it,
                residual: rnorm,
                converged: false,
                breakdown: true,
            };
        }
        let alpha = rz / pap;
        axpy(alpha, p, x);
        axpy(-alpha, ap, r);
        rnorm = dot(r, r).sqrt();
        if rnorm <= threshold {
            return CgResult {
                iterations: it,
                residual: rnorm,
                converged: true,
                breakdown: false,
            };
        }
        precond(r, z);
        let rz_new = dot(r, z);
        let beta = rz_new / rz;
        rz = rz_new;
        xpby(z, beta, p);
    }
    CgResult {
        iterations: max_iter,
        residual: rnorm,
        converged: false,
        breakdown: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense SPD test operator.
    fn dense_apply(a: &[Vec<f64>]) -> impl FnMut(&[f64], &mut [f64]) + '_ {
        move |x, out| {
            for (i, row) in a.iter().enumerate() {
                out[i] = row.iter().zip(x).map(|(aij, xj)| aij * xj).sum();
            }
        }
    }

    fn identity_precond(x: &[f64], out: &mut [f64]) {
        out.copy_from_slice(x);
    }

    #[test]
    fn solves_diagonal_system() {
        let a = vec![
            vec![4.0, 0.0, 0.0],
            vec![0.0, 2.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ];
        let b = vec![8.0, 4.0, 3.0];
        let mut x = vec![0.0; 3];
        let res = pcg(dense_apply(&a), identity_precond, &b, &mut x, 1e-12, 50);
        assert!(res.converged);
        assert!((x[0] - 2.0).abs() < 1e-10);
        assert!((x[1] - 2.0).abs() < 1e-10);
        assert!((x[2] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn solves_laplacian_tridiag() {
        let n = 50;
        let mut a = vec![vec![0.0; n]; n];
        for i in 0..n {
            a[i][i] = 2.0;
            if i > 0 {
                a[i][i - 1] = -1.0;
            }
            if i + 1 < n {
                a[i][i + 1] = -1.0;
            }
        }
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let res = pcg(dense_apply(&a), identity_precond, &b, &mut x, 1e-10, 500);
        assert!(res.converged, "residual {}", res.residual);
        // Check A x ≈ b.
        let mut ax = vec![0.0; n];
        dense_apply(&a)(&x, &mut ax);
        for i in 0..n {
            assert!((ax[i] - 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn jacobi_precond_reduces_iterations() {
        let n = 60;
        let mut a = vec![vec![0.0; n]; n];
        for i in 0..n {
            // Wildly varying diagonal: Jacobi shines here.
            a[i][i] = 1.0 + (i as f64) * 10.0;
            if i > 0 {
                a[i][i - 1] = -0.5;
                a[i - 1][i] = -0.5;
            }
        }
        let b = vec![1.0; n];
        let diag: Vec<f64> = (0..n).map(|i| a[i][i]).collect();
        let mut x0 = vec![0.0; n];
        let plain = pcg(dense_apply(&a), identity_precond, &b, &mut x0, 1e-10, 1000);
        let mut x1 = vec![0.0; n];
        let jac = pcg(
            dense_apply(&a),
            |r, z| {
                for i in 0..n {
                    z[i] = r[i] / diag[i];
                }
            },
            &b,
            &mut x1,
            1e-10,
            1000,
        );
        assert!(plain.converged && jac.converged);
        assert!(
            jac.iterations < plain.iterations,
            "jacobi {} vs plain {}",
            jac.iterations,
            plain.iterations
        );
    }

    #[test]
    fn zero_rhs_immediate() {
        let a = vec![vec![1.0]];
        let b = vec![0.0];
        let mut x = vec![0.0];
        let res = pcg(dense_apply(&a), identity_precond, &b, &mut x, 1e-10, 10);
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn warm_start_respected() {
        let a = vec![vec![3.0, 1.0], vec![1.0, 2.0]];
        let b = vec![5.0, 5.0];
        // Exact solution is (1, 2).
        let mut x = vec![1.0, 2.0];
        let res = pcg(dense_apply(&a), identity_precond, &b, &mut x, 1e-12, 10);
        assert_eq!(res.iterations, 0);
        assert!(res.converged);
    }

    #[test]
    fn breakdown_flagged_on_indefinite_operator() {
        // diag(1, -1) is indefinite: the first search direction along e₂
        // gives pᵀAp = -1 ≤ 0, which must be reported as a breakdown, not
        // as a mere iteration-budget failure.
        let a = vec![vec![1.0, 0.0], vec![0.0, -1.0]];
        let b = vec![0.0, 1.0];
        let mut x = vec![0.0; 2];
        let res = pcg(dense_apply(&a), identity_precond, &b, &mut x, 1e-12, 50);
        assert!(!res.converged);
        assert!(res.breakdown);
        assert_eq!(res.iterations, 1);
    }

    #[test]
    fn workspace_reuse_is_bitwise() {
        let n = 40;
        let mut a = vec![vec![0.0; n]; n];
        for i in 0..n {
            a[i][i] = 2.0;
            if i > 0 {
                a[i][i - 1] = -1.0;
                a[i - 1][i] = -1.0;
            }
        }
        let b = vec![1.0; n];
        let mut ws = CgWorkspace::new();
        let mut x0 = vec![0.0; n];
        let r0 = pcg_ws(
            dense_apply(&a),
            identity_precond,
            &b,
            &mut x0,
            1e-10,
            500,
            &mut ws,
        );
        // Second solve reuses the (now dirty) workspace: results must be
        // bitwise identical to a fresh run.
        let mut x1 = vec![0.0; n];
        let r1 = pcg_ws(
            dense_apply(&a),
            identity_precond,
            &b,
            &mut x1,
            1e-10,
            500,
            &mut ws,
        );
        assert_eq!(r0, r1);
        assert_eq!(x0, x1);
    }

    #[test]
    fn max_iter_reports_failure() {
        let n = 40;
        let mut a = vec![vec![0.0; n]; n];
        for i in 0..n {
            a[i][i] = 2.0;
            if i > 0 {
                a[i][i - 1] = -1.0;
                a[i - 1][i] = -1.0;
            }
        }
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let res = pcg(dense_apply(&a), identity_precond, &b, &mut x, 1e-14, 2);
        assert!(!res.converged);
        assert_eq!(res.iterations, 2);
    }
}
