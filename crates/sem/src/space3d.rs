//! The 3D instance of [`Space`]: hexahedral meshes and the trilinear
//! element map. Any conforming hex mesh: shared faces are matched in a
//! canonical frame, so elements may meet in any orientation, and the
//! geometry may be curvilinear through vertex mapping (e.g. the mapped
//! tube of Table 2).

use crate::space::{corner_hi, corner_of, Cell, Dim, Space};
use nkg_mesh::hex::HexMesh;

/// A scalar CG-SEM function space of order `p` on a hex mesh.
pub type Space3d = Space<3>;

impl Cell<3> for Dim<3> {
    type Mesh = HexMesh;
    const NAME: &'static str = "space3d";

    /// Column `b` sums the four edges along axis `b`, in the vertex order
    /// of their `−1` ends, each weighted by the bilinear hat of the other
    /// two axes.
    fn jacobian(vc: &[[f64; 3]], r: [f64; 3]) -> [[f64; 3]; 3] {
        let mut jac = [[0.0f64; 3]; 3];
        for b in 0..3 {
            let (o1, o2) = ((b + 1) % 3, (b + 2) % 3);
            for lo in (0..8).filter(|&c| !corner_hi::<3>(c)[b]) {
                let s = corner_hi::<3>(lo).map(|h| if h { 1.0 } else { -1.0 });
                let mut far = corner_hi::<3>(lo);
                far[b] = true;
                let hi = corner_of(far);
                let wgt = 0.125 * (1.0 + s[o1] * r[o1]) * (1.0 + s[o2] * r[o2]);
                for c in 0..3 {
                    jac[c][b] += wgt * (vc[hi][c] - vc[lo][c]);
                }
            }
        }
        jac
    }

    /// The adjugate over the cofactor-expanded determinant.
    fn invert(jac: &[[f64; 3]; 3]) -> (f64, [[f64; 3]; 3]) {
        let det = jac[0][0] * (jac[1][1] * jac[2][2] - jac[1][2] * jac[2][1])
            - jac[0][1] * (jac[1][0] * jac[2][2] - jac[1][2] * jac[2][0])
            + jac[0][2] * (jac[1][0] * jac[2][1] - jac[1][1] * jac[2][0]);
        // inv[a][b] = ∂ξ_a/∂x_b = adj(jac)ᵀ / det.
        let mut inv = [[0.0f64; 3]; 3];
        inv[0][0] = (jac[1][1] * jac[2][2] - jac[1][2] * jac[2][1]) / det;
        inv[0][1] = (jac[0][2] * jac[2][1] - jac[0][1] * jac[2][2]) / det;
        inv[0][2] = (jac[0][1] * jac[1][2] - jac[0][2] * jac[1][1]) / det;
        inv[1][0] = (jac[1][2] * jac[2][0] - jac[1][0] * jac[2][2]) / det;
        inv[1][1] = (jac[0][0] * jac[2][2] - jac[0][2] * jac[2][0]) / det;
        inv[1][2] = (jac[0][2] * jac[1][0] - jac[0][0] * jac[1][2]) / det;
        inv[2][0] = (jac[1][0] * jac[2][1] - jac[1][1] * jac[2][0]) / det;
        inv[2][1] = (jac[0][1] * jac[2][0] - jac[0][0] * jac[2][1]) / det;
        inv[2][2] = (jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]) / det;
        (det, inv)
    }
}

impl Space3d {
    /// Nodal interpolation of a function.
    pub fn project(&self, f: impl Fn(f64, f64, f64) -> f64) -> Vec<f64> {
        self.project_at(|&[x, y, z]| f(x, y, z))
    }

    /// Weak right-hand side `(v, f)`.
    pub fn weak_rhs(&self, f: impl Fn(f64, f64, f64) -> f64) -> Vec<f64> {
        self.weak_rhs_at(|&[x, y, z]| f(x, y, z))
    }

    /// L2 error of a nodal field against a function.
    pub fn l2_error(&self, u: &[f64], exact: impl Fn(f64, f64, f64) -> f64) -> f64 {
        self.l2_error_at(u, |&[x, y, z]| exact(x, y, z))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn box_space(nx: usize, ny: usize, nz: usize, p: usize) -> Space3d {
        let mesh = HexMesh::box_mesh(nx, ny, nz, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        Space3d::new(mesh, p, false)
    }

    #[test]
    fn dof_count_structured() {
        let s = box_space(2, 2, 1, 3);
        assert_eq!(s.nglobal, 7 * 7 * 4);
    }

    #[test]
    fn volume_integration() {
        let s = box_space(2, 1, 1, 4);
        let one = vec![1.0; s.nglobal];
        assert!((s.integrate(&one) - 1.0).abs() < 1e-12);
        // ∫ xyz over unit cube = 1/8.
        let u = s.project(|x, y, z| x * y * z);
        assert!((s.integrate(&u) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn gradient_exact_for_polynomials() {
        let s = box_space(2, 2, 2, 4);
        let u = s.project(|x, y, z| x * x + y * z);
        let g = s.gradient(&u);
        for (i, &[x, y, z]) in s.coords.iter().enumerate() {
            assert!((g[0][i] - 2.0 * x).abs() < 1e-9);
            assert!((g[1][i] - z).abs() < 1e-9);
            assert!((g[2][i] - y).abs() < 1e-9);
        }
    }

    #[test]
    fn operator_symmetric_and_kills_constants() {
        let s = box_space(2, 1, 1, 3);
        let n = s.nglobal;
        let one = vec![1.0; n];
        let mut a1 = vec![0.0; n];
        s.apply_helmholtz(0.0, &one, &mut a1);
        assert!(a1.iter().all(|x| x.abs() < 1e-10));
        let u: Vec<f64> = (0..n).map(|i| ((i * 3 + 1) % 7) as f64).collect();
        let v: Vec<f64> = (0..n).map(|i| ((i * 5 + 2) % 9) as f64).collect();
        let mut au = vec![0.0; n];
        let mut av = vec![0.0; n];
        s.apply_helmholtz(1.0, &u, &mut au);
        s.apply_helmholtz(1.0, &v, &mut av);
        let vau: f64 = v.iter().zip(&au).map(|(a, b)| a * b).sum();
        let uav: f64 = u.iter().zip(&av).map(|(a, b)| a * b).sum();
        assert!((vau - uav).abs() < 1e-8 * vau.abs().max(1.0));
    }

    #[test]
    fn poisson_3d_manufactured() {
        let pi = std::f64::consts::PI;
        let exact = move |x: f64, y: f64, z: f64| (pi * x).sin() * (pi * y).sin() * (pi * z).sin();
        let s = box_space(2, 2, 2, 5);
        let rhs = s.weak_rhs(|x, y, z| 3.0 * pi * pi * exact(x, y, z));
        let bnd = s.boundary_dofs(|_| true);
        let zeros = vec![0.0; bnd.len()];
        let (u, res) = s.solve_helmholtz(0.0, &rhs, &bnd, &zeros, 1e-11, 4000);
        assert!(res.converged);
        let err = s.l2_error(&u, exact);
        assert!(err < 5e-4, "L2 error {err}");
    }

    #[test]
    fn poisson_3d_p_convergence() {
        let pi = std::f64::consts::PI;
        let exact = move |x: f64, y: f64, z: f64| (pi * x).sin() * (pi * y).sin() * (pi * z).sin();
        let mut errs = Vec::new();
        for p in [2usize, 4, 6] {
            let s = box_space(1, 1, 1, p);
            let rhs = s.weak_rhs(|x, y, z| 3.0 * pi * pi * exact(x, y, z));
            let bnd = s.boundary_dofs(|_| true);
            let zeros = vec![0.0; bnd.len()];
            let (u, res) = s.solve_helmholtz(0.0, &rhs, &bnd, &zeros, 1e-12, 4000);
            assert!(res.converged);
            errs.push(s.l2_error(&u, exact));
        }
        for w in errs.windows(2) {
            assert!(w[1] < w[0] / 5.0, "not spectral: {errs:?}");
        }
    }

    /// Full solve reproducibility: the CG iteration history (and thus the
    /// solution bits) must not depend on the thread count.
    #[test]
    fn solve_reproducible_across_thread_counts() {
        let pi = std::f64::consts::PI;
        let exact = move |x: f64, y: f64, z: f64| (pi * x).sin() * (pi * y).sin() * (pi * z).sin();
        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| {
                    let s = box_space(2, 2, 2, 4);
                    let rhs = s.weak_rhs(|x, y, z| 3.0 * pi * pi * exact(x, y, z));
                    let bnd = s.boundary_dofs(|_| true);
                    let zeros = vec![0.0; bnd.len()];
                    s.solve_helmholtz(0.0, &rhs, &bnd, &zeros, 1e-10, 2000)
                })
        };
        let (u2, r2) = run(2);
        let (u8, r8) = run(8);
        assert!(r2.converged && r8.converged);
        assert_eq!(r2.iterations, r8.iterations);
        assert!(u2.iter().zip(&u8).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn periodic_x_merges() {
        let mesh = HexMesh::box_mesh(2, 1, 1, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        let plain = Space3d::new(mesh.clone(), 2, false);
        let per = Space3d::new(mesh, 2, true);
        assert_eq!(plain.nglobal - per.nglobal, 3 * 3);
    }

    #[test]
    fn mapped_tube_volume_positive() {
        let mesh = HexMesh::tube(3, 3, 1.0, 5.0);
        let s = Space3d::new(mesh, 3, false);
        let vol = s.integrate(&vec![1.0; s.nglobal]);
        // The square-to-disc map covers most of the π r² l = 15.7 cylinder.
        assert!(vol > 10.0 && vol < 16.0, "tube volume {vol}");
    }
}
