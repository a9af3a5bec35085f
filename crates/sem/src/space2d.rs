//! The 2D instance of [`Space`]: quadrilateral meshes, the bilinear
//! element map, and point location (Newton inversion of that map) for
//! interpolation at arbitrary points.

use crate::basis::lagrange_at;
use crate::space::{Cell, Dim, Space};
use nkg_mesh::quad::QuadMesh;

/// A scalar CG-SEM function space of order `p` on a quad mesh.
pub type Space2d = Space<2>;

impl Cell<2> for Dim<2> {
    type Mesh = QuadMesh;
    const NAME: &'static str = "space2d";

    fn jacobian(vc: &[[f64; 2]], [xi, eta]: [f64; 2]) -> [[f64; 2]; 2] {
        // The two ξ-edges (η = ∓1), then the two η-edges (ξ = ∓1).
        let edge = |a: usize, b: usize, c: usize| vc[a][c] - vc[b][c];
        let d_xi = |c| 0.25 * ((1.0 - eta) * edge(1, 0, c) + (1.0 + eta) * edge(2, 3, c));
        let d_eta = |c| 0.25 * ((1.0 - xi) * edge(3, 0, c) + (1.0 + xi) * edge(2, 1, c));
        [[d_xi(0), d_eta(0)], [d_xi(1), d_eta(1)]]
    }

    fn invert(j: &[[f64; 2]; 2]) -> (f64, [[f64; 2]; 2]) {
        let det = j[0][0] * j[1][1] - j[0][1] * j[1][0];
        let (a, b, c, d) = (j[0][0] / det, j[0][1] / det, j[1][0] / det, j[1][1] / det);
        (det, [[d, -b], [-c, a]])
    }
}

impl Space2d {
    /// Interpolate a function onto the global DoFs (nodal projection).
    pub fn project(&self, f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
        self.project_at(|&[x, y]| f(x, y))
    }

    /// Weak right-hand side `(v, f)` for all test functions.
    pub fn weak_rhs(&self, f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
        self.weak_rhs_at(|&[x, y]| f(x, y))
    }

    /// L2 norm of the difference between a nodal field and a function.
    pub fn l2_error(&self, u: &[f64], exact: impl Fn(f64, f64) -> f64) -> f64 {
        self.l2_error_at(u, |&[x, y]| exact(x, y))
    }

    /// Locate the element containing a physical point: an O(elements)
    /// linear scan with Newton inversion of each bilinear map, returning
    /// `(element, ξ, η)` for the *first* containing element (the tie-break
    /// every interpolation path shares). `None` if the point lies outside
    /// the mesh (with tolerance `1e-8`).
    pub fn locate(&self, x: f64, y: f64) -> Option<(usize, f64, f64)> {
        for (e, verts) in self.mesh.elems.iter().enumerate() {
            let vs = verts.map(|v| self.mesh.coords[v]);
            if let Some((xi, eta)) = invert_bilinear(&vs, x, y) {
                return Some((e, xi, eta));
            }
        }
        None
    }

    /// Append the `(P+1)²` tensor-product Lagrange weights at reference
    /// point `(ξ, η)` to `out`, in local-node order `k = j·(P+1) + i`:
    /// `w[k] = lj[j] · li[i]`. A field evaluation is then the dot product
    /// of this row with the element's nodal values — bitwise the inner
    /// loop of [`Space2d::eval_at`].
    pub fn interp_weights_into(&self, xi: f64, eta: f64, out: &mut Vec<f64>) {
        let n = self.basis.n();
        let li = lagrange_at(&self.basis.points, xi);
        let lj = lagrange_at(&self.basis.points, eta);
        out.reserve(n * n);
        for j in 0..n {
            for i in 0..n {
                out.push(lj[j] * li[i]);
            }
        }
    }

    /// Evaluate a global field at an arbitrary physical point by locating
    /// the containing element (Newton inversion of the bilinear map) and
    /// interpolating with the tensor Lagrange basis. Returns `None` if the
    /// point lies outside the mesh (with tolerance `1e-8`).
    ///
    /// For static point sets evaluated repeatedly, precompute an
    /// [`crate::interp::InterpTable`] instead — bitwise the same result
    /// without the per-call element scan and weight allocation.
    pub fn eval_at(&self, u: &[f64], x: f64, y: f64) -> Option<f64> {
        let (e, xi, eta) = self.locate(x, y)?;
        let mut w = Vec::new();
        self.interp_weights_into(xi, eta, &mut w);
        let mut val = 0.0;
        for (wk, &g) in w.iter().zip(&self.gmap[e]) {
            val += wk * u[g];
        }
        Some(val)
    }
}

/// Newton inversion of the bilinear map; returns reference coordinates when
/// the point is inside (|ξ|,|η| ≤ 1 + 1e-8). Inlined into `locate`'s scan:
/// as an out-of-line call it doubles the cost of locating a point.
#[inline(always)]
fn invert_bilinear(vc: &[[f64; 2]], x: f64, y: f64) -> Option<(f64, f64)> {
    // Quick reject by bounding box.
    let (mut lo, mut hi) = ([f64::MAX; 2], [f64::MIN; 2]);
    for p in vc {
        for d in 0..2 {
            lo[d] = lo[d].min(p[d]);
            hi[d] = hi[d].max(p[d]);
        }
    }
    let pad = 1e-8 * ((hi[0] - lo[0]) + (hi[1] - lo[1])).max(1e-12);
    if x < lo[0] - pad || x > hi[0] + pad || y < lo[1] - pad || y > hi[1] + pad {
        return None;
    }
    let (mut xi, mut eta) = (0.0f64, 0.0f64);
    for _ in 0..30 {
        let nfun = [
            0.25 * (1.0 - xi) * (1.0 - eta),
            0.25 * (1.0 + xi) * (1.0 - eta),
            0.25 * (1.0 + xi) * (1.0 + eta),
            0.25 * (1.0 - xi) * (1.0 + eta),
        ];
        let dxi = [
            -0.25 * (1.0 - eta),
            0.25 * (1.0 - eta),
            0.25 * (1.0 + eta),
            -0.25 * (1.0 + eta),
        ];
        let deta = [
            -0.25 * (1.0 - xi),
            -0.25 * (1.0 + xi),
            0.25 * (1.0 + xi),
            0.25 * (1.0 - xi),
        ];
        let (mut fx, mut fy) = (-x, -y);
        let (mut a11, mut a12, mut a21, mut a22) = (0.0, 0.0, 0.0, 0.0);
        for a in 0..4 {
            fx += nfun[a] * vc[a][0];
            fy += nfun[a] * vc[a][1];
            a11 += dxi[a] * vc[a][0];
            a12 += deta[a] * vc[a][0];
            a21 += dxi[a] * vc[a][1];
            a22 += deta[a] * vc[a][1];
        }
        let det = a11 * a22 - a12 * a21;
        if det.abs() < 1e-30 {
            return None;
        }
        let dxi_step = (fx * a22 - fy * a12) / det;
        let deta_step = (fy * a11 - fx * a21) / det;
        xi -= dxi_step;
        eta -= deta_step;
        if dxi_step.abs() + deta_step.abs() < 1e-13 {
            break;
        }
    }
    if xi.abs() <= 1.0 + 1e-8 && eta.abs() <= 1.0 + 1e-8 {
        Some((xi.clamp(-1.0, 1.0), eta.clamp(-1.0, 1.0)))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precon::{ApplyScratch, EllipticSpace};
    use crate::space::sym;
    use crate::space3d::Space3d;
    use nkg_mesh::hex::HexMesh;
    use nkg_mesh::quad::BoundaryTag;

    fn channel(nx: usize, ny: usize, p: usize) -> Space2d {
        let mesh = QuadMesh::rectangle(nx, ny, 0.0, 2.0, 0.0, 1.0);
        Space2d::new(mesh, p, false)
    }

    /// A 2×2 mesh of rectangles (`mapped = false`) or of general
    /// quadrilaterals with a varying Jacobian and a non-zero cross metric;
    /// in 3D a 2×2×2 box or a tube whose map curves every element.
    fn patch(p: usize, mapped: bool) -> (Space2d, Space3d) {
        let mesh = QuadMesh::rectangle(2, 2, 0.0, 2.0, 0.0, 1.0);
        let mesh = match mapped {
            true => {
                mesh.mapped(|[x, y]| [x + 0.3 * y * y + 0.1 * x * y, y + 0.2 * (1.3 * x).sin()])
            }
            false => mesh,
        };
        let hex = match mapped {
            true => HexMesh::tube(2, 2, 1.0, 2.0),
            false => HexMesh::box_mesh(2, 2, 2, [0.0, 2.0], [0.0, 1.0], [0.0, 1.0]),
        };
        (
            Space2d::new(mesh, p, false),
            Space3d::new(hex, p.min(6), false),
        )
    }

    /// The element kernel as it is defined — the 2D and 3D triple loops
    /// written once: one scalar sum per output from `0.0`, `m` ascending,
    /// the axes interleaved per `m`. Returns `(∂u/∂ξ_a, ol)`.
    fn triple_loop_kernel<const D: usize>(
        s: &Space<D>,
        e: usize,
        lambda: f64,
        ul: &[f64],
    ) -> (Vec<Vec<f64>>, Vec<f64>)
    where
        Dim<D>: Cell<D>,
    {
        let (n, nloc, d, g) = (s.basis.n(), s.nloc(), &s.basis.d, &s.geom[e]);
        let i = |k: usize, a: usize| k / n.pow(a as u32) % n;
        // Node `k` with its axis-`a` index replaced by `m`.
        let at = |k: usize, a: usize, m: usize| k - i(k, a) * n.pow(a as u32) + m * n.pow(a as u32);
        let (mut du, mut f, mut ol) = (
            vec![vec![0.0; nloc]; D],
            vec![vec![0.0; nloc]; D],
            vec![0.0; nloc],
        );
        for k in 0..nloc {
            for (a, du_a) in du.iter_mut().enumerate() {
                for m in 0..n {
                    du_a[k] += d[i(k, a) * n + m] * ul[at(k, a, m)];
                }
            }
        }
        for (a, f_a) in f.iter_mut().enumerate() {
            for k in 0..nloc {
                f_a[k] = g.g[sym(a, 0, D)][k] * du[0][k];
                for b in 1..D {
                    f_a[k] += g.g[sym(a, b, D)][k] * du[b][k];
                }
            }
        }
        for (k, o) in ol.iter_mut().enumerate() {
            for m in 0..n {
                for a in 0..D {
                    *o += d[m * n + i(k, a)] * f[a][at(k, a, m)];
                }
            }
            *o += lambda * g.mass[k] * ul[k];
        }
        (du, ol)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The row-sweep contractions are a reordering of loops, not of sums:
    /// the operator, the reference derivatives and the assembled gradient
    /// have the bits of the triple loops on random fields, in 2D and 3D.
    #[test]
    fn row_sweep_kernels_are_bitwise_the_triple_loops() {
        fn check<const D: usize>(s: &Space<D>)
        where
            Dim<D>: Cell<D>,
        {
            let (nloc, ng) = (s.nloc(), s.nglobal);
            // An irregular field: no two nodes alike, no symmetry.
            let u: Vec<f64> = (0..ng).map(|i| ((i * 7919 + nloc) as f64).sin()).collect();
            let (mut want_a, mut want_g) = (vec![0.0; ng], vec![vec![0.0; ng]; D]);
            let mut ws = ApplyScratch::new();
            ws.ensure(nloc);
            for (e, map) in s.gmap.iter().enumerate() {
                let ul: Vec<f64> = map.iter().map(|&g| u[g]).collect();
                let (du, ol) = triple_loop_kernel(s, e, 600.0, &ul);
                s.ref_derivatives(&ul, &mut ws.du);
                for a in 0..D {
                    assert_eq!(
                        bits(&ws.du[a][..nloc]),
                        bits(&du[a]),
                        "D={D} p={} ∂_{a}",
                        s.order()
                    );
                }
                for (k, &gid) in map.iter().enumerate() {
                    want_a[gid] += ol[k];
                    for (b, w) in want_g.iter_mut().enumerate() {
                        let mut t = s.geom[e].dref[b][k] * du[0][k];
                        for a in 1..D {
                            t += s.geom[e].dref[a * D + b][k] * du[a][k];
                        }
                        w[gid] += t;
                    }
                }
            }
            let mut got_a = vec![0.0; ng];
            s.apply_helmholtz(600.0, &u, &mut got_a);
            assert_eq!(bits(&got_a), bits(&want_a), "A u, D={D} p={}", s.order());
            for (got, want) in s.gradient(&u).iter().zip(&want_g) {
                let want: Vec<f64> = want.iter().zip(&s.mult).map(|(w, m)| w / m).collect();
                assert_eq!(bits(got), bits(&want), "gradient, D={D} p={}", s.order());
            }
        }
        for (p, mapped) in (1..=10).flat_map(|p| [(p, false), (p, true)]) {
            let (s2, s3) = patch(p, mapped);
            check(&s2);
            if p <= 6 {
                check(&s3);
            }
        }
    }

    /// The assembled element matrix is the probed one — column `l` the
    /// kernel's image of the `l`-th unit vector — entry by entry.
    #[test]
    fn assembled_elem_matrix_equals_the_probe() {
        fn check<const D: usize>(s: &Space<D>)
        where
            Dim<D>: Cell<D>,
        {
            let (mut ws, nloc, p, last) =
                (ApplyScratch::new(), s.nloc(), s.order(), s.gmap.len() - 1);
            for (lambda, e) in [(0.0, 0), (0.0, last), (600.0, 0), (600.0, last)] {
                let mut got = vec![f64::NAN; nloc * nloc];
                s.elem_matrix(e, lambda, &mut got, &mut ws);
                for l in 0..nloc {
                    let unit: Vec<f64> = (0..nloc).map(|k| (k == l) as u8 as f64).collect();
                    let (_, want) = triple_loop_kernel(s, e, lambda, &unit);
                    for (k, w) in want.iter().enumerate() {
                        let g = got[k * nloc + l];
                        let what = || format!("D={D} p={p} λ={lambda} e={e} ({k}, {l})");
                        assert!(g == *w, "{}: {g:e} vs {w:e}", what());
                        assert_eq!(g.to_bits(), w.to_bits(), "{}: signs of zero", what());
                    }
                }
            }
        }
        for (p, mapped) in (2..=8).flat_map(|p| [(p, false), (p, true)]) {
            let (s2, s3) = patch(p, mapped);
            check(&s2);
            if p <= 5 {
                check(&s3);
            }
        }
    }

    #[test]
    fn dof_count_structured() {
        // nx*p+1 by ny*p+1 grid points.
        let s = channel(3, 2, 4);
        assert_eq!(s.nglobal, (3 * 4 + 1) * (2 * 4 + 1));
    }

    #[test]
    fn multiplicity_correct() {
        let s = channel(2, 2, 3);
        // Central vertex shared by 4 elements.
        let max_mult = s.mult.iter().cloned().fold(0.0, f64::max);
        assert_eq!(max_mult, 4.0);
        let ones = s.mult.iter().filter(|&&m| m == 1.0).count();
        // Interior nodes: 4 elements * (p-1)^2 = 16, plus boundary-only
        // nodes... count: all nodes minus shared ones; just check interior.
        assert!(ones >= 4 * (3 - 1) * (3 - 1));
    }

    #[test]
    fn area_of_rectangle() {
        let s = channel(3, 3, 5);
        assert!((s.area() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mass_integrates_polynomials_exactly() {
        let s = channel(2, 2, 4);
        // ∫_0^2 ∫_0^1 x² y dx dy = (8/3)(1/2) = 4/3.
        let u = s.project(|x, y| x * x * y);
        assert!((s.integrate(&u) - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn gradient_exact_for_polynomials() {
        let s = channel(2, 2, 5);
        let u = s.project(|x, y| x * x * y + 3.0 * y * y);
        let [gx, gy] = s.gradient(&u);
        for (g, &[x, y]) in gx.iter().zip(&s.coords) {
            assert!((g - 2.0 * x * y).abs() < 1e-9, "at ({x},{y})");
        }
        for (g, &[x, y]) in gy.iter().zip(&s.coords) {
            assert!((g - (x * x + 6.0 * y)).abs() < 1e-9, "at ({x},{y})");
        }
    }

    #[test]
    fn helmholtz_operator_symmetric() {
        let s = channel(2, 2, 3);
        let n = s.nglobal;
        // Probe symmetry with a few random-ish vectors.
        let u: Vec<f64> = (0..n).map(|i| ((i * 7 + 1) % 13) as f64 / 13.0).collect();
        let v: Vec<f64> = (0..n).map(|i| ((i * 5 + 3) % 11) as f64 / 11.0).collect();
        let mut au = vec![0.0; n];
        let mut av = vec![0.0; n];
        s.apply_helmholtz(2.5, &u, &mut au);
        s.apply_helmholtz(2.5, &v, &mut av);
        let vau: f64 = v.iter().zip(&au).map(|(a, b)| a * b).sum();
        let uav: f64 = u.iter().zip(&av).map(|(a, b)| a * b).sum();
        assert!((vau - uav).abs() < 1e-9 * vau.abs().max(1.0));
    }

    #[test]
    fn operator_annihilates_constants_when_lambda_zero() {
        let s = channel(3, 2, 4);
        let u = vec![1.0; s.nglobal];
        let mut au = vec![0.0; s.nglobal];
        s.apply_helmholtz(0.0, &u, &mut au);
        for (i, &a) in au.iter().enumerate() {
            assert!(a.abs() < 1e-10, "dof {i}: {a}");
        }
    }

    #[test]
    fn poisson_manufactured_solution() {
        // -∇²u = f on [0,2]x[0,1] with u = sin(πx/2) sin(πy) (zero on the
        // boundary), f = π²(1/4 + 1) u.
        let s = channel(3, 3, 7);
        let pi = std::f64::consts::PI;
        let exact = |x: f64, y: f64| (pi * x / 2.0).sin() * (pi * y).sin();
        let rhs = s.weak_rhs(|x, y| pi * pi * (0.25 + 1.0) * exact(x, y));
        let bnd = s.boundary_dofs(|_| true);
        let zeros = vec![0.0; bnd.len()];
        let (u, res) = s.solve_helmholtz(0.0, &rhs, &bnd, &zeros, 1e-12, 2000);
        assert!(res.converged, "CG failed: {res:?}");
        let err = s.l2_error(&u, exact);
        assert!(err < 1e-6, "L2 error {err}");
    }

    #[test]
    fn poisson_p_convergence_is_spectral() {
        let pi = std::f64::consts::PI;
        let exact = move |x: f64, y: f64| (pi * x / 2.0).sin() * (pi * y).sin();
        let mut errs = Vec::new();
        for p in [2usize, 4, 6, 8] {
            let s = channel(2, 2, p);
            let rhs = s.weak_rhs(|x, y| pi * pi * 1.25 * exact(x, y));
            let bnd = s.boundary_dofs(|_| true);
            let zeros = vec![0.0; bnd.len()];
            let (u, res) = s.solve_helmholtz(0.0, &rhs, &bnd, &zeros, 1e-13, 4000);
            assert!(res.converged);
            errs.push(s.l2_error(&u, exact));
        }
        // Each +2 in order must shrink the error by well over 10x
        // (exponential convergence).
        for w in errs.windows(2) {
            assert!(w[1] < w[0] / 10.0, "errors not spectral: {errs:?}");
        }
        assert!(errs.last().unwrap() < &1e-7);
    }

    #[test]
    fn helmholtz_with_positive_lambda() {
        // (-∇² + λ)u = f, u = cos(πx) e^y is non-zero on the boundary:
        // exercises Dirichlet lifting. f = (π² + λ - 1) ... compute:
        // -∇²u = π² cos(πx) e^y - cos(πx) e^y.
        let s = channel(3, 2, 6);
        let pi = std::f64::consts::PI;
        let lambda = 3.0;
        let exact = |x: f64, y: f64| (pi * x).cos() * y.exp();
        let rhs = s.weak_rhs(|x, y| (pi * pi - 1.0 + lambda) * exact(x, y));
        let bnd = s.boundary_dofs(|_| true);
        let vals: Vec<f64> = bnd
            .iter()
            .map(|&g| exact(s.coords[g][0], s.coords[g][1]))
            .collect();
        let (u, res) = s.solve_helmholtz(lambda, &rhs, &bnd, &vals, 1e-12, 3000);
        assert!(res.converged);
        let err = s.l2_error(&u, exact);
        assert!(err < 1e-6, "L2 error {err}");
    }

    #[test]
    fn periodic_space_merges_dofs() {
        let mesh = QuadMesh::rectangle(4, 2, 0.0, 1.0, 0.0, 0.5);
        let plain = Space2d::new(mesh.clone(), 3, false);
        let periodic = Space2d::new(mesh, 3, true);
        // Periodic merge removes one column of (ny*p+1) DoFs.
        assert_eq!(plain.nglobal - periodic.nglobal, 2 * 3 + 1);
    }

    /// A periodic space `nx` elements long has `nx·p` distinct DoF columns
    /// and differentiates `sin(2πx)` across the seam — also two elements
    /// long, where after vertex aliasing both columns' bottom edges have
    /// the same vertex pair.
    #[test]
    fn periodic_numbering_is_one_column_short_for_every_length() {
        let two_pi = 2.0 * std::f64::consts::PI;
        let (p, ny) = (10, 2);
        for nx in 1..=3 {
            let s = Space2d::new(QuadMesh::rectangle(nx, ny, 0.0, 1.0, 0.0, 1.0), p, true);
            assert_eq!(s.nglobal, nx * p * (ny * p + 1), "2D nx={nx}");
            let [gx, _] = s.gradient(&s.project(|x, _| (two_pi * x).sin()));
            for (g, &[x, _]) in gx.iter().zip(&s.coords) {
                let err = (g - two_pi * (two_pi * x).cos()).abs();
                assert!(err < 1e-2, "2D nx={nx}: d/dx error {err} at x={x}");
            }
            let mesh = HexMesh::box_mesh(nx, ny, 1, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
            let s = Space3d::new(mesh, p, true);
            assert_eq!(s.nglobal, nx * p * (ny * p + 1) * (p + 1), "3D nx={nx}");
            let [gx, _, _] = s.gradient(&s.project(|x, _, _| (two_pi * x).sin()));
            for (g, &[x, _, _]) in gx.iter().zip(&s.coords) {
                let err = (g - two_pi * (two_pi * x).cos()).abs();
                assert!(err < 1e-2, "3D nx={nx}: d/dx error {err} at x={x}");
            }
        }
    }

    #[test]
    fn eval_at_interpolates() {
        let s = channel(3, 2, 5);
        let u = s.project(|x, y| x * y * y + 1.0);
        let v = s.eval_at(&u, 0.713, 0.377).unwrap();
        assert!((v - (0.713 * 0.377 * 0.377 + 1.0)).abs() < 1e-10);
        assert!(s.eval_at(&u, 5.0, 0.5).is_none());
    }

    #[test]
    fn boundary_dofs_by_tag() {
        let s = channel(3, 2, 2);
        let inlet = s.boundary_dofs(|t| t == BoundaryTag::Inlet);
        // Inlet is x=0 line: ny*p+1 nodes.
        assert_eq!(inlet.len(), 2 * 2 + 1);
        for &g in &inlet {
            assert!(s.coords[g][0].abs() < 1e-12);
        }
    }

    #[test]
    fn mapped_mesh_area() {
        // Shear-mapped rectangle preserves area.
        let mesh = QuadMesh::rectangle(3, 3, 0.0, 2.0, 0.0, 1.0).mapped(|[x, y]| [x + 0.3 * y, y]);
        let s = Space2d::new(mesh, 4, false);
        assert!((s.area() - 2.0).abs() < 1e-10);
    }
}
