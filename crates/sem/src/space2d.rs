//! Continuous-Galerkin spectral-element discretization on quadrilateral
//! meshes: global numbering, geometric factors, matrix-free elliptic
//! operators and boundary handling.

use crate::basis::{lagrange_at, GllBasis};
use crate::cg::CgResult;
use crate::precon::{ApplyScratch, EllipticSolver, EllipticSpace, NodeRole, PreconKind};
use nkg_artifact::{ArtifactKey, KeyHasher};
use nkg_mesh::quad::{BoundaryTag, QuadMesh};
use nkg_simd::{vecmat, vecmat2};
use std::collections::HashMap;

/// Geometric factors of one element, evaluated at the `(P+1)²` GLL nodes
/// (local index `k = j·(P+1) + i`, `i` along ξ).
#[derive(Debug, Clone)]
pub struct ElemGeom {
    /// Stiffness metrics including quadrature weights and |J|:
    /// `g11 = w |J| (ξ_x² + ξ_y²)` etc.
    pub g11: Vec<f64>,
    /// Cross metric `w |J| (ξ_x η_x + ξ_y η_y)`.
    pub g12: Vec<f64>,
    /// `w |J| (η_x² + η_y²)`.
    pub g22: Vec<f64>,
    /// Diagonal mass `w_i w_j |J|`.
    pub mass: Vec<f64>,
    /// `∂ξ/∂x` at each node (for collocation gradients).
    pub rx: Vec<f64>,
    /// `∂ξ/∂y`.
    pub ry: Vec<f64>,
    /// `∂η/∂x`.
    pub sx: Vec<f64>,
    /// `∂η/∂y`.
    pub sy: Vec<f64>,
    /// Physical x of each node.
    pub x: Vec<f64>,
    /// Physical y of each node.
    pub y: Vec<f64>,
}

/// A scalar CG-SEM function space of order `p` on a quad mesh.
pub struct Space2d {
    /// The mesh.
    pub mesh: QuadMesh,
    /// 1D GLL basis (tensorized).
    pub basis: GllBasis,
    /// Per-element local→global DoF map.
    pub gmap: Vec<Vec<usize>>,
    /// Number of global DoFs.
    pub nglobal: usize,
    /// Per-element geometry.
    pub geom: Vec<ElemGeom>,
    /// Node multiplicity (how many elements share each global DoF).
    pub mult: Vec<f64>,
    /// Global coordinates of each DoF.
    pub coords: Vec<[f64; 2]>,
    /// Content fingerprint of (mesh geometry, connectivity, order,
    /// periodicity) — the `nkg-artifact` key component under which setup
    /// factorizations over this discretization are shared.
    fp: ArtifactKey,
    /// `Dᵀ` of the basis, row-major: the ξ-derivative of an element row is
    /// then a sweep down contiguous rows, like the η-derivative down `D`'s.
    dt: Vec<f64>,
}

#[derive(Hash, PartialEq, Eq, Clone, Copy)]
enum NodeKey {
    Vertex(usize),
    Edge(usize, usize, usize), // (min vid, max vid, position from min)
    Interior(usize, usize),    // (elem, local)
}

impl Space2d {
    /// Build the space. `periodic_x`: identify DoFs on the `x = min` and
    /// `x = max` lines (the mesh must have matching vertex y-coordinates
    /// there), enabling streamwise-periodic channel flows.
    pub fn new(mesh: QuadMesh, p: usize, periodic_x: bool) -> Self {
        let basis = GllBasis::new(p);
        let n = p + 1;
        let nloc = n * n;
        // Optional periodic vertex aliasing.
        let alias = build_alias(&mesh, periodic_x);

        let mut key_map: HashMap<NodeKey, usize> = HashMap::new();
        let mut gmap = Vec::with_capacity(mesh.num_elems());
        let mut nglobal = 0usize;
        let mut intern = |key: NodeKey, nglobal: &mut usize| -> usize {
            *key_map.entry(key).or_insert_with(|| {
                let id = *nglobal;
                *nglobal += 1;
                id
            })
        };
        for (e, verts) in mesh.elems.iter().enumerate() {
            let v: Vec<usize> = verts.iter().map(|&vv| alias[vv]).collect();
            let mut map = vec![usize::MAX; nloc];
            for j in 0..n {
                for i in 0..n {
                    let k = j * n + i;
                    let key = match (i, j) {
                        (0, 0) => NodeKey::Vertex(v[0]),
                        (x, 0) if x == p => NodeKey::Vertex(v[1]),
                        (x, y) if x == p && y == p => NodeKey::Vertex(v[2]),
                        (0, y) if y == p => NodeKey::Vertex(v[3]),
                        (x, 0) => edge_key(v[0], v[1], x, p),
                        (x, y) if x == p => edge_key(v[1], v[2], y, p),
                        (x, y) if y == p => edge_key(v[3], v[2], x, p),
                        (0, y) => edge_key(v[0], v[3], y, p),
                        _ => NodeKey::Interior(e, k),
                    };
                    map[k] = intern(key, &mut nglobal);
                }
            }
            gmap.push(map);
        }

        // Geometry per element (bilinear isoparametric mapping).
        let mut geom = Vec::with_capacity(mesh.num_elems());
        for verts in &mesh.elems {
            geom.push(elem_geometry(&mesh, *verts, &basis));
        }

        // Multiplicity and representative coordinates.
        let mut mult = vec![0.0f64; nglobal];
        let mut coords = vec![[0.0f64; 2]; nglobal];
        for (e, map) in gmap.iter().enumerate() {
            for (k, &g) in map.iter().enumerate() {
                mult[g] += 1.0;
                coords[g] = [geom[e].x[k], geom[e].y[k]];
            }
        }
        // Content fingerprint: exact vertex-coordinate bits, element
        // connectivity, order and the (periodicity-aware) assembled
        // numbering. Everything the elliptic setup products depend on is a
        // pure function of these inputs, so equal fingerprints mean
        // bitwise-interchangeable factorizations. Hashing is O(DoF) — noise
        // next to the geometry build above.
        let fp = {
            let mut h = KeyHasher::new("space2d");
            h.usize(p);
            h.bool(periodic_x);
            h.usize(nglobal);
            h.usize(mesh.num_elems());
            for verts in &mesh.elems {
                for &v in verts {
                    h.usize(v);
                }
            }
            for c in &mesh.coords {
                h.f64(c[0]);
                h.f64(c[1]);
            }
            for map in &gmap {
                h.usizes(map);
            }
            h.finish()
        };
        let dt = (0..nloc).map(|k| basis.d[(k % n) * n + k / n]).collect();
        Self {
            mesh,
            basis,
            gmap,
            nglobal,
            geom,
            mult,
            coords,
            fp,
            dt,
        }
    }

    /// Polynomial order.
    pub fn order(&self) -> usize {
        self.basis.p
    }

    /// Nodes per element.
    pub fn nloc(&self) -> usize {
        self.basis.n() * self.basis.n()
    }

    /// Interpolate a function onto the global DoFs (nodal projection).
    pub fn project(&self, f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
        self.coords.iter().map(|&[x, y]| f(x, y)).collect()
    }

    /// Weak right-hand side `(v, f)` for all test functions: element-wise
    /// `mass .* f(nodes)`, assembled.
    pub fn weak_rhs(&self, f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
        let mut out = vec![0.0; self.nglobal];
        for (e, map) in self.gmap.iter().enumerate() {
            let g = &self.geom[e];
            for (k, &gid) in map.iter().enumerate() {
                out[gid] += g.mass[k] * f(g.x[k], g.y[k]);
            }
        }
        out
    }

    /// Multiply a global (nodal) vector by the assembled diagonal mass
    /// matrix: `out = M u`.
    pub fn apply_mass(&self, u: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.nglobal];
        self.apply_mass_into(u, &mut out);
        out
    }

    /// [`Space2d::apply_mass`] into a caller-provided output.
    pub fn apply_mass_into(&self, u: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        for (e, map) in self.gmap.iter().enumerate() {
            let g = &self.geom[e];
            for (k, &gid) in map.iter().enumerate() {
                out[gid] += g.mass[k] * u[gid];
            }
        }
    }

    /// Domain integral of a nodal field.
    pub fn integrate(&self, u: &[f64]) -> f64 {
        let mut total = 0.0;
        for (e, map) in self.gmap.iter().enumerate() {
            let g = &self.geom[e];
            for (k, &gid) in map.iter().enumerate() {
                total += g.mass[k] * u[gid];
            }
        }
        total
    }

    /// Total domain area.
    pub fn area(&self) -> f64 {
        self.integrate(&vec![1.0; self.nglobal])
    }

    /// L2 norm of a nodal field.
    pub fn l2_norm(&self, u: &[f64]) -> f64 {
        let mut total = 0.0;
        for (e, map) in self.gmap.iter().enumerate() {
            let g = &self.geom[e];
            for (k, &gid) in map.iter().enumerate() {
                total += g.mass[k] * u[gid] * u[gid];
            }
        }
        total.sqrt()
    }

    /// L2 norm of the difference between a nodal field and a function.
    pub fn l2_error(&self, u: &[f64], exact: impl Fn(f64, f64) -> f64) -> f64 {
        let mut total = 0.0;
        for (e, map) in self.gmap.iter().enumerate() {
            let g = &self.geom[e];
            for (k, &gid) in map.iter().enumerate() {
                let d = u[gid] - exact(g.x[k], g.y[k]);
                total += g.mass[k] * d * d;
            }
        }
        total.sqrt()
    }

    /// Reference-space derivatives of one element's nodal values:
    /// `ur = ∂u/∂ξ = U Dᵀ`, `us = ∂u/∂η = D U` with `U` the `n × n` array
    /// of `ul`, one [`vecmat`] per output row. Every entry adds its `n`
    /// terms in the order `m = 0, 1, …` from `0.0`, so it has the bits of
    /// the triple loop `sr += d[i][m]·u[j][m]`, `ss += d[j][m]·u[m][i]`.
    fn ref_derivatives(&self, ul: &[f64], ur: &mut [f64], us: &mut [f64]) {
        let n = self.basis.n();
        let d = &self.basis.d;
        for (j, (ur_j, us_j)) in ur
            .chunks_exact_mut(n)
            .zip(us.chunks_exact_mut(n))
            .enumerate()
        {
            let row = j * n..(j + 1) * n;
            vecmat(&ul[row.clone()], &self.dt, ur_j);
            vecmat(&d[row], ul, us_j);
        }
    }

    /// One element's Helmholtz kernel on a gathered local vector:
    /// `ol = DᵀGD ul + λ M ul`, scratch caller-provided.
    ///
    /// The output pass `Dξᵀ f1 + Dηᵀ f2` is again one sweep per row, the
    /// two products interleaved term by term ([`vecmat2`]) as in the triple
    /// loop `s += d[m][i]·f1[j][m]; s += d[m][j]·f2[m][i]`, which fixes
    /// the bits of every entry.
    fn helmholtz_elem_local(
        &self,
        e: usize,
        lambda: f64,
        ul: &[f64],
        ur: &mut [f64],
        us: &mut [f64],
        f1: &mut [f64],
        f2: &mut [f64],
        ol: &mut [f64],
    ) {
        let n = self.basis.n();
        let nloc = self.nloc();
        let g = &self.geom[e];
        self.ref_derivatives(ul, ur, us);
        for k in 0..nloc {
            f1[k] = g.g11[k] * ur[k] + g.g12[k] * us[k];
            f2[k] = g.g12[k] * ur[k] + g.g22[k] * us[k];
        }
        // ol = Dξᵀ f1 + Dηᵀ f2 + λ M u
        for (j, ol_j) in ol.chunks_exact_mut(n).enumerate() {
            let row = j * n..(j + 1) * n;
            vecmat2(
                &f1[row.clone()],
                &self.basis.d,
                &self.dt[row.clone()],
                f2,
                ol_j,
            );
            for ((o, &m), &u) in ol_j.iter_mut().zip(&g.mass[row.clone()]).zip(&ul[row]) {
                *o += lambda * m * u;
            }
        }
    }

    /// Apply the global Helmholtz operator `A u = ∫∇v·∇u + λ ∫v u` to a
    /// global vector (matrix-free, gather → element tensor kernels →
    /// scatter-add). Allocates scratch; the hot loops use
    /// [`Space2d::apply_helmholtz_ws`].
    pub fn apply_helmholtz(&self, lambda: f64, u: &[f64], out: &mut [f64]) {
        self.apply_helmholtz_ws(lambda, u, out, &mut ApplyScratch::new());
    }

    /// [`Space2d::apply_helmholtz`] with caller-provided scratch: zero
    /// heap allocation per application.
    pub fn apply_helmholtz_ws(
        &self,
        lambda: f64,
        u: &[f64],
        out: &mut [f64],
        ws: &mut ApplyScratch,
    ) {
        self.apply_helmholtz_elems(0..self.gmap.len(), lambda, u, out, ws);
    }

    /// [`Space2d::apply_helmholtz_ws`] summed over the elements `elems`
    /// only — one rank's share of a partitioned operator; shared DoFs hold
    /// partial sums until the caller assembles them.
    pub fn apply_helmholtz_elems(
        &self,
        elems: impl IntoIterator<Item = usize>,
        lambda: f64,
        u: &[f64],
        out: &mut [f64],
        ws: &mut ApplyScratch,
    ) {
        out.iter_mut().for_each(|o| *o = 0.0);
        let nloc = self.nloc();
        ws.ensure(nloc);
        let ApplyScratch { ul, du, fl, ol, .. } = ws;
        let [ur, us, _] = du;
        let [f1, f2, _] = fl;
        for e in elems {
            let map = &self.gmap[e];
            for (k, &gid) in map.iter().enumerate() {
                ul[k] = u[gid];
            }
            self.helmholtz_elem_local(
                e,
                lambda,
                &ul[..nloc],
                &mut ur[..nloc],
                &mut us[..nloc],
                &mut f1[..nloc],
                &mut f2[..nloc],
                &mut ol[..nloc],
            );
            for (k, &gid) in map.iter().enumerate() {
                out[gid] += ol[k];
            }
        }
    }

    /// Collocation gradient of a global field: per-element tensor
    /// derivatives mapped to physical space, averaged at shared DoFs.
    /// Returns `(du/dx, du/dy)` as global vectors.
    pub fn gradient(&self, u: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let mut gx = vec![0.0f64; self.nglobal];
        let mut gy = vec![0.0f64; self.nglobal];
        self.gradient_ws(u, &mut gx, &mut gy, &mut ApplyScratch::new());
        (gx, gy)
    }

    /// [`Space2d::gradient`] into caller-provided outputs and scratch: no
    /// per-call allocation.
    pub fn gradient_ws(&self, u: &[f64], gx: &mut [f64], gy: &mut [f64], ws: &mut ApplyScratch) {
        let nloc = self.nloc();
        gx.iter_mut().for_each(|v| *v = 0.0);
        gy.iter_mut().for_each(|v| *v = 0.0);
        ws.ensure(nloc);
        let ApplyScratch { ul, du, .. } = ws;
        let [ur, us, _] = du;
        for (e, map) in self.gmap.iter().enumerate() {
            let g = &self.geom[e];
            for (k, &gid) in map.iter().enumerate() {
                ul[k] = u[gid];
            }
            self.ref_derivatives(&ul[..nloc], &mut ur[..nloc], &mut us[..nloc]);
            for (k, &gid) in map.iter().enumerate() {
                gx[gid] += g.rx[k] * ur[k] + g.sx[k] * us[k];
                gy[gid] += g.ry[k] * ur[k] + g.sy[k] * us[k];
            }
        }
        for gid in 0..self.nglobal {
            gx[gid] /= self.mult[gid];
            gy[gid] /= self.mult[gid];
        }
    }

    /// Global DoF ids lying on boundary edges whose tag satisfies `pred`.
    pub fn boundary_dofs(&self, pred: impl Fn(BoundaryTag) -> bool) -> Vec<usize> {
        let n = self.basis.n();
        let p = self.basis.p;
        let mut out = std::collections::BTreeSet::new();
        for &(e, edge, tag) in &self.mesh.boundary {
            if !pred(tag) {
                continue;
            }
            for t in 0..n {
                let (i, j) = match edge {
                    0 => (t, 0),
                    1 => (p, t),
                    2 => (t, p),
                    3 => (0, t),
                    _ => unreachable!(),
                };
                out.insert(self.gmap[e][j * n + i]);
            }
        }
        out.into_iter().collect()
    }

    /// Solve the Helmholtz problem `-∇²u + λu = f` (weak form) with
    /// Dirichlet data on the DoFs listed in `dirichlet` (values from
    /// `bc_value`), by a one-shot condensed engine on the Jacobi rung.
    ///
    /// `rhs_weak` must already be in weak form (e.g. from
    /// [`Space2d::weak_rhs`]). Returns the solution and CG diagnostics.
    pub fn solve_helmholtz(
        &self,
        lambda: f64,
        rhs_weak: &[f64],
        dirichlet: &[usize],
        bc_value: &[f64],
        tol: f64,
        max_iter: usize,
    ) -> (Vec<f64>, CgResult) {
        let mut eng = EllipticSolver::new(
            self,
            lambda,
            dirichlet,
            PreconKind::Jacobi,
            tol,
            max_iter,
            0,
            0,
        );
        let mut x = vec![0.0f64; self.nglobal];
        let stats = eng.solve_into(self, rhs_weak, bc_value, &mut x, usize::MAX);
        (x, stats.cg)
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

impl EllipticSpace for Space2d {
    fn nglobal(&self) -> usize {
        self.nglobal
    }

    fn num_elems(&self) -> usize {
        self.gmap.len()
    }

    fn nloc(&self) -> usize {
        self.nloc()
    }

    fn elem_gids(&self, e: usize) -> &[usize] {
        &self.gmap[e]
    }

    fn apply_helmholtz_ws(&self, lambda: f64, u: &[f64], out: &mut [f64], ws: &mut ApplyScratch) {
        Space2d::apply_helmholtz_ws(self, lambda, u, out, ws);
    }

    fn apply_helmholtz_elems_ws(
        &self,
        elems: &[usize],
        lambda: f64,
        u: &[f64],
        out: &mut [f64],
        ws: &mut ApplyScratch,
    ) {
        self.apply_helmholtz_elems(elems.iter().copied(), lambda, u, out, ws);
    }

    /// Assembled from what a unit vector excites instead of pushing `nloc`
    /// unit vectors through the `O(n³)` kernel. The unit vector at node
    /// `(k, l)` (row `k`, `l` along ξ) has `∂/∂ξ` on row `k` only and
    /// `∂/∂η` on column `l` only, so the fluxes `f1`, `f2` live on that
    /// cross, and an output `(j, i)` off the cross sees two of them:
    /// `d[l][i]·f1[j][l] + d[k][j]·f2[k][i]`. Outputs on row `k` or column
    /// `l` keep their `n`-term sums. About `4n⁴` mul-adds instead of `4n⁵`.
    ///
    /// Every entry adds the non-zero terms of the kernel's sum in the
    /// kernel's order from `0.0`; the terms left out are exact zeros, so
    /// the entries `==` the probed ones (`tests::probe_elem_matrix`).
    fn elem_matrix(&self, e: usize, lambda: f64, out: &mut [f64], ws: &mut ApplyScratch) {
        let n = self.basis.n();
        let nloc = self.nloc();
        assert!(out.len() >= nloc * nloc);
        ws.ensure(nloc);
        let d = &self.basis.d;
        let g = &self.geom[e];
        let ApplyScratch { fl, ol, .. } = ws;
        let [f1, f2, _] = fl;
        // Fluxes on the cross: `*_row[m]` at node (k, m), `*_col[m]` at
        // node (m, l); `col` is one column of the matrix.
        let (f1_row, f1_col) = f1[..2 * n].split_at_mut(n);
        let (f2_row, f2_col) = f2[..2 * n].split_at_mut(n);
        let col = &mut ol[..nloc];
        for k in 0..n {
            for l in 0..n {
                // `0.0 + d`: the kernel's derivative of a unit vector is a
                // sum from `0.0`, which a `-0.0` entry of `D` leaves `+0.0`.
                let (dkk, dll) = (0.0 + d[k * n + k], 0.0 + d[l * n + l]);
                for m in 0..n {
                    let q = k * n + m;
                    let (ur, us) = (0.0 + d[m * n + l], if m == l { dkk } else { 0.0 });
                    f1_row[m] = g.g11[q] * ur + g.g12[q] * us;
                    f2_row[m] = g.g12[q] * ur + g.g22[q] * us;
                    let q = m * n + l;
                    let (ur, us) = (if m == k { dll } else { 0.0 }, 0.0 + d[m * n + k]);
                    f1_col[m] = g.g11[q] * ur + g.g12[q] * us;
                    f2_col[m] = g.g12[q] * ur + g.g22[q] * us;
                }
                // Off the cross. The kernel adds the `f1` term at `m = l`
                // and the `f2` term at `m = k`, in either order: a sum of
                // two terms from `0.0` has the same bits both ways.
                let d_l = &d[l * n..(l + 1) * n];
                for (j, col_j) in col.chunks_exact_mut(n).enumerate() {
                    let (a, dkj) = (f1_col[j], d[k * n + j]);
                    for ((c, &dli), &f) in col_j.iter_mut().zip(d_l).zip(&*f2_row) {
                        *c = (0.0 + dli * a) + dkj * f;
                    }
                }
                // Row k: all of `f1`'s row, `f2` at `m = k` alone.
                for i in 0..n {
                    if i == l {
                        continue;
                    }
                    let mut s = 0.0;
                    for m in 0..n {
                        s += d[m * n + i] * f1_row[m];
                        if m == k {
                            s += dkk * f2_row[i];
                        }
                    }
                    col[k * n + i] = s;
                }
                // Column l: `f1` at `m = l` alone, all of `f2`'s column.
                for j in 0..n {
                    if j == k {
                        continue;
                    }
                    let mut s = 0.0;
                    for m in 0..n {
                        if m == l {
                            s += dll * f1_col[j];
                        }
                        s += d[m * n + j] * f2_col[m];
                    }
                    col[j * n + l] = s;
                }
                // The node itself: both full sums, plus the mass term.
                let c = k * n + l;
                let mut s = 0.0;
                for m in 0..n {
                    s += d[m * n + l] * f1_row[m];
                    s += d[m * n + k] * f2_col[m];
                }
                col[c] = s + lambda * g.mass[c];
                for (q, &v) in col.iter().enumerate() {
                    out[q * nloc + c] = v;
                }
            }
        }
    }

    fn elem_geom_bits(&self, e: usize, out: &mut Vec<u64>) {
        let g = &self.geom[e];
        for f in [&g.g11, &g.g12, &g.g22, &g.mass] {
            out.extend(f.iter().map(|v| v.to_bits()));
        }
    }

    fn node_roles(&self) -> Vec<NodeRole> {
        let n = self.basis.n();
        let p = self.basis.p;
        let mut roles = Vec::with_capacity(n * n);
        for j in 0..n {
            for i in 0..n {
                let bi = i == 0 || i == p;
                let bj = j == 0 || j == p;
                roles.push(match (bi, bj) {
                    (true, true) => NodeRole::Vertex,
                    // Local edge ids follow the boundary numbering:
                    // 0 = η-min, 1 = ξ-max, 2 = η-max, 3 = ξ-min.
                    (false, true) => NodeRole::Edge(if j == 0 { 0 } else { 2 }),
                    (true, false) => NodeRole::Edge(if i == p { 1 } else { 3 }),
                    (false, false) => NodeRole::Interior,
                });
            }
        }
        roles
    }

    fn fingerprint(&self) -> Option<ArtifactKey> {
        Some(self.fp)
    }

    fn corner_hats(&self) -> (Vec<usize>, Vec<Vec<f64>>) {
        let n = self.basis.n();
        let p = self.basis.p;
        // Corner order matches the element vertex order of the mesh.
        let locs = vec![0, p, p * n + p, p * n];
        let pts = &self.basis.points;
        let mut hats = vec![vec![0.0; n * n]; 4];
        for j in 0..n {
            for i in 0..n {
                let (xi, eta) = (pts[i], pts[j]);
                let k = j * n + i;
                hats[0][k] = 0.25 * (1.0 - xi) * (1.0 - eta);
                hats[1][k] = 0.25 * (1.0 + xi) * (1.0 - eta);
                hats[2][k] = 0.25 * (1.0 + xi) * (1.0 + eta);
                hats[3][k] = 0.25 * (1.0 - xi) * (1.0 + eta);
            }
        }
        (locs, hats)
    }
}

fn edge_key(va: usize, vb: usize, t: usize, p: usize) -> NodeKey {
    // Position measured from the smaller vertex id, so both elements
    // sharing the edge agree regardless of traversal direction.
    if va < vb {
        NodeKey::Edge(va, vb, t)
    } else {
        NodeKey::Edge(vb, va, p - t)
    }
}

fn build_alias(mesh: &QuadMesh, periodic_x: bool) -> Vec<usize> {
    let mut alias: Vec<usize> = (0..mesh.num_verts()).collect();
    if !periodic_x {
        return alias;
    }
    let xmin = mesh.coords.iter().map(|p| p[0]).fold(f64::MAX, f64::min);
    let xmax = mesh.coords.iter().map(|p| p[0]).fold(f64::MIN, f64::max);
    let tol = 1e-9 * (xmax - xmin).max(1.0);
    for (v, pv) in mesh.coords.iter().enumerate() {
        if (pv[0] - xmax).abs() < tol {
            // Find the partner at xmin with the same y.
            let partner = mesh
                .coords
                .iter()
                .position(|q| (q[0] - xmin).abs() < tol && (q[1] - pv[1]).abs() < tol)
                .expect("periodic_x: no matching vertex on the opposite side");
            alias[v] = partner;
        }
    }
    alias
}

fn elem_geometry(mesh: &QuadMesh, verts: [usize; 4], basis: &GllBasis) -> ElemGeom {
    let n = basis.n();
    let nloc = n * n;
    let vc: Vec<[f64; 2]> = verts.iter().map(|&v| mesh.coords[v]).collect();
    let sub = |a: usize, b: usize| [vc[a][0] - vc[b][0], vc[a][1] - vc[b][1]];
    // The two ξ-edges (η = ∓1), then the two η-edges (ξ = ∓1).
    let edge = [sub(1, 0), sub(2, 3), sub(3, 0), sub(2, 1)];
    let mut g = ElemGeom {
        g11: vec![0.0; nloc],
        g12: vec![0.0; nloc],
        g22: vec![0.0; nloc],
        mass: vec![0.0; nloc],
        rx: vec![0.0; nloc],
        ry: vec![0.0; nloc],
        sx: vec![0.0; nloc],
        sy: vec![0.0; nloc],
        x: vec![0.0; nloc],
        y: vec![0.0; nloc],
    };
    for j in 0..n {
        for i in 0..n {
            let (xi, eta) = (basis.points[i], basis.points[j]);
            let k = j * n + i;
            // Bilinear shape functions.
            let nfun = [
                0.25 * (1.0 - xi) * (1.0 - eta),
                0.25 * (1.0 + xi) * (1.0 - eta),
                0.25 * (1.0 + xi) * (1.0 + eta),
                0.25 * (1.0 - xi) * (1.0 + eta),
            ];
            let (mut x, mut y) = (0.0, 0.0);
            for a in 0..4 {
                x += nfun[a] * vc[a][0];
                y += nfun[a] * vc[a][1];
            }
            // The Jacobian from the edge vectors, not the vertex positions:
            // translating an element leaves its edge vectors — and with
            // them every geometric factor — bitwise unchanged, which is
            // what lets congruent elements share condensed products.
            let x_xi = 0.25 * ((1.0 - eta) * edge[0][0] + (1.0 + eta) * edge[1][0]);
            let y_xi = 0.25 * ((1.0 - eta) * edge[0][1] + (1.0 + eta) * edge[1][1]);
            let x_eta = 0.25 * ((1.0 - xi) * edge[2][0] + (1.0 + xi) * edge[3][0]);
            let y_eta = 0.25 * ((1.0 - xi) * edge[2][1] + (1.0 + xi) * edge[3][1]);
            let jac = x_xi * y_eta - x_eta * y_xi;
            assert!(
                jac > 1e-14,
                "element has non-positive Jacobian {jac} (inverted or degenerate)"
            );
            let rx = y_eta / jac;
            let ry = -x_eta / jac;
            let sx = -y_xi / jac;
            let sy = x_xi / jac;
            let w = basis.weights[i] * basis.weights[j] * jac;
            g.x[k] = x;
            g.y[k] = y;
            g.rx[k] = rx;
            g.ry[k] = ry;
            g.sx[k] = sx;
            g.sy[k] = sy;
            g.mass[k] = w;
            g.g11[k] = w * (rx * rx + ry * ry);
            g.g12[k] = w * (rx * sx + ry * sy);
            g.g22[k] = w * (sx * sx + sy * sy);
        }
    }
    g
}

/// Newton inversion of the bilinear map; returns reference coordinates when
/// the point is inside (|ξ|,|η| ≤ 1 + 1e-8).
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

    fn channel(nx: usize, ny: usize, p: usize) -> Space2d {
        let mesh = QuadMesh::rectangle(nx, ny, 0.0, 2.0, 0.0, 1.0);
        Space2d::new(mesh, p, false)
    }

    /// A 2×2 mesh of rectangles (`mapped = false`) or of general
    /// quadrilaterals with a varying Jacobian and a non-zero cross metric.
    fn patch(p: usize, mapped: bool) -> Space2d {
        let mesh = QuadMesh::rectangle(2, 2, 0.0, 2.0, 0.0, 1.0);
        let mesh = if mapped {
            mesh.mapped(|[x, y]| [x + 0.3 * y * y + 0.1 * x * y, y + 0.2 * (1.3 * x).sin()])
        } else {
            mesh
        };
        Space2d::new(mesh, p, false)
    }

    /// The element kernels as they are defined: one scalar sum per output,
    /// `m` ascending from `0.0`. Returns `(ur, us, ol)`.
    fn triple_loop_kernel(
        s: &Space2d,
        e: usize,
        lambda: f64,
        ul: &[f64],
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let n = s.basis.n();
        let nloc = n * n;
        let d = &s.basis.d;
        let g = &s.geom[e];
        let (mut ur, mut us) = (vec![0.0; nloc], vec![0.0; nloc]);
        for j in 0..n {
            for i in 0..n {
                let mut sr = 0.0;
                let mut ss = 0.0;
                for m in 0..n {
                    sr += d[i * n + m] * ul[j * n + m];
                    ss += d[j * n + m] * ul[m * n + i];
                }
                ur[j * n + i] = sr;
                us[j * n + i] = ss;
            }
        }
        let (mut f1, mut f2) = (vec![0.0; nloc], vec![0.0; nloc]);
        for k in 0..nloc {
            f1[k] = g.g11[k] * ur[k] + g.g12[k] * us[k];
            f2[k] = g.g12[k] * ur[k] + g.g22[k] * us[k];
        }
        let mut ol = vec![0.0; nloc];
        for j in 0..n {
            for i in 0..n {
                let mut s = 0.0;
                for m in 0..n {
                    s += d[m * n + i] * f1[j * n + m];
                    s += d[m * n + j] * f2[m * n + i];
                }
                let k = j * n + i;
                ol[k] = s + lambda * g.mass[k] * ul[k];
            }
        }
        (ur, us, ol)
    }

    /// The element matrix by its definition: column `l` is the kernel's
    /// image of the `l`-th unit vector.
    fn probe_elem_matrix(s: &Space2d, e: usize, lambda: f64) -> Vec<f64> {
        let nloc = s.nloc();
        let mut a = vec![0.0; nloc * nloc];
        for l in 0..nloc {
            let mut ul = vec![0.0; nloc];
            ul[l] = 1.0;
            let (_, _, ol) = triple_loop_kernel(s, e, lambda, &ul);
            for k in 0..nloc {
                a[k * nloc + l] = ol[k];
            }
        }
        a
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The row-sweep contractions are a reordering of loops, not of sums:
    /// the operator, both reference derivatives and the assembled gradient
    /// have the bits of the triple loops on random fields.
    #[test]
    fn row_sweep_kernels_are_bitwise_the_triple_loops() {
        for p in 1..=10 {
            for mapped in [false, true] {
                let s = patch(p, mapped);
                let (n, nloc) = (s.basis.n(), s.nloc());
                // An irregular field: no two nodes alike, no symmetry.
                let u: Vec<f64> = (0..s.nglobal)
                    .map(|i| ((i * 7919 + p) as f64).sin())
                    .collect();
                let mut want_a = vec![0.0; s.nglobal];
                let (mut want_gx, mut want_gy) = (vec![0.0; s.nglobal], vec![0.0; s.nglobal]);
                for (e, map) in s.gmap.iter().enumerate() {
                    let ul: Vec<f64> = map.iter().map(|&g| u[g]).collect();
                    let (ur, us, ol) = triple_loop_kernel(&s, e, 600.0, &ul);
                    let (mut got_r, mut got_s) = (vec![1.0; nloc], vec![1.0; nloc]);
                    s.ref_derivatives(&ul, &mut got_r, &mut got_s);
                    assert_eq!(bits(&got_r), bits(&ur), "ur, p={p} mapped={mapped} e={e}");
                    assert_eq!(bits(&got_s), bits(&us), "us, p={p} mapped={mapped} e={e}");
                    let g = &s.geom[e];
                    for (k, &gid) in map.iter().enumerate() {
                        want_a[gid] += ol[k];
                        want_gx[gid] += g.rx[k] * ur[k] + g.sx[k] * us[k];
                        want_gy[gid] += g.ry[k] * ur[k] + g.sy[k] * us[k];
                    }
                }
                for gid in 0..s.nglobal {
                    want_gx[gid] /= s.mult[gid];
                    want_gy[gid] /= s.mult[gid];
                }
                let mut got_a = vec![0.0; s.nglobal];
                s.apply_helmholtz(600.0, &u, &mut got_a);
                assert_eq!(
                    bits(&got_a),
                    bits(&want_a),
                    "A u, p={p} n={n} mapped={mapped}"
                );
                let (gx, gy) = s.gradient(&u);
                assert_eq!(bits(&gx), bits(&want_gx), "du/dx, p={p} mapped={mapped}");
                assert_eq!(bits(&gy), bits(&want_gy), "du/dy, p={p} mapped={mapped}");
            }
        }
    }

    /// The assembled element matrix is the probed one, entry by entry.
    #[test]
    fn assembled_elem_matrix_equals_the_probe() {
        let mut ws = ApplyScratch::new();
        for p in 2..=8 {
            for mapped in [false, true] {
                let s = patch(p, mapped);
                let nloc = s.nloc();
                for lambda in [0.0, 600.0] {
                    for e in [0, s.gmap.len() - 1] {
                        let want = probe_elem_matrix(&s, e, lambda);
                        let mut got = vec![f64::NAN; nloc * nloc];
                        s.elem_matrix(e, lambda, &mut got, &mut ws);
                        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                            assert!(
                                g == w,
                                "p={p} mapped={mapped} λ={lambda} e={e} entry ({}, {}): {g:e} vs {w:e}",
                                k / nloc,
                                k % nloc
                            );
                        }
                        assert_eq!(bits(&got), bits(&want), "signs of zero");
                    }
                }
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
        let (gx, gy) = s.gradient(&u);
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
