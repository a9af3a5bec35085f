//! Continuous-Galerkin spectral elements on *structured* hexahedral meshes.
//!
//! The 3D counterpart of [`crate::space2d`]. Global numbering uses the
//! structured layout of [`nkg_mesh::HexMesh::box_mesh`] (elements in
//! `x`-fastest order), which sidesteps general face-orientation matching;
//! geometries may still be curvilinear through vertex mapping (trilinear
//! isoparametric elements, e.g. the mapped tube of Table 2).

use crate::basis::GllBasis;
use crate::cg::CgResult;
use crate::precon::{ApplyScratch, EllipticSolver, EllipticSpace, NodeRole, PreconKind};
use nkg_mesh::hex::HexMesh;
use nkg_mesh::quad::BoundaryTag;

/// Geometric factors of one hex element at its `(P+1)³` GLL nodes
/// (local index `k = (kz·n + ky)·n + kx`).
#[derive(Debug, Clone)]
pub struct ElemGeom3 {
    /// Symmetric stiffness metric `w|J| ∇ξ_a·∇ξ_b`, six unique entries:
    /// `[g11, g12, g13, g22, g23, g33]` each of length `nloc`.
    pub g: [Vec<f64>; 6],
    /// Diagonal mass `w_i w_j w_k |J|`.
    pub mass: Vec<f64>,
    /// `∂ξ_a/∂x_b` (row a, col b) per node, for collocation gradients.
    pub dref: [Vec<f64>; 9],
    /// Physical coordinates of nodes.
    pub xyz: Vec<[f64; 3]>,
}

/// A scalar CG-SEM space on a structured hex mesh.
pub struct Space3d {
    /// The mesh (must come from `box_mesh`-style structured construction,
    /// possibly vertex-mapped).
    pub mesh: HexMesh,
    /// Elements per direction.
    pub dims: [usize; 3],
    /// 1D GLL basis.
    pub basis: GllBasis,
    /// Per-element local→global map.
    pub gmap: Vec<Vec<usize>>,
    /// Global DoF count.
    pub nglobal: usize,
    /// Per-element geometry.
    pub geom: Vec<ElemGeom3>,
    /// DoF multiplicity.
    pub mult: Vec<f64>,
    /// DoF coordinates.
    pub coords: Vec<[f64; 3]>,
}

impl Space3d {
    /// Build the space over a structured `dims = [nx, ny, nz]` mesh of
    /// order `p`, optionally periodic in x.
    pub fn new(mesh: HexMesh, dims: [usize; 3], p: usize, periodic_x: bool) -> Self {
        let [nx, ny, nz] = dims;
        assert_eq!(mesh.num_elems(), nx * ny * nz, "dims mismatch mesh");
        let basis = GllBasis::new(p);
        let n = p + 1;
        // Global structured grid of nodes.
        let gx = if periodic_x { nx * p } else { nx * p + 1 };
        let gy = ny * p + 1;
        let gz = nz * p + 1;
        let nglobal = gx * gy * gz;
        let gid = |ix: usize, iy: usize, iz: usize| ((iz * gy) + iy) * gx + (ix % gx);
        let mut gmap = Vec::with_capacity(mesh.num_elems());
        for ez in 0..nz {
            for ey in 0..ny {
                for ex in 0..nx {
                    let mut map = vec![0usize; n * n * n];
                    for kz in 0..n {
                        for ky in 0..n {
                            for kx in 0..n {
                                let loc = (kz * n + ky) * n + kx;
                                map[loc] = gid(ex * p + kx, ey * p + ky, ez * p + kz);
                            }
                        }
                    }
                    gmap.push(map);
                }
            }
        }
        let mut geom = Vec::with_capacity(mesh.num_elems());
        for verts in &mesh.elems {
            geom.push(elem_geometry3(&mesh, *verts, &basis));
        }
        let mut mult = vec![0.0f64; nglobal];
        let mut coords = vec![[0.0f64; 3]; nglobal];
        for (e, map) in gmap.iter().enumerate() {
            for (k, &g) in map.iter().enumerate() {
                mult[g] += 1.0;
                coords[g] = geom[e].xyz[k];
            }
        }
        Self {
            mesh,
            dims,
            basis,
            gmap,
            nglobal,
            geom,
            mult,
            coords,
        }
    }

    /// Nodes per element.
    pub fn nloc(&self) -> usize {
        let n = self.basis.n();
        n * n * n
    }

    /// Nodal interpolation of a function.
    pub fn project(&self, f: impl Fn(f64, f64, f64) -> f64) -> Vec<f64> {
        self.coords.iter().map(|&[x, y, z]| f(x, y, z)).collect()
    }

    /// Weak right-hand side `(v, f)`.
    pub fn weak_rhs(&self, f: impl Fn(f64, f64, f64) -> f64) -> Vec<f64> {
        let mut out = vec![0.0; self.nglobal];
        for (e, map) in self.gmap.iter().enumerate() {
            let g = &self.geom[e];
            for (k, &gidx) in map.iter().enumerate() {
                let [x, y, z] = g.xyz[k];
                out[gidx] += g.mass[k] * f(x, y, z);
            }
        }
        out
    }

    /// Assembled diagonal-mass product `M u`.
    pub fn apply_mass(&self, u: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.nglobal];
        self.apply_mass_into(u, &mut out);
        out
    }

    /// [`Space3d::apply_mass`] into a caller-provided output.
    pub fn apply_mass_into(&self, u: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        for (e, map) in self.gmap.iter().enumerate() {
            let g = &self.geom[e];
            for (k, &gidx) in map.iter().enumerate() {
                out[gidx] += g.mass[k] * u[gidx];
            }
        }
    }

    /// Domain integral of a nodal field.
    pub fn integrate(&self, u: &[f64]) -> f64 {
        let mut s = 0.0;
        for (e, map) in self.gmap.iter().enumerate() {
            let g = &self.geom[e];
            for (k, &gidx) in map.iter().enumerate() {
                s += g.mass[k] * u[gidx];
            }
        }
        s
    }

    /// L2 error of a nodal field against a function.
    pub fn l2_error(&self, u: &[f64], exact: impl Fn(f64, f64, f64) -> f64) -> f64 {
        let mut s = 0.0;
        for (e, map) in self.gmap.iter().enumerate() {
            let g = &self.geom[e];
            for (k, &gidx) in map.iter().enumerate() {
                let [x, y, z] = g.xyz[k];
                let d = u[gidx] - exact(x, y, z);
                s += g.mass[k] * d * d;
            }
        }
        s.sqrt()
    }

    /// One element's local Helmholtz application `ol = D'GD ul + λ M ul`
    /// on a pre-gathered local vector (tensor derivatives → metric flux →
    /// divergence). Scratch buffers are caller-provided so every path can
    /// reuse them; the arithmetic is identical on every path.
    fn helmholtz_elem_local(
        &self,
        e: usize,
        lambda: f64,
        ul: &[f64],
        du: &mut [Vec<f64>; 3],
        fl: &mut [Vec<f64>; 3],
        ol: &mut [f64],
    ) {
        let n = self.basis.n();
        let nloc = self.nloc();
        let d = &self.basis.d;
        let g = &self.geom[e];
        // Reference derivatives along each axis.
        for kz in 0..n {
            for ky in 0..n {
                for kx in 0..n {
                    let loc = (kz * n + ky) * n + kx;
                    let (mut s0, mut s1, mut s2) = (0.0, 0.0, 0.0);
                    for m in 0..n {
                        s0 += d[kx * n + m] * ul[(kz * n + ky) * n + m];
                        s1 += d[ky * n + m] * ul[(kz * n + m) * n + kx];
                        s2 += d[kz * n + m] * ul[(m * n + ky) * n + kx];
                    }
                    du[0][loc] = s0;
                    du[1][loc] = s1;
                    du[2][loc] = s2;
                }
            }
        }
        // Flux = G · du (symmetric 3x3 metric).
        for k in 0..nloc {
            let (a, b, c) = (du[0][k], du[1][k], du[2][k]);
            fl[0][k] = g.g[0][k] * a + g.g[1][k] * b + g.g[2][k] * c;
            fl[1][k] = g.g[1][k] * a + g.g[3][k] * b + g.g[4][k] * c;
            fl[2][k] = g.g[2][k] * a + g.g[4][k] * b + g.g[5][k] * c;
        }
        // ol = Σ_a D_aᵀ f_a + λ M u.
        for kz in 0..n {
            for ky in 0..n {
                for kx in 0..n {
                    let loc = (kz * n + ky) * n + kx;
                    let mut s = 0.0;
                    for m in 0..n {
                        s += d[m * n + kx] * fl[0][(kz * n + ky) * n + m];
                        s += d[m * n + ky] * fl[1][(kz * n + m) * n + kx];
                        s += d[m * n + kz] * fl[2][(m * n + ky) * n + kx];
                    }
                    ol[loc] = s + lambda * g.mass[loc] * ul[loc];
                }
            }
        }
    }

    /// Matrix-free Helmholtz operator `A u = ∫∇v·∇u + λ∫v u`.
    ///
    /// Allocates scratch; the hot loops use
    /// [`Space3d::apply_helmholtz_ws`].
    pub fn apply_helmholtz(&self, lambda: f64, u: &[f64], out: &mut [f64]) {
        self.apply_helmholtz_ws(lambda, u, out, &mut ApplyScratch::new());
    }

    /// [`Space3d::apply_helmholtz`] with caller-provided scratch: no
    /// per-call allocation.
    pub fn apply_helmholtz_ws(
        &self,
        lambda: f64,
        u: &[f64],
        out: &mut [f64],
        ws: &mut ApplyScratch,
    ) {
        out.iter_mut().for_each(|o| *o = 0.0);
        let nloc = self.nloc();
        ws.ensure(nloc);
        let ApplyScratch { ul, du, fl, ol } = ws;
        for (e, map) in self.gmap.iter().enumerate() {
            for (k, &gidx) in map.iter().enumerate() {
                ul[k] = u[gidx];
            }
            self.helmholtz_elem_local(e, lambda, &ul[..nloc], du, fl, &mut ol[..nloc]);
            for (k, &gidx) in map.iter().enumerate() {
                out[gidx] += ol[k];
            }
        }
    }

    /// Collocation gradient, averaged at shared DoFs: `(∂u/∂x, ∂u/∂y, ∂u/∂z)`.
    pub fn gradient(&self, u: &[f64]) -> [Vec<f64>; 3] {
        let mut out = [
            vec![0.0f64; self.nglobal],
            vec![0.0f64; self.nglobal],
            vec![0.0f64; self.nglobal],
        ];
        self.gradient_ws(u, &mut out, &mut ApplyScratch::new());
        out
    }

    /// [`Space3d::gradient`] into caller-provided outputs and scratch: no
    /// per-call allocation.
    pub fn gradient_ws(&self, u: &[f64], out: &mut [Vec<f64>; 3], ws: &mut ApplyScratch) {
        let n = self.basis.n();
        let nloc = self.nloc();
        let d = &self.basis.d;
        for b in out.iter_mut() {
            b.iter_mut().for_each(|v| *v = 0.0);
        }
        ws.ensure(nloc);
        let ul = &mut ws.ul;
        for (e, map) in self.gmap.iter().enumerate() {
            let g = &self.geom[e];
            for (k, &gidx) in map.iter().enumerate() {
                ul[k] = u[gidx];
            }
            for kz in 0..n {
                for ky in 0..n {
                    for kx in 0..n {
                        let loc = (kz * n + ky) * n + kx;
                        let (mut s0, mut s1, mut s2) = (0.0, 0.0, 0.0);
                        for m in 0..n {
                            s0 += d[kx * n + m] * ul[(kz * n + ky) * n + m];
                            s1 += d[ky * n + m] * ul[(kz * n + m) * n + kx];
                            s2 += d[kz * n + m] * ul[(m * n + ky) * n + kx];
                        }
                        for b in 0..3 {
                            out[b][map[loc]] += g.dref[b][loc] * s0
                                + g.dref[3 + b][loc] * s1
                                + g.dref[6 + b][loc] * s2;
                        }
                    }
                }
            }
        }
        for b in 0..3 {
            for gi in 0..self.nglobal {
                out[b][gi] /= self.mult[gi];
            }
        }
    }

    /// Global DoFs on boundary faces selected by `pred`.
    pub fn boundary_dofs(&self, pred: impl Fn(BoundaryTag) -> bool) -> Vec<usize> {
        let n = self.basis.n();
        let p = self.basis.p;
        let mut out = std::collections::BTreeSet::new();
        for &(e, face, tag) in &self.mesh.boundary {
            if !pred(tag) {
                continue;
            }
            for a in 0..n {
                for b in 0..n {
                    let (kx, ky, kz) = match face {
                        0 => (a, b, 0),
                        1 => (a, b, p),
                        2 => (a, 0, b),
                        3 => (p, a, b),
                        4 => (a, p, b),
                        5 => (0, a, b),
                        _ => unreachable!(),
                    };
                    out.insert(self.gmap[e][(kz * n + ky) * n + kx]);
                }
            }
        }
        out.into_iter().collect()
    }

    /// Helmholtz solve with Dirichlet lifting by a one-shot condensed engine
    /// on the Jacobi rung, mirroring
    /// [`crate::space2d::Space2d::solve_helmholtz`].
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
}

impl EllipticSpace for Space3d {
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
        Space3d::apply_helmholtz_ws(self, lambda, u, out, ws);
    }

    fn elem_matrix(&self, e: usize, lambda: f64, out: &mut [f64], ws: &mut ApplyScratch) {
        let nloc = self.nloc();
        assert!(out.len() >= nloc * nloc);
        ws.ensure(nloc);
        let ApplyScratch { ul, du, fl, ol, .. } = ws;
        for l in 0..nloc {
            ul[..nloc].iter_mut().for_each(|v| *v = 0.0);
            ul[l] = 1.0;
            self.helmholtz_elem_local(e, lambda, &ul[..nloc], du, fl, &mut ol[..nloc]);
            for k in 0..nloc {
                out[k * nloc + l] = ol[k];
            }
        }
    }

    fn elem_geom_bits(&self, e: usize, out: &mut Vec<u64>) {
        let g = &self.geom[e];
        for f in g.g.iter().chain([&g.mass]) {
            out.extend(f.iter().map(|v| v.to_bits()));
        }
    }

    fn node_roles(&self) -> Vec<NodeRole> {
        let n = self.basis.n();
        let p = self.basis.p;
        let ext = |i: usize| i == 0 || i == p;
        let mut roles = Vec::with_capacity(n * n * n);
        for kz in 0..n {
            for ky in 0..n {
                for kx in 0..n {
                    let (bx, by, bz) = (ext(kx), ext(ky), ext(kz));
                    let pinned = bx as u8 + by as u8 + bz as u8;
                    roles.push(match pinned {
                        3 => NodeRole::Vertex,
                        2 => {
                            // Edge id: free axis × which corner of the two
                            // pinned axes (ascending axis order).
                            let (free, hi_a, hi_b) = if !bx {
                                (0u8, (ky == p) as u8, (kz == p) as u8)
                            } else if !by {
                                (1, (kx == p) as u8, (kz == p) as u8)
                            } else {
                                (2, (kx == p) as u8, (ky == p) as u8)
                            };
                            NodeRole::Edge(free * 4 + hi_a * 2 + hi_b)
                        }
                        1 => {
                            let (axis, hi) = if bx {
                                (0u8, (kx == p) as u8)
                            } else if by {
                                (1, (ky == p) as u8)
                            } else {
                                (2, (kz == p) as u8)
                            };
                            NodeRole::Face(axis * 2 + hi)
                        }
                        _ => NodeRole::Interior,
                    });
                }
            }
        }
        roles
    }

    fn corner_hats(&self) -> (Vec<usize>, Vec<Vec<f64>>) {
        let n = self.basis.n();
        let p = self.basis.p;
        let nloc = n * n * n;
        // Same corner order (and trilinear shape signs) as the geometry.
        let signs: [[f64; 3]; 8] = [
            [-1.0, -1.0, -1.0],
            [1.0, -1.0, -1.0],
            [1.0, 1.0, -1.0],
            [-1.0, 1.0, -1.0],
            [-1.0, -1.0, 1.0],
            [1.0, -1.0, 1.0],
            [1.0, 1.0, 1.0],
            [-1.0, 1.0, 1.0],
        ];
        let at = |s: f64| if s > 0.0 { p } else { 0 };
        let locs: Vec<usize> = signs
            .iter()
            .map(|s| (at(s[2]) * n + at(s[1])) * n + at(s[0]))
            .collect();
        let pts = &self.basis.points;
        let mut hats = vec![vec![0.0; nloc]; 8];
        for kz in 0..n {
            for ky in 0..n {
                for kx in 0..n {
                    let loc = (kz * n + ky) * n + kx;
                    let r = [pts[kx], pts[ky], pts[kz]];
                    for (c, s) in signs.iter().enumerate() {
                        hats[c][loc] =
                            0.125 * (1.0 + s[0] * r[0]) * (1.0 + s[1] * r[1]) * (1.0 + s[2] * r[2]);
                    }
                }
            }
        }
        (locs, hats)
    }
}

fn elem_geometry3(mesh: &HexMesh, verts: [usize; 8], basis: &GllBasis) -> ElemGeom3 {
    let n = basis.n();
    let nloc = n * n * n;
    let vc: Vec<[f64; 3]> = verts.iter().map(|&v| mesh.coords[v]).collect();
    let mut g = ElemGeom3 {
        g: std::array::from_fn(|_| vec![0.0; nloc]),
        mass: vec![0.0; nloc],
        dref: std::array::from_fn(|_| vec![0.0; nloc]),
        xyz: vec![[0.0; 3]; nloc],
    };
    // Trilinear shape functions; vertex order per HexMesh convention.
    let signs: [[f64; 3]; 8] = [
        [-1.0, -1.0, -1.0],
        [1.0, -1.0, -1.0],
        [1.0, 1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
        [1.0, -1.0, 1.0],
        [1.0, 1.0, 1.0],
        [-1.0, 1.0, 1.0],
    ];
    for kz in 0..n {
        for ky in 0..n {
            for kx in 0..n {
                let loc = (kz * n + ky) * n + kx;
                let r = [basis.points[kx], basis.points[ky], basis.points[kz]];
                let mut x = [0.0f64; 3];
                for (a, s) in signs.iter().enumerate() {
                    let shape =
                        0.125 * (1.0 + s[0] * r[0]) * (1.0 + s[1] * r[1]) * (1.0 + s[2] * r[2]);
                    for c in 0..3 {
                        x[c] += shape * vc[a][c];
                    }
                }
                // jac[a][b] = ∂x_a/∂ξ_b, from the four edge vectors along
                // axis b weighted by the bilinear shape of the other two
                // axes — not from the vertex positions, so a translated
                // element has bitwise the same geometric factors and
                // congruent elements can share condensed products.
                let mut jac = [[0.0f64; 3]; 3];
                for b in 0..3 {
                    let (o1, o2) = ((b + 1) % 3, (b + 2) % 3);
                    for (lo, s) in signs.iter().enumerate() {
                        if s[b] > 0.0 {
                            continue;
                        }
                        let hi = signs
                            .iter()
                            .position(|t| t[b] > 0.0 && t[o1] == s[o1] && t[o2] == s[o2])
                            .expect("every −1 vertex has a +1 partner along each axis");
                        let wgt = 0.125 * (1.0 + s[o1] * r[o1]) * (1.0 + s[o2] * r[o2]);
                        for c in 0..3 {
                            jac[c][b] += wgt * (vc[hi][c] - vc[lo][c]);
                        }
                    }
                }
                let det = jac[0][0] * (jac[1][1] * jac[2][2] - jac[1][2] * jac[2][1])
                    - jac[0][1] * (jac[1][0] * jac[2][2] - jac[1][2] * jac[2][0])
                    + jac[0][2] * (jac[1][0] * jac[2][1] - jac[1][1] * jac[2][0]);
                assert!(det > 1e-14, "inverted/degenerate hex (|J| = {det})");
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
                let w = basis.weights[kx] * basis.weights[ky] * basis.weights[kz] * det;
                g.xyz[loc] = x;
                g.mass[loc] = w;
                for a in 0..3 {
                    for b in 0..3 {
                        g.dref[a * 3 + b][loc] = inv[a][b];
                    }
                }
                let metric = |a: usize, b: usize| -> f64 {
                    w * (inv[a][0] * inv[b][0] + inv[a][1] * inv[b][1] + inv[a][2] * inv[b][2])
                };
                g.g[0][loc] = metric(0, 0);
                g.g[1][loc] = metric(0, 1);
                g.g[2][loc] = metric(0, 2);
                g.g[3][loc] = metric(1, 1);
                g.g[4][loc] = metric(1, 2);
                g.g[5][loc] = metric(2, 2);
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    fn box_space(nx: usize, ny: usize, nz: usize, p: usize) -> Space3d {
        let mesh = HexMesh::box_mesh(nx, ny, nz, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        Space3d::new(mesh, [nx, ny, nz], p, false)
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
        let plain = Space3d::new(mesh.clone(), [2, 1, 1], 2, false);
        let per = Space3d::new(mesh, [2, 1, 1], 2, true);
        assert_eq!(plain.nglobal - per.nglobal, 3 * 3);
    }

    #[test]
    fn mapped_tube_volume_positive() {
        let mesh = HexMesh::tube(3, 3, 1.0, 5.0);
        let s = Space3d::new(mesh, [3, 3, 3], 3, false);
        let vol = s.integrate(&vec![1.0; s.nglobal]);
        // The square-to-disc map covers most of the π r² l = 15.7 cylinder.
        assert!(vol > 10.0 && vol < 16.0, "tube volume {vol}");
    }
}
