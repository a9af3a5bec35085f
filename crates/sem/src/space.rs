//! The continuous-Galerkin spectral-element space, written once for
//! quadrilaterals (`D = 2`) and hexahedra (`D = 3`): topological numbering
//! (optionally periodic in x), geometric factors, the matrix-free
//! Helmholtz operator and gradient, the assembled element matrix.
//!
//! Local node `k = Σ_a i_a (P+1)^a` sits at GLL point `i_a` along
//! reference axis `a`. The tensor contractions are [`vecmat`] sweeps, each
//! entry adding its terms in the order `m = 0, 1, …` from `0.0`. What
//! differs per dimension is the [`Cell`] impl of [`Dim<D>`] in
//! [`crate::space2d`] and [`crate::space3d`].

use crate::basis::GllBasis;
use crate::cg::CgResult;
use crate::precon::{ApplyScratch, EllipticSolver, EllipticSpace, NodeRole, PreconKind};
use nkg_artifact::{ArtifactKey, KeyHasher};
use nkg_mesh::quad::BoundaryTag;
use nkg_mesh::CubeMesh;
use nkg_simd::{vecmat, vecmat_strided};
use std::array::from_fn;
use std::collections::{BTreeSet, HashMap};

/// The spatial dimension as a type, for [`Cell`] to hang off.
pub struct Dim<const D: usize>;

/// What a [`Space`] needs to know about its dimension beyond `D`.
pub trait Cell<const D: usize> {
    type Mesh: CubeMesh<D>;
    /// Domain of the space's artifact-key fingerprint.
    const NAME: &'static str;
    /// `J[c][b] = ∂x_c/∂ξ_b` of the multilinear map at reference point
    /// `r`, from edge vectors rather than vertex positions: a translated
    /// element has bitwise the same geometric factors, so congruent
    /// elements share condensed products.
    fn jacobian(vc: &[[f64; D]], r: [f64; D]) -> [[f64; D]; D];
    /// `(det J, J⁻¹)` with `J⁻¹[a][b] = ∂ξ_a/∂x_b`.
    fn invert(jac: &[[f64; D]; D]) -> (f64, [[f64; D]; D]);
}

type Mesh<const D: usize> = <Dim<D> as Cell<D>>::Mesh;

/// Geometric factors of one element at its `(P+1)^D` GLL nodes.
#[derive(Debug, Clone)]
pub struct ElemGeom<const D: usize> {
    /// Stiffness metric `w |J| ∇ξ_a·∇ξ_b`, upper triangle row by row:
    /// `[g11, g12, g22]` in 2D, `[g11, g12, g13, g22, g23, g33]` in 3D.
    pub g: Vec<Vec<f64>>,
    /// Diagonal mass `w |J|`.
    pub mass: Vec<f64>,
    /// `∂ξ_a/∂x_b` at index `a·D + b`, for collocation gradients.
    pub dref: Vec<Vec<f64>>,
    /// Physical coordinates of the nodes.
    pub xyz: Vec<[f64; D]>,
}

/// A scalar CG-SEM function space of order `p` on a mesh of `D`-cubes:
/// [`crate::Space2d`] and [`crate::Space3d`].
pub struct Space<const D: usize>
where
    Dim<D>: Cell<D>,
{
    /// The mesh.
    pub mesh: Mesh<D>,
    /// 1D GLL basis (tensorized).
    pub basis: GllBasis,
    /// Per-element local→global DoF map.
    pub gmap: Vec<Vec<usize>>,
    /// Number of global DoFs.
    pub nglobal: usize,
    /// Per-element geometry.
    pub geom: Vec<ElemGeom<D>>,
    /// Node multiplicity (how many elements share each global DoF).
    pub mult: Vec<f64>,
    /// Global coordinates of each DoF.
    pub coords: Vec<[f64; D]>,
    /// Content fingerprint: the `nkg-artifact` key component under which
    /// setup factorizations over this discretization are shared.
    fp: ArtifactKey,
    /// `Dᵀ` of the basis, row-major, for the ξ-derivative's sweep.
    dt: Vec<f64>,
}

/// The mesh entity a shared node lies on, in a frame both elements sharing
/// it agree on: positions count from the entity's smallest vertex id, and
/// a face's first axis runs toward the smaller of that vertex's neighbours.
#[derive(Hash, PartialEq, Eq)]
enum NodeKey {
    Vertex(usize),
    Edge([usize; 2], usize),
    Face([usize; 3], [usize; 2]),
}

/// The axes that satisfy `pred`, ascending, and their count.
fn axes<const D: usize>(pred: impl Fn(usize) -> bool) -> ([usize; 3], usize) {
    let mut out = ([0; 3], 0);
    for a in (0..D).filter(|&a| pred(a)) {
        out.0[out.1] = a;
        out.1 += 1;
    }
    out
}

/// Step the reference-axis indices `i` of a local node to the next node.
fn next_node(i: &mut [usize], n: usize) {
    for ia in i {
        *ia += 1;
        if *ia < n {
            return;
        }
        *ia = 0;
    }
}

/// Reference-axis indices of local node `k`.
fn digits<const D: usize>(k: usize, n: usize) -> [usize; D] {
    from_fn(|a| k / n.pow(a as u32) % n)
}

/// The reference corner of element vertex `c`, per axis (`true`: `+1`).
pub(crate) fn corner_hi<const D: usize>(c: usize) -> [bool; D] {
    from_fn(|a| match a {
        0 => c % 4 == 1 || c % 4 == 2,
        1 => c % 4 >= 2,
        _ => c >= 4,
    })
}

/// Inverse of [`corner_hi`].
pub(crate) fn corner_of<const D: usize>(hi: [bool; D]) -> usize {
    [0, 1, 3, 2][hi[0] as usize + 2 * hi[1] as usize] + 4 * (hi.get(2) == Some(&true)) as usize
}

/// Multilinear hat of vertex `c` at reference point `r`:
/// `2^-D Π_a (1 ± r_a)`, multiplied in axis order.
fn hat<const D: usize>(c: usize, r: &[f64; D]) -> f64 {
    let hi = corner_hi::<D>(c);
    let mut h = 0.5f64.powi(D as i32);
    for a in 0..D {
        h *= 1.0 + if hi[a] { 1.0 } else { -1.0 } * r[a];
    }
    h
}

/// Index of `g_ab` in [`ElemGeom::g`].
pub(crate) fn sym(a: usize, b: usize, d: usize) -> usize {
    let (a, b) = (a.min(b), a.max(b));
    a * (2 * d - a - 1) / 2 + b
}

/// `out = Σ_b c_b .* du[b]`, `b` ascending from the first product: the
/// metric fluxes and the physical gradient of an element.
fn combine<const D: usize>(out: &mut [f64], c: [&[f64]; D], du: &[Vec<f64>; 3]) {
    for ((o, &c0), &d0) in out.iter_mut().zip(c[0]).zip(&du[0]) {
        *o = c0 * d0;
    }
    for (cb, db) in c.iter().zip(du).skip(1) {
        for ((o, &c), &d) in out.iter_mut().zip(*cb).zip(db) {
            *o += c * d;
        }
    }
}

impl<const D: usize> Space<D>
where
    Dim<D>: Cell<D>,
{
    /// Build the space. `periodic_x`: identify DoFs on the `x = min` and
    /// `x = max` sides (the mesh must have matching vertices there),
    /// enabling streamwise-periodic channel flows.
    pub fn new(mesh: Mesh<D>, p: usize, periodic_x: bool) -> Self {
        let basis = GllBasis::new(p);
        let n = p + 1;
        let nloc = n.pow(D as u32);
        let ne = mesh.num_elems();
        let vc = mesh.coords();
        let alias = periodic_alias(vc, periodic_x);
        // Shared nodes by entity key; an interior node is its element's
        // alone. Ids follow first appearance.
        let mut ids: HashMap<NodeKey, usize> = HashMap::new();
        let mut nglobal = 0;
        let mut gmap = Vec::with_capacity(ne);
        let mut geom = Vec::with_capacity(ne);
        for e in 0..ne {
            let v = mesh.elem_verts(e);
            let mut next = || {
                nglobal += 1;
                nglobal - 1
            };
            let mut i = [0usize; D];
            let map = (0..nloc).map(|_| {
                let key = node_key::<D>(v, &alias, i, p);
                next_node(&mut i, n);
                match key {
                    Some(key) => *ids.entry(key).or_insert_with(&mut next),
                    None => next(),
                }
            });
            gmap.push(map.collect::<Vec<_>>());
            let corners: Vec<[f64; D]> = v.iter().map(|&i| vc[i]).collect();
            geom.push(elem_geometry(&corners, &basis));
        }

        // Multiplicity and representative coordinates.
        let mut mult = vec![0.0f64; nglobal];
        let mut coords = vec![[0.0f64; D]; nglobal];
        for (map, g) in gmap.iter().zip(&geom) {
            for (k, &gid) in map.iter().enumerate() {
                mult[gid] += 1.0;
                coords[gid] = g.xyz[k];
            }
        }
        // Everything the elliptic setup products depend on, so equal
        // fingerprints mean bitwise-interchangeable factorizations.
        let fp = {
            let mut h = KeyHasher::new(Dim::<D>::NAME);
            h.usize(p);
            h.bool(periodic_x);
            h.usize(nglobal);
            h.usize(ne);
            for e in 0..ne {
                for &v in mesh.elem_verts(e) {
                    h.usize(v);
                }
            }
            for c in vc.iter().flatten() {
                h.f64(*c);
            }
            for map in &gmap {
                h.usizes(map);
            }
            h.finish()
        };
        let dt = (0..n * n).map(|k| basis.d[(k % n) * n + k / n]).collect();
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
        self.basis.n().pow(D as u32)
    }

    /// Interpolate a function of the position onto the global DoFs.
    pub fn project_at(&self, f: impl Fn(&[f64; D]) -> f64) -> Vec<f64> {
        self.coords.iter().map(f).collect()
    }

    /// Weak right-hand side `(v, f)`: element-wise `mass .* f(nodes)`,
    /// assembled.
    pub fn weak_rhs_at(&self, f: impl Fn(&[f64; D]) -> f64) -> Vec<f64> {
        let mut out = vec![0.0; self.nglobal];
        for (map, g) in self.gmap.iter().zip(&self.geom) {
            for (k, &gid) in map.iter().enumerate() {
                out[gid] += g.mass[k] * f(&g.xyz[k]);
            }
        }
        out
    }

    /// `Σ_e Σ_k term(mass, node position, global id)` over all nodes.
    fn mass_sum(&self, term: impl Fn(f64, &[f64; D], usize) -> f64) -> f64 {
        let mut total = 0.0;
        for (map, g) in self.gmap.iter().zip(&self.geom) {
            for (k, &gid) in map.iter().enumerate() {
                total += term(g.mass[k], &g.xyz[k], gid);
            }
        }
        total
    }

    /// L2 distance between a nodal field and a function of the position.
    pub fn l2_error_at(&self, u: &[f64], exact: impl Fn(&[f64; D]) -> f64) -> f64 {
        self.mass_sum(|m, x, gid| {
            let d = u[gid] - exact(x);
            m * d * d
        })
        .sqrt()
    }

    /// `M u` with the assembled diagonal mass matrix.
    pub fn apply_mass(&self, u: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.nglobal];
        self.apply_mass_into(u, &mut out);
        out
    }

    /// [`Space::apply_mass`] into a caller-provided output.
    pub fn apply_mass_into(&self, u: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        for (map, g) in self.gmap.iter().zip(&self.geom) {
            for (k, &gid) in map.iter().enumerate() {
                out[gid] += g.mass[k] * u[gid];
            }
        }
    }

    /// Domain integral of a nodal field.
    pub fn integrate(&self, u: &[f64]) -> f64 {
        self.mass_sum(|m, _, gid| m * u[gid])
    }

    /// Domain measure: area in 2D, volume in 3D.
    pub fn area(&self) -> f64 {
        self.integrate(&vec![1.0; self.nglobal])
    }

    /// L2 norm of a nodal field.
    pub fn l2_norm(&self, u: &[f64]) -> f64 {
        self.mass_sum(|m, _, gid| m * u[gid] * u[gid]).sqrt()
    }

    /// Reference derivatives `du[a] = ∂u/∂ξ_a` of one element, one
    /// [`vecmat`] per output row (ξ: the row times `Dᵀ`) or slab (row `i`
    /// of `D` times the `(P+1) × n^a` block it spans): the bits of the
    /// triple loop `s += d[i_a][m]·u[…m…]`.
    pub(crate) fn ref_derivatives(&self, ul: &[f64], du: &mut [Vec<f64>; 3]) {
        let n = self.basis.n();
        let nloc = ul.len();
        for (row, out) in ul.chunks_exact(n).zip(du[0][..nloc].chunks_exact_mut(n)) {
            vecmat(row, &self.dt, out);
        }
        for (a, du_a) in du.iter_mut().enumerate().take(D).skip(1) {
            let s = n.pow(a as u32);
            for (blk, out) in ul
                .chunks_exact(n * s)
                .zip(du_a[..nloc].chunks_exact_mut(n * s))
            {
                for (d_i, out_i) in self.basis.d.chunks_exact(n).zip(out.chunks_exact_mut(s)) {
                    vecmat(d_i, blk, out_i);
                }
            }
        }
    }

    /// One element's kernel on the gathered `ws.ul`: `ol = Σ_a D_aᵀ f_a +
    /// λ M ul`, `f_a = Σ_b g_ab ∂u/∂ξ_b`. The output pass is one sweep per
    /// row, the `D` products interleaved term by term as in the triple
    /// loop `s += d[m][i_0]·f_0[…m]; s += d[m][i_1]·f_1[…m…]; …`.
    fn helmholtz_elem(&self, e: usize, lambda: f64, ws: &mut ApplyScratch, nloc: usize) {
        let n = self.basis.n();
        let g = &self.geom[e];
        let ApplyScratch { ul, du, fl, ol } = ws;
        let ul = &ul[..nloc];
        self.ref_derivatives(ul, du);
        for (a, f) in fl.iter_mut().enumerate().take(D) {
            combine::<D>(&mut f[..nloc], from_fn(|b| &g.g[sym(a, b, D)][..]), du);
        }
        let st: [usize; D] = from_fn(|a| n.pow(a as u32));
        let stride = from_fn(|a| if a == 0 { n } else { st[a] });
        // The row's index along each axis a ≥ 1 picks a row of Dᵀ and the
        // slab of f_a the row lies in.
        let mut i = [0usize; D];
        for (r, ol_r) in ol[..nloc].chunks_exact_mut(n).enumerate() {
            let row = r * n..(r + 1) * n;
            let x = from_fn(|a| match a {
                0 => &fl[0][row.clone()],
                _ => &self.dt[i[a] * n..(i[a] + 1) * n],
            });
            let b = from_fn(|a| match a {
                0 => &self.basis.d[..],
                _ => &fl[a][row.start - i[a] * st[a]..][..(n - 1) * st[a] + n],
            });
            vecmat_strided::<D>(x, b, stride, ol_r);
            for ((o, &m), &u) in ol_r.iter_mut().zip(&g.mass[row.clone()]).zip(&ul[row]) {
                *o += lambda * m * u;
            }
            next_node(&mut i[1..], n);
        }
    }

    /// `A u = ∫∇v·∇u + λ ∫v u`, matrix-free (gather → element kernels →
    /// scatter-add). Allocates scratch; the hot loops use
    /// [`EllipticSpace::apply_helmholtz_ws`].
    pub fn apply_helmholtz(&self, lambda: f64, u: &[f64], out: &mut [f64]) {
        self.apply_helmholtz_elems(0..self.gmap.len(), lambda, u, out, &mut ApplyScratch::new());
    }

    /// `A u` summed over the elements `elems` only — one rank's share of a
    /// partitioned operator; shared DoFs hold partial sums until the
    /// caller assembles them. No heap allocation.
    pub fn apply_helmholtz_elems(
        &self,
        elems: impl IntoIterator<Item = usize>,
        lambda: f64,
        u: &[f64],
        out: &mut [f64],
        ws: &mut ApplyScratch,
    ) {
        out.fill(0.0);
        let nloc = self.nloc();
        ws.ensure(nloc);
        for e in elems {
            let map = &self.gmap[e];
            for (ul, &gid) in ws.ul.iter_mut().zip(map) {
                *ul = u[gid];
            }
            self.helmholtz_elem(e, lambda, ws, nloc);
            for (&ol, &gid) in ws.ol.iter().zip(map) {
                out[gid] += ol;
            }
        }
    }

    /// The diagonal of `A` over the elements `elems`, added into `out`
    /// (partial sums at shared DoFs, as above): per node `λ mass +
    /// Σ_m Σ_a g_aa d[m][i_a]² + Σ_{a<b} 2 g_ab d[i_a][i_a] d[i_b][i_b]`.
    pub fn add_helmholtz_diagonal(&self, elems: &[usize], lambda: f64, out: &mut [f64]) {
        let (n, d) = (self.basis.n(), &self.basis.d);
        let st: [usize; D] = from_fn(|a| n.pow(a as u32));
        for &e in elems {
            let g = &self.geom[e];
            let gaa: [&[f64]; D] = from_fn(|a| &g.g[sym(a, a, D)][..]);
            let mut i = [0usize; D];
            for (k, &gid) in self.gmap[e].iter().enumerate() {
                let mut v = lambda * g.mass[k];
                for m in 0..n {
                    for a in 0..D {
                        let dm = d[m * n + i[a]];
                        v += gaa[a][k + m * st[a] - i[a] * st[a]] * dm * dm;
                    }
                }
                for a in 0..D {
                    for b in a + 1..D {
                        v += 2.0 * g.g[sym(a, b, D)][k] * d[i[a] * n + i[a]] * d[i[b] * n + i[b]];
                    }
                }
                out[gid] += v;
                next_node(&mut i, n);
            }
        }
    }

    /// Collocation gradient: per-element tensor derivatives mapped to
    /// physical space, averaged at shared DoFs.
    pub fn gradient(&self, u: &[f64]) -> [Vec<f64>; D] {
        let mut out = from_fn(|_| vec![0.0f64; self.nglobal]);
        self.gradient_ws(u, &mut out, &mut ApplyScratch::new());
        out
    }

    /// [`Space::gradient`] into caller-provided outputs and scratch.
    pub fn gradient_ws(&self, u: &[f64], out: &mut [Vec<f64>; D], ws: &mut ApplyScratch) {
        let nloc = self.nloc();
        for o in out.iter_mut() {
            o.fill(0.0);
        }
        ws.ensure(nloc);
        let ApplyScratch { ul, du, fl, .. } = ws;
        for (map, g) in self.gmap.iter().zip(&self.geom) {
            for (ul, &gid) in ul.iter_mut().zip(map) {
                *ul = u[gid];
            }
            self.ref_derivatives(&ul[..nloc], du);
            for (b, o) in out.iter_mut().enumerate() {
                let dx = &mut fl[b][..nloc];
                combine::<D>(dx, from_fn(|a| &g.dref[a * D + b][..]), du);
                for (&v, &gid) in dx.iter().zip(map) {
                    o[gid] += v;
                }
            }
        }
        for o in out.iter_mut() {
            for (v, m) in o.iter_mut().zip(&self.mult) {
                *v /= m;
            }
        }
    }

    /// Global DoF ids on boundary facets whose tag satisfies `pred`,
    /// ascending.
    pub fn boundary_dofs(&self, pred: impl Fn(BoundaryTag) -> bool) -> Vec<usize> {
        let (n, p) = (self.basis.n(), self.basis.p);
        let mut out = BTreeSet::new();
        for &(e, facet, tag) in self.mesh.boundary() {
            if pred(tag) {
                // The facet's nodes: index `at` along `axis`, any other.
                let (axis, hi) = Mesh::<D>::FACETS[facet];
                let (s, at) = (n.pow(axis as u32), if hi { p } else { 0 });
                let k = |j: usize| j % s + (at + j / s * n) * s;
                out.extend((0..self.nloc() / n).map(|j| self.gmap[e][k(j)]));
            }
        }
        out.into_iter().collect()
    }

    /// Solve `-∇²u + λu = f` for a weak-form `rhs_weak`, with Dirichlet
    /// values `bc_value` on the DoFs `dirichlet`, by a one-shot condensed
    /// engine on the Jacobi rung. Returns the solution and CG diagnostics.
    pub fn solve_helmholtz(
        &self,
        lambda: f64,
        rhs_weak: &[f64],
        dirichlet: &[usize],
        bc_value: &[f64],
        tol: f64,
        max_iter: usize,
    ) -> (Vec<f64>, CgResult) {
        let kind = PreconKind::Jacobi;
        let mut eng = EllipticSolver::new(self, lambda, dirichlet, kind, tol, max_iter, 0, 0);
        let mut x = vec![0.0f64; self.nglobal];
        let stats = eng.solve_into(self, rhs_weak, bc_value, &mut x, usize::MAX);
        (x, stats.cg)
    }
}

impl<const D: usize> EllipticSpace for Space<D>
where
    Dim<D>: Cell<D>,
{
    fn nglobal(&self) -> usize {
        self.nglobal
    }

    fn dim(&self) -> usize {
        D
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
        self.apply_helmholtz_elems(0..self.gmap.len(), lambda, u, out, ws);
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
    /// unit vectors through the kernel. The unit vector at node `q` has
    /// `∂/∂ξ_b` on the line through `q` along axis `b` only, so the fluxes
    /// live on those `D` lines, and an output sees: at `q`, every axis'
    /// full sum and the mass term; on line `b`, axis `b`'s full sum and
    /// every other axis' term at `m = q_a`; on the plane of lines `a` and
    /// `b`, axis `a`'s term at `m = q_a` and `b`'s at `m = q_b`; elsewhere
    /// nothing. Every entry adds the kernel's non-zero terms in the
    /// kernel's order from `0.0`; the rest are exact zeros, so the entries
    /// `==` the probed ones (`assembled_elem_matrix_equals_the_probe`).
    fn elem_matrix(&self, e: usize, lambda: f64, out: &mut [f64], ws: &mut ApplyScratch) {
        let (n, nloc) = (self.basis.n(), self.nloc());
        assert!(out.len() >= nloc * nloc);
        ws.ensure(nloc);
        let (d, g) = (&self.basis.d, &self.geom[e]);
        let st: [usize; D] = from_fn(|a| n.pow(a as u32));
        let gm: [[&[f64]; D]; D] = from_fn(|a| from_fn(|b| &g.g[sym(a, b, D)][..]));
        // `fl[a][b·n + m]`: flux `f_a` at position `m` of line `b`.
        let ApplyScratch { du, fl, ol, .. } = ws;
        let (col, acc) = (&mut ol[..nloc], &mut du[0][..n]);
        let mut q = [0usize; D];
        for c in 0..nloc {
            for b in 0..D {
                for m in 0..n {
                    let k = c - q[b] * st[b] + m * st[b];
                    // `0.0 + d`: a sum from `0.0` turns a `-0.0` into `+0.0`.
                    let du: [f64; D] = from_fn(|a| match (a == b, m == q[b]) {
                        (true, _) => 0.0 + d[m * n + q[b]],
                        (false, true) => 0.0 + d[q[a] * n + q[a]],
                        (false, false) => 0.0,
                    });
                    for (a, ga) in gm.iter().enumerate() {
                        let mut s = ga[0][k] * du[0];
                        for (gab, &dv) in ga.iter().zip(&du).skip(1) {
                            s += gab[k] * dv;
                        }
                        fl[a][b * n + m] = s;
                    }
                }
            }
            if D > 2 {
                col.fill(0.0);
            }
            // The planes, lines included (overwritten below). Two terms
            // from `0.0` have the same sum in either order.
            for a in 0..D {
                for b in a + 1..D {
                    let base = c - q[a] * st[a] - q[b] * st[b];
                    let (d_qa, f_b) = (&d[q[a] * n..][..n], &fl[b][a * n..][..n]);
                    for kb in 0..n {
                        let (fa, db) = (fl[a][b * n + kb], d[q[b] * n + kb]);
                        let start = base + kb * st[b];
                        for ka in 0..n {
                            col[start + ka * st[a]] = (0.0 + d_qa[ka] * fa) + db * f_b[ka];
                        }
                    }
                }
            }
            // The lines, summed for all `n` positions at once.
            for b in 0..D {
                acc.fill(0.0);
                for mm in 0..n {
                    for a in 0..D {
                        let (x, y) = if a == b {
                            (&fl[b][b * n + mm], &d[mm * n..][..n])
                        } else if mm == q[a] {
                            (&d[q[a] * n + q[a]], &fl[a][b * n..][..n])
                        } else {
                            continue;
                        };
                        for (s, &v) in acc.iter_mut().zip(y) {
                            *s += v * x;
                        }
                    }
                }
                for (m, &s) in acc.iter().enumerate().filter(|&(m, _)| m != q[b]) {
                    col[c - q[b] * st[b] + m * st[b]] = s;
                }
            }
            let mut s = 0.0;
            for mm in 0..n {
                for a in 0..D {
                    s += d[mm * n + q[a]] * fl[a][a * n + mm];
                }
            }
            col[c] = s + lambda * g.mass[c];
            for (r, &v) in col.iter().enumerate() {
                out[r * nloc + c] = v;
            }
            next_node(&mut q, n);
        }
    }

    fn elem_geom_bits(&self, e: usize, out: &mut Vec<u64>) {
        let g = &self.geom[e];
        for f in g.g.iter().chain([&g.mass]) {
            out.extend(f.iter().map(|v| v.to_bits()));
        }
    }

    /// An entity with one pinned axis is numbered `axis·2 + (at +1)`, a 3D
    /// edge `free axis·4 + (its corner in the two pinned axes)`.
    fn node_roles(&self) -> Vec<NodeRole> {
        let (n, p) = (self.basis.n(), self.basis.p);
        let roles = (0..self.nloc()).map(|k| {
            let i = digits::<D>(k, n);
            let (pinned, np) = axes::<D>(|a| i[a] == 0 || i[a] == p);
            let pinned = &pinned[..np];
            let hi = |a: usize| (i[a] == p) as u8;
            match pinned[..] {
                [] => NodeRole::Interior,
                _ if pinned.len() == D => NodeRole::Vertex,
                [a] if D == 2 => NodeRole::Edge(a as u8 * 2 + hi(a)),
                [a] => NodeRole::Face(a as u8 * 2 + hi(a)),
                [a, b, ..] => NodeRole::Edge((3 - a - b) as u8 * 4 + hi(a) * 2 + hi(b)),
            }
        });
        roles.collect()
    }

    fn fingerprint(&self) -> Option<ArtifactKey> {
        Some(self.fp)
    }

    /// Corner order matches the element vertex order of the mesh.
    fn corner_hats(&self) -> (Vec<usize>, Vec<Vec<f64>>) {
        let (n, p) = (self.basis.n(), self.basis.p);
        let corners = 0..1 << D;
        let at = |c: usize| -> usize {
            let hi = corner_hi::<D>(c);
            (0..D).filter(|&a| hi[a]).map(|a| p * n.pow(a as u32)).sum()
        };
        let node = |k: usize| digits::<D>(k, n).map(|i| self.basis.points[i]);
        let hats = corners
            .clone()
            .map(|c| (0..self.nloc()).map(|k| hat(c, &node(k))).collect());
        (corners.map(at).collect(), hats.collect())
    }
}

/// The entity key of the local node at reference indices `i` of an element
/// with vertices `v`, or
/// `None` for an interior node. Vertex ids are always periodically aliased;
/// an edge's or face's only when all lie on the `x = max` seam — else two
/// entities of a mesh two elements wide would share their aliased ids.
fn node_key<const D: usize>(
    v: &[usize],
    alias: &[usize],
    i: [usize; D],
    p: usize,
) -> Option<NodeKey> {
    let free = axes::<D>(|a| i[a] != 0 && i[a] != p);
    let free = &free.0[..free.1];
    // Vertex at the entity corner `ends` (one flag per free axis).
    let vert = |ends: &[bool]| {
        let hi: [bool; D] = from_fn(|a| match free.iter().position(|&f| f == a) {
            Some(j) => ends[j],
            None => i[a] == p,
        });
        v[corner_of::<D>(hi)]
    };
    let ids = |vs: &mut [usize]| {
        if vs.iter().all(|&x| alias[x] != x) {
            vs.iter_mut().for_each(|x| *x = alias[*x]);
        }
    };
    Some(match free[..] {
        _ if free.len() == D => return None,
        [] => NodeKey::Vertex(alias[vert(&[])]),
        [a] => {
            let mut vs = [vert(&[false]), vert(&[true])];
            ids(&mut vs);
            match vs[0] < vs[1] {
                true => NodeKey::Edge(vs, i[a]),
                false => NodeKey::Edge([vs[1], vs[0]], p - i[a]),
            }
        }
        [a, b, ..] => {
            let mut vs =
                [[false, false], [true, false], [false, true], [true, true]].map(|c| vert(&c));
            ids(&mut vs);
            // Origin: the smallest id; flip each axis to start there, then
            // order the axes by the origin's neighbour along each.
            let o = (0..4).min_by_key(|&j| vs[j]).unwrap();
            let (fa, fb) = (o & 1 == 1, o & 2 == 2);
            let pos = [
                if fa { p - i[a] } else { i[a] },
                if fb { p - i[b] } else { i[b] },
            ];
            let (na, nb) = (vs[o ^ 1], vs[o ^ 2]);
            match na < nb {
                true => NodeKey::Face([vs[o], na, nb], pos),
                false => NodeKey::Face([vs[o], nb, na], [pos[1], pos[0]]),
            }
        }
    })
}

/// Each vertex on the `x = max` side maps to its partner on the `x = min`
/// side, all others to themselves.
fn periodic_alias<const D: usize>(coords: &[[f64; D]], periodic_x: bool) -> Vec<usize> {
    let mut alias: Vec<usize> = (0..coords.len()).collect();
    if !periodic_x {
        return alias;
    }
    let xmin = coords.iter().map(|p| p[0]).fold(f64::MAX, f64::min);
    let xmax = coords.iter().map(|p| p[0]).fold(f64::MIN, f64::max);
    let tol = 1e-9 * (xmax - xmin).max(1.0);
    for (v, pv) in coords.iter().enumerate() {
        if (pv[0] - xmax).abs() < tol {
            let partner = |q: &[f64; D]| {
                (q[0] - xmin).abs() < tol && (1..D).all(|a| (q[a] - pv[a]).abs() < tol)
            };
            alias[v] = coords
                .iter()
                .position(partner)
                .expect("periodic_x: no matching vertex on the opposite side");
        }
    }
    alias
}

/// Geometric factors of one element with corner coordinates `vc`.
fn elem_geometry<const D: usize>(vc: &[[f64; D]], basis: &GllBasis) -> ElemGeom<D>
where
    Dim<D>: Cell<D>,
{
    let n = basis.n();
    let nloc = n.pow(D as u32);
    let mut g = ElemGeom {
        g: vec![vec![0.0; nloc]; D * (D + 1) / 2],
        mass: vec![0.0; nloc],
        dref: vec![vec![0.0; nloc]; D * D],
        xyz: vec![[0.0; D]; nloc],
    };
    let mut i = [0usize; D];
    for k in 0..nloc {
        let r = i.map(|i| basis.points[i]);
        for (c, v) in vc.iter().enumerate() {
            let h = hat(c, &r);
            for (x, &vx) in g.xyz[k].iter_mut().zip(v) {
                *x += h * vx;
            }
        }
        let (det, inv) = Dim::<D>::invert(&Dim::<D>::jacobian(vc, r));
        assert!(
            det > 1e-14,
            "element has non-positive Jacobian {det} (inverted or degenerate)"
        );
        let mut w = basis.weights[i[0]];
        for &ia in &i[1..] {
            w *= basis.weights[ia];
        }
        w *= det;
        g.mass[k] = w;
        for a in 0..D {
            for b in 0..D {
                g.dref[a * D + b][k] = inv[a][b];
            }
            for b in a..D {
                let mut s = inv[a][0] * inv[b][0];
                for c in 1..D {
                    s += inv[a][c] * inv[b][c];
                }
                g.g[sym(a, b, D)][k] = w * s;
            }
        }
        next_node(&mut i, n);
    }
    g
}
