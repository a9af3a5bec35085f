//! Persistent elliptic solver engine: PCG on the statically condensed
//! element-boundary system, low-energy block preconditioners with an
//! assembled coarse vertex solve, successive-RHS projection warm starts.
//!
//! The paper attributes the scalability of its NεκTαr flow solver to
//! "low-energy preconditioning" of the conjugate-gradient Helmholtz and
//! Poisson solves, and NεκTαr applies that preconditioner to the
//! *statically condensed* system. So does this module, for the SEM
//! operators of [`crate::Space`] in 2D and 3D:
//!
//! * the GLL nodes of an element split into **boundary** (vertex / edge /
//!   face) and **interior** nodes; interiors couple to nothing outside
//!   their element, so at build each element's interior block `A_ii` is
//!   inverted once and eliminated, leaving the Schur complement
//!   `S_e = A_bb − A_bi A_ii⁻¹ A_ib` (`condense`). Elements with the
//!   same geometric factors and local Dirichlet pattern share one set of
//!   these products;
//! * a solve condenses the lifted right-hand side once, runs PCG on the
//!   compact vector of free element-boundary DoFs — a gather, one dense
//!   `S_e` product and a scatter-add per element — and recovers the
//!   interiors by one back-substitution (`engine`);
//! * `S` is preconditioned by the [`PreconKind`] ladder (`schur`):
//!   vertex diagonal plus assembled edge/face blocks of `S` is the basis
//!   split in which the high-order boundary modes are "low energy", and
//!   the Galerkin vertex coarse solve `P (PᵀSP)⁻¹ Pᵀ` makes iteration
//!   counts (nearly) independent of the element count;
//! * successive right-hand sides reuse the last `K` condensed solutions
//!   through an S-orthonormal projection warm start (`proj`).
//!
//! An [`EllipticSolver`] is created **once** per (space, λ, Dirichlet set)
//! and owns every buffer a solve needs, so the time-stepping hot loop
//! performs zero heap allocation. All kernels and inner products are
//! serial, so a solve's bits cannot depend on the thread count.

mod condense;
mod dense;
mod engine;
mod proj;
mod schur;
#[cfg(test)]
mod tests;

pub use engine::{EllipticSolver, SolveStats};

use nkg_artifact::ArtifactKey;

/// Reusable scratch for matrix-free Helmholtz applications (2D and 3D).
///
/// `du`/`fl` hold reference-space derivatives and metric fluxes (the 2D
/// kernel uses the first two of each), `ul`/`ol` the gathered/locally
/// applied element vectors.
#[derive(Debug, Default, Clone)]
pub struct ApplyScratch {
    pub(crate) ul: Vec<f64>,
    pub(crate) du: [Vec<f64>; 3],
    pub(crate) fl: [Vec<f64>; 3],
    pub(crate) ol: Vec<f64>,
}

impl ApplyScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow the per-element buffers to `nloc` entries.
    pub(crate) fn ensure(&mut self, nloc: usize) {
        if self.ul.len() < nloc {
            self.ul.resize(nloc, 0.0);
            self.ol.resize(nloc, 0.0);
            for b in &mut self.du {
                b.resize(nloc, 0.0);
            }
            for b in &mut self.fl {
                b.resize(nloc, 0.0);
            }
        }
    }
}

/// Topological role of a local tensor-product node inside one element.
///
/// The `u8` payload distinguishes the element's edges (2D: 4, 3D: 12) and
/// faces (3D: 6) so nodes on different entities never land in one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeRole {
    Vertex,
    Edge(u8),
    Face(u8),
    Interior,
}

/// What a space must expose for the elliptic engine to condense and
/// precondition it.
///
/// Implemented by [`crate::Space`] in both dimensions; the engine itself is
/// dimension-agnostic.
pub trait EllipticSpace {
    /// Global DoF count.
    fn nglobal(&self) -> usize;
    /// Spatial dimension D.
    fn dim(&self) -> usize;
    /// Element count.
    fn num_elems(&self) -> usize;
    /// Nodes per element.
    fn nloc(&self) -> usize;
    /// Local→global DoF map of element `e`.
    fn elem_gids(&self, e: usize) -> &[usize];
    /// Matrix-free `out = A u` with caller-provided scratch (no per-call
    /// allocation).
    fn apply_helmholtz_ws(&self, lambda: f64, u: &[f64], out: &mut [f64], ws: &mut ApplyScratch);
    /// [`EllipticSpace::apply_helmholtz_ws`] for a `u` that vanishes on
    /// every element outside `elems` (ascending), which an implementation
    /// may therefore skip: they would add exact zeros. This is how the
    /// engine lifts Dirichlet data — through the elements that own a
    /// Dirichlet DoF. The default visits all elements: the same vector,
    /// only slower.
    fn apply_helmholtz_elems_ws(
        &self,
        elems: &[usize],
        lambda: f64,
        u: &[f64],
        out: &mut [f64],
        ws: &mut ApplyScratch,
    ) {
        let _ = elems;
        self.apply_helmholtz_ws(lambda, u, out, ws);
    }
    /// Dense element Helmholtz matrix (row-major `nloc × nloc`): column
    /// `l` is the element kernel's image of the `l`-th unit vector, however
    /// an implementation arrives at it.
    fn elem_matrix(&self, e: usize, lambda: f64, out: &mut [f64], ws: &mut ApplyScratch);
    /// Append the bit patterns of everything [`EllipticSpace::elem_matrix`]
    /// reads for element `e` besides λ (the geometric factors). Elements
    /// that append equal words have bitwise equal element matrices, which
    /// is what lets the engine build one set of condensed products per
    /// class of congruent elements.
    fn elem_geom_bits(&self, e: usize, out: &mut Vec<u64>);
    /// Topological role of each local node (identical for every element of
    /// the tensor-product basis).
    fn node_roles(&self) -> Vec<NodeRole>;
    /// Element corners: local node index of each corner, and the Q1
    /// (bi/trilinear) hat values `hats[c][k]` of corner `c` at local node
    /// `k` — the element prolongation of the coarse vertex space.
    fn corner_hats(&self) -> (Vec<usize>, Vec<Vec<f64>>);
    /// Content fingerprint of the discretization (mesh geometry,
    /// connectivity and order), if the space can produce one. Feeds the
    /// `nkg-artifact` keys under which setup factorizations are shared;
    /// `None` (the default) opts the space out of caching — every build
    /// stays cold, which is always correct.
    fn fingerprint(&self) -> Option<ArtifactKey> {
        None
    }
}

/// The preconditioner rungs of the ablation ladder, all acting on the
/// condensed operator `S`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreconKind {
    /// Identity (plain CG).
    None,
    /// Pointwise inverse of the assembled diagonal of `S`.
    Jacobi,
    /// Vertex diagonal + assembled edge/face block inverses of `S`.
    LowEnergy,
    /// [`PreconKind::LowEnergy`] plus the Galerkin coarse vertex solve.
    LowEnergyCoarse,
}

impl PreconKind {
    /// Stable numeric code for snapshot fingerprints and artifact keys.
    pub(crate) fn code(self) -> u64 {
        match self {
            PreconKind::None => 0,
            PreconKind::Jacobi => 1,
            PreconKind::LowEnergy => 2,
            PreconKind::LowEnergyCoarse => 3,
        }
    }
}
