//! The persistent solver object: lift, condense, PCG on `S`,
//! back-substitute.

use super::condense::ElemScratch;
use super::proj::{self, ProjBasis};
use super::schur::{Factors, PreconScratch};
use super::{ApplyScratch, EllipticSpace, PreconKind};
use crate::cg::{pcg_until, CgResult, CgWorkspace};
use nkg_artifact::{cached, KeyHasher};
use nkg_ckpt::{CkptError, Dec, Enc};
use std::sync::Arc;

/// Diagnostics of one [`EllipticSolver::solve_into`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// CG outcome (iterations, residual, convergence, breakdown flag). The
    /// residual is `‖g − S x_b‖₂` of the condensed system, which is the
    /// residual of the full system: back-substitution leaves the interior
    /// rows exact.
    pub cg: CgResult,
    /// Number of projection-basis vectors used for the initial guess.
    pub proj_dim: usize,
}

/// Persistent elliptic solver: one per (space, λ, Dirichlet set).
///
/// Owns the condensed operator and preconditioner (shared through the
/// artifact cache), the CG workspace and the projection bases;
/// [`EllipticSolver::solve_into`] allocates nothing. The space is passed
/// to each call (rather than owned) so the NS solvers can hold an engine
/// next to the space they both borrow.
pub struct EllipticSolver {
    lambda: f64,
    kind: PreconKind,
    tol: f64,
    max_iter: usize,
    dirichlet: Vec<usize>,
    /// Elements owning a Dirichlet DoF, ascending: the only ones a
    /// Dirichlet lifting `A x_bc` has to visit.
    lift_elems: Vec<usize>,
    pub(super) factors: Arc<Factors>,
    cg_ws: CgWorkspace,
    lift_ws: ApplyScratch,
    pub(super) elem_ws: ElemScratch,
    pub(super) precon_ws: PreconScratch,
    /// Global-length: Dirichlet lifting `x_bc` and `A x_bc`.
    x_bc: Vec<f64>,
    ax: Vec<f64>,
    /// Compact-length: condensed RHS, solution and `S·solution`.
    g: Vec<f64>,
    xb: Vec<f64>,
    sxb: Vec<f64>,
    /// `A_ii⁻¹ b_i` of every element, kept from condensation for the
    /// back-substitution.
    yint: Vec<f64>,
    proj: Vec<ProjBasis>,
}

impl EllipticSolver {
    /// Build an engine for `space` at shift `lambda` with Dirichlet DoFs
    /// `dirichlet`. `proj_slots` independent RHS streams (e.g. one per
    /// velocity component) each keep up to `proj_depth` past solutions for
    /// warm starts; `proj_depth = 0` disables projection.
    #[allow(clippy::too_many_arguments)]
    pub fn new<S: EllipticSpace + ?Sized>(
        space: &S,
        lambda: f64,
        dirichlet: &[usize],
        kind: PreconKind,
        tol: f64,
        max_iter: usize,
        proj_slots: usize,
        proj_depth: usize,
    ) -> Self {
        let n = space.nglobal();
        let mut masked = vec![false; n];
        for &d in dirichlet {
            masked[d] = true;
        }
        let build = || Factors::build(space, lambda, &masked, kind);
        // Cache-first: engines over the same (space, λ, Dirichlet set,
        // rung) Arc-share one set of factors through the ambient
        // `nkg-artifact` cache. Without an ambient cache, or for a space
        // with no fingerprint, this is exactly the cold build — and a
        // cache hit is the *same* immutable object, so the solve
        // arithmetic is bitwise unchanged.
        let factors = match space.fingerprint() {
            Some(fp) => {
                let mut h = KeyHasher::new("precon");
                h.key(fp);
                h.f64(lambda);
                h.u64(kind.code());
                h.usizes(dirichlet);
                cached("precon", h.finish(), build)
            }
            None => Arc::new(build()),
        };
        // A disk artifact is decoded against its own stored sizes only; one
        // that is not for this space's vectors is as good as a miss.
        let factors = if factors.op.nglobal == n {
            factors
        } else {
            Arc::new(build())
        };
        let nb = factors.op.nb();
        let lift_elems = (0..space.num_elems())
            .filter(|&e| space.elem_gids(e).iter().any(|&g| masked[g]))
            .collect();
        Self {
            lambda,
            kind,
            tol,
            max_iter,
            dirichlet: dirichlet.to_vec(),
            lift_elems,
            cg_ws: CgWorkspace::new(),
            lift_ws: ApplyScratch::new(),
            elem_ws: ElemScratch::for_operator(&factors.op),
            precon_ws: PreconScratch::for_precon(&factors.precon),
            x_bc: vec![0.0; n],
            ax: vec![0.0; n],
            g: vec![0.0; nb],
            xb: vec![0.0; nb],
            sxb: vec![0.0; nb],
            yint: vec![0.0; factors.op.interior_len()],
            proj: (0..proj_slots)
                .map(|_| ProjBasis::new(proj_depth))
                .collect(),
            factors,
        }
    }

    /// The shift λ this engine was factored for.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The preconditioner rung in use.
    pub fn kind(&self) -> PreconKind {
        self.kind
    }

    /// Current projection-basis size of `slot` (0 when projection is off).
    pub fn proj_len(&self, slot: usize) -> usize {
        self.proj.get(slot).map_or(0, |p| p.len())
    }

    /// Number of free element-boundary DoFs: the length of the vectors CG
    /// iterates on and of the projection bases.
    pub fn condensed_len(&self) -> usize {
        self.factors.op.nb()
    }

    /// Element classes of the condensed operator, and the bytes of their
    /// products (`S_e`, `W`, `A_ii⁻¹`) summed over the classes.
    pub fn class_footprint(&self) -> (usize, usize) {
        let classes = &self.factors.op.classes;
        (classes.len(), classes.iter().map(|c| c.bytes()).sum())
    }

    /// Solve `(-∇² + λ) u = f` (weak RHS) with Dirichlet values
    /// `bc_value[i]` at the engine's `dirichlet[i]`, writing the solution
    /// into `x`. `slot` selects the projection stream; pass any index ≥
    /// `proj_slots` (or build with `proj_depth = 0`) for a cold start.
    ///
    /// CG stops on `‖g − S x_b‖ ≤ tol·‖b‖`, `b` the full lifted RHS on the
    /// free DoFs. The hot path performs zero heap allocation.
    pub fn solve_into<S: EllipticSpace + ?Sized>(
        &mut self,
        space: &S,
        rhs_weak: &[f64],
        bc_value: &[f64],
        x: &mut [f64],
        slot: usize,
    ) -> SolveStats {
        assert_eq!(bc_value.len(), self.dirichlet.len());
        let Self {
            factors,
            elem_ws,
            precon_ws,
            cg_ws,
            g,
            xb,
            ..
        } = self;
        let Factors { op, precon } = &**factors;

        // Dirichlet lifting b = rhs − A x_bc on the free DoFs, condensed
        // as it is formed. Homogeneous data lifts to exactly `rhs`.
        self.x_bc.fill(0.0);
        for (&d, &v) in self.dirichlet.iter().zip(bc_value) {
            self.x_bc[d] = v;
        }
        let lift = bc_value.iter().any(|&v| v != 0.0).then(|| {
            space.apply_helmholtz_elems_ws(
                &self.lift_elems,
                self.lambda,
                &self.x_bc,
                &mut self.ax,
                &mut self.lift_ws,
            );
            &self.ax[..]
        });
        let bnorm2 = op.condense_rhs(rhs_weak, lift, g, &mut self.yint, elem_ws);

        // Warm start by projection onto past solutions.
        let proj_dim = match self.proj.get(slot) {
            Some(basis) if basis.enabled() => basis.guess(g, xb),
            _ => {
                xb.fill(0.0);
                0
            }
        };

        let cg = pcg_until(
            |p, out| op.apply(p, out, elem_ws),
            |r, z| precon.apply(r, z, precon_ws),
            g,
            xb,
            self.tol * bnorm2.sqrt().max(1e-300),
            self.max_iter,
            cg_ws,
        );

        // Absorb the condensed solution into the projection basis.
        if let Some(basis) = self.proj.get_mut(slot).filter(|p| p.enabled()) {
            op.apply(xb, &mut self.sxb, elem_ws);
            basis.absorb(xb, &self.sxb);
        }

        x.copy_from_slice(&self.x_bc);
        op.back_substitute(xb, &self.yint, x, elem_ws);
        SolveStats { cg, proj_dim }
    }

    /// Append the projection bases for checkpointing; see
    /// [`EllipticSolver::restore_proj`].
    pub fn snapshot_proj(&self, enc: &mut Enc) {
        proj::snapshot(enc, self.condensed_len(), &self.proj);
    }

    /// Restore bases written by [`EllipticSolver::snapshot_proj`] of an
    /// engine over the same condensed space, after which this engine
    /// continues bitwise as that one would have. A section from any other
    /// layout is refused with a typed error.
    pub fn restore_proj(&mut self, dec: &mut Dec<'_>) -> Result<(), CkptError> {
        proj::restore(dec, self.factors.op.nb(), &mut self.proj)
    }
}
