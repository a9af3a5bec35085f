//! Unsteady incompressible Navier–Stokes in 2D: the stiffly-stable
//! velocity-correction splitting of Karniadakis–Israeli–Orszag (JCP 1991),
//! the time-stepping scheme of NεκTαr-3D, here on quadrilateral SEM spaces.
//!
//! Per step (order J ∈ {1,2} shown for J=2 with γ₀ = 3/2, α = [2, -1/2],
//! β = [2, -1]):
//!
//! 1. **advection**: `u* = Σ α_q u^{n-q} + Δt(−Σ β_q N(u^{n-q}) + f^{n+1})`
//!    with `N(u) = (u·∇)u` in collocation form;
//! 2. **pressure**: solve `∇²p = ∇·u*/Δt` (weak Poisson, homogeneous
//!    Neumann on velocity-Dirichlet boundaries, Dirichlet where the caller
//!    marks pressure outlets); project `ũ = u* − Δt ∇p`;
//! 3. **viscous**: Helmholtz solve `(−∇² + λ)u^{n+1} = λ_ν ũ` with
//!    `λ = γ₀/(νΔt)`, velocity Dirichlet boundary values at `t^{n+1}`.
//!
//! Boundary values normally come from the configured closure; the coupling
//! layer overrides individual interface DoFs each exchange through
//! [`NsSolver2d::velocity_overrides_mut`] — that is exactly how the paper's
//! inter-patch and continuum→atomistic conditions enter the solver.

use crate::precon::{ApplyScratch, EllipticSolver, PreconKind};
use crate::space2d::Space2d;
use nkg_ckpt::{CkptError, Dec, Enc, Snapshot};
use nkg_mesh::quad::BoundaryTag;

/// Numerical parameters of the splitting scheme.
#[derive(Clone)]
pub struct NsConfig {
    /// Kinematic viscosity ν.
    pub nu: f64,
    /// Time step Δt.
    pub dt: f64,
    /// Temporal order (1 or 2).
    pub time_order: usize,
    /// CG tolerance for the pressure and viscous solves.
    pub tol: f64,
    /// CG iteration cap.
    pub max_iter: usize,
    /// Preconditioner rung for the elliptic solves.
    pub precon: PreconKind,
    /// Successive-RHS projection depth (0 disables warm starts).
    pub proj_depth: usize,
}

impl Default for NsConfig {
    fn default() -> Self {
        Self {
            nu: 0.01,
            dt: 1e-3,
            time_order: 2,
            tol: 1e-10,
            max_iter: 4000,
            precon: PreconKind::LowEnergyCoarse,
            proj_depth: 8,
        }
    }
}

/// Per-step elliptic-solve telemetry (pressure Poisson + the velocity
/// Helmholtz solves), surfaced into the metasolver's `RunReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepSolveStats {
    /// Pressure CG iterations.
    pub pressure_iterations: usize,
    /// Final pressure residual 2-norm.
    pub pressure_residual: f64,
    /// Projection-basis size used for the pressure warm start.
    pub pressure_proj_dim: usize,
    /// Velocity Helmholtz iterations, summed over components.
    pub viscous_iterations: usize,
    /// Largest final viscous residual over the components.
    pub viscous_residual: f64,
    /// Largest viscous projection-basis size over the components.
    pub viscous_proj_dim: usize,
    /// True when any solve hit a CG breakdown (`pᵀAp ≤ 0`).
    pub breakdown: bool,
}

impl StepSolveStats {
    pub(crate) fn snapshot_into(&self, enc: &mut Enc) {
        enc.put(self.pressure_iterations as u64);
        enc.put(self.pressure_residual);
        enc.put(self.pressure_proj_dim as u64);
        enc.put(self.viscous_iterations as u64);
        enc.put(self.viscous_residual);
        enc.put(self.viscous_proj_dim as u64);
        enc.put(self.breakdown as u64);
    }

    pub(crate) fn restore_from(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        Ok(Self {
            pressure_iterations: dec.take::<u64>()? as usize,
            pressure_residual: dec.take()?,
            pressure_proj_dim: dec.take::<u64>()? as usize,
            viscous_iterations: dec.take::<u64>()? as usize,
            viscous_residual: dec.take()?,
            viscous_proj_dim: dec.take::<u64>()? as usize,
            breakdown: dec.take::<u64>()? != 0,
        })
    }
}

/// Buffers of one [`NsSolver2d::step`], allocated once so stepping does
/// not touch the heap.
struct StepWorkspace {
    grad: ApplyScratch,
    /// Advection terms of the current fields; swapped into the history at
    /// the end of the step.
    nu: Vec<f64>,
    nv: Vec<f64>,
    ustar: Vec<f64>,
    vstar: Vec<f64>,
    /// Outputs of the latest gradient.
    gx: Vec<f64>,
    gy: Vec<f64>,
    div: Vec<f64>,
    /// Weak right-hand side of the solve in progress.
    rhs: Vec<f64>,
    /// Dirichlet values at `vel_dofs` / the pressure engine's Dirichlet set.
    ubc: Vec<f64>,
    vbc: Vec<f64>,
    pbc: Vec<f64>,
}

impl StepWorkspace {
    fn new(n: usize, n_vel_bc: usize, n_p_bc: usize) -> Self {
        let field = || vec![0.0f64; n];
        Self {
            grad: ApplyScratch::new(),
            nu: field(),
            nv: field(),
            ustar: field(),
            vstar: field(),
            gx: field(),
            gy: field(),
            div: field(),
            rhs: field(),
            ubc: vec![0.0; n_vel_bc],
            vbc: vec![0.0; n_vel_bc],
            pbc: vec![0.0; n_p_bc],
        }
    }
}

type VelBcFn = Box<dyn Fn(f64, f64, f64) -> (f64, f64) + Send + Sync>;
type ScalarBcFn = Box<dyn Fn(f64, f64, f64) -> f64 + Send + Sync>;
type ForceFn = Box<dyn Fn(f64, f64, f64) -> (f64, f64) + Send + Sync>;

/// 2D incompressible Navier–Stokes solver.
pub struct NsSolver2d {
    /// The function space shared by velocity components and pressure.
    pub space: Space2d,
    cfg: NsConfig,
    /// Velocity DoF ids with Dirichlet data.
    vel_dofs: Vec<usize>,
    vel_bc: VelBcFn,
    /// Pressure DoF ids with Dirichlet data (may be empty → nullspace pin).
    p_dofs: Vec<usize>,
    p_bc: ScalarBcFn,
    force: ForceFn,
    /// Velocity overrides (coupling data), slot `i` for `vel_dofs[i]`:
    /// `Some` replaces the closure's value there.
    overrides: Vec<Option<(f64, f64)>>,
    /// Pressure overrides (coupling data for artificial outlets), slot `i`
    /// for `p_dofs[i]`.
    p_overrides: Vec<Option<f64>>,
    /// Velocity fields (global vectors).
    pub u: Vec<f64>,
    /// y-velocity.
    pub v: Vec<f64>,
    /// Pressure.
    pub p: Vec<f64>,
    u_prev: Vec<f64>,
    v_prev: Vec<f64>,
    nu_hist: [Vec<f64>; 2],
    nv_hist: [Vec<f64>; 2],
    /// Simulated time.
    pub time: f64,
    steps: usize,
    /// Cumulative CG iterations (pressure, viscous) — performance metric.
    pub cg_iterations: usize,
    /// Persistent pressure-Poisson engine (λ = 0, one projection slot).
    p_engine: EllipticSolver,
    /// Persistent viscous Helmholtz engine; rebuilt when λ = γ₀/(νΔt)
    /// changes (the order-1 → order-2 ramp after the first step).
    v_engine: Option<EllipticSolver>,
    last_stats: StepSolveStats,
    ws: StepWorkspace,
}

impl NsSolver2d {
    /// Create a solver.
    ///
    /// * `vel_tags` — boundary tags carrying velocity Dirichlet conditions;
    /// * `vel_bc(x, y, t)` — the Dirichlet velocity;
    /// * `p_tags` — boundary tags carrying pressure Dirichlet conditions
    ///   (typically outlets; may select nothing, in which case the pressure
    ///   nullspace is pinned at one DoF);
    /// * `p_bc(x, y, t)` — the Dirichlet pressure;
    /// * `force(x, y, t)` — body force.
    pub fn new(
        space: Space2d,
        cfg: NsConfig,
        vel_tags: impl Fn(BoundaryTag) -> bool,
        vel_bc: impl Fn(f64, f64, f64) -> (f64, f64) + Send + Sync + 'static,
        p_tags: impl Fn(BoundaryTag) -> bool,
        p_bc: impl Fn(f64, f64, f64) -> f64 + Send + Sync + 'static,
        force: impl Fn(f64, f64, f64) -> (f64, f64) + Send + Sync + 'static,
    ) -> Self {
        assert!(matches!(cfg.time_order, 1 | 2), "time order must be 1 or 2");
        let vel_dofs = space.boundary_dofs(&vel_tags);
        let p_dofs = space.boundary_dofs(&p_tags);
        let n = space.nglobal;
        // Pressure engine: pure-Neumann problems pin DoF 0 to fix the
        // nullspace, exactly as the pre-engine solver did.
        let p_pin = if p_dofs.is_empty() {
            vec![0]
        } else {
            p_dofs.clone()
        };
        let p_engine = EllipticSolver::new(
            &space,
            0.0,
            &p_pin,
            cfg.precon,
            cfg.tol,
            cfg.max_iter,
            1,
            cfg.proj_depth,
        );
        Self {
            space,
            cfg,
            vel_bc: Box::new(vel_bc),
            p_bc: Box::new(p_bc),
            force: Box::new(force),
            overrides: vec![None; vel_dofs.len()],
            p_overrides: vec![None; p_dofs.len()],
            u: vec![0.0; n],
            v: vec![0.0; n],
            p: vec![0.0; n],
            u_prev: vec![0.0; n],
            v_prev: vec![0.0; n],
            nu_hist: [vec![0.0; n], vec![0.0; n]],
            nv_hist: [vec![0.0; n], vec![0.0; n]],
            time: 0.0,
            steps: 0,
            cg_iterations: 0,
            p_engine,
            v_engine: None,
            last_stats: StepSolveStats::default(),
            ws: StepWorkspace::new(n, vel_dofs.len(), p_pin.len()),
            vel_dofs,
            p_dofs,
        }
    }

    /// Elliptic-solve telemetry of the most recent [`NsSolver2d::step`].
    pub fn last_step_stats(&self) -> StepSolveStats {
        self.last_stats
    }

    /// Set the initial velocity from functions of `(x, y)`.
    pub fn set_initial(&mut self, fu: impl Fn(f64, f64) -> f64, fv: impl Fn(f64, f64) -> f64) {
        self.u = self.space.project(fu);
        self.v = self.space.project(fv);
        self.u_prev.copy_from_slice(&self.u);
        self.v_prev.copy_from_slice(&self.v);
    }

    /// Coupling overrides of the velocity Dirichlet values, slot `i` for
    /// `velocity_bc_dofs()[i]`: a `Some` replaces the closure's value at
    /// that DoF in every subsequent step, until it is reset. This is the
    /// entry point of the multipatch and continuum↔atomistic couplings;
    /// a coupler resolves its DoFs to slots once and then writes values
    /// in place, so an exchange neither allocates nor hashes.
    pub fn velocity_overrides_mut(&mut self) -> &mut [Option<(f64, f64)>] {
        &mut self.overrides
    }

    /// The velocity Dirichlet DoF ids, ascending.
    pub fn velocity_bc_dofs(&self) -> &[usize] {
        &self.vel_dofs
    }

    /// Coupling overrides of the pressure Dirichlet values (the multipatch
    /// artificial-outlet condition), slot `i` for `pressure_bc_dofs()[i]`.
    pub fn pressure_overrides_mut(&mut self) -> &mut [Option<f64>] {
        &mut self.p_overrides
    }

    /// The pressure Dirichlet DoF ids, ascending.
    pub fn pressure_bc_dofs(&self) -> &[usize] {
        &self.p_dofs
    }

    /// Immutable access to the configuration.
    pub fn config(&self) -> &NsConfig {
        &self.cfg
    }

    /// Advance one time step.
    pub fn step(&mut self) {
        let n = self.space.nglobal;
        let dt = self.cfg.dt;
        let t_new = self.time + dt;
        // Effective order ramps up: first step is order 1.
        let order = self.cfg.time_order.min(self.steps + 1);
        let (gamma0, alpha, beta): (f64, [f64; 2], [f64; 2]) = match order {
            1 => (1.0, [1.0, 0.0], [1.0, 0.0]),
            _ => (1.5, [2.0, -0.5], [2.0, -1.0]),
        };
        let Self {
            space, ws, u, v, p, ..
        } = self;

        // --- Step 1: explicit advection `N(u) = (u·∇)u` in collocation
        // form, plus force.
        space.gradient_ws(u, &mut ws.gx, &mut ws.gy, &mut ws.grad);
        for i in 0..n {
            ws.nu[i] = u[i] * ws.gx[i] + v[i] * ws.gy[i];
        }
        space.gradient_ws(v, &mut ws.gx, &mut ws.gy, &mut ws.grad);
        for i in 0..n {
            ws.nv[i] = u[i] * ws.gx[i] + v[i] * ws.gy[i];
        }
        for i in 0..n {
            let [x, y] = space.coords[i];
            // Force is evaluated at t^{n+1} directly (no extrapolation).
            let (fu, fv) = (self.force)(x, y, t_new);
            ws.ustar[i] = alpha[0] * u[i]
                + alpha[1] * self.u_prev[i]
                + dt * (-(beta[0] * ws.nu[i] + beta[1] * self.nu_hist[0][i]) + fu);
            ws.vstar[i] = alpha[0] * v[i]
                + alpha[1] * self.v_prev[i]
                + dt * (-(beta[0] * ws.nv[i] + beta[1] * self.nv_hist[0][i]) + fv);
        }

        // --- Step 2: pressure Poisson  ∇²p = ∇·u*/Δt.
        space.gradient_ws(&ws.ustar, &mut ws.div, &mut ws.gy, &mut ws.grad);
        space.gradient_ws(&ws.vstar, &mut ws.gx, &mut ws.gy, &mut ws.grad);
        for i in 0..n {
            ws.div[i] = (ws.div[i] + ws.gy[i]) / dt;
        }
        // Weak RHS of  -∇²p = -div :  b = -M·div.
        space.apply_mass_into(&ws.div, &mut ws.rhs);
        ws.rhs.iter_mut().for_each(|b| *b = -*b);
        // Pure Neumann problem: the engine pins DoF 0 and `pbc` stays its
        // initial single zero.
        for ((val, &g), over) in ws.pbc.iter_mut().zip(&self.p_dofs).zip(&self.p_overrides) {
            *val = over.unwrap_or_else(|| {
                let [x, y] = space.coords[g];
                (self.p_bc)(x, y, t_new)
            });
        }
        let pres = self.p_engine.solve_into(space, &ws.rhs, &ws.pbc, p, 0);

        // Projection: ũ = u* − Δt ∇p.
        space.gradient_ws(p, &mut ws.gx, &mut ws.gy, &mut ws.grad);
        for i in 0..n {
            ws.ustar[i] -= dt * ws.gx[i];
            ws.vstar[i] -= dt * ws.gy[i];
        }

        // --- Step 3: viscous Helmholtz  (−∇² + λ) u^{n+1} = λ_ν ũ.
        let lambda = gamma0 / (self.cfg.nu * dt);
        let scale = 1.0 / (self.cfg.nu * dt);
        let vel_slots = self.vel_dofs.iter().zip(&self.overrides);
        for ((ub, vb), (&g, over)) in ws.ubc.iter_mut().zip(&mut ws.vbc).zip(vel_slots) {
            (*ub, *vb) = over.unwrap_or_else(|| {
                let [x, y] = space.coords[g];
                (self.vel_bc)(x, y, t_new)
            });
        }
        // The viscous engine is rebuilt whenever λ changes (the order ramp
        // after the first step); a rebuild discards the projection bases,
        // which a changed operator invalidates anyway.
        let ve = match &mut self.v_engine {
            Some(e) if e.lambda().to_bits() == lambda.to_bits() => e,
            stale => stale.insert(EllipticSolver::new(
                space,
                lambda,
                &self.vel_dofs,
                self.cfg.precon,
                self.cfg.tol,
                self.cfg.max_iter,
                2,
                self.cfg.proj_depth,
            )),
        };
        // Rotate the velocity history first so the solves can write the
        // fields in place.
        self.u_prev.copy_from_slice(u);
        self.v_prev.copy_from_slice(v);
        space.apply_mass_into(&ws.ustar, &mut ws.rhs);
        ws.rhs.iter_mut().for_each(|b| *b *= scale);
        let ures = ve.solve_into(space, &ws.rhs, &ws.ubc, u, 0);
        space.apply_mass_into(&ws.vstar, &mut ws.rhs);
        ws.rhs.iter_mut().for_each(|b| *b *= scale);
        let vres = ve.solve_into(space, &ws.rhs, &ws.vbc, v, 1);
        self.cg_iterations += pres.cg.iterations + ures.cg.iterations + vres.cg.iterations;
        self.last_stats = StepSolveStats {
            pressure_iterations: pres.cg.iterations,
            pressure_residual: pres.cg.residual,
            pressure_proj_dim: pres.proj_dim,
            viscous_iterations: ures.cg.iterations + vres.cg.iterations,
            viscous_residual: ures.cg.residual.max(vres.cg.residual),
            viscous_proj_dim: ures.proj_dim.max(vres.proj_dim),
            breakdown: pres.cg.breakdown || ures.cg.breakdown || vres.cg.breakdown,
        };

        // Rotate the advection histories.
        std::mem::swap(&mut self.nu_hist[0], &mut ws.nu);
        std::mem::swap(&mut self.nv_hist[0], &mut ws.nv);
        self.time = t_new;
        self.steps += 1;
    }

    /// L2 norm of the velocity divergence (a quality metric — the splitting
    /// enforces it weakly).
    pub fn divergence_norm(&self) -> f64 {
        let (ux, _) = self.space.gradient(&self.u);
        let (_, vy) = self.space.gradient(&self.v);
        let div: Vec<f64> = ux.iter().zip(&vy).map(|(a, b)| a + b).collect();
        self.space.l2_norm(&div)
    }

    /// Kinetic energy `½∫(u² + v²)`.
    pub fn kinetic_energy(&self) -> f64 {
        let ke: Vec<f64> = self
            .u
            .iter()
            .zip(&self.v)
            .map(|(a, b)| 0.5 * (a * a + b * b))
            .collect();
        self.space.integrate(&ke)
    }
}

impl Snapshot for NsSolver2d {
    const TAG: u32 = nkg_ckpt::tag4(b"NSSV");

    fn snapshot(&self, enc: &mut Enc) {
        // --- Configuration/discretization fingerprint (verified). ---
        enc.put(self.cfg.nu);
        enc.put(self.cfg.dt);
        enc.put(self.cfg.time_order as u64);
        enc.put(self.cfg.tol);
        enc.put(self.cfg.max_iter as u64);
        enc.put(self.cfg.precon.code());
        enc.put(self.cfg.proj_depth as u64);
        enc.put(self.space.nglobal as u64);
        enc.put_slice(&self.vel_dofs);
        enc.put_slice(&self.p_dofs);
        // --- Evolving state. ---
        enc.put_slice(&self.u);
        enc.put_slice(&self.v);
        enc.put_slice(&self.p);
        enc.put_slice(&self.u_prev);
        enc.put_slice(&self.v_prev);
        for h in &self.nu_hist {
            enc.put_slice(h);
        }
        for h in &self.nv_hist {
            enc.put_slice(h);
        }
        enc.put(self.time);
        enc.put(self.steps as u64);
        enc.put(self.cg_iterations as u64);
        // Overrides as (DoF id, value) pairs in ascending DoF order — the
        // slots are in that order already.
        enc.put(self.overrides.iter().flatten().count() as u64);
        for (&k, over) in self.vel_dofs.iter().zip(&self.overrides) {
            if let Some((ou, ov)) = *over {
                enc.put(k);
                enc.put(ou);
                enc.put(ov);
            }
        }
        enc.put(self.p_overrides.iter().flatten().count() as u64);
        for (&k, over) in self.p_dofs.iter().zip(&self.p_overrides) {
            if let Some(pv) = *over {
                enc.put(k);
                enc.put(pv);
            }
        }
        // Projection warm-start bases: without them a resumed run would
        // take different CG trajectories than the original (the fields
        // would still converge, but not bitwise-identically).
        self.p_engine.snapshot_proj(enc);
        match &self.v_engine {
            None => enc.put(0u64),
            Some(e) => {
                enc.put(1u64);
                enc.put(e.lambda());
                e.snapshot_proj(enc);
            }
        }
        self.last_stats.snapshot_into(enc);
    }

    fn restore(&mut self, dec: &mut Dec<'_>) -> Result<(), CkptError> {
        let mismatch = |what: &str| CkptError::Mismatch(format!("NS solver {what} differs"));
        let bits = [self.cfg.nu, self.cfg.dt];
        for want in bits {
            if dec.take::<f64>()?.to_bits() != want.to_bits() {
                return Err(mismatch("config"));
            }
        }
        if dec.take::<u64>()? as usize != self.cfg.time_order {
            return Err(mismatch("time order"));
        }
        if dec.take::<f64>()?.to_bits() != self.cfg.tol.to_bits() {
            return Err(mismatch("tolerance"));
        }
        if dec.take::<u64>()? as usize != self.cfg.max_iter {
            return Err(mismatch("iteration cap"));
        }
        if dec.take::<u64>()? != self.cfg.precon.code() {
            return Err(mismatch("preconditioner"));
        }
        if dec.take::<u64>()? as usize != self.cfg.proj_depth {
            return Err(mismatch("projection depth"));
        }
        let n = self.space.nglobal;
        if dec.take::<u64>()? as usize != n {
            return Err(mismatch("global DoF count"));
        }
        if dec.take_vec::<usize>()? != self.vel_dofs || dec.take_vec::<usize>()? != self.p_dofs {
            return Err(mismatch("boundary DoF layout"));
        }
        let field = |dec: &mut Dec<'_>| -> Result<Vec<f64>, CkptError> {
            let f = dec.take_vec::<f64>()?;
            if f.len() != n {
                return Err(CkptError::Malformed("field length"));
            }
            Ok(f)
        };
        self.u = field(dec)?;
        self.v = field(dec)?;
        self.p = field(dec)?;
        self.u_prev = field(dec)?;
        self.v_prev = field(dec)?;
        for h in &mut self.nu_hist {
            *h = field(dec)?;
        }
        for h in &mut self.nv_hist {
            *h = field(dec)?;
        }
        self.time = dec.take()?;
        self.steps = dec.take::<u64>()? as usize;
        self.cg_iterations = dec.take::<u64>()? as usize;
        // A pair whose DoF is no Dirichlet DoF of this solver (older
        // snapshots could hold such) was never read by a step: dropped.
        self.overrides.fill(None);
        for _ in 0..dec.take::<u64>()? {
            let k = dec.take::<usize>()?;
            let o = (dec.take::<f64>()?, dec.take::<f64>()?);
            if let Ok(slot) = self.vel_dofs.binary_search(&k) {
                self.overrides[slot] = Some(o);
            }
        }
        self.p_overrides.fill(None);
        for _ in 0..dec.take::<u64>()? {
            let k = dec.take::<usize>()?;
            let pv = dec.take::<f64>()?;
            if let Ok(slot) = self.p_dofs.binary_search(&k) {
                self.p_overrides[slot] = Some(pv);
            }
        }
        self.p_engine.restore_proj(dec)?;
        self.v_engine = None;
        if dec.take::<u64>()? != 0 {
            let lambda: f64 = dec.take()?;
            let mut eng = EllipticSolver::new(
                &self.space,
                lambda,
                &self.vel_dofs,
                self.cfg.precon,
                self.cfg.tol,
                self.cfg.max_iter,
                2,
                self.cfg.proj_depth,
            );
            eng.restore_proj(dec)?;
            self.v_engine = Some(eng);
        }
        self.last_stats = StepSolveStats::restore_from(dec)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::{kovasznay, poiseuille_u};
    use nkg_mesh::quad::QuadMesh;

    /// Body-force-driven Poiseuille flow in a periodic channel relaxes to
    /// the exact parabola (which is in the polynomial space, so the error
    /// floor is the CG tolerance).
    #[test]
    fn poiseuille_steady_state() {
        let mesh = QuadMesh::rectangle(2, 2, 0.0, 2.0, 0.0, 1.0);
        let space = Space2d::new(mesh, 4, true);
        let (nu, f0, h) = (0.5, 0.4, 1.0);
        let cfg = NsConfig {
            nu,
            dt: 5e-3,
            time_order: 2,
            tol: 1e-12,
            max_iter: 4000,
            ..NsConfig::default()
        };
        let mut ns = NsSolver2d::new(
            space,
            cfg,
            |t| t == BoundaryTag::Wall,
            |_, _, _| (0.0, 0.0),
            |_| false,
            |_, _, _| 0.0,
            move |_, _, _| (f0, 0.0),
        );
        for _ in 0..600 {
            ns.step();
        }
        let err = ns.space.l2_error(&ns.u, |_, y| poiseuille_u(y, f0, nu, h));
        assert!(err < 1e-7, "Poiseuille error {err}");
        let verr = ns.space.l2_norm(&ns.v);
        assert!(verr < 1e-8, "cross-flow {verr}");
    }

    /// Kovasznay flow: initialize with the exact solution and verify the
    /// solver holds it (the residual drift is the splitting error, far
    /// smaller than the solution scale).
    #[test]
    fn kovasznay_is_preserved() {
        let re = 40.0;
        let mesh = QuadMesh::rectangle(3, 4, -0.5, 1.0, -0.5, 1.5);
        let space = Space2d::new(mesh, 6, false);
        let cfg = NsConfig {
            nu: 1.0 / re,
            dt: 2e-3,
            time_order: 2,
            tol: 1e-11,
            max_iter: 6000,
            ..NsConfig::default()
        };
        let mut ns = NsSolver2d::new(
            space,
            cfg,
            |_| true, // velocity Dirichlet on the whole boundary
            move |x, y, _| {
                let (u, v, _) = kovasznay(x, y, re);
                (u, v)
            },
            |_| false,
            |_, _, _| 0.0,
            |_, _, _| (0.0, 0.0),
        );
        ns.set_initial(|x, y| kovasznay(x, y, re).0, |x, y| kovasznay(x, y, re).1);
        for _ in 0..150 {
            ns.step();
        }
        let err_u = ns.space.l2_error(&ns.u, |x, y| kovasznay(x, y, re).0);
        let err_v = ns.space.l2_error(&ns.v, |x, y| kovasznay(x, y, re).1);
        // The error floor is the splitting error of the first-order
        // (homogeneous-Neumann) pressure boundary treatment, O(sqrt(nu dt))
        // in the boundary layer; the solution scale is O(1).
        assert!(err_u < 2e-2, "Kovasznay u error {err_u}");
        assert!(err_v < 2e-2, "Kovasznay v error {err_v}");
        // Divergence stays small relative to the O(10) L2 gradient scale of
        // the Kovasznay field on this domain.
        assert!(ns.divergence_norm() < 1.0);
    }

    /// The first-order scheme must also run and stay stable.
    #[test]
    fn first_order_scheme_stable() {
        let mesh = QuadMesh::rectangle(2, 2, 0.0, 1.0, 0.0, 1.0);
        let space = Space2d::new(mesh, 3, false);
        let cfg = NsConfig {
            nu: 0.1,
            dt: 1e-3,
            time_order: 1,
            ..Default::default()
        };
        let mut ns = NsSolver2d::new(
            space,
            cfg,
            |_| true,
            |_, _, _| (0.0, 0.0),
            |_| false,
            |_, _, _| 0.0,
            |_, _, _| (1.0, 0.0),
        );
        for _ in 0..50 {
            ns.step();
        }
        assert!(ns.kinetic_energy().is_finite());
        assert!(ns.kinetic_energy() > 0.0);
    }

    /// Velocity overrides at boundary DoFs take precedence over the BC
    /// closure — the coupling hook.
    #[test]
    fn velocity_override_applied() {
        let mesh = QuadMesh::rectangle(2, 1, 0.0, 1.0, 0.0, 1.0);
        let space = Space2d::new(mesh, 3, false);
        let mut ns = NsSolver2d::new(
            space,
            NsConfig {
                nu: 0.1,
                dt: 1e-3,
                ..Default::default()
            },
            |t| t == BoundaryTag::Inlet,
            |_, _, _| (1.0, 0.0),
            |t| t == BoundaryTag::Outlet,
            |_, _, _| 0.0,
            |_, _, _| (0.0, 0.0),
        );
        let dofs: Vec<usize> = ns.velocity_bc_dofs().to_vec();
        ns.velocity_overrides_mut().fill(Some((7.0, -2.0)));
        ns.step();
        for &d in &dofs {
            assert!((ns.u[d] - 7.0).abs() < 1e-12);
            assert!((ns.v[d] + 2.0).abs() < 1e-12);
        }
    }

    /// Womersley (oscillatory channel) flow: periodic channel driven by
    /// f = A cos(ωt); after the start-up transient decays the solution
    /// must match the analytic Stokes-layer profile in amplitude and phase.
    #[test]
    fn womersley_flow_matches_analytic() {
        use crate::analytic::womersley_u;
        let (amp, omega, nu, h) = (1.0, 4.0, 0.5, 1.0);
        let mesh = QuadMesh::rectangle(2, 3, 0.0, 1.0, 0.0, h);
        let space = Space2d::new(mesh, 5, true);
        let dt = 2.0e-3;
        let cfg = NsConfig {
            nu,
            dt,
            time_order: 2,
            tol: 1e-11,
            max_iter: 4000,
            ..NsConfig::default()
        };
        let mut ns = NsSolver2d::new(
            space,
            cfg,
            |t| t == BoundaryTag::Wall,
            |_, _, _| (0.0, 0.0),
            |_| false,
            |_, _, _| 0.0,
            move |_, _, t| (amp * (omega * t).cos(), 0.0),
        );
        // Start from the analytic solution at t=0 so the homogeneous
        // transient is absent; run two full periods.
        ns.set_initial(|_, y| womersley_u(y, 0.0, amp, omega, nu, h), |_, _| 0.0);
        let period = 2.0 * std::f64::consts::PI / omega;
        let steps = (2.0 * period / dt).round() as usize;
        for _ in 0..steps {
            ns.step();
        }
        let t = ns.time;
        let err = ns
            .space
            .l2_error(&ns.u, |_, y| womersley_u(y, t, amp, omega, nu, h));
        // Amplitude scale of the Womersley profile:
        let scale = amp / omega;
        assert!(
            err < 0.02 * scale,
            "Womersley error {err} vs amplitude scale {scale}"
        );
    }

    /// Snapshot mid-run, restore into a freshly constructed solver,
    /// continue both: fields stay bitwise identical (the solver is fully
    /// deterministic, so this checks the snapshot captures *all* evolving
    /// state, including the multistep histories).
    #[test]
    fn checkpoint_resume_is_bitwise() {
        let build = || {
            let mesh = QuadMesh::rectangle(2, 2, 0.0, 2.0, 0.0, 1.0);
            let space = Space2d::new(mesh, 4, true);
            let cfg = NsConfig {
                nu: 0.5,
                dt: 5e-3,
                time_order: 2,
                tol: 1e-12,
                max_iter: 4000,
                ..NsConfig::default()
            };
            NsSolver2d::new(
                space,
                cfg,
                |t| t == BoundaryTag::Wall,
                |_, _, _| (0.0, 0.0),
                |_| false,
                |_, _, _| 0.0,
                |_, _, _| (0.4, 0.0),
            )
        };
        let mut reference = build();
        for _ in 0..7 {
            reference.step();
        }
        let bytes = nkg_ckpt::snapshot_bytes(&reference);
        let mut resumed = build();
        nkg_ckpt::restore_bytes(&mut resumed, &bytes).unwrap();
        for _ in 0..5 {
            reference.step();
            resumed.step();
        }
        for i in 0..reference.space.nglobal {
            assert_eq!(reference.u[i].to_bits(), resumed.u[i].to_bits(), "u[{i}]");
            assert_eq!(reference.v[i].to_bits(), resumed.v[i].to_bits(), "v[{i}]");
            assert_eq!(reference.p[i].to_bits(), resumed.p[i].to_bits(), "p[{i}]");
        }
        assert_eq!(reference.time.to_bits(), resumed.time.to_bits());
        assert_eq!(reference.cg_iterations, resumed.cg_iterations);
    }

    /// A snapshot refuses to restore into a solver with a different
    /// discretization or time step.
    #[test]
    fn checkpoint_refuses_different_dt() {
        let build = |dt: f64| {
            let mesh = QuadMesh::rectangle(2, 2, 0.0, 1.0, 0.0, 1.0);
            let space = Space2d::new(mesh, 3, false);
            NsSolver2d::new(
                space,
                NsConfig {
                    dt,
                    ..Default::default()
                },
                |_| true,
                |_, _, _| (0.0, 0.0),
                |_| false,
                |_, _, _| 0.0,
                |_, _, _| (0.0, 0.0),
            )
        };
        let a = build(1e-3);
        let bytes = nkg_ckpt::snapshot_bytes(&a);
        let mut b = build(2e-3);
        assert!(matches!(
            nkg_ckpt::restore_bytes(&mut b, &bytes),
            Err(CkptError::Mismatch(_))
        ));
    }

    /// Projection warm starts cut the cumulative CG work of a time-varying
    /// run without changing the physics beyond the solver tolerance, and
    /// per-step telemetry is populated.
    #[test]
    fn projection_warm_start_reduces_ns_iterations() {
        let run = |proj_depth: usize| {
            let mesh = QuadMesh::rectangle(2, 2, 0.0, 1.0, 0.0, 1.0);
            let space = Space2d::new(mesh, 4, false);
            let cfg = NsConfig {
                nu: 0.05,
                dt: 2e-3,
                proj_depth,
                ..NsConfig::default()
            };
            let mut ns = NsSolver2d::new(
                space,
                cfg,
                |_| true,
                |_, _, _| (0.0, 0.0),
                |_| false,
                |_, _, _| 0.0,
                |_, _, t| ((4.0 * t).cos(), (3.0 * t).sin()),
            );
            for _ in 0..20 {
                ns.step();
            }
            ns
        };
        let cold = run(0);
        let warm = run(8);
        assert!(
            warm.cg_iterations < cold.cg_iterations,
            "warm {} vs cold {}",
            warm.cg_iterations,
            cold.cg_iterations
        );
        let st = warm.last_step_stats();
        assert!(st.pressure_iterations > 0 || st.pressure_residual >= 0.0);
        assert!(st.pressure_proj_dim > 0);
        assert!(!st.breakdown);
        // Same flow either way (both solve to the same tolerance).
        for i in 0..warm.space.nglobal {
            assert!((warm.u[i] - cold.u[i]).abs() < 1e-7);
            assert!((warm.v[i] - cold.v[i]).abs() < 1e-7);
        }
    }

    /// Zero initial condition, zero forcing, zero BCs stays identically zero.
    #[test]
    fn zero_flow_stays_zero() {
        let mesh = QuadMesh::rectangle(2, 2, 0.0, 1.0, 0.0, 1.0);
        let space = Space2d::new(mesh, 3, false);
        let mut ns = NsSolver2d::new(
            space,
            NsConfig::default(),
            |_| true,
            |_, _, _| (0.0, 0.0),
            |_| false,
            |_, _, _| 0.0,
            |_, _, _| (0.0, 0.0),
        );
        for _ in 0..5 {
            ns.step();
        }
        assert!(ns.kinetic_energy() < 1e-20);
    }
}
