//! The velocity-correction stepper behind [`crate::NsSolver2d`] and
//! [`crate::ns3d::NsSolver3d`], written once over the dimension: the
//! stiffly-stable splitting of Karniadakis–Israeli–Orszag (JCP 1991), the
//! scheme of NεκTαr-3D. Per step (J = 2: γ₀ = 3/2, α = [2, -1/2],
//! β = [2, -1]; the first step is J = 1):
//!
//! 1. **advection**: `u* = Σ α_q u^{n-q} + Δt(−Σ β_q N(u^{n-q}) + f^{n+1})`
//!    with `N(u) = (u·∇)u` in collocation form;
//! 2. **pressure**: solve `∇²p = ∇·u*/Δt` (weak Poisson, homogeneous
//!    Neumann on velocity-Dirichlet boundaries, Dirichlet where the caller
//!    marks pressure outlets); project `ũ = u* − Δt ∇p`;
//! 3. **viscous**: Helmholtz solve `(−∇² + λ)u^{n+1} = λ_ν ũ` with
//!    `λ = γ₀/(νΔt)`, velocity Dirichlet boundary values at `t^{n+1}`.
//!
//! Every sum over components runs in component order, the 2D term order.

use crate::precon::{ApplyScratch, EllipticSolver, EllipticSpace, PreconKind};
use crate::space::{Cell, Dim, Space};
use nkg_ckpt::{CkptError, Dec, Enc};
use nkg_mesh::quad::BoundaryTag;
use std::array::from_fn;

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

impl NsConfig {
    /// An elliptic engine on this configuration's rung and tolerances.
    fn engine<S: EllipticSpace>(
        &self,
        s: &S,
        lambda: f64,
        dir: &[usize],
        k: usize,
    ) -> EllipticSolver {
        let c = self;
        EllipticSolver::new(s, lambda, dir, c.precon, c.tol, c.max_iter, k, c.proj_depth)
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
    fn snapshot_into(&self, enc: &mut Enc) {
        enc.put(self.pressure_iterations as u64);
        enc.put(self.pressure_residual);
        enc.put(self.pressure_proj_dim as u64);
        enc.put(self.viscous_iterations as u64);
        enc.put(self.viscous_residual);
        enc.put(self.viscous_proj_dim as u64);
        enc.put(self.breakdown as u64);
    }

    fn restore_from(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
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

type PointFn<const D: usize, T> = Box<dyn Fn(&[f64; D], f64) -> T + Send + Sync>;

/// The public state of a solver, lent by its owner for a step or restore.
pub(crate) struct Fields<'a, const D: usize>
where
    Dim<D>: Cell<D>,
{
    pub space: &'a Space<D>,
    pub vel: [&'a mut Vec<f64>; D],
    pub p: &'a mut Vec<f64>,
    pub time: &'a mut f64,
    pub cg_iterations: &'a mut usize,
}

/// Buffers of one [`Stepper::step`], allocated once.
struct StepWorkspace<const D: usize> {
    grad_ws: ApplyScratch,
    /// Advection terms of the current fields, swapped into the history.
    adv: [Vec<f64>; D],
    star: [Vec<f64>; D],
    grad: [Vec<f64>; D],
    div: Vec<f64>,
    rhs: Vec<f64>,
    /// Dirichlet values at `vel_dofs`, one component of them, and the
    /// values at the pressure engine's Dirichlet set.
    bc: Vec<[f64; D]>,
    bc_comp: Vec<f64>,
    pbc: Vec<f64>,
}

/// Everything of a solver but its public fields. `V` is the velocity as the
/// owner's API spells it: `(u, v)` in 2D, `[u, v, w]` in 3D.
pub(crate) struct Stepper<const D: usize, V> {
    pub(crate) cfg: NsConfig,
    /// Velocity DoF ids with Dirichlet data, ascending.
    pub(crate) vel_dofs: Vec<usize>,
    vel_bc: PointFn<D, V>,
    /// Pressure DoF ids with Dirichlet data (may be empty → nullspace pin).
    pub(crate) p_dofs: Vec<usize>,
    p_bc: PointFn<D, f64>,
    force: PointFn<D, V>,
    /// Velocity overrides (coupling data), slot `i` for `vel_dofs[i]`:
    /// `Some` replaces the closure's value there.
    pub(crate) overrides: Vec<Option<V>>,
    pub(crate) p_overrides: Vec<Option<f64>>,
    prev: [Vec<f64>; D],
    adv_hist: [Vec<f64>; D],
    steps: usize,
    /// Persistent pressure-Poisson engine (λ = 0, one projection slot).
    p_engine: EllipticSolver,
    /// Persistent viscous engine, one projection slot per component;
    /// rebuilt when λ = γ₀/(νΔt) changes (the order ramp).
    v_engine: Option<EllipticSolver>,
    pub(crate) last_stats: StepSolveStats,
    ws: StepWorkspace<D>,
}

impl<const D: usize, V> Stepper<D, V>
where
    Dim<D>: Cell<D>,
    V: Copy + Into<[f64; D]> + From<[f64; D]>,
{
    /// See [`crate::NsSolver2d::new`].
    pub(crate) fn new(
        space: &Space<D>,
        cfg: NsConfig,
        vel_tags: impl Fn(BoundaryTag) -> bool,
        vel_bc: impl Fn(&[f64; D], f64) -> V + Send + Sync + 'static,
        p_tags: impl Fn(BoundaryTag) -> bool,
        p_bc: impl Fn(&[f64; D], f64) -> f64 + Send + Sync + 'static,
        force: impl Fn(&[f64; D], f64) -> V + Send + Sync + 'static,
    ) -> Self {
        assert!(matches!(cfg.time_order, 1 | 2), "time order must be 1 or 2");
        let vel_dofs = space.boundary_dofs(&vel_tags);
        let p_dofs = space.boundary_dofs(&p_tags);
        let n = space.nglobal;
        // Pure-Neumann problems pin DoF 0 to fix the pressure nullspace.
        let p_pin = if p_dofs.is_empty() {
            vec![0]
        } else {
            p_dofs.clone()
        };
        let p_engine = cfg.engine(space, 0.0, &p_pin, 1);
        let field = || vec![0.0f64; n];
        Self {
            cfg,
            vel_bc: Box::new(vel_bc),
            p_bc: Box::new(p_bc),
            force: Box::new(force),
            overrides: vec![None; vel_dofs.len()],
            p_overrides: vec![None; p_dofs.len()],
            prev: from_fn(|_| field()),
            adv_hist: from_fn(|_| field()),
            steps: 0,
            p_engine,
            v_engine: None,
            last_stats: StepSolveStats::default(),
            ws: StepWorkspace {
                grad_ws: ApplyScratch::new(),
                adv: from_fn(|_| field()),
                star: from_fn(|_| field()),
                grad: from_fn(|_| field()),
                div: field(),
                rhs: field(),
                bc: vec![[0.0; D]; vel_dofs.len()],
                bc_comp: vec![0.0; vel_dofs.len()],
                pbc: vec![0.0; p_pin.len()],
            },
            vel_dofs,
            p_dofs,
        }
    }

    /// The owner set its velocity fields: start the history from them.
    pub(crate) fn set_initial(&mut self, vel: [&[f64]; D]) {
        for (prev, v) in self.prev.iter_mut().zip(vel) {
            prev.copy_from_slice(v);
        }
    }

    /// Advance `f` one time step.
    pub(crate) fn step(&mut self, f: Fields<'_, D>) {
        let Fields {
            space,
            vel,
            p,
            time,
            cg_iterations,
        } = f;
        let n = space.nglobal;
        let dt = self.cfg.dt;
        let t_new = *time + dt;
        let order = self.cfg.time_order.min(self.steps + 1);
        let (gamma0, alpha, beta): (f64, [f64; 2], [f64; 2]) = match order {
            1 => (1.0, [1.0, 0.0], [1.0, 0.0]),
            _ => (1.5, [2.0, -0.5], [2.0, -1.0]),
        };
        let ws = &mut self.ws;

        // --- Step 1: explicit advection `N(u) = (u·∇)u` in collocation
        // form, plus the force, evaluated at t^{n+1} directly.
        for (c, adv) in ws.adv.iter_mut().enumerate() {
            space.gradient_ws(&vel[c][..], &mut ws.grad, &mut ws.grad_ws);
            for (i, a) in adv.iter_mut().enumerate() {
                let mut s = vel[0][i] * ws.grad[0][i];
                for b in 1..D {
                    s += vel[b][i] * ws.grad[b][i];
                }
                *a = s;
            }
        }
        for i in 0..n {
            let fc: [f64; D] = (self.force)(&space.coords[i], t_new).into();
            for c in 0..D {
                ws.star[c][i] = alpha[0] * vel[c][i]
                    + alpha[1] * self.prev[c][i]
                    + dt * (-(beta[0] * ws.adv[c][i] + beta[1] * self.adv_hist[c][i]) + fc[c]);
            }
        }

        // --- Step 2: pressure Poisson  ∇²p = ∇·u*/Δt.
        for c in 0..D {
            space.gradient_ws(&ws.star[c], &mut ws.grad, &mut ws.grad_ws);
            if c == 0 {
                ws.div.copy_from_slice(&ws.grad[0]);
            } else {
                ws.div
                    .iter_mut()
                    .zip(&ws.grad[c])
                    .for_each(|(d, g)| *d += g);
            }
        }
        ws.div.iter_mut().for_each(|d| *d /= dt);
        // Weak RHS of  -∇²p = -div :  b = -M·div.
        space.apply_mass_into(&ws.div, &mut ws.rhs);
        ws.rhs.iter_mut().for_each(|b| *b = -*b);
        // Pure Neumann problem: the engine pins DoF 0 and `pbc` stays its
        // initial single zero.
        for ((val, &g), over) in ws.pbc.iter_mut().zip(&self.p_dofs).zip(&self.p_overrides) {
            *val = over.unwrap_or_else(|| (self.p_bc)(&space.coords[g], t_new));
        }
        let pres = self.p_engine.solve_into(space, &ws.rhs, &ws.pbc, p, 0);

        // Projection: ũ = u* − Δt ∇p.
        space.gradient_ws(p, &mut ws.grad, &mut ws.grad_ws);
        for (star, grad) in ws.star.iter_mut().zip(&ws.grad) {
            star.iter_mut().zip(grad).for_each(|(s, g)| *s -= dt * g);
        }

        // --- Step 3: viscous Helmholtz  (−∇² + λ) u^{n+1} = λ_ν ũ.
        let lambda = gamma0 / (self.cfg.nu * dt);
        let scale = 1.0 / (self.cfg.nu * dt);
        let vel_slots = self.vel_dofs.iter().zip(&self.overrides);
        for (val, (&g, over)) in ws.bc.iter_mut().zip(vel_slots) {
            *val = over
                .unwrap_or_else(|| (self.vel_bc)(&space.coords[g], t_new))
                .into();
        }
        // A rebuild discards the projection bases, which a changed
        // operator invalidates anyway.
        let ve = match &mut self.v_engine {
            Some(e) if e.lambda().to_bits() == lambda.to_bits() => e,
            stale => stale.insert(self.cfg.engine(space, lambda, &self.vel_dofs, D)),
        };
        let mut st = StepSolveStats {
            pressure_iterations: pres.cg.iterations,
            pressure_residual: pres.cg.residual,
            pressure_proj_dim: pres.proj_dim,
            viscous_residual: f64::NEG_INFINITY,
            breakdown: pres.cg.breakdown,
            ..StepSolveStats::default()
        };
        for c in 0..D {
            // Rotate the velocity history first so the solve can write
            // the field in place.
            self.prev[c].copy_from_slice(&vel[c][..]);
            space.apply_mass_into(&ws.star[c], &mut ws.rhs);
            ws.rhs.iter_mut().for_each(|b| *b *= scale);
            for (val, bc) in ws.bc_comp.iter_mut().zip(&ws.bc) {
                *val = bc[c];
            }
            let res = ve.solve_into(space, &ws.rhs, &ws.bc_comp, &mut vel[c][..], c);
            st.viscous_iterations += res.cg.iterations;
            st.viscous_residual = st.viscous_residual.max(res.cg.residual);
            st.viscous_proj_dim = st.viscous_proj_dim.max(res.proj_dim);
            st.breakdown |= res.cg.breakdown;
        }
        *cg_iterations += st.pressure_iterations + st.viscous_iterations;
        self.last_stats = st;

        std::mem::swap(&mut self.adv_hist, &mut ws.adv);
        *time = t_new;
        self.steps += 1;
    }

    /// The configuration and discretization an image must match.
    fn header(&self, enc: &mut Enc, nglobal: usize) {
        let c = &self.cfg;
        enc.put(c.nu);
        enc.put(c.dt);
        enc.put(c.time_order as u64);
        enc.put(c.tol);
        enc.put(c.max_iter as u64);
        enc.put(c.precon.code());
        enc.put(c.proj_depth as u64);
        enc.put(nglobal as u64);
        enc.put_slice(&self.vel_dofs);
        enc.put_slice(&self.p_dofs);
    }

    /// Checkpoint image: [`Stepper::header`], then the evolving state.
    pub(crate) fn snapshot(
        &self,
        enc: &mut Enc,
        nglobal: usize,
        vel: [&[f64]; D],
        p: &[f64],
        time: f64,
        cg_iterations: usize,
    ) {
        self.header(enc, nglobal);
        for v in vel
            .into_iter()
            .chain([p])
            .chain(self.prev.iter().map(|v| &v[..]))
        {
            enc.put_slice(v);
        }
        // Every component's advection history is followed by a second
        // slot of the image that the scheme never fills.
        let unused = vec![0.0f64; nglobal];
        for h in &self.adv_hist {
            enc.put_slice(h);
            enc.put_slice(&unused);
        }
        enc.put(time);
        enc.put(self.steps as u64);
        enc.put(cg_iterations as u64);
        // Overrides as (DoF id, value) pairs in ascending DoF order — the
        // slots are in that order already.
        enc.put(self.overrides.iter().flatten().count() as u64);
        for (&k, over) in self.vel_dofs.iter().zip(&self.overrides) {
            if let Some(o) = *over {
                enc.put(k);
                let o: [f64; D] = o.into();
                o.into_iter().for_each(|x| enc.put(x));
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

    /// Inverse of [`Stepper::snapshot`]; refuses an image of a different
    /// configuration or discretization.
    pub(crate) fn restore(&mut self, dec: &mut Dec<'_>, f: Fields<'_, D>) -> Result<(), CkptError> {
        let n = f.space.nglobal;
        let mut want = Enc::new();
        self.header(&mut want, n);
        for b in want.into_bytes() {
            if dec.take::<u8>()? != b {
                return Err(CkptError::Mismatch("NS solver setup differs".into()));
            }
        }
        let field = |dec: &mut Dec<'_>| -> Result<Vec<f64>, CkptError> {
            let f = dec.take_vec::<f64>()?;
            if f.len() != n {
                return Err(CkptError::Malformed("field length"));
            }
            Ok(f)
        };
        for v in f.vel.into_iter().chain([f.p]).chain(&mut self.prev) {
            *v = field(dec)?;
        }
        for h in &mut self.adv_hist {
            *h = field(dec)?;
            field(dec)?;
        }
        *f.time = dec.take()?;
        self.steps = dec.take::<u64>()? as usize;
        *f.cg_iterations = dec.take::<u64>()? as usize;
        // A pair whose DoF is no Dirichlet DoF of this solver (older
        // snapshots could hold such) was never read by a step: dropped.
        self.overrides.fill(None);
        for _ in 0..dec.take::<u64>()? {
            let k = dec.take::<usize>()?;
            let mut o = [0.0; D];
            for x in &mut o {
                *x = dec.take()?;
            }
            if let Ok(slot) = self.vel_dofs.binary_search(&k) {
                self.overrides[slot] = Some(o.into());
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
            let mut eng = self.cfg.engine(f.space, dec.take()?, &self.vel_dofs, D);
            eng.restore_proj(dec)?;
            self.v_engine = Some(eng);
        }
        self.last_stats = StepSolveStats::restore_from(dec)?;
        Ok(())
    }
}

/// Kinetic energy `½∫|u|²` of the velocity components `vel`.
pub(crate) fn kinetic_energy<const D: usize>(space: &Space<D>, vel: [&[f64]; D]) -> f64
where
    Dim<D>: Cell<D>,
{
    let ke: Vec<f64> = (0..space.nglobal)
        .map(|i| {
            let mut s = vel[0][i] * vel[0][i];
            for v in &vel[1..] {
                s += v[i] * v[i];
            }
            0.5 * s
        })
        .collect();
    space.integrate(&ke)
}
