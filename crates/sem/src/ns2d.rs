//! Unsteady incompressible Navier–Stokes in 2D: the velocity-correction
//! stepper of `ns.rs` behind the `u`, `v`, `p` fields the coupling reads.
//! The coupling layer overrides interface DoFs each exchange through
//! [`NsSolver2d::velocity_overrides_mut`] — that is how the paper's
//! inter-patch and continuum→atomistic conditions enter the solver.

use crate::ns::{kinetic_energy, Fields, Stepper};
use crate::space2d::Space2d;
use nkg_ckpt::{CkptError, Dec, Enc, Snapshot};
use nkg_mesh::quad::BoundaryTag;

pub use crate::ns::{NsConfig, StepSolveStats};

/// 2D incompressible Navier–Stokes solver.
pub struct NsSolver2d {
    /// The function space shared by velocity components and pressure.
    pub space: Space2d,
    /// x-velocity (global vector).
    pub u: Vec<f64>,
    /// y-velocity.
    pub v: Vec<f64>,
    /// Pressure.
    pub p: Vec<f64>,
    /// Simulated time.
    pub time: f64,
    /// Cumulative CG iterations (pressure, viscous) — performance metric.
    pub cg_iterations: usize,
    core: Stepper<2, (f64, f64)>,
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
        let core = Stepper::new(
            &space,
            cfg,
            vel_tags,
            move |&[x, y], t| vel_bc(x, y, t),
            p_tags,
            move |&[x, y], t| p_bc(x, y, t),
            move |&[x, y], t| force(x, y, t),
        );
        let n = space.nglobal;
        Self {
            space,
            u: vec![0.0; n],
            v: vec![0.0; n],
            p: vec![0.0; n],
            time: 0.0,
            cg_iterations: 0,
            core,
        }
    }

    fn fields(&mut self) -> (&mut Stepper<2, (f64, f64)>, Fields<'_, 2>) {
        let f = Fields {
            space: &self.space,
            vel: [&mut self.u, &mut self.v],
            p: &mut self.p,
            time: &mut self.time,
            cg_iterations: &mut self.cg_iterations,
        };
        (&mut self.core, f)
    }

    /// Elliptic-solve telemetry of the most recent [`NsSolver2d::step`].
    pub fn last_step_stats(&self) -> StepSolveStats {
        self.core.last_stats
    }

    /// Set the initial velocity from functions of `(x, y)`.
    pub fn set_initial(&mut self, fu: impl Fn(f64, f64) -> f64, fv: impl Fn(f64, f64) -> f64) {
        self.u = self.space.project(fu);
        self.v = self.space.project(fv);
        self.core.set_initial([&self.u, &self.v]);
    }

    /// Coupling overrides of the velocity Dirichlet values, slot `i` for
    /// `velocity_bc_dofs()[i]`: a `Some` replaces the closure's value at
    /// that DoF in every subsequent step, until it is reset. This is the
    /// entry point of the multipatch and continuum↔atomistic couplings;
    /// a coupler resolves its DoFs to slots once and then writes values
    /// in place, so an exchange neither allocates nor hashes.
    pub fn velocity_overrides_mut(&mut self) -> &mut [Option<(f64, f64)>] {
        &mut self.core.overrides
    }

    /// The velocity Dirichlet DoF ids, ascending.
    pub fn velocity_bc_dofs(&self) -> &[usize] {
        &self.core.vel_dofs
    }

    /// Coupling overrides of the pressure Dirichlet values (the multipatch
    /// artificial-outlet condition), slot `i` for `pressure_bc_dofs()[i]`.
    pub fn pressure_overrides_mut(&mut self) -> &mut [Option<f64>] {
        &mut self.core.p_overrides
    }

    /// The pressure Dirichlet DoF ids, ascending.
    pub fn pressure_bc_dofs(&self) -> &[usize] {
        &self.core.p_dofs
    }

    /// Immutable access to the configuration.
    pub fn config(&self) -> &NsConfig {
        &self.core.cfg
    }

    /// Advance one time step.
    pub fn step(&mut self) {
        let (core, f) = self.fields();
        core.step(f);
    }

    /// L2 norm of the velocity divergence (a quality metric — the splitting
    /// enforces it weakly).
    pub fn divergence_norm(&self) -> f64 {
        let [ux, _] = self.space.gradient(&self.u);
        let [_, vy] = self.space.gradient(&self.v);
        let div: Vec<f64> = ux.iter().zip(&vy).map(|(a, b)| a + b).collect();
        self.space.l2_norm(&div)
    }

    /// Kinetic energy `½∫(u² + v²)`.
    pub fn kinetic_energy(&self) -> f64 {
        kinetic_energy(&self.space, [&self.u, &self.v])
    }
}

impl Snapshot for NsSolver2d {
    const TAG: u32 = nkg_ckpt::tag4(b"NSSV");

    fn snapshot(&self, enc: &mut Enc) {
        let vel = [&self.u[..], &self.v[..]];
        let n = self.space.nglobal;
        self.core
            .snapshot(enc, n, vel, &self.p, self.time, self.cg_iterations);
    }

    fn restore(&mut self, dec: &mut Dec<'_>) -> Result<(), CkptError> {
        let (core, f) = self.fields();
        core.restore(dec, f)
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
