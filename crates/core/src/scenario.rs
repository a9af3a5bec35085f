//! One description of a coupled run, and the one place it is assembled.
//!
//! A [`Scenario`] is plain data: the plane channel and how it is cut into
//! patches, the DPD insert and where it sits in the channel, the time
//! progression, and what rides along (platelets, WPOD, the execution
//! policy). [`Scenario::build`] turns it into a [`NektarG`]; it is a pure
//! function of the fields, so `move || sc.build()` is the deterministic
//! `make` that [`NektarG::resume`], [`NektarG::resume_latest`] and the
//! [`crate::failover`] drivers ask for.
//!
//! Every field is a value the constructors below it already take
//! ([`poiseuille_multipatch`], [`DpdConfig`], [`Box3::new`],
//! [`OpenBoundaryX::new`], [`Embedding`], [`TimeProgression`]); none of
//! them changes what the library does with it. Set-ups that need a solver
//! no field describes still assemble one by hand with the same public
//! constructors.

use crate::atomistic::{AtomisticDomain, Embedding};
use crate::metasolver::{ExecutionPolicy, NektarG};
use crate::multipatch::poiseuille_multipatch;
use crate::progression::TimeProgression;
use crate::scaling::UnitScaling;
use nkg_dpd::inflow::OpenBoundaryX;
use nkg_dpd::platelet::{PlateletParams, WallSites};
use nkg_dpd::sim::{BinSampler, DpdConfig, DpdSim, WallGeometry};
use nkg_dpd::Box3;
use nkg_wpod::window::WindowPod;

/// Platelets seeded into the insert, with the wall sites they adhere to.
#[derive(Debug, Clone)]
pub struct Platelets {
    /// Fraction of the solvent converted to passive platelets.
    pub fraction: f64,
    /// Adhesion sites on the wall.
    pub sites: WallSites,
    /// Aggregation model parameters.
    pub params: PlateletParams,
}

impl Platelets {
    /// The set-up the coupled and checkpoint suites run
    /// [`Scenario::poiseuille`] with: 8% platelets, 30 sites on the lower
    /// wall, a 30-step activation delay.
    pub fn poiseuille() -> Self {
        Self {
            fraction: 0.08,
            sites: WallSites::on_plane(30, 1, 0.0, [2.0, 0.0, 0.0], [6.0, 0.0, 4.0], 9),
            params: PlateletParams {
                delay_steps: 30,
                trigger_dist: 0.8,
                ..Default::default()
            },
        }
    }
}

/// A coupled run: body-force-driven channel flow on `[0, 6] × [0, 1]` in
/// overlapping SEM patches stepped at Δt = 5·10⁻³, with one DPD box
/// (ν = 0.85 in DPD units) embedded.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Elements along the channel (before the split into patches).
    pub nx: usize,
    /// Elements across the channel.
    pub ny: usize,
    /// Overlapping patches along x.
    pub patches: usize,
    /// Polynomial order of the patches.
    pub order: usize,
    /// Continuum kinematic viscosity; also the `nu_ns` of Eq. (1).
    pub nu: f64,
    /// Body force along x.
    pub force: f64,
    /// Start on the exact Poiseuille profile instead of from rest.
    pub developed: bool,
    /// Extent of the DPD box (periodic in z, walls in y, open in x).
    pub dpd_box: [f64; 3],
    /// DPD seed.
    pub seed: u64,
    /// Inflow-face bins `(ny, nz)`: the interface points of §3.3.
    pub bins: (usize, usize),
    /// Platelets and adhesion sites, if any.
    pub platelets: Option<Platelets>,
    /// Lower corner of the DPD box in continuum coordinates.
    pub origin: [f64; 2],
    /// Physical length of one DPD length unit (one NS unit is 1).
    pub unit_dpd: f64,
    /// Step ratios and exchange interval.
    pub progression: TimeProgression,
    /// WPOD co-processing of the atomistic velocity field, if any: the
    /// (fresh) sampler and window analyzer handed to
    /// [`NektarG::with_wpod`].
    pub wpod: Option<(BinSampler, WindowPod)>,
    /// How the windows between exchanges execute.
    pub policy: ExecutionPolicy,
}

/// Channel length and height, continuum time step and DPD kinematic
/// viscosity: one value at every set-up, so constants rather than fields.
const LENGTH: f64 = 6.0;
const HEIGHT: f64 = 1.0;
const DT: f64 = 5e-3;
const NU_DPD: f64 = 0.85;

impl Scenario {
    /// The small system the fault, failover and overlap suites share: two
    /// p = 3 patches started from rest at ν = 0.5, a 324-particle insert,
    /// 5 DPD steps per continuum step, an exchange every 4.
    pub fn small() -> Self {
        Self {
            nx: 12,
            ny: 2,
            patches: 2,
            order: 3,
            nu: 0.5,
            force: 0.4,
            developed: false,
            dpd_box: [6.0, 6.0, 3.0],
            seed: 31,
            bins: (3, 1),
            platelets: None,
            origin: [2.5, 0.35],
            unit_dpd: 0.05,
            progression: TimeProgression::new(5, 4),
            wpod: None,
            policy: ExecutionPolicy::Serial,
        }
    }

    /// Developed Poiseuille flow (centerline velocity 0.1 at ν = 0.004,
    /// where Eq. (1) lifts the signal above the DPD thermal noise) in two
    /// p = 4 patches around an 8 × 8 × 4 insert; 10 DPD steps per
    /// continuum step, an exchange every 5.
    pub fn poiseuille() -> Self {
        Self {
            order: 4,
            nu: 0.004,
            force: 8.0 * 0.004 * 0.1,
            developed: true,
            dpd_box: [8.0, 8.0, 4.0],
            seed: 3,
            bins: (4, 1),
            origin: [2.6, 0.3],
            progression: TimeProgression::new(10, 5),
            ..Self::small()
        }
    }

    /// Assemble the metasolver this scenario describes. Deterministic:
    /// two calls give bitwise-identical solvers.
    pub fn build(&self) -> NektarG {
        let (nu, force) = (self.nu, self.force);
        let mut continuum = poiseuille_multipatch(
            LENGTH,
            HEIGHT,
            self.nx,
            self.ny,
            self.patches,
            self.order,
            nu,
            force,
            DT,
        );
        if self.developed {
            for s in &mut continuum.patches {
                s.set_initial(
                    move |_, y| force * y * (HEIGHT - y) / (2.0 * nu),
                    |_, _| 0.0,
                );
            }
        }
        let cfg = DpdConfig {
            seed: self.seed,
            ..Default::default()
        };
        let bx = Box3::new([0.0; 3], self.dpd_box, [false, false, true]);
        let mut sim = DpdSim::new(cfg, bx, WallGeometry::SlabY);
        sim.fill_solvent();
        if let Some(p) = &self.platelets {
            sim.seed_platelets(p.fraction);
            sim.sites = p.sites.clone();
            sim.platelet_params = p.params;
        }
        // The open boundary holds the population at the filled count.
        let (ny, nz) = self.bins;
        let mut ob = OpenBoundaryX::new(ny, nz, cfg.density, cfg.kbt, [0.0; 3], 0);
        ob.target_count = Some(sim.particles.len());
        sim.set_open_x(ob);
        let embedding = Embedding {
            origin_ns: self.origin,
            scaling: UnitScaling {
                unit_ns: 1.0,
                unit_dpd: self.unit_dpd,
                nu_ns: nu,
                nu_dpd: NU_DPD,
            },
        };
        let atomistic = AtomisticDomain::new(sim, embedding);
        let ng = NektarG::new(continuum, atomistic, self.progression).with_policy(self.policy);
        match &self.wpod {
            Some((sampler, wpod)) => ng.with_wpod(sampler.clone(), wpod.clone()),
            None => ng,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_carry_what_they_name() {
        let ng = Scenario::small().build();
        assert_eq!(ng.continuum.num_patches(), 2);
        assert_eq!(ng.atomistic.sim.particles.len(), 324);
        assert_eq!(ng.atomistic.bin_midpoints_ns.len(), 3);
        assert_eq!(ng.progression, TimeProgression::new(5, 4));
        assert!(ng.wpod.is_none());
        // From rest.
        assert!(ng
            .continuum
            .patches
            .iter()
            .all(|s| s.u.iter().all(|&u| u == 0.0)));

        let sc = Scenario::poiseuille();
        let ng = sc.build();
        assert_eq!(ng.atomistic.embedding.scaling.nu_ns, sc.nu);
        let (u, _) = ng.continuum.eval_velocity(3.0, 0.5).unwrap();
        assert!((u - 0.1).abs() < 1e-9, "developed centerline velocity {u}");
    }

    #[test]
    fn a_field_reaches_the_solver_it_describes() {
        let sc = Scenario {
            seed: 32,
            bins: (5, 2),
            patches: 3,
            platelets: Some(Platelets::poiseuille()),
            wpod: Some((BinSampler::new(1, 8, 0, 10), WindowPod::new(10, 10, 2.0))),
            policy: ExecutionPolicy::Overlapped,
            ..Scenario::poiseuille()
        };
        let ng = sc.build();
        assert_eq!(ng.continuum.num_patches(), 3);
        assert_eq!(ng.atomistic.sim.cfg.seed, 32);
        assert_eq!(
            ng.atomistic.sim.force_backend,
            nkg_dpd::sim::ForceBackend::Parallel
        );
        assert_eq!(ng.atomistic.bin_midpoints_ns.len(), 10);
        assert_eq!(ng.atomistic.sim.sites.pos.len(), 30);
        let census = ng.atomistic.sim.platelet_census();
        assert!(census.0 > 0, "no platelets seeded: {census:?}");
        assert!(ng.wpod.is_some());
        assert_eq!(ng.policy, ExecutionPolicy::Overlapped);
    }
}
