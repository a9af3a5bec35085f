//! # NεκTαr-G — the multiscale metasolver
//!
//! The paper's primary contribution: a metasolver that couples scalable
//! parallel solvers through light-weight interfaces so that macro-
//! (continuum SEM), meso- and micro-scale (DPD) blood-flow dynamics run as
//! one simulation. This crate assembles the substrates (`nkg-sem`,
//! `nkg-dpd`, `nkg-mci`, `nkg-wpod`) into that system:
//!
//! * [`scaling`] — unit consistency between descriptions: the velocity
//!   scaling of Eq. (1), `v_DPD = v_NS (L_NS/L_DPD)(ν_DPD/ν_NS)`, and the
//!   matching diffusive time scaling (Reynolds/Womersley preservation);
//! * [`progression`] — the time-progression controller of Fig. 5:
//!   `Δt_NS = 20 Δt_DPD`, boundary-condition exchange every
//!   `τ = 10 Δt_NS = 200 Δt_DPD`;
//! * [`multipatch`] — NεκTαr↔NεκTαr coupling: overlapping patches exchange
//!   Dirichlet velocity (and outlet pressure) traces at artificial
//!   interfaces once per step (§3.2), with the Fig. 9 continuity metrics;
//! * [`dist`] — a *distributed* SEM Helmholtz/Poisson solver over the MCI
//!   runtime: elements partitioned by `nkg-partition`, shared-DoF
//!   assembly by neighbor point-to-point exchange, CG reductions by
//!   allreduce — the intra-patch parallelism of NεκTαr-3D;
//! * [`atomistic`] — NεκTαr↔DPD-LAMMPS coupling (§3.3): continuum
//!   velocities interpolated at interface-bin midpoints, scaled by Eq. (1)
//!   and imposed as DPD inflow targets with particle insertion/deletion;
//!   DPD bin averages travel back for the continuity check;
//! * [`metasolver`] — the top-level [`metasolver::NektarG`] facade driving
//!   a multipatch continuum domain with an embedded atomistic domain and
//!   platelet aggregation through the full time progression;
//! * [`scenario`] — one declarative [`Scenario`] of such a run and the one
//!   constructor that assembles it;
//! * [`failover`] — replicated execution of the metasolver with
//!   hold-last-value degradation and master → slave failover over the MCI
//!   fault-tolerant runtime (DESIGN.md §9).

#![forbid(unsafe_code)]

pub mod atomistic;
pub mod dist;
pub mod ensemble;
pub mod failover;
pub mod metasolver;
pub mod multipatch;
pub mod progression;
pub mod scaling;
pub mod scenario;

pub use ensemble::{
    admission_order, field_hash, Ensemble, JobFailure, JobOps, JobReport, JobResult, JobSpec,
    Priority, SchedPolicy, SchedulerConfig, SweepJob, SweepOps,
};
pub use metasolver::NektarG;
pub use progression::TimeProgression;
pub use scaling::UnitScaling;
pub use scenario::Scenario;
