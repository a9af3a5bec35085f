//! Dissipative particle dynamics — the DPD-LAMMPS substrate.
//!
//! The paper's meso/micro-scale solver is "an in-house version of
//! DPD-LAMMPS" with "major enhancements in DPD simulations for unsteady
//! flows and complex geometries": effective boundary forces for no-slip
//! walls, inflow/outflow boundary conditions with particle insertion and
//! deletion driven by the local flux, multiple particle species, and a
//! platelet aggregation model. No DPD engine exists in Rust; this crate is
//! a from-scratch implementation of all of it:
//!
//! * [`domain`] — periodic/bounded simulation boxes with minimum-image
//!   convention;
//! * [`particles`] — structure-of-arrays particle storage with O(1)
//!   insertion/removal and species/state tags;
//! * [`cells`] — cell-sorted (CSR) neighbor search (O(N) force evaluation);
//! * [`force`] — Groot–Warren conservative/dissipative/random forces with
//!   per-species-pair coefficients, the fluctuation–dissipation relation
//!   `σ² = 2 γ k_B T`, and counter-based symmetric random numbers (so the
//!   rayon-parallel sweep produces the same physics);
//! * [`walls`] — no-slip walls via the effective boundary force of
//!   Lei–Fedosov–Karniadakis (computed in preprocessing by integrating the
//!   conservative force over the excluded half-space) plus bounce-back;
//!   planar (channel) and cylindrical (pipe) geometries;
//! * [`inflow`] — flux-driven particle insertion/deletion for non-periodic
//!   inflow/outflow boundaries with per-bin target velocities (the
//!   continuum coupling surface);
//! * [`platelet`] — the Pivkin–Richardson–Karniadakis-style aggregation
//!   model: passive → triggered → active states with an activation delay
//!   time, Morse adhesion to wall sites and between active platelets;
//! * [`sim`] — the integrator (modified velocity-Verlet, one force
//!   evaluation per step, open boundary included) and measurement
//!   machinery (temperature, momentum, velocity/density profiles, WPOD
//!   snapshot sampling);
//! * [`streams`] — counter-based random streams keyed on
//!   `(seed, domain, step, site, lane)` for every remaining stochastic
//!   draw (fill, seeding, inflow), so checkpoints carry no RNG state and
//!   resumed runs are bitwise identical.
//!
//! Validated physics (module tests): equilibrium kinetic temperature equals
//! the thermostat set point, exact momentum conservation in periodic boxes,
//! Poiseuille profiles under body force, wall no-slip, density control
//! under open boundaries, and the aggregation cascade.

#![forbid(unsafe_code)]

pub mod cells;
pub mod domain;
pub mod force;
pub mod inflow;
pub mod particles;
pub mod platelet;
pub mod sim;
pub mod streams;
pub mod walls;

pub use domain::Box3;
pub use force::SpeciesMatrix;
pub use particles::Particles;
pub use sim::{DpdConfig, DpdSim, WallGeometry};
