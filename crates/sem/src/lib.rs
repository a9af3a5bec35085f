//! Spectral element method solvers — the NεκTαr substrate.
//!
//! The paper's continuum component is NεκTαr: a spectral/hp element solver
//! family with (i) a 3D unsteady incompressible Navier–Stokes solver using
//! semi-implicit (stiffly-stable) time stepping and CG-based Helmholtz /
//! Poisson solves, and (ii) a 1D arterial solver for peripheral networks.
//! No SEM library exists in Rust; this crate implements the first from
//! scratch (the 1D solver is not part of this reproduction):
//!
//! * [`basis`] — Gauss–Lobatto–Legendre quadrature, differentiation and
//!   interpolation;
//! * [`cg`] — matrix-free preconditioned conjugate gradients;
//! * [`interp`] — precomputed point-interpolation tables: static query
//!   sets (interface DoFs, embedded-domain bin midpoints) resolve to one
//!   donor element plus tensor-Lagrange weights at assembly, so every
//!   coupled-step evaluation is a short dense dot product;
//! * [`space`] — the continuous-Galerkin space, written once over the
//!   dimension: topological numbering (with optional streamwise
//!   periodicity), curvilinear geometric factors, matrix-free Helmholtz
//!   operators and the assembled element matrix; [`space2d`] / [`space3d`]
//!   add its quadrilateral / hexahedral instances (the element map, and 2D
//!   point location);
//! * [`precon`] — the persistent elliptic engine: static condensation onto
//!   the element boundaries, PCG with low-energy and coarse-vertex
//!   preconditioning, successive-RHS projection warm starts;
//! * [`ns2d`] / [`ns3d`] — unsteady incompressible Navier–Stokes via the
//!   stiffly-stable velocity-correction splitting (Karniadakis–Israeli–
//!   Orszag), order 1–2 in time: the owners of one stepper written over the
//!   dimension;
//! * [`analytic`] — Kovasznay, Poiseuille and Womersley reference solutions
//!   used by the validation tests and benches.
//!
//! Verified behaviours (see module tests): spectral p-convergence of the
//! elliptic solves in 2D and 3D, machine-precision steady Poiseuille flow,
//! Kovasznay flow accuracy and Womersley phase/amplitude.

#![forbid(unsafe_code)]

pub mod analytic;
pub mod basis;
pub mod cg;
pub mod interp;
mod ns;
pub mod ns2d;
pub mod ns3d;
pub mod precon;
pub mod space;
pub mod space2d;
pub mod space3d;

pub use basis::GllBasis;
pub use cg::{pcg, pcg_ws, CgResult, CgWorkspace};
pub use interp::InterpTable;
pub use ns2d::{NsConfig, NsSolver2d, StepSolveStats};
pub use precon::{ApplyScratch, EllipticSolver, EllipticSpace, PreconKind, SolveStats};
pub use space::Space;
pub use space2d::Space2d;
pub use space3d::Space3d;
