//! Window proper orthogonal decomposition (WPOD) of non-stationary
//! atomistic data — paper §3.4, Figs. 7 and 8.
//!
//! Computing the ensemble average `ū(t,x)` and thermal fluctuations
//! `u'(t,x)` of a *non-stationary* particle simulation is hard: time
//! averaging needs an interval `T ≫ Δt` that does not exist when the flow
//! itself evolves, and multiplying realizations improves accuracy only like
//! `√N_r`. The paper's answer is a windowed method of snapshots:
//!
//! 1. sample (bin-average) the velocity field over short intervals of
//!    `N_ts = 50..500` steps to form snapshots `u_i(x)`;
//! 2. over a window of `N_pod` snapshots, build the temporal correlation
//!    matrix `C_ij = ⟨u_i, u_j⟩ / N_pod` and diagonalize it;
//! 3. the *low* eigenmodes converge fast and capture correlated, collective
//!    motion — their partial sum is the ensemble average; the *high*, slowly
//!    converging modes are the thermal fluctuations;
//! 4. the split index is chosen adaptively from the eigenspectrum.
//!
//! This crate implements the full pipeline from scratch:
//!
//! * [`eig`] — a cyclic Jacobi eigensolver for symmetric matrices (no LAPACK
//!   in pure Rust);
//! * [`pod`] — method of snapshots: correlation matrix, spatial/temporal
//!   modes, energy spectrum, reconstruction, adaptive spectrum splitting;
//! * [`window`] — the sliding-window driver applying POD per window, the
//!   form used for co-processing a running DPD simulation;
//! * [`pdf`] — probability-density estimation of the extracted fluctuations
//!   (paper Fig. 7 shows they are Gaussian with σ ≈ 1.03).

#![forbid(unsafe_code)]

pub mod eig;
pub mod pdf;
pub mod pod;
pub mod window;

pub use eig::symmetric_eigen;
pub use pdf::Histogram;
pub use pod::{Pod, SnapshotMatrix};
pub use window::WindowPod;
