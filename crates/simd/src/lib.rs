//! SIMD-tuned basic kernels, reproducing the performance-engineering layer of
//! Grinberg et al. (SC'11), Section 3.5 and Table 1.
//!
//! The paper reports 1.5-4x speedups on Cray XT5 (SSE) and Blue Gene/P
//! (Double Hummer) for three one-line kernels once the data is 16-byte
//! aligned and the loops are vectorized:
//!
//! | kernel                     | XT5  | BG/P |
//! |----------------------------|------|------|
//! | `z[i] = x[i] * y[i]`       | 2.00 | 3.40 |
//! | `a = sum x[i]*y[i]*z[i]`   | 2.53 | 1.60 |
//! | `a = sum x[i]*y[i]*y[i]`   | 4.00 | 2.25 |
//!
//! This crate provides the same kernels in two flavours:
//!
//! * `*_scalar` — straight-line reference implementations compiled with
//!   vectorization defeated (via opaque per-element access), standing in for
//!   the paper's unoptimized baseline;
//! * `*_vec` — implementations structured for auto-vectorization
//!   (chunked, multiple independent accumulators).
//!
//! The paper aligns its arrays with `posix_memalign` so Double Hummer and
//! SSE can issue aligned loads. These kernels take plain slices, and the
//! compiler emits unaligned vector loads whatever the allocation, so the
//! callers keep their data in ordinary `Vec<f64>`s.
//!
//! The higher-level solver crates (`nkg-sem` in particular) route their hot
//! vector primitives (axpy, dot products, weighted norms) through this crate
//! so that the Table-1 tuning benefits the whole stack, mirroring the paper's
//! "SIMDization of all basic operations".

#![forbid(unsafe_code)]

pub mod kernels;

pub use kernels::{
    axpy, dot, mul_scalar, mul_vec, norm2, triple_dot_scalar, triple_dot_vec, vecmat,
    vecmat_strided, wdot_scalar, wdot_vec, xpby,
};
