//! The Table-1 kernels and the vector primitives built on them.
//!
//! Two implementation tiers:
//!
//! * **scalar** — the unoptimized baseline. Each element access goes through
//!   [`std::hint::black_box`], which models the paper's pre-tuning code where
//!   aliasing and dependency assumptions prevented the compiler from
//!   vectorizing. (Without the barrier, rustc/LLVM happily vectorizes the
//!   naive loop and the baseline would already be the tuned kernel.)
//! * **vec** — auto-vectorization-friendly: exact chunks of 8 with
//!   independent accumulators, so LLVM emits packed mul/add. This is the
//!   `#pragma`-assisted tier of the paper.

/// Reference: `z[i] = x[i] * y[i]`, vectorization defeated.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn mul_scalar(z: &mut [f64], x: &[f64], y: &[f64]) {
    assert_eq!(x.len(), y.len());
    assert_eq!(x.len(), z.len());
    for i in 0..x.len() {
        let a = std::hint::black_box(x[i]);
        let b = std::hint::black_box(y[i]);
        z[i] = a * b;
    }
}

/// Tuned: `z[i] = x[i] * y[i]` structured for packed SIMD codegen.
#[inline]
pub fn mul_vec(z: &mut [f64], x: &[f64], y: &[f64]) {
    assert_eq!(x.len(), y.len());
    assert_eq!(x.len(), z.len());
    let n = x.len();
    let chunks = n / 8 * 8;
    let (zc, zr) = z.split_at_mut(chunks);
    for ((zc, xc), yc) in zc
        .chunks_exact_mut(8)
        .zip(x[..chunks].chunks_exact(8))
        .zip(y[..chunks].chunks_exact(8))
    {
        for k in 0..8 {
            zc[k] = xc[k] * yc[k];
        }
    }
    for (i, zi) in zr.iter_mut().enumerate() {
        *zi = x[chunks + i] * y[chunks + i];
    }
}

/// Reference: `a = sum_i x[i]*y[i]*z[i]`, vectorization defeated.
pub fn triple_dot_scalar(x: &[f64], y: &[f64], z: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    assert_eq!(x.len(), z.len());
    let mut acc = 0.0;
    for i in 0..x.len() {
        let a = std::hint::black_box(x[i]);
        let b = std::hint::black_box(y[i]);
        let c = std::hint::black_box(z[i]);
        acc += a * b * c;
    }
    acc
}

/// Tuned: `a = sum_i x[i]*y[i]*z[i]` with four independent accumulators.
#[inline]
pub fn triple_dot_vec(x: &[f64], y: &[f64], z: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    assert_eq!(x.len(), z.len());
    let n = x.len();
    let chunks = n / 8 * 8;
    let mut acc = [0.0f64; 8];
    for ((xc, yc), zc) in x[..chunks]
        .chunks_exact(8)
        .zip(y[..chunks].chunks_exact(8))
        .zip(z[..chunks].chunks_exact(8))
    {
        for k in 0..8 {
            acc[k] += xc[k] * yc[k] * zc[k];
        }
    }
    let mut total: f64 = acc.iter().sum();
    for i in chunks..n {
        total += x[i] * y[i] * z[i];
    }
    total
}

/// Reference: `a = sum_i x[i]*y[i]*y[i]` (weighted dot), vectorization defeated.
pub fn wdot_scalar(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    let mut acc = 0.0;
    for i in 0..x.len() {
        let a = std::hint::black_box(x[i]);
        let b = std::hint::black_box(y[i]);
        acc += a * b * b;
    }
    acc
}

/// Tuned: `a = sum_i x[i]*y[i]*y[i]` with independent accumulators.
#[inline]
pub fn wdot_vec(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    let n = x.len();
    let chunks = n / 8 * 8;
    let mut acc = [0.0f64; 8];
    for (xc, yc) in x[..chunks].chunks_exact(8).zip(y[..chunks].chunks_exact(8)) {
        for k in 0..8 {
            acc[k] += xc[k] * yc[k] * yc[k];
        }
    }
    let mut total: f64 = acc.iter().sum();
    for i in chunks..n {
        total += x[i] * y[i] * y[i];
    }
    total
}

/// Plain dot product `sum_i x[i]*y[i]` (tuned tier) — used by the CG solvers.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    let n = x.len();
    let chunks = n / 8 * 8;
    let mut acc = [0.0f64; 8];
    for (xc, yc) in x[..chunks].chunks_exact(8).zip(y[..chunks].chunks_exact(8)) {
        for k in 0..8 {
            acc[k] += xc[k] * yc[k];
        }
    }
    let mut total: f64 = acc.iter().sum();
    for i in chunks..n {
        total += x[i] * y[i];
    }
    total
}

/// Squared L2 norm.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x)
}

/// `y[i] += a * x[i]` — the CG update primitive.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += a * *xi;
    }
}

/// `p[i] = x[i] + b * p[i]` — the CG direction update.
#[inline]
pub fn xpby(x: &[f64], b: f64, p: &mut [f64]) {
    assert_eq!(x.len(), p.len());
    for (pi, xi) in p.iter_mut().zip(x) {
        *pi = xi + b * *pi;
    }
}

/// `y = Bᵀx`: `y[i] = Σ_m x[m]·B[m][i]` for row-major `B` (`x.len()` rows,
/// `y.len()` columns), as a sweep down the rows of `B`.
///
/// The unit-stride index `i` is innermost and the outputs are independent
/// accumulators held in registers (blocks of 16/8/4/2, then single
/// columns), so there is no dependency chain to wait on and no horizontal
/// sum. Each `y[i]` still adds its terms in the order `m = 0, 1, …` from
/// `0.0`: bitwise the scalar loop `s = 0.0; for m { s += x[m] * b[m][i] }`.
/// This is the row of a small matrix product (the SEM tensor contractions)
/// and, for a symmetric `B`, the product `B x` itself.
///
/// # Panics
/// Panics if `b.len() != x.len() * y.len()`.
#[inline]
pub fn vecmat(x: &[f64], b: &[f64], y: &mut [f64]) {
    assert_eq!(b.len(), x.len() * y.len());
    sweep([x], [b], [y.len()], y);
}

/// Two interleaved [`vecmat`] sums into one output:
/// `y[i] = Σ_m (x0[m]·B0[m][i] + x1[m]·B1[m][i])`, each `m` adding its `B0`
/// term and then its `B1` term — bitwise the scalar loop
/// `for m { s += x0[m]*b0[m][i]; s += x1[m]*b1[m][i] }` from `s = 0.0`.
/// The reference two-term case of [`vecmat_strided`].
#[cfg(test)]
fn vecmat2(x0: &[f64], b0: &[f64], x1: &[f64], b1: &[f64], y: &mut [f64]) {
    let n = y.len();
    assert!(b0.len() == x0.len() * n && b1.len() == x1.len() * n);
    sweep([x0, x1], [b0, b1], [n, n], y);
}

/// `K` interleaved [`vecmat`] sums into one output, row `m` of `B_k`
/// starting at `b[k][m·stride[k]]`:
/// `y[i] = Σ_m Σ_k x_k[m]·b_k[m·stride_k + i]`, each `m` adding its terms
/// in the order `k = 0, 1, …` — bitwise the scalar loop from `s = 0.0`. A
/// stride wider than `y` reads `B_k` as a slab of a larger array, as the
/// ζ-term of a 3D tensor contraction does.
///
/// # Panics
/// Panics if the `x_k` differ in length or a `b_k` does not end with its
/// last row: `b_k.len() == (rows − 1)·stride_k + y.len()`.
#[inline]
pub fn vecmat_strided<const K: usize>(
    x: [&[f64]; K],
    b: [&[f64]; K],
    stride: [usize; K],
    y: &mut [f64],
) {
    sweep(x, b, stride, y);
}

#[inline(always)]
fn sweep<const K: usize>(x: [&[f64]; K], b: [&[f64]; K], stride: [usize; K], y: &mut [f64]) {
    let (rows, n) = (x[0].len(), y.len());
    for k in 0..K {
        assert_eq!(x[k].len(), rows);
        assert!(rows == 0 || b[k].len() == (rows - 1) * stride[k] + n);
    }
    let mut i = 0;
    while n - i >= 16 {
        sweep_block::<K, 16>(x, b, stride, i, y);
        i += 16;
    }
    if n - i >= 8 {
        sweep_block::<K, 8>(x, b, stride, i, y);
        i += 8;
    }
    if n - i >= 4 {
        sweep_block::<K, 4>(x, b, stride, i, y);
        i += 4;
    }
    if n - i >= 2 {
        sweep_block::<K, 2>(x, b, stride, i, y);
        i += 2;
    }
    if n - i >= 1 {
        sweep_block::<K, 1>(x, b, stride, i, y);
    }
}

/// Columns `i0..i0 + W` of a [`sweep`].
#[inline(always)]
fn sweep_block<const K: usize, const W: usize>(
    x: [&[f64]; K],
    b: [&[f64]; K],
    stride: [usize; K],
    i0: usize,
    y: &mut [f64],
) {
    let mut acc = [0.0f64; W];
    for m in 0..x[0].len() {
        for k in 0..K {
            let xm = x[k][m];
            let row = &b[k][m * stride[k] + i0..][..W];
            for w in 0..W {
                acc[w] += xm * row[w];
            }
        }
    }
    y[i0..i0 + W].copy_from_slice(&acc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn approx(a: f64, b: f64, scale: f64) -> bool {
        (a - b).abs() <= 1e-10 * scale.max(1.0)
    }

    /// Deterministic non-trivial test data: entry `i` of stream `s`.
    fn val(i: usize, s: f64) -> f64 {
        ((i as f64 + s) * 0.7311).sin()
    }

    /// Every column of a sweep has the bits of its own scalar loop, for
    /// every block/tail split of the column count.
    #[test]
    fn vecmat_is_bitwise_the_scalar_sums() {
        for cols in 0..=40usize {
            for rows in [0usize, 1, 2, 9, 33] {
                let x0: Vec<f64> = (0..rows).map(|i| val(i, 0.1)).collect();
                let x1: Vec<f64> = (0..rows).map(|i| val(i, 0.2)).collect();
                let b0: Vec<f64> = (0..rows * cols).map(|i| val(i, 0.3)).collect();
                let b1: Vec<f64> = (0..rows * cols).map(|i| val(i, 0.4)).collect();
                let (mut y, mut y2) = (vec![f64::NAN; cols], vec![f64::NAN; cols]);
                vecmat(&x0, &b0, &mut y);
                vecmat2(&x0, &b0, &x1, &b1, &mut y2);
                for i in 0..cols {
                    let (mut s, mut s2) = (0.0, 0.0);
                    for m in 0..rows {
                        s += x0[m] * b0[m * cols + i];
                        s2 += x0[m] * b0[m * cols + i];
                        s2 += x1[m] * b1[m * cols + i];
                    }
                    assert_eq!(y[i].to_bits(), s.to_bits(), "{rows}x{cols} column {i}");
                    assert_eq!(y2[i].to_bits(), s2.to_bits(), "{rows}x{cols} column {i}");
                }
            }
        }
    }

    #[test]
    fn mul_matches_reference() {
        let x = (0..1003).map(|i| (i as f64).sin()).collect::<Vec<f64>>();
        let y = (0..1003)
            .map(|i| (i as f64 + 0.5).cos())
            .collect::<Vec<f64>>();
        let mut z0 = vec![0.0; 1003];
        let mut z1 = vec![0.0; 1003];
        mul_scalar(&mut z0, &x, &y);
        mul_vec(&mut z1, &x, &y);
        assert_eq!(z0.as_slice(), z1.as_slice());
    }

    #[test]
    fn dots_match_reference() {
        let n = 517;
        let x = (0..n).map(|i| 1.0 / (i + 1) as f64).collect::<Vec<f64>>();
        let y = (0..n)
            .map(|i| (i as f64 * 0.01).sin())
            .collect::<Vec<f64>>();
        let z = (0..n).map(|i| (i % 7) as f64 - 3.0).collect::<Vec<f64>>();
        let scale = n as f64;
        assert!(approx(
            triple_dot_scalar(&x, &y, &z),
            triple_dot_vec(&x, &y, &z),
            scale
        ));
        assert!(approx(wdot_scalar(&x, &y), wdot_vec(&x, &y), scale));
    }

    #[test]
    fn axpy_and_norms() {
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![10.0, 10.0, 10.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![12.0, 14.0, 16.0]);
        assert_eq!(norm2(&x), 14.0);
        assert_eq!(dot(&x, &y), 12.0 + 28.0 + 48.0);
    }

    #[test]
    fn xpby_is_the_cg_direction_update() {
        for n in 0..=40usize {
            let x: Vec<f64> = (0..n).map(|i| val(i, 0.1)).collect();
            let p0: Vec<f64> = (0..n).map(|i| val(i, 0.2)).collect();
            let mut p = p0.clone();
            xpby(&x, 1.618, &mut p);
            for i in 0..n {
                assert_eq!(
                    p[i].to_bits(),
                    (x[i] + 1.618 * p0[i]).to_bits(),
                    "n={n} i={i}"
                );
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let mut z: [f64; 0] = [];
        mul_vec(&mut z, &[], &[]);
        assert_eq!(triple_dot_vec(&[], &[], &[]), 0.0);
        assert_eq!(wdot_vec(&[], &[]), 0.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    proptest! {
        #[test]
        fn prop_mul_tiers_agree(xs in prop::collection::vec(-1e6f64..1e6, 0..200)) {
            let ys: Vec<f64> = xs.iter().map(|v| v * 0.5 + 1.0).collect();
            let mut a = vec![0.0; xs.len()];
            let mut b = vec![0.0; xs.len()];
            mul_scalar(&mut a, &xs, &ys);
            mul_vec(&mut b, &xs, &ys);
            prop_assert_eq!(a, b);
        }

        #[test]
        fn prop_reductions_agree(xs in prop::collection::vec(-1e3f64..1e3, 0..200)) {
            let ys: Vec<f64> = xs.iter().map(|v| v - 2.0).collect();
            let zs: Vec<f64> = xs.iter().map(|v| 1.0 - v).collect();
            let s = triple_dot_scalar(&xs, &ys, &zs);
            let v = triple_dot_vec(&xs, &ys, &zs);
            let bound = 1e-9 * xs.iter().map(|x| x.abs()).sum::<f64>().max(1.0) * 1e6;
            prop_assert!((s - v).abs() <= bound, "{s} vs {v}");
            let sw = wdot_scalar(&xs, &ys);
            let vw = wdot_vec(&xs, &ys);
            prop_assert!((sw - vw).abs() <= bound, "{sw} vs {vw}");
        }

        #[test]
        fn prop_axpy_linear(a in -10.0f64..10.0, xs in prop::collection::vec(-1e3f64..1e3, 1..100)) {
            let mut y = vec![0.0; xs.len()];
            axpy(a, &xs, &mut y);
            for (yi, xi) in y.iter().zip(xs.iter()) {
                prop_assert_eq!(*yi, a * *xi);
            }
        }
    }
}
