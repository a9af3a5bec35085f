//! Small dense kernels (row-major) under the condensed engine: Cholesky,
//! explicit SPD inverses, and the matrix–vector products every
//! per-iteration operation reduces to.
//!
//! Inverses are stored explicitly so applying one is a product the
//! compiler vectorises, where a triangular solve is a chain of dependent
//! divisions; and they are stored exactly symmetric, so the product is a
//! sweep over contiguous rows ([`symv`]) rather than a dot per row.

use nkg_simd::{axpy, dot, vecmat};

/// In-place lower Cholesky of a row-major `n×n` SPD matrix, of which only
/// the lower triangle is read. Returns false (leaving `a` partially
/// overwritten) when a non-positive pivot shows the matrix is not
/// numerically SPD.
///
/// Left-looking by columns of `L`, each held as a row of the upper
/// triangle `U = Lᵀ` so that its update is one contiguous `axpy` per
/// earlier row: `U[j][j..] −= U[k][j]·U[k][j..]` for `k = 0, 1, …, j−1`,
/// then the square root of the pivot and a division. Every entry
/// subtracts the same products in the same order as the row-oriented
/// loop (`cholesky_rows`, kept in the tests), so `L` has its bits. `U` is mirrored
/// into the lower triangle at the end.
fn cholesky_in_place(a: &mut [f64], n: usize) -> bool {
    for i in 1..n {
        for j in 0..i {
            a[j * n + i] = a[i * n + j];
        }
    }
    for j in 0..n {
        let (done, rest) = a.split_at_mut(j * n);
        let row = &mut rest[j..n];
        for k in 0..j {
            let uk = &done[k * n + j..(k + 1) * n];
            axpy(-uk[0], uk, row);
        }
        if row[0] <= 0.0 {
            return false;
        }
        let d = row[0].sqrt();
        row[0] = d;
        for v in &mut row[1..] {
            *v /= d;
        }
    }
    for i in 1..n {
        for j in 0..i {
            a[i * n + j] = a[j * n + i];
        }
    }
    true
}

/// Overwrite the SPD matrix `a` with its inverse `L⁻ᵀL⁻¹` (exactly
/// symmetric: the upper triangle is mirrored from the lower). Returns
/// false, leaving `a` unspecified, when `a` is not numerically SPD.
pub(super) fn spd_inverse_in_place(a: &mut [f64], n: usize) -> bool {
    if !cholesky_in_place(a, n) {
        return false;
    }
    // `lt` holds (L⁻¹)ᵀ: row `j` is column `j` of L⁻¹, filled by forward
    // substitution on the unit vector `e_j`, so both products below run
    // over contiguous slices.
    let mut lt = vec![0.0f64; n * n];
    for j in 0..n {
        lt[j * n + j] = 1.0 / a[j * n + j];
        for i in j + 1..n {
            let s = dot(&a[i * n + j..i * n + i], &lt[j * n + j..j * n + i]);
            lt[j * n + i] = -s / a[i * n + i];
        }
    }
    for i in 0..n {
        for j in 0..=i {
            let s = dot(&lt[i * n + i..(i + 1) * n], &lt[j * n + i..(j + 1) * n]);
            a[i * n + j] = s;
            a[j * n + i] = s;
        }
    }
    true
}

/// `y = A x` for row-major `A` (`y.len()` rows, `x.len()` columns).
#[inline]
pub(super) fn gemv(a: &[f64], x: &[f64], y: &mut [f64]) {
    let n = x.len();
    debug_assert_eq!(a.len(), n * y.len());
    if n == 0 {
        y.fill(0.0);
        return;
    }
    for (yi, row) in y.iter_mut().zip(a.chunks_exact(n)) {
        *yi = dot(row, x);
    }
}

/// `y = A x` for an *exactly* symmetric row-major `A`: computed as `Aᵀx`,
/// a sweep down the contiguous rows with the outputs held in registers
/// ([`vecmat`]) — no horizontal sum per row, which is what [`gemv`] pays.
/// `y[i]` adds `x[k]·A[k][i]` over `k` in order; on a matrix that is
/// symmetric only to round-off this would be a different product.
#[inline]
pub(super) fn symv(a: &[f64], x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    vecmat(x, a, y);
}

/// `y −= Aᵀ x` for row-major `A` (`x.len()` rows, `y.len()` columns).
#[inline]
pub(super) fn gemv_t_sub(a: &[f64], x: &[f64], y: &mut [f64]) {
    let n = y.len();
    debug_assert_eq!(a.len(), n * x.len());
    if n == 0 {
        return;
    }
    for (&xk, row) in x.iter().zip(a.chunks_exact(n)) {
        axpy(-xk, row, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The row-oriented Cholesky [`cholesky_in_place`] replaced: the
    /// reference for its bits.
    fn cholesky_rows(a: &mut [f64], n: usize) -> bool {
        for i in 0..n {
            for j in 0..=i {
                let mut s = a[i * n + j];
                for k in 0..j {
                    s -= a[i * n + k] * a[j * n + k];
                }
                if i == j {
                    if s <= 0.0 {
                        return false;
                    }
                    a[i * n + i] = s.sqrt();
                } else {
                    a[i * n + j] = s / a[j * n + j];
                }
            }
        }
        true
    }

    /// `AᵀA + I` for a fixed `A`.
    fn spd(n: usize) -> Vec<f64> {
        let a0: Vec<f64> = (0..n * n)
            .map(|i| ((i * 7 + 3) % 11) as f64 * 0.1)
            .collect();
        let mut m = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut s = if i == j { 1.0 } else { 0.0 };
                for k in 0..n {
                    s += a0[k * n + i] * a0[k * n + j];
                }
                m[i * n + j] = s;
            }
        }
        m
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        for n in [1usize, 4, 9] {
            let m = spd(n);
            let mut inv = m.clone();
            assert!(spd_inverse_in_place(&mut inv, n));
            let mut col = vec![0.0; n];
            for j in 0..n {
                let mj: Vec<f64> = (0..n).map(|i| m[i * n + j]).collect();
                gemv(&inv, &mj, &mut col);
                for (i, &v) in col.iter().enumerate() {
                    let want = if i == j { 1.0 } else { 0.0 };
                    assert!((v - want).abs() < 1e-10, "n={n} ({i},{j}): {v}");
                }
                for i in 0..n {
                    assert_eq!(inv[i * n + j].to_bits(), inv[j * n + i].to_bits());
                }
            }
        }
    }

    /// `symv` is `gemv` on a symmetric matrix: exactly where no rounding
    /// happens (small integers), to round-off on random SPD matrices — for
    /// every size from one column to two and a half of the widest block.
    #[test]
    fn symv_matches_gemv_on_symmetric_matrices() {
        for n in 1..=40usize {
            let mut ints = vec![0.0; n * n];
            for i in 0..n {
                for j in 0..=i {
                    let v = ((i * 5 + j * 3) % 13) as f64 - 6.0;
                    ints[i * n + j] = v;
                    ints[j * n + i] = v;
                }
            }
            let x: Vec<f64> = (0..n).map(|i| ((i * 7) % 9) as f64 - 4.0).collect();
            let (mut want, mut got) = (vec![0.0; n], vec![f64::NAN; n]);
            gemv(&ints, &x, &mut want);
            symv(&ints, &x, &mut got);
            assert_eq!(got, want, "n={n}, integers");

            let m = spd(n);
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 1.37).sin()).collect();
            gemv(&m, &x, &mut want);
            symv(&m, &x, &mut got);
            let scale = want.iter().fold(0.0f64, |s, v| s.max(v.abs()));
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!((g - w).abs() <= 1e-13 * scale, "n={n} row {i}: {g} vs {w}");
            }
        }
    }

    /// The column kernel has the row loop's lower triangle bit for bit,
    /// reads no entry above the diagonal, and rejects what it rejects: an
    /// indefinite pivot at the first, a middle and the last position.
    #[test]
    fn column_cholesky_is_bitwise_the_row_loop() {
        for n in 1..=64usize {
            let mut m = spd(n);
            for i in 0..n {
                for j in i + 1..n {
                    m[i * n + j] = f64::NAN;
                }
            }
            let (mut rows, mut cols) = (m.clone(), m.clone());
            assert!(cholesky_rows(&mut rows, n) && cholesky_in_place(&mut cols, n));
            for i in 0..n {
                for j in 0..=i {
                    let (r, c) = (rows[i * n + j], cols[i * n + j]);
                    assert_eq!(r.to_bits(), c.to_bits(), "n={n} L[{i}][{j}]: {r} vs {c}");
                }
            }
            for at in [0, n / 2, n - 1] {
                let mut bad = m.clone();
                bad[at * n + at] = -bad[at * n + at];
                let (mut rows, mut cols) = (bad.clone(), bad);
                assert!(!cholesky_rows(&mut rows, n), "n={n} pivot {at}");
                assert!(!cholesky_in_place(&mut cols, n), "n={n} pivot {at}");
            }
        }
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let mut a = vec![1.0, 0.0, 0.0, -1.0];
        assert!(!cholesky_in_place(&mut a, 2));
        let mut b = vec![1.0, 0.0, 0.0, -1.0];
        assert!(!spd_inverse_in_place(&mut b, 2));
    }

    #[test]
    fn transposed_product_matches_rowwise() {
        let (rows, cols) = (3usize, 5usize);
        let a: Vec<f64> = (0..rows * cols).map(|i| (i as f64).sin()).collect();
        let x = [0.5, -1.25, 2.0];
        let mut y = vec![1.0; cols];
        gemv_t_sub(&a, &x, &mut y);
        for (j, &yj) in y.iter().enumerate() {
            let want = 1.0 - (0..rows).map(|i| a[i * cols + j] * x[i]).sum::<f64>();
            assert!((yj - want).abs() < 1e-14);
        }
    }
}
