//! Engine-level tests: the condensed solve against a full-space reference,
//! the Schur operator's algebra, the ladder, projection, sharing and the
//! artifact codec.

use super::condense::{Condensed, ElemScratch};
use super::schur::Factors;
use super::*;
use crate::cg::pcg;
use crate::space2d::Space2d;
use crate::space3d::Space3d;
use nkg_artifact::{Artifact, ArtifactKey};
use nkg_ckpt::{CkptError, Dec, Enc};
use nkg_mesh::hex::HexMesh;
use nkg_mesh::quad::{BoundaryTag, QuadMesh};
use nkg_simd::dot;

mod persist;

const LADDER: [PreconKind; 4] = [
    PreconKind::None,
    PreconKind::Jacobi,
    PreconKind::LowEnergy,
    PreconKind::LowEnergyCoarse,
];

fn space2(nx: usize, ny: usize, p: usize) -> Space2d {
    Space2d::new(QuadMesh::rectangle(nx, ny, 0.0, 2.0, 0.0, 1.0), p, false)
}

fn space3(p: usize) -> Space3d {
    let mesh = HexMesh::box_mesh(2, 2, 2, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
    Space3d::new(mesh, p, false)
}

/// One patch of the `coupled_sem` benchmark: 17×4 elements of side
/// 1/8 × 1/4.
fn bench_patch(p: usize) -> Space2d {
    Space2d::new(QuadMesh::rectangle(17, 4, 0.0, 2.125, 0.0, 1.0), p, false)
}

fn pseudo(n: usize, seed: u64) -> Vec<f64> {
    // Deterministic quasi-random vector (no RNG dependency). The
    // splitmix64-style finalizer matters: a plain `i·M + seed >> 33`
    // leaves the seed in bits the shift discards, so every seed would
    // produce (almost) the same vector.
    (0..n)
        .map(|i| {
            let mut z = (i as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(seed.wrapping_mul(0xD1342543DE82EF95));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^= z >> 31;
            ((z >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        })
        .collect()
}

fn engine<S: EllipticSpace>(s: &S, lambda: f64, dir: &[usize], kind: PreconKind) -> EllipticSolver {
    EllipticSolver::new(s, lambda, dir, kind, 1e-11, 20_000, 0, 0)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `z = M⁻¹ r` of an engine's preconditioner on the compact space.
fn precon_apply(eng: &mut EllipticSolver, r: &[f64]) -> Vec<f64> {
    let mut z = vec![0.0; r.len()];
    eng.factors.precon.apply(r, &mut z, &mut eng.precon_ws);
    z
}

/// The uncondensed problem by unpreconditioned CG on the matrix-free
/// operator, masking by hand: what every condensed solve must reproduce.
fn full_space_solve<S: EllipticSpace>(
    s: &S,
    lambda: f64,
    rhs: &[f64],
    dir: &[usize],
    vals: &[f64],
) -> Vec<f64> {
    let n = s.nglobal();
    let mut masked = vec![false; n];
    let mut x = vec![0.0; n];
    for (&d, &v) in dir.iter().zip(vals) {
        masked[d] = true;
        x[d] = v;
    }
    let mut ws = ApplyScratch::new();
    let mut ax = vec![0.0; n];
    s.apply_helmholtz_ws(lambda, &x, &mut ax, &mut ws);
    let b: Vec<f64> = (0..n)
        .map(|i| if masked[i] { 0.0 } else { rhs[i] - ax[i] })
        .collect();
    let mut du = vec![0.0; n];
    let mut pm = vec![0.0; n];
    let res = pcg(
        |p, out| {
            for i in 0..n {
                pm[i] = if masked[i] { 0.0 } else { p[i] };
            }
            s.apply_helmholtz_ws(lambda, &pm, out, &mut ws);
            for i in 0..n {
                if masked[i] {
                    out[i] = 0.0;
                }
            }
        },
        |r, z| z.copy_from_slice(r),
        &b,
        &mut du,
        1e-13,
        50_000,
    );
    assert!(res.converged, "reference CG: {res:?}");
    for i in 0..n {
        if !masked[i] {
            x[i] = du[i];
        }
    }
    x
}

/// Solve with every rung and compare with the full-space reference.
fn assert_matches_full_space<S: EllipticSpace>(
    what: &str,
    s: &S,
    lambda: f64,
    dir: &[usize],
    vals: &[f64],
) {
    let rhs = pseudo(s.nglobal(), 5);
    let want = full_space_solve(s, lambda, &rhs, dir, vals);
    let scale = want.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    for kind in LADDER {
        let mut eng = EllipticSolver::new(s, lambda, dir, kind, 1e-13, 50_000, 0, 0);
        let mut x = vec![0.0; s.nglobal()];
        let st = eng.solve_into(s, &rhs, vals, &mut x, usize::MAX);
        assert!(st.cg.converged, "{what} {kind:?}: {:?}", st.cg);
        for (i, (a, b)) in x.iter().zip(&want).enumerate() {
            assert!(
                (a - b).abs() <= 1e-9 * scale,
                "{what} {kind:?} dof {i}: {a} vs {b}"
            );
        }
    }
}

/// A gid interior to element 0, for Dirichlet lists that reach inside.
fn interior_gid<S: EllipticSpace>(s: &S) -> usize {
    let k = s
        .node_roles()
        .iter()
        .position(|&r| r == NodeRole::Interior)
        .expect("order ≥ 2 has interior nodes");
    s.elem_gids(0)[k]
}

#[test]
fn condensed_solve_equals_full_space_cg_2d() {
    let s = space2(3, 2, 5);
    let bnd = s.boundary_dofs(|_| true);
    let vals: Vec<f64> = bnd
        .iter()
        .map(|&g| s.coords[g][0] - s.coords[g][1])
        .collect();
    assert_matches_full_space("dirichlet", &s, 2.5, &bnd, &vals);
    assert_matches_full_space("pinned neumann", &s, 0.0, &[0], &[0.0]);

    let mut inner = bnd.clone();
    inner.push(interior_gid(&s));
    let mut inner_vals = vals.clone();
    inner_vals.push(0.75);
    assert_matches_full_space("interior dirichlet", &s, 2.5, &inner, &inner_vals);

    let per = Space2d::new(QuadMesh::rectangle(3, 2, 0.0, 2.0, 0.0, 1.0), 4, true);
    let walls = per.boundary_dofs(|t| t == BoundaryTag::Wall);
    let wall_vals = vec![0.25; walls.len()];
    assert_matches_full_space("periodic x", &per, 1.0, &walls, &wall_vals);
}

#[test]
fn condensed_solve_equals_full_space_cg_3d() {
    let s = space3(3);
    let bnd = s.boundary_dofs(|_| true);
    let vals: Vec<f64> = bnd
        .iter()
        .map(|&g| s.coords[g][0] * s.coords[g][2])
        .collect();
    assert_matches_full_space("dirichlet", &s, 1.5, &bnd, &vals);
    assert_matches_full_space("pinned neumann", &s, 0.0, &[0], &[0.0]);

    let mut inner = bnd.clone();
    inner.push(interior_gid(&s));
    let mut inner_vals = vals.clone();
    inner_vals.push(-0.5);
    assert_matches_full_space("interior dirichlet", &s, 1.5, &inner, &inner_vals);

    // One element wide in x: each element's x-faces are identified with
    // each other.
    let mesh = HexMesh::box_mesh(1, 2, 2, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
    let per = Space3d::new(mesh, 3, true);
    let walls = per.boundary_dofs(|t| t == BoundaryTag::Wall);
    let wall_vals = vec![0.0; walls.len()];
    assert_matches_full_space("periodic x", &per, 0.5, &walls, &wall_vals);
}

/// One `Factors::build` → solve round trip per rung on general
/// quadrilaterals (non-zero cross metric, so every term of the assembled
/// element matrix is live): the true residual `‖b − A x‖` over the free
/// DoFs, recomputed with the matrix-free operator, meets the tolerance.
#[test]
fn every_rung_meets_its_residual_on_a_mapped_mesh() {
    let mesh = QuadMesh::rectangle(3, 2, 0.0, 2.0, 0.0, 1.0)
        .mapped(|[x, y]| [x + 0.3 * y * y + 0.1 * x * y, y + 0.2 * (1.3 * x).sin()]);
    let s = Space2d::new(mesh, 6, false);
    let dir = s.boundary_dofs(|t| t != BoundaryTag::Outlet);
    let vals: Vec<f64> = dir
        .iter()
        .map(|&g| s.coords[g][0] - s.coords[g][1])
        .collect();
    let rhs = s.apply_mass(&pseudo(s.nglobal, 11));
    for lambda in [0.0, 600.0] {
        for kind in LADDER {
            let mut eng = EllipticSolver::new(&s, lambda, &dir, kind, 1e-10, 20_000, 0, 0);
            let mut x = vec![0.0; s.nglobal];
            let st = eng.solve_into(&s, &rhs, &vals, &mut x, usize::MAX);
            assert!(st.cg.converged && !st.cg.breakdown, "{kind:?}: {:?}", st.cg);
            let mut ax = vec![0.0; s.nglobal];
            s.apply_helmholtz(lambda, &x, &mut ax);
            // b = rhs − A x_bc on the free DoFs; b − A(x − x_bc) = rhs − A x.
            let mut x_bc = vec![0.0; s.nglobal];
            for (&d, &v) in dir.iter().zip(&vals) {
                x_bc[d] = v;
            }
            let mut lift = vec![0.0; s.nglobal];
            s.apply_helmholtz(lambda, &x_bc, &mut lift);
            let (mut r2, mut b2) = (0.0, 0.0);
            for g in (0..s.nglobal).filter(|g| dir.binary_search(g).is_err()) {
                r2 += (rhs[g] - ax[g]).powi(2);
                b2 += (rhs[g] - lift[g]).powi(2);
            }
            assert!(
                r2.sqrt() <= 2e-10 * b2.sqrt(),
                "{kind:?} λ={lambda}: residual {:e} of {:e}",
                r2.sqrt(),
                b2.sqrt()
            );
        }
    }
}

/// `S_e` is symmetric, and `S` applied to a boundary trace equals `A`
/// applied to the trace's discrete-harmonic extension — on the boundary
/// rows; the interior rows of the latter vanish.
#[test]
fn schur_operator_is_symmetric_and_acts_as_harmonic_extension() {
    fn check<S: EllipticSpace>(s: &S, lambda: f64, dir: &[usize]) {
        let n = s.nglobal();
        let mut masked = vec![false; n];
        for &d in dir {
            masked[d] = true;
        }
        let (op, _) = Condensed::build(s, lambda, &masked);
        for c in &op.classes {
            for i in 0..c.nb {
                for j in 0..i {
                    assert_eq!(c.s[i * c.nb + j].to_bits(), c.s[j * c.nb + i].to_bits());
                }
            }
        }
        let mut ws = ElemScratch::for_operator(&op);
        let xb = pseudo(op.nb(), 3);
        let mut sx = vec![0.0; op.nb()];
        op.apply(&xb, &mut sx, &mut ws);
        // Harmonic extension: back-substitution with a zero interior load.
        let mut u = vec![0.0; n];
        op.back_substitute(&xb, &vec![0.0; op.interior_len()], &mut u, &mut ws);
        let mut au = vec![0.0; n];
        s.apply_helmholtz_ws(lambda, &u, &mut au, &mut ApplyScratch::new());
        let scale = au.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (c, &g) in op.bgid.iter().enumerate() {
            assert!((sx[c] - au[g as usize]).abs() < 1e-11 * scale, "row {g}");
        }
        for &g in &op.igid {
            assert!(au[g as usize].abs() < 1e-11 * scale, "interior row {g}");
        }
    }
    let s2 = space2(3, 2, 6);
    check(&s2, 1.7, &s2.boundary_dofs(|t| t == BoundaryTag::Wall));
    let s3 = space3(3);
    check(&s3, 0.0, &s3.boundary_dofs(|_| true));
}

/// Every preconditioner rung must be symmetric positive definite on the
/// compact space: `r₂·M⁻¹r₁ = r₁·M⁻¹r₂` and `r·M⁻¹r > 0`.
fn assert_precon_spd(eng: &mut EllipticSolver, seed: u64, what: &str) {
    let nb = eng.condensed_len();
    let (r1, r2) = (pseudo(nb, seed), pseudo(nb, seed ^ 0x5851F42D4C957F2D));
    let (z1, z2) = (precon_apply(eng, &r1), precon_apply(eng, &r2));
    let (a, b) = (dot(&r2, &z1), dot(&r1, &z2));
    assert!(
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0),
        "{what} not symmetric: {a} vs {b}"
    );
    let pos = dot(&r1, &z1);
    assert!(pos > 0.0, "{what} not positive: {pos}");
}

#[test]
fn preconditioners_symmetric_positive() {
    let s2 = space2(2, 2, 5);
    let s3 = space3(3);
    for kind in LADDER {
        let mut e2 = engine(&s2, 1.3, &s2.boundary_dofs(|_| true), kind);
        assert_precon_spd(&mut e2, 17, &format!("2D {kind:?}"));
        let mut e3 = engine(
            &s3,
            0.0,
            &s3.boundary_dofs(|t| t == BoundaryTag::Wall),
            kind,
        );
        assert_precon_spd(&mut e3, 91, &format!("3D {kind:?}"));
    }
}

#[test]
fn ladder_orders_the_rungs_2d() {
    let pi = std::f64::consts::PI;
    let s = space2(4, 4, 8);
    let bnd = s.boundary_dofs(|_| true);
    let zeros = vec![0.0; bnd.len()];
    // Accuracy: each rung solves the smooth manufactured problem to the
    // same answer.
    let exact = |x: f64, y: f64| (pi * x / 2.0).sin() * (pi * y).sin();
    let smooth_rhs = s.weak_rhs(|x, y| pi * pi * 1.25 * exact(x, y));
    // Iteration ladder: a rough RHS exercising the whole spectrum (a
    // single smooth mode converges in a handful of Krylov directions
    // under any preconditioner, hiding the ladder).
    let rough_rhs = s.apply_mass(&pseudo(s.nglobal, 42));
    let mut iters = Vec::new();
    for kind in LADDER {
        let mut eng = engine(&s, 0.0, &bnd, kind);
        let mut x = vec![0.0; s.nglobal];
        let st = eng.solve_into(&s, &smooth_rhs, &zeros, &mut x, usize::MAX);
        assert!(st.cg.converged, "{kind:?}: {:?}", st.cg);
        let err = s.l2_error(&x, exact);
        assert!(err < 1e-6, "{kind:?} L2 error {err}");
        let st = eng.solve_into(&s, &rough_rhs, &zeros, &mut x, usize::MAX);
        assert!(st.cg.converged, "{kind:?}: {:?}", st.cg);
        iters.push(st.cg.iterations);
    }
    assert!(
        iters.windows(2).all(|w| w[1] < w[0]),
        "each rung must beat the one below it: {iters:?}"
    );
}

/// The coarse vertex solve makes iteration counts (nearly) independent
/// of the element count — the two-level scalability claim.
#[test]
fn coarse_solve_gives_mesh_independence() {
    let run = |nx: usize, ny: usize, kind: PreconKind| -> usize {
        let s = space2(nx, ny, 4);
        let rhs = s.apply_mass(&pseudo(s.nglobal, 7));
        let bnd = s.boundary_dofs(|_| true);
        let zeros = vec![0.0; bnd.len()];
        let mut x = vec![0.0; s.nglobal];
        let st = engine(&s, 0.0, &bnd, kind).solve_into(&s, &rhs, &zeros, &mut x, usize::MAX);
        assert!(st.cg.converged);
        st.cg.iterations
    };
    let small = run(4, 2, PreconKind::LowEnergyCoarse);
    let large = run(12, 6, PreconKind::LowEnergyCoarse);
    // 9× the elements: allow a modest drift, nothing like the ~sqrt
    // growth of the one-level methods.
    assert!(
        large <= small + small / 2 + 4,
        "coarse not mesh-independent: {small} -> {large}"
    );
    let le_large = run(12, 6, PreconKind::LowEnergy);
    assert!(
        large * 2 < le_large,
        "coarse ({large}) should far outpace one-level ({le_large}) on many elements"
    );
}

/// Iteration pins on the `coupled_sem` patch shape with that workload's
/// Dirichlet sets, tolerance and viscous shift, on a rough RHS.
#[test]
fn iteration_pins_on_the_benchmark_patch() {
    let run = |p: usize, lambda: f64, velocity: bool| -> usize {
        let s = bench_patch(p);
        let dir = if velocity {
            s.boundary_dofs(|t| t != BoundaryTag::Outlet)
        } else {
            s.boundary_dofs(|t| t == BoundaryTag::Outlet)
        };
        let rhs = s.apply_mass(&pseudo(s.nglobal, 42));
        let mut x = vec![0.0; s.nglobal];
        let st = engine(&s, lambda, &dir, PreconKind::LowEnergyCoarse).solve_into(
            &s,
            &rhs,
            &vec![0.0; dir.len()],
            &mut x,
            usize::MAX,
        );
        assert!(st.cg.converged, "{:?}", st.cg);
        st.cg.iterations
    };
    let (p8, v8) = (run(8, 0.0, false), run(8, 600.0, true));
    assert!(p8 <= 40, "pressure took {p8} iterations");
    assert!(v8 <= 35, "viscous took {v8} iterations");
    let (p4, v4) = (run(4, 0.0, false), run(4, 600.0, true));
    assert!(
        5 * p8 <= 7 * p4 && 5 * v8 <= 7 * v4,
        "more than +40% from p=4 to p=8: pressure {p4} -> {p8}, viscous {v4} -> {v8}"
    );
}

#[test]
fn low_energy_converges_3d() {
    let pi = std::f64::consts::PI;
    let s = space3(4);
    let exact = move |x: f64, y: f64, z: f64| (pi * x).sin() * (pi * y).sin() * (pi * z).sin();
    let rhs = s.weak_rhs(|x, y, z| 3.0 * pi * pi * exact(x, y, z));
    let bnd = s.boundary_dofs(|_| true);
    let zeros = vec![0.0; bnd.len()];
    let rough = s.apply_mass(&pseudo(s.nglobal, 11));
    let solve = |kind: PreconKind| {
        let mut eng = engine(&s, 0.0, &bnd, kind);
        let mut x = vec![0.0; s.nglobal];
        let st = eng.solve_into(&s, &rhs, &zeros, &mut x, usize::MAX);
        assert!(st.cg.converged);
        let mut y = vec![0.0; s.nglobal];
        let rough_st = eng.solve_into(&s, &rough, &zeros, &mut y, usize::MAX);
        assert!(rough_st.cg.converged);
        (x, rough_st.cg.iterations)
    };
    let (xj, jac) = solve(PreconKind::Jacobi);
    let (xl, le) = solve(PreconKind::LowEnergyCoarse);
    assert!(le < jac, "3D low-energy {le} vs jacobi {jac}");
    for (a, b) in xj.iter().zip(&xl) {
        assert!((a - b).abs() < 1e-7);
    }
}

/// Spectral p-convergence in 3D under the low-energy+coarse rung: for an
/// analytic solution the L² error must drop by well over 4× per order
/// bump (exponential, not algebraic, decay).
#[test]
fn spectral_convergence_3d_low_energy() {
    let pi = std::f64::consts::PI;
    let exact = move |x: f64, y: f64, z: f64| (pi * x).sin() * (pi * y).sin() * (pi * z).sin();
    let mut errs = Vec::new();
    for p in [2usize, 3, 4, 5] {
        let s = space3(p);
        let rhs = s.weak_rhs(|x, y, z| 3.0 * pi * pi * exact(x, y, z));
        let bnd = s.boundary_dofs(|_| true);
        let zeros = vec![0.0; bnd.len()];
        let mut eng = engine(&s, 0.0, &bnd, PreconKind::LowEnergyCoarse);
        let mut x = vec![0.0; s.nglobal];
        let st = eng.solve_into(&s, &rhs, &zeros, &mut x, usize::MAX);
        assert!(st.cg.converged && !st.cg.breakdown, "P={p}: {:?}", st.cg);
        errs.push(s.l2_error(&x, exact));
    }
    for w in errs.windows(2) {
        assert!(w[1] < w[0] * 0.25, "not spectral: {errs:?}");
    }
    assert!(
        errs[errs.len() - 1] < 1e-4,
        "final error too large: {errs:?}"
    );
}

/// A time-varying RHS stream through one projection slot: per step, the
/// iteration count and the solution.
fn stream(
    s: &Space2d,
    eng: &mut EllipticSolver,
    steps: std::ops::Range<usize>,
) -> Vec<(usize, Vec<f64>)> {
    let pi = std::f64::consts::PI;
    let zeros = vec![0.0; s.boundary_dofs(|_| true).len()];
    steps
        .map(|step| {
            let t = step as f64 * 0.05;
            let rhs = s.weak_rhs(|x, y| {
                pi * pi * 1.25 * ((pi * x / 2.0).sin() * (pi * y).sin()) * (1.0 + t) + t * x.cos()
            });
            let mut x = vec![0.0; s.nglobal];
            let st = eng.solve_into(s, &rhs, &zeros, &mut x, 0);
            assert!(st.cg.converged);
            (st.cg.iterations, x)
        })
        .collect()
}

fn stream_engine(s: &Space2d, depth: usize) -> EllipticSolver {
    let bnd = s.boundary_dofs(|_| true);
    EllipticSolver::new(
        s,
        0.0,
        &bnd,
        PreconKind::LowEnergyCoarse,
        1e-10,
        4000,
        1,
        depth,
    )
}

/// Projection warm starts must never make things worse, and repeated
/// runs must be bitwise identical.
#[test]
fn projection_warm_start_helps_and_is_deterministic() {
    let s = space2(3, 3, 6);
    let iters = |sols: &[(usize, Vec<f64>)]| -> Vec<usize> { sols.iter().map(|x| x.0).collect() };
    let cold = iters(&stream(&s, &mut stream_engine(&s, 0), 0..6));
    let sols_a = stream(&s, &mut stream_engine(&s, 8), 0..6);
    let sols_b = stream(&s, &mut stream_engine(&s, 8), 0..6);
    let warm = iters(&sols_a);
    for (c, w) in cold.iter().zip(&warm) {
        assert!(
            w <= c,
            "projection increased iterations: warm {warm:?} cold {cold:?}"
        );
    }
    // After the first solve the basis must actually help.
    assert!(
        warm[1..].iter().sum::<usize>() < cold[1..].iter().sum::<usize>(),
        "warm {warm:?} vs cold {cold:?}"
    );
    for (a, b) in sols_a.iter().zip(&sols_b) {
        assert_eq!((a.0, bits(&a.1)), (b.0, bits(&b.1)));
    }
}

/// Bases restored from a snapshot continue bitwise, and a section laid
/// out for full-space bases (slot count first, vectors of length
/// `nglobal`) is refused with a typed error.
#[test]
fn projection_snapshot_roundtrip_is_bitwise_and_old_layout_is_refused() {
    let s = space2(2, 2, 5);
    let mut full = stream_engine(&s, 4);
    let _ = stream(&s, &mut full, 0..3);
    let mut enc = Enc::new();
    full.snapshot_proj(&mut enc);
    let bytes = enc.into_bytes();
    let saved = full.proj_len(0);
    assert!(saved > 0);
    let want = stream(&s, &mut full, 3..6);

    let mut resumed = stream_engine(&s, 4);
    let mut dec = Dec::new(&bytes);
    resumed.restore_proj(&mut dec).expect("restore");
    dec.finish().expect("section fully consumed");
    assert_eq!(resumed.proj_len(0), saved);
    let got = stream(&s, &mut resumed, 3..6);
    for (a, b) in want.iter().zip(&got) {
        assert_eq!((a.0, bits(&a.1)), (b.0, bits(&b.1)));
    }

    let mut old = Enc::new();
    old.put(1u64);
    old.put(1u64);
    old.put_slice(&vec![0.0f64; s.nglobal]);
    old.put_slice(&vec![0.0f64; s.nglobal]);
    let old = old.into_bytes();
    let before = resumed.proj_len(0);
    assert!(matches!(
        resumed.restore_proj(&mut Dec::new(&old)),
        Err(CkptError::Mismatch(_))
    ));
    assert_eq!(
        resumed.proj_len(0),
        before,
        "a refused section must not touch the bases"
    );
}

/// A warm-started solve sequence is bitwise identical whether it runs on
/// the ambient rayon pool or a 1-thread pool: the engine's arithmetic is
/// serial, so the pool size cannot reach it.
#[test]
fn projection_sequence_bitwise_across_pools() {
    let run = || {
        let s = space2(3, 2, 5);
        let bnd = s.boundary_dofs(|_| true);
        let vals = vec![0.0; bnd.len()];
        let mut eng = EllipticSolver::new(
            &s,
            0.7,
            &bnd,
            PreconKind::LowEnergyCoarse,
            1e-10,
            2000,
            1,
            4,
        );
        let mut x = vec![0.0; s.nglobal];
        let mut out = Vec::new();
        for t in 0..6 {
            let rhs = s.apply_mass(&pseudo(s.nglobal, 100 + t));
            let st = eng.solve_into(&s, &rhs, &vals, &mut x, 0);
            out.push(st.cg.iterations as u64);
            out.extend(bits(&x));
        }
        out
    };
    let ambient = run();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool");
    assert_eq!(ambient, pool.install(run), "solves differ across pools");
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Every preconditioner rung applies a symmetric positive
        /// operator on the compact space — the property PCG's
        /// correctness rests on — for arbitrary meshes, orders, shifts
        /// and probe vectors.
        #[test]
        fn preconditioner_application_symmetric_positive(
            seed in 0u64..1_000_000,
            p in 2usize..6,
            nx in 1usize..4,
            ny in 1usize..4,
            lambda in 0.0f64..50.0,
            kind_idx in 0usize..4,
        ) {
            let s = space2(nx, ny, p);
            let bnd = s.boundary_dofs(|t| t != BoundaryTag::Outlet);
            let mut eng = engine(&s, lambda, &bnd, LADDER[kind_idx]);
            assert_precon_spd(&mut eng, seed, &format!("{:?}", LADDER[kind_idx]));
        }
    }
}
