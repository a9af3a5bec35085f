//! SEM elliptic engine benchmark → `BENCH_sem.json`.
//!
//! 1. The preconditioner ladder on the statically condensed system (CG on
//!    the Schur complement `S` of the element-boundary DoFs, interiors
//!    eliminated at build — the paper's "scalable low-energy basis
//!    preconditioner" setting): none → diag S → vertex diagonal + edge
//!    blocks of S → + coarse vertex solve PᵀSP → + successive-RHS
//!    projection.
//!
//!    One ladder per polynomial order on a 4×4 rectangle mesh; each rung
//!    solves the same sequence of slowly varying *rough* right-hand sides
//!    (a mass-weighted pseudo-random field exercises the whole spectrum;
//!    a single smooth mode converges in a handful of Krylov directions
//!    under any preconditioner and hides the ladder entirely). The
//!    projection rung is the only one that exploits the sequence — exactly
//!    how the Navier–Stokes stepper uses the engine. One row per rung:
//!    total / first / last CG iterations and median wall time.
//! 2. A short Navier–Stokes run on the default engine configuration with
//!    the per-step pressure/viscous iteration telemetry the solver
//!    exposes, one row for the run.
//!
//! 3. The element kernels everything above runs on, one `sem_kernels` row
//!    per order on a 16×4 patch of the `coupled_sem` element size:
//!    Helmholtz apply, collocation gradient, one element matrix, one cold
//!    `EllipticSolver::new` and the cost of one condensed CG iteration.
//!    Flop counts are computed from the sizes, not counted.
//!
//! 4. The 3D setup cost, one `sem_setup_3d` row per order on a 2×2×2 box
//!    and on the mapped tube of Table 2: one assembled element matrix,
//!    the condensed element classes and their bytes, and one cold
//!    `EllipticSolver::new` of a wall-Dirichlet Helmholtz engine.
//!
//! The shape (each rung cuts the total, the count barely grows with P,
//! projection collapses the tail of the sequence) is pinned in tier-1 by
//! `precon/tests.rs::ladder_orders_the_rungs_2d`. `--smoke` shrinks
//! orders and solve counts.

use nkg_bench::{bench_path, header, median, time_median, write_jsonl, Row};
use nkg_mesh::hex::HexMesh;
use nkg_mesh::quad::{BoundaryTag, QuadMesh};
use nkg_sem::precon::{ApplyScratch, EllipticSolver, EllipticSpace, PreconKind};
use nkg_sem::space2d::Space2d;
use nkg_sem::{NsConfig, NsSolver2d, Space3d};

/// Deterministic quasi-random vector in [-0.5, 0.5) (no RNG dependency).
/// Splitmix64-style finalizer so distinct seeds give independent fields.
fn pseudo(n: usize, seed: u64) -> Vec<f64> {
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

/// A sequence of slowly varying rough weak-form right-hand sides:
/// smoothly modulated combinations of a few frozen rough fields, the
/// elliptic engine's view of successive pressure-Poisson steps.
fn rhs_sequence(space: &Space2d, nsolves: usize) -> Vec<Vec<f64>> {
    let fields: Vec<Vec<f64>> = (0..5)
        .map(|k| space.apply_mass(&pseudo(space.nglobal, 40 + k)))
        .collect();
    (0..nsolves)
        .map(|t| {
            let tt = t as f64 * 0.6;
            let c = [
                1.0,
                (1.0 * tt).cos(),
                (0.7 * tt).sin(),
                0.5 * (1.6 * tt).cos(),
                0.5 * (2.3 * tt).sin(),
            ];
            let mut rhs = vec![0.0; space.nglobal];
            for (ck, fk) in c.iter().zip(&fields) {
                for (r, f) in rhs.iter_mut().zip(fk) {
                    *r += ck * f;
                }
            }
            rhs
        })
        .collect()
}

fn ladder(out: &mut Vec<Row>, p: usize, nsolves: usize, reps: usize) {
    let rungs: [(&str, PreconKind, usize); 5] = [
        ("none", PreconKind::None, 0),
        ("jacobi", PreconKind::Jacobi, 0),
        ("low-energy", PreconKind::LowEnergy, 0),
        ("le+coarse", PreconKind::LowEnergyCoarse, 0),
        ("le+coarse+proj", PreconKind::LowEnergyCoarse, 8),
    ];
    let mesh = QuadMesh::rectangle(4, 4, 0.0, 2.0, 0.0, 1.0);
    let space = Space2d::new(mesh, p, false);
    let seq = rhs_sequence(&space, nsolves);
    let bnd = space.boundary_dofs(|_| true);
    let vals = vec![0.0; bnd.len()];

    println!(
        "\nP = {p} ({} DoF), {nsolves} solves per rung, tol 1e-10",
        space.nglobal
    );
    println!(
        "{:>16} {:>8} {:>12} {:>8} {:>8} {:>12}",
        "rung", "S dof", "iters total", "first", "last", "median s"
    );
    let mut jacobi_total = 0usize;
    for (label, kind, proj_depth) in rungs {
        // The timed closure rebuilds the engine so every rep starts cold
        // (projection bases would otherwise carry across reps).
        let mut counts = (0usize, 0usize, 0usize, 0usize);
        let secs = time_median(reps, || {
            let mut engine =
                EllipticSolver::new(&space, 0.0, &bnd, kind, 1e-10, 20_000, 1, proj_depth);
            let mut x = vec![0.0; space.nglobal];
            let (mut total, mut first, mut last) = (0usize, 0usize, 0usize);
            for (t, rhs) in seq.iter().enumerate() {
                let cg = engine.solve_into(&space, rhs, &vals, &mut x, 0).cg;
                assert!(
                    cg.converged && !cg.breakdown,
                    "{label} rung failed to converge (iters {}, residual {:.3e}, breakdown {})",
                    cg.iterations,
                    cg.residual,
                    cg.breakdown
                );
                total += cg.iterations;
                if t == 0 {
                    first = cg.iterations;
                }
                last = cg.iterations;
            }
            counts = (total, first, last, engine.condensed_len());
        });
        let (total, first, last, s_dof) = counts;
        if label == "jacobi" {
            jacobi_total = total;
        }
        println!("{label:>16} {s_dof:>8} {total:>12} {first:>8} {last:>8} {secs:>12.4}");
        out.push(
            Row::new("sem_precon")
                .num("p", p)
                .num("dof", space.nglobal)
                .num("s_dof", s_dof)
                .text("rung", label)
                .num("solves", nsolves)
                .num("iters_total", total)
                .num("iters_first", first)
                .num("iters_last", last)
                .num("secs", format_args!("{secs:.6}")),
        );
        if label == "le+coarse+proj" {
            println!(
                "{:>16} {:.1}x fewer iterations than Jacobi",
                "→",
                jacobi_total as f64 / total.max(1) as f64
            );
        }
    }
}

fn ns_telemetry(out: &mut Vec<Row>, p: usize, steps: usize) {
    let mesh = QuadMesh::rectangle(2, 2, 0.0, 1.0, 0.0, 1.0);
    let space = Space2d::new(mesh, p, false);
    let cfg = NsConfig {
        nu: 0.05,
        dt: 2e-3,
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
    let mut press = Vec::with_capacity(steps);
    let mut visc = Vec::with_capacity(steps);
    let mut max_res = 0.0f64;
    let mut breakdowns = 0usize;
    let t0 = std::time::Instant::now();
    for _ in 0..steps {
        ns.step();
        let st = ns.last_step_stats();
        press.push(st.pressure_iterations);
        visc.push(st.viscous_iterations);
        max_res = max_res.max(st.pressure_residual).max(st.viscous_residual);
        breakdowns += st.breakdown as usize;
    }
    let secs = t0.elapsed().as_secs_f64();

    header(&format!(
        "NS per-step elliptic telemetry, P = {p}, {steps} steps (default engine: le+coarse, proj depth 8)"
    ));
    println!("pressure iters/step: {press:?}");
    println!("viscous  iters/step: {visc:?}");
    println!("max residual {max_res:.3e}, breakdown steps {breakdowns}, {secs:.3} s total");
    let mut row = Row::new("sem_ns")
        .num("p", p)
        .num("steps", steps)
        .text("precon", "le+coarse")
        .num("proj_depth", 8);
    // Warm starts show as a decay from the first step's count to the last.
    for (name, iters) in [("pressure", &press), ("viscous", &visc)] {
        row = row
            .num(&format!("{name}_iters_total"), iters.iter().sum::<usize>())
            .num(&format!("{name}_iters_first"), iters[0])
            .num(&format!("{name}_iters_last"), iters[steps - 1]);
    }
    out.push(
        row.num("max_residual", format_args!("{max_res:.3e}"))
            .num("breakdown_steps", breakdowns)
            .num("secs", format_args!("{secs:.6}")),
    );
}

/// Seconds per call of a microsecond-scale kernel: the median over seven
/// batches, each long enough (≥ 2 ms) for the clock not to matter.
fn secs_per_call(mut f: impl FnMut()) -> f64 {
    let mut batch = |calls: usize| {
        let t0 = std::time::Instant::now();
        for _ in 0..calls {
            f();
        }
        t0.elapsed().as_secs_f64()
    };
    let mut calls = 1;
    while batch(calls) < 2e-3 {
        calls *= 2;
    }
    median((0..7).map(|_| batch(calls)).collect()) / calls as f64
}

fn kernels(out: &mut Vec<Row>, p: usize) {
    use std::hint::black_box;
    let mesh = QuadMesh::rectangle(16, 4, 0.0, 2.0, 0.0, 1.0);
    let space = Space2d::new(mesh, p, false);
    let (n, elems, dof) = ((p + 1) as f64, space.gmap.len() as f64, space.nglobal);
    let u = space.project(|x, y| (x + 2.0 * y).sin());
    let mut ws = ApplyScratch::new();
    let mut a = vec![0.0; dof];
    let mut grad = [vec![0.0; dof], vec![0.0; dof]];

    // Per element: four n³ contractions of 2n³ flops, 6n² for the metric
    // fluxes and 4n² for the mass term and the scatter-add.
    let apply_flops = elems * (8.0 * n.powi(3) + 10.0 * n * n);
    let apply = secs_per_call(|| {
        space.apply_helmholtz_ws(1.0, black_box(&u), &mut a, &mut ws);
        black_box(&mut a);
    });
    // Two contractions and 8n² for the physical-space map and the
    // scatter-add per element, then two divisions per DoF.
    let grad_flops = elems * (4.0 * n.powi(3) + 8.0 * n * n) + 2.0 * dof as f64;
    let grad = secs_per_call(|| {
        space.gradient_ws(black_box(&u), &mut grad, &mut ws);
        black_box(&mut grad);
    });
    // Per column of the element matrix: 12n for the fluxes on the cross,
    // 4 per entry off it, 2n + 2 on each of its 2n − 2 arms, 4n + 2 at
    // the node.
    let off = (n - 1.0) * (n - 1.0);
    let cross = (2.0 * n - 2.0) * (2.0 * n + 2.0);
    let mat_flops = n * n * (16.0 * n + 2.0 + 4.0 * off + cross);
    let mut ae = vec![0.0; space.nloc() * space.nloc()];
    let mat = secs_per_call(|| {
        space.elem_matrix(black_box(5), 600.0, &mut ae, &mut ws);
        black_box(&mut ae);
    });

    // The viscous engine of a channel patch: walls and inlet Dirichlet,
    // no ambient artifact cache, so every `new` is a cold build.
    let dir = space.boundary_dofs(|t| t != BoundaryTag::Outlet);
    let new_engine = || {
        let kind = PreconKind::LowEnergyCoarse;
        EllipticSolver::new(&space, 600.0, &dir, kind, 1e-10, 4000, 1, 0)
    };
    let cold_new = time_median(5, || {
        black_box(new_engine());
    });
    let mut engine = new_engine();
    let rhs = space.apply_mass(&pseudo(dof, 40));
    let vals = vec![0.0; dir.len()];
    let mut iters = 0;
    let solve = secs_per_call(|| {
        iters = engine
            .solve_into(&space, &rhs, &vals, &mut a, 0)
            .cg
            .iterations;
    });

    let us = |secs: f64| secs * 1e6;
    let gf = |flops: f64, secs: f64| flops / secs / 1e9;
    let (apply_gf, grad_gf, mat_gf) = (
        gf(apply_flops, apply),
        gf(grad_flops, grad),
        gf(mat_flops, mat),
    );
    let us_per_iter = us(solve) / iters.max(1) as f64;
    println!(
        "{p:>3} {dof:>6} {:>10.2} {apply_gf:>6.2} {:>10.2} {grad_gf:>6.2} {:>10.2} {mat_gf:>6.2} {:>10.3} {iters:>6} {us_per_iter:>10.2}",
        us(apply),
        us(grad),
        us(mat),
        cold_new * 1e3,
    );
    out.push(
        Row::new("sem_kernels")
            .num("p", p)
            .num("elems", space.gmap.len())
            .num("dof", dof)
            .num("s_dof", engine.condensed_len())
            .num("apply_us", format_args!("{:.3}", us(apply)))
            .num("apply_gflops", format_args!("{apply_gf:.3}"))
            .num("gradient_us", format_args!("{:.3}", us(grad)))
            .num("gradient_gflops", format_args!("{grad_gf:.3}"))
            .num("elem_matrix_us", format_args!("{:.3}", us(mat)))
            .num("elem_matrix_gflops", format_args!("{mat_gf:.3}"))
            .num("cold_new_ms", format_args!("{:.4}", cold_new * 1e3))
            .num("iters_total", iters)
            .num("us_per_cg_iter", format_args!("{us_per_iter:.3}")),
    );
}

fn setup_3d(out: &mut Vec<Row>, p: usize) {
    use std::hint::black_box;
    for (name, mesh) in [
        (
            "box",
            HexMesh::box_mesh(2, 2, 2, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]),
        ),
        ("tube", HexMesh::tube(2, 2, 1.0, 2.0)),
    ] {
        let space = Space3d::new(mesh, p, false);
        let mut ae = vec![0.0; space.nloc() * space.nloc()];
        let mut ws = ApplyScratch::new();
        let mat = secs_per_call(|| {
            space.elem_matrix(black_box(0), 600.0, &mut ae, &mut ws);
            black_box(&mut ae);
        });
        let dir = space.boundary_dofs(|t| t == BoundaryTag::Wall);
        let new_engine = || {
            let kind = PreconKind::LowEnergyCoarse;
            EllipticSolver::new(&space, 600.0, &dir, kind, 1e-10, 4000, 1, 0)
        };
        let cold_new = time_median(3, || {
            black_box(new_engine());
        });
        let engine = new_engine();
        let (classes, bytes) = engine.class_footprint();
        let per_class = bytes / classes.max(1);
        println!(
            "{name:>5} {p:>3} {:>6} {:>12.6} {classes:>7} {:>12.3} {:>10.4}",
            space.nglobal,
            mat,
            per_class as f64 / 1e6,
            cold_new,
        );
        out.push(
            Row::new("sem_setup_3d")
                .text("mesh", name)
                .num("p", p)
                .num("elems", space.gmap.len())
                .num("dof", space.nglobal)
                .num("s_dof", engine.condensed_len())
                .num("elem_matrix_s", format_args!("{mat:.6}"))
                .num("classes", classes)
                .num("bytes_per_class", per_class)
                .num("engine_new_s", format_args!("{cold_new:.4}")),
        );
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (orders, nsolves, reps, ns): (&[usize], _, _, _) = if smoke {
        (&[3, 4], 6, 1, (3, 4))
    } else {
        (&[4, 6, 8, 10], 12, 3, (6, 20))
    };
    let mut rows = Vec::new();
    header("Preconditioner ladder: CG on the condensed SEM Poisson system");
    for &p in orders {
        ladder(&mut rows, p, nsolves, reps);
    }
    ns_telemetry(&mut rows, ns.0, ns.1);
    header("Element kernels on a 16x4 patch (flops computed from sizes)");
    println!(
        "{:>3} {:>6} {:>10} {:>6} {:>10} {:>6} {:>10} {:>6} {:>10} {:>6} {:>10}",
        "P",
        "DoF",
        "apply us",
        "GF/s",
        "grad us",
        "GF/s",
        "A_e us",
        "GF/s",
        "new ms",
        "iters",
        "us/iter"
    );
    for &p in if smoke { &[2, 3][..] } else { &[4, 6, 8][..] } {
        kernels(&mut rows, p);
    }
    header("3D setup: assembled element matrix, condensed classes, cold engine");
    println!(
        "{:>5} {:>3} {:>6} {:>12} {:>7} {:>12} {:>10}",
        "mesh", "P", "DoF", "A_e s", "classes", "MB/class", "new s"
    );
    for &p in if smoke { &[2, 3][..] } else { &[4, 6, 8][..] } {
        setup_3d(&mut rows, p);
    }
    write_jsonl(&bench_path("sem", smoke), &rows);
}
