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
//! The shape (each rung cuts the total, the count barely grows with P,
//! projection collapses the tail of the sequence) is pinned in tier-1 by
//! `precon/tests.rs::ladder_orders_the_rungs_2d`. `--smoke` shrinks
//! orders and solve counts.

use nkg_bench::{bench_path, header, time_median, write_jsonl, Row};
use nkg_mesh::quad::QuadMesh;
use nkg_sem::precon::{EllipticSolver, PreconKind};
use nkg_sem::space2d::Space2d;
use nkg_sem::{NsConfig, NsSolver2d};

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
    write_jsonl(&bench_path("sem", smoke), &rows);
}
