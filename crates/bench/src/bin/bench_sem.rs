//! SEM elliptic engine benchmark → `BENCH_sem.json`.
//!
//! Two sections, both machine-recorded as JSON Lines:
//!
//! 1. The preconditioner ladder on the condensed system (none / Jacobi /
//!    low-energy / + coarse vertex solve / + RHS-projection warm starts)
//!    on the ablation mesh, one ladder per polynomial order — total CG
//!    iterations AND median wall time over a sequence of slowly varying
//!    rough right-hand sides, one record per rung.
//! 2. A short Navier–Stokes run on the default engine configuration with
//!    the per-step pressure/viscous iteration telemetry the solver
//!    exposes, one record for the run.
//!
//! A run replaces `BENCH_sem.json`; every row is stamped with
//! `host_cores`, `threads` and `commit`. `--smoke` shrinks polynomial
//! order and solve counts for CI shape checks (the JSON schema is
//! identical) and writes `target/BENCH_sem.smoke.json` instead, so the
//! gate never touches the committed rows.

use nkg_bench::{header, time_median, write_jsonl};
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

/// Slowly varying rough weak-form right-hand sides (see `ablation_precon`).
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

fn ladder(out: &mut Vec<String>, p: usize, nsolves: usize, reps: usize) {
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

    header(&format!(
        "Preconditioner ladder, P = {p} ({} DoF), {nsolves} solves per rung",
        space.nglobal
    ));
    println!(
        "{:>16} {:>12} {:>12} {:>12} {:>12}",
        "rung", "iters total", "first", "last", "median s"
    );
    let mut jacobi_total = 0usize;
    for (label, kind, proj_depth) in rungs {
        // The timed closure rebuilds the engine so every rep starts cold
        // (projection bases would otherwise carry across reps).
        let mut totals = (0usize, 0usize, 0usize);
        let secs = time_median(reps, || {
            let mut engine =
                EllipticSolver::new(&space, 0.0, &bnd, kind, 1e-10, 20_000, 1, proj_depth);
            let mut x = vec![0.0; space.nglobal];
            let (mut total, mut first, mut last) = (0usize, 0usize, 0usize);
            for (t, rhs) in seq.iter().enumerate() {
                let stats = engine.solve_into(&space, rhs, &vals, &mut x, 0);
                assert!(stats.cg.converged && !stats.cg.breakdown, "{label} failed");
                total += stats.cg.iterations;
                if t == 0 {
                    first = stats.cg.iterations;
                }
                last = stats.cg.iterations;
            }
            totals = (total, first, last);
        });
        let (total, first, last) = totals;
        if label == "jacobi" {
            jacobi_total = total;
        }
        println!(
            "{:>16} {:>12} {:>12} {:>12} {:>12.4}",
            label, total, first, last, secs
        );
        out.push(format!(
            "{{\"bench\":\"sem_precon\",\"p\":{p},\"dof\":{},\"rung\":\"{label}\",\"solves\":{nsolves},\"iters_total\":{total},\"iters_first\":{first},\"iters_last\":{last},\"secs\":{secs:.6}}}",
            space.nglobal
        ));
        if label == "le+coarse+proj" && jacobi_total > 0 {
            println!(
                "{:>16} {:.1}x fewer iterations than Jacobi",
                "→",
                jacobi_total as f64 / total.max(1) as f64
            );
        }
    }
}

fn ns_telemetry(out: &mut Vec<String>, p: usize, steps: usize) {
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
    let join = |v: &[usize]| {
        v.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    out.push(format!(
        "{{\"bench\":\"sem_ns\",\"p\":{p},\"steps\":{steps},\"precon\":\"le+coarse\",\"proj_depth\":8,\"pressure_iters\":[{}],\"viscous_iters\":[{}],\"max_residual\":{max_res:.3e},\"breakdown_steps\":{breakdowns},\"secs\":{secs:.6}}}",
        join(&press),
        join(&visc)
    ));
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut rows = Vec::new();
    let out = if smoke {
        ladder(&mut rows, 4, 6, 1);
        ns_telemetry(&mut rows, 3, 4);
        std::fs::create_dir_all("target").expect("create target/");
        "target/BENCH_sem.smoke.json"
    } else {
        ladder(&mut rows, 4, 12, 3);
        ladder(&mut rows, 8, 12, 3);
        ns_telemetry(&mut rows, 6, 20);
        "BENCH_sem.json"
    };
    write_jsonl(out, &rows);
    println!("\n({} records written to {out})", rows.len());
}
