//! The DPD step contract: `DpdSim::step` is the Groot–Warren modified
//! velocity-Verlet scheme with **one** force evaluation per step, also
//! across the open boundary's insertions and deletions.
//!
//! The reference integrator below is written from the public surface only
//! (`compute_forces`, the open boundary's `delete_outflow`/`insert_inflow`,
//! per-particle accessors) in the textbook particle-at-a-time form, and
//! must reproduce `step()` bitwise — which pins both the number of
//! evaluations and the arithmetic of the fused component passes.

use nektarg::dpd::inflow::OpenBoundaryX;
use nektarg::dpd::sim::{DpdConfig, DpdSim, ForceBackend, WallGeometry};
use nektarg::dpd::walls::bounce_back_plane;
use nektarg::dpd::Box3;

/// One reference step; returns `(deleted, inserted)`.
fn reference_step(sim: &mut DpdSim) -> (usize, usize) {
    let (dt, lambda) = (sim.cfg.dt, sim.cfg.lambda);
    let mut changed = (0, 0);
    if let Some(ob) = sim.open_x.as_mut() {
        changed.0 = ob.delete_outflow(&mut sim.particles, &sim.bx);
        changed.1 = ob.insert_inflow(
            &mut sim.particles,
            &sim.bx,
            dt,
            sim.cfg.seed,
            sim.step_count,
        );
    }
    if sim.step_count == 0 {
        sim.compute_forces();
    }
    let n = sim.particles.len();
    let f_old = sim.particles.force_aos();
    let mut v_old = sim.particles.vel_aos();
    for i in 0..n {
        let mut pos = sim.particles.pos(i);
        let mut vel = v_old[i];
        for k in 0..3 {
            pos[k] += dt * vel[k] + 0.5 * dt * dt * f_old[i][k];
            vel[k] += lambda * dt * f_old[i][k];
        }
        sim.bx.wrap(&mut pos);
        if sim.walls == WallGeometry::SlabY {
            let lo = bounce_back_plane(&mut pos, &mut vel, 1, sim.bx.lo[1], 1.0);
            let hi = bounce_back_plane(&mut pos, &mut vel, 1, sim.bx.hi[1], -1.0);
            if lo || hi {
                v_old[i] = v_old[i].map(|v| -v);
            }
        }
        sim.particles.set_pos(i, pos);
        sim.particles.set_vel(i, vel);
    }
    sim.step_count += 1;
    sim.compute_forces();
    for i in 0..n {
        let f = sim.particles.force(i);
        let v = [0, 1, 2].map(|k| v_old[i][k] + 0.5 * dt * (f_old[i][k] + f[k]));
        sim.particles.set_vel(i, v);
    }
    sim.time += dt;
    changed
}

fn build(scenario: &str, backend: ForceBackend) -> DpdSim {
    let cfg = DpdConfig {
        seed: 77,
        ..Default::default()
    };
    let (periodic, walls) = match scenario {
        "periodic" => ([true; 3], WallGeometry::None),
        "slab" => ([true, false, true], WallGeometry::SlabY),
        _ => ([false, false, true], WallGeometry::SlabY),
    };
    let bx = Box3::new([0.0; 3], [8.0, 4.0, 4.0], periodic);
    let mut sim = DpdSim::new(cfg, bx, walls);
    sim.force_backend = backend;
    sim.fill_solvent();
    if scenario == "slab" {
        sim.set_body_force(|_| [0.15, 0.0, 0.0]);
    }
    if scenario == "open" {
        let mut ob = OpenBoundaryX::new(2, 2, 3.0, 1.0, [0.8, 0.0, 0.0], 0);
        ob.target_count = Some(sim.particles.len());
        sim.set_open_x(ob);
    }
    sim
}

/// Every word of the particle state, for bitwise comparison.
fn state_bits(sim: &DpdSim) -> Vec<u64> {
    let p = &sim.particles;
    [&p.x, &p.y, &p.z, &p.vx, &p.vy, &p.vz, &p.fx, &p.fy, &p.fz]
        .iter()
        .flat_map(|c| c.iter().map(|v| v.to_bits()))
        .chain([sim.step_count, sim.time.to_bits(), sim.last_pair_count])
        .collect()
}

#[test]
fn step_is_the_one_evaluation_reference_integrator_bitwise() {
    for scenario in ["periodic", "slab", "open"] {
        for backend in [ForceBackend::Serial, ForceBackend::Parallel] {
            let mut per_pool = Vec::new();
            for threads in [1, 4] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                per_pool.push(pool.install(|| {
                    let mut stepped = build(scenario, backend);
                    let mut reference = build(scenario, backend);
                    let (mut deleted, mut inserted) = (0, 0);
                    for s in 0..20 {
                        stepped.step();
                        let (d, i) = reference_step(&mut reference);
                        deleted += d;
                        inserted += i;
                        assert!(
                            state_bits(&stepped) == state_bits(&reference),
                            "{scenario} {backend:?} {threads} threads: step {s} differs"
                        );
                    }
                    if scenario == "open" {
                        assert!(deleted > 0 && inserted > 0, "-{deleted} +{inserted}");
                    }
                    state_bits(&stepped)
                }));
            }
            assert!(
                per_pool[0] == per_pool[1],
                "{scenario} {backend:?}: 1 and 4 pool threads differ"
            );
        }
    }
}
