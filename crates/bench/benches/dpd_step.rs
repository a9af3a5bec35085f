//! Criterion: DPD step throughput (particles/second) — the per-particle
//! cost that Table 5's model parameterizes — and the serial vs
//! rayon-parallel force paths.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nkg_dpd::cells::CellGrid;
use nkg_dpd::force::{
    accumulate_pair_forces, accumulate_pair_forces_par, SpeciesMatrix, SweepScratch,
};
use nkg_dpd::sim::{DpdConfig, DpdSim, WallGeometry};
use nkg_dpd::Box3;

fn bench_step(c: &mut Criterion) {
    let cfg = DpdConfig {
        seed: 9,
        ..Default::default()
    };
    let bx = Box3::new([0.0; 3], [8.0; 3], [true; 3]);
    let mut sim = DpdSim::new(cfg, bx, WallGeometry::None);
    sim.fill_solvent();
    let n = sim.particles.len();
    let mut g = c.benchmark_group("dpd/step");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("periodic_box", |b| b.iter(|| sim.step()));
    g.finish();
}

fn bench_force_paths(c: &mut Criterion) {
    let cfg = DpdConfig {
        seed: 10,
        ..Default::default()
    };
    let bx = Box3::new([0.0; 3], [8.0; 3], [true; 3]);
    let mut sim = DpdSim::new(cfg, bx, WallGeometry::None);
    sim.fill_solvent();
    let mut grid = CellGrid::new(bx, 1.0);
    grid.rebuild_soa(&sim.particles.x, &sim.particles.y, &sim.particles.z);
    let m = SpeciesMatrix::uniform(1, 25.0, 4.5);
    let mut scratch = SweepScratch::default();
    let mut g = c.benchmark_group("dpd/forces");
    g.bench_function("serial_half_sweep", |b| {
        b.iter(|| {
            sim.particles.clear_forces();
            accumulate_pair_forces(
                &mut sim.particles,
                &grid,
                &bx,
                &m,
                1.0,
                1.0,
                0.01,
                1,
                1,
                &mut scratch,
            )
        })
    });
    g.bench_function("rayon_half_sweep", |b| {
        b.iter(|| {
            sim.particles.clear_forces();
            accumulate_pair_forces_par(
                &mut sim.particles,
                &grid,
                &bx,
                &m,
                1.0,
                1.0,
                0.01,
                1,
                1,
                &mut scratch,
            )
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_step, bench_force_paths
}
criterion_main!(benches);
