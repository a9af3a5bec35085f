//! Print an FNV-1a hash of the forces produced by one parallel half-list
//! sweep over a deterministic scene. The CI gate (`scripts/check.sh`)
//! runs this under different `RAYON_NUM_THREADS` settings and demands
//! identical output — the machine check of the sweep's bitwise
//! thread-invariance contract.

use nkg_dpd::cells::CellGrid;
use nkg_dpd::force::{accumulate_pair_forces_par, SpeciesMatrix, SweepScratch};
use nkg_dpd::sim::{DpdConfig, DpdSim, WallGeometry};
use nkg_dpd::Box3;

fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn main() {
    let bx = Box3::new([0.0; 3], [9.0; 3], [true; 3]);
    let cfg = DpdConfig {
        seed: 2026,
        ..Default::default()
    };
    let mut sim = DpdSim::new(cfg, bx, WallGeometry::None);
    sim.fill_solvent();
    let m = {
        let mut m = SpeciesMatrix::uniform(2, 25.0, 4.5);
        m.set(0, 1, 40.0, 9.0);
        m
    };
    for i in (0..sim.particles.len()).step_by(5) {
        sim.particles.species[i] = 1;
    }
    let mut grid = CellGrid::new(bx, 1.0);
    grid.rebuild_soa(&sim.particles.x, &sim.particles.y, &sim.particles.z);
    sim.particles.clear_forces();
    let hits = accumulate_pair_forces_par(
        &mut sim.particles,
        &grid,
        &bx,
        &m,
        1.0,
        1.0,
        0.01,
        2026,
        11,
        &mut SweepScratch::default(),
    );
    let p = &sim.particles;
    let hash = fnv1a(
        p.fx.iter()
            .chain(p.fy.iter())
            .chain(p.fz.iter())
            .flat_map(|v| v.to_bits().to_le_bytes()),
    );
    println!(
        "n={} threads={} pairs={hits} force_hash={hash:#018x}",
        p.len(),
        rayon::current_num_threads()
    );
}
