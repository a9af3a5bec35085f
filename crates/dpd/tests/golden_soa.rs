//! Golden-value pin for the SoA particle-storage refactor.
//!
//! The expected hashes below were captured from the pre-refactor AoS
//! implementation (`Particles` as `Vec<[f64; 3]>` arrays, pair-at-a-time
//! scalar sweep) on a frozen deterministic scene. The SoA layout, the
//! batched min-image/distance kernel and the hoisted pair-noise prefix
//! must all reproduce the same forces and trajectories *bitwise*; any
//! drift here means the refactor changed physics, not just layout.

use nkg_dpd::cells::CellGrid;
use nkg_dpd::force::{
    accumulate_pair_forces, pair_force, PairInputs, PairParams, SpeciesMatrix, SweepScratch,
};
use nkg_dpd::sim::{DpdConfig, DpdSim, ForceBackend, WallGeometry};
use nkg_dpd::Box3;

/// Number of interacting pairs in the frozen scene.
const GOLDEN_PAIRS: u64 = 6663;
/// Forces after one serial half sweep, captured pre-refactor.
const GOLDEN_SERIAL_FORCE_HASH: u64 = 0x342987006f999797;
/// Positions+velocities after 5 serial steps, captured pre-refactor.
const GOLDEN_STATE_HASH: u64 = 0xc1864ac053544b01;

/// FNV-1a over the little-endian bit patterns of a stream of f64s.
fn fnv1a(values: impl Iterator<Item = f64>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Deterministic ~1k-particle cloud (LCG), 2 species, in a 7^3 periodic box.
fn frozen_scene() -> (DpdSim, CellGrid, SpeciesMatrix, Box3) {
    let bx = Box3::new([0.0; 3], [7.0; 3], [true; 3]);
    let cfg = DpdConfig {
        seed: 4242,
        ..Default::default()
    };
    let mut sim = DpdSim::new(cfg, bx, WallGeometry::None);
    sim.fill_solvent();
    assert_eq!(sim.particles.len(), 1029, "frozen scene changed size");
    // Deterministically retag some particles as species 1.
    for i in (0..sim.particles.len()).step_by(7) {
        sim.particles.species[i] = 1;
    }
    let mut m = SpeciesMatrix::uniform(2, 25.0, 4.5);
    m.set(0, 1, 40.0, 9.0);
    let mut grid = CellGrid::new(bx, 1.0);
    grid.rebuild_soa(&sim.particles.x, &sim.particles.y, &sim.particles.z);
    (sim, grid, m, bx)
}

fn force_hash(sim: &DpdSim) -> u64 {
    fnv1a(
        sim.particles
            .force_aos()
            .iter()
            .flat_map(|f| f.iter().copied()),
    )
}

fn state_hash(sim: &DpdSim) -> u64 {
    fnv1a(
        sim.particles
            .pos_aos()
            .iter()
            .chain(sim.particles.vel_aos().iter())
            .flat_map(|v| v.iter().copied()),
    )
}

/// The restructured serial half sweep (per-`i` batched candidate lists
/// through the vectorized distance kernel) preserves each particle's
/// accumulation order, so its output is bitwise equal to the historical
/// pair-at-a-time sweep.
#[test]
fn serial_half_sweep_matches_pre_refactor_golden() {
    let (mut sim, grid, m, bx) = frozen_scene();
    sim.particles.clear_forces();
    let pairs = accumulate_pair_forces(
        &mut sim.particles,
        &grid,
        &bx,
        &m,
        1.0,
        1.0,
        0.01,
        4242,
        3,
        &mut SweepScratch::default(),
    );
    assert_eq!(pairs, GOLDEN_PAIRS, "serial pair count drifted");
    assert_eq!(
        force_hash(&sim),
        GOLDEN_SERIAL_FORCE_HASH,
        "serial half-sweep forces are not bitwise identical to the \
         pre-refactor AoS implementation"
    );
}

/// The golden pair count is the brute-force O(N²) minimum-image count:
/// the cell grid neither drops nor double-counts a pair of the scene.
#[test]
fn golden_pair_count_is_the_brute_force_count() {
    let (sim, _, m, bx) = frozen_scene();
    let prm = PairParams::new(1.0, 1.0, 0.01, 4242, 3);
    let inp = PairInputs::of(&sim.particles);
    let n = sim.particles.len();
    let pairs = (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
        .filter(|&(i, j)| pair_force(&prm, &bx, &inp, &m, i, j).is_some())
        .count();
    assert_eq!(pairs as u64, GOLDEN_PAIRS);
}

/// Five serial velocity-Verlet steps (integrator, wrapping, thermostat,
/// noise hoisting and grid rebuild all in the loop) reproduce the
/// pre-refactor trajectory bitwise.
#[test]
fn serial_trajectory_matches_pre_refactor_golden() {
    let (mut sim, _, _, _) = frozen_scene();
    sim.force_backend = ForceBackend::Serial;
    for _ in 0..5 {
        sim.step();
    }
    assert_eq!(
        state_hash(&sim),
        GOLDEN_STATE_HASH,
        "5-step serial trajectory diverged from the pre-refactor AoS \
         implementation"
    );
}
