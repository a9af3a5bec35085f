//! Property tests for the half-neighbor-list sweep: on arbitrary random
//! particle clouds the half-list traversal (each pair visited once, ±F
//! scattered to both endpoints) must agree with a brute-force O(N²)
//! minimum-image reference (every unordered pair through the public pair
//! kernel, no cell grid — boxes down to 3 r_c, where a periodic axis has
//! few cells) to within floating-point reassociation noise, and the
//! parallel half sweep must be bitwise deterministic at its fixed chunk
//! decomposition.

use nkg_dpd::cells::CellGrid;
use nkg_dpd::force::{
    accumulate_pair_forces, accumulate_pair_forces_par, pair_force, PairInputs, PairParams,
    SpeciesMatrix, SweepScratch,
};
use nkg_dpd::particles::Particles;
use nkg_dpd::Box3;
use proptest::prelude::*;

const RC: f64 = 1.0;
const KBT: f64 = 1.0;
const DT: f64 = 0.01;

/// Random cloud of `n` particles in a periodic box of side `l`, with two
/// species and non-zero velocities so all three Groot-Warren terms
/// (conservative, dissipative, random) contribute.
fn random_cloud(n: usize, l: f64, seed: u64) -> (Particles, Box3) {
    let bx = Box3::new([0.0; 3], [l; 3], [true; 3]);
    let mut p = Particles::new();
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = || {
        // splitmix64 — deterministic per (seed, call index)
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        (z ^ (z >> 31)) as f64 / u64::MAX as f64
    };
    for i in 0..n {
        let pos = [next() * l, next() * l, next() * l];
        let vel = [next() - 0.5, next() - 0.5, next() - 0.5];
        p.push(pos, vel, (i % 2) as u8);
    }
    (p, bx)
}

/// Shared signature of the two sweep entry points.
type Sweep = fn(
    &mut Particles,
    &CellGrid,
    &Box3,
    &SpeciesMatrix,
    f64,
    f64,
    f64,
    u64,
    u64,
    &mut SweepScratch,
) -> u64;

fn sweep_forces(
    p: &mut Particles,
    bx: &Box3,
    m: &SpeciesMatrix,
    seed: u64,
    step: u64,
    which: Sweep,
) -> (u64, Vec<[f64; 3]>) {
    let mut grid = CellGrid::new(*bx, RC);
    grid.rebuild_soa(&p.x, &p.y, &p.z);
    p.clear_forces();
    let hits = which(
        p,
        &grid,
        bx,
        m,
        RC,
        KBT,
        DT,
        seed,
        step,
        &mut SweepScratch::default(),
    );
    (hits, p.force_aos())
}

/// Brute-force reference: every unordered pair, minimum image, no grid.
fn brute_forces(
    p: &Particles,
    bx: &Box3,
    m: &SpeciesMatrix,
    seed: u64,
    step: u64,
) -> (u64, Vec<[f64; 3]>) {
    let prm = PairParams::new(RC, KBT, DT, seed, step);
    let inp = PairInputs::of(p);
    let mut f = vec![[0.0f64; 3]; p.len()];
    let mut hits = 0;
    for i in 0..p.len() {
        for j in i + 1..p.len() {
            if let Some(fv) = pair_force(&prm, bx, &inp, m, i, j) {
                hits += 1;
                for k in 0..3 {
                    f[i][k] += fv[k];
                    f[j][k] -= fv[k];
                }
            }
        }
    }
    (hits, f)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The half-list sweeps (serial and parallel) and the brute-force
    /// reference see the same pair set and produce forces equal to within
    /// 1e-12 of the largest force magnitude — the only permitted
    /// difference is the summation order.
    #[test]
    fn half_sweeps_agree_with_brute_force(
        seed in 0u64..10_000,
        step in 0u64..1_000,
        n in 32usize..256,
        l in 3.0f64..6.0,
    ) {
        let m = {
            let mut m = SpeciesMatrix::uniform(2, 25.0, 4.5);
            m.set(0, 1, 32.0, 6.0);
            m
        };
        let (mut p, bx) = random_cloud(n, l, seed);
        let (hits_half, f_half) =
            sweep_forces(&mut p, &bx, &m, seed, step, accumulate_pair_forces);
        let (hits_par, f_par) =
            sweep_forces(&mut p, &bx, &m, seed, step, accumulate_pair_forces_par);
        let (hits_full, f_full) = brute_forces(&p, &bx, &m, seed, step);

        prop_assert_eq!(hits_half, hits_full, "pair counts diverged");
        prop_assert_eq!(hits_half, hits_par, "parallel half pair count diverged");

        let scale = f_full
            .iter()
            .flatten()
            .fold(1.0f64, |a, &b| a.max(b.abs()));
        for i in 0..n {
            for k in 0..3 {
                prop_assert!(
                    (f_half[i][k] - f_full[i][k]).abs() <= 1e-12 * scale,
                    "half vs brute force at particle {} component {}: {} vs {}",
                    i, k, f_half[i][k], f_full[i][k]
                );
                prop_assert!(
                    (f_par[i][k] - f_full[i][k]).abs() <= 1e-12 * scale,
                    "parallel half vs brute force at particle {} component {}: {} vs {}",
                    i, k, f_par[i][k], f_full[i][k]
                );
            }
        }
    }

    /// At the fixed chunk decomposition (chunk count is a compile-time
    /// constant, independent of thread count) the parallel half sweep is
    /// bitwise deterministic: repeated runs reproduce every force word.
    #[test]
    fn parallel_half_sweep_is_bitwise_deterministic(
        seed in 0u64..10_000,
        n in 32usize..256,
    ) {
        let m = SpeciesMatrix::uniform(2, 25.0, 4.5);
        let (mut p, bx) = random_cloud(n, 4.0, seed);
        let (_, f1) = sweep_forces(&mut p, &bx, &m, seed, 7, accumulate_pair_forces_par);
        let (_, f2) = sweep_forces(&mut p, &bx, &m, seed, 7, accumulate_pair_forces_par);
        for i in 0..n {
            for k in 0..3 {
                prop_assert_eq!(
                    f1[i][k].to_bits(),
                    f2[i][k].to_bits(),
                    "parallel half sweep not reproducible at particle {}", i
                );
            }
        }
    }
}
