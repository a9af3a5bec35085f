//! Groot–Warren DPD forces.
//!
//! Pairwise force between particles `i, j` at distance `r < r_c` with unit
//! vector `e` and relative velocity `v_ij = v_i − v_j`:
//!
//! ```text
//! F_C = a_ij (1 − r/r_c) e                      conservative
//! F_D = −γ_ij w(r)² (e·v_ij) e                  dissipative
//! F_R = σ_ij w(r) ζ_ij e / sqrt(Δt)             random
//! w(r) = 1 − r/r_c,   σ_ij² = 2 γ_ij k_B T      fluctuation–dissipation
//! ```
//!
//! `ζ_ij` is a symmetric (ζ_ij = ζ_ji) zero-mean unit-variance random
//! variable drawn *counter-based* from `(step, min(i,j), max(i,j))`, so the
//! force evaluation is order-independent and can run in parallel without
//! changing the physics. The step-constant prefix of the draw
//! (`seed ^ step·φ`) is hoisted out of the inner loop into
//! [`PairParams::base`]; [`pair_noise`] remains bitwise identical.
//!
//! Two sweeps evaluate the identical pair kernel:
//!
//! * [`accumulate_pair_forces`] — serial half-list sweep. Candidate
//!   distances are precomputed per cell through the batched
//!   `nkg-simd` min-image kernel (SoA gather, vectorized `r²` test), and
//!   each unordered pair is evaluated once with `±F` scatter. Per-particle
//!   accumulation order is identical to the historical pair-at-a-time
//!   sweep, so results are bitwise stable across the refactor.
//! * [`accumulate_pair_forces_par`] — parallel half-list sweep. Cells are
//!   cut into a fixed number of contiguous chunks balanced by particle
//!   count ([`CellGrid::balanced_cell_chunks`]); each chunk accumulates
//!   `+F` and own-range `−F` into a dense CSR-position-indexed buffer and
//!   spills out-of-range `−F` contributions to a replay list. Buffers are
//!   reduced in fixed chunk order, so the result depends only on the grid
//!   contents — never on the thread count.
//!
//! Both work out of a caller-owned [`SweepScratch`], so a steady-state
//! sweep allocates nothing.

use crate::cells::CellGrid;
use crate::domain::Box3;
use crate::particles::Particles;

/// Number of cell chunks for the parallel half-list sweep. A compile-time
/// constant so the chunk structure — and therefore the accumulation order —
/// is a function of the grid alone, independent of the thread count.
pub const HALF_SWEEP_CHUNKS: usize = 16;

/// Per-species-pair DPD coefficients.
#[derive(Debug, Clone)]
pub struct SpeciesMatrix {
    n: usize,
    /// Conservative repulsion `a_ij`.
    pub a: Vec<f64>,
    /// Dissipation `γ_ij`.
    pub gamma: Vec<f64>,
}

impl SpeciesMatrix {
    /// Uniform coefficients for `n` species.
    pub fn uniform(n: usize, a: f64, gamma: f64) -> Self {
        Self {
            n,
            a: vec![a; n * n],
            gamma: vec![gamma; n * n],
        }
    }

    /// Set the coefficients of an (unordered) species pair.
    pub fn set(&mut self, s1: u8, s2: u8, a: f64, gamma: f64) {
        let (i, j) = (s1 as usize, s2 as usize);
        assert!(i < self.n && j < self.n);
        self.a[i * self.n + j] = a;
        self.a[j * self.n + i] = a;
        self.gamma[i * self.n + j] = gamma;
        self.gamma[j * self.n + i] = gamma;
    }

    /// Coefficients `(a, γ)` of a species pair.
    #[inline]
    pub fn get(&self, s1: u8, s2: u8) -> (f64, f64) {
        let k = s1 as usize * self.n + s2 as usize;
        (self.a[k], self.gamma[k])
    }

    /// Number of species.
    pub fn num_species(&self) -> usize {
        self.n
    }
}

/// Step-constant prefix of the pair-noise key: everything in the splitmix64
/// chain that does not depend on the pair `(i, j)`. Computing it once per
/// sweep removes one xor-multiply from every pair draw with bitwise-equal
/// output.
#[inline]
pub fn noise_base(seed: u64, step: u64) -> u64 {
    seed ^ step.wrapping_mul(0x9E3779B97F4A7C15)
}

/// Pair draw continued from a precomputed [`noise_base`]. See
/// [`pair_noise`] for the stream-key convention.
#[inline]
pub fn pair_noise_from_base(base: u64, i: usize, j: usize) -> f64 {
    let (lo, hi) = (i.min(j) as u64, i.max(j) as u64);
    let mut z = base;
    z ^= lo.wrapping_mul(0xBF58476D1CE4E5B9);
    z ^= hi.wrapping_mul(0x94D049BB133111EB);
    // splitmix64 finalization, twice for two uniforms.
    let mut u = 0.0f64;
    for _ in 0..2 {
        z = z.wrapping_add(0x9E3779B97F4A7C15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
        x ^= x >> 31;
        u += (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    }
    // Sum of two U(-0.5,0.5) has variance 1/6; scale to unit variance.
    u * (6.0f64).sqrt()
}

/// Counter-based symmetric random sample, approximately standard normal
/// (sum of 4 scaled uniforms; the DPD thermostat only requires zero mean,
/// unit variance and finite moments — Groot & Warren use uniforms).
///
/// Stream-key convention: the pair-noise stream is keyed on
/// `(seed, step, min(i,j), max(i,j))`. Every other stochastic draw in the
/// engine (inflow, feedback, fill, platelet seeding) follows the analogous
/// `(seed, DOMAIN, step, site, lane)` keying in [`crate::streams`] — state
/// lives in the key, never in a mutated generator, so checkpoints carry no
/// RNG internals and restarts replay draws exactly.
#[inline]
pub fn pair_noise(seed: u64, step: u64, i: usize, j: usize) -> f64 {
    pair_noise_from_base(noise_base(seed, step), i, j)
}

/// Shared per-pair parameters that do not vary across pairs.
#[derive(Debug, Clone, Copy)]
pub struct PairParams {
    /// Interaction cutoff.
    pub rc: f64,
    /// Thermostat temperature `k_B T`.
    pub kbt: f64,
    /// `1/√Δt` (precomputed).
    pub inv_sqrt_dt: f64,
    /// Noise stream seed.
    pub seed: u64,
    /// Time step counter (the noise counter).
    pub step: u64,
    /// Hoisted step-constant noise prefix ([`noise_base`]).
    pub base: u64,
}

impl PairParams {
    /// Precompute the per-sweep constants for `(rc, kbt, dt, seed, step)`.
    pub fn new(rc: f64, kbt: f64, dt: f64, seed: u64, step: u64) -> Self {
        Self {
            rc,
            kbt,
            inv_sqrt_dt: 1.0 / dt.sqrt(),
            seed,
            step,
            base: noise_base(seed, step),
        }
    }
}

/// Read-only SoA views the pair kernel consumes. Holds borrows of the
/// position/velocity component arrays and species — never the force
/// arrays, so callers keep a disjoint mutable borrow for accumulation.
#[derive(Clone, Copy)]
pub struct PairInputs<'a> {
    /// Position components.
    pub x: &'a [f64],
    /// Position components.
    pub y: &'a [f64],
    /// Position components.
    pub z: &'a [f64],
    /// Velocity components.
    pub vx: &'a [f64],
    /// Velocity components.
    pub vy: &'a [f64],
    /// Velocity components.
    pub vz: &'a [f64],
    /// Species indices.
    pub species: &'a [u8],
}

impl<'a> PairInputs<'a> {
    /// Borrow the read-only arrays of a particle container.
    pub fn of(p: &'a Particles) -> Self {
        Self {
            x: &p.x,
            y: &p.y,
            z: &p.z,
            vx: &p.vx,
            vy: &p.vy,
            vz: &p.vz,
            species: &p.species,
        }
    }
}

/// Post-cutoff Groot–Warren kernel: force on `i` from `j` given the
/// already-computed minimum-image displacement `d` and squared distance
/// `r2`. Arithmetic order matches the historical kernel exactly.
#[inline]
fn pair_force_from_d(
    prm: &PairParams,
    inp: &PairInputs<'_>,
    matrix: &SpeciesMatrix,
    d: [f64; 3],
    r2: f64,
    i: usize,
    j: usize,
) -> [f64; 3] {
    let r = r2.sqrt();
    let w = 1.0 - r / prm.rc;
    let e = [d[0] / r, d[1] / r, d[2] / r];
    let (a, gamma) = matrix.get(inp.species[i], inp.species[j]);
    let sigma = (2.0 * gamma * prm.kbt).sqrt();
    let vij = [
        inp.vx[i] - inp.vx[j],
        inp.vy[i] - inp.vy[j],
        inp.vz[i] - inp.vz[j],
    ];
    let ev = e[0] * vij[0] + e[1] * vij[1] + e[2] * vij[2];
    let zeta = pair_noise_from_base(prm.base, i, j);
    let fmag = a * w - gamma * w * w * ev + sigma * w * zeta * prm.inv_sqrt_dt;
    [fmag * e[0], fmag * e[1], fmag * e[2]]
}

/// The Groot–Warren pair kernel: force on particle `i` from particle `j`,
/// or `None` outside the cutoff. Every sweep evaluates exactly this
/// function's arithmetic, so serial and parallel paths compute
/// bit-identical per-pair physics; swapping `i ↔ j` negates the result
/// exactly (IEEE negation is exact and `ζ` is symmetric).
#[inline]
pub fn pair_force(
    prm: &PairParams,
    bx: &Box3,
    inp: &PairInputs<'_>,
    matrix: &SpeciesMatrix,
    i: usize,
    j: usize,
) -> Option<[f64; 3]> {
    let d = bx.min_image(
        [inp.x[i], inp.y[i], inp.z[i]],
        [inp.x[j], inp.y[j], inp.z[j]],
    );
    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
    if r2 >= prm.rc * prm.rc || r2 < 1e-24 {
        return None;
    }
    Some(pair_force_from_d(prm, inp, matrix, d, r2, i, j))
}

/// Gather/batch buffers of one cell sweep (one per thread of execution).
#[derive(Default)]
struct CellScratch {
    /// Candidate particle indices of the current cell neighborhood.
    idx: Vec<u32>,
    /// Gathered candidate coordinates (SoA).
    gx: Vec<f64>,
    gy: Vec<f64>,
    gz: Vec<f64>,
    /// Batched minimum-image displacements and squared distances.
    dx: Vec<f64>,
    dy: Vec<f64>,
    dz: Vec<f64>,
    r2: Vec<f64>,
}

/// Working buffers and output of one chunk of the parallel half sweep.
#[derive(Default)]
struct ChunkScratch {
    cell: CellScratch,
    /// Dense `±F` accumulators for the chunk's own CSR range, indexed by
    /// CSR position minus the chunk base.
    own: Vec<[f64; 3]>,
    /// `−F` contributions to particles outside the chunk's CSR range
    /// (forward-neighbor cells of the chunk's last cells), replayed during
    /// the ordered reduction.
    spill: Vec<(u32, [f64; 3])>,
    hits: u64,
}

/// Buffers of the pair sweeps, kept by the caller between calls so the
/// sweeps stop allocating once the buffers have grown to the box's
/// occupancy. Carries no state from one sweep to the next: each sweep
/// clears what it uses.
#[derive(Default)]
pub struct SweepScratch {
    serial: CellScratch,
    chunks: Vec<ChunkScratch>,
}

/// Half-list sweep over the cell range `[clo, chi)`: every unordered pair
/// whose *owning* cell (the lower cell id of the pair) lies in the range is
/// evaluated exactly once, in deterministic order, and handed to `apply`.
///
/// Per cell, candidate coordinates (own cell + forward neighbors) are
/// gathered once into contiguous SoA buffers and the cutoff test runs
/// through the vectorized `nkg-simd` batch kernel; only surviving pairs
/// evaluate the scalar force kernel. The enumeration guarantees each
/// particle's contributions arrive in the same relative order as the
/// historical pair-at-a-time loop, so per-particle sums are bitwise
/// reproducible.
#[allow(clippy::too_many_arguments)]
fn sweep_half_cells(
    prm: &PairParams,
    bx: &Box3,
    inp: &PairInputs<'_>,
    matrix: &SpeciesMatrix,
    grid: &CellGrid,
    clo: usize,
    chi: usize,
    scratch: &mut CellScratch,
    mut apply: impl FnMut(usize, usize, [f64; 3]),
) -> u64 {
    let l = bx.lengths();
    let periodic = bx.periodic;
    let rc2 = prm.rc * prm.rc;
    let mut pairs = 0u64;
    for c in clo..chi {
        let own = grid.cell_particles(c);
        if own.is_empty() {
            continue;
        }
        scratch.idx.clear();
        scratch.gx.clear();
        scratch.gy.clear();
        scratch.gz.clear();
        let mut gather = |j: usize| {
            scratch.idx.push(j as u32);
            scratch.gx.push(inp.x[j]);
            scratch.gy.push(inp.y[j]);
            scratch.gz.push(inp.z[j]);
        };
        for &i in own {
            gather(i);
        }
        for &c2 in grid.fwd_neighbors(c) {
            for &j in grid.cell_particles(c2 as usize) {
                gather(j);
            }
        }
        let total = scratch.idx.len();
        for (a, &i) in own.iter().enumerate() {
            let lo = a + 1;
            let m = total - lo;
            if m == 0 {
                continue;
            }
            scratch.dx.resize(m, 0.0);
            scratch.dy.resize(m, 0.0);
            scratch.dz.resize(m, 0.0);
            scratch.r2.resize(m, 0.0);
            nkg_simd::min_image_dist2_batch(
                [inp.x[i], inp.y[i], inp.z[i]],
                &scratch.gx[lo..],
                &scratch.gy[lo..],
                &scratch.gz[lo..],
                l,
                periodic,
                &mut scratch.dx,
                &mut scratch.dy,
                &mut scratch.dz,
                &mut scratch.r2,
            );
            for k in 0..m {
                let r2 = scratch.r2[k];
                if r2 >= rc2 || r2 < 1e-24 {
                    continue;
                }
                let j = scratch.idx[lo + k] as usize;
                let d = [scratch.dx[k], scratch.dy[k], scratch.dz[k]];
                let fv = pair_force_from_d(prm, inp, matrix, d, r2, i, j);
                pairs += 1;
                apply(i, j, fv);
            }
        }
    }
    pairs
}

/// Serial half sweep: evaluate each unordered pair once and apply the
/// force to both particles (`p` forces must be pre-zeroed or hold external
/// forces to accumulate onto). Returns the number of interacting pairs.
#[allow(clippy::too_many_arguments)]
pub fn accumulate_pair_forces(
    p: &mut Particles,
    grid: &CellGrid,
    bx: &Box3,
    matrix: &SpeciesMatrix,
    rc: f64,
    kbt: f64,
    dt: f64,
    seed: u64,
    step: u64,
    scratch: &mut SweepScratch,
) -> u64 {
    let prm = PairParams::new(rc, kbt, dt, seed, step);
    // Split borrows: read pos/vel/species, write the force components.
    let inp = PairInputs {
        x: &p.x,
        y: &p.y,
        z: &p.z,
        vx: &p.vx,
        vy: &p.vy,
        vz: &p.vz,
        species: &p.species,
    };
    let fx = &mut p.fx;
    let fy = &mut p.fy;
    let fz = &mut p.fz;
    sweep_half_cells(
        &prm,
        bx,
        &inp,
        matrix,
        grid,
        0,
        grid.num_cells(),
        &mut scratch.serial,
        |i, j, fv| {
            fx[i] += fv[0];
            fy[i] += fv[1];
            fz[i] += fv[2];
            fx[j] -= fv[0];
            fy[j] -= fv[1];
            fz[j] -= fv[2];
        },
    )
}

/// Parallel half sweep: each unordered pair is computed once, `±F` lands
/// in deterministic per-chunk buffers, and chunks are reduced in fixed
/// order — bitwise identical for any thread count (chunk boundaries are a
/// function of the grid alone; rayon's contiguous in-order splits never
/// reorder the chunk list). Serial and parallel half sweeps agree to
/// rounding (≤ 1e-12 per component), not bitwise: partial sums associate
/// differently. Returns the number of interacting pairs.
#[allow(clippy::too_many_arguments)]
pub fn accumulate_pair_forces_par(
    p: &mut Particles,
    grid: &CellGrid,
    bx: &Box3,
    matrix: &SpeciesMatrix,
    rc: f64,
    kbt: f64,
    dt: f64,
    seed: u64,
    step: u64,
    scratch: &mut SweepScratch,
) -> u64 {
    use rayon::prelude::*;
    let prm = PairParams::new(rc, kbt, dt, seed, step);
    let ranges = grid.balanced_cell_chunks(HALF_SWEEP_CHUNKS);
    let rank = grid.rank();
    let order = grid.sorted_order();
    assert!(p.len() <= u32::MAX as usize, "particle count overflows u32");
    if scratch.chunks.len() < ranges.len() {
        scratch
            .chunks
            .resize_with(ranges.len(), ChunkScratch::default);
    }
    let chunks = &mut scratch.chunks[..ranges.len()];
    let inp = PairInputs::of(p);
    chunks
        .par_iter_mut()
        .zip(&ranges)
        .for_each(|(chunk, &(clo, chi))| {
            let base = grid.cell_start(clo);
            let own_n = grid.cell_start(chi) - base;
            let ChunkScratch {
                cell,
                own,
                spill,
                hits,
            } = chunk;
            own.clear();
            own.resize(own_n, [0.0; 3]);
            spill.clear();
            *hits = sweep_half_cells(&prm, bx, &inp, matrix, grid, clo, chi, cell, |i, j, fv| {
                let ri = rank[i] - base;
                own[ri][0] += fv[0];
                own[ri][1] += fv[1];
                own[ri][2] += fv[2];
                let rj = rank[j];
                if rj >= base && rj < base + own_n {
                    let rj = rj - base;
                    own[rj][0] -= fv[0];
                    own[rj][1] -= fv[1];
                    own[rj][2] -= fv[2];
                } else {
                    spill.push((j as u32, [-fv[0], -fv[1], -fv[2]]));
                }
            });
        });
    let mut hits = 0u64;
    for (&(clo, _), chunk) in ranges.iter().zip(chunks.iter()) {
        let base = grid.cell_start(clo);
        for (k, f) in chunk.own.iter().enumerate() {
            let i = order[base + k];
            p.fx[i] += f[0];
            p.fy[i] += f[1];
            p.fz[i] += f[2];
        }
        for &(j, f) in &chunk.spill {
            let j = j as usize;
            p.fx[j] += f[0];
            p.fy[j] += f[1];
            p.fz[j] += f[2];
        }
        hits += chunk.hits;
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn species_matrix_symmetric() {
        let mut m = SpeciesMatrix::uniform(3, 25.0, 4.5);
        m.set(0, 2, 50.0, 9.0);
        assert_eq!(m.get(0, 2), (50.0, 9.0));
        assert_eq!(m.get(2, 0), (50.0, 9.0));
        assert_eq!(m.get(1, 1), (25.0, 4.5));
    }

    #[test]
    fn noise_symmetric_and_step_dependent() {
        let z1 = pair_noise(42, 10, 3, 7);
        let z2 = pair_noise(42, 10, 7, 3);
        assert_eq!(z1, z2);
        assert_ne!(pair_noise(42, 11, 3, 7), z1);
        assert_ne!(pair_noise(43, 10, 3, 7), z1);
    }

    #[test]
    fn noise_base_hoist_is_bitwise_identical() {
        // The hoisted-prefix path must reproduce the full chain exactly.
        for (seed, step) in [(0u64, 0u64), (42, 10), (u64::MAX, 123456789)] {
            let base = noise_base(seed, step);
            for (i, j) in [(0usize, 1usize), (7, 3), (1000, 999), (5, 5)] {
                assert_eq!(
                    pair_noise(seed, step, i, j).to_bits(),
                    pair_noise_from_base(base, i, j).to_bits(),
                    "seed={seed} step={step} i={i} j={j}"
                );
            }
        }
    }

    #[test]
    fn noise_statistics() {
        let mut mean = 0.0;
        let mut var = 0.0;
        let n = 50_000;
        for k in 0..n {
            let z = pair_noise(1, k as u64, 0, 1);
            mean += z;
            var += z * z;
        }
        mean /= n as f64;
        var = var / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "variance {var}");
    }

    fn random_cloud(n: usize, seed: u64, box_len: f64) -> Particles {
        let mut p = Particles::new();
        let mut s = seed;
        for _ in 0..n {
            let mut r = || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                (s >> 11) as f64 / (1u64 << 53) as f64
            };
            let pos = [r() * box_len, r() * box_len, r() * box_len];
            let vel = [r() - 0.5, r() - 0.5, r() - 0.5];
            p.push(pos, vel, (r() * 2.0) as u8);
        }
        p
    }

    #[test]
    fn forces_conserve_momentum_and_are_cutoff() {
        let bx = Box3::new([0.0; 3], [5.0; 3], [true; 3]);
        let mut p = Particles::new();
        p.push([1.0, 1.0, 1.0], [0.3, 0.0, 0.0], 0);
        p.push([1.5, 1.0, 1.0], [-0.1, 0.2, 0.0], 0);
        p.push([4.0, 4.0, 4.0], [0.0, 0.0, 0.0], 0); // far away
        let mut grid = CellGrid::new(bx, 1.0);
        grid.rebuild_soa(&p.x, &p.y, &p.z);
        p.clear_forces();
        let m = SpeciesMatrix::uniform(1, 25.0, 4.5);
        let mut scratch = SweepScratch::default();
        let pairs =
            accumulate_pair_forces(&mut p, &grid, &bx, &m, 1.0, 1.0, 0.01, 9, 0, &mut scratch);
        assert_eq!(pairs, 1, "only the close pair interacts");
        // Newton's third law: total force zero.
        let tot: [f64; 3] = [p.fx.iter().sum(), p.fy.iter().sum(), p.fz.iter().sum()];
        for t in tot {
            assert!(t.abs() < 1e-12);
        }
        // Far particle untouched.
        assert_eq!(p.force(2), [0.0; 3]);
    }

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

    /// Both sweeps against the brute-force O(N²) minimum-image reference
    /// (every unordered pair through [`pair_force`], no cell grid): same
    /// pair count, forces equal up to summation order. The same scratch
    /// serves both sweeps twice over, so stale buffer contents would show.
    #[test]
    fn half_sweeps_match_brute_force_reference() {
        let bx = Box3::new([0.0; 3], [6.0; 3], [true; 3]);
        let p = random_cloud(200, 5, 6.0);
        let mut grid = CellGrid::new(bx, 1.0);
        grid.rebuild_soa(&p.x, &p.y, &p.z);
        let m = SpeciesMatrix::uniform(2, 25.0, 4.5);
        let prm = PairParams::new(1.0, 1.0, 0.01, 42, 3);
        let inp = PairInputs::of(&p);
        let mut want = vec![[0.0f64; 3]; p.len()];
        let mut want_pairs = 0u64;
        for i in 0..p.len() {
            for j in i + 1..p.len() {
                if let Some(f) = pair_force(&prm, &bx, &inp, &m, i, j) {
                    want_pairs += 1;
                    for k in 0..3 {
                        want[i][k] += f[k];
                        want[j][k] -= f[k];
                    }
                }
            }
        }
        let mut scratch = SweepScratch::default();
        for (name, sweep) in [
            ("serial", accumulate_pair_forces as Sweep),
            ("parallel", accumulate_pair_forces_par as Sweep),
            ("serial again", accumulate_pair_forces as Sweep),
            ("parallel again", accumulate_pair_forces_par as Sweep),
        ] {
            let mut q = p.clone();
            q.clear_forces();
            let pairs = sweep(&mut q, &grid, &bx, &m, 1.0, 1.0, 0.01, 42, 3, &mut scratch);
            assert_eq!(pairs, want_pairs, "{name}: pair counts disagree");
            for i in 0..p.len() {
                for k in 0..3 {
                    assert!(
                        (q.force(i)[k] - want[i][k]).abs() <= 1e-12,
                        "{name} particle {i} component {k}: {} vs {}",
                        q.force(i)[k],
                        want[i][k]
                    );
                }
            }
        }
    }

    /// The parallel half sweep must be *bitwise* identical for any thread
    /// count: it reduces fixed chunks in order.
    #[test]
    fn parallel_sweep_bitwise_identical_across_thread_counts() {
        let bx = Box3::new([0.0; 3], [6.0; 3], [true; 3]);
        let p = random_cloud(300, 17, 6.0);
        let mut grid = CellGrid::new(bx, 1.0);
        grid.rebuild_soa(&p.x, &p.y, &p.z);
        let m = SpeciesMatrix::uniform(2, 25.0, 4.5);
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                let mut q = p.clone();
                q.clear_forces();
                let mut scratch = SweepScratch::default();
                accumulate_pair_forces_par(
                    &mut q,
                    &grid,
                    &bx,
                    &m,
                    1.0,
                    1.0,
                    0.01,
                    99,
                    7,
                    &mut scratch,
                );
                q.force_aos()
            })
        };
        let f1 = run(1);
        for threads in [2, 4, 8] {
            let ft = run(threads);
            for i in 0..p.len() {
                for k in 0..3 {
                    assert!(
                        f1[i][k].to_bits() == ft[i][k].to_bits(),
                        "threads={threads} particle {i} component {k}: {} vs {}",
                        f1[i][k],
                        ft[i][k]
                    );
                }
            }
        }
    }

    /// Newton's third law holds bitwise in the kernel: an isolated pair's
    /// one-sided forces are exact negations.
    #[test]
    fn pair_forces_exactly_antisymmetric() {
        let bx = Box3::new([0.0; 3], [5.0; 3], [true; 3]);
        let prm = PairParams::new(1.0, 1.0, 0.01, 5, 21);
        let mut p = Particles::new();
        p.push([1.0, 1.0, 1.0], [0.2, -0.1, 0.4], 0);
        p.push([1.6, 1.3, 0.8], [-0.3, 0.0, 0.1], 0);
        let m = SpeciesMatrix::uniform(1, 25.0, 4.5);
        let inp = PairInputs::of(&p);
        let fij = pair_force(&prm, &bx, &inp, &m, 0, 1).unwrap();
        let fji = pair_force(&prm, &bx, &inp, &m, 1, 0).unwrap();
        for k in 0..3 {
            assert_eq!(fij[k].to_bits(), (-fji[k]).to_bits());
        }
    }

    #[test]
    fn conservative_force_repulsive_along_axis() {
        // Two particles at rest: only F_C + F_R; average many steps to see
        // the repulsion (noise averages out).
        let bx = Box3::new([0.0; 3], [10.0; 3], [true; 3]);
        let mut p = Particles::new();
        p.push([5.0, 5.0, 5.0], [0.0; 3], 0);
        p.push([5.5, 5.0, 5.0], [0.0; 3], 0);
        let mut grid = CellGrid::new(bx, 1.0);
        grid.rebuild_soa(&p.x, &p.y, &p.z);
        let m = SpeciesMatrix::uniform(1, 25.0, 4.5);
        let mut fsum = 0.0;
        let reps = 2000;
        let mut scratch = SweepScratch::default();
        for s in 0..reps {
            p.clear_forces();
            accumulate_pair_forces(&mut p, &grid, &bx, &m, 1.0, 1.0, 0.01, 77, s, &mut scratch);
            fsum += p.fx[0];
        }
        let favg = fsum / reps as f64;
        // Expected conservative magnitude: a w = 25 * 0.5 = 12.5 pushing
        // particle 0 in −x.
        assert!(
            (favg + 12.5).abs() < 1.0,
            "average force {favg}, expected ≈ -12.5"
        );
    }
}
