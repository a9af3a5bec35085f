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
//! Two sweeps run one kernel over a cell-ordered (CSR) copy of the
//! positions, velocities and species, so an interior cell and its forward
//! neighbours are five contiguous runs of each array. Per particle, a branch-free scan
//! over the runs records the candidates inside the cutoff, then the force
//! kernel runs on those hits. The particles stay in index order: the copy
//! is rebuilt each sweep, and noise keys are particle indices.
//!
//! * [`accumulate_pair_forces`] — serial half-list sweep over all cells as
//!   one range, `±F` straight into the particle arrays. Per-particle
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

/// Post-cutoff Groot–Warren kernel: force on entry `a` of `inp` from entry
/// `b` given the already-computed minimum-image displacement `d`, squared
/// distance `r2` and the pair's noise draw `zeta`. Arithmetic order matches
/// the historical kernel exactly.
#[allow(clippy::too_many_arguments)]
#[inline]
fn pair_force_from_d(
    prm: &PairParams,
    inp: &PairInputs<'_>,
    matrix: &SpeciesMatrix,
    d: [f64; 3],
    r2: f64,
    a: usize,
    b: usize,
    zeta: f64,
) -> [f64; 3] {
    let r = r2.sqrt();
    let w = 1.0 - r / prm.rc;
    let e = [d[0] / r, d[1] / r, d[2] / r];
    let (a_ij, gamma) = matrix.get(inp.species[a], inp.species[b]);
    let sigma = (2.0 * gamma * prm.kbt).sqrt();
    let vij = [
        inp.vx[a] - inp.vx[b],
        inp.vy[a] - inp.vy[b],
        inp.vz[a] - inp.vz[b],
    ];
    let ev = e[0] * vij[0] + e[1] * vij[1] + e[2] * vij[2];
    let fmag = a_ij * w - gamma * w * w * ev + sigma * w * zeta * prm.inv_sqrt_dt;
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
    let zeta = pair_noise_from_base(prm.base, i, j);
    Some(pair_force_from_d(prm, inp, matrix, d, r2, i, j, zeta))
}

/// One component of a minimum-image displacement: `d` on an axis of
/// length `l`. On a periodic axis, two chained selects, bitwise
/// [`Box3::min_image`]'s component: after the first, `d > -l/2`, so the
/// second never undoes it. `periodic` is the same for a whole sweep, so
/// the branch on it is always predicted.
#[inline]
fn min_image_component(d: f64, l: f64, periodic: bool) -> f64 {
    if !periodic {
        return d;
    }
    let d = if d > 0.5 * l { d - l } else { d };
    if d < -0.5 * l {
        d + l
    } else {
        d
    }
}

/// The cell-ordered (CSR) copy of what the pair kernel reads: entry `r`
/// holds particle `order[r]`'s position, velocity and species, so a cell
/// and its forward neighbours are a few contiguous runs of every array.
#[derive(Default)]
struct CsrCopy {
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    vx: Vec<f64>,
    vy: Vec<f64>,
    vz: Vec<f64>,
    species: Vec<u8>,
}

impl CsrCopy {
    /// Copy `p` into the order `order`.
    fn fill(&mut self, p: &Particles, order: &[u32]) {
        assert_eq!(
            order.len(),
            p.len(),
            "cell grid not rebuilt for these particles"
        );
        let n = order.len();
        let CsrCopy {
            x,
            y,
            z,
            vx,
            vy,
            vz,
            species,
        } = self;
        for v in [&mut *x, &mut *y, &mut *z, &mut *vx, &mut *vy, &mut *vz] {
            v.resize(n, 0.0);
        }
        species.resize(n, 0);
        for (r, &i) in order.iter().enumerate() {
            let i = i as usize;
            [x[r], y[r], z[r]] = p.pos(i);
            [vx[r], vy[r], vz[r]] = p.vel(i);
            species[r] = p.species[i];
        }
    }

    fn inputs(&self) -> PairInputs<'_> {
        PairInputs {
            x: &self.x,
            y: &self.y,
            z: &self.z,
            vx: &self.vx,
            vy: &self.vy,
            vz: &self.vz,
            species: &self.species,
        }
    }
}

/// Output of one chunk of the parallel half sweep.
#[derive(Default)]
struct ChunkScratch {
    /// Cutoff hits of the particle in flight (CSR positions).
    hits: Vec<u32>,
    /// Dense `±F` accumulators for the chunk's own CSR range, indexed by
    /// CSR position minus the chunk base.
    own: Vec<[f64; 3]>,
    /// `−F` contributions to particles outside the chunk's CSR range
    /// (forward-neighbour cells of the chunk's last cells), replayed in
    /// order during the ordered reduction: particle index and force.
    spill_idx: Vec<u32>,
    spill_f: Vec<[f64; 3]>,
    pairs: u64,
}

/// Buffers of the pair sweeps, kept by the caller between calls so the
/// sweeps stop allocating once the buffers have grown to the box's
/// occupancy. Carries no state from one sweep to the next: each sweep
/// overwrites what it uses.
#[derive(Default)]
pub struct SweepScratch {
    copy: CsrCopy,
    hits: Vec<u32>,
    chunks: Vec<ChunkScratch>,
}

impl SweepScratch {
    /// Bytes of the cell-ordered copy the last sweep read.
    pub fn copy_bytes(&self) -> usize {
        self.copy.x.len() * (6 * std::mem::size_of::<f64>() + 1)
    }

    /// `−F` entries the last parallel sweep spilled across chunk bounds.
    pub fn spill_entries(&self) -> usize {
        self.chunks.iter().map(|c| c.spill_idx.len()).sum()
    }
}

/// What a half sweep reads: the cell-ordered copy, the grid, and the box
/// constants of the cutoff scan.
struct CellSweep<'a> {
    prm: PairParams,
    matrix: &'a SpeciesMatrix,
    grid: &'a CellGrid,
    inp: PairInputs<'a>,
    order: &'a [u32],
    l: [f64; 3],
    periodic: [bool; 3],
}

impl<'a> CellSweep<'a> {
    fn new(
        prm: PairParams,
        bx: &Box3,
        matrix: &'a SpeciesMatrix,
        grid: &'a CellGrid,
        copy: &'a CsrCopy,
    ) -> Self {
        Self {
            prm,
            matrix,
            grid,
            inp: copy.inputs(),
            order: grid.sorted_order(),
            l: bx.lengths(),
            periodic: bx.periodic,
        }
    }

    /// Cell `c`'s candidates as contiguous CSR runs: the cell itself, then
    /// its forward neighbours in list order, consecutive cell ids merged
    /// into one run (an interior cell has 5). Returns the run count.
    fn runs(&self, c: usize, runs: &mut [(usize, usize); 27]) -> usize {
        let g = self.grid;
        runs[0] = (g.cell_start(c), g.cell_start(c + 1));
        let (mut n, mut last) = (1, c);
        for &c2 in g.fwd_neighbors(c) {
            let c2 = c2 as usize;
            if c2 == last + 1 {
                runs[n - 1].1 = g.cell_start(c2 + 1);
            } else {
                runs[n] = (g.cell_start(c2), g.cell_start(c2 + 1));
                n += 1;
            }
            last = c2;
        }
        n
    }

    /// Half-list sweep over the cell range `[clo, chi)`: every unordered
    /// pair whose owning cell (the lower cell id) lies in the range is
    /// evaluated once and handed to `apply` as CSR positions `(ri, rj)`.
    ///
    /// Per own particle, a branch-free scan over the cell's runs records
    /// the candidates inside the cutoff, then the kernel runs on those hits
    /// and recomputes `d` with the same arithmetic. Candidates come in the
    /// historical order (own cell after `ri`, then forward neighbours in
    /// list order), so each particle's sum takes its terms in the same
    /// order, and the noise is keyed on particle indices through `order`.
    fn sweep(
        &self,
        clo: usize,
        chi: usize,
        hits: &mut Vec<u32>,
        mut apply: impl FnMut(usize, usize, [f64; 3]),
    ) -> u64 {
        let (inp, l, periodic) = (&self.inp, self.l, self.periodic);
        let rc2 = self.prm.rc * self.prm.rc;
        let mut runs = [(0usize, 0usize); 27];
        let mut pairs = 0u64;
        for c in clo..chi {
            let (s0, s1) = (self.grid.cell_start(c), self.grid.cell_start(c + 1));
            if s0 == s1 {
                continue;
            }
            let nruns = self.runs(c, &mut runs);
            let runs = &runs[..nruns];
            let total: usize = runs.iter().map(|&(lo, hi)| hi - lo).sum();
            if hits.len() < total {
                hits.resize(total, 0);
            }
            for ri in s0..s1 {
                let (xi, yi, zi) = (inp.x[ri], inp.y[ri], inp.z[ri]);
                // Displacement from candidate `j` and its squared length.
                let disp = |xj: f64, yj: f64, zj: f64| {
                    let d = [
                        min_image_component(xi - xj, l[0], periodic[0]),
                        min_image_component(yi - yj, l[1], periodic[1]),
                        min_image_component(zi - zj, l[2], periodic[2]),
                    ];
                    (d, d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
                };
                let mut n = 0;
                for (k, &(lo, hi)) in runs.iter().enumerate() {
                    let lo = if k == 0 { ri + 1 } else { lo };
                    let (xs, ys, zs) = (&inp.x[lo..hi], &inp.y[lo..hi], &inp.z[lo..hi]);
                    for (rj, ((&xj, &yj), &zj)) in (lo..hi).zip(xs.iter().zip(ys).zip(zs)) {
                        let (_, r2) = disp(xj, yj, zj);
                        hits[n] = rj as u32;
                        n += usize::from(!((r2 >= rc2) | (r2 < 1e-24)));
                    }
                }
                let i = self.order[ri] as usize;
                for &rj in &hits[..n] {
                    let rj = rj as usize;
                    let (d, r2) = disp(inp.x[rj], inp.y[rj], inp.z[rj]);
                    let zeta = pair_noise_from_base(self.prm.base, i, self.order[rj] as usize);
                    let f = pair_force_from_d(&self.prm, inp, self.matrix, d, r2, ri, rj, zeta);
                    apply(ri, rj, f);
                }
                pairs += n as u64;
            }
        }
        pairs
    }
}

/// Serial half sweep: evaluate each unordered pair once and apply the
/// force to both particles (`p` forces must be pre-zeroed or hold external
/// forces to accumulate onto). The same kernel as the parallel sweep, over
/// all cells as one range, with `±F` straight into the particle arrays.
/// Returns the number of interacting pairs.
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
    let order = grid.sorted_order();
    scratch.copy.fill(p, order);
    let prm = PairParams::new(rc, kbt, dt, seed, step);
    let sweep = CellSweep::new(prm, bx, matrix, grid, &scratch.copy);
    let (fx, fy, fz) = (&mut p.fx, &mut p.fy, &mut p.fz);
    sweep.sweep(0, grid.num_cells(), &mut scratch.hits, |ri, rj, f| {
        let (i, j) = (order[ri] as usize, order[rj] as usize);
        fx[i] += f[0];
        fy[i] += f[1];
        fz[i] += f[2];
        fx[j] -= f[0];
        fy[j] -= f[1];
        fz[j] -= f[2];
    })
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
    let order = grid.sorted_order();
    scratch.copy.fill(p, order);
    let prm = PairParams::new(rc, kbt, dt, seed, step);
    let sweep = CellSweep::new(prm, bx, matrix, grid, &scratch.copy);
    let ranges = grid.balanced_cell_chunks(HALF_SWEEP_CHUNKS);
    if scratch.chunks.len() < ranges.len() {
        scratch
            .chunks
            .resize_with(ranges.len(), ChunkScratch::default);
    }
    let chunks = &mut scratch.chunks[..ranges.len()];
    chunks
        .par_iter_mut()
        .zip(&ranges)
        .for_each(|(chunk, &(clo, chi))| {
            let base = grid.cell_start(clo);
            let own_n = grid.cell_start(chi) - base;
            let ChunkScratch {
                hits,
                own,
                spill_idx,
                spill_f,
                pairs,
            } = chunk;
            own.clear();
            own.resize(own_n, [0.0; 3]);
            spill_idx.clear();
            spill_f.clear();
            *pairs = sweep.sweep(clo, chi, hits, |ri, rj, f| {
                let a = ri - base;
                own[a][0] += f[0];
                own[a][1] += f[1];
                own[a][2] += f[2];
                // `rj > ri`: candidates follow `ri` in CSR order.
                let b = rj - base;
                if b < own_n {
                    own[b][0] -= f[0];
                    own[b][1] -= f[1];
                    own[b][2] -= f[2];
                } else {
                    spill_idx.push(order[rj]);
                    spill_f.push([-f[0], -f[1], -f[2]]);
                }
            });
        });
    let mut pairs = 0u64;
    for (&(clo, _), chunk) in ranges.iter().zip(chunks.iter()) {
        let base = grid.cell_start(clo);
        for (&i, f) in order[base..].iter().zip(&chunk.own) {
            p.add_force(i as usize, *f);
        }
        for (&j, &f) in chunk.spill_idx.iter().zip(&chunk.spill_f) {
            p.add_force(j as usize, f);
        }
        pairs += chunk.pairs;
    }
    pairs
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

    /// The gather sweep the CSR kernel replaced: per cell, gather the
    /// candidate indices (own cell, then forward neighbours in list order)
    /// and run [`pair_force`] on every later candidate of each own
    /// particle, on the particle arrays throughout. `Box3::min_image` is
    /// bitwise the batched distance kernel that sweep used.
    #[allow(clippy::too_many_arguments)]
    fn gather_sweep_reference(
        prm: &PairParams,
        bx: &Box3,
        inp: &PairInputs<'_>,
        matrix: &SpeciesMatrix,
        grid: &CellGrid,
        clo: usize,
        chi: usize,
        mut apply: impl FnMut(usize, usize, [f64; 3]),
    ) -> u64 {
        let mut idx: Vec<u32> = Vec::new();
        let mut pairs = 0;
        for c in clo..chi {
            idx.clear();
            idx.extend_from_slice(grid.cell_particles(c));
            let own = idx.len();
            for &c2 in grid.fwd_neighbors(c) {
                idx.extend_from_slice(grid.cell_particles(c2 as usize));
            }
            for a in 0..own {
                let i = idx[a] as usize;
                for &j in &idx[a + 1..] {
                    if let Some(f) = pair_force(prm, bx, inp, matrix, i, j as usize) {
                        pairs += 1;
                        apply(i, j as usize, f);
                    }
                }
            }
        }
        pairs
    }

    /// The historical serial sweep: the gather reference over all cells,
    /// `±F` into the particle arrays.
    fn serial_reference(p: &mut Particles, grid: &CellGrid, bx: &Box3, m: &SpeciesMatrix) -> u64 {
        let prm = PairParams::new(1.0, 1.0, 0.01, 42, 3);
        let mut f = vec![[0.0f64; 3]; p.len()];
        let pairs = gather_sweep_reference(
            &prm,
            bx,
            &PairInputs::of(p),
            m,
            grid,
            0,
            grid.num_cells(),
            |i, j, fv| {
                for k in 0..3 {
                    f[i][k] += fv[k];
                    f[j][k] -= fv[k];
                }
            },
        );
        for (i, fi) in f.iter().enumerate() {
            p.add_force(i, *fi);
        }
        pairs
    }

    /// The historical parallel sweep, run chunk after chunk: the gather
    /// reference per chunk into a buffer indexed by CSR position (through
    /// the inverse of the grid's order), spills replayed in the fold.
    fn parallel_reference(p: &mut Particles, grid: &CellGrid, bx: &Box3, m: &SpeciesMatrix) -> u64 {
        let prm = PairParams::new(1.0, 1.0, 0.01, 42, 3);
        let order = grid.sorted_order();
        let mut rank = vec![0usize; order.len()];
        for (r, &i) in order.iter().enumerate() {
            rank[i as usize] = r;
        }
        let mut pairs = 0;
        let mut folds = Vec::new();
        for (clo, chi) in grid.balanced_cell_chunks(HALF_SWEEP_CHUNKS) {
            let base = grid.cell_start(clo);
            let own_n = grid.cell_start(chi) - base;
            let mut own = vec![[0.0f64; 3]; own_n];
            let mut spill = Vec::new();
            pairs += gather_sweep_reference(
                &prm,
                bx,
                &PairInputs::of(p),
                m,
                grid,
                clo,
                chi,
                |i, j, fv| {
                    let ri = rank[i] - base;
                    for k in 0..3 {
                        own[ri][k] += fv[k];
                    }
                    let rj = rank[j];
                    if rj >= base && rj < base + own_n {
                        for k in 0..3 {
                            own[rj - base][k] -= fv[k];
                        }
                    } else {
                        spill.push((j, [-fv[0], -fv[1], -fv[2]]));
                    }
                },
            );
            folds.push((base, own, spill));
        }
        for (base, own, spill) in folds {
            for (k, f) in own.iter().enumerate() {
                p.add_force(order[base + k] as usize, *f);
            }
            for (j, f) in spill {
                p.add_force(j, f);
            }
        }
        pairs
    }

    /// The bits of the three force arrays.
    fn force_bits(p: &Particles) -> Vec<u64> {
        [&p.fx, &p.fy, &p.fz]
            .into_iter()
            .flatten()
            .map(|f| f.to_bits())
            .collect()
    }

    /// Both CSR sweeps are bitwise their gather references, pair counts
    /// included: every grid of 1..=4 cells per axis under all 8 periodic
    /// patterns and the 30 × 20 × 16 box, two species with their own
    /// coefficients, on pools of 1, 2, 4 and 8 threads.
    #[test]
    fn csr_sweeps_are_bitwise_the_gather_reference() {
        let mut grids: Vec<[usize; 3]> = Vec::new();
        for d0 in 1..=4 {
            for d1 in 1..=4 {
                for d2 in 1..=4 {
                    grids.push([d0, d1, d2]);
                }
            }
        }
        grids.push([30, 20, 16]);
        let mut m = SpeciesMatrix::uniform(2, 25.0, 4.5);
        m.set(0, 1, 40.0, 9.0);
        let pools = [1, 2, 4, 8].map(|w| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(w)
                .build()
                .unwrap()
        });
        let mut scratch = SweepScratch::default();
        for (g, dims) in grids.into_iter().enumerate() {
            for pattern in 0..8 {
                let periodic = [pattern & 1 != 0, pattern & 2 != 0, pattern & 4 != 0];
                let hi = dims.map(|d| d as f64 + 0.5);
                let bx = Box3::new([0.0; 3], hi, periodic);
                let n = (3.0 * bx.volume()) as usize;
                let mut p = Particles::new();
                let mut s = (g * 8 + pattern) as u64 + 1;
                let mut r = || {
                    s = s
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (s >> 11) as f64 / (1u64 << 53) as f64
                };
                for _ in 0..n {
                    let pos = [r() * hi[0], r() * hi[1], r() * hi[2]];
                    let vel = [r() - 0.5, r() - 0.5, r() - 0.5];
                    p.push(pos, vel, (r() * 2.0) as u8);
                }
                let mut grid = CellGrid::new(bx, 1.0);
                assert_eq!(grid.dims, dims);
                grid.rebuild_soa(&p.x, &p.y, &p.z);
                let case = format!("dims {dims:?}, periodic {periodic:?}");
                let mut want_serial = p.clone();
                let want_pairs = serial_reference(&mut want_serial, &grid, &bx, &m);
                let mut want_par = p.clone();
                assert_eq!(
                    parallel_reference(&mut want_par, &grid, &bx, &m),
                    want_pairs
                );
                for pool in &pools {
                    let width = pool.current_num_threads();
                    pool.install(|| {
                        for (name, sweep, want) in [
                            ("serial", accumulate_pair_forces as Sweep, &want_serial),
                            ("parallel", accumulate_pair_forces_par as Sweep, &want_par),
                        ] {
                            let mut q = p.clone();
                            let pairs =
                                sweep(&mut q, &grid, &bx, &m, 1.0, 1.0, 0.01, 42, 3, &mut scratch);
                            assert_eq!(pairs, want_pairs, "{name} pairs, {case}, width {width}");
                            assert!(
                                force_bits(&q) == force_bits(want),
                                "{name} forces, {case}, width {width}"
                            );
                        }
                    });
                }
            }
        }
    }

    /// The sweep's per-component minimum image is bitwise
    /// `Box3::min_image` on periodic and bounded axes, on components that
    /// wrap and on components that do not (the half length included).
    #[test]
    fn min_image_component_is_box_min_image() {
        let bx = Box3::new([0.0; 3], [10.0, 9.0, 8.0], [true, false, true]);
        let l = bx.lengths();
        let coords = [0.0, 0.3, 1.0 / 3.0, 2.5, 4.0, 4.5, 5.0, 5.7, 7.9, 8.0, 9.99];
        let (mut wrapped, mut kept) = (0, 0);
        for &a in &coords {
            for &b in &coords {
                let want = bx.min_image([a; 3], [b; 3]);
                for k in 0..3 {
                    let got = min_image_component(a - b, l[k], bx.periodic[k]);
                    assert_eq!(got.to_bits(), want[k].to_bits(), "a {a}, b {b}, axis {k}");
                    if want[k] == a - b {
                        kept += 1;
                    } else {
                        wrapped += 1;
                    }
                }
            }
        }
        assert!(wrapped > 20 && kept > 20, "wrapped {wrapped}, kept {kept}");
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
