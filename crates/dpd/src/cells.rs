//! Cell-list neighbor search.
//!
//! [`CellGrid`] is a *compact, cell-sorted* (CSR) layout. `rebuild`
//! counting-sorts particle indices by cell into one contiguous `order`
//! array with a `starts` offset table, so a cell's occupants are a slice
//! (`order[starts[c]..starts[c+1]]`). Forward-neighbor cells are
//! precomputed per cell at construction (the geometry never changes), as
//! deduplicated wrapped id lists, so periodic axes with 1 or 2 cells
//! enumerate every wrapped pair exactly once (see `for_each_pair`).
//!
//! It assumes the standard minimum-image validity condition `L ≥ 2 r_c`
//! on periodic axes (each pair interacts through at most one image).
//!
//! Enumeration order is deterministic: cells in id order, in-cell pairs in
//! (sorted) particle-index order, cross-cell pairs in precomputed neighbor
//! order. The counting sort is stable, so `order` is sorted by
//! `(cell, particle index)` — this fixed ordering policy is what the
//! deterministic parallel force sweep in [`crate::force`] relies on.

use crate::domain::Box3;

/// Compact cell-sorted (CSR) cell grid with cell edge ≥ the cutoff radius,
/// giving O(N) neighbor enumeration over contiguous index slices.
#[derive(Debug, Clone)]
pub struct CellGrid {
    bx: Box3,
    /// Cells per axis.
    pub dims: [usize; 3],
    /// Cell edge per axis.
    cell: [f64; 3],
    ncell: usize,
    /// CSR offsets: cell `c` owns `order[starts[c]..starts[c+1]]`.
    starts: Vec<usize>,
    /// Particle indices, counting-sorted by cell (stable: ascending index
    /// within each cell).
    order: Vec<u32>,
    /// Scratch: cell id per particle (kept between rebuilds to avoid
    /// reallocation).
    cell_id: Vec<u32>,
    /// Scratch: write cursors for the counting sort.
    cursor: Vec<usize>,
    /// Forward half-neighborhood per cell (flattened CSR): wrapped,
    /// deduplicated neighbor ids `c2 > c`. Visiting these plus in-cell
    /// pairs covers every unordered adjacent cell pair exactly once, for
    /// any `dims` (including periodic axes with 1 or 2 cells).
    nbr_fwd: Vec<u32>,
    nbr_fwd_starts: Vec<u32>,
}

impl CellGrid {
    /// Build the grid geometry for cutoff `rc` (no particles yet).
    pub fn new(bx: Box3, rc: f64) -> Self {
        assert!(rc > 0.0);
        let l = bx.lengths();
        let dims = [
            (l[0] / rc).floor().max(1.0) as usize,
            (l[1] / rc).floor().max(1.0) as usize,
            (l[2] / rc).floor().max(1.0) as usize,
        ];
        let cell = [
            l[0] / dims[0] as f64,
            l[1] / dims[1] as f64,
            l[2] / dims[2] as f64,
        ];
        let ncell = dims[0] * dims[1] * dims[2];
        let (nbr_fwd, nbr_fwd_starts) = build_neighbor_tables(dims, bx.periodic);
        Self {
            bx,
            dims,
            cell,
            ncell,
            starts: vec![0; ncell + 1],
            order: Vec::new(),
            cell_id: Vec::new(),
            cursor: vec![0; ncell],
            nbr_fwd,
            nbr_fwd_starts,
        }
    }

    /// Cell index of a position (clamped to the box). The cast truncates
    /// where a floor would round down, which differs only on `(-1, 0)`,
    /// where both clamp to cell 0.
    pub fn cell_of(&self, p: [f64; 3]) -> usize {
        let mut c = [0usize; 3];
        for k in 0..3 {
            let t = ((p[k] - self.bx.lo[k]) / self.cell[k]) as isize;
            c[k] = t.clamp(0, self.dims[k] as isize - 1) as usize;
        }
        (c[2] * self.dims[1] + c[1]) * self.dims[0] + c[0]
    }

    /// Rebuild the CSR structure from AoS positions: one counting sort,
    /// O(N). (Convenience wrapper over [`CellGrid::rebuild_soa`] for tests.)
    pub fn rebuild(&mut self, pos: &[[f64; 3]]) {
        self.rebuild_impl(pos.len(), |i| pos[i]);
    }

    /// Rebuild the CSR structure from SoA component arrays.
    pub fn rebuild_soa(&mut self, x: &[f64], y: &[f64], z: &[f64]) {
        assert!(x.len() == y.len() && x.len() == z.len());
        self.rebuild_impl(x.len(), |i| [x[i], y[i], z[i]]);
    }

    fn rebuild_impl(&mut self, n: usize, pos: impl Fn(usize) -> [f64; 3]) {
        assert!(n <= u32::MAX as usize, "particle count overflows u32");
        self.cell_id.clear();
        self.cell_id.reserve(n);
        self.starts.iter_mut().for_each(|s| *s = 0);
        for i in 0..n {
            let c = self.cell_of(pos(i));
            self.cell_id.push(c as u32);
            self.starts[c + 1] += 1;
        }
        for c in 0..self.ncell {
            self.starts[c + 1] += self.starts[c];
        }
        self.order.resize(n, 0);
        self.cursor.copy_from_slice(&self.starts[..self.ncell]);
        for (i, &c) in self.cell_id.iter().enumerate() {
            let c = c as usize;
            self.order[self.cursor[c]] = i as u32;
            self.cursor[c] += 1;
        }
    }

    /// The particles of one cell, in ascending particle-index order.
    #[inline]
    pub fn cell_particles(&self, c: usize) -> &[u32] {
        &self.order[self.starts[c]..self.starts[c + 1]]
    }

    /// Particle indices sorted by `(cell, index)` — the CSR `order` array
    /// from the last `rebuild`.
    pub fn sorted_order(&self) -> &[u32] {
        &self.order
    }

    /// Number of cells.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.ncell
    }

    /// CSR offset of cell `c` (first position of its particles in
    /// [`CellGrid::sorted_order`]). `cell_start(num_cells())` is the total
    /// particle count.
    #[inline]
    pub fn cell_start(&self, c: usize) -> usize {
        self.starts[c]
    }

    /// Precomputed forward half-neighborhood of cell `c` (wrapped,
    /// deduplicated ids `c2 > c`).
    #[inline]
    pub fn fwd_neighbors(&self, c: usize) -> &[u32] {
        let lo = self.nbr_fwd_starts[c] as usize;
        let hi = self.nbr_fwd_starts[c + 1] as usize;
        &self.nbr_fwd[lo..hi]
    }

    /// Split the cell range into at most `target` contiguous chunks with
    /// approximately equal particle counts (by the CSR offsets). The cut
    /// points depend only on the grid contents and `target` — never on the
    /// thread count — so per-chunk force accumulation reduced in chunk
    /// order is bitwise thread-count-invariant.
    pub fn balanced_cell_chunks(&self, target: usize) -> Vec<(usize, usize)> {
        let n = self.order.len();
        let m = target.clamp(1, self.ncell.max(1));
        let mut chunks = Vec::with_capacity(m);
        let mut clo = 0usize;
        for k in 1..=m {
            if clo >= self.ncell {
                break;
            }
            let mut chi = if k == m {
                self.ncell
            } else {
                let goal = k * n / m;
                let mut c = clo + 1;
                while c < self.ncell && self.starts[c] < goal {
                    c += 1;
                }
                c
            };
            if chi <= clo {
                chi = clo + 1;
            }
            chunks.push((clo, chi));
            clo = chi;
        }
        if let Some(last) = chunks.last_mut() {
            last.1 = self.ncell;
        }
        chunks
    }

    /// Visit every unordered pair `(i, j)` within the cutoff structure:
    /// pairs within a cell, and pairs between a cell and each of its
    /// precomputed forward neighbors. The callback performs the distance
    /// check itself (minimum-image).
    ///
    /// Periodic axes with ≤ 2 cells are handled correctly: the neighbor
    /// tables are built from the full wrapped 26-neighborhood with
    /// duplicates removed and filtered to `c2 > c`, so each adjacent cell
    /// pair — including pairs through a 2-cell-wide periodic boundary — is
    /// visited exactly once.
    pub fn for_each_pair(&self, mut f: impl FnMut(usize, usize)) {
        for c in 0..self.ncell {
            let own = self.cell_particles(c);
            // In-cell pairs.
            for (a, &i) in own.iter().enumerate() {
                for &j in &own[a + 1..] {
                    f(i as usize, j as usize);
                }
            }
            // Cross-cell pairs with forward neighbors.
            let lo = self.nbr_fwd_starts[c] as usize;
            let hi = self.nbr_fwd_starts[c + 1] as usize;
            for &c2 in &self.nbr_fwd[lo..hi] {
                let other = self.cell_particles(c2 as usize);
                for &i in own {
                    for &j in other {
                        f(i as usize, j as usize);
                    }
                }
            }
        }
    }
}

/// Precompute the per-cell forward-neighbor id lists (flattened CSR).
///
/// Every cell walks the 3×3×3 stencil in `(dz, dy, dx)` order, wraps
/// periodic axes, drops out-of-box offsets and keeps ids `> c`. A cell
/// with all 26 neighbours inside the grid keeps exactly the 13 offsets
/// after `(0, 0, 0)` in that order, so it takes their fixed id deltas
/// without the walk. Two offsets can wrap onto one cell only on a periodic
/// axis of fewer than 3 cells; only then are the lists de-duplicated.
fn build_neighbor_tables(dims: [usize; 3], periodic: [bool; 3]) -> (Vec<u32>, Vec<u32>) {
    let ncell = dims[0] * dims[1] * dims[2];
    assert!(ncell <= u32::MAX as usize, "cell count overflows u32 ids");
    let idims = [dims[0] as isize, dims[1] as isize, dims[2] as isize];
    let dedup = (0..3).any(|k| periodic[k] && dims[k] < 3);
    let mut interior_deltas = Vec::with_capacity(13);
    for dz in -1..=1isize {
        for dy in -1..=1isize {
            for dx in -1..=1isize {
                if (dz, dy, dx) > (0, 0, 0) {
                    interior_deltas.push(((dz * idims[1] + dy) * idims[0] + dx) as usize);
                }
            }
        }
    }
    let interior = |q: isize, k: usize| q >= 1 && q + 1 < idims[k];
    let mut fwd = Vec::with_capacity(ncell * 13);
    let mut fwd_starts = Vec::with_capacity(ncell + 1);
    fwd_starts.push(0u32);
    for c in 0..ncell {
        let cx = (c % dims[0]) as isize;
        let cy = ((c / dims[0]) % dims[1]) as isize;
        let cz = (c / (dims[0] * dims[1])) as isize;
        if interior(cx, 0) && interior(cy, 1) && interior(cz, 2) {
            fwd.extend(interior_deltas.iter().map(|&d| (c + d) as u32));
            fwd_starts.push(fwd.len() as u32);
            continue;
        }
        let fwd_base = fwd.len();
        for dz in -1..=1isize {
            for dy in -1..=1isize {
                for dx in -1..=1isize {
                    let mut q = [cx + dx, cy + dy, cz + dz];
                    let mut ok = true;
                    for k in 0..3 {
                        if q[k] < 0 || q[k] >= idims[k] {
                            if periodic[k] {
                                q[k] = (q[k] + idims[k]) % idims[k];
                            } else {
                                ok = false;
                            }
                        }
                    }
                    if !ok {
                        continue;
                    }
                    let id = (((q[2] as usize) * dims[1] + q[1] as usize) * dims[0] + q[0] as usize)
                        as u32;
                    if id as usize > c && !(dedup && fwd[fwd_base..].contains(&id)) {
                        fwd.push(id);
                    }
                }
            }
        }
        fwd_starts.push(fwd.len() as u32);
    }
    (fwd, fwd_starts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The plain stencil walk with a de-duplication scan on every cell,
    /// which [`build_neighbor_tables`] reproduces id for id.
    fn build_neighbor_tables_reference(
        dims: [usize; 3],
        periodic: [bool; 3],
    ) -> (Vec<u32>, Vec<u32>) {
        let ncell = dims[0] * dims[1] * dims[2];
        assert!(ncell <= u32::MAX as usize, "cell count overflows u32 ids");
        let idims = [dims[0] as isize, dims[1] as isize, dims[2] as isize];
        let mut fwd = Vec::with_capacity(ncell * 13);
        let mut fwd_starts = Vec::with_capacity(ncell + 1);
        fwd_starts.push(0u32);
        for c in 0..ncell {
            let cx = (c % dims[0]) as isize;
            let cy = ((c / dims[0]) % dims[1]) as isize;
            let cz = (c / (dims[0] * dims[1])) as isize;
            let fwd_base = fwd.len();
            for dz in -1..=1isize {
                for dy in -1..=1isize {
                    for dx in -1..=1isize {
                        let mut q = [cx + dx, cy + dy, cz + dz];
                        let mut ok = true;
                        for k in 0..3 {
                            if q[k] < 0 || q[k] >= idims[k] {
                                if periodic[k] {
                                    q[k] = (q[k] + idims[k]) % idims[k];
                                } else {
                                    ok = false;
                                }
                            }
                        }
                        if !ok {
                            continue;
                        }
                        let id = (((q[2] as usize) * dims[1] + q[1] as usize) * dims[0]
                            + q[0] as usize) as u32;
                        if id as usize > c && !fwd[fwd_base..].contains(&id) {
                            fwd.push(id);
                        }
                    }
                }
            }
            fwd_starts.push(fwd.len() as u32);
        }
        (fwd, fwd_starts)
    }

    /// The neighbour tables equal the reference walk's, ids and order, for
    /// every grid of 1..=4 cells per axis under all 8 periodic patterns,
    /// and on a box with a large interior.
    #[test]
    fn neighbor_tables_are_the_reference_walk() {
        let mut grids: Vec<[usize; 3]> = Vec::new();
        for d0 in 1..=4 {
            for d1 in 1..=4 {
                for d2 in 1..=4 {
                    grids.push([d0, d1, d2]);
                }
            }
        }
        grids.push([30, 20, 16]);
        for dims in grids {
            for pattern in 0..8 {
                let periodic = [pattern & 1 != 0, pattern & 2 != 0, pattern & 4 != 0];
                assert_eq!(
                    build_neighbor_tables(dims, periodic),
                    build_neighbor_tables_reference(dims, periodic),
                    "dims {dims:?}, periodic {periodic:?}"
                );
            }
        }
    }

    fn scatter(n: usize, seed: u64, scale: f64) -> Vec<[f64; 3]> {
        let mut pts = Vec::new();
        let mut s = seed;
        let mut r = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            (s >> 11) as f64 / (1u64 << 53) as f64 * scale
        };
        for _ in 0..n {
            pts.push([r(), r(), r()]);
        }
        pts
    }

    fn grid_with(points: &[[f64; 3]], periodic: bool) -> CellGrid {
        let bx = Box3::new([0.0; 3], [6.0, 6.0, 6.0], [periodic; 3]);
        let mut g = CellGrid::new(bx, 1.0);
        g.rebuild(points);
        g
    }

    fn brute_pairs(pts: &[[f64; 3]], bx: &Box3, rc: f64) -> HashSet<(usize, usize)> {
        let mut expect = HashSet::new();
        for i in 0..pts.len() {
            for j in i + 1..pts.len() {
                let d = bx.min_image(pts[i], pts[j]);
                let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                if r2 < rc * rc {
                    expect.insert((i, j));
                }
            }
        }
        expect
    }

    #[test]
    fn cell_assignment() {
        let g = grid_with(&[[0.5, 0.5, 0.5], [5.5, 5.5, 5.5]], false);
        assert_eq!(g.cell_of([0.5, 0.5, 0.5]), 0);
        assert_eq!(
            g.cell_of([5.5, 5.5, 5.5]),
            g.dims[0] * g.dims[1] * g.dims[2] - 1
        );
    }

    /// The CSR enumeration visits every pair at most once and contains
    /// exactly the brute-force O(N²) minimum-image pair set inside `rc`.
    #[test]
    fn pairs_match_brute_force_within_cutoff() {
        for (n, seed) in [(150, 7), (200, 23)] {
            let pts = scatter(n, seed, 6.0);
            for periodic in [false, true] {
                let g = grid_with(&pts, periodic);
                let bx = Box3::new([0.0; 3], [6.0; 3], [periodic; 3]);
                let mut seen = HashSet::new();
                let mut got = HashSet::new();
                g.for_each_pair(|i, j| {
                    assert!(seen.insert((i.min(j), i.max(j))), "duplicate pair {i},{j}");
                    let d = bx.min_image(pts[i], pts[j]);
                    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                    if r2 < 1.0 {
                        got.insert((i.min(j), i.max(j)));
                    }
                });
                assert_eq!(got, brute_pairs(&pts, &bx, 1.0), "periodic={periodic}");
            }
        }
    }

    #[test]
    fn no_duplicate_pairs() {
        let pts: Vec<[f64; 3]> = (0..50)
            .map(|i| {
                let t = i as f64 * 0.37;
                [
                    (t.sin() * 2.5 + 3.0),
                    (t.cos() * 2.5 + 3.0),
                    ((i % 6) as f64 + 0.5),
                ]
            })
            .collect();
        let g = grid_with(&pts, true);
        let mut seen = HashSet::new();
        g.for_each_pair(|i, j| {
            assert!(seen.insert((i.min(j), i.max(j))), "duplicate pair {i},{j}");
        });
    }

    #[test]
    fn cell_particles_is_sorted_slice() {
        let pts = [[0.1, 0.1, 0.1], [5.0, 5.0, 5.0], [0.2, 0.2, 0.2]];
        let g = grid_with(&pts, false);
        assert_eq!(g.cell_particles(g.cell_of([0.1; 3])), &[0, 2]);
        assert_eq!(g.sorted_order().len(), 3);
    }

    /// In a 2-cell-wide periodic box the forward neighbor and the wrapped
    /// backward neighbor are the same cell: the pairs through the wrapped
    /// boundary must all be found, once.
    #[test]
    fn two_cell_periodic_box_finds_wrapped_pairs() {
        let bx = Box3::new([0.0; 3], [2.0, 2.0, 2.0], [true; 3]);
        // A pair straddling the x boundary: distance 0.2 through the wrap.
        let pts = vec![[0.1, 0.5, 0.5], [1.9, 0.5, 0.5], [1.0, 1.0, 1.0]];
        let mut g = CellGrid::new(bx, 1.0);
        assert_eq!(g.dims, [2, 2, 2]);
        g.rebuild(&pts);
        let mut got = HashSet::new();
        g.for_each_pair(|i, j| {
            let d = bx.min_image(pts[i], pts[j]);
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            if r2 < 1.0 {
                got.insert((i.min(j), i.max(j)));
            }
        });
        let expect = brute_pairs(&pts, &bx, 1.0);
        assert!(expect.contains(&(0, 1)), "test setup: wrapped pair exists");
        assert_eq!(got, expect);
        // Larger scatter in the same 2-cell box, cross-checked brute force.
        let pts = scatter(80, 11, 2.0);
        let mut g = CellGrid::new(bx, 1.0);
        g.rebuild(&pts);
        let mut got = HashSet::new();
        let mut dup = true;
        g.for_each_pair(|i, j| {
            dup &= got.insert((i.min(j), i.max(j)));
        });
        assert!(dup, "pair enumerated twice in 2-cell periodic box");
        let close: HashSet<_> = got
            .iter()
            .copied()
            .filter(|&(i, j)| {
                let d = bx.min_image(pts[i], pts[j]);
                d[0] * d[0] + d[1] * d[1] + d[2] * d[2] < 1.0
            })
            .collect();
        assert_eq!(close, brute_pairs(&pts, &bx, 1.0));
    }

    /// Single-cell periodic axes (dims = 1) must also enumerate each pair
    /// exactly once (all pairs are in-cell there).
    #[test]
    fn one_cell_periodic_axis_unique_pairs() {
        let bx = Box3::new([0.0; 3], [1.5, 4.0, 4.0], [true; 3]);
        let pts = scatter(40, 3, 1.4);
        let mut g = CellGrid::new(bx, 1.0);
        assert_eq!(g.dims[0], 1);
        g.rebuild(&pts);
        let mut seen = HashSet::new();
        g.for_each_pair(|i, j| {
            assert!(seen.insert((i.min(j), i.max(j))), "duplicate pair {i},{j}");
        });
        // Every distinct pair of the 40 points is within sqrt(3)·cell of
        // another only sometimes; but each candidate pair must appear at
        // most once, and all brute-force pairs within rc must be present.
        for (i, j) in brute_pairs(&pts, &bx, 1.0) {
            assert!(seen.contains(&(i, j)), "missing pair {i},{j}");
        }
    }
}
