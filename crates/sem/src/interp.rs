//! The interface trace: a static point set located once, then
//! interpolated at every exchange.
//!
//! [`Space2d::eval_at`] locates the containing element with an O(elements)
//! scan and a Newton inversion of the bilinear map, then allocates two
//! Lagrange-coefficient vectors — fine for one-off probes, ruinous when
//! the same static points (interface DoFs, embedded-domain bin midpoints)
//! are evaluated every coupled step. An [`InterpTable`] performs the
//! location and weight computation once. Each row records its donor (the
//! caller's index of the space the point was located in, a patch id for
//! the couplings) beside the donor element; each evaluation is then a
//! dense dot product of `(P+1)²` precomputed tensor-Lagrange weights with
//! the field values of that element.
//!
//! Bitwise contract: [`InterpTable::eval`] reproduces
//! [`Space2d::eval_at`] exactly. `eval_at` accumulates
//! `(lj[j] * li[i]) * u[g]` in local-node order `k = j·(P+1) + i`; the
//! table stores `w[k] = lj[j] * li[i]` (the same left-associated product)
//! and accumulates `w[k] * u[g]` in the same order, so every partial sum
//! is identical to the scanning path.

use crate::space2d::Space2d;
use nkg_ckpt::{Dec, Enc};

/// Element id of a row whose point lay outside its donor space.
const UNLOCATED: u32 = u32::MAX;

/// Precomputed interpolation rows: per query point, the donor, the donor
/// element and `(P+1)²` tensor-product Lagrange weights.
///
/// Rows may be pushed against *different* spaces (one per donor) as long
/// as all spaces share the polynomial order; the caller passes the space
/// of [`donor`](InterpTable::donor)`(q)` back to
/// [`eval`](InterpTable::eval) for row `q`.
#[derive(Debug, Clone)]
pub struct InterpTable {
    /// Local nodes per element, `(P+1)²` — the weight stride.
    nloc: usize,
    /// Per point: `(donor, element)`; the element is [`UNLOCATED`] when
    /// the point was outside the donor space.
    rows: Vec<(u32, u32)>,
    /// Flat weights, `nloc` per point (zeros for unlocated points).
    weights: Vec<f64>,
}

impl InterpTable {
    /// Empty table for elements of `nloc` local nodes, preallocated for
    /// `cap` query points.
    pub fn with_capacity(nloc: usize, cap: usize) -> Self {
        Self {
            nloc,
            rows: Vec::with_capacity(cap),
            weights: Vec::with_capacity(cap * nloc),
        }
    }

    /// Locate `(x, y)` in `space`, the caller's donor number `donor`, and
    /// append its interpolation row. Returns whether the point was found;
    /// an unlocated point appends an empty row so indices stay aligned
    /// with the caller's point list.
    pub fn push(&mut self, donor: usize, space: &Space2d, x: f64, y: f64) -> bool {
        debug_assert_eq!(space.nloc(), self.nloc, "donor space order mismatch");
        let donor = u32::try_from(donor).expect("donor id fits u32");
        let located = space.locate(x, y);
        let elem = located.map_or(UNLOCATED, |(e, _, _)| e as u32);
        self.rows.push((donor, elem));
        match located {
            Some((_, xi, eta)) => space.interp_weights_into(xi, eta, &mut self.weights),
            None => self.weights.extend(std::iter::repeat_n(0.0, self.nloc)),
        }
        located.is_some()
    }

    /// Build a table over `points` against a single space (donor 0).
    pub fn build(space: &Space2d, points: &[[f64; 2]]) -> Self {
        let mut t = Self::with_capacity(space.nloc(), points.len());
        for &[x, y] in points {
            t.push(0, space, x, y);
        }
        t
    }

    /// Number of query points.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table holds no points.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Whether point `q` was located at build time.
    pub fn found(&self, q: usize) -> bool {
        self.rows[q].1 != UNLOCATED
    }

    /// The donor point `q` was pushed against.
    pub fn donor(&self, q: usize) -> usize {
        self.rows[q].0 as usize
    }

    /// Evaluate the global field `u` of `space` at query point `q`:
    /// bitwise identical to `space.eval_at(u, x_q, y_q)`. `space` must be
    /// the space of [`donor`](InterpTable::donor)`(q)`.
    pub fn eval(&self, space: &Space2d, u: &[f64], q: usize) -> Option<f64> {
        let e = self.rows[q].1;
        if e == UNLOCATED {
            return None;
        }
        let w = &self.weights[q * self.nloc..(q + 1) * self.nloc];
        let mut val = 0.0;
        for (wk, &g) in w.iter().zip(&space.gmap[e as usize]) {
            val += wk * u[g];
        }
        Some(val)
    }
}

/// Tables opt into the artifact disk tier: pure data (donor and element
/// ids plus weight rows), with every weight round-tripping through its
/// exact bit pattern. Locating a point is an O(elements) Newton scan per
/// row, so an ensemble sharing one cache skips the entire scan on a hit.
impl nkg_artifact::Artifact for InterpTable {
    fn approx_bytes(&self) -> usize {
        self.rows.len() * 8 + self.weights.len() * 8
    }

    fn encode(&self) -> Option<Vec<u8>> {
        let mut e = Enc::new();
        e.put(self.nloc as u64);
        let rows: Vec<u32> = self.rows.iter().flat_map(|&(d, el)| [d, el]).collect();
        e.put_slice(&rows);
        e.put_slice(&self.weights);
        Some(e.into_bytes())
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut d = Dec::new(bytes);
        let nloc = d.take::<u64>().ok()? as usize;
        let rows = d.take_vec::<u32>().ok()?;
        let weights = d.take_vec::<f64>().ok()?;
        d.finish().ok()?;
        if rows.len() % 2 != 0 || weights.len() != rows.len() / 2 * nloc {
            return None;
        }
        Some(Self {
            nloc,
            rows: rows.chunks_exact(2).map(|r| (r[0], r[1])).collect(),
            weights,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nkg_mesh::quad::QuadMesh;

    fn space(nx: usize, ny: usize, p: usize) -> Space2d {
        let mesh = QuadMesh::rectangle(nx, ny, 0.0, 2.0, 0.0, 1.0);
        Space2d::new(mesh, p, false)
    }

    #[test]
    fn table_matches_eval_at_bitwise() {
        let s = space(5, 3, 4);
        let u: Vec<f64> = s
            .coords
            .iter()
            .map(|&[x, y]| (1.3 * x).sin() * (0.7 + y * y) + 0.1 * x * y)
            .collect();
        let pts: Vec<[f64; 2]> = (0..40)
            .map(|i| {
                let t = i as f64 / 39.0;
                [2.0 * t, (0.3 + 0.6 * t * t).min(1.0)]
            })
            .collect();
        let table = InterpTable::build(&s, &pts);
        for (q, &[x, y]) in pts.iter().enumerate() {
            let direct = s.eval_at(&u, x, y).unwrap();
            let tabled = table.eval(&s, &u, q).unwrap();
            assert_eq!(
                direct.to_bits(),
                tabled.to_bits(),
                "table diverged from eval_at at point {q} ({x}, {y})"
            );
        }
    }

    #[test]
    fn outside_points_stay_aligned() {
        let s = space(2, 2, 3);
        let pts = [[0.5, 0.5], [5.0, 0.5], [1.5, 0.25]];
        let table = InterpTable::build(&s, &pts);
        let u = vec![1.0; s.nglobal];
        assert_eq!(table.len(), 3);
        assert!(table.found(0) && !table.found(1) && table.found(2));
        assert!(table.eval(&s, &u, 1).is_none());
        // Interpolating the constant-1 field returns 1 (partition of unity).
        assert!((table.eval(&s, &u, 2).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exact_node_hits_reproduce_nodal_values() {
        let s = space(3, 2, 5);
        let u: Vec<f64> = (0..s.nglobal).map(|i| i as f64 * 0.37).collect();
        // Query the DoF coordinates themselves: the Lagrange row collapses
        // to a Kronecker delta and the table must return the nodal value.
        let pts: Vec<[f64; 2]> = s.coords.iter().copied().take(25).collect();
        let table = InterpTable::build(&s, &pts);
        for (q, _) in pts.iter().enumerate() {
            let direct = s.eval_at(&u, pts[q][0], pts[q][1]).unwrap();
            let tabled = table.eval(&s, &u, q).unwrap();
            assert_eq!(direct.to_bits(), tabled.to_bits());
        }
    }
}
