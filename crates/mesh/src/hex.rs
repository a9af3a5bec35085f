//! 3D hexahedral spectral-element meshes.
//!
//! Vertex ordering follows the usual tensor-product convention: vertices
//! `0..4` are the bottom face (CCW seen from above: `(0,0,0) (1,0,0)
//! (1,1,0) (0,1,0)` in reference coordinates), `4..8` the top face in the
//! same order. Local faces are numbered `0:z-`, `1:z+`, `2:y-`, `3:x+`,
//! `4:y+`, `5:x-`.

use crate::quad::BoundaryTag;
use crate::{CubeMesh, Point3};

/// An unstructured conforming hexahedral mesh.
#[derive(Debug, Clone)]
pub struct HexMesh {
    /// Vertex coordinates.
    pub coords: Vec<Point3>,
    /// Elements as vertex octuples.
    pub elems: Vec<[usize; 8]>,
    /// Tagged boundary faces: `(element, local_face, tag)`.
    pub boundary: Vec<(usize, usize, BoundaryTag)>,
}

impl CubeMesh<3> for HexMesh {
    const FACETS: &'static [(usize, bool)] = &[
        (2, false),
        (2, true),
        (1, false),
        (0, true),
        (1, true),
        (0, false),
    ];

    fn coords(&self) -> &[[f64; 3]] {
        &self.coords
    }

    fn elem_verts(&self, e: usize) -> &[usize] {
        &self.elems[e]
    }

    fn num_elems(&self) -> usize {
        self.elems.len()
    }

    fn boundary(&self) -> &[(usize, usize, BoundaryTag)] {
        &self.boundary
    }
}

impl HexMesh {
    /// Structured `nx × ny × nz` mesh of a box. Faces at `x = x0` are
    /// [`BoundaryTag::Inlet`], `x = x1` [`BoundaryTag::Outlet`], all other
    /// outer faces [`BoundaryTag::Wall`].
    #[allow(clippy::too_many_arguments)]
    pub fn box_mesh(
        nx: usize,
        ny: usize,
        nz: usize,
        x: [f64; 2],
        y: [f64; 2],
        z: [f64; 2],
    ) -> Self {
        assert!(nx >= 1 && ny >= 1 && nz >= 1);
        let mut coords = Vec::with_capacity((nx + 1) * (ny + 1) * (nz + 1));
        for k in 0..=nz {
            for j in 0..=ny {
                for i in 0..=nx {
                    coords.push([
                        x[0] + (x[1] - x[0]) * i as f64 / nx as f64,
                        y[0] + (y[1] - y[0]) * j as f64 / ny as f64,
                        z[0] + (z[1] - z[0]) * k as f64 / nz as f64,
                    ]);
                }
            }
        }
        let vid = |i: usize, j: usize, k: usize| (k * (ny + 1) + j) * (nx + 1) + i;
        let mut elems = Vec::with_capacity(nx * ny * nz);
        let mut boundary = Vec::new();
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let e = elems.len();
                    elems.push([
                        vid(i, j, k),
                        vid(i + 1, j, k),
                        vid(i + 1, j + 1, k),
                        vid(i, j + 1, k),
                        vid(i, j, k + 1),
                        vid(i + 1, j, k + 1),
                        vid(i + 1, j + 1, k + 1),
                        vid(i, j + 1, k + 1),
                    ]);
                    if k == 0 {
                        boundary.push((e, 0, BoundaryTag::Wall));
                    }
                    if k == nz - 1 {
                        boundary.push((e, 1, BoundaryTag::Wall));
                    }
                    if j == 0 {
                        boundary.push((e, 2, BoundaryTag::Wall));
                    }
                    if i == nx - 1 {
                        boundary.push((e, 3, BoundaryTag::Outlet));
                    }
                    if j == ny - 1 {
                        boundary.push((e, 4, BoundaryTag::Wall));
                    }
                    if i == 0 {
                        boundary.push((e, 5, BoundaryTag::Inlet));
                    }
                }
            }
        }
        Self {
            coords,
            elems,
            boundary,
        }
    }

    /// Apply a smooth geometric mapping to every vertex.
    pub fn mapped(mut self, map: impl Fn(Point3) -> Point3) -> Self {
        for p in &mut self.coords {
            *p = map(*p);
        }
        self
    }

    /// A straight circular tube of given `radius` and `length` along x,
    /// built by mapping a box cross-section onto the disc (a standard
    /// "square-to-circle" map that keeps elements well-shaped). This stands
    /// in for the paper's carotid-artery mesh in Table 2.
    pub fn tube(nx: usize, nc: usize, radius: f64, length: f64) -> Self {
        let m = Self::box_mesh(nx, nc, nc, [0.0, length], [-1.0, 1.0], [-1.0, 1.0]);
        m.mapped(move |[x, y, z]| {
            // Elliptical square-to-disc mapping.
            let u = y * (1.0 - z * z / 2.0).sqrt();
            let v = z * (1.0 - y * y / 2.0).sqrt();
            [x, radius * u, radius * v]
        })
    }

    /// Number of elements.
    pub fn num_elems(&self) -> usize {
        self.elems.len()
    }

    /// Number of vertices.
    pub fn num_verts(&self) -> usize {
        self.coords.len()
    }

    /// Vertex ids of a local face.
    pub fn face_verts(&self, elem: usize, face: usize) -> [usize; 4] {
        let v = self.elems[elem];
        match face {
            0 => [v[0], v[1], v[2], v[3]],
            1 => [v[4], v[5], v[6], v[7]],
            2 => [v[0], v[1], v[5], v[4]],
            3 => [v[1], v[2], v[6], v[5]],
            4 => [v[3], v[2], v[6], v[7]],
            5 => [v[0], v[3], v[7], v[4]],
            _ => panic!("hex face index {face} out of range"),
        }
    }

    /// Element adjacency through shared faces only (Table 2 strategy (a));
    /// weight = `(p+1)²` shared DoF per face at order `p`.
    pub fn face_adjacency(&self, p: usize) -> Vec<Vec<(usize, f64)>> {
        use std::collections::HashMap;
        let mut face_map: HashMap<[usize; 4], Vec<usize>> = HashMap::new();
        for e in 0..self.num_elems() {
            for f in 0..6 {
                let mut key = self.face_verts(e, f);
                key.sort_unstable();
                face_map.entry(key).or_default().push(e);
            }
        }
        let mut adj = vec![Vec::new(); self.num_elems()];
        let w = ((p + 1) * (p + 1)) as f64;
        for elems in face_map.values() {
            if elems.len() == 2 {
                adj[elems[0]].push((elems[1], w));
                adj[elems[1]].push((elems[0], w));
            }
        }
        adj
    }

    /// Element adjacency through shared faces, edges and vertices (Table 2
    /// strategy (b)). Weights scale with the shared DoF count at order `p`:
    /// `(p+1)²` per shared face (4 shared vertices), `p+1` per shared edge
    /// (2 vertices), `1` per shared vertex — "the weights associated with
    /// the links are scaled with respect to the number of shared degrees of
    /// freedom per link".
    pub fn full_adjacency(&self, p: usize) -> Vec<Vec<(usize, f64)>> {
        use std::collections::HashMap;
        let mut vert_map: HashMap<usize, Vec<usize>> = HashMap::new();
        for (e, verts) in self.elems.iter().enumerate() {
            for &v in verts {
                vert_map.entry(v).or_default().push(e);
            }
        }
        let mut pair_count: HashMap<(usize, usize), usize> = HashMap::new();
        for elems in vert_map.values() {
            for i in 0..elems.len() {
                for j in i + 1..elems.len() {
                    let (a, b) = (elems[i].min(elems[j]), elems[i].max(elems[j]));
                    *pair_count.entry((a, b)).or_insert(0) += 1;
                }
            }
        }
        let mut adj = vec![Vec::new(); self.num_elems()];
        for (&(a, b), &shared) in &pair_count {
            let w = match shared {
                1 => 1.0,
                2 => (p + 1) as f64,
                _ => ((p + 1) * (p + 1)) as f64,
            };
            adj[a].push((b, w));
            adj[b].push((a, w));
        }
        adj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_counts() {
        let m = HexMesh::box_mesh(3, 2, 2, [0.0, 3.0], [0.0, 2.0], [0.0, 2.0]);
        assert_eq!(m.num_elems(), 12);
        assert_eq!(m.num_verts(), 4 * 3 * 3);
        // Outer faces: 2*(ny*nz + nx*nz + nx*ny) = 2*(4 + 6 + 6) = 32.
        assert_eq!(m.boundary.len(), 32);
    }

    #[test]
    fn inlet_outlet_on_x_faces() {
        let m = HexMesh::box_mesh(2, 2, 2, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        let inlets = m
            .boundary
            .iter()
            .filter(|b| b.2 == BoundaryTag::Inlet)
            .count();
        let outlets = m
            .boundary
            .iter()
            .filter(|b| b.2 == BoundaryTag::Outlet)
            .count();
        assert_eq!((inlets, outlets), (4, 4));
    }

    #[test]
    fn interior_element_has_six_face_neighbors() {
        let m = HexMesh::box_mesh(3, 3, 3, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        let adj = m.face_adjacency(4);
        let center = 13; // (1,1,1) in a 3x3x3 block
        assert_eq!(adj[center].len(), 6);
        for &(_, w) in &adj[center] {
            assert_eq!(w, 25.0);
        }
    }

    #[test]
    fn full_adjacency_has_26_neighbors_interior() {
        let m = HexMesh::box_mesh(3, 3, 3, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        let adj = m.full_adjacency(4);
        let center = 13;
        assert_eq!(adj[center].len(), 26);
        let faces = adj[center].iter().filter(|&&(_, w)| w == 25.0).count();
        let edges = adj[center].iter().filter(|&&(_, w)| w == 5.0).count();
        let verts = adj[center].iter().filter(|&&(_, w)| w == 1.0).count();
        assert_eq!((faces, edges, verts), (6, 12, 8));
    }

    #[test]
    fn tube_stays_within_radius() {
        let m = HexMesh::tube(4, 4, 2.0, 10.0);
        for p in &m.coords {
            let r = (p[1] * p[1] + p[2] * p[2]).sqrt();
            assert!(r <= 2.0 + 1e-12, "point outside tube radius: {r}");
        }
        // Wall vertices exist at (close to) the full radius.
        let rmax = m
            .coords
            .iter()
            .map(|p| (p[1] * p[1] + p[2] * p[2]).sqrt())
            .fold(f64::MIN, f64::max);
        assert!(rmax > 1.9, "tube surface missing: rmax={rmax}");
    }

    #[test]
    fn face_verts_cover_all_vertices() {
        let m = HexMesh::box_mesh(1, 1, 1, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        let mut seen = std::collections::HashSet::new();
        for f in 0..6 {
            for v in m.face_verts(0, f) {
                seen.insert(v);
            }
        }
        assert_eq!(seen.len(), 8);
    }
}
