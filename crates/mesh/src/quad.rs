//! 2D quadrilateral spectral-element meshes.
//!
//! Element vertices are stored counter-clockwise; local edges are numbered
//! `0:(v0,v1)`, `1:(v1,v2)`, `2:(v2,v3)`, `3:(v3,v0)`. Boundary conditions
//! are attached to `(element, local edge)` pairs via [`BoundaryTag`].

use crate::{CubeMesh, Point2};

/// Physical meaning of a boundary edge/face.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundaryTag {
    /// Rigid arterial wall (no-slip).
    Wall,
    /// Physical inflow.
    Inlet,
    /// Physical outflow.
    Outlet,
    /// Artificial interface created by the multipatch decomposition; the
    /// payload identifies the cut (shared by the two patches it separates).
    Interface(u32),
}

/// An unstructured conforming quadrilateral mesh.
#[derive(Debug, Clone)]
pub struct QuadMesh {
    /// Vertex coordinates.
    pub coords: Vec<Point2>,
    /// Elements as CCW vertex quadruples.
    pub elems: Vec<[usize; 4]>,
    /// Tagged boundary edges: `(element, local_edge, tag)`.
    pub boundary: Vec<(usize, usize, BoundaryTag)>,
}

impl CubeMesh<2> for QuadMesh {
    const FACETS: &'static [(usize, bool)] = &[(1, false), (0, true), (1, true), (0, false)];

    fn coords(&self) -> &[[f64; 2]] {
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

impl QuadMesh {
    /// Structured `nx × ny` mesh of the rectangle `[x0,x1] × [y0,y1]`.
    /// Left edge is tagged [`BoundaryTag::Inlet`], right
    /// [`BoundaryTag::Outlet`], top and bottom [`BoundaryTag::Wall`].
    pub fn rectangle(nx: usize, ny: usize, x0: f64, x1: f64, y0: f64, y1: f64) -> Self {
        assert!(nx >= 1 && ny >= 1);
        assert!(x1 > x0 && y1 > y0);
        let mut coords = Vec::with_capacity((nx + 1) * (ny + 1));
        for j in 0..=ny {
            for i in 0..=nx {
                coords.push([
                    x0 + (x1 - x0) * i as f64 / nx as f64,
                    y0 + (y1 - y0) * j as f64 / ny as f64,
                ]);
            }
        }
        let vid = |i: usize, j: usize| j * (nx + 1) + i;
        let mut elems = Vec::with_capacity(nx * ny);
        let mut boundary = Vec::new();
        for j in 0..ny {
            for i in 0..nx {
                let e = elems.len();
                elems.push([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]);
                if j == 0 {
                    boundary.push((e, 0, BoundaryTag::Wall));
                }
                if i == nx - 1 {
                    boundary.push((e, 1, BoundaryTag::Outlet));
                }
                if j == ny - 1 {
                    boundary.push((e, 2, BoundaryTag::Wall));
                }
                if i == 0 {
                    boundary.push((e, 3, BoundaryTag::Inlet));
                }
            }
        }
        Self {
            coords,
            elems,
            boundary,
        }
    }

    /// Apply a smooth geometric mapping to every vertex (e.g. bend a
    /// rectangle into a curved channel or bulge it into an aneurysm-like
    /// sac). Connectivity and tags are preserved.
    pub fn mapped(mut self, map: impl Fn(Point2) -> Point2) -> Self {
        for p in &mut self.coords {
            *p = map(*p);
        }
        self
    }

    /// Number of elements.
    pub fn num_elems(&self) -> usize {
        self.elems.len()
    }

    /// Number of vertices.
    pub fn num_verts(&self) -> usize {
        self.coords.len()
    }

    /// The two vertex ids of a local edge of an element.
    pub fn edge_verts(&self, elem: usize, edge: usize) -> [usize; 2] {
        let v = self.elems[elem];
        match edge {
            0 => [v[0], v[1]],
            1 => [v[1], v[2]],
            2 => [v[2], v[3]],
            3 => [v[3], v[0]],
            _ => panic!("quad edge index {edge} out of range"),
        }
    }

    /// Split the mesh into `np` *overlapping* patches along x, one element
    /// wide overlap (the paper: "one element-wide overlapping regions").
    ///
    /// The mesh must be a structured rectangle (elements in row-major order,
    /// `nx` columns). Each returned patch is a standalone mesh whose
    /// artificial cut edges are tagged [`BoundaryTag::Interface`] with the
    /// cut index: cut `c` separates base columns `owned by patch c` from
    /// `patch c+1`.
    pub fn split_overlapping_x(&self, nx: usize, np: usize) -> Vec<QuadMesh> {
        assert!(np >= 1 && nx >= np * 2, "need at least 2 columns per patch");
        assert_eq!(self.num_elems() % nx, 0, "not a structured mesh");
        let ny = self.num_elems() / nx;
        let base = nx / np;
        let mut patches = Vec::with_capacity(np);
        for p in 0..np {
            let own_start = p * base;
            let own_end = if p + 1 == np { nx } else { (p + 1) * base };
            // One element of overlap into each neighbour.
            let start = own_start.saturating_sub(1);
            let end = (own_end + 1).min(nx);
            let cols = end - start;
            // Build the sub-mesh with fresh vertex numbering.
            let mut coords = Vec::with_capacity((cols + 1) * (ny + 1));
            let old_vid = |i: usize, j: usize| j * (nx + 1) + i;
            for j in 0..=ny {
                for i in start..=end {
                    coords.push(self.coords[old_vid(i, j)]);
                }
            }
            let vid = |i: usize, j: usize| j * (cols + 1) + (i - start);
            let mut elems = Vec::with_capacity(cols * ny);
            let mut boundary = Vec::new();
            for j in 0..ny {
                for i in start..end {
                    let e = elems.len();
                    elems.push([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]);
                    if j == 0 {
                        boundary.push((e, 0, BoundaryTag::Wall));
                    }
                    if j == ny - 1 {
                        boundary.push((e, 2, BoundaryTag::Wall));
                    }
                    if i == start {
                        let tag = if start == 0 {
                            BoundaryTag::Inlet
                        } else {
                            // Left artificial boundary of patch p = cut p-1.
                            BoundaryTag::Interface((p - 1) as u32)
                        };
                        boundary.push((e, 3, tag));
                    }
                    if i + 1 == end {
                        let tag = if end == nx {
                            BoundaryTag::Outlet
                        } else {
                            BoundaryTag::Interface(p as u32)
                        };
                        boundary.push((e, 1, tag));
                    }
                }
            }
            patches.push(QuadMesh {
                coords,
                elems,
                boundary,
            });
        }
        patches
    }

    /// Element adjacency through shared *edges only* (strategy (a) of
    /// Table 2). Returns, per element, the neighbours with the number of
    /// shared degrees of freedom at polynomial order `p` as the weight
    /// (an edge shares `p+1` nodes).
    pub fn face_adjacency(&self, p: usize) -> Vec<Vec<(usize, f64)>> {
        use std::collections::HashMap;
        let mut edge_map: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
        for (e, _) in self.elems.iter().enumerate() {
            for k in 0..4 {
                let [a, b] = self.edge_verts(e, k);
                let key = (a.min(b), a.max(b));
                edge_map.entry(key).or_default().push(e);
            }
        }
        let mut adj = vec![Vec::new(); self.num_elems()];
        for elems in edge_map.values() {
            if elems.len() == 2 {
                let w = (p + 1) as f64;
                adj[elems[0]].push((elems[1], w));
                adj[elems[1]].push((elems[0], w));
            }
        }
        adj
    }

    /// Element adjacency through shared edges *and vertices* (strategy (b)
    /// of Table 2: "we provide to METIS the full adjacency list including
    /// elements sharing only one vertex", weights scaled with shared DoF).
    /// Edge-sharing pairs get weight `p+1`; vertex-only pairs get weight 1.
    pub fn full_adjacency(&self, p: usize) -> Vec<Vec<(usize, f64)>> {
        use std::collections::HashMap;
        let mut vert_map: HashMap<usize, Vec<usize>> = HashMap::new();
        for (e, verts) in self.elems.iter().enumerate() {
            for &v in verts {
                vert_map.entry(v).or_default().push(e);
            }
        }
        // Count shared vertices per element pair.
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
            // Two shared vertices = a shared edge (conforming quads).
            let w = if shared >= 2 { (p + 1) as f64 } else { 1.0 };
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
    fn rectangle_counts() {
        let m = QuadMesh::rectangle(4, 3, 0.0, 4.0, 0.0, 3.0);
        assert_eq!(m.num_elems(), 12);
        assert_eq!(m.num_verts(), 20);
        // Boundary: 2*(4+3) edges.
        assert_eq!(m.boundary.len(), 14);
    }

    #[test]
    fn rectangle_tags() {
        let m = QuadMesh::rectangle(3, 2, 0.0, 1.0, 0.0, 1.0);
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
        let walls = m
            .boundary
            .iter()
            .filter(|b| b.2 == BoundaryTag::Wall)
            .count();
        assert_eq!((inlets, outlets, walls), (2, 2, 6));
    }

    #[test]
    fn elements_are_ccw() {
        let m = QuadMesh::rectangle(2, 2, -1.0, 1.0, 0.0, 2.0);
        for e in &m.elems {
            let a = m.coords[e[0]];
            let b = m.coords[e[1]];
            let c = m.coords[e[2]];
            let cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]);
            assert!(cross > 0.0, "element not CCW");
        }
    }

    #[test]
    fn mapping_preserves_connectivity() {
        let m = QuadMesh::rectangle(3, 3, 0.0, 1.0, 0.0, 1.0);
        let elems = m.elems.clone();
        let mapped = m.mapped(|[x, y]| [x + y * 0.1, y]);
        assert_eq!(mapped.elems, elems);
    }

    #[test]
    fn overlapping_split_counts_and_tags() {
        let nx = 12;
        let m = QuadMesh::rectangle(nx, 2, 0.0, 12.0, 0.0, 1.0);
        let patches = m.split_overlapping_x(nx, 3);
        assert_eq!(patches.len(), 3);
        // patch 0: cols 0..5 (4 own + 1 overlap), patches 1: 3..9, 2: 7..12.
        assert_eq!(patches[0].num_elems(), 5 * 2);
        assert_eq!(patches[1].num_elems(), 6 * 2);
        assert_eq!(patches[2].num_elems(), 5 * 2);
        // Patch 0 has Inlet and Interface(0); patch 2 has Interface(1) and Outlet.
        let tags0: Vec<_> = patches[0].boundary.iter().map(|b| b.2).collect();
        assert!(tags0.contains(&BoundaryTag::Inlet));
        assert!(tags0.contains(&BoundaryTag::Interface(0)));
        assert!(!tags0.contains(&BoundaryTag::Outlet));
        let tags1: Vec<_> = patches[1].boundary.iter().map(|b| b.2).collect();
        assert!(tags1.contains(&BoundaryTag::Interface(0)));
        assert!(tags1.contains(&BoundaryTag::Interface(1)));
        let tags2: Vec<_> = patches[2].boundary.iter().map(|b| b.2).collect();
        assert!(tags2.contains(&BoundaryTag::Interface(1)));
        assert!(tags2.contains(&BoundaryTag::Outlet));
    }

    #[test]
    fn patch_geometry_overlaps() {
        let m = QuadMesh::rectangle(8, 2, 0.0, 8.0, 0.0, 1.0);
        let patches = m.split_overlapping_x(8, 2);
        let max_x0 = patches[0]
            .coords
            .iter()
            .map(|p| p[0])
            .fold(f64::MIN, f64::max);
        let min_x1 = patches[1]
            .coords
            .iter()
            .map(|p| p[0])
            .fold(f64::MAX, f64::min);
        assert!(
            max_x0 > min_x1,
            "patches must overlap: {max_x0} vs {min_x1}"
        );
    }

    #[test]
    fn face_adjacency_interior_element() {
        let m = QuadMesh::rectangle(3, 3, 0.0, 1.0, 0.0, 1.0);
        let adj = m.face_adjacency(5);
        // center element (index 4) has 4 edge neighbours.
        assert_eq!(adj[4].len(), 4);
        for &(_, w) in &adj[4] {
            assert_eq!(w, 6.0);
        }
        // corner element has 2.
        assert_eq!(adj[0].len(), 2);
    }

    #[test]
    fn full_adjacency_includes_corners() {
        let m = QuadMesh::rectangle(3, 3, 0.0, 1.0, 0.0, 1.0);
        let adj = m.full_adjacency(5);
        // center element touches all 8 surrounding elements.
        assert_eq!(adj[4].len(), 8);
        let vertex_only: Vec<_> = adj[4].iter().filter(|&&(_, w)| w == 1.0).collect();
        assert_eq!(vertex_only.len(), 4);
    }

    #[test]
    fn adjacency_symmetric() {
        let m = QuadMesh::rectangle(4, 2, 0.0, 1.0, 0.0, 1.0);
        for adj in [m.face_adjacency(3), m.full_adjacency(3)] {
            for (e, nbrs) in adj.iter().enumerate() {
                for &(n, w) in nbrs {
                    assert!(adj[n].iter().any(|&(b, wb)| b == e && wb == w));
                }
            }
        }
    }
}
