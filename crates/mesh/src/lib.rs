//! Synthetic vessel meshes.
//!
//! The paper's continuum domain is a patient-specific reconstruction of the
//! major brain arteries (circle of Willis with an aneurysm), decomposed into
//! four overlapping patches; the atomistic domain ΩA is a 3.93 mm³ box
//! embedded in the aneurysm, bounded by five planar triangulated interfaces
//! and one wall surface. MRI data is not available, so this crate generates
//! *synthetic* equivalents that exercise identical code paths:
//!
//! * [`quad`] — 2D quadrilateral spectral-element meshes: channels,
//!   curvilinear maps of them, and overlapping patch splits;
//! * [`hex`] — 3D hexahedral spectral-element meshes: boxes, curvilinear
//!   maps of them, and tubes.
//!
//! Element-adjacency extraction for partitioning (face-only vs. full
//! vertex adjacency — the two strategies of Table 2) lives here too, since
//! it is a mesh property.

#![forbid(unsafe_code)]

pub mod hex;
pub mod quad;

pub use hex::HexMesh;
pub use quad::{BoundaryTag, QuadMesh};

/// A conforming mesh of `D`-dimensional tensor-product cells
/// (quadrilaterals, hexahedra): `2^D` vertices per element in tensor order
/// — counter-clockwise in `(ξ, η)`, then the same at `ζ = +1` — and tagged
/// boundary facets.
pub trait CubeMesh<const D: usize> {
    /// Local facet id → `(reference axis, whether the facet is at +1)`.
    const FACETS: &'static [(usize, bool)];
    /// Vertex coordinates.
    fn coords(&self) -> &[[f64; D]];
    /// Vertex ids of element `e`.
    fn elem_verts(&self, e: usize) -> &[usize];
    /// Number of elements.
    fn num_elems(&self) -> usize;
    /// Tagged boundary facets `(element, local facet, tag)`.
    fn boundary(&self) -> &[(usize, usize, BoundaryTag)];
}

/// 2D point.
pub type Point2 = [f64; 2];
/// 3D point.
pub type Point3 = [f64; 3];
