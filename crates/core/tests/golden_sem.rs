//! Golden-value pin for the continuum solver's bits.
//!
//! The hashes below were recorded from the SEM stack as it stood before
//! the 2D and 3D spaces and steppers became one dimension-generic code
//! path. A refactor of the element kernels, the numbering, the geometric
//! factors or the velocity-correction stepper must reproduce every bit of
//! these fields; any drift here means the physics moved, not just the code.

use nkg_coupling::multipatch::poiseuille_multipatch;
use nkg_mesh::QuadMesh;
use nkg_sem::Space2d;

/// `u`, `v`, `p` of the three `coupled_sem` patches after 10 steps.
const GOLDEN_MULTIPATCH: u64 = 0xaf1f5ff9e036b0a8;
/// The solution of a Dirichlet Helmholtz problem on a mapped mesh.
const GOLDEN_HELMHOLTZ: u64 = 0x4995f09967d51ec3;

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

/// `coupled_sem`'s continuum: a 6 × 1 channel of 48 × 4 elements in three
/// overlapping P = 8 patches, from rest.
#[test]
fn coupled_sem_patches_keep_their_bits() {
    let mut mp = poiseuille_multipatch(6.0, 1.0, 48, 4, 3, 8, 0.5, 0.4, 5e-3);
    for _ in 0..10 {
        mp.step();
    }
    let fields = mp
        .patches
        .iter()
        .flat_map(|s| s.u.iter().chain(&s.v).chain(&s.p));
    let h = fnv1a(fields.copied());
    assert_eq!(h, GOLDEN_MULTIPATCH, "multipatch hash {h:#018x}");
}

/// General quadrilaterals (a varying Jacobian and a non-zero cross metric),
/// non-zero Dirichlet data and λ > 0: every geometric factor and every
/// term of the element matrix reaches the solution.
#[test]
fn mapped_dirichlet_helmholtz_keeps_its_bits() {
    let mesh = QuadMesh::rectangle(3, 2, 0.0, 2.0, 0.0, 1.0)
        .mapped(|[x, y]| [x + 0.3 * y * y + 0.1 * x * y, y + 0.2 * (1.3 * x).sin()]);
    let s = Space2d::new(mesh, 6, false);
    let bnd = s.boundary_dofs(|_| true);
    let vals: Vec<f64> = bnd
        .iter()
        .map(|&g| s.coords[g][0] - s.coords[g][1])
        .collect();
    let rhs = s.weak_rhs(|x, y| (1.3 * x).sin() * (2.1 * y).cos());
    let (u, res) = s.solve_helmholtz(600.0, &rhs, &bnd, &vals, 1e-12, 4000);
    assert!(res.converged, "{res:?}");
    let h = fnv1a(u.iter().copied());
    assert_eq!(h, GOLDEN_HELMHOLTZ, "Helmholtz hash {h:#018x}");
}
