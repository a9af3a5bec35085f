//! Property-based invariants across the core data structures and numerics
//! (proptest), spanning the crate boundaries.

use nektarg::dpd::cells::CellGrid;
use nektarg::dpd::Box3;
use nektarg::mci::Universe;
use nektarg::partition::{recursive_bisect, Graph, PartitionQuality};
use nektarg::sem::basis::{gll, lagrange_at, GllBasis};
use nektarg::topo::Torus3D;
use nektarg::wpod::eig::{symmetric_eigen, SymMatrix};
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// GLL quadrature integrates every polynomial of degree ≤ 2p-1 exactly
    /// for arbitrary coefficients.
    #[test]
    fn gll_quadrature_exactness(
        p in 2usize..8,
        coeffs in prop::collection::vec(-3.0f64..3.0, 1..8),
    ) {
        let (x, w) = gll(p);
        let deg_max = (2 * p - 1).min(coeffs.len() - 1);
        let poly = |t: f64| -> f64 {
            coeffs[..=deg_max]
                .iter()
                .enumerate()
                .map(|(k, c)| c * t.powi(k as i32))
                .sum()
        };
        let quad: f64 = x.iter().zip(&w).map(|(&xi, &wi)| wi * poly(xi)).sum();
        let exact: f64 = coeffs[..=deg_max]
            .iter()
            .enumerate()
            .map(|(k, c)| {
                if k % 2 == 0 { 2.0 * c / (k as f64 + 1.0) } else { 0.0 }
            })
            .sum();
        prop_assert!((quad - exact).abs() < 1e-10 * (1.0 + exact.abs()));
    }

    /// Lagrange interpolation on GLL nodes reproduces any polynomial of
    /// degree ≤ p at arbitrary evaluation points.
    #[test]
    fn lagrange_reproduces_polynomials(
        p in 2usize..8,
        xi in -1.0f64..1.0,
        c0 in -2.0f64..2.0,
        c1 in -2.0f64..2.0,
        c2 in -2.0f64..2.0,
    ) {
        let b = GllBasis::new(p);
        let f = |t: f64| c0 + c1 * t + c2 * t * t;
        let nodal: Vec<f64> = b.points.iter().map(|&t| f(t)).collect();
        let l = lagrange_at(&b.points, xi);
        let val: f64 = l.iter().zip(&nodal).map(|(a, v)| a * v).sum();
        prop_assert!((val - f(xi)).abs() < 1e-9);
    }

    /// Minimum-image displacement is antisymmetric and bounded by half the
    /// box on periodic axes.
    #[test]
    fn min_image_properties(
        ax in 0.1f64..20.0, ay in 0.1f64..20.0, az in 0.1f64..20.0,
        px in 0.0f64..1.0, py in 0.0f64..1.0, pz in 0.0f64..1.0,
        qx in 0.0f64..1.0, qy in 0.0f64..1.0, qz in 0.0f64..1.0,
        periodic in prop::array::uniform3(any::<bool>()),
    ) {
        let bx = Box3::new([0.0; 3], [ax, ay, az], periodic);
        let a = [px * ax, py * ay, pz * az];
        let b = [qx * ax, qy * ay, qz * az];
        let d1 = bx.min_image(a, b);
        let d2 = bx.min_image(b, a);
        let l = bx.lengths();
        for k in 0..3 {
            prop_assert!((d1[k] + d2[k]).abs() < 1e-12);
            if periodic[k] {
                prop_assert!(d1[k].abs() <= 0.5 * l[k] + 1e-12);
            }
        }
    }

    /// The partitioner always produces balanced, in-range parts on grid
    /// graphs, and its edge cut never exceeds the total edge weight.
    #[test]
    fn partitioner_invariants(
        nx in 2usize..8,
        ny in 2usize..8,
        parts in 1usize..6,
        seed in 0u64..50,
    ) {
        let g = Graph::grid2d(nx, ny);
        let n = nx * ny;
        prop_assume!(parts <= n);
        let part = recursive_bisect(&g, parts, seed);
        prop_assert_eq!(part.len(), n);
        prop_assert!(part.iter().all(|&p| p < parts));
        let q = PartitionQuality::measure(&g, &part, parts);
        // Balance within one vertex per bisection level (≤ log2(parts) slack).
        let max = *q.part_sizes.iter().max().unwrap();
        let min = *q.part_sizes.iter().min().unwrap();
        prop_assert!(max - min <= parts.max(2), "sizes {:?}", q.part_sizes);
        let total_weight: f64 = (0..n).map(|u| g.neighbors(u).map(|(_, w)| w).sum::<f64>()).sum::<f64>() / 2.0;
        prop_assert!(q.edge_cut <= total_weight + 1e-9);
    }

    /// Torus minimal paths: length equals the hop distance, and every hop
    /// uses a valid link index.
    #[test]
    fn torus_paths_minimal(
        dx in 1usize..6, dy in 1usize..6, dz in 1usize..6,
        a in 0usize..200, b in 0usize..200,
    ) {
        let t = Torus3D::new([dx, dy, dz], 1);
        let n = t.num_nodes();
        let (a, b) = (a % n, b % n);
        let path = t.path_xyz(a, b);
        prop_assert_eq!(path.len(), t.hop_distance(a, b));
        for l in path {
            prop_assert!(l < t.num_links());
        }
    }

    /// The CSR cell grid enumerates each pair at most once and finds
    /// exactly the brute-force O(N²) minimum-image pair set inside the
    /// cutoff, on random particle clouds in boxes down to 2 r_c — periodic
    /// axes with only two cells included.
    #[test]
    fn csr_pairs_equal_brute_force(
        lx in 2.0f64..9.0, ly in 2.0f64..9.0, lz in 2.0f64..9.0,
        frac in prop::collection::vec(prop::array::uniform3(0.0f64..1.0), 20..120),
        periodic in prop::array::uniform3(any::<bool>()),
    ) {
        let bx = Box3::new([0.0; 3], [lx, ly, lz], periodic);
        let pts: Vec<[f64; 3]> = frac
            .iter()
            .map(|f| [f[0] * lx, f[1] * ly, f[2] * lz])
            .collect();
        let within = |i: usize, j: usize| {
            let d = bx.min_image(pts[i], pts[j]);
            d[0] * d[0] + d[1] * d[1] + d[2] * d[2] < 1.0
        };
        let mut csr = CellGrid::new(bx, 1.0);
        csr.rebuild(&pts);
        let mut seen = HashSet::new();
        let mut unique = true;
        csr.for_each_pair(|i, j| {
            unique &= seen.insert((i.min(j), i.max(j)));
        });
        prop_assert!(unique, "CSR enumerated a pair twice");
        let got: HashSet<_> = seen.into_iter().filter(|&(i, j)| within(i, j)).collect();
        let want: HashSet<_> = (0..pts.len())
            .flat_map(|i| (i + 1..pts.len()).map(move |j| (i, j)))
            .filter(|&(i, j)| within(i, j))
            .collect();
        prop_assert!(got == want, "pair sets differ");
    }

    /// Jacobi eigen-decomposition: trace preserved, eigenvalues sorted,
    /// residuals small, for random symmetric matrices.
    #[test]
    fn eigen_invariants(vals in prop::collection::vec(-5.0f64..5.0, 9)) {
        // Build a symmetric 3x3 from 6 unique entries.
        let a = vec![
            vals[0], vals[1], vals[2],
            vals[1], vals[3], vals[4],
            vals[2], vals[4], vals[5],
        ];
        let m = SymMatrix::new(3, a);
        let (lam, vecs) = symmetric_eigen(&m);
        prop_assert!(lam[0] >= lam[1] && lam[1] >= lam[2]);
        let trace = m.get(0, 0) + m.get(1, 1) + m.get(2, 2);
        prop_assert!((lam.iter().sum::<f64>() - trace).abs() < 1e-9);
        for (k, v) in vecs.iter().enumerate() {
            let mut r = 0.0f64;
            for i in 0..3 {
                let mut av = 0.0;
                for j in 0..3 {
                    av += m.get(i, j) * v[j];
                }
                r += (av - lam[k] * v[i]).powi(2);
            }
            prop_assert!(r.sqrt() < 1e-8, "residual {}", r.sqrt());
        }
    }
}

proptest! {
    // Collectives are slower (thread spawn per case): fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// allreduce_sum equals the serial sum for any rank count and values.
    #[test]
    fn allreduce_matches_serial_sum(
        n in 1usize..7,
        base in -100.0f64..100.0,
    ) {
        let expected: f64 = (0..n).map(|r| base + r as f64).sum();
        let results = Universe::new(n).run(move |comm| {
            comm.allreduce_scalar_sum(base + comm.rank() as f64)
        });
        for r in results {
            prop_assert!((r - expected).abs() < 1e-9);
        }
    }

    /// split + allgather: every subgroup sees exactly its own members.
    #[test]
    fn split_partitions_world(n in 2usize..8, colors in 1usize..4) {
        let ok = Universe::new(n).run(move |comm| {
            let color = comm.rank() % colors;
            let sub = comm.split(Some(color), comm.rank()).unwrap();
            let members = sub.allgather(&[comm.rank() as u64]);
            members
                .iter()
                .all(|m| m[0] as usize % colors == color)
        });
        prop_assert!(ok.into_iter().all(|b| b));
    }
}
