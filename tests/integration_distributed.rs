//! Cross-crate integration: the MCI runtime + topology models + graph
//! partitioner + distributed SEM solves, i.e. the parallel machinery of
//! NεκTαr-G running on the virtual machine.

use nektarg::coupling::dist::DistSpace2d;
use nektarg::mci::{Comm, Hierarchy, HierarchySpec, InterfaceLink, Universe};
use nektarg::mesh::quad::QuadMesh;
use nektarg::sem::precon::ApplyScratch;
use nektarg::sem::space2d::Space2d;
use nektarg::topo::Torus3D;

#[test]
fn distributed_poisson_invariant_under_rank_count() {
    let pi = std::f64::consts::PI;
    let solve = |ranks: usize| -> Vec<f64> {
        let u = Universe::new(ranks);
        let mut per_rank = u.run(move |comm| {
            let mesh = QuadMesh::rectangle(4, 3, 0.0, 2.0, 0.0, 1.0);
            let space = Space2d::new(mesh, 5, false);
            let ds = DistSpace2d::new(&space, &comm, 5);
            let rhs =
                space.weak_rhs(move |x, y| pi * pi * 1.25 * (pi * x / 2.0).sin() * (pi * y).sin());
            let bnd = space.boundary_dofs(|_| true);
            let (x, _) = ds.solve_dirichlet(&comm, 0.0, &rhs, &bnd, 1e-12, 4000);
            // Return the owned portion, zeroed elsewhere, for global
            // reassembly in the test harness.
            let mut owned = vec![0.0; space.nglobal];
            for g in 0..space.nglobal {
                if ds.owned[g] {
                    owned[g] = x[g];
                }
            }
            owned
        });
        // Sum of owned portions = the full solution (ownership is disjoint).
        let mut total = per_rank.pop().unwrap();
        for v in per_rank {
            for (t, x) in total.iter_mut().zip(v) {
                *t += x;
            }
        }
        total
    };
    let serial = solve(1);
    for ranks in [2usize, 3, 5] {
        let parallel = solve(ranks);
        for (a, b) in serial.iter().zip(&parallel) {
            assert!(
                (a - b).abs() < 1e-7,
                "rank-count dependence: {a} vs {b} at {ranks} ranks"
            );
        }
    }
}

/// `DistSpace2d::solve_dirichlet` as it read before its reductions were
/// fused: Jacobi-preconditioned CG from the public `apply_helmholtz`,
/// `assemble` and `dot`, one reduction per inner product and `z` formed
/// only after the convergence test.
fn unfused_cg(
    ds: &DistSpace2d,
    comm: &Comm,
    rhs: &[f64],
    dirichlet: &[usize],
    tol: f64,
    max_iter: usize,
) -> (Vec<f64>, usize) {
    let space = ds.space;
    let ng = space.nglobal;
    let n = space.basis.n();
    let d = &space.basis.d;
    let mut diag = vec![0.0f64; ng];
    for &e in &ds.my_elems {
        let g = &space.geom[e];
        for j in 0..n {
            for i in 0..n {
                let k = j * n + i;
                let mut v = 0.0;
                for m in 0..n {
                    v += g.g[0][j * n + m] * d[m * n + i] * d[m * n + i];
                    v += g.g[2][m * n + i] * d[m * n + j] * d[m * n + j];
                }
                v += 2.0 * g.g[1][k] * d[i * n + i] * d[j * n + j];
                diag[space.gmap[e][k]] += v;
            }
        }
    }
    ds.assemble(comm, &mut diag);
    let mut is_bc = vec![false; ng];
    for &g in dirichlet {
        is_bc[g] = true;
    }
    let masked = |v: &mut [f64]| {
        for g in 0..ng {
            if is_bc[g] || !ds.touched[g] {
                v[g] = 0.0;
            }
        }
    };
    let jacobi = |r: &[f64], z: &mut [f64]| {
        for g in 0..ng {
            z[g] = if diag[g].abs() > 0.0 {
                r[g] / diag[g]
            } else {
                0.0
            };
        }
        masked(z);
    };
    let mut x = vec![0.0f64; ng];
    let mut r = rhs.to_vec();
    masked(&mut r);
    let mut z = vec![0.0f64; ng];
    jacobi(&r, &mut z);
    let mut p = z.clone();
    let mut rz = ds.dot(comm, &r, &z);
    let bnorm = ds.dot(comm, &r, &r).sqrt().max(1e-300);
    let mut ap = vec![0.0f64; ng];
    let mut ws = ApplyScratch::new();
    let mut iters = 0;
    for it in 1..=max_iter {
        iters = it;
        ds.apply_helmholtz(comm, 0.0, &p, &mut ap, &mut ws);
        masked(&mut ap);
        let pap = ds.dot(comm, &p, &ap);
        if pap <= 0.0 {
            break;
        }
        let alpha = rz / pap;
        for g in 0..ng {
            x[g] += alpha * p[g];
            r[g] -= alpha * ap[g];
        }
        if ds.dot(comm, &r, &r).sqrt() <= tol * bnorm {
            break;
        }
        jacobi(&r, &mut z);
        let rz_new = ds.dot(comm, &r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for g in 0..ng {
            p[g] = z[g] + beta * p[g];
        }
    }
    (x, iters)
}

/// Fusing `r·r` with `r·z` changes what an iteration waits for, not what
/// it computes: same iterates, same iteration count, and on two ranks
/// (where an allreduce is 2 messages either way) exactly one allreduce
/// fewer per iteration that continues.
#[test]
fn fused_cg_reductions_keep_the_bits_and_drop_one_allreduce_per_iteration() {
    let pi = std::f64::consts::PI;
    // Run the fused solver, the reference, or both (and compare them) on
    // `ranks` ranks; returns (iterations, messages the universe routed).
    let run = move |ranks: usize, fused: bool, reference: bool| -> (usize, u64) {
        let u = Universe::new(ranks);
        let iters = u.run(move |comm| {
            let mesh = QuadMesh::rectangle(4, 3, 0.0, 2.0, 0.0, 1.0);
            let space = Space2d::new(mesh, 5, false);
            let ds = DistSpace2d::new(&space, &comm, 5);
            let rhs =
                space.weak_rhs(move |x, y| pi * pi * 1.25 * (pi * x / 2.0).sin() * (pi * y).sin());
            let bnd = space.boundary_dofs(|_| true);
            let fused = fused.then(|| ds.solve_dirichlet(&comm, 0.0, &rhs, &bnd, 1e-12, 4000));
            let unfused = reference.then(|| unfused_cg(&ds, &comm, &rhs, &bnd, 1e-12, 4000));
            if let (Some((x, it)), Some((x_ref, it_ref))) = (&fused, &unfused) {
                assert_eq!(it, it_ref, "iteration count on {ranks} ranks");
                let same = x.iter().zip(x_ref).all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "iterates differ on {ranks} ranks");
            }
            fused.or(unfused).expect("one solver ran").1
        });
        (iters[0], u.stats().messages)
    };
    for ranks in 1..=4 {
        let (iters, _) = run(ranks, true, true);
        assert!(
            iters > 1 && iters < 4000,
            "CG must converge: {iters} iterations"
        );
    }
    let (iters, fused_msgs) = run(2, true, false);
    let (iters_ref, unfused_msgs) = run(2, false, true);
    assert_eq!(iters, iters_ref);
    // The converging iteration sends its one (wider) reduction either way.
    assert_eq!(unfused_msgs - fused_msgs, 2 * (iters as u64 - 1));
}

#[test]
fn hierarchy_over_modeled_torus_carries_interface_payloads() {
    // 2 racks on a modeled torus, one solver task per rack, three-step
    // exchange between interface L4 groups — Figs. 2-4 in one test.
    let torus = Torus3D::new([2, 1, 1], 4);
    Universe::new(8).run(move |world| {
        let node = torus.node_of_rank(world.rank());
        let spec = HierarchySpec {
            l2_color: torus.l2_color_of_node(node, [1, 1, 1]),
            l3_color: world.rank() / 4,
        };
        let h = Hierarchy::build(world, spec);
        assert_eq!(h.l2.size(), 4);
        assert_eq!(h.l3.size(), 4);
        // Interface members: ranks 2,3 of task 0 and 0,1 of task 1.
        let member =
            (spec.l3_color == 0 && h.l3.rank() >= 2) || (spec.l3_color == 1 && h.l3.rank() < 2);
        if let Some(l4) = h.derive_l4(member) {
            let peer_root = if spec.l3_color == 0 { 4 } else { 2 };
            let link = InterfaceLink::establish(&h.world, l4, peer_root, 17);
            let payload = vec![h.world.rank() as f64; 3];
            let got = link.exchange(&h.world, &payload, 3);
            assert_eq!(got.len(), 3);
            // Member k receives from the peer group's member k.
            let expect = if spec.l3_color == 0 {
                4.0 + link.l4.rank() as f64
            } else {
                2.0 + link.l4.rank() as f64
            };
            assert_eq!(got, vec![expect; 3]);
        }
    });
}

#[test]
fn traffic_counters_scale_with_interface_size() {
    let run_exchange = |members: usize| -> u64 {
        let u = Universe::new(2 * members);
        u.run(move |world| {
            let domain = world.rank() / members;
            let l3 = world.split(Some(domain), world.rank()).unwrap();
            let l4 = l3.split(Some(0), l3.rank()).unwrap();
            let peer_root = if domain == 0 { members } else { 0 };
            let link = InterfaceLink::new(l4, peer_root, 5);
            let mine = vec![1.0f64; 64];
            let _ = link.exchange(&world, &mine, 64);
        });
        u.stats().bytes
    };
    let small = run_exchange(2);
    let large = run_exchange(8);
    assert!(
        large > small,
        "more interface members must move more bytes: {small} vs {large}"
    );
}
