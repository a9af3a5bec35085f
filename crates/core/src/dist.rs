//! Distributed SEM elliptic solves over the MCI runtime — the intra-patch
//! parallelism of NεκTαr-3D.
//!
//! Elements are partitioned across the ranks of an (L3) communicator with
//! the `nkg-partition` recursive-bisection partitioner fed by the mesh
//! adjacency (exactly the paper's METIS usage, §3.5). The matrix-free
//! Helmholtz operator then needs two kinds of communication per CG
//! iteration:
//!
//! * **shared-DoF assembly** — partial element sums at partition-boundary
//!   DoFs are completed by point-to-point exchange with the neighbor ranks
//!   that share them (the "high number of adjacent elements" traffic that
//!   motivates topology-aware scheduling);
//! * **reductions** — CG inner products via `allreduce`.
//!
//! Every rank holds the (small) global mesh/space description but computes
//! only its own elements; vectors live in global numbering with only the
//! locally-touched entries meaningful.

use nkg_mci::Comm;
use nkg_partition::{recursive_bisect, Graph};
use nkg_sem::precon::ApplyScratch;
use nkg_sem::space2d::Space2d;

/// A distributed view of a [`Space2d`] for one rank of a communicator.
pub struct DistSpace2d<'a> {
    /// The shared discretization.
    pub space: &'a Space2d,
    /// Elements owned by this rank.
    pub my_elems: Vec<usize>,
    /// DoFs touched by my elements.
    pub touched: Vec<bool>,
    /// DoFs I own for reduction purposes (lowest touching rank wins).
    pub owned: Vec<bool>,
    /// Exchange plan: `(peer rank, shared DoF ids)` sorted by peer.
    pub plan: Vec<(usize, Vec<usize>)>,
    /// Element partition (all ranks' assignments).
    pub part: Vec<usize>,
}

impl<'a> DistSpace2d<'a> {
    /// Partition `space` over `comm` (deterministic: every rank computes
    /// the same partition) and build the exchange plan.
    pub fn new(space: &'a Space2d, comm: &Comm, p_order: usize) -> Self {
        let nparts = comm.size();
        let adj = space.mesh.face_adjacency(p_order);
        let graph = Graph::from_adjacency(&adj);
        let part = recursive_bisect(&graph, nparts, 42);
        Self::from_partition(space, comm, part)
    }

    /// Build from an explicit element→rank assignment.
    pub fn from_partition(space: &'a Space2d, comm: &Comm, part: Vec<usize>) -> Self {
        let me = comm.rank();
        let nparts = comm.size();
        assert_eq!(part.len(), space.mesh.num_elems());
        let my_elems: Vec<usize> = (0..part.len()).filter(|&e| part[e] == me).collect();
        // Which ranks touch each DoF?
        let mut touch_sets: Vec<Vec<usize>> = vec![Vec::new(); space.nglobal];
        for (e, &r) in part.iter().enumerate() {
            for &g in &space.gmap[e] {
                if !touch_sets[g].contains(&r) {
                    touch_sets[g].push(r);
                }
            }
        }
        let mut touched = vec![false; space.nglobal];
        let mut owned = vec![false; space.nglobal];
        let mut peer_dofs: Vec<Vec<usize>> = vec![Vec::new(); nparts];
        for (g, set) in touch_sets.iter().enumerate() {
            if set.contains(&me) {
                touched[g] = true;
                let min = *set.iter().min().unwrap();
                owned[g] = min == me;
                if set.len() > 1 {
                    for &r in set {
                        if r != me {
                            peer_dofs[r].push(g);
                        }
                    }
                }
            }
        }
        let plan: Vec<(usize, Vec<usize>)> = peer_dofs
            .into_iter()
            .enumerate()
            .filter(|(_, d)| !d.is_empty())
            .collect();
        Self {
            space,
            my_elems,
            touched,
            owned,
            plan,
            part,
        }
    }

    /// Complete partial sums at shared DoFs: exchange and add neighbor
    /// contributions (in-place on `v`). Sends are buffered so the exchange
    /// cannot deadlock regardless of peer ordering.
    pub fn assemble(&self, comm: &Comm, v: &mut [f64]) {
        const TAG: u32 = 0x5A;
        for (peer, dofs) in &self.plan {
            let payload: Vec<f64> = dofs.iter().map(|&g| v[g]).collect();
            comm.send(&payload, *peer, TAG);
        }
        for (peer, dofs) in &self.plan {
            let incoming: Vec<f64> = comm.recv(*peer, TAG);
            assert_eq!(incoming.len(), dofs.len());
            for (&g, x) in dofs.iter().zip(incoming) {
                v[g] += x;
            }
        }
    }

    /// Distributed matrix-free Helmholtz apply restricted to my elements,
    /// followed by shared-DoF assembly.
    pub fn apply_helmholtz(
        &self,
        comm: &Comm,
        lambda: f64,
        u: &[f64],
        out: &mut [f64],
        ws: &mut ApplyScratch,
    ) {
        let mine = self.my_elems.iter().copied();
        self.space.apply_helmholtz_elems(mine, lambda, u, out, ws);
        self.assemble(comm, out);
    }

    /// Distributed inner product over owned DoFs.
    pub fn dot(&self, comm: &Comm, a: &[f64], b: &[f64]) -> f64 {
        let mut local = 0.0;
        for g in 0..self.space.nglobal {
            if self.owned[g] {
                local += a[g] * b[g];
            }
        }
        comm.allreduce_scalar_sum(local)
    }

    /// `(r·r, r·z)` over owned DoFs in one two-element reduction; each
    /// component has the bits [`DistSpace2d::dot`] would return for it.
    fn dot_rr_rz(&self, comm: &Comm, r: &[f64], z: &[f64]) -> (f64, f64) {
        let mut local = [0.0f64; 2];
        for g in 0..self.space.nglobal {
            if self.owned[g] {
                local[0] += r[g] * r[g];
                local[1] += r[g] * z[g];
            }
        }
        let sums = comm.allreduce_sum(&local);
        (sums[0], sums[1])
    }

    /// Distributed Jacobi-preconditioned CG for the Helmholtz problem with
    /// homogeneous Dirichlet data on `dirichlet` DoFs. `rhs` must be the
    /// *assembled* weak right-hand side (identical on all ranks or at least
    /// correct at touched DoFs). Returns `(solution, iterations)`; the
    /// solution is valid at this rank's touched DoFs.
    pub fn solve_dirichlet(
        &self,
        comm: &Comm,
        lambda: f64,
        rhs: &[f64],
        dirichlet: &[usize],
        tol: f64,
        max_iter: usize,
    ) -> (Vec<f64>, usize) {
        let ng = self.space.nglobal;
        let mut is_bc = vec![false; ng];
        for &d in dirichlet {
            is_bc[d] = true;
        }
        // Assembled diagonal, restricted to my elements then assembled.
        let mut diag = vec![0.0f64; ng];
        self.space
            .add_helmholtz_diagonal(&self.my_elems, lambda, &mut diag);
        self.assemble(comm, &mut diag);
        let mask = |v: &mut [f64]| {
            for g in 0..ng {
                if is_bc[g] || !self.touched[g] {
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
            mask(z);
        };
        let mut x = vec![0.0f64; ng];
        let mut r = rhs.to_vec();
        mask(&mut r);
        let mut z = vec![0.0f64; ng];
        jacobi(&r, &mut z);
        let mut p = z.clone();
        let mut rz = self.dot(comm, &r, &z);
        let bnorm = self.dot(comm, &r, &r).sqrt().max(1e-300);
        let mut ap = vec![0.0f64; ng];
        let mut ws = ApplyScratch::new();
        let mut iters = 0;
        for it in 1..=max_iter {
            iters = it;
            self.apply_helmholtz(comm, lambda, &p, &mut ap, &mut ws);
            mask(&mut ap);
            let pap = self.dot(comm, &p, &ap);
            if pap <= 0.0 {
                break;
            }
            let alpha = rz / pap;
            for g in 0..ng {
                x[g] += alpha * p[g];
                r[g] -= alpha * ap[g];
            }
            // z before the convergence test, so r·r and r·z travel as one
            // reduction: an iteration waits on three message latencies
            // (halo, p·Ap, this) and the converging one wastes one local
            // Jacobi sweep.
            jacobi(&r, &mut z);
            let (rr, rz_new) = self.dot_rr_rz(comm, &r, &z);
            if rr.sqrt() <= tol * bnorm {
                break;
            }
            let beta = rz_new / rz;
            rz = rz_new;
            for g in 0..ng {
                p[g] = z[g] + beta * p[g];
            }
        }
        (x, iters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nkg_mci::Universe;
    use nkg_mesh::quad::QuadMesh;

    fn poisson_problem(p_order: usize) -> (Space2d, Vec<f64>, Vec<usize>) {
        let pi = std::f64::consts::PI;
        let mesh = QuadMesh::rectangle(4, 3, 0.0, 2.0, 0.0, 1.0);
        let space = Space2d::new(mesh, p_order, false);
        let rhs =
            space.weak_rhs(move |x, y| pi * pi * 1.25 * (pi * x / 2.0).sin() * (pi * y).sin());
        let bnd = space.boundary_dofs(|_| true);
        (space, rhs, bnd)
    }

    #[test]
    fn partition_covers_all_elements() {
        Universe::new(3).run(|comm| {
            let (space, _, _) = poisson_problem(3);
            let ds = DistSpace2d::new(&space, &comm, 3);
            let mine = ds.my_elems.len() as f64;
            let total = comm.allreduce_scalar_sum(mine);
            assert_eq!(total as usize, space.mesh.num_elems());
            // Ownership covers each DoF exactly once.
            let owned = ds.owned.iter().filter(|&&o| o).count() as f64;
            let all = comm.allreduce_scalar_sum(owned);
            assert_eq!(all as usize, space.nglobal);
        });
    }

    #[test]
    fn distributed_apply_matches_serial() {
        Universe::new(4).run(|comm| {
            let (space, _, _) = poisson_problem(4);
            let ds = DistSpace2d::new(&space, &comm, 4);
            let u: Vec<f64> = (0..space.nglobal)
                .map(|i| ((i * 13 + 5) % 17) as f64 / 17.0)
                .collect();
            let mut dist = vec![0.0; space.nglobal];
            ds.apply_helmholtz(&comm, 1.3, &u, &mut dist, &mut ApplyScratch::new());
            let mut serial = vec![0.0; space.nglobal];
            space.apply_helmholtz(1.3, &u, &mut serial);
            for g in 0..space.nglobal {
                if ds.touched[g] {
                    assert!(
                        (dist[g] - serial[g]).abs() < 1e-10 * serial[g].abs().max(1.0),
                        "dof {g}: {} vs {}",
                        dist[g],
                        serial[g]
                    );
                }
            }
        });
    }

    #[test]
    fn distributed_solve_matches_serial_poisson() {
        let pi = std::f64::consts::PI;
        Universe::new(3).run(move |comm| {
            let (space, rhs, bnd) = poisson_problem(5);
            let ds = DistSpace2d::new(&space, &comm, 5);
            let (x, iters) = ds.solve_dirichlet(&comm, 0.0, &rhs, &bnd, 1e-12, 3000);
            assert!(iters < 3000);
            // Compare against the analytic solution at touched DoFs.
            for g in 0..space.nglobal {
                if ds.touched[g] && !bnd.contains(&g) {
                    let [cx, cy] = space.coords[g];
                    let exact = (pi * cx / 2.0).sin() * (pi * cy).sin();
                    assert!(
                        (x[g] - exact).abs() < 1e-5,
                        "dof {g} at ({cx},{cy}): {} vs {exact}",
                        x[g]
                    );
                }
            }
        });
    }

    #[test]
    fn single_rank_degenerates_to_serial() {
        Universe::new(1).run(|comm| {
            let (space, rhs, bnd) = poisson_problem(4);
            let ds = DistSpace2d::new(&space, &comm, 4);
            assert!(ds.plan.is_empty());
            // One rank owns every element: the distributed apply is the
            // serial operator, bit for bit.
            let u: Vec<f64> = (0..space.nglobal)
                .map(|i| ((i * 13 + 5) % 17) as f64 / 17.0)
                .collect();
            let mut dist = vec![0.0; space.nglobal];
            ds.apply_helmholtz(&comm, 1.3, &u, &mut dist, &mut ApplyScratch::new());
            let mut serial = vec![0.0; space.nglobal];
            space.apply_helmholtz(1.3, &u, &mut serial);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&dist), bits(&serial));
            let (x, _) = ds.solve_dirichlet(&comm, 0.0, &rhs, &bnd, 1e-12, 2000);
            let zeros = vec![0.0; bnd.len()];
            let (xs, _) = space.solve_helmholtz(0.0, &rhs, &bnd, &zeros, 1e-12, 2000);
            for g in 0..space.nglobal {
                assert!((x[g] - xs[g]).abs() < 1e-8);
            }
        });
    }
}
