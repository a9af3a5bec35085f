//! NεκTαr-3D ↔ NεκTαr-3D coupling: overlapping-patch decomposition of a
//! large continuum domain (paper §3.2), here in 2D.
//!
//! "A large monolithic domain is subdivided into a series of loosely
//! coupled subdomains (patches) of a size for which good scalability of the
//! parallel solver can be achieved. Once at every time step the data
//! required by the interface conditions is transferred between the adjacent
//! domains, and then the solution is computed in parallel in each patch."
//!
//! Each artificial interface edge of a patch lies strictly *inside* the
//! neighboring patch (one-element overlap). Following the multipatch
//! formulation of Grinberg & Karniadakis, the condition imposed depends on
//! the flow side of the cut:
//!
//! * a patch's **upstream** artificial boundary (its "inlet" cut) receives
//!   Dirichlet *velocity* interpolated from the donor's interior;
//! * its **downstream** artificial boundary (the "outlet" cut) receives
//!   Dirichlet *pressure* from the donor (velocity left natural).
//!
//! This velocity-in / pressure-out pairing is what makes the Schwarz-like
//! iteration (carried by the time stepping) contract; imposing velocity on
//! both sides over-constrains the patch and drifts. The continuity of the
//! resulting fields across interfaces is the paper's Fig. 9 check.

use nkg_artifact::{cached, KeyHasher};
use nkg_ckpt::{CkptError, Dec, Enc, Snapshot};
use nkg_mesh::quad::{BoundaryTag, QuadMesh};
use nkg_sem::interp::InterpTable;
use nkg_sem::ns2d::{NsConfig, NsSolver2d, StepSolveStats};
use nkg_sem::precon::EllipticSpace;
use nkg_sem::space2d::Space2d;
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// A multipatch 2D Navier–Stokes solver over overlapping patches.
pub struct Multipatch2d {
    /// One solver per patch.
    pub patches: Vec<NsSolver2d>,
    /// Per patch: upstream-interface DoFs receiving donor velocity.
    vel_links: Vec<Vec<(usize, usize)>>,
    /// Per patch: downstream-interface DoFs receiving donor pressure.
    p_links: Vec<Vec<(usize, usize)>>,
    /// Per patch: precomputed interpolation rows for `vel_links` (row `q`
    /// pairs with `vel_links[pi][q]`, built against the donor's space).
    /// `Arc`-shared so an ambient [`nkg_artifact`] cache can hand the same
    /// table to every job of an ensemble.
    vel_interp: Vec<Arc<InterpTable>>,
    /// Per patch: precomputed interpolation rows for `p_links`.
    p_interp: Vec<Arc<InterpTable>>,
    /// Per patch: for each link, its DoF's slot in the patch solver's
    /// override vectors (`velocity_bc_dofs()` / `pressure_bc_dofs()`),
    /// resolved once so an exchange writes values in place.
    vel_slots: Vec<Vec<usize>>,
    p_slots: Vec<Vec<usize>>,
    /// Per patch: the donor values of the exchange in progress —
    /// evaluated for every patch before any solver is touched.
    incoming: Vec<LinkValues>,
    /// Fan donor evaluation and patch stepping out over per-patch tasks.
    /// Overrides are computed from pre-exchange state and each patch's
    /// step touches only its own fields, so the fan-out is bitwise
    /// identical to the serial order for any thread count.
    pub parallel: bool,
    /// Externally imposed pressure overrides (e.g. from a 1D outflow
    /// network), merged into every exchange so they survive time stepping.
    pub extra_p_overrides: Vec<HashMap<usize, f64>>,
}

/// Donor values for one patch, one per entry of its `vel_links` / `p_links`.
struct LinkValues {
    vel: Vec<(f64, f64)>,
    p: Vec<f64>,
}

/// Evaluate the donor field for link entry `q` of a link list: the
/// precomputed table row against the donor's space, bitwise what
/// `Space2d::eval_at` gives at the receiving DoF's coordinates.
fn eval_link(
    patches: &[NsSolver2d],
    links: &[(usize, usize)],
    table: &InterpTable,
    q: usize,
    field: impl Fn(&NsSolver2d) -> &[f64],
) -> f64 {
    let donor = &patches[links[q].1];
    table
        .eval(&donor.space, field(donor), q)
        .expect("interface DoF outside donor patch")
}

impl Multipatch2d {
    /// Build from a structured channel mesh split into `np` overlapping
    /// patches along x. `make_solver` turns each patch space into a solver;
    /// it receives the patch index and MUST configure boundary tags as
    /// follows: velocity Dirichlet on `Interface(c)` with `c == patch-1`
    /// (upstream cut), pressure Dirichlet on `Interface(c)` with
    /// `c == patch` (downstream cut). [`poiseuille_multipatch`] shows the
    /// pattern.
    pub fn from_channel(
        mesh: &QuadMesh,
        nx: usize,
        np: usize,
        p_order: usize,
        make_solver: impl Fn(Space2d, usize) -> NsSolver2d,
    ) -> Self {
        let sub = mesh.split_overlapping_x(nx, np);
        let mut patches = Vec::with_capacity(np);
        for (pi, m) in sub.into_iter().enumerate() {
            let space = Space2d::new(m, p_order, false);
            patches.push(make_solver(space, pi));
        }
        // Wire the links. Cut `c` joins patches `c` (left) and `c+1`
        // (right): patch c+1's upstream boundary carries Interface(c), fed
        // by patch c; patch c's downstream boundary carries Interface(c),
        // fed by patch c+1.
        let mut vel_links = Vec::with_capacity(np);
        let mut p_links = Vec::with_capacity(np);
        for (pi, solver) in patches.iter().enumerate() {
            let upstream: Vec<(usize, usize)> = if pi > 0 {
                let cut = (pi - 1) as u32;
                solver
                    .space
                    .boundary_dofs(|t| t == BoundaryTag::Interface(cut))
                    .into_iter()
                    .map(|d| (d, pi - 1))
                    .collect()
            } else {
                Vec::new()
            };
            let downstream: Vec<(usize, usize)> = if pi + 1 < np {
                let cut = pi as u32;
                solver
                    .space
                    .boundary_dofs(|t| t == BoundaryTag::Interface(cut))
                    .into_iter()
                    .map(|d| (d, pi + 1))
                    .collect()
            } else {
                Vec::new()
            };
            vel_links.push(upstream);
            p_links.push(downstream);
        }
        // Interface interpolation tables: every link's query point is
        // static (the receiving DoF's coordinates), so the donor element
        // and Lagrange weights are resolved once here — or, under an
        // ambient artifact cache, fetched from a previous identical build.
        // The key covers everything a row depends on: each donor space's
        // content fingerprint and the exact query-point bits.
        let build_tables = |links: &[Vec<(usize, usize)>]| -> Vec<Arc<InterpTable>> {
            links
                .iter()
                .enumerate()
                .map(|(pi, ll)| {
                    let nloc = patches[pi].space.nloc();
                    let key = {
                        let mut h = KeyHasher::new("interp");
                        h.usize(nloc);
                        for &(dof, donor) in ll {
                            h.key(patches[donor].space.fingerprint().expect("Space2d fp"));
                            let [x, y] = patches[pi].space.coords[dof];
                            h.f64(x);
                            h.f64(y);
                        }
                        h.finish()
                    };
                    cached("interp", key, || {
                        let mut t = InterpTable::with_capacity(nloc, ll.len());
                        for &(dof, donor) in ll {
                            let [x, y] = patches[pi].space.coords[dof];
                            assert!(
                                t.push(&patches[donor].space, x, y),
                                "interface DoF outside donor patch"
                            );
                        }
                        t
                    })
                })
                .collect()
        };
        let vel_interp = build_tables(&vel_links);
        let p_interp = build_tables(&p_links);
        // `make_solver`'s contract puts every link DoF in the matching
        // Dirichlet set (sorted ascending by `boundary_dofs`).
        type BcDofs = fn(&NsSolver2d) -> &[usize];
        let slots = |links: &[Vec<(usize, usize)>], bc_dofs: BcDofs| -> Vec<Vec<usize>> {
            let slot = |solver, dof| {
                bc_dofs(solver)
                    .binary_search(dof)
                    .expect("interface cut carries no Dirichlet condition (see `from_channel`)")
            };
            (patches.iter().zip(links))
                .map(|(solver, ll)| ll.iter().map(|(dof, _)| slot(solver, dof)).collect())
                .collect()
        };
        let vel_slots = slots(&vel_links, NsSolver2d::velocity_bc_dofs);
        let p_slots = slots(&p_links, NsSolver2d::pressure_bc_dofs);
        let extra = vec![HashMap::new(); patches.len()];
        let incoming = (vel_links.iter().zip(&p_links))
            .map(|(vl, pl)| LinkValues {
                vel: vec![(0.0, 0.0); vl.len()],
                p: vec![0.0; pl.len()],
            })
            .collect();
        Self {
            incoming,
            patches,
            vel_links,
            p_links,
            vel_interp,
            p_interp,
            vel_slots,
            p_slots,
            parallel: false,
            extra_p_overrides: extra,
        }
    }

    /// Number of patches.
    pub fn num_patches(&self) -> usize {
        self.patches.len()
    }

    /// Perform the once-per-step interface exchange: upstream cuts receive
    /// donor velocity, downstream cuts receive donor pressure. All donor
    /// evaluations read pre-exchange state, so patches fan out as
    /// independent tasks when [`Multipatch2d::parallel`] is set — the
    /// values are identical either way. Serially this allocates nothing:
    /// values land in per-link buffers, then in the solvers' override slots.
    pub fn exchange(&mut self) {
        let Self {
            patches,
            vel_links,
            p_links,
            vel_interp,
            p_interp,
            vel_slots,
            p_slots,
            incoming,
            parallel,
            extra_p_overrides,
        } = self;
        let donors = &*patches;
        let eval_patch = |(pi, vals): (usize, &mut LinkValues)| {
            let (links, table) = (&vel_links[pi], &vel_interp[pi]);
            for (q, val) in vals.vel.iter_mut().enumerate() {
                let u = eval_link(donors, links, table, q, |s| &s.u);
                let v = eval_link(donors, links, table, q, |s| &s.v);
                *val = (u, v);
            }
            for (q, val) in vals.p.iter_mut().enumerate() {
                *val = eval_link(donors, &p_links[pi], &p_interp[pi], q, |s| &s.p);
            }
        };
        if *parallel && donors.len() > 1 {
            incoming.par_iter_mut().enumerate().for_each(eval_patch);
        } else {
            incoming.iter_mut().enumerate().for_each(eval_patch);
        }
        for (pi, solver) in patches.iter_mut().enumerate() {
            let over = solver.velocity_overrides_mut();
            over.fill(None);
            for (&slot, &val) in vel_slots[pi].iter().zip(&incoming[pi].vel) {
                over[slot] = Some(val);
            }
            let over = solver.pressure_overrides_mut();
            over.fill(None);
            for (&slot, &val) in p_slots[pi].iter().zip(&incoming[pi].p) {
                over[slot] = Some(val);
            }
            // External overrides last, so they win on a shared DoF; one
            // that names no pressure Dirichlet DoF has nothing to override.
            for (dof, &val) in &extra_p_overrides[pi] {
                if let Ok(slot) = solver.pressure_bc_dofs().binary_search(dof) {
                    solver.pressure_overrides_mut()[slot] = Some(val);
                }
            }
        }
    }

    /// One coupled time step: exchange interface data, then advance every
    /// patch — serially, or as deterministic per-patch tasks when
    /// [`Multipatch2d::parallel`] is set (each patch's step touches only
    /// its own fields, so parallel order cannot change the result).
    pub fn step(&mut self) {
        self.exchange();
        if self.parallel && self.patches.len() > 1 {
            self.patches.par_iter_mut().for_each(|s| s.step());
        } else {
            for s in &mut self.patches {
                s.step();
            }
        }
    }

    /// Elliptic-solve telemetry of the most recent coupled step, aggregated
    /// over the patches: iterations sum, residuals and projection-basis
    /// sizes take the worst (largest) patch, breakdown flags OR together.
    pub fn last_step_stats(&self) -> StepSolveStats {
        let mut agg = StepSolveStats::default();
        for s in &self.patches {
            let st = s.last_step_stats();
            agg.pressure_iterations += st.pressure_iterations;
            agg.pressure_residual = agg.pressure_residual.max(st.pressure_residual);
            agg.pressure_proj_dim = agg.pressure_proj_dim.max(st.pressure_proj_dim);
            agg.viscous_iterations += st.viscous_iterations;
            agg.viscous_residual = agg.viscous_residual.max(st.viscous_residual);
            agg.viscous_proj_dim = agg.viscous_proj_dim.max(st.viscous_proj_dim);
            agg.breakdown |= st.breakdown;
        }
        agg
    }

    /// Fig. 9 metric: RMS over all interface DoFs of the velocity
    /// difference between the local solution and the donor's interior
    /// solution at the same physical point (u and v combined, both cut
    /// directions).
    pub fn interface_mismatch(&self) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for pi in 0..self.patches.len() {
            for (links, table) in [
                (&self.vel_links[pi], &self.vel_interp[pi]),
                (&self.p_links[pi], &self.p_interp[pi]),
            ] {
                for (q, &(dof, _)) in links.iter().enumerate() {
                    let du = eval_link(&self.patches, links, table, q, |s| &s.u);
                    let dv = eval_link(&self.patches, links, table, q, |s| &s.v);
                    sum += (self.patches[pi].u[dof] - du).powi(2)
                        + (self.patches[pi].v[dof] - dv).powi(2);
                    count += 2;
                }
            }
        }
        (sum / count.max(1) as f64).sqrt()
    }

    /// The static interface query set, in evaluation order: for every link
    /// entry of every patch, the donor patch id and the physical query
    /// point. This is exactly the point set the interpolation tables
    /// precompute; exposed for benchmarks and diagnostics.
    pub fn interface_queries(&self) -> Vec<(usize, [f64; 2])> {
        let mut out = Vec::new();
        for pi in 0..self.patches.len() {
            for links in [&self.vel_links[pi], &self.p_links[pi]] {
                for &(dof, donor) in links.iter() {
                    out.push((donor, self.patches[pi].space.coords[dof]));
                }
            }
        }
        out
    }

    /// Evaluate the multipatch velocity at a physical point (first
    /// containing patch wins).
    pub fn eval_velocity(&self, x: f64, y: f64) -> Option<(f64, f64)> {
        for s in &self.patches {
            if let (Some(u), Some(v)) = (s.space.eval_at(&s.u, x, y), s.space.eval_at(&s.v, x, y)) {
                return Some((u, v));
            }
        }
        None
    }
}

impl Snapshot for Multipatch2d {
    const TAG: u32 = nkg_ckpt::tag4(b"MPCH");

    fn snapshot(&self, enc: &mut Enc) {
        // The link layout is derived from the mesh split in `from_channel`;
        // record only its shape for verification. The evolving per-patch
        // state (fields, histories, overrides) nests as NSSV payloads.
        enc.put(self.patches.len() as u64);
        for (vl, pl) in self.vel_links.iter().zip(&self.p_links) {
            enc.put(vl.len() as u64);
            enc.put(pl.len() as u64);
        }
        for solver in &self.patches {
            solver.snapshot(enc);
        }
        for over in &self.extra_p_overrides {
            let mut entries: Vec<(usize, f64)> = over.iter().map(|(&k, &v)| (k, v)).collect();
            entries.sort_unstable_by_key(|&(k, _)| k);
            enc.put(entries.len() as u64);
            for (k, v) in entries {
                enc.put(k as u64);
                enc.put(v);
            }
        }
    }

    fn restore(&mut self, dec: &mut Dec<'_>) -> Result<(), CkptError> {
        let np = dec.take::<u64>()? as usize;
        if np != self.patches.len() {
            return Err(CkptError::Mismatch(format!(
                "{np} patches in snapshot, {} reconstructed",
                self.patches.len()
            )));
        }
        for (vl, pl) in self.vel_links.iter().zip(&self.p_links) {
            let nv = dec.take::<u64>()? as usize;
            let npr = dec.take::<u64>()? as usize;
            if nv != vl.len() || npr != pl.len() {
                return Err(CkptError::Mismatch(format!(
                    "interface link shape {nv}/{npr} in snapshot, {}/{} reconstructed",
                    vl.len(),
                    pl.len()
                )));
            }
        }
        for solver in &mut self.patches {
            solver.restore(dec)?;
        }
        for over in &mut self.extra_p_overrides {
            let n = dec.take::<u64>()? as usize;
            let mut map = HashMap::with_capacity(n);
            for _ in 0..n {
                let k = dec.take::<u64>()? as usize;
                let v = dec.take::<f64>()?;
                map.insert(k, v);
            }
            *over = map;
        }
        Ok(())
    }
}

/// Convenience: body-force-driven channel flow on `[0,L]×[0,H]` split into
/// `np` overlapping patches: walls no-slip, physical inlet Dirichlet with
/// the analytic Poiseuille profile, physical outlet pressure Dirichlet 0,
/// interface conditions as described at [`Multipatch2d`].
#[allow(clippy::too_many_arguments)]
pub fn poiseuille_multipatch(
    length: f64,
    height: f64,
    nx: usize,
    ny: usize,
    np: usize,
    p_order: usize,
    nu: f64,
    force: f64,
    dt: f64,
) -> Multipatch2d {
    let mesh = QuadMesh::rectangle(nx, ny, 0.0, length, 0.0, height);
    Multipatch2d::from_channel(&mesh, nx, np, p_order, move |space, pi| {
        let cfg = NsConfig {
            nu,
            dt,
            time_order: 2,
            tol: 1e-11,
            max_iter: 4000,
            ..NsConfig::default()
        };
        let upstream_cut = pi.checked_sub(1).map(|c| BoundaryTag::Interface(c as u32));
        let downstream_cut = BoundaryTag::Interface(pi as u32);
        NsSolver2d::new(
            space,
            cfg,
            move |t| t == BoundaryTag::Wall || t == BoundaryTag::Inlet || Some(t) == upstream_cut,
            move |_x, y, _t| (force * y * (height - y) / (2.0 * nu), 0.0),
            move |t| t == BoundaryTag::Outlet || t == downstream_cut,
            |_, _, _| 0.0,
            move |_, _, _| (force, 0.0),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn links_point_to_adjacent_patches() {
        let mp = poiseuille_multipatch(6.0, 1.0, 12, 2, 3, 3, 0.5, 0.2, 5e-3);
        assert_eq!(mp.num_patches(), 3);
        // Patch 0: no upstream, downstream donor 1.
        assert!(mp.vel_links[0].is_empty());
        assert!(mp.p_links[0].iter().all(|&(_, d)| d == 1));
        // Patch 1: upstream donor 0, downstream donor 2.
        assert!(mp.vel_links[1].iter().all(|&(_, d)| d == 0));
        assert!(mp.p_links[1].iter().all(|&(_, d)| d == 2));
        // Patch 2: upstream donor 1, no downstream.
        assert!(mp.vel_links[2].iter().all(|&(_, d)| d == 1));
        assert!(mp.p_links[2].is_empty());
        assert!(!mp.p_links[0].is_empty());
        assert!(!mp.vel_links[1].is_empty());
    }

    #[test]
    fn coupled_poiseuille_converges_and_interfaces_match() {
        // The decisive test: the patched solution must converge to the same
        // Poiseuille flow as a monolithic solve, with interface mismatch
        // far below the flow scale.
        let (nu, f, h) = (0.5, 0.4, 1.0);
        let mut mp = poiseuille_multipatch(6.0, h, 12, 2, 3, 4, nu, f, 5e-3);
        for _ in 0..400 {
            mp.step();
        }
        let u_scale = f * h * h / (8.0 * nu); // centerline velocity
        let mismatch = mp.interface_mismatch();
        assert!(
            mismatch < 0.02 * u_scale,
            "interface mismatch {mismatch} vs flow scale {u_scale}"
        );
        // Solution matches the parabola in every patch.
        for s in &mp.patches {
            let err = s.space.l2_error(&s.u, |_, y| f * y * (h - y) / (2.0 * nu));
            assert!(err < 1e-3, "patch error {err}");
        }
    }

    #[test]
    fn checkpoint_resume_is_bitwise() {
        let mut mp = poiseuille_multipatch(4.0, 1.0, 8, 2, 2, 3, 0.5, 0.4, 5e-3);
        mp.extra_p_overrides[1].insert(3, 0.125);
        for _ in 0..6 {
            mp.step();
        }
        let bytes = nkg_ckpt::snapshot_bytes(&mp);
        let mut resumed = poiseuille_multipatch(4.0, 1.0, 8, 2, 2, 3, 0.5, 0.4, 5e-3);
        nkg_ckpt::restore_bytes(&mut resumed, &bytes).unwrap();
        for _ in 0..5 {
            mp.step();
            resumed.step();
        }
        for (a, b) in mp.patches.iter().zip(&resumed.patches) {
            for (x, y) in a.u.iter().zip(&b.u) {
                assert_eq!(x.to_bits(), y.to_bits(), "u diverged after resume");
            }
            for (x, y) in a.p.iter().zip(&b.p) {
                assert_eq!(x.to_bits(), y.to_bits(), "p diverged after resume");
            }
        }
        assert_eq!(resumed.extra_p_overrides[1].get(&3), Some(&0.125));
    }

    #[test]
    fn restore_refuses_different_patch_count() {
        let mp = poiseuille_multipatch(4.0, 1.0, 8, 2, 2, 3, 0.5, 0.4, 5e-3);
        let bytes = nkg_ckpt::snapshot_bytes(&mp);
        let mut other = poiseuille_multipatch(6.0, 1.0, 12, 2, 3, 3, 0.5, 0.4, 5e-3);
        assert!(matches!(
            nkg_ckpt::restore_bytes(&mut other, &bytes),
            Err(CkptError::Mismatch(_))
        ));
    }

    /// Interface evaluation through the precomputed tables must reproduce
    /// the definition — `Space2d::eval_at` on the donor at the receiving
    /// DoF's coordinates (element scan, fresh Lagrange weights) — bitwise,
    /// on a moving solution.
    #[test]
    fn interp_tables_match_eval_at_bitwise() {
        let mut mp = poiseuille_multipatch(6.0, 1.0, 12, 2, 3, 4, 0.5, 0.4, 5e-3);
        for _ in 0..3 {
            for _ in 0..10 {
                mp.step();
            }
            let mut checked = 0;
            for pi in 0..mp.num_patches() {
                for (links, table) in [
                    (&mp.vel_links[pi], &mp.vel_interp[pi]),
                    (&mp.p_links[pi], &mp.p_interp[pi]),
                ] {
                    for (q, &(dof, donor)) in links.iter().enumerate() {
                        let [x, y] = mp.patches[pi].space.coords[dof];
                        let d = &mp.patches[donor];
                        for field in [&d.u, &d.v, &d.p] {
                            let scan = d.space.eval_at(field, x, y).unwrap();
                            let tabled = table.eval(&d.space, field, q).unwrap();
                            assert_eq!(tabled.to_bits(), scan.to_bits(), "table vs eval_at");
                            checked += 1;
                        }
                    }
                }
            }
            assert!(checked > 0);
        }
    }

    /// Parallel per-patch exchange + stepping must be bitwise identical to
    /// the serial order for any thread count.
    #[test]
    fn parallel_patches_match_serial_bitwise() {
        let mut serial = poiseuille_multipatch(6.0, 1.0, 12, 2, 3, 4, 0.5, 0.4, 5e-3);
        let mut parallel = poiseuille_multipatch(6.0, 1.0, 12, 2, 3, 4, 0.5, 0.4, 5e-3);
        parallel.parallel = true;
        for threads in [2usize, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            for _ in 0..10 {
                serial.step();
                pool.install(|| parallel.step());
            }
            for (a, b) in serial.patches.iter().zip(&parallel.patches) {
                for (x, y) in a.u.iter().zip(&b.u) {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "u diverged: parallel patches ({threads} threads) vs serial"
                    );
                }
                for (x, y) in a.v.iter().zip(&b.v) {
                    assert_eq!(x.to_bits(), y.to_bits(), "v diverged");
                }
                for (x, y) in a.p.iter().zip(&b.p) {
                    assert_eq!(x.to_bits(), y.to_bits(), "p diverged");
                }
            }
        }
    }

    #[test]
    fn eval_velocity_spans_patches() {
        let mut mp = poiseuille_multipatch(4.0, 1.0, 8, 2, 2, 3, 0.5, 0.4, 5e-3);
        for _ in 0..50 {
            mp.step();
        }
        for &x in &[0.3, 1.9, 2.1, 3.8] {
            let (u, _) = mp.eval_velocity(x, 0.5).expect("point inside domain");
            assert!(u.is_finite());
        }
        assert!(mp.eval_velocity(10.0, 0.5).is_none());
    }
}
