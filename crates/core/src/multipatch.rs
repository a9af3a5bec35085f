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
//!
//! Both couplings read the continuum through one interface trace: a
//! static point set resolved once against an ordered list of candidate
//! patches (`resolve_trace`) into an [`InterpTable`], then evaluated at
//! every exchange (`trace_velocity`). The links here resolve their DoFs
//! against the one adjacent patch; the DPD insert
//! ([`crate::atomistic::AtomisticDomain`]) resolves its bin midpoints
//! against every patch.

use nkg_artifact::{cached, KeyHasher};
use nkg_ckpt::{CkptError, Dec, Enc, Snapshot};
use nkg_mesh::quad::{BoundaryTag, QuadMesh};
use nkg_sem::interp::InterpTable;
use nkg_sem::ns2d::{NsConfig, NsSolver2d, StepSolveStats};
use nkg_sem::precon::EllipticSpace;
use nkg_sem::space2d::Space2d;
use rayon::prelude::*;
use std::sync::Arc;

/// Resolve the interface trace of `points` against `patches`: each point's
/// donor is the first of `candidates` (patch ids, in order) that contains
/// it, the tie-break [`Multipatch2d::eval_velocity`] uses when every patch
/// is a candidate. Cached under `"interp"`, keyed by the element size,
/// each candidate's id and space fingerprint in order and the exact point
/// bits, so a table resolved against other candidates is never handed
/// out. Panics if a point lies outside every candidate.
pub(crate) fn resolve_trace(
    patches: &[NsSolver2d],
    candidates: &[usize],
    points: &[[f64; 2]],
) -> Arc<InterpTable> {
    let nloc = patches[0].space.nloc();
    let mut h = KeyHasher::new("interp");
    h.usize(nloc);
    for &c in candidates {
        h.usize(c);
        h.key(patches[c].space.fingerprint().expect("Space2d fp"));
    }
    for &[x, y] in points {
        h.f64(x);
        h.f64(y);
    }
    cached("interp", h.finish(), || {
        let mut t = InterpTable::with_capacity(nloc, points.len());
        for &[x, y] in points {
            // The last candidate is located only once, by `push`.
            let (&last, rest) = candidates.split_last().expect("a point needs a candidate");
            let donor = (rest.iter().copied())
                .find(|&c| patches[c].space.locate(x, y).is_some())
                .unwrap_or(last);
            assert!(
                t.push(donor, &patches[donor].space, x, y),
                "interface point ({x}, {y}) outside every candidate patch"
            );
        }
        t
    })
}

/// The donor velocity at row `q` of a trace resolved against `patches`:
/// bitwise `Space2d::eval_at` on the donor at the row's point.
pub(crate) fn trace_velocity(patches: &[NsSolver2d], trace: &InterpTable, q: usize) -> (f64, f64) {
    let d = &patches[trace.donor(q)];
    let at = |f: &[f64]| trace.eval(&d.space, f, q).expect("resolved trace row");
    (at(&d.u), at(&d.v))
}

/// A multipatch 2D Navier–Stokes solver over overlapping patches.
pub struct Multipatch2d {
    /// One solver per patch.
    pub patches: Vec<NsSolver2d>,
    /// Per patch: its pair of links.
    links: Vec<PatchLinks>,
    /// Fan donor evaluation and patch stepping out over per-patch tasks.
    /// Overrides are computed from pre-exchange state and each patch's
    /// step touches only its own fields, so the fan-out is bitwise
    /// identical to the serial order for any thread count.
    pub parallel: bool,
}

/// A patch's upstream link, receiving donor velocity, and its downstream
/// link, receiving donor pressure.
type PatchLinks = (Link<(f64, f64)>, Link<f64>);

/// One artificial boundary of a patch: the DoFs it overrides, each DoF's
/// slot in the solver's override vector, the trace of their coordinates
/// resolved against the donor (`Arc`-shared, so an ambient
/// [`nkg_artifact`] cache hands one table to every job of an ensemble)
/// and the donor values of the exchange in progress.
struct Link<T> {
    dofs: Vec<usize>,
    slots: Vec<usize>,
    trace: Arc<InterpTable>,
    values: Vec<T>,
}

impl<T: Copy + Default> Link<T> {
    /// The link of patch `pi` on `Interface(cut)` fed by `donor`, or an
    /// empty one for `None`. `bc_dofs` is the solver's Dirichlet set the
    /// link writes into.
    fn new(
        patches: &[NsSolver2d],
        pi: usize,
        cut_donor: Option<(usize, usize)>,
        bc_dofs: fn(&NsSolver2d) -> &[usize],
    ) -> Self {
        let solver = &patches[pi];
        let (dofs, candidates) = match cut_donor {
            Some((cut, donor)) => {
                let on_cut = |t| t == BoundaryTag::Interface(cut as u32);
                (solver.space.boundary_dofs(on_cut), vec![donor])
            }
            None => (Vec::new(), Vec::new()),
        };
        let points: Vec<[f64; 2]> = dofs.iter().map(|&d| solver.space.coords[d]).collect();
        // `make_solver`'s contract puts every link DoF in the matching
        // Dirichlet set (sorted ascending by `boundary_dofs`).
        let slots = (dofs.iter())
            .map(|d| {
                bc_dofs(solver)
                    .binary_search(d)
                    .expect("interface cut carries no Dirichlet condition (see `from_channel`)")
            })
            .collect();
        Self {
            trace: resolve_trace(patches, &candidates, &points),
            values: vec![T::default(); dofs.len()],
            dofs,
            slots,
        }
    }

    /// Write the donor values into their override slots, clearing the rest.
    fn impose(&self, over: &mut [Option<T>]) {
        over.fill(None);
        for (&slot, &val) in self.slots.iter().zip(&self.values) {
            over[slot] = Some(val);
        }
    }
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
        let patches: Vec<NsSolver2d> = (sub.into_iter().enumerate())
            .map(|(pi, m)| make_solver(Space2d::new(m, p_order, false), pi))
            .collect();
        // Cut `c` joins patches `c` (left) and `c+1` (right): patch c+1's
        // upstream boundary carries Interface(c), fed by patch c; patch c's
        // downstream boundary carries Interface(c), fed by patch c+1. The
        // velocity links resolve first, then the pressure links.
        let vel: Vec<_> = (0..np)
            .map(|pi| {
                let cut_donor = pi.checked_sub(1).map(|c| (c, c));
                Link::new(&patches, pi, cut_donor, NsSolver2d::velocity_bc_dofs)
            })
            .collect();
        let p: Vec<_> = (0..np)
            .map(|pi| {
                let cut_donor = (pi + 1 < np).then_some((pi, pi + 1));
                Link::new(&patches, pi, cut_donor, NsSolver2d::pressure_bc_dofs)
            })
            .collect();
        Self {
            links: vel.into_iter().zip(p).collect(),
            patches,
            parallel: false,
        }
    }

    /// Number of patches.
    pub fn num_patches(&self) -> usize {
        self.patches.len()
    }

    /// Every link's receiving patch, DoFs and trace, in evaluation order:
    /// per patch, the upstream link, then the downstream one.
    fn traces(&self) -> impl Iterator<Item = (usize, &[usize], &InterpTable)> {
        (self.links.iter().enumerate()).flat_map(|(pi, (vel, p))| {
            [
                (pi, &vel.dofs[..], &*vel.trace),
                (pi, &p.dofs[..], &*p.trace),
            ]
        })
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
            links,
            parallel,
        } = self;
        let donors = &*patches;
        let evaluate = |(vel, p): &mut PatchLinks| {
            for (q, val) in vel.values.iter_mut().enumerate() {
                *val = trace_velocity(donors, &vel.trace, q);
            }
            for (q, val) in p.values.iter_mut().enumerate() {
                let d = &donors[p.trace.donor(q)];
                *val = p.trace.eval(&d.space, &d.p, q).expect("resolved trace row");
            }
        };
        if *parallel && donors.len() > 1 {
            links.par_iter_mut().for_each(evaluate);
        } else {
            links.iter_mut().for_each(evaluate);
        }
        for (solver, (vel, p)) in patches.iter_mut().zip(&*links) {
            vel.impose(solver.velocity_overrides_mut());
            p.impose(solver.pressure_overrides_mut());
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
        for (pi, dofs, trace) in self.traces() {
            let s = &self.patches[pi];
            for (q, &dof) in dofs.iter().enumerate() {
                let (du, dv) = trace_velocity(&self.patches, trace, q);
                sum += (s.u[dof] - du).powi(2) + (s.v[dof] - dv).powi(2);
                count += 2;
            }
        }
        (sum / count.max(1) as f64).sqrt()
    }

    /// The static interface query set, in evaluation order: for every link
    /// entry of every patch, the donor patch id and the physical query
    /// point. This is exactly the point set the traces precompute;
    /// exposed for benchmarks and diagnostics.
    pub fn interface_queries(&self) -> Vec<(usize, [f64; 2])> {
        (self.traces())
            .flat_map(|(pi, dofs, trace)| {
                let coords = &self.patches[pi].space.coords;
                (dofs.iter().enumerate()).map(move |(q, &dof)| (trace.donor(q), coords[dof]))
            })
            .collect()
    }

    /// Evaluate the multipatch velocity at a physical point (first
    /// containing patch wins) by scanning: the reference the traces are
    /// held to bit for bit.
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
        for (vel, p) in &self.links {
            enc.put(vel.dofs.len() as u64);
            enc.put(p.dofs.len() as u64);
        }
        for solver in &self.patches {
            solver.snapshot(enc);
        }
        // One word per patch, always 0: the count of a retired map of
        // external pressure overrides, kept so the format is unchanged.
        for _ in &self.patches {
            enc.put(0u64);
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
        for (vel, p) in &self.links {
            let nv = dec.take::<u64>()? as usize;
            let npr = dec.take::<u64>()? as usize;
            if nv != vel.dofs.len() || npr != p.dofs.len() {
                return Err(CkptError::Mismatch(format!(
                    "interface link shape {nv}/{npr} in snapshot, {}/{} reconstructed",
                    vel.dofs.len(),
                    p.dofs.len()
                )));
            }
        }
        for solver in &mut self.patches {
            solver.restore(dec)?;
        }
        for pi in 0..self.patches.len() {
            let n = dec.take::<u64>()?;
            if n != 0 {
                return Err(CkptError::Mismatch(format!(
                    "patch {pi} carries {n} external pressure overrides; none are supported"
                )));
            }
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
        let donors = |t: &InterpTable| (0..t.len()).map(|q| t.donor(q)).collect::<Vec<_>>();
        let vel = |pi: usize| &mp.links[pi].0;
        let p = |pi: usize| &mp.links[pi].1;
        // Patch 0: no upstream, downstream donor 1.
        assert!(vel(0).dofs.is_empty());
        assert!(donors(&p(0).trace).iter().all(|&d| d == 1));
        // Patch 1: upstream donor 0, downstream donor 2.
        assert!(donors(&vel(1).trace).iter().all(|&d| d == 0));
        assert!(donors(&p(1).trace).iter().all(|&d| d == 2));
        // Patch 2: upstream donor 1, no downstream.
        assert!(donors(&vel(2).trace).iter().all(|&d| d == 1));
        assert!(p(2).dofs.is_empty());
        assert!(!p(0).dofs.is_empty());
        assert!(!vel(1).dofs.is_empty());
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

    /// A snapshot ends in one override-count word per patch that only a
    /// zero may fill: a snapshot carrying overrides is refused, not
    /// resumed without them.
    #[test]
    fn restore_refuses_pressure_overrides() {
        let mp = poiseuille_multipatch(4.0, 1.0, 8, 2, 2, 3, 0.5, 0.4, 5e-3);
        let mut bytes = nkg_ckpt::snapshot_bytes(&mp);
        let mut resumed = poiseuille_multipatch(4.0, 1.0, 8, 2, 2, 3, 0.5, 0.4, 5e-3);
        nkg_ckpt::restore_bytes(&mut resumed, &bytes).unwrap();
        // The last word is patch 1's count.
        let last = bytes.len() - 8;
        assert_eq!(bytes[last..], 0u64.to_le_bytes());
        bytes[last..].copy_from_slice(&1u64.to_le_bytes());
        assert!(matches!(
            nkg_ckpt::restore_bytes(&mut resumed, &bytes),
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
            for (pi, dofs, table) in mp.traces() {
                for (q, &dof) in dofs.iter().enumerate() {
                    let [x, y] = mp.patches[pi].space.coords[dof];
                    let d = &mp.patches[table.donor(q)];
                    for field in [&d.u, &d.v, &d.p] {
                        let scan = d.space.eval_at(field, x, y).unwrap();
                        let tabled = table.eval(&d.space, field, q).unwrap();
                        assert_eq!(tabled.to_bits(), scan.to_bits(), "table vs eval_at");
                        checked += 1;
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

    /// One cache kind serves every trace, so its key must name the
    /// candidates: points in the overlap of two patches resolve to patch 1
    /// against `[1]` and to patch 0 against `[0, 1]`, and the second
    /// lookup must miss rather than hand out the first table.
    #[test]
    fn trace_key_names_its_candidates() {
        use nkg_artifact::{with_cache, ArtifactCache, CacheMode};
        let mp = poiseuille_multipatch(6.0, 1.0, 12, 2, 2, 3, 0.5, 0.4, 5e-3);
        let pts = [[3.0, 0.25], [3.2, 0.75]];
        let cache = Arc::new(ArtifactCache::new(CacheMode::Process));
        let (one, both) = with_cache(&cache, || {
            let one = resolve_trace(&mp.patches, &[1], &pts);
            (one, resolve_trace(&mp.patches, &[0, 1], &pts))
        });
        for q in 0..pts.len() {
            assert_eq!((one.donor(q), both.donor(q)), (1, 0), "point {q}");
        }
        let stats = cache.stats();
        let interp = stats.iter().find(|(kind, _)| *kind == "interp").unwrap().1;
        assert_eq!((interp.hits, interp.misses), (0, 2));
    }
}
