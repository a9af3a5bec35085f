//! NεκTαr-3D ↔ DPD-LAMMPS coupling (paper §3.3).
//!
//! An atomistic sub-domain ΩA is embedded inside a continuum patch; its
//! interface surfaces are discretized into bins/triangles whose midpoint
//! coordinates are registered with the continuum side in preprocessing.
//! During time stepping, the continuum velocity is interpolated at those
//! coordinates, scaled by the unit mapping of Eq. (1), and imposed as the
//! local DPD boundary velocities (with flux-driven particle insertion and
//! deletion); the DPD domain integrates `substeps` fine steps per continuum
//! step and new boundary data arrives every exchange interval τ.
//!
//! Dimensional note: our continuum patch is a 2D SEM solve (x, y) while the
//! DPD box is 3D with a thin periodic z — the continuum trace is applied
//! uniformly in z. This preserves the paper's data path (interpolate →
//! scale → impose → insert/delete) exactly.

use crate::multipatch::Multipatch2d;
use crate::scaling::UnitScaling;
use nkg_artifact::{cached, Artifact, KeyHasher};
use nkg_ckpt::{CkptError, Dec, Enc, Snapshot};
use nkg_dpd::sim::DpdSim;
use nkg_sem::interp::InterpTable;
use nkg_sem::precon::EllipticSpace;
use std::sync::Arc;

/// The preprocessing product of §3.3 step 2 as one immutable artifact:
/// per midpoint of one y-row of interface bins (every z-slab repeats the
/// row — the continuum is 2D), the donor patch id (first containing patch)
/// and the donor-element Lagrange row. Cached under kind
/// `"midpoint-interp"` keyed by the continuum patch fingerprints and the
/// exact midpoint coordinate bits.
#[derive(Debug, Clone)]
struct MidpointInterp {
    /// Donor patch per midpoint.
    pids: Vec<usize>,
    /// Interpolation rows, one per midpoint, against the donor's space.
    table: InterpTable,
}

impl Artifact for MidpointInterp {
    fn approx_bytes(&self) -> usize {
        self.pids.len() * 8 + self.table.approx_bytes()
    }

    fn encode(&self) -> Option<Vec<u8>> {
        let mut e = Enc::new();
        let pids: Vec<u64> = self.pids.iter().map(|&p| p as u64).collect();
        e.put_slice(&pids);
        e.put_slice(&self.table.encode()?);
        Some(e.into_bytes())
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut d = Dec::new(bytes);
        let pids: Vec<usize> = d
            .take_vec::<u64>()
            .ok()?
            .into_iter()
            .map(|p| p as usize)
            .collect();
        let table = InterpTable::decode(&d.take_vec::<u8>().ok()?)?;
        d.finish().ok()?;
        if table.len() != pids.len() {
            return None;
        }
        Some(Self { pids, table })
    }
}

/// The embedding of a DPD box into continuum coordinates.
#[derive(Debug, Clone, Copy)]
pub struct Embedding {
    /// Lower corner of ΩA in continuum (NS) coordinates.
    pub origin_ns: [f64; 2],
    /// The unit scaling between descriptions.
    pub scaling: UnitScaling,
}

impl Embedding {
    /// Continuum coordinates of a DPD-local position (x, y only).
    pub fn dpd_to_ns(&self, p: [f64; 3]) -> [f64; 2] {
        [
            self.origin_ns[0] + p[0] / self.scaling.length_factor(),
            self.origin_ns[1] + p[1] / self.scaling.length_factor(),
        ]
    }
}

/// A coupled atomistic domain: the DPD simulation plus its interface
/// registration against the continuum.
pub struct AtomisticDomain {
    /// The DPD engine (must have an open boundary installed).
    pub sim: DpdSim,
    /// The embedding into continuum coordinates.
    pub embedding: Embedding,
    /// Interface bin midpoints in continuum coordinates (preprocessing
    /// step 2 of §3.3), one per inflow bin.
    pub bin_midpoints_ns: Vec<[f64; 2]>,
    /// History of interface continuity errors (one entry per exchange):
    /// RMS over bins of |u_NS − u_DPD→NS| at the interface.
    pub continuity_history: Vec<f64>,
    /// Lazily built interpolation table over one y-row of the static bin
    /// midpoints: per midpoint, the donor patch (first containing patch,
    /// matching [`Multipatch2d::eval_velocity`]'s scan order) and the
    /// donor-element Lagrange row. Derived from static configuration —
    /// never checkpointed, rebuilt (or cache-fetched) on first exchange
    /// after construction.
    interp: Option<Arc<MidpointInterp>>,
    /// Exchange buffers, reused from call to call (never checkpointed):
    /// the scaled targets of one y-row, and the inlet-buffer velocity sum
    /// and particle count per bin.
    row_targets: Vec<[f64; 3]>,
    inlet_sums: Vec<[f64; 3]>,
    inlet_counts: Vec<usize>,
}

impl AtomisticDomain {
    /// Register an atomistic domain. The DPD sim must already carry an
    /// `OpenBoundaryX`; its inflow-face bins are mapped to continuum
    /// coordinates here.
    pub fn new(sim: DpdSim, embedding: Embedding) -> Self {
        let ob = sim
            .open_x
            .as_ref()
            .expect("atomistic domain needs an open x boundary");
        let (ny, nz) = ob.bins;
        let ly = (sim.bx.hi[1] - sim.bx.lo[1]) / ny as f64;
        // The continuum patch is 2D (x, y): the embedding has no z
        // component, so every z-slab of the inflow face maps to the same
        // (x, y) trace. Compute one y-row of midpoints and repeat it per
        // slab explicitly — bin order matches `OpenBoundaryX` (y fastest,
        // z outer), so `targets[iz*ny + iy]` pairs with the right bin.
        let row: Vec<[f64; 2]> = (0..ny)
            .map(|iy| {
                let y = sim.bx.lo[1] + (iy as f64 + 0.5) * ly;
                embedding.dpd_to_ns([sim.bx.lo[0], y, 0.0])
            })
            .collect();
        let mids: Vec<[f64; 2]> = (0..nz).flat_map(|_| row.iter().copied()).collect();
        Self {
            sim,
            embedding,
            bin_midpoints_ns: mids,
            continuity_history: Vec::new(),
            interp: None,
            row_targets: Vec::new(),
            inlet_sums: Vec::new(),
            inlet_counts: Vec::new(),
        }
    }

    /// One y-row of bin midpoints: the distinct interpolation points.
    fn midpoint_row(&self) -> &[[f64; 2]] {
        let (ny, _) = self.sim.open_x.as_ref().expect("open x boundary").bins;
        &self.bin_midpoints_ns[..ny]
    }

    /// Build (or rebuild) the midpoint interpolation table against
    /// `continuum`: per midpoint of the row, the first patch whose mesh
    /// contains it — identical tie-break to
    /// [`Multipatch2d::eval_velocity`] — plus the donor element and
    /// Lagrange weights.
    fn build_interp(&mut self, continuum: &Multipatch2d) {
        let nloc = continuum.patches[0].space.nloc();
        let row = self.midpoint_row();
        let key = {
            let mut h = KeyHasher::new("midpoint-interp");
            h.usize(nloc);
            for s in &continuum.patches {
                h.key(s.space.fingerprint().expect("Space2d fp"));
            }
            for &[x, y] in row {
                h.f64(x);
                h.f64(y);
            }
            h.finish()
        };
        self.interp = Some(cached("midpoint-interp", key, || {
            let mut pids = Vec::with_capacity(row.len());
            let mut table = InterpTable::with_capacity(nloc, row.len());
            for &[x, y] in row {
                let pid = continuum
                    .patches
                    .iter()
                    .position(|s| s.space.locate(x, y).is_some())
                    .expect("interface midpoint outside continuum domain");
                table.push(&continuum.patches[pid].space, x, y);
                pids.push(pid);
            }
            MidpointInterp { pids, table }
        }));
    }

    /// The exchange: interpolate the continuum velocity at each interface
    /// bin midpoint, scale with Eq. (1), impose as the DPD inflow targets.
    /// Records the continuity metric against the current DPD state.
    ///
    /// Only one y-row is interpolated; the z-slabs are copies of it, bit
    /// for bit what interpolating every bin midpoint gives.
    pub fn exchange_from_continuum(&mut self, continuum: &Multipatch2d) {
        let vf = self.embedding.scaling.velocity_factor();
        if self.interp.is_none() {
            self.build_interp(continuum);
        }
        let mi = self.interp.as_ref().expect("table just built");
        self.row_targets.clear();
        for (q, &pid) in mi.pids.iter().enumerate() {
            let donor = &continuum.patches[pid];
            let u = mi.table.eval(&donor.space, &donor.u, q).expect("table row");
            let v = mi.table.eval(&donor.space, &donor.v, q).expect("table row");
            self.row_targets.push([u * vf, v * vf, 0.0]);
        }
        // Continuity metric before imposing: compare DPD near-inlet bin
        // means (scaled back to NS units) with the fresh continuum values.
        inlet_sums(&self.sim, &mut self.inlet_sums, &mut self.inlet_counts);
        let ny = self.row_targets.len();
        let mut err = 0.0;
        let mut cnt = 0;
        for (b, (sum, &c)) in self.inlet_sums.iter().zip(&self.inlet_counts).enumerate() {
            if c > 0 {
                let mean_u = sum[0] / c as f64;
                let du = self.row_targets[b % ny][0] / vf - mean_u / vf;
                err += du * du;
                cnt += 1;
            }
        }
        if cnt > 0 {
            self.continuity_history.push((err / cnt as f64).sqrt());
        }
        let ob = self.sim.open_x.as_mut().expect("open x boundary");
        assert_eq!(ob.target.len(), self.bin_midpoints_ns.len());
        for slab in ob.target.chunks_exact_mut(ny) {
            slab.copy_from_slice(&self.row_targets);
        }
    }

    /// Mean DPD velocity per inflow bin over the inlet buffer slab
    /// (`None` for empty bins).
    pub fn inlet_bin_velocities(&self) -> Vec<Option<[f64; 3]>> {
        let (mut sums, mut counts) = (Vec::new(), Vec::new());
        inlet_sums(&self.sim, &mut sums, &mut counts);
        sums.iter()
            .zip(&counts)
            .map(|(s, &c)| (c > 0).then(|| s.map(|x| x / c as f64)))
            .collect()
    }

    /// Latest interface continuity error (NS units), if any exchange has
    /// happened.
    pub fn latest_continuity_error(&self) -> Option<f64> {
        self.continuity_history.last().copied()
    }
}

/// Velocity sum and particle count per inflow bin over the inlet buffer
/// slab of `sim`, into buffers the caller owns.
fn inlet_sums(sim: &DpdSim, sums: &mut Vec<[f64; 3]>, counts: &mut Vec<usize>) {
    let ob = sim.open_x.as_ref().expect("open x boundary");
    let nbins = ob.target.len();
    sums.clear();
    sums.resize(nbins, [0.0; 3]);
    counts.clear();
    counts.resize(nbins, 0);
    let buf = 2.0 * sim.cfg.rc;
    for i in 0..sim.particles.len() {
        let p = sim.particles.pos(i);
        if p[0] < sim.bx.lo[0] + buf {
            let b = ob.bin_of(&sim.bx, p[1], p[2]);
            counts[b] += 1;
            let v = sim.particles.vel(i);
            for k in 0..3 {
                sums[b][k] += v[k];
            }
        }
    }
}

impl Snapshot for AtomisticDomain {
    const TAG: u32 = nkg_ckpt::tag4(b"ATOM");

    fn snapshot(&self, enc: &mut Enc) {
        // Embedding is configuration; the bin midpoints derive from it and
        // the DPD geometry, so only the embedding itself is recorded.
        enc.put(self.embedding.origin_ns[0]);
        enc.put(self.embedding.origin_ns[1]);
        enc.put(self.embedding.scaling.unit_ns);
        enc.put(self.embedding.scaling.unit_dpd);
        enc.put(self.embedding.scaling.nu_ns);
        enc.put(self.embedding.scaling.nu_dpd);
        self.sim.snapshot(enc);
        enc.put_slice(&self.continuity_history);
    }

    fn restore(&mut self, dec: &mut Dec<'_>) -> Result<(), CkptError> {
        let origin = dec.take::<f64>()?;
        let origin = [origin, dec.take::<f64>()?];
        let scaling = [
            dec.take::<f64>()?,
            dec.take::<f64>()?,
            dec.take::<f64>()?,
            dec.take::<f64>()?,
        ];
        let mine = [
            self.embedding.scaling.unit_ns,
            self.embedding.scaling.unit_dpd,
            self.embedding.scaling.nu_ns,
            self.embedding.scaling.nu_dpd,
        ];
        let same = origin
            .iter()
            .zip(&self.embedding.origin_ns)
            .chain(scaling.iter().zip(&mine))
            .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            return Err(CkptError::Mismatch(format!(
                "embedding {origin:?}/{scaling:?} in snapshot, {:?}/{mine:?} reconstructed",
                self.embedding.origin_ns
            )));
        }
        self.sim.restore(dec)?;
        self.continuity_history = dec.take_vec::<f64>()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    // Continuum: nu chosen so Eq. (1) scales the NS signal (u ~ 0.1) to a
    // DPD velocity ~ 1, well above the per-bin thermal noise; a DPD box of
    // size 8 at `unit_dpd` 0.05 spans 0.4 NS units.
    fn scenario() -> Scenario {
        Scenario {
            seed: 21,
            origin: [2.0, 0.3],
            ..Scenario::poiseuille()
        }
    }

    fn make_domain() -> AtomisticDomain {
        scenario().build().atomistic
    }

    /// Steady multipatch Poiseuille donor, initialized on the exact
    /// parabola so it is steady from step one.
    fn steady_continuum(steps: usize) -> crate::multipatch::Multipatch2d {
        let mut mp = scenario().build().continuum;
        for _ in 0..steps {
            mp.step();
        }
        mp
    }

    #[test]
    fn embedding_maps_corners() {
        let d = make_domain();
        let ns = d.embedding.dpd_to_ns([0.0, 0.0, 0.0]);
        assert_eq!(ns, [2.0, 0.3]);
        let ns = d.embedding.dpd_to_ns([8.0, 8.0, 0.0]);
        assert!((ns[0] - 2.4).abs() < 1e-12);
        assert!((ns[1] - 0.7).abs() < 1e-12);
    }

    #[test]
    fn midpoints_lie_on_inflow_face() {
        let d = make_domain();
        assert_eq!(d.bin_midpoints_ns.len(), 4);
        for m in &d.bin_midpoints_ns {
            assert!((m[0] - 2.0).abs() < 1e-12);
            assert!(m[1] > 0.3 && m[1] < 0.7);
        }
    }

    #[test]
    fn exchange_imposes_scaled_targets() {
        let mut d = make_domain();
        let mp = steady_continuum(20);
        d.exchange_from_continuum(&mp);
        let ob = d.sim.open_x.as_ref().unwrap();
        let vf = d.embedding.scaling.velocity_factor();
        // Targets equal the continuum profile at the midpoints, scaled.
        for (t, &[x, y]) in ob.target.iter().zip(&d.bin_midpoints_ns) {
            let (u, _) = mp.eval_velocity(x, y).unwrap();
            assert!(
                (t[0] - u * vf).abs() < 1e-10 * (u * vf).abs().max(1e-12),
                "target {} vs scaled continuum {}",
                t[0],
                u * vf
            );
            assert!(
                t[0] > 0.0,
                "Poiseuille interior velocity should be positive"
            );
        }
    }

    #[test]
    fn midpoints_repeat_per_z_slab() {
        let d = Scenario {
            bins: (4, 3),
            ..scenario()
        }
        .build()
        .atomistic;
        // (ny, nz) = (4, 3): 12 midpoints, each z-slab repeating the same
        // y-row because the continuum is 2D (bin order y fastest, z outer).
        assert_eq!(d.bin_midpoints_ns.len(), 12);
        for iz in 1..3 {
            for iy in 0..4 {
                assert_eq!(d.bin_midpoints_ns[iz * 4 + iy], d.bin_midpoints_ns[iy]);
            }
        }
    }

    /// The table path against the definition it replaces: every bin's
    /// target equals `Multipatch2d::eval_velocity` at that bin's midpoint
    /// (patch scan, element scan, fresh Lagrange weights), scaled — bit
    /// for bit, on every exchange of a stepping run.
    #[test]
    fn table_exchange_matches_scan_bitwise() {
        let mut mp = steady_continuum(20);
        let mut d = make_domain();
        let vf = d.embedding.scaling.velocity_factor();
        for _ in 0..3 {
            d.exchange_from_continuum(&mp);
            let targets = &d.sim.open_x.as_ref().unwrap().target;
            assert_eq!(targets.len(), d.bin_midpoints_ns.len());
            for (t, &[x, y]) in targets.iter().zip(&d.bin_midpoints_ns) {
                let (u, v) = mp.eval_velocity(x, y).unwrap();
                for (a, b) in t.iter().zip([u * vf, v * vf, 0.0]) {
                    assert_eq!(a.to_bits(), b.to_bits(), "targets diverged");
                }
            }
            mp.step();
            for _ in 0..10 {
                d.sim.step();
            }
        }
        assert_eq!(d.continuity_history.len(), 3);
    }

    #[test]
    fn checkpoint_resume_is_bitwise() {
        let mut d = make_domain();
        let mp = steady_continuum(10);
        d.exchange_from_continuum(&mp);
        for _ in 0..20 {
            d.sim.step();
        }
        let bytes = nkg_ckpt::snapshot_bytes(&d);
        let mut resumed = make_domain();
        nkg_ckpt::restore_bytes(&mut resumed, &bytes).unwrap();
        d.exchange_from_continuum(&mp);
        resumed.exchange_from_continuum(&mp);
        for _ in 0..10 {
            d.sim.step();
            resumed.sim.step();
        }
        assert_eq!(d.continuity_history.len(), resumed.continuity_history.len());
        for (a, b) in d.continuity_history.iter().zip(&resumed.continuity_history) {
            assert_eq!(a.to_bits(), b.to_bits(), "continuity history diverged");
        }
        for (a, b) in d
            .sim
            .particles
            .pos_aos()
            .iter()
            .zip(&resumed.sim.particles.pos_aos())
        {
            for k in 0..3 {
                assert_eq!(a[k].to_bits(), b[k].to_bits(), "positions diverged");
            }
        }
    }

    #[test]
    fn restore_refuses_different_embedding() {
        let d = make_domain();
        let bytes = nkg_ckpt::snapshot_bytes(&d);
        let mut other = make_domain();
        other.embedding.origin_ns = [1.0, 0.3];
        assert!(matches!(
            nkg_ckpt::restore_bytes(&mut other, &bytes),
            Err(CkptError::Mismatch(_))
        ));
    }

    #[test]
    fn coupled_run_converges_at_interface() {
        let mut d = make_domain();
        let mp = steady_continuum(20);
        // Several exchange intervals of 50 DPD steps each.
        for _ in 0..8 {
            d.exchange_from_continuum(&mp);
            for _ in 0..50 {
                d.sim.step();
            }
        }
        d.exchange_from_continuum(&mp);
        let err = d.latest_continuity_error().unwrap();
        // Continuum scale: centerline velocity 0.1; the DPD side carries
        // thermal noise, so demand agreement within half the flow scale.
        assert!(
            err < 0.05,
            "interface continuity error {err} (history {:?})",
            d.continuity_history
        );
    }
}
