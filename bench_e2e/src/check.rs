//! Result checks and the operation ledger. Every check is a tolerance,
//! never a golden bit pattern: a later change to summation order must be
//! able to pass without editing the benchmark. The state hash is printed
//! for same-build comparisons only.

use nkg_coupling::NektarG;

/// Final residual 2-norm above which an elliptic solve counts as failed.
/// The solvers stop on a residual *relative* to the right-hand side
/// (1e-10), whose norm an outside caller cannot see, so the ceiling is
/// absolute: three times the largest residual a converged solve of these
/// scenarios ends with (2.9e-8, the p=8 pressure solve of `coupled_sem`).
/// A solve that ran out of iterations ends orders of magnitude above.
pub const RESIDUAL_CEILING: f64 = 1e-7;
/// Particle count must stay within this share of the open-boundary
/// target, plus [`COUNT_SLACK`] particles: the inflow inserts whole
/// particles, and 1% of the smallest insert is three of them.
pub const COUNT_TOL: f64 = 0.01;
pub const COUNT_SLACK: f64 = 4.0;
/// DPD kinetic temperature over `k_B T`: a stability band, not a
/// thermostat test. These boxes start from a random fill at `k_B T`, peak
/// near 2.2 some 20 steps in as the fill sheds its potential energy, and
/// settle at 0.73-0.95 (wall friction and the open boundary cool them)
/// only after some 400 steps, longer than a repetition can be. An
/// integrator or force kernel that has gone wrong leaves the band within
/// a few steps.
pub const TEMPERATURE_BAND: (f64, f64) = (0.5, 3.0);
/// Nodal error of the distributed Poisson solve against the analytic
/// solution, per unit of right-hand-side amplitude.
pub const POISSON_ERR_CEILING: f64 = 1e-8;
/// Share of a traced wall that may fall outside every layer span.
pub const UNATTRIBUTED_CEILING: f64 = 0.02;
/// Share of a traced wall that recording the spans themselves may cost.
pub const TRACE_OVERHEAD_CEILING: f64 = 0.03;

/// Operations attempted and failed, with the reason for each failure.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Ledger {
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, n: u64, why: String) {
        if n > 0 {
            self.failed += n;
            self.problems.push(why);
        }
    }

    /// A result check: failing it counts as one failed operation.
    pub fn require(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(1, why());
        }
    }
}

/// FNV-1a over 64-bit words.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64s<'a>(&mut self, xs: impl IntoIterator<Item = &'a f64>) {
        for x in xs {
            self.word(x.to_bits());
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Hash of everything a coupled run evolves: continuum fields, particle
/// positions and velocities, and the step and exchange counters.
pub fn coupled_state_hash(ng: &NektarG) -> u64 {
    let mut h = Fnv::new();
    for s in &ng.continuum.patches {
        h.f64s(s.u.iter().chain(&s.v).chain(&s.p));
    }
    let p = &ng.atomistic.sim.particles;
    h.word(p.len() as u64);
    for i in 0..p.len() {
        h.f64s(&p.pos(i));
        h.f64s(&p.vel(i));
    }
    h.word(ng.report.ns_steps as u64);
    h.word(ng.report.dpd_steps as u64);
    h.word(ng.report.exchanges as u64);
    h.finish()
}

/// The thermal noise the NS–DPD continuity metric carries in the state
/// `ng` is in, in NS velocity units, and the number of occupied inflow
/// bins it was taken over. The metric is the RMS over those bins of
/// (continuum velocity − mean DPD velocity of the bin's particles in the
/// inflow slab); the mean of `n` thermal velocities has variance `T_x/n`,
/// and the channel's flow (centreline 0.1) is far below that noise in
/// every scenario here, so noise is all a correct exchange leaves.
pub fn continuity_noise(ng: &NektarG) -> Option<(f64, usize)> {
    let sim = &ng.atomistic.sim;
    let ob = sim.open_x.as_ref()?;
    // The slab `AtomisticDomain::inlet_bin_velocities` averages over.
    let slab_end = sim.bx.lo[0] + 2.0 * sim.cfg.rc;
    let mut per_bin = vec![0u32; ob.target.len()];
    let (mut n, mut sum, mut sum_sq) = (0.0, 0.0, 0.0);
    for i in 0..sim.particles.len() {
        let p = sim.particles.pos(i);
        if p[0] < slab_end {
            per_bin[ob.bin_of(&sim.bx, p[1], p[2])] += 1;
            let vx = sim.particles.vel(i)[0];
            n += 1.0;
            sum += vx;
            sum_sq += vx * vx;
        }
    }
    let occupied = per_bin.iter().filter(|&&c| c > 0).count();
    if occupied == 0 {
        return None;
    }
    let t_x = sum_sq / n - (sum / n) * (sum / n);
    let mean_inverse_count = per_bin
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| 1.0 / f64::from(c))
        .sum::<f64>()
        / occupied as f64;
    let noise_dpd = (t_x * mean_inverse_count).sqrt();
    Some((
        noise_dpd / ng.atomistic.embedding.scaling.velocity_factor(),
        occupied,
    ))
}

/// Solver health and physical sanity of a finished coupled run.
/// `mismatch_ceiling` bounds the RMS patch-to-patch velocity mismatch at
/// the last exchange, in NS velocity units. Returns the checked values in
/// one line for the reader.
pub fn coupled(ng: &NektarG, mismatch_ceiling: f64, ledger: &mut Ledger) -> String {
    let s = ng.report.solve_summary();
    ledger.fail(
        s.breakdowns as u64,
        format!("{} continuum step(s) reported a CG breakdown", s.breakdowns),
    );
    let over = ng
        .report
        .elliptic_residual_per_step
        .iter()
        .filter(|&&r| r.is_nan() || r > RESIDUAL_CEILING)
        .count();
    ledger.fail(
        over as u64,
        format!(
            "{over} step(s) ended with a residual above {RESIDUAL_CEILING:e} (worst {:.3e})",
            s.worst_residual
        ),
    );
    let mismatch = ng.report.patch_mismatch.last().copied().unwrap_or(f64::NAN);
    ledger.require(mismatch <= mismatch_ceiling, || {
        format!("interface mismatch {mismatch:.3e} above {mismatch_ceiling:.3e}")
    });
    // The last exchange's continuity error against the thermal noise of
    // the final state: their ratio is 1 within the sampling error of an
    // RMS over the occupied bins (1/sqrt(2 bins), four of which are
    // allowed) plus 0.2 for the temperature drift between the last
    // exchange and the end of the run.
    let continuity = ng.report.continuity.last().copied().unwrap_or(f64::NAN);
    let (noise, bins) = continuity_noise(ng).unwrap_or((f64::NAN, 0));
    let ratio = continuity / noise;
    let tol = 0.2 + 4.0 / (2.0 * bins as f64).sqrt();
    ledger.require((ratio - 1.0).abs() <= tol, || {
        format!(
            "NS-DPD continuity error {continuity:.3e} is {ratio:.3} of the thermal noise \
             {noise:.3e} of {bins} inflow bins; allowed 1 +- {tol:.3}"
        )
    });
    let sim = &ng.atomistic.sim;
    let t = sim.particles.temperature() / sim.cfg.kbt;
    let (lo, hi) = TEMPERATURE_BAND;
    ledger.require(lo <= t && t <= hi, || {
        format!("DPD temperature {t:.4} kBT outside [{lo}, {hi}]")
    });
    let n = sim.particles.len();
    let target = sim.open_x.as_ref().and_then(|ob| ob.target_count);
    if let Some(target) = target {
        let allowed = COUNT_TOL * target as f64 + COUNT_SLACK;
        ledger.require((n as f64 - target as f64).abs() <= allowed, || {
            format!("{n} particles not within {allowed:.0} of the open-boundary target {target}")
        });
    }
    format!(
        "checked: worst residual {:.2e} (<= {RESIDUAL_CEILING:e}), interface mismatch \
         {mismatch:.2e} (<= {mismatch_ceiling:e}), continuity error {ratio:.3} of the thermal \
         noise of {bins} bins (1 +- {tol:.2}), {t:.3} kBT (in [{lo}, {hi}]), {n} particles \
         (target {})",
        s.worst_residual,
        target.unwrap_or(0)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_counts_failures_with_reasons() {
        let mut l = Ledger::default();
        l.ops(10);
        l.fail(0, "nothing".into());
        l.require(true, || unreachable!());
        l.require(false, || "check".into());
        l.fail(2, "two".into());
        assert_eq!((l.attempted, l.failed), (10, 3));
        assert_eq!(l.problems, vec!["check".to_string(), "two".to_string()]);
    }

    #[test]
    fn fnv_sees_order_and_sign() {
        let hash = |xs: &[f64]| {
            let mut h = Fnv::new();
            h.f64s(xs);
            h.finish()
        };
        assert_ne!(hash(&[1.0, 2.0]), hash(&[2.0, 1.0]));
        assert_ne!(hash(&[0.0]), hash(&[-0.0]));
        assert_eq!(hash(&[]), 0xcbf2_9ce4_8422_2325);
    }
}
