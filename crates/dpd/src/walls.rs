//! No-slip wall models: the effective boundary force of
//! Lei–Fedosov–Karniadakis (JCP 2011) plus bounce-back reflection.
//!
//! A wall replaces the DPD fluid beyond it; the missing conservative
//! repulsion is restored by a normal force `F_eff(h)` obtained *in
//! preprocessing* by integrating the Groot–Warren conservative force over
//! the excluded half-space at the equilibrium density (paper §3: "The Feff
//! can be calculated during pre-processing"). Near-wall dissipative drag
//! models the wall's thermostatting/no-slip friction, and particles that
//! penetrate the wall are bounced back (position reflected, velocity
//! reversed), which enforces no-slip at the surface.

/// Tabulated effective wall force, precomputed at construction.
#[derive(Debug, Clone)]
pub struct EffectiveWallForce {
    rc: f64,
    table: Vec<f64>,
}

impl EffectiveWallForce {
    /// Precompute `F_eff(h)` for conservative coefficient `a`, fluid number
    /// density `rho` and cutoff `rc`:
    /// `F(h) = a ρ ∫_{u=h}^{rc} ∫_{ρ'=0}^{√(rc²−u²)} (1 − r/rc)(u/r) 2πρ' dρ' du`.
    ///
    /// The rows are independent and cost the same, so they are split over
    /// the rayon pool; each row is the same arithmetic whatever the width.
    pub fn new(a: f64, rho: f64, rc: f64) -> Self {
        use rayon::prelude::*;
        let mut table = vec![0.0; TABLE_ROWS];
        let n = (TABLE_ROWS - 1) as f64;
        table.par_iter_mut().enumerate().for_each(|(k, f)| {
            *f = integrate(a, rho, rc, k as f64 / n * rc);
        });
        Self { rc, table }
    }

    /// Normal force magnitude at wall distance `h` (0 beyond the cutoff).
    pub fn force(&self, h: f64) -> f64 {
        if h <= 0.0 {
            return self.table[0];
        }
        if h >= self.rc {
            return 0.0;
        }
        // `t > 0` here, so the truncating cast is the floor.
        let t = h / self.rc * (self.table.len() - 1) as f64;
        let k = t as usize;
        let frac = t - k as f64;
        self.table[k] * (1.0 - frac) + self.table[(k + 1).min(self.table.len() - 1)] * frac
    }

    /// Cutoff radius.
    pub fn rc(&self) -> f64 {
        self.rc
    }
}

/// Entries of the `F_eff` table: `h = k/128 · rc` for `k = 0..=128`.
const TABLE_ROWS: usize = 129;
/// Midpoint-rule intervals in `u` (normal distance) and `ρ'` (radius).
const NU: usize = 200;
const NR: usize = 64;

/// One table entry by the midpoint rule in `(u, ρ')`.
///
/// Each `u`-row writes its `NR` terms into a buffer and sums it in index
/// order, so the term loop has no carried dependency and vectorizes, while
/// every product and sum rounds as in the plain double loop
/// (`tests::integrate_reference`): a term outside the cutoff is stored as
/// `+0.0`, and adding `+0.0` to a sum that starts at `+0.0` and only
/// gathers non-negative terms changes no bit.
fn integrate(a: f64, rho: f64, rc: f64, h: f64) -> f64 {
    let du = (rc - h) / NU as f64;
    if du <= 0.0 {
        return 0.0;
    }
    let mid: [f64; NR] = std::array::from_fn(|ir| ir as f64 + 0.5);
    let mut terms = [0.0; NR];
    let mut total = 0.0;
    for iu in 0..NU {
        let u = h + (iu as f64 + 0.5) * du;
        let uu = u * u;
        let rho_max = (rc * rc - uu).max(0.0).sqrt();
        let dr = rho_max / NR as f64;
        for (t, &m) in terms.iter_mut().zip(&mid) {
            let rp = m * dr;
            let r = (uu + rp * rp).sqrt();
            // Computed on both sides of the cutoff (`r ≥ u > 0`), so the
            // choice is a select, not a branch.
            let term = (1.0 - r / rc) * (u / r) * 2.0 * std::f64::consts::PI * rp * dr;
            *t = if r < rc { term } else { 0.0 };
        }
        let mut inner = 0.0;
        for &t in &terms {
            inner += t;
        }
        total += inner * du;
    }
    a * rho * total
}

/// Apply the wall interaction for a particle at distance `h` from the wall
/// (measured along the inward normal `normal`): effective normal force plus
/// near-wall tangential dissipation `−γ_w (1 − h/rc)² v_t`.
pub fn wall_force(
    eff: &EffectiveWallForce,
    gamma_wall: f64,
    h: f64,
    normal: [f64; 3],
    vel: [f64; 3],
    force: &mut [f64; 3],
) {
    if h >= eff.rc() {
        return;
    }
    let fn_mag = eff.force(h);
    let w = 1.0 - (h / eff.rc()).clamp(0.0, 1.0);
    let vn = vel[0] * normal[0] + vel[1] * normal[1] + vel[2] * normal[2];
    for k in 0..3 {
        let vt = vel[k] - vn * normal[k];
        force[k] += fn_mag * normal[k] - gamma_wall * w * w * vt;
    }
}

/// Bounce a particle back across a planar wall if it penetrated:
/// `side > 0` means the fluid occupies `coord > wall_pos`. Returns true if
/// a bounce occurred. Position is reflected, velocity fully reversed
/// (bounce-back ⇒ no-slip).
pub fn bounce_back_plane(
    pos: &mut [f64; 3],
    vel: &mut [f64; 3],
    axis: usize,
    wall_pos: f64,
    side: f64,
) -> bool {
    let pen = (pos[axis] - wall_pos) * side;
    if pen >= 0.0 {
        return false;
    }
    pos[axis] = wall_pos - (pos[axis] - wall_pos);
    for v in vel.iter_mut() {
        *v = -*v;
    }
    true
}

/// Bounce back across a cylinder of radius `r0` about the x-axis centered
/// at `(cy, cz)`; fluid inside. Returns true if a bounce occurred.
pub fn bounce_back_cylinder(
    pos: &mut [f64; 3],
    vel: &mut [f64; 3],
    r0: f64,
    cy: f64,
    cz: f64,
) -> bool {
    let dy = pos[1] - cy;
    let dz = pos[2] - cz;
    let r = (dy * dy + dz * dz).sqrt();
    if r <= r0 {
        return false;
    }
    // Reflect radially back inside.
    let rnew = (2.0 * r0 - r).max(0.0);
    let scale = if r > 1e-30 { rnew / r } else { 0.0 };
    pos[1] = cy + dy * scale;
    pos[2] = cz + dz * scale;
    for v in vel.iter_mut() {
        *v = -*v;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plain double loop [`integrate`] reproduces bit for bit.
    fn integrate_reference(a: f64, rho: f64, rc: f64, h: f64) -> f64 {
        let nu = 200;
        let mut total = 0.0;
        let du = (rc - h) / nu as f64;
        if du <= 0.0 {
            return 0.0;
        }
        for iu in 0..nu {
            let u = h + (iu as f64 + 0.5) * du;
            let rho_max = (rc * rc - u * u).max(0.0).sqrt();
            let nr = 64;
            let dr = rho_max / nr as f64;
            let mut inner = 0.0;
            for ir in 0..nr {
                let rp = (ir as f64 + 0.5) * dr;
                let r = (u * u + rp * rp).sqrt();
                if r < rc {
                    inner += (1.0 - r / rc) * (u / r) * 2.0 * std::f64::consts::PI * rp * dr;
                }
            }
            total += inner * du;
        }
        a * rho * total
    }

    /// The table is the reference double loop's, bit for bit, on pools of
    /// 1, 2 and 4 threads, at the default parameters and at an `rc` that
    /// is not 1 (so `r / rc` and `u / r` round as real divisions).
    #[test]
    fn table_is_bitwise_the_reference_at_every_pool_width() {
        for (a, rho, rc) in [(25.0, 3.0, 1.0), (18.75, 4.0, 1.3)] {
            let expect: Vec<u64> = (0..TABLE_ROWS)
                .map(|k| {
                    let h = k as f64 / (TABLE_ROWS - 1) as f64 * rc;
                    integrate_reference(a, rho, rc, h).to_bits()
                })
                .collect();
            assert!(expect[0] != 0 && expect[TABLE_ROWS - 1] == 0);
            for width in [1, 2, 4] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(width)
                    .build()
                    .unwrap();
                let eff = pool.install(|| EffectiveWallForce::new(a, rho, rc));
                let got: Vec<u64> = eff.table.iter().map(|f| f.to_bits()).collect();
                assert_eq!(
                    got, expect,
                    "(a, rho, rc) = ({a}, {rho}, {rc}), width {width}"
                );
            }
        }
    }

    #[test]
    fn effective_force_monotone_decreasing() {
        let eff = EffectiveWallForce::new(25.0, 3.0, 1.0);
        let mut prev = f64::MAX;
        for k in 0..=10 {
            let h = k as f64 * 0.1;
            let f = eff.force(h);
            assert!(f >= 0.0);
            assert!(f <= prev + 1e-12, "not monotone at h={h}");
            prev = f;
        }
        assert_eq!(eff.force(1.0), 0.0);
        assert_eq!(eff.force(2.0), 0.0);
    }

    #[test]
    fn effective_force_scales_linearly_with_a_and_rho() {
        let base = EffectiveWallForce::new(25.0, 3.0, 1.0);
        let double_a = EffectiveWallForce::new(50.0, 3.0, 1.0);
        let double_rho = EffectiveWallForce::new(25.0, 6.0, 1.0);
        for h in [0.0, 0.3, 0.7] {
            assert!((double_a.force(h) - 2.0 * base.force(h)).abs() < 1e-9);
            assert!((double_rho.force(h) - 2.0 * base.force(h)).abs() < 1e-9);
        }
    }

    #[test]
    fn contact_value_matches_analytic() {
        // At h=0 the integral has closed form: a ρ π rc³ / 12... verify
        // against an independent coarse numeric value instead of trusting a
        // constant: F(0) ≈ a·ρ·0.2618·rc³ (π/12 = 0.2618).
        let eff = EffectiveWallForce::new(1.0, 1.0, 1.0);
        let expect = std::f64::consts::PI / 12.0;
        assert!(
            (eff.force(0.0) - expect).abs() < 0.01 * expect,
            "F(0) = {}, analytic π/12 = {expect}",
            eff.force(0.0)
        );
    }

    #[test]
    fn wall_force_damps_tangential_velocity() {
        let eff = EffectiveWallForce::new(25.0, 3.0, 1.0);
        let mut f = [0.0; 3];
        wall_force(&eff, 5.0, 0.2, [0.0, 1.0, 0.0], [2.0, 0.5, 0.0], &mut f);
        assert!(f[0] < 0.0, "tangential drag should oppose vx: {f:?}");
        assert!(f[1] > 0.0, "normal force should push away: {f:?}");
    }

    #[test]
    fn bounce_back_plane_reflects() {
        let mut p = [0.0, -0.1, 0.0];
        let mut v = [1.0, -2.0, 0.5];
        let bounced = bounce_back_plane(&mut p, &mut v, 1, 0.0, 1.0);
        assert!(bounced);
        assert_eq!(p[1], 0.1);
        assert_eq!(v, [-1.0, 2.0, -0.5]);
        // Inside the fluid: no change.
        let mut p2 = [0.0, 0.3, 0.0];
        let mut v2 = [1.0, 1.0, 1.0];
        assert!(!bounce_back_plane(&mut p2, &mut v2, 1, 0.0, 1.0));
        assert_eq!(v2, [1.0, 1.0, 1.0]);
    }

    #[test]
    fn bounce_back_cylinder_reflects_radially() {
        let mut p = [1.0, 1.2, 0.0];
        let mut v = [0.5, 1.0, 0.0];
        let bounced = bounce_back_cylinder(&mut p, &mut v, 1.0, 0.0, 0.0);
        assert!(bounced);
        let r = (p[1] * p[1] + p[2] * p[2]).sqrt();
        assert!((r - 0.8).abs() < 1e-12, "reflected radius {r}");
        assert_eq!(v, [-0.5, -1.0, 0.0]);
    }
}
