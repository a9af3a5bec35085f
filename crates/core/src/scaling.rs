//! Unit scaling between the continuum (NS) and atomistic (DPD)
//! descriptions — paper §3.3, Eq. (1).
//!
//! Each solver works in its own non-dimensional units ("a unit of length in
//! the NS domain corresponds to 1 mm, while a unit of length in DPD is
//! equal to 5 µm"). Gluing the descriptions requires matching the
//! characteristic non-dimensional numbers — Reynolds and Womersley — which
//! fixes the velocity scaling (Eq. 1)
//!
//! ```text
//! v_DPD = v_NS · (L_NS / L_DPD) · (ν_DPD / ν_NS)
//! ```
//!
//! where `L_NS` and `L_DPD` are the *values* of the same characteristic
//! physical length expressed in each description's units (so with 1 NS unit
//! = 1 mm and 1 DPD unit = 5 µm, a 5 µm feature has `L_NS = 0.005`,
//! `L_DPD = 1`, and `L_NS/L_DPD = 0.005`), and the viscosities are likewise
//! per-description values. The induced time scaling follows from
//! `t ~ L²/ν`.

/// Conversion factors between an NS description and a DPD description.
///
/// `unit_ns`/`unit_dpd` are the physical sizes of one length unit in each
/// description (any common physical unit); `nu_ns`/`nu_dpd` the kinematic
/// viscosities *in each description's own units*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitScaling {
    /// Physical length of one NS length unit.
    pub unit_ns: f64,
    /// Physical length of one DPD length unit.
    pub unit_dpd: f64,
    /// Kinematic viscosity value in NS units.
    pub nu_ns: f64,
    /// Kinematic viscosity value in DPD units.
    pub nu_dpd: f64,
}

impl UnitScaling {
    /// The paper's configuration: 1 NS unit = 1 mm, 1 DPD unit = 5 µm.
    pub fn paper(nu_ns: f64, nu_dpd: f64) -> Self {
        Self {
            unit_ns: 1.0e-3,
            unit_dpd: 5.0e-6,
            nu_ns,
            nu_dpd,
        }
    }

    /// Length value conversion: an NS coordinate/extent value → the DPD
    /// value of the same physical length.
    pub fn length_factor(&self) -> f64 {
        self.unit_ns / self.unit_dpd
    }

    /// NS length value → DPD length value.
    pub fn length_ns_to_dpd(&self, x_ns: f64) -> f64 {
        x_ns * self.length_factor()
    }

    /// Velocity scaling of Eq. (1). In unit-size terms the value ratio
    /// `L_NS/L_DPD = unit_dpd/unit_ns`, so the factor is
    /// `(unit_dpd/unit_ns)·(ν_DPD/ν_NS)`.
    pub fn velocity_factor(&self) -> f64 {
        (self.unit_dpd / self.unit_ns) * (self.nu_dpd / self.nu_ns)
    }

    /// Eq. (1): NS velocity value → DPD velocity value.
    pub fn velocity_ns_to_dpd(&self, v_ns: f64) -> f64 {
        v_ns * self.velocity_factor()
    }

    /// Inverse of Eq. (1).
    pub fn velocity_dpd_to_ns(&self, v_dpd: f64) -> f64 {
        v_dpd / self.velocity_factor()
    }

    /// Time value conversion (diffusive scaling `t ~ L²/ν`): with one NS
    /// time unit spanning `T_NS = unit_ns²/ν_phys·…` — concretely
    /// `t_DPD = t_NS · (ν_NS/ν_DPD) · (unit_ns/unit_dpd)²` *divided through
    /// the viscosity values*; equivalently `length_factor /
    /// velocity_factor` applied per unit time.
    pub fn time_factor(&self) -> f64 {
        self.length_factor() / self.velocity_factor()
    }

    /// Reynolds number from NS values.
    pub fn reynolds_ns(&self, v: f64, l: f64) -> f64 {
        v * l / self.nu_ns
    }

    /// Reynolds number from the scaled DPD values of the same physical
    /// velocity/length pair (equals [`UnitScaling::reynolds_ns`] by
    /// construction — Eq. (1) exists to make this hold).
    pub fn reynolds_dpd(&self, v_ns: f64, l_ns: f64) -> f64 {
        self.velocity_ns_to_dpd(v_ns) * self.length_ns_to_dpd(l_ns) / self.nu_dpd
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s() -> UnitScaling {
        UnitScaling {
            unit_ns: 1.0e-3,
            unit_dpd: 5.0e-6,
            nu_ns: 0.035,
            nu_dpd: 0.54,
        }
    }

    #[test]
    fn velocity_factor_matches_eq1_value_ratio() {
        let u = s();
        // L_NS/L_DPD value ratio for a common physical length is
        // unit_dpd/unit_ns = 1/200.
        let expect = (1.0 / 200.0) * (0.54 / 0.035);
        assert!((u.velocity_factor() - expect).abs() < 1e-12 * expect);
    }

    #[test]
    fn velocity_round_trip() {
        let u = s();
        let v = 0.37;
        assert!((u.velocity_dpd_to_ns(u.velocity_ns_to_dpd(v)) - v).abs() < 1e-14);
    }

    #[test]
    fn reynolds_number_is_preserved() {
        let u = s();
        let (v, l) = (0.8, 0.25);
        let re_ns = u.reynolds_ns(v, l);
        let re_dpd = u.reynolds_dpd(v, l);
        assert!(
            (re_ns - re_dpd).abs() < 1e-10 * re_ns,
            "Re mismatch: {re_ns} vs {re_dpd}"
        );
    }

    #[test]
    fn kinematics_consistent() {
        // velocity = length / time must hold for the value conversions.
        let u = s();
        let lhs = u.velocity_factor();
        let rhs = u.length_factor() / u.time_factor();
        assert!((lhs - rhs).abs() < 1e-12 * lhs.abs());
    }

    #[test]
    fn time_factor_large_many_dpd_units_per_ns_unit() {
        // One NS time unit spans many DPD time units (the DPD clock is much
        // finer), consistent with Δt_NS = 20 Δt_DPD at comparable
        // non-dimensional step sizes.
        let u = s();
        assert!(u.time_factor() > 1.0, "time factor {}", u.time_factor());
    }

    #[test]
    fn paper_constructor() {
        let u = UnitScaling::paper(0.04, 0.5);
        assert_eq!(u.length_factor(), 200.0);
    }
}
