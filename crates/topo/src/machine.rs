//! Named machine presets used by the performance model.
//!
//! The constants below are public-spec figures for the two torus machines
//! of the paper's evaluation (per-core peak, link bandwidth and MPI-level
//! latency).
//! The discrete-event model in `nkg-perfmodel` additionally *calibrates* the
//! achievable per-core floating-point rate from this host's measured kernel
//! throughput, so the presets only have to carry machine *ratios* (e.g. XT5
//! cores ~2.9x faster than BG/P cores), which is what the scaling-table
//! shapes depend on.

use crate::torus::Torus3D;

/// A modeled supercomputer with a 3D-torus interconnect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Machine {
    /// Display name.
    pub name: &'static str,
    /// Ranks (cores) per node.
    pub cores_per_node: usize,
    /// Sustained per-core compute rate relative to BG/P (=1.0).
    pub core_speed: f64,
    /// Link bandwidth in bytes/s (per torus link or node uplink).
    pub link_bandwidth: f64,
    /// Point-to-point latency in seconds (MPI level).
    pub latency: f64,
    /// Effective cache per core in bytes — drives the super-linear strong
    /// scaling of Table 5 (when the working set drops into cache, the
    /// per-particle cost falls).
    pub cache_per_core: f64,
}

impl Machine {
    /// IBM Blue Gene/P: 4 cores/node @ 850 MHz, 3D torus, 425 MB/s/link,
    /// ~3.5 µs MPI latency, 8 MB shared L3 per node.
    pub fn bluegene_p() -> Self {
        Self {
            name: "BlueGene/P",
            cores_per_node: 4,
            core_speed: 1.0,
            link_bandwidth: 425.0e6,
            latency: 3.5e-6,
            cache_per_core: 2.0e6,
        }
    }

    /// Cray XT5: 12 cores/node (2x hex-core Opteron @ 2.6 GHz), SeaStar2+
    /// 3D torus, ~9.6 GB/s/link shared by 12 cores, ~6 µs latency.
    pub fn cray_xt5() -> Self {
        Self {
            name: "Cray XT5",
            cores_per_node: 12,
            core_speed: 2.9,
            link_bandwidth: 9.6e9 / 6.0,
            latency: 6.0e-6,
            cache_per_core: 1.0e6,
        }
    }

    /// Cray XT5 as configured for the paper's Table 3 run (8 cores/node).
    pub fn cray_xt5_8() -> Self {
        Self {
            cores_per_node: 8,
            ..Self::cray_xt5()
        }
    }

    /// Build the torus carved for a job of `cores` ranks.
    pub fn torus_for(&self, cores: usize) -> Torus3D {
        Torus3D::fitting(cores, self.cores_per_node)
    }

    /// Time to move `bytes` over one link, including latency.
    pub fn transfer_time(&self, bytes: f64) -> f64 {
        self.latency + bytes / self.link_bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        for m in [
            Machine::bluegene_p(),
            Machine::cray_xt5(),
            Machine::cray_xt5_8(),
        ] {
            assert!(m.core_speed > 0.0);
            assert!(m.link_bandwidth > 0.0);
            assert!(m.latency > 0.0);
            assert!(m.cores_per_node >= 1);
        }
    }

    #[test]
    fn xt5_faster_per_core_than_bgp() {
        assert!(Machine::cray_xt5().core_speed > Machine::bluegene_p().core_speed);
    }

    #[test]
    fn torus_for_gives_capacity() {
        let m = Machine::bluegene_p();
        let t = m.torus_for(32768);
        assert!(t.num_ranks() >= 32768);
        assert_eq!(t.cores_per_node, 4);
    }

    #[test]
    fn transfer_time_monotone_in_bytes() {
        let m = Machine::bluegene_p();
        assert!(m.transfer_time(1e6) > m.transfer_time(1e3));
        assert!(m.transfer_time(0.0) == m.latency);
    }
}
