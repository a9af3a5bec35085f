//! Machine-topology models for topology-aware communication (paper §3.5).
//!
//! The paper exploits the Blue Gene/P "personality" structure — torus
//! coordinates `(X, Y, Z)` and the in-node CPU id `T` — to (a) group ranks
//! into topology-oriented L2 communicators, (b) schedule point-to-point
//! messages so that at any time at least 6 messages are outstanding, one per
//! torus direction, and (c) choose partitions whose heavy links map to short
//! torus paths.
//!
//! We have no Blue Gene, so this crate *models* the machines:
//!
//! * [`Torus3D`] — a 3D-torus interconnect (BG/P, Cray XT5/SeaStar):
//!   rank→node→coordinate mapping, minimal-path routing (deterministic
//!   XYZ dimension order vs adaptive spreading), per-link load accounting;
//! * [`schedule`] — the 6-outstanding-directions message scheduler;
//! * [`Machine`] — named presets with per-core compute rate, link bandwidth
//!   and latency used by `nkg-perfmodel` to turn traffic into seconds.
//!
//! The models feed the discrete-event performance simulator that regenerates
//! Tables 2-5; they are also exercised directly by the `torus_ablation`
//! bench (scheduled vs unscheduled injection).

#![forbid(unsafe_code)]

pub mod machine;
pub mod schedule;
pub mod torus;

pub use machine::Machine;
pub use schedule::{schedule_rounds, Direction};
pub use torus::{LinkLoads, Routing, Torus3D};

/// Placement rule for per-rank compute pools: `world` ranks co-scheduled
/// on a host of `host_cores` logical cores each get an equal share of the
/// cores, never less than one thread. This is the width
/// `Universe::spawn_processes` exports to every worker as
/// `NKG_POOL_WIDTH`, so co-located ranks don't oversubscribe the host
/// with `world × host_cores` rayon threads.
pub fn rank_pool_width(host_cores: usize, world: usize) -> usize {
    (host_cores / world.max(1)).max(1)
}

/// Cost-aware variant of [`rank_pool_width`] for the ensemble scheduler:
/// start from the equal-share width and scale it by how expensive this
/// job is relative to the batch median, so a job predicted 4× costlier
/// than its peers gets (up to) 4× the threads while trivial jobs shrink
/// toward one. The result is clamped to `[1, host_cores]` — a single job
/// may use the whole host but never oversubscribes it — and any
/// degenerate cost estimate (zero, negative, NaN, ∞) falls back to the
/// equal share, keeping placement total even when the model has no
/// calibration for a job kind.
pub fn cost_weighted_pool_width(
    host_cores: usize,
    world: usize,
    job_cost: f64,
    median_cost: f64,
) -> usize {
    let base = rank_pool_width(host_cores, world);
    if !job_cost.is_finite() || !median_cost.is_finite() || job_cost <= 0.0 || median_cost <= 0.0 {
        return base;
    }
    let scaled = (base as f64 * (job_cost / median_cost)).round() as usize;
    scaled.clamp(1, host_cores.max(1))
}

#[cfg(test)]
mod pool_tests {
    use super::{cost_weighted_pool_width, rank_pool_width};

    #[test]
    fn pool_width_shares_cores_without_oversubscribing() {
        assert_eq!(rank_pool_width(16, 4), 4);
        assert_eq!(rank_pool_width(12, 5), 2);
        // Never zero, even oversubscribed or with a degenerate world.
        assert_eq!(rank_pool_width(2, 8), 1);
        assert_eq!(rank_pool_width(0, 3), 1);
        assert_eq!(rank_pool_width(8, 0), 8);
    }

    #[test]
    fn cost_weighting_scales_around_the_median() {
        // Median-cost job = the plain equal share.
        assert_eq!(cost_weighted_pool_width(16, 4, 1.0, 1.0), 4);
        // 4x-the-median job gets 4x the threads, capped at the host.
        assert_eq!(cost_weighted_pool_width(16, 4, 4.0, 1.0), 16);
        assert_eq!(cost_weighted_pool_width(16, 4, 100.0, 1.0), 16);
        // Cheap jobs shrink, but never below one thread.
        assert_eq!(cost_weighted_pool_width(16, 4, 0.25, 1.0), 1);
        assert_eq!(cost_weighted_pool_width(16, 4, 1e-9, 1.0), 1);
    }

    #[test]
    fn degenerate_costs_fall_back_to_the_equal_share() {
        for bad in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            assert_eq!(cost_weighted_pool_width(16, 4, bad, 1.0), 4);
            assert_eq!(cost_weighted_pool_width(16, 4, 1.0, bad), 4);
        }
    }
}
