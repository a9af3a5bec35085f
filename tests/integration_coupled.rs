//! Cross-crate integration: the full metasolver pipeline — multipatch SEM
//! continuum + embedded DPD domain + WPOD co-processing + platelet model —
//! running the paper's time progression end to end.

use nektarg::coupling::scenario::Platelets;
use nektarg::coupling::{NektarG, Scenario};
use nektarg::dpd::sim::BinSampler;
use nektarg::wpod::window::WindowPod;

fn build_metasolver(with_platelets: bool) -> NektarG {
    Scenario {
        platelets: with_platelets.then(Platelets::poiseuille),
        ..Scenario::poiseuille()
    }
    .build()
}

#[test]
fn coupled_run_is_continuous_and_stable() {
    let mut ng = build_metasolver(false);
    let report = ng.run(40);
    assert_eq!(report.ns_steps, 40);
    assert_eq!(report.dpd_steps, 400);
    assert_eq!(report.exchanges, 8);
    // Continuum stays on the Poiseuille solution.
    let (u, _) = ng.continuum.eval_velocity(3.0, 0.5).unwrap();
    assert!((u - 0.1).abs() < 0.01, "centerline velocity {u}");
    // Patch interfaces continuous.
    let pm = report.patch_mismatch.last().unwrap();
    assert!(*pm < 0.01, "patch mismatch {pm}");
    // Continuum-atomistic continuity approaches the thermal-noise floor.
    let cc = report.continuity.last().unwrap();
    assert!(
        *cc < 0.05,
        "NS-DPD continuity {cc} (history {:?})",
        report.continuity
    );
    // DPD stays healthy: density and temperature within bounds.
    let rho = ng.atomistic.sim.number_density();
    assert!((rho - 3.0).abs() < 0.5, "density {rho}");
    let temp = ng.atomistic.sim.particles.temperature();
    assert!((temp - 1.0).abs() < 0.2, "temperature {temp}");
}

#[test]
fn wpod_coprocessing_denoises_the_atomistic_field() {
    let mut ng = build_metasolver(false)
        .with_wpod(BinSampler::new(1, 8, 0, 10), WindowPod::new(10, 10, 2.0));
    let report = ng.run(30);
    assert!(report.wpod_windows >= 2, "windows: {}", report.wpod_windows);
    let res = ng.last_wpod.expect("WPOD result");
    assert_eq!(res.mean.len(), 8);
    // The coherent part carries most of the energy: mean field magnitude
    // comparable to the imposed DPD-side velocities; fluctuations bounded
    // by thermal noise.
    let max_fluct = res.fluctuation.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
    assert!(
        max_fluct < 3.0,
        "fluctuation out of thermal range: {max_fluct}"
    );
}

#[test]
fn platelet_cascade_progresses_in_coupled_run() {
    let mut ng = build_metasolver(true);
    let report = ng.run(60);
    let (_, t, a, ad) = *report.platelet_census.last().unwrap();
    assert!(
        t + a + ad > 0,
        "no platelet ever left the passive state: {:?}",
        report.platelet_census
    );
}

#[test]
fn progression_ratios_respected_under_composition() {
    let mut ng = build_metasolver(false);
    let r1 = ng.run(7);
    let r2 = ng.run(13);
    // Reports are cumulative and the exchange schedule is absolute:
    // run one covers steps 0..7 (exchanges before steps 0 and 5), run two
    // continues over steps 7..20 (exchanges before steps 10 and 15).
    assert_eq!(r1.dpd_steps, 70);
    assert_eq!(r2.dpd_steps, 200);
    assert_eq!(r1.exchanges, 2);
    assert_eq!(r2.exchanges, 4);
    assert_eq!(r2.ns_steps, 20);
}
