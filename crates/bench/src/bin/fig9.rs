//! Fig. 9: continuity of the velocity field at continuum-continuum and
//! continuum-atomistic interfaces in the coupled simulation
//! (paper: Re = 394, Ws = 3.75 in the cerebrovascular geometry).

use nkg_bench::header;
use nkg_coupling::Scenario;

fn main() {
    header("Fig. 9: interface continuity of the coupled multiscale solution");
    // Continuum: 3 overlapping patches of a plane channel, centerline
    // velocity 0.1. Atomistic: DPD channel embedded in the middle patch.
    let mut ng = Scenario {
        patches: 3,
        seed: 91,
        ..Scenario::poiseuille()
    }
    .build();
    let scaling = ng.atomistic.embedding.scaling;
    println!(
        "velocity scaling (Eq. 1): v_DPD = {:.2} x v_NS; Re preserved across descriptions",
        scaling.velocity_factor()
    );
    let report = ng.run(60);
    println!(
        "\n{} NS steps, {} DPD steps, {} exchanges",
        report.ns_steps, report.dpd_steps, report.exchanges
    );
    println!("\nexchange   NS-NS interface RMS mismatch   NS-DPD continuity RMS error");
    for (i, (pm, cc)) in report
        .patch_mismatch
        .iter()
        .zip(report.continuity.iter().chain(std::iter::repeat(&f64::NAN)))
        .enumerate()
    {
        println!("{:>8}   {:>28.2e}   {:>27.5}", i, pm, cc);
    }
    let flow_scale = 0.1;
    let final_pm = report.patch_mismatch.last().copied().unwrap_or(f64::NAN);
    let final_cc = report.continuity.last().copied().unwrap_or(f64::NAN);
    // Statistical floor of the NS-DPD comparison: thermal noise sqrt(kT)=1
    // (DPD units) averaged over one bin of ~48 particles, scaled to NS.
    let noise_floor = 1.0 / (48.0f64).sqrt() / scaling.velocity_factor();
    println!(
        "\nflow scale U = {flow_scale}; final NS-NS mismatch {final_pm:.1e} \
         ({:.4}% of U)",
        final_pm / flow_scale * 100.0
    );
    println!(
        "final NS-DPD continuity error {final_cc:.4} vs single-sample thermal \
         floor {noise_floor:.4}",
    );
    println!("(shape check: the continuum-continuum interfaces are continuous to");
    println!(" solver precision, and the continuum-atomistic error settles at the");
    println!(" DPD thermal-noise floor of the instantaneous bin averages — the");
    println!(" coherent fields match, which is what Fig. 9's color maps show)");
}
