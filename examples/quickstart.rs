//! Quickstart: couple a spectral-element continuum channel to an embedded
//! DPD domain and run the paper's time progression end to end.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use nektarg::coupling::Scenario;

fn main() {
    println!("nektarg quickstart: continuum channel + embedded DPD domain\n");

    // --- The run, described once. Macro scale: a plane channel split
    // into two overlapping SEM patches (NεκTαr-3D ↔ NεκTαr-3D coupling),
    // initialized at the exact Poiseuille solution. Meso scale: a DPD box
    // embedded in the channel (DPD-LAMMPS side). Between them the unit
    // scaling of Eq. (1) and the Fig. 5 time progression.
    let mut metasolver = Scenario {
        seed: 7,
        ..Scenario::poiseuille()
    }
    .build();
    println!(
        "continuum: {} patches, {} DoF each",
        metasolver.continuum.num_patches(),
        metasolver.continuum.patches[0].space.nglobal
    );
    println!(
        "atomistic: {} DPD particles",
        metasolver.atomistic.sim.particles.len()
    );
    println!(
        "Eq. (1) velocity scaling: v_DPD = {:.2} x v_NS",
        metasolver.atomistic.embedding.scaling.velocity_factor()
    );

    // --- Run.
    let report = metasolver.run(30);
    println!(
        "\nran {} continuum steps / {} DPD steps with {} interface exchanges",
        report.ns_steps, report.dpd_steps, report.exchanges
    );
    println!("interface continuity per exchange (NS units):");
    for (i, e) in report.continuity.iter().enumerate() {
        println!("  exchange {i:>2}: NS-DPD RMS error {e:.4}");
    }
    println!(
        "final patch-interface mismatch: {:.2e}",
        report.patch_mismatch.last().unwrap()
    );
    println!("\ndone — the velocity field is continuous across both interface kinds.");
}
