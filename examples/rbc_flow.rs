//! Explicit blood cells in channel flow: bead-spring membrane vesicles
//! (the laptop-scale stand-in for the paper's RBC membranes) advecting
//! through a DPD channel, with membrane integrity and shape statistics —
//! the "healthy vs diseased RBC" setting of the paper's Fig. 7 with the
//! cells actually resolved.
//!
//! ```bash
//! cargo run --release --example rbc_flow
//! ```

use nektarg::dpd::rbc::CellModel;
use nektarg::dpd::sim::{DpdConfig, DpdSim, WallGeometry};
use nektarg::dpd::Box3;

fn run_case(label: &str, k_bend: f64, seed: u64) {
    // "Healthy" cells are flexible (low bending modulus); "diseased"
    // (e.g. malaria-stiffened) cells resist deformation.
    let cfg = DpdConfig {
        seed,
        ..Default::default()
    };
    let bx = Box3::new([0.0; 3], [12.0, 6.0, 4.0], [true, false, true]);
    let mut sim = DpdSim::new(cfg, bx, WallGeometry::SlabY);
    sim.fill_solvent();
    // Three cells staggered across the channel.
    for (k, center) in [[3.0, 2.0, 2.0], [6.0, 3.0, 2.0], [9.0, 4.0, 2.0]]
        .into_iter()
        .enumerate()
    {
        // 16 beads keep the bond rest length well above the thermal
        // fluctuation scale sqrt(kT/k_spring), so the 2x-rest-length
        // integrity test is meaningful.
        let cell = CellModel::ring(
            &mut sim.particles,
            center,
            0.9,
            16,
            (2 + k as u8).min(3),
            400.0,
            k_bend,
            100.0,
        );
        sim.cells.push(cell);
    }
    sim.set_body_force(|_| [0.08, 0.0, 0.0]);

    println!("\n--- {label} (k_bend = {k_bend}) ---");
    println!("step   cell  x-center  area/area0  max bond/r0");
    for block in 0..5 {
        for _ in 0..200 {
            sim.step();
        }
        for (ci, cell) in sim.cells.iter().enumerate() {
            let c = cell.center(&sim.particles, &sim.bx);
            let a = cell.area(&sim.particles, &sim.bx) / cell.area0;
            let max_bond = cell
                .bond_lengths(&sim.particles, &sim.bx)
                .into_iter()
                .fold(0.0f64, f64::max)
                / cell.r0;
            println!(
                "{:>4}   {ci:>4}  {:>8.2}  {:>10.3}  {:>11.2}",
                (block + 1) * 200,
                c[0],
                a,
                max_bond
            );
        }
    }
    // Integrity summary.
    let intact = sim.cells.iter().all(|cell| {
        cell.bond_lengths(&sim.particles, &sim.bx)
            .into_iter()
            .all(|l| l < 2.0 * cell.r0)
    });
    println!("membranes intact after 1000 steps: {intact}");
}

fn main() {
    println!("explicit cell membranes advecting in a DPD channel");
    run_case("healthy (flexible)", 5.0, 61);
    run_case("diseased (stiffened)", 60.0, 62);
    println!("\nboth populations advect with the flow while conserving area;");
    println!("the stiffened cells hold their shape against the shear, the");
    println!("flexible ones deform — the mechanics contrast behind the");
    println!("paper's healthy-vs-diseased Fig. 7 study.");
}
