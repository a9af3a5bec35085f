//! Fault-tolerant checkpoint/restart, end to end: run the coupled
//! metasolver for 6 exchange intervals, kill it after the 3rd exchange
//! (scripted via [`FaultPlan`], standing in for a node loss), resume from
//! the rotating checkpoint, and verify the composed run reproduces an
//! uninterrupted reference **bitwise** — same report, same particles.
//!
//! ```bash
//! cargo run --release --example checkpoint_restart
//! ```

use nektarg::ckpt::FaultPlan;
use nektarg::coupling::metasolver::{CheckpointPolicy, RunError};
use nektarg::coupling::{NektarG, Scenario};

/// The run, described once: `build` is deterministic, which is all
/// `NektarG::resume` asks of its `make`. Exchange every 5 continuum steps,
/// 10 DPD substeps each.
fn build_metasolver() -> NektarG {
    Scenario {
        seed: 11,
        ..Scenario::poiseuille()
    }
    .build()
}

fn main() {
    let path = std::env::temp_dir().join("checkpoint_restart_example.nkgc");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(nektarg::ckpt::prev_path(&path));
    // 6 exchange intervals at exchange_every = 5.
    let target_ns_steps = 30;

    println!("== reference: 6 exchange intervals, uninterrupted ==");
    let mut reference = build_metasolver();
    let ref_report = reference.run(target_ns_steps);
    println!(
        "ran {} continuum steps, {} DPD steps, {} exchanges",
        ref_report.ns_steps, ref_report.dpd_steps, ref_report.exchanges
    );

    println!("\n== victim: checkpoint every exchange, killed after the 3rd ==");
    let mut victim = build_metasolver();
    let policy = CheckpointPolicy::new(&path, 1);
    let fault = FaultPlan::kill_after(3);
    match victim.run_to(target_ns_steps, Some(&policy), Some(&fault)) {
        Err(RunError::Killed { exchanges, ns_step }) => {
            println!("killed after exchange {exchanges} (continuum step {ns_step})");
        }
        other => panic!("expected the scripted kill, got {other:?}"),
    }
    drop(victim); // the process is gone; only the snapshot survives

    println!("\n== resume from {} ==", path.display());
    let mut resumed = NektarG::resume(build_metasolver, &path).expect("resume");
    println!(
        "restored at continuum step {} ({} exchanges done)",
        resumed.report.ns_steps, resumed.report.exchanges
    );
    let res_report = resumed.run_to(target_ns_steps, None, None).expect("finish");

    println!("\n== verdict ==");
    assert_eq!(
        res_report, ref_report,
        "composed report differs from the uninterrupted reference"
    );
    let bitwise = reference
        .atomistic
        .sim
        .particles
        .pos_aos()
        .iter()
        .zip(&resumed.atomistic.sim.particles.pos_aos())
        .all(|(a, b)| (0..3).all(|k| a[k].to_bits() == b[k].to_bits()));
    assert!(bitwise, "final particle state differs");
    println!(
        "composed run == uninterrupted run: {} exchanges, {} DPD steps, \
         final particle state bitwise identical",
        res_report.exchanges, res_report.dpd_steps
    );
}
