//! The headline scenario: blood flow through an aneurysm-bearing vessel
//! with an embedded atomistic domain in the sac where platelets aggregate
//! into a thrombus — the coupled simulation of the paper's Figs. 1, 9, 10,
//! at laptop scale.
//!
//! ```bash
//! cargo run --release --example aneurysm
//! # Long runs: write a rotating checkpoint every 2 exchanges and resume
//! # a killed run from it (bitwise — the resumed run matches one that
//! # never stopped):
//! cargo run --release --example aneurysm -- --checkpoint-every 2 --checkpoint aneurysm.nkgc
//! cargo run --release --example aneurysm -- --resume aneurysm.nkgc
//! ```

use nektarg::coupling::metasolver::{CheckpointPolicy, ExecutionPolicy};
use nektarg::coupling::scenario::Platelets;
use nektarg::coupling::{NektarG, Scenario, TimeProgression};
use nektarg::dpd::platelet::{PlateletParams, WallSites};
use std::path::PathBuf;

/// Checkpoint-related command line options.
struct Options {
    /// Write a rotating checkpoint to this path every `every` exchanges.
    checkpoint: Option<(PathBuf, u64)>,
    /// Resume from this snapshot (falling back to its `.prev` rotation).
    resume: Option<PathBuf>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        checkpoint: None,
        resume: None,
    };
    let mut path = PathBuf::from("aneurysm.nkgc");
    let mut every = 2u64;
    let mut want_checkpoint = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--checkpoint" => {
                path = PathBuf::from(value("--checkpoint"));
                want_checkpoint = true;
            }
            "--checkpoint-every" => {
                every = value("--checkpoint-every")
                    .parse()
                    .expect("--checkpoint-every takes an exchange count");
                want_checkpoint = true;
            }
            "--resume" => opts.resume = Some(PathBuf::from(value("--resume"))),
            other => panic!("unknown argument {other} (see the example header)"),
        }
    }
    if want_checkpoint {
        opts.checkpoint = Some((path, every));
    }
    opts
}

fn main() {
    let opts = parse_args();
    println!("aneurysm scenario: multipatch vessel + platelet-laden DPD sac\n");

    // Build the run exactly as a resume would reconstruct it: the
    // `Scenario` is the configuration; the snapshot only replaces evolving
    // state.
    let mut meta = match &opts.resume {
        Some(path) => {
            let (meta, source) = NektarG::resume_latest(build_metasolver, path)
                .unwrap_or_else(|e| panic!("resume from {}: {e}", path.display()));
            println!(
                "resumed from {} ({source:?} generation) at continuum step {}\n",
                path.display(),
                meta.report.ns_steps
            );
            meta
        }
        None => build_metasolver(),
    };
    println!(
        "sac: {} particles, {} adhesion sites",
        meta.atomistic.sim.particles.len(),
        meta.atomistic.sim.sites.pos.len()
    );
    let policy = opts
        .checkpoint
        .map(|(path, every)| CheckpointPolicy::new(path, every));
    if let Some(pol) = &policy {
        println!(
            "checkpointing to {} every {} exchanges (previous generation kept as .prev)",
            pol.path.display(),
            pol.every_k_exchanges
        );
    }

    println!("\nround     NS-DPD continuity  platelets (passive/triggered/active/adhered)");
    let first_round = meta.report.ns_steps / 10;
    for round in first_round..6 {
        let target = meta.report.ns_steps + 10;
        let report = meta
            .run_to(target, policy.as_ref(), None)
            .expect("run failed");
        let (p, t, a, ad) = *report.platelet_census.last().unwrap();
        println!(
            "{:>8}  {:>17.4}  {p:>7} / {t} / {a} / {ad}",
            round,
            report.continuity.last().copied().unwrap_or(f64::NAN)
        );
    }
    let (_, _, a, ad) = meta.atomistic.sim.platelet_census();
    println!(
        "\nthrombus population (active + adhered): {} — clot formation under way",
        a + ad
    );

    // Solver health and execution telemetry for the whole run.
    let s = meta.report.solve_summary();
    println!(
        "elliptic solves over {} steps: pressure CG iters p50/p95/max {}/{}/{}, \
         viscous {}/{}/{}, worst residual {:.2e}, breakdowns {}",
        s.steps,
        s.pressure.p50,
        s.pressure.p95,
        s.pressure.max,
        s.viscous.p50,
        s.viscous.p95,
        s.viscous.max,
        s.worst_residual,
        s.breakdowns
    );
    if let Some(eff) = meta.report.overlap_efficiency() {
        let t = meta.report.timing_totals();
        println!(
            "overlapped execution: continuum {:.2} s ∥ atomistic {:.2} s, \
             exchanges {:.2} s, overlap efficiency {:.2}",
            t.continuum_s, t.atomistic_s, t.exchange_s, eff
        );
    }
}

/// The run, described once. Deterministic in the seed: a resumed run and
/// an uninterrupted one produce bitwise-identical trajectories.
fn build_metasolver() -> NektarG {
    Scenario {
        // Continuum: 3 overlapping patches; the middle one hosts the sac.
        patches: 3,
        // Atomistic sac: slow flow, platelets, adhesion sites on the wall
        // (damaged endothelium at the fundus — where clotting starts).
        dpd_box: [10.0, 6.0, 4.0],
        seed: 42,
        platelets: Some(Platelets {
            fraction: 0.06,
            sites: WallSites::on_plane(40, 1, 0.0, [3.0, 0.0, 0.0], [8.0, 0.0, 4.0], 5),
            params: PlateletParams {
                delay_steps: 100,
                trigger_dist: 0.7,
                ..Default::default()
            },
        }),
        unit_dpd: 0.04,
        progression: TimeProgression::new(20, 10),
        // The overlapped policy runs the continuum window and the DPD sac
        // concurrently between exchanges — bitwise identical to Serial.
        policy: ExecutionPolicy::Overlapped,
        ..Scenario::poiseuille()
    }
    .build()
}
