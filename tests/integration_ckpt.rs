//! Fault-tolerant checkpoint/restart of the full coupled pipeline, driven
//! through the public umbrella API: periodic snapshots during a
//! metasolver run, scripted disasters (kill / corrupt / truncate), and
//! bitwise-identical recovery.

use nektarg::ckpt::{prev_path, CkptError, FaultPlan, Snapshot};
use nektarg::coupling::metasolver::{CheckpointPolicy, ResumeSource, RunError};
use nektarg::coupling::scenario::Platelets;
use nektarg::coupling::{NektarG, Scenario};
use nektarg::dpd::sim::BinSampler;
use nektarg::wpod::window::WindowPod;
use std::path::PathBuf;

/// The richest state the metasolver carries: platelet cascade active and
/// WPOD co-processing attached.
fn build_metasolver() -> NektarG {
    Scenario {
        platelets: Some(Platelets::poiseuille()),
        wpod: Some((BinSampler::new(1, 8, 0, 10), WindowPod::new(10, 10, 2.0))),
        ..Scenario::poiseuille()
    }
    .build()
}

fn ckpt_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("nkg_integration_ckpt");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(prev_path(&path));
    path
}

/// The headline guarantee end to end: a coupled run (continuum + DPD +
/// platelets + WPOD) killed mid-flight and resumed from disk reproduces
/// the uninterrupted run's report and final state bitwise.
#[test]
fn killed_coupled_run_resumes_bitwise() {
    let path = ckpt_path("coupled_bitwise.nkgc");

    // Reference: 30 continuum steps uninterrupted (exchanges at 0..25 by 5).
    let mut reference = build_metasolver();
    let ref_report = reference.run(30);
    assert_eq!(ref_report.exchanges, 6);

    // Victim: checkpoint every 2 exchanges, killed after the 4th.
    let mut victim = build_metasolver();
    let policy = CheckpointPolicy::new(&path, 2);
    let err = victim
        .run_to(30, Some(&policy), Some(&FaultPlan::kill_after(4)))
        .unwrap_err();
    assert!(matches!(err, RunError::Killed { exchanges: 4, .. }));
    drop(victim);

    // Resume in a "new process": reconstruct from the same setup code,
    // load the snapshot, finish the run.
    let (mut resumed, source) = NektarG::resume_latest(build_metasolver, &path).unwrap();
    assert_eq!(source, ResumeSource::Primary);
    assert!(resumed.report.ns_steps < 30);
    let res_report = resumed.run_to(30, None, None).unwrap();

    assert_eq!(res_report, ref_report, "composed report diverged");
    let (a, b) = (
        &reference.atomistic.sim.particles,
        &resumed.atomistic.sim.particles,
    );
    assert_eq!(a.len(), b.len());
    for (p, q) in a.pos_aos().iter().zip(&b.pos_aos()) {
        for k in 0..3 {
            assert_eq!(p[k].to_bits(), q[k].to_bits(), "positions diverged");
        }
    }
    assert_eq!(a.state, b.state, "platelet states diverged");
    for (s1, s2) in reference
        .continuum
        .patches
        .iter()
        .zip(&resumed.continuum.patches)
    {
        for (x, y) in s1.u.iter().zip(&s2.u).chain(s1.v.iter().zip(&s2.v)) {
            assert_eq!(x.to_bits(), y.to_bits(), "continuum velocity diverged");
        }
        for (x, y) in s1.p.iter().zip(&s2.p) {
            assert_eq!(x.to_bits(), y.to_bits(), "continuum pressure diverged");
        }
    }
}

/// A corrupted freshest snapshot is rejected by CRC and recovery falls
/// back to the rotated previous generation — and the run still finishes
/// bitwise-identical.
#[test]
fn corrupted_section_recovers_from_previous_snapshot() {
    let path = ckpt_path("coupled_fallback.nkgc");

    let mut reference = build_metasolver();
    let ref_report = reference.run(30);

    // Checkpoints at exchanges 2 and 4 (two generations on disk), then
    // the freshest one is corrupted in its continuum section.
    let mut victim = build_metasolver();
    let policy = CheckpointPolicy::new(&path, 2);
    victim
        .run_to(30, Some(&policy), Some(&FaultPlan::kill_after(5)))
        .unwrap_err();
    nkg_ckpt_corrupt(&path);

    let (mut resumed, source) = NektarG::resume_latest(build_metasolver, &path).unwrap();
    assert_eq!(source, ResumeSource::Fallback);
    let res_report = resumed.run_to(30, None, None).unwrap();
    assert_eq!(res_report, ref_report, "fallback resume diverged");
}

fn nkg_ckpt_corrupt(path: &std::path::Path) {
    use nektarg::coupling::multipatch::Multipatch2d;
    nektarg::ckpt::fault::corrupt_section(path, Multipatch2d::TAG).unwrap();
    // The damage must be fatal for the primary.
    assert!(matches!(
        nektarg::ckpt::SnapshotFile::read_from(path),
        Err(CkptError::Corrupt { .. })
    ));
}

/// A truncating fault (torn write that escaped the atomic rename) on the
/// freshest snapshot likewise falls back to the previous generation.
#[test]
fn truncated_snapshot_recovers_from_previous_snapshot() {
    let path = ckpt_path("coupled_truncated.nkgc");

    let mut victim = build_metasolver();
    let policy = CheckpointPolicy::new(&path, 2);
    // Truncate every snapshot as it is written; kill after exchange 5.
    // The `.prev` rotation happens before each write, so the previous
    // generation was itself truncated — recovery must fail on both...
    let fault = FaultPlan {
        kill_after_exchange: Some(5),
        truncate_tail: Some(40),
        ..Default::default()
    };
    victim.run_to(30, Some(&policy), Some(&fault)).unwrap_err();
    assert!(matches!(
        NektarG::resume_latest(build_metasolver, &path),
        Err(CkptError::Truncated)
    ));

    // ...whereas when only the freshest write is torn, the previous
    // generation carries the run.
    let path = ckpt_path("coupled_truncated_once.nkgc");
    let mut victim = build_metasolver();
    let policy = CheckpointPolicy::new(&path, 2);
    victim
        .run_to(30, Some(&policy), Some(&FaultPlan::kill_after(5)))
        .unwrap_err();
    nektarg::ckpt::fault::truncate_tail(&path, 40).unwrap();
    let (resumed, source) = NektarG::resume_latest(build_metasolver, &path).unwrap();
    assert_eq!(source, ResumeSource::Fallback);
    assert_eq!(resumed.report.exchanges, 2);
}

/// Version skew: a snapshot stamped with a future format version is
/// refused outright with both versions named.
#[test]
fn version_mismatch_is_refused() {
    let path = ckpt_path("coupled_version.nkgc");
    let mut ng = build_metasolver();
    ng.run(5);
    ng.checkpoint(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[4] = 99; // format version field (little-endian u32 at offset 4)
    std::fs::write(&path, &bytes).unwrap();
    match NektarG::resume(build_metasolver, &path) {
        Err(CkptError::Version { found, expected }) => {
            assert_eq!(found, 99);
            assert_eq!(expected, nektarg::ckpt::FORMAT_VERSION);
        }
        Err(other) => panic!("expected version refusal, got {other:?}"),
        Ok(_) => panic!("version-skewed snapshot was accepted"),
    }
}

/// Resuming into a run built with a different DPD seed is a configuration
/// mismatch, not an integrity failure — no fallback, loud refusal.
#[test]
fn config_mismatch_does_not_fall_back() {
    let path = ckpt_path("coupled_mismatch.nkgc");
    let mut ng = build_metasolver();
    ng.run(5);
    ng.checkpoint(&path).unwrap();
    let other_seed = || {
        let mut ng = build_metasolver();
        ng.atomistic.sim.cfg.seed = 999;
        ng
    };
    assert!(matches!(
        NektarG::resume_latest(other_seed, &path),
        Err(CkptError::Mismatch(_))
    ));
}
