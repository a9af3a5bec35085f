//! What sits between two solver windows — the checkpoint hand-off to the
//! committer thread and the continuum→atomistic exchange — against the
//! definitions it must not drift from:
//!
//! * a snapshot written by PR 12's build restores, and re-encodes to the
//!   same bytes;
//! * `run_to` with a checkpoint policy leaves the files a loop of
//!   synchronous `checkpoint_rotating` calls at the same boundaries
//!   leaves, on every exit path, with no committer thread left behind;
//! * an uncommittable path is a `RunError::Ckpt` within one checkpoint
//!   interval, never a hang, a lost error or a `.tmp` file;
//! * the one-row interface interpolation equals per-bin evaluation.

use nektarg::ckpt::{prev_path, restore_bytes, snapshot_bytes, CkptError, FaultPlan, SnapshotFile};
use nektarg::coupling::atomistic::AtomisticDomain;
use nektarg::coupling::metasolver::{
    CheckpointPolicy, ExecutionPolicy, RunError, COMMITTER_THREAD,
};
use nektarg::coupling::multipatch::Multipatch2d;
use nektarg::coupling::{NektarG, Scenario, TimeProgression};
use nektarg::dpd::sim::BinSampler;
use nektarg::wpod::window::WindowPod;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// The thread census reads process-wide state, so the tests of this file
/// run one at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

/// Live threads of this process carrying the committer's name.
fn committer_threads() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0; // no procfs: nothing to count, `run_to` still joins
    };
    tasks
        .flatten()
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm"))
                .is_ok_and(|name| name.trim_end() == COMMITTER_THREAD)
        })
        .count()
}

/// `run_to` joined its committer. A joined thread can stay listed for the
/// instant the kernel takes to reap it, so look again for a while; a
/// thread that was left running (parked on its channel) stays listed for
/// good and fails this.
fn assert_committer_joined(what: &str) {
    for _ in 0..200 {
        if committer_threads() == 0 {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("{what}: a committer thread outlived run_to");
}

/// The configuration `tests/fixtures/parent_5ad2613.nkgc` was written
/// from, with `bins` interface bins: 2 p=2 patches, 96 particles, WPOD,
/// exchange every second step.
fn scenario(bins: (usize, usize)) -> Scenario {
    Scenario {
        nx: 8,
        ny: 1,
        order: 2,
        dpd_box: [4.0, 4.0, 2.0],
        bins,
        progression: TimeProgression::new(2, 2),
        wpod: Some((BinSampler::new(1, 4, 0, 2), WindowPod::new(2, 2, 2.0))),
        ..Scenario::small()
    }
}

/// The fixture's system: 3×2 interface bins.
fn small_metasolver() -> NektarG {
    scenario((3, 2)).build()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nkg_boundary_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(".tmp");
    PathBuf::from(s)
}

/// Continuum steps at whose top `run_to` checkpoints under `every_k`.
fn boundaries(progression: &TimeProgression, every_k: u64, steps: usize) -> Vec<usize> {
    let mut done = 0u64;
    let mut at = Vec::new();
    for step in 0..steps {
        if progression.exchange_at(step) {
            if done > 0 && done.is_multiple_of(every_k) {
                at.push(step);
            }
            done += 1;
        }
    }
    at
}

/// The reference for `run_to`'s files: stop at every boundary before
/// `upto` and checkpoint synchronously there.
fn reference_run(policy: ExecutionPolicy, path: &Path, every_k: u64, upto: usize) -> NektarG {
    let mut ng = small_metasolver().with_policy(policy);
    for step in boundaries(&ng.progression, every_k, upto) {
        ng.run_to(step, None, None).unwrap();
        ng.checkpoint_rotating(path).unwrap();
    }
    ng
}

fn assert_same_generations(a: &Path, b: &Path, what: &str) {
    for (x, y) in [
        (a.to_path_buf(), b.to_path_buf()),
        (prev_path(a), prev_path(b)),
    ] {
        let (fx, fy) = (std::fs::read(&x).unwrap(), std::fs::read(&y).unwrap());
        assert!(
            fx == fy,
            "{what}: {} differs from {}",
            x.display(),
            y.display()
        );
        SnapshotFile::from_image(fx).unwrap();
    }
    assert!(!tmp_sibling(a).exists(), "{what}: temp file left behind");
}

#[test]
fn the_thread_census_sees_a_named_thread() {
    let _one = serial();
    assert_eq!(committer_threads(), 0);
    if !Path::new("/proc/self/task").exists() {
        return;
    }
    let (hold, held) = std::sync::mpsc::channel::<()>();
    let (up, is_up) = std::sync::mpsc::channel();
    let t = std::thread::Builder::new()
        .name(COMMITTER_THREAD.into())
        .spawn(move || {
            up.send(()).unwrap();
            let _ = held.recv();
        })
        .unwrap();
    is_up.recv().unwrap();
    assert_eq!(committer_threads(), 1);
    drop(hold);
    t.join().unwrap();
    assert_committer_joined("census self-test");
}

/// A file PR 12's build wrote still restores, and the state it restores
/// to encodes back into the very same bytes: the single-image writer
/// changed no byte of the format.
#[test]
fn parent_snapshot_restores_and_reencodes_byte_for_byte() {
    let _one = serial();
    let fixture: &[u8] = include_bytes!("fixtures/parent_5ad2613.nkgc");
    let dir = scratch("fixture");
    let old = dir.join("old.nkgc");
    std::fs::write(&old, fixture).unwrap();
    let mut ng = NektarG::resume(small_metasolver, &old).unwrap();
    assert_eq!(ng.report.ns_steps, 4);
    assert_eq!(ng.report.exchanges, 2);
    let new = dir.join("new.nkgc");
    assert_eq!(ng.checkpoint(&new).unwrap(), fixture.len() as u64);
    assert!(
        std::fs::read(&new).unwrap() == fixture,
        "re-encoded snapshot differs"
    );
    // And the restored run is a live one.
    assert_eq!(ng.run_to(6, None, None).unwrap().ns_steps, 6);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `run_to` with a policy is a loop of synchronous `checkpoint_rotating`
/// calls as far as the disk can tell — primary and `.prev`, Serial and
/// Overlapped, 1 and 2 pool threads — and its committer is gone when it
/// returns.
#[test]
fn committed_files_equal_a_synchronous_checkpoint_loop() {
    let _one = serial();
    let (steps, every_k) = (10, 1);
    for policy in [ExecutionPolicy::Serial, ExecutionPolicy::Overlapped] {
        for threads in [1usize, 2] {
            let what = format!("{policy:?} x {threads} threads");
            let dir = scratch("equiv");
            let (path, ref_path) = (dir.join("run.nkgc"), dir.join("ref.nkgc"));
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                let mut ng = small_metasolver().with_policy(policy);
                let report = ng
                    .run_to(steps, Some(&CheckpointPolicy::new(&path, every_k)), None)
                    .unwrap();
                assert_committer_joined(&what);
                let mut reference = reference_run(policy, &ref_path, every_k, steps);
                assert_eq!(boundaries(&reference.progression, every_k, steps).len(), 4);
                assert_eq!(
                    report,
                    reference.run_to(steps, None, None).unwrap(),
                    "{what}"
                );
            });
            assert_same_generations(&path, &ref_path, &what);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Killed right after the exchange that follows a checkpoint: the commit
/// is in flight when the kill fires, and is on disk when `run_to` says so.
#[test]
fn a_kill_waits_for_the_commit_in_flight() {
    let _one = serial();
    for policy in [ExecutionPolicy::Serial, ExecutionPolicy::Overlapped] {
        let dir = scratch("kill");
        let (path, ref_path) = (dir.join("run.nkgc"), dir.join("ref.nkgc"));
        let mut ng = small_metasolver().with_policy(policy);
        // Exchanges at steps 0, 2, 4: the third follows the checkpoint
        // taken at the top of step 4.
        let err = ng
            .run_to(
                10,
                Some(&CheckpointPolicy::new(&path, 1)),
                Some(&FaultPlan::kill_after(3)),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            RunError::Killed {
                exchanges: 3,
                ns_step: 4
            }
        ));
        assert_committer_joined("killed");
        reference_run(policy, &ref_path, 1, 5);
        assert_same_generations(&path, &ref_path, &format!("{policy:?} killed"));
        let resumed = NektarG::resume(small_metasolver, &path).unwrap();
        assert_eq!(resumed.report.ns_steps, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The checkpoint directory disappears between two `run_to` calls. The
/// first commit of the second call fails on the committer thread; the
/// error comes back at the next boundary — one interval later — or, when
/// the run ends first, from the return.
#[test]
fn a_vanished_directory_is_a_ckpt_error_within_one_interval() {
    let _one = serial();
    for (target, stops_at) in [(12, 6), (5, 5)] {
        let dir = scratch("vanish");
        let path = dir.join("sub").join("run.nkgc");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let policy = CheckpointPolicy::new(&path, 1);
        let mut ng = small_metasolver().with_policy(ExecutionPolicy::Overlapped);
        ng.run_to(4, Some(&policy), None).unwrap();
        assert!(SnapshotFile::read_from(&path).is_ok());
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
        // Boundaries at steps 4, 6, 8, ...: the commit of step 4 fails.
        let err = ng.run_to(target, Some(&policy), None).unwrap_err();
        assert!(
            matches!(err, RunError::Ckpt(CkptError::Io(_))),
            "expected an I/O checkpoint error, got {err}"
        );
        assert_eq!(ng.report.ns_steps, stops_at);
        assert_committer_joined("vanished directory");
        assert!(
            !path.parent().unwrap().exists(),
            "nothing may recreate the directory"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The rotation target is occupied by a directory: the second checkpoint
/// cannot rotate. The run reports it, the first generation is still the
/// valid primary, and no temp file was left next to it.
#[test]
fn a_failed_rotation_keeps_the_last_good_snapshot() {
    let _one = serial();
    let dir = scratch("rotation");
    let path = dir.join("run.nkgc");
    std::fs::create_dir_all(prev_path(&path).join("occupied")).unwrap();
    let mut ng = small_metasolver();
    let err = ng
        .run_to(12, Some(&CheckpointPolicy::new(&path, 1)), None)
        .unwrap_err();
    assert!(matches!(err, RunError::Ckpt(CkptError::Io(_))), "got {err}");
    // Checkpoints at steps 2 (lands) and 4 (fails, reported at step 6).
    assert_eq!(ng.report.ns_steps, 6);
    assert_committer_joined("failed rotation");
    assert!(!tmp_sibling(&path).exists());
    let survivor = NektarG::resume(small_metasolver, &path).unwrap();
    assert_eq!(survivor.report.ns_steps, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One interpolated y-row copied across the z-slabs equals evaluating the
/// continuum at every bin midpoint, bit for bit — for one slab and four,
/// on a moving continuum, and again after a checkpoint restore.
#[test]
fn one_row_exchange_equals_per_bin_evaluation() {
    let _one = serial();
    for nz in [1usize, 4] {
        let make = || scenario((5, nz)).build().atomistic;
        let mut continuum = scenario((5, nz)).build().continuum;
        let vf = make().embedding.scaling.velocity_factor();
        let check = |d: &AtomisticDomain, continuum: &Multipatch2d, what: &str| {
            let targets = &d.sim.open_x.as_ref().unwrap().target;
            assert_eq!(d.bin_midpoints_ns.len(), 5 * nz);
            assert_eq!(targets.len(), 5 * nz);
            for (t, &[x, y]) in targets.iter().zip(&d.bin_midpoints_ns) {
                let (u, v) = continuum.eval_velocity(x, y).unwrap();
                for (got, want) in t.iter().zip([u * vf, v * vf, 0.0]) {
                    assert_eq!(got.to_bits(), want.to_bits(), "nz={nz} {what}");
                }
            }
        };
        let mut d = make();
        for round in 0..3 {
            for _ in 0..3 {
                continuum.step();
            }
            d.exchange_from_continuum(&continuum);
            check(&d, &continuum, &format!("round {round}"));
            for _ in 0..4 {
                d.sim.step();
            }
        }
        assert!(d
            .sim
            .open_x
            .as_ref()
            .unwrap()
            .target
            .iter()
            .any(|t| t[0] != 0.0));

        let mut restored = make();
        restore_bytes(&mut restored, &snapshot_bytes(&d)).unwrap();
        continuum.step();
        d.exchange_from_continuum(&continuum);
        restored.exchange_from_continuum(&continuum);
        check(&restored, &continuum, "after restore");
        assert_eq!(
            d.latest_continuity_error().map(f64::to_bits),
            restored.latest_continuity_error().map(f64::to_bits)
        );
        assert_eq!(snapshot_bytes(&d), snapshot_bytes(&restored));
    }
}
