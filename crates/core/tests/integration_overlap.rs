//! End-to-end determinism of the overlapped metasolver execution:
//! {Serial, Overlapped} × pool widths {1, 2, 8} must produce bitwise
//! identical reports and fields, and a run killed and resumed from its
//! checkpoint under the Overlapped policy must match the uninterrupted
//! serial reference bitwise.

use nkg_ckpt::{prev_path, FaultPlan};
use nkg_coupling::metasolver::{CheckpointPolicy, ExecutionPolicy, RunError, RunReport};
use nkg_coupling::{NektarG, Scenario};
use nkg_dpd::sim::BinSampler;

/// A 2-patch continuum with an embedded DPD domain and WPOD attached —
/// the full coupled data path at test scale.
fn make_metasolver(policy: ExecutionPolicy) -> NektarG {
    Scenario {
        wpod: Some((
            BinSampler::new(1, 6, 0, 2),
            nkg_wpod::window::WindowPod::new(4, 4, 2.0),
        )),
        policy,
        ..Scenario::small()
    }
    .build()
}

fn assert_state_bitwise(a: &NektarG, b: &NektarG, what: &str) {
    for (s1, s2) in a.continuum.patches.iter().zip(&b.continuum.patches) {
        for (x, y) in
            s1.u.iter()
                .zip(&s2.u)
                .chain(s1.v.iter().zip(&s2.v))
                .chain(s1.p.iter().zip(&s2.p))
        {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: continuum diverged");
        }
    }
    let (pa, pb) = (&a.atomistic.sim.particles, &b.atomistic.sim.particles);
    assert_eq!(pa.len(), pb.len(), "{what}: particle count diverged");
    let (ppa, ppb) = (pa.pos_aos(), pb.pos_aos());
    let (pva, pvb) = (pa.vel_aos(), pb.vel_aos());
    for (p, q) in ppa.iter().zip(&ppb).chain(pva.iter().zip(&pvb)) {
        for k in 0..3 {
            assert_eq!(p[k].to_bits(), q[k].to_bits(), "{what}: particles diverged");
        }
    }
    match (&a.last_wpod, &b.last_wpod) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            for (u, v) in x.eigenvalues.iter().zip(&y.eigenvalues) {
                assert_eq!(u.to_bits(), v.to_bits(), "{what}: WPOD diverged");
            }
        }
        _ => panic!("{what}: WPOD presence diverged"),
    }
}

fn run_with_threads(policy: ExecutionPolicy, threads: usize, steps: usize) -> (NektarG, RunReport) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    pool.install(|| {
        let mut ng = make_metasolver(policy);
        let report = ng.run(steps);
        (ng, report)
    })
}

/// The headline invariant: policy and pool width never change the answer.
#[test]
fn policies_and_thread_counts_agree_bitwise() {
    let (reference, ref_report) = run_with_threads(ExecutionPolicy::Serial, 1, 12);
    for policy in [ExecutionPolicy::Serial, ExecutionPolicy::Overlapped] {
        for threads in [1usize, 2, 8] {
            let (ng, report) = run_with_threads(policy, threads, 12);
            assert_eq!(
                report, ref_report,
                "report diverged for {policy:?} × {threads} threads"
            );
            assert_state_bitwise(&reference, &ng, &format!("{policy:?} × {threads} threads"));
        }
    }
}

/// Checkpoint compatibility across policies: kill an overlapped run,
/// resume it (still overlapped), and the composed run matches the
/// uninterrupted serial reference bitwise. Also the mirror-image
/// direction: a serial run's checkpoint resumes under Overlapped.
#[test]
fn overlapped_kill_resume_matches_serial_reference() {
    let dir = std::env::temp_dir().join("nkg_overlap_integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("overlap.nkgc");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(prev_path(&path));

    let mut reference = make_metasolver(ExecutionPolicy::Serial);
    let ref_report = reference.run(12);

    let mut victim = make_metasolver(ExecutionPolicy::Overlapped);
    let policy = CheckpointPolicy::new(&path, 1);
    let err = victim
        .run_to(12, Some(&policy), Some(&FaultPlan::kill_after(2)))
        .unwrap_err();
    assert!(matches!(err, RunError::Killed { exchanges: 2, .. }));

    // Resume under Overlapped: the snapshot (written by an overlapped
    // run) carries no policy or timing state, so any policy may continue.
    let mut resumed =
        NektarG::resume(|| make_metasolver(ExecutionPolicy::Overlapped), &path).unwrap();
    assert_eq!(resumed.report.ns_steps, 4);
    assert!(resumed.report.window_timings.is_empty());
    let res_report = resumed.run_to(12, None, None).unwrap();
    assert_eq!(res_report, ref_report, "overlapped resume diverged");
    assert_state_bitwise(&reference, &resumed, "overlapped kill/resume");

    // Serial checkpoint → overlapped resume.
    let path2 = dir.join("serial_to_overlap.nkgc");
    let _ = std::fs::remove_file(&path2);
    let _ = std::fs::remove_file(prev_path(&path2));
    let mut victim = make_metasolver(ExecutionPolicy::Serial);
    let policy = CheckpointPolicy::new(&path2, 1);
    victim
        .run_to(12, Some(&policy), Some(&FaultPlan::kill_after(2)))
        .unwrap_err();
    let mut resumed =
        NektarG::resume(|| make_metasolver(ExecutionPolicy::Overlapped), &path2).unwrap();
    let res_report = resumed.run_to(12, None, None).unwrap();
    assert_eq!(res_report, ref_report, "cross-policy resume diverged");
    assert_state_bitwise(&reference, &resumed, "serial→overlapped resume");
}
