//! Composed chaos: transport faults, a scripted process kill, and a
//! corrupted rank checkpoint in ONE replicated run (ISSUE 8 satellite).
//!
//! The scenario stacks every fault class the runtime knows:
//!
//! * a **dropped** status frame (master → driver, window 1) — degrades
//!   window 1 to a transient hold-last-value;
//! * a **scripted kill** of the master at its window-2 report — forces
//!   the failover rung (no supervision here: thread-mode ranks cannot
//!   respawn, so the ladder must promote);
//! * **duplicated** control frames on the driver → standby flow — must be
//!   bitwise invisible thanks to sequence dedup;
//! * a **pre-corrupted checkpoint** under the master's rank-scoped path
//!   (and a checkpoint cadence that never overwrites it) — the promoted
//!   replica's resume must fail, silently rebuild from scratch, and
//!   *report* the fallback.
//!
//! Asserted: the exact degradation-event sequence, the recovered windows
//! bitwise against a serial reference, and the promoted replica's physics
//! bitwise — identically on the in-proc and UDS transports.

use nektarg::coupling::failover::{
    driver_outcome, replica_report, run_replicated, DegradationEvent, FailoverConfig,
};
use nektarg::coupling::{NektarG, Scenario};
use nektarg::mci::{Backend, FaultPlan, MsgAction, MsgMatcher, Pick, Universe};
use std::path::PathBuf;
use std::time::Duration;

const TOTAL_STEPS: usize = 12;
const N_REPLICAS: usize = 3;
const TRACE_WIDTH: usize = 6;
/// `TAG_STATUS_BASE + replica` from the failover protocol.
const STATUS_TAG_R0: nektarg::mci::Tag = 0x4000;

fn small_metasolver() -> NektarG {
    Scenario::small().build()
}

fn ckpt_base(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("nkg_chaos_integration");
    std::fs::create_dir_all(&dir).unwrap();
    for r in 0..N_REPLICAS {
        let p = nektarg::ckpt::rank_path(&dir.join(format!("{tag}.nkgc")), r);
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(nektarg::ckpt::prev_path(&p));
    }
    dir.join(format!("{tag}.nkgc"))
}

/// The per-window status-frame physics of a fault-free serial run: the
/// last continuity / mismatch / census values after each exchange window.
fn serial_window_trace() -> Vec<Vec<f64>> {
    let mut ng = small_metasolver();
    let every = ng.progression.exchange_every;
    let windows = ng.progression.num_exchanges(TOTAL_STEPS);
    (1..=windows)
        .map(|w| {
            ng.run_to((w * every).min(TOTAL_STEPS), None, None).unwrap();
            let r = &ng.report;
            let c = r.platelet_census.last().copied().unwrap_or((0, 0, 0, 0));
            vec![
                r.continuity.last().copied().unwrap_or(0.0),
                r.patch_mismatch.last().copied().unwrap_or(0.0),
                c.0 as f64,
                c.1 as f64,
                c.2 as f64,
                c.3 as f64,
            ]
        })
        .collect()
}

fn composed_chaos_on(backend: Backend, tag: &str) {
    let serial = serial_window_trace();
    let mut serial_ng = small_metasolver();
    let serial_report = serial_ng.run(TOTAL_STEPS);

    let base = ckpt_base(tag);
    // Pre-corrupt the master's rank-scoped checkpoint; a cadence of 10
    // exchanges over a 3-window run guarantees nothing overwrites it, so
    // the promoted replica MUST trip over it on resume.
    std::fs::write(nektarg::ckpt::rank_path(&base, 0), b"NOT A CHECKPOINT").unwrap();

    let plan = FaultPlan::new()
        // Master's window-2 report is its 2nd post: die mid-exchange.
        .kill_rank(1, 2)
        // Drop the master's window-1 report: transient hold, no failover.
        .with_rule(
            MsgMatcher::flow(1, 0).with_tag(STATUS_TAG_R0),
            Pick::Nth(1),
            MsgAction::Drop,
        )
        // Duplicate every driver→standby control frame: dedup must make
        // this bitwise invisible.
        .with_rule(MsgMatcher::flow(0, 2), Pick::Always, MsgAction::Duplicate);

    let cfg = FailoverConfig {
        status_deadline: Duration::from_secs(5),
        ctrl_deadline: Duration::from_secs(120),
        every_k_exchanges: 10,
        ..FailoverConfig::new(N_REPLICAS, TOTAL_STEPS, base)
    };
    let u = Universe::new(N_REPLICAS + 1)
        .with_backend(backend)
        .with_fault_plan(plan);
    let run = run_replicated(&u, cfg, small_metasolver);

    assert_eq!(run.dead, vec![1], "exactly the master rank dies");
    assert!(run.stats.rule_fired[0] >= 1, "the drop fired");
    assert!(run.stats.rule_fired[1] >= 1, "the duplicates fired");

    // The exact degradation sequence, all fault classes visible.
    let driver = driver_outcome(&run);
    assert_eq!(
        driver.events,
        vec![
            DegradationEvent::HeldLastValue { window: 1 },
            DegradationEvent::HeldLastValue { window: 2 },
            DegradationEvent::Failover {
                window: 2,
                from: 0,
                to: 1
            },
            DegradationEvent::CorruptSnapshotFallback {
                window: 2,
                replica: 1
            },
            DegradationEvent::Recovered { window: 2 },
        ],
        "backend {}",
        backend.name()
    );
    assert!(driver.error.is_none(), "the run must survive the pile-up");
    assert!(driver.time_to_recover.is_some());
    assert_eq!(driver.active_master, 1);

    // Window 1 was held with nothing before it (the documented bound);
    // windows 2 and 3 are bitwise exact despite kill + corrupt snapshot.
    assert_eq!(driver.trace.len(), 3);
    assert_eq!(driver.trace[0], vec![0.0; TRACE_WIDTH]);
    for w in [1usize, 2] {
        for (a, b) in driver.trace[w].iter().zip(&serial[w]) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "window {} diverged on {}",
                w + 1,
                backend.name()
            );
        }
    }

    // The promoted replica rebuilt from scratch (corrupt snapshot), and
    // says so — physics still bitwise.
    let promoted = replica_report(&run, 1).unwrap();
    assert_eq!(promoted.snapshot_fallbacks, vec![2]);
    assert_eq!(promoted.failovers, vec![(2, 0, 1)]);
    assert_eq!(promoted.held_exchanges, vec![2]);
    assert!(promoted.physics_matches(&serial_report));

    // The duplicated-ctrl standby never noticed anything: bitwise clone
    // of the serial run.
    let standby = replica_report(&run, 2).unwrap();
    assert_eq!(standby, &serial_report);
}

#[test]
fn composed_chaos_inproc() {
    composed_chaos_on(Backend::InProc, "inproc");
}

#[test]
fn composed_chaos_uds() {
    composed_chaos_on(Backend::Uds, "uds");
}
