//! Supervised rank resurrection across real process boundaries.
//!
//! The headline guarantee (ISSUE 8 acceptance): a 4-process run — one
//! driver plus three shard workers, **zero standby replicas** — survives
//! two scripted mid-run worker deaths. The launcher's supervision policy
//! respawns each dead rank under its deterministic backoff schedule, the
//! respawn rejoins the universe with the next incarnation number, resumes
//! from its own rank-scoped checkpoint, replays forward, and re-exchanges
//! the missed window. The driver's final per-flow traces are **bitwise
//! identical** to the fault-free run.
//!
//! The suite also pins down the supervision edges: scripted kills (exit
//! 86) are a plan, never respawned; the restart budget is enforced and an
//! exhausted ladder is a typed `RunLost`, not a crash; and the replicated
//! (hot-standby) driver prefers restart-in-place over promotion when a
//! grace is configured.
//!
//! Run on a socket backend (`NKG_TRANSPORT=uds` is the check.sh leg; TCP
//! works too — in-proc cannot host processes and falls back to UDS
//! here).

use nektarg::mci::{Backend, FaultPlan, ProcessOptions, ProcessRun, RestartPolicy, Universe};
use std::path::PathBuf;
use std::time::Duration;

const SHARDS: usize = 3;
const WINDOWS: usize = 3; // 12 continuum steps, exchange every 4

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_nkg-rank"))
}

/// The socket backend under test: whatever `NKG_TRANSPORT` names, with
/// the thread-only backends mapped to UDS (processes need a socket).
fn backend() -> Backend {
    match Backend::from_env() {
        Backend::Tcp => Backend::Tcp,
        _ => Backend::Uds,
    }
}

/// A fresh shared checkpoint base for one test, with any rank-scoped
/// generations from previous runs scrubbed.
fn ckpt_base(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("nkg_respawn_integration");
    std::fs::create_dir_all(&dir).unwrap();
    for r in 0..SHARDS {
        let p = nektarg::ckpt::rank_path(&dir.join(format!("{tag}.nkgc")), r);
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(nektarg::ckpt::prev_path(&p));
    }
    dir.join(format!("{tag}.nkgc"))
}

/// The suite's restart policy: tight backoff so tests stay fast, a fixed
/// jitter seed so every delay is exactly predictable.
fn policy() -> RestartPolicy {
    RestartPolicy {
        max_restarts: 2,
        base_backoff: Duration::from_millis(50),
        max_backoff: Duration::from_secs(1),
        jitter_seed: 7,
    }
}

/// Launch `program` on `1 + SHARDS` processes with the given scripted
/// deaths and (optionally) the supervision policy.
fn run_coupled(
    program: &str,
    tag: &str,
    die_at: &str,
    policy: Option<RestartPolicy>,
) -> ProcessRun {
    let mut env = vec![
        (
            "NKG_CKPT_BASE".to_string(),
            ckpt_base(tag).to_string_lossy().into_owned(),
        ),
        ("NKG_RESTART_GRACE_MS".to_string(), "20000".to_string()),
    ];
    if !die_at.is_empty() {
        env.push(("NKG_DIE_AT".to_string(), die_at.to_string()));
    }
    let mut u = Universe::new(1 + SHARDS)
        .with_backend(backend())
        .with_recv_timeout(Duration::from_secs(120));
    if let Some(p) = policy {
        u = u.with_restart_policy(p);
    }
    u.spawn_processes(&ProcessOptions {
        worker: worker_bin(),
        program: program.to_string(),
        env,
    })
}

/// Decode the sharded driver frame:
/// `[2, n_flows, windows, width, (n_events, lost)×flows, traces...]`.
/// Returns per-flow `(n_events, lost)` plus the flat trace block.
fn parse_sharded_driver(frame: &[f64]) -> (Vec<(usize, bool)>, Vec<f64>) {
    assert_eq!(frame[0], 2.0, "not a sharded driver frame");
    let flows = frame[1] as usize;
    let windows = frame[2] as usize;
    let width = frame[3] as usize;
    assert_eq!(flows, SHARDS);
    assert_eq!(windows, WINDOWS);
    let head = 4 + 2 * flows;
    let meta = (0..flows)
        .map(|f| (frame[4 + 2 * f] as usize, frame[5 + 2 * f] != 0.0))
        .collect();
    let traces = frame[head..].to_vec();
    assert_eq!(traces.len(), flows * windows * width);
    (meta, traces)
}

/// The acceptance run: two scripted mid-run deaths (shard 0 at window 2,
/// shard 2 at window 1), zero standby replicas, supervised respawn with
/// a seeded backoff. The run completes, both deaths are healed in place,
/// and the driver's traces are bitwise identical to the fault-free run.
#[test]
fn two_scripted_deaths_heal_bitwise_with_zero_standbys() {
    // Fault-free reference.
    let clean = run_coupled("coupled_restart", "restart_clean", "", Some(policy()));
    assert!(
        clean.failures.is_empty(),
        "clean run failed: {:?}",
        clean.failures
    );
    assert!(clean.dead.is_empty());
    assert!(
        clean.restarts.is_empty(),
        "clean run must not respawn anyone"
    );
    let (clean_meta, clean_traces) =
        parse_sharded_driver(clean.results[0].as_ref().expect("driver completed"));
    assert!(clean_meta.iter().all(|&(e, lost)| e == 0 && !lost));

    // Two kills: shard 0 dies after computing window 2, shard 2 after
    // window 1 — both before reporting, both in their first incarnation.
    let run = run_coupled(
        "coupled_restart",
        "restart_kill",
        "0:2:0,2:1:0",
        Some(policy()),
    );
    assert!(run.failures.is_empty(), "failures: {:?}", run.failures);
    assert!(
        run.dead.is_empty(),
        "both killed ranks must be resurrected: {:?}",
        run.dead
    );

    // The supervision log: exactly the two scripted deaths, respawned as
    // incarnation 1 each, after exactly the policy's deterministic delay.
    let mut restarts = run.restarts.clone();
    restarts.sort_by_key(|r| r.rank);
    assert_eq!(restarts.len(), 2, "restarts: {restarts:?}");
    assert_eq!(
        restarts.iter().map(|r| r.rank).collect::<Vec<_>>(),
        vec![1, 3],
        "world ranks of shards 0 and 2"
    );
    for r in &restarts {
        assert_eq!(r.incarnation, 1);
        assert_eq!(
            r.delay,
            policy().delay(r.rank, 1),
            "backoff must follow the seeded schedule exactly"
        );
    }

    // Driver view: the two wounded flows each record held → restart →
    // recovered (3 events); the untouched flow records nothing; no flow
    // was lost.
    let (meta, traces) = parse_sharded_driver(run.results[0].as_ref().unwrap());
    assert_eq!(
        meta.iter().map(|&(e, _)| e).collect::<Vec<_>>(),
        vec![3, 0, 3]
    );
    assert!(meta.iter().all(|&(_, lost)| !lost));

    // Bitwise: every flow's every window, against the fault-free run.
    assert_eq!(traces.len(), clean_traces.len());
    for (i, (a, b)) in traces.iter().zip(&clean_traces).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "driver trace diverged at flat index {i}"
        );
    }

    // Worker views: the resurrected shards each rejoined once and held
    // one window; nobody was promoted (zero failovers) and no snapshot
    // was corrupt.
    for (s, want_rejoins) in [(0usize, 1.0), (1, 0.0), (2, 1.0)] {
        let r = run.results[1 + s].as_ref().expect("worker completed");
        assert_eq!(r[0], 1.0);
        assert_eq!(r[1], want_rejoins, "shard {s} held windows");
        assert_eq!(r[2], 0.0, "shard {s} must never fail over");
        assert_eq!(r[3], want_rejoins, "shard {s} rejoin count");
        assert_eq!(r[4], 0.0, "shard {s} snapshot fallbacks");
    }
}

/// One shard dies twice (incarnations 0 and 1): the supervision log shows
/// the capped exponential backoff growing between attempts, bit-exactly
/// reproducing the seeded schedule, and the flow still ends exact.
#[test]
fn repeated_deaths_follow_the_seeded_backoff_schedule() {
    let run = run_coupled(
        "coupled_restart",
        "restart_backoff",
        "1:1:0,1:2:1",
        Some(policy()),
    );
    assert!(run.failures.is_empty(), "failures: {:?}", run.failures);
    assert!(run.dead.is_empty());
    let r = &run.restarts;
    assert_eq!(r.len(), 2, "restarts: {r:?}");
    assert!(
        r.iter().all(|e| e.rank == 2),
        "only shard 1 (world rank 2) dies"
    );
    assert_eq!(r[0].incarnation, 1);
    assert_eq!(r[1].incarnation, 2);
    assert_eq!(r[0].delay, policy().delay(2, 1));
    assert_eq!(r[1].delay, policy().delay(2, 2));
    assert!(
        r[1].delay >= 2 * policy().base_backoff,
        "second attempt must back off at least twice the base"
    );
    // The final incarnation rejoined once (its own view); the flow never
    // failed over and was not lost.
    let worker = run.results[2].as_ref().expect("shard 1 completed");
    assert_eq!(worker[3], 1.0, "incarnation 2 rejoined once");
    let (meta, _) = parse_sharded_driver(run.results[0].as_ref().unwrap());
    assert_eq!(meta[1].0, 6, "two held/restart/recovered triples");
    assert!(!meta[1].1);
}

/// A scripted kill (exit 86) is a *plan*, not a failure: the supervisor
/// must never respawn it even with a generous policy installed.
#[test]
fn scripted_kill_is_never_respawned() {
    let u = Universe::new(2)
        .with_backend(backend())
        .with_recv_timeout(Duration::from_secs(60))
        .with_fault_plan(FaultPlan::new().kill_rank(1, 2))
        .with_restart_policy(policy());
    let run = u.spawn_processes(&ProcessOptions {
        worker: worker_bin(),
        program: "sender".to_string(),
        env: vec![],
    });
    assert_eq!(run.dead, vec![1]);
    assert!(
        run.restarts.is_empty(),
        "scripted kills must not be resurrected: {:?}",
        run.restarts
    );
    assert!(run.failures.is_empty(), "a scripted kill is not a failure");
    assert_eq!(run.results[0].as_ref().unwrap(), &vec![1.0]);
}

/// Budget exhaustion bottoms the ladder out as a typed outcome: shard 0
/// dies in both of its allowed incarnations under a 1-restart budget, the
/// driver's grace expires with nobody to resurrect and nobody to promote
/// (zero standbys), and the flow is reported *lost* — padded trace, no
/// panic — while the other flows finish exact.
#[test]
fn exhausted_restart_budget_reports_run_lost() {
    let tight = RestartPolicy {
        max_restarts: 1,
        ..policy()
    };
    let env = vec![
        (
            "NKG_CKPT_BASE".to_string(),
            ckpt_base("restart_lost").to_string_lossy().into_owned(),
        ),
        // Short grace: the final death has no respawn coming, and the
        // driver should give the flow up quickly.
        ("NKG_RESTART_GRACE_MS".to_string(), "2000".to_string()),
        ("NKG_DIE_AT".to_string(), "0:1:0,0:2:1".to_string()),
    ];
    let u = Universe::new(1 + SHARDS)
        .with_backend(backend())
        .with_recv_timeout(Duration::from_secs(120))
        .with_restart_policy(tight);
    let run = u.spawn_processes(&ProcessOptions {
        worker: worker_bin(),
        program: "coupled_restart".to_string(),
        env,
    });

    // One respawn happened (incarnation 1), then the budget was spent.
    assert_eq!(run.restarts.len(), 1, "restarts: {:?}", run.restarts);
    assert_eq!(run.restarts[0].rank, 1);
    assert_eq!(run.restarts[0].incarnation, 1);
    // The rank's final incarnation died for real: reported dead + failed.
    assert_eq!(run.dead, vec![1]);
    assert_eq!(run.failures.len(), 1);
    assert_eq!(run.failures[0].0, 1);

    // The driver survived with a typed loss on flow 0 only, and every
    // trace is still full-length.
    let (meta, traces) = parse_sharded_driver(run.results[0].as_ref().unwrap());
    assert!(meta[0].1, "flow 0 must be reported lost");
    assert!(!meta[1].1 && !meta[2].1, "other flows stay exact");
    assert_eq!(traces.len() % (SHARDS * WINDOWS), 0);
}

/// The replicated (hot-standby) ladder prefers restart-in-place: with a
/// restart grace configured, a dead master is resumed in place and **no
/// standby is promoted** — `active_master` stays 0 and the trace is
/// bitwise identical to the fault-free replicated run.
#[test]
fn replicated_master_restarts_in_place_without_promotion() {
    let clean = run_coupled("coupled_failover", "replicated_clean", "", Some(policy()));
    assert!(clean.failures.is_empty(), "clean: {:?}", clean.failures);
    let clean_driver = clean.results[0].as_ref().expect("driver completed");
    assert_eq!(&clean_driver[..4], &[0.0, 3.0, 0.0, 0.0]);

    // Master (replica 0, world rank 1) dies after computing window 2.
    let run = run_coupled(
        "coupled_failover",
        "replicated_restart",
        "0:2:0",
        Some(policy()),
    );
    assert!(run.failures.is_empty(), "failures: {:?}", run.failures);
    assert!(run.dead.is_empty(), "the master must be resurrected");
    assert_eq!(run.restarts.len(), 1);
    assert_eq!(run.restarts[0].rank, 1);

    let driver = run.results[0].as_ref().unwrap();
    assert_eq!(driver[0], 0.0);
    assert_eq!(driver[1], 3.0, "three windows");
    assert_eq!(driver[2], 3.0, "held + restart-in-place + recovered");
    assert_eq!(driver[3], 0.0, "no promotion: replica 0 is still master");
    // Bitwise: the recovered trace equals the fault-free trace.
    assert_eq!(driver.len(), clean_driver.len());
    for (i, (a, b)) in driver[4..].iter().zip(&clean_driver[4..]).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "trace diverged at flat index {i}");
    }
    // The resurrected master held one window, never failed over.
    let master = run.results[1].as_ref().expect("master completed");
    assert_eq!(master, &vec![1.0, 1.0, 0.0]);
}
