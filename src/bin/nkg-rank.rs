//! `nkg-rank`: one rank of a multi-process MCI run.
//!
//! Launched by `Universe::spawn_processes`, which passes the rank, world
//! size, hub endpoint, and program name through `NKG_*` environment
//! variables (see `nkg_net::endpoint`). Carries the built-in smoke and
//! fault-scenario programs plus `coupled_failover`: a full replicated
//! metasolver run — driver on rank 0, hot-standby replicas elsewhere —
//! so the paper's failover path can be exercised with every rank in its
//! own OS process.
//!
//! Also carries `coupled_restart`: the zero-standby sharded variant —
//! each worker rank computes its own shard and is the sole master of its
//! flow; a dead worker is respawned by the launcher's supervision policy
//! and resumes in place from its own rank-scoped checkpoint
//! (`run_shard_role`).
//!
//! Extra knobs (all optional unless noted):
//! * `NKG_CKPT_BASE` — shared checkpoint base path (required by
//!   `coupled_failover` / `coupled_restart`; must be identical across
//!   ranks — resume restores rank-scoped snapshots from it).
//! * `NKG_TOTAL_STEPS` — continuum steps (default 12 → 3 exchange
//!   windows).
//! * `NKG_RESTART_GRACE_MS` — how long the driver waits for a dead
//!   rank's respawn to rejoin before giving up (default 30000).
//! * `NKG_DIE_AT` — scripted deaths for `coupled_restart`, as
//!   comma-separated `replica:window:incarnation` triples; the matching
//!   worker aborts after computing that window, before reporting it.
//! * `NKG_VICTIM` / `NKG_CRASH_BEFORE_CONNECT` — see `nkg_mci::worker`.
//! * `NKG_POOL_WIDTH` — per-rank rayon pool width, set by the launcher's
//!   topology placement (host cores ÷ co-located ranks); honored unless
//!   `RAYON_NUM_THREADS` is set explicitly. Probe it with the
//!   `pool_width` program, which reports the effective thread count.

use nektarg::coupling::failover::{run_role_resumed, run_shard_role, FailoverConfig, RankOutcome};
use nektarg::coupling::Scenario;
use nektarg::mci::worker::{worker_main, Registry};
use nektarg::mci::Comm;
use std::path::PathBuf;
use std::time::Duration;

/// Replicated metasolver run across processes. Result frame layout:
/// driver → `[0, windows, n_events, active_master, trace...]` (row-major
/// `TRACE_WIDTH`-wide windows); replica → `[1, held, failovers]`.
///
/// With `NKG_RESTART_GRACE_MS` set the driver's degradation ladder gains
/// the restart-in-place rung (supervised respawns resume themselves
/// before any standby is promoted); `NKG_DIE_AT` scripts the deaths.
/// Without them the behavior is exactly the pre-supervision protocol.
fn coupled_failover(comm: Comm) -> Vec<f64> {
    let total_steps: usize = std::env::var("NKG_TOTAL_STEPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12);
    let ckpt_base = PathBuf::from(
        std::env::var("NKG_CKPT_BASE")
            .expect("coupled_failover needs NKG_CKPT_BASE (shared across ranks)"),
    );
    let cfg = FailoverConfig {
        status_deadline: Duration::from_secs(5),
        ctrl_deadline: Duration::from_secs(120),
        restart_grace: std::env::var("NKG_RESTART_GRACE_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .map(Duration::from_millis),
        die_at: parse_die_at(&std::env::var("NKG_DIE_AT").unwrap_or_default()),
        ..FailoverConfig::new(comm.size() - 1, total_steps, ckpt_base)
    };
    // The small system the fault-integration suite drives in-process:
    // one description, so every replica process builds a bitwise clone.
    let small = Scenario::small();
    match run_role_resumed(&comm, &cfg, incarnation_from_env(), || small.build()) {
        RankOutcome::Driver(d) => {
            let mut out = vec![
                0.0,
                d.trace.len() as f64,
                d.events.len() as f64,
                d.active_master as f64,
            ];
            for window in &d.trace {
                out.extend(window.iter().copied());
            }
            out
        }
        RankOutcome::Replica(r) => {
            vec![1.0, r.held_exchanges.len() as f64, r.failovers.len() as f64]
        }
        RankOutcome::ShardedDriver(_) => unreachable!("run_role never shards"),
    }
}

/// Shard `s` of the sharded coupled run: the small system with a
/// per-shard DPD seed, so each flow is distinct but deterministic — a
/// respawned shard reconstructs a bitwise clone of its predecessor.
fn shard(s: usize) -> Scenario {
    Scenario {
        seed: 31 + s as u64,
        ..Scenario::small()
    }
}

/// This worker's incarnation number (0 on first launch; the supervisor
/// sets `NKG_INCARNATION` on respawns).
fn incarnation_from_env() -> u64 {
    std::env::var(nektarg::net::endpoint::ENV_INCARNATION)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// `NKG_DIE_AT` — comma-separated `replica:window:incarnation` triples.
fn parse_die_at(spec: &str) -> Vec<(usize, u64, u64)> {
    spec.split(',')
        .filter(|p| !p.trim().is_empty())
        .map(|p| {
            let mut it = p.trim().split(':');
            let mut num = || -> u64 {
                it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    panic!("NKG_DIE_AT: bad triple {p:?} (want replica:window:incarnation)")
                })
            };
            let (r, w, i) = (num(), num(), num());
            (r as usize, w, i)
        })
        .collect()
}

/// Sharded zero-standby metasolver run across processes, with supervised
/// restart-in-place as the recovery rung. Result frame layout:
/// driver → `[2, n_flows, windows, width, (n_events, lost)×flows,
/// traces...]` (per-flow row-major `width`-wide windows, flows in order);
/// worker → `[1, held, failovers, rejoins, snapshot_fallbacks]`.
fn coupled_restart(comm: Comm) -> Vec<f64> {
    let total_steps: usize = std::env::var("NKG_TOTAL_STEPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12);
    let ckpt_base = PathBuf::from(
        std::env::var("NKG_CKPT_BASE")
            .expect("coupled_restart needs NKG_CKPT_BASE (shared across ranks)"),
    );
    let grace_ms: u64 = std::env::var("NKG_RESTART_GRACE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(30_000);
    let die_at = parse_die_at(&std::env::var("NKG_DIE_AT").unwrap_or_default());
    let cfg = FailoverConfig {
        status_deadline: Duration::from_secs(5),
        ctrl_deadline: Duration::from_secs(120),
        restart_grace: Some(Duration::from_millis(grace_ms)),
        die_at,
        ..FailoverConfig::new(comm.size() - 1, total_steps, ckpt_base)
    };
    match run_shard_role(&comm, &cfg, incarnation_from_env(), |s| shard(s).build()) {
        RankOutcome::ShardedDriver(flows) => {
            let windows = flows.first().map_or(0, |f| f.trace.len());
            let width = flows
                .first()
                .and_then(|f| f.trace.first())
                .map_or(0, Vec::len);
            let mut out = vec![2.0, flows.len() as f64, windows as f64, width as f64];
            for f in &flows {
                out.push(f.events.len() as f64);
                out.push(if f.error.is_some() { 1.0 } else { 0.0 });
            }
            for f in &flows {
                for window in &f.trace {
                    out.extend(window.iter().copied());
                }
            }
            out
        }
        RankOutcome::Replica(r) => vec![
            1.0,
            r.held_exchanges.len() as f64,
            r.failovers.len() as f64,
            r.rejoins.len() as f64,
            r.snapshot_fallbacks.len() as f64,
        ],
        RankOutcome::Driver(_) => unreachable!("run_shard_role never replicates"),
    }
}

/// Placement probe: the effective rayon pool width this rank computes
/// with, as the launcher's `NKG_POOL_WIDTH` placement (or an explicit
/// `RAYON_NUM_THREADS`) resolved it.
fn pool_width(_comm: Comm) -> Vec<f64> {
    vec![rayon::current_num_threads() as f64]
}

fn main() {
    let mut reg = Registry::with_builtins();
    reg.register("coupled_failover", coupled_failover);
    reg.register("coupled_restart", coupled_restart);
    reg.register("pool_width", pool_width);
    std::process::exit(worker_main(&reg));
}
