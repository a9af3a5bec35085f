//! Replica failover for the coupled metasolver (paper Fig. 6 semantics,
//! made survivable).
//!
//! [`run_replicated`] runs one driver rank plus `n` replica ranks on an
//! MCI universe. Every replica advances an identical, deterministic
//! [`NektarG`] (hot standby) and writes rotating rank-scoped checkpoints;
//! the *master* replica additionally reports each exchange window's
//! interface physics to the driver. The driver is the continuum-side
//! consumer of those windows and, when one is missed, climbs down one
//! ladder (`Flow::advance`, DESIGN.md §9):
//!
//! 1. **Hold-last-value** — a late but live master costs one `τ` window on
//!    the previous window's boundary values, recorded as a degradation.
//! 2. **Restart-in-place** — under a supervision policy
//!    (`Universe::with_restart_policy`) a dead master is being respawned.
//!    The driver waits up to [`FailoverConfig::restart_grace`] for the new
//!    incarnation to rejoin, then orders it to resume from *its own*
//!    rank-scoped checkpoint, replay forward and re-exchange the held
//!    window. No standby is consumed.
//! 3. **Failover** — with no resurrection in time (or none configured)
//!    the lowest live replica is promoted: it resumes from the *dead
//!    master's* snapshot ([`nkg_ckpt::rank_path`]), re-runs the missed
//!    window and re-exchanges it.
//!
//! Either resume takes the primary snapshot or, when that is damaged or
//! missing, its `.prev` generation; when neither restores, the replica
//! rebuilds from scratch and replays the whole history, reported as a
//! [`DegradationEvent::CorruptSnapshotFallback`] (a rank that never
//! checkpointed is a fresh build, not a fallback).
//!
//! Because checkpoints are taken at the top of an exchange-boundary step
//! and every stochastic stream is counter-based, a recovered window is
//! bitwise identical to the fault-free run: the held value is overwritten
//! and the final trace carries no trace of the disaster. When the ladder
//! bottoms out the run is *lost* — a typed outcome
//! ([`FailoverError::RunLost`] in [`DriverOutcome::error`]), not a panic;
//! the trace is padded with the last held values so downstream consumers
//! keep their length invariants.
//!
//! [`run_shard_role`] is the zero-standby variant: rank `1 + s` computes
//! shard `s` and is the sole master of its own flow, so the ladder per
//! flow is hold → restart-in-place → lost.
//!
//! Degradations are recorded twice: in the driver's
//! [`DriverOutcome::events`] and in the affected replica's
//! [`RunReport::held_exchanges`] / [`RunReport::failovers`] /
//! [`RunReport::rejoins`] / [`RunReport::snapshot_fallbacks`].

use crate::metasolver::{CheckpointPolicy, NektarG, RunReport};
use nkg_ckpt::{prev_path, rank_path};
use nkg_mci::{Comm, FaultRun, RecvError, Tag, Universe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Status frames travel replica → driver on `TAG_STATUS_BASE + replica`.
const TAG_STATUS_BASE: Tag = 0x4000;
/// Control frames travel driver → replica on `TAG_CTRL_BASE + replica`.
const TAG_CTRL_BASE: Tag = 0x4100;

/// Physics values reported per exchange window (continuity error, patch
/// mismatch, 4-component platelet census).
const TRACE_WIDTH: usize = 6;

/// Status-frame flag: the reporting replica's resume found its snapshot
/// corrupt and silently rebuilt the solver from scratch.
const FLAG_CKPT_FALLBACK: u64 = 1;

/// Configuration of a replicated run.
#[derive(Debug, Clone)]
pub struct FailoverConfig {
    /// Number of replicas (the universe must have `n_replicas + 1` ranks:
    /// rank 0 drives, rank `1 + i` hosts replica `i`). In sharded mode
    /// ([`run_shard_role`]) this is the number of shards.
    pub n_replicas: usize,
    /// Continuum steps to advance in total.
    pub total_ns_steps: usize,
    /// Base snapshot path; replica `i` checkpoints to
    /// `rank_path(ckpt_base, i)`.
    pub ckpt_base: PathBuf,
    /// Checkpoint cadence in exchanges (see [`CheckpointPolicy`]).
    pub every_k_exchanges: u64,
    /// How long the driver waits for the master's window report before
    /// degrading to hold-last-value.
    pub status_deadline: Duration,
    /// How long a replica waits for the driver's control frame before
    /// declaring the run lost.
    pub ctrl_deadline: Duration,
    /// How long the driver waits for a dead master's supervised respawn
    /// to rejoin before falling through to promotion. `None` (the
    /// default) disables the restart rung entirely — the PR-3 ladder.
    pub restart_grace: Option<Duration>,
    /// Scripted deaths for fault drills: a replica whose
    /// `(replica_index, window, incarnation)` appears here aborts the
    /// process after computing that window, before reporting it.
    pub die_at: Vec<(usize, u64, u64)>,
}

impl FailoverConfig {
    /// Sensible test/demo defaults around a snapshot base path.
    pub fn new(n_replicas: usize, total_ns_steps: usize, ckpt_base: impl Into<PathBuf>) -> Self {
        Self {
            n_replicas,
            total_ns_steps,
            ckpt_base: ckpt_base.into(),
            every_k_exchanges: 1,
            // Wide enough that an honest replica's window compute never
            // trips it on a loaded machine; a dead master is detected via
            // `PeerDead` long before the deadline.
            status_deadline: Duration::from_secs(2),
            ctrl_deadline: Duration::from_secs(60),
            restart_grace: None,
            die_at: Vec::new(),
        }
    }
}

/// One recorded degradation of the coupling boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradationEvent {
    /// Window `window` missed its deadline; the previous window's boundary
    /// values were held for one `τ`.
    HeldLastValue {
        /// The 1-based exchange window that was held.
        window: u64,
    },
    /// A dead master's supervised respawn rejoined and was ordered to
    /// resume in place — no standby replica was consumed.
    RestartInPlace {
        /// The 1-based exchange window where the restart was ordered.
        window: u64,
        /// Replica index of the restarted master.
        replica: u64,
        /// The incarnation that rejoined.
        incarnation: u64,
    },
    /// The master was replaced at window `window`.
    Failover {
        /// The 1-based exchange window where the failover happened.
        window: u64,
        /// Replica index of the dead/late master.
        from: u64,
        /// Replica index of the promoted replica.
        to: u64,
    },
    /// A resuming replica found the snapshot it was ordered to restore
    /// corrupt and silently rebuilt the solver from scratch instead. The
    /// recovered physics is still bitwise exact (the rebuild replays the
    /// whole deterministic history), but the recovery cost the full
    /// replay rather than a restore.
    CorruptSnapshotFallback {
        /// The window whose recovery hit the fallback.
        window: u64,
        /// The replica that reported it.
        replica: u64,
    },
    /// A recovery's re-exchange arrived and overwrote the held value —
    /// the trace for `window` is exact again.
    Recovered {
        /// The re-exchanged window.
        window: u64,
    },
}

/// Typed failure of the degradation ladder — the run could not be kept
/// exact and could not even be kept degraded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailoverError {
    /// Every rung of the ladder was exhausted: the master is gone, no
    /// resurrection arrived within the grace, and no live replica
    /// remained to promote (or the promoted one never re-exchanged).
    RunLost {
        /// The 1-based window where the run was lost.
        window: u64,
        /// The master replica index at the point of loss.
        master: u64,
        /// Human-readable cause chain.
        detail: String,
    },
}

impl std::fmt::Display for FailoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailoverError::RunLost {
                window,
                master,
                detail,
            } => write!(f, "run lost at window {window} (master {master}): {detail}"),
        }
    }
}

impl std::error::Error for FailoverError {}

/// What the driver rank saw.
#[derive(Debug, Clone, PartialEq)]
pub struct DriverOutcome {
    /// Per-window interface physics, `TRACE_WIDTH` values each, in window
    /// order. Held windows that were later re-exchanged hold the exact
    /// values; held windows that never recovered hold the previous
    /// window's values (the documented degradation bound).
    pub trace: Vec<Vec<f64>>,
    /// Degradations, in the order they occurred.
    pub events: Vec<DegradationEvent>,
    /// Replica index acting as master at the end of the run.
    pub active_master: usize,
    /// Wall-clock time from declaring a recovery (restart or failover) to
    /// the re-exchange landing, if one happened.
    pub time_to_recover: Option<Duration>,
    /// `Some` when the degradation ladder bottomed out and the run was
    /// lost; the trace is padded with held values from that window on.
    pub error: Option<FailoverError>,
}

/// Per-rank result of [`run_replicated`] / [`run_shard_role`].
#[derive(Debug, Clone, PartialEq)]
pub enum RankOutcome {
    /// Rank 0: the driver's view of the run.
    Driver(DriverOutcome),
    /// Rank 0 in sharded mode: one driver view per independent flow.
    ShardedDriver(Vec<DriverOutcome>),
    /// Ranks `1 + i`: replica `i`'s final run report.
    Replica(Box<RunReport>),
}

/// The driver's view of a run where the [`DriverOutcome`] is expected.
///
/// # Panics
/// Panics if rank 0 died (the driver is not replicated).
pub fn driver_outcome(run: &FaultRun<RankOutcome>) -> &DriverOutcome {
    match run.results[0].as_ref() {
        Some(RankOutcome::Driver(d)) => d,
        _ => panic!("rank 0 did not produce a driver outcome"),
    }
}

/// Replica `i`'s final report, `None` if that rank died.
pub fn replica_report(run: &FaultRun<RankOutcome>, replica: usize) -> Option<&RunReport> {
    match run.results[1 + replica].as_ref() {
        Some(RankOutcome::Replica(r)) => Some(r),
        Some(_) => panic!("rank {} is the driver", 1 + replica),
        None => None,
    }
}

/// Run the replicated metasolver on `universe` (size `n_replicas + 1`).
///
/// `make` must deterministically reconstruct the same [`NektarG`] on every
/// call — the same contract as [`NektarG::resume`] — so that replicas are
/// bitwise clones of each other and a promoted replica's re-run reproduces
/// the dead master's windows exactly.
pub fn run_replicated(
    universe: &Universe,
    cfg: FailoverConfig,
    make: impl Fn() -> NektarG + Send + Sync + 'static,
) -> FaultRun<RankOutcome> {
    assert_eq!(
        universe.size(),
        cfg.n_replicas + 1,
        "universe must have one driver rank plus one rank per replica"
    );
    assert!(cfg.n_replicas >= 1, "need at least one replica");
    let make = Arc::new(make);
    universe.run_surviving(move |world| run_role(&world, &cfg, &*make))
}

/// Play this rank's part — driver on rank 0, replica elsewhere — of a
/// replicated run on an already-established communicator.
///
/// This is the per-rank body of [`run_replicated`], split out so
/// process-mode workers (the `nkg-rank` binary) can join a replicated run
/// from their own OS process: every rank calls `run_role` on its world
/// communicator with an identical `cfg` and an identical deterministic
/// `make`, regardless of which transport carried it there.
pub fn run_role(world: &Comm, cfg: &FailoverConfig, make: impl Fn() -> NektarG) -> RankOutcome {
    run_role_resumed(world, cfg, 0, make)
}

/// [`run_role`] for a possibly-respawned rank: a worker relaunched by the
/// supervisor passes its incarnation (from `NKG_INCARNATION`), which
/// routes a replica through the rejoin branch — resume from its *own*
/// rank-scoped checkpoint, learn the current window from the driver's
/// control frame, replay forward, and re-exchange if it is the master.
pub fn run_role_resumed(
    world: &Comm,
    cfg: &FailoverConfig,
    incarnation: u64,
    make: impl Fn() -> NektarG,
) -> RankOutcome {
    assert_eq!(
        world.size(),
        cfg.n_replicas + 1,
        "world must have one driver rank plus one rank per replica"
    );
    if world.rank() == 0 {
        RankOutcome::Driver(drive(world, cfg, &make))
    } else {
        RankOutcome::Replica(Box::new(replicate(world, cfg, incarnation, 0, &make)))
    }
}

/// Play this rank's part of a *sharded* run: rank 0 drives
/// `cfg.n_replicas` independent flows; rank `1 + s` computes shard `s`
/// and is the sole master of its own flow — zero standby replicas. `make`
/// receives the shard index and must be deterministic per shard. The
/// per-flow degradation ladder is hold-last-value → restart-in-place →
/// run lost; there is no promotion rung because nobody else holds a
/// shard's state.
pub fn run_shard_role(
    world: &Comm,
    cfg: &FailoverConfig,
    incarnation: u64,
    make: impl Fn(usize) -> NektarG,
) -> RankOutcome {
    assert_eq!(
        world.size(),
        cfg.n_replicas + 1,
        "world must have one driver rank plus one rank per shard"
    );
    if world.rank() == 0 {
        RankOutcome::ShardedDriver(drive_sharded(world, cfg, &make))
    } else {
        let s = world.rank() - 1;
        RankOutcome::Replica(Box::new(replicate(world, cfg, incarnation, s, &|| make(s))))
    }
}

fn status_tag(replica: usize) -> Tag {
    TAG_STATUS_BASE + replica as Tag
}

fn ctrl_tag(replica: usize) -> Tag {
    TAG_CTRL_BASE + replica as Tag
}

/// The status frame, replica → driver, for `window` as `ng` stands after
/// computing it: `[window, gen, flags, physics...]`.
fn status_frame(window: u64, gen: u64, flags: u64, ng: &NektarG) -> Vec<f64> {
    let r = &ng.report;
    let census = r.platelet_census.last().copied().unwrap_or((0, 0, 0, 0));
    let mut f = vec![
        f64::from_bits(window),
        f64::from_bits(gen),
        f64::from_bits(flags),
        r.continuity.last().copied().unwrap_or(0.0),
        r.patch_mismatch.last().copied().unwrap_or(0.0),
    ];
    f.extend([census.0, census.1, census.2, census.3].map(|c| c as f64));
    f
}

/// A control frame, driver → replica: `[window, master, resume, held,
/// gen]`. `resume` orders the addressed master to restore and re-exchange
/// `window`; `held` says the driver consumed `window` as hold-last-value.
struct Ctrl {
    window: u64,
    master: usize,
    resume: bool,
    held: bool,
    gen: u64,
}

impl Ctrl {
    fn encode(window: u64, master: usize, resume: bool, held: bool, gen: u64) -> [f64; 5] {
        [
            f64::from_bits(window),
            f64::from_bits(master as u64),
            f64::from(u8::from(resume)),
            f64::from(u8::from(held)),
            f64::from_bits(gen),
        ]
    }

    fn decode(frame: &[f64]) -> Self {
        Self {
            window: frame[0].to_bits(),
            master: frame[1].to_bits() as usize,
            resume: frame[2] != 0.0,
            held: frame[3] != 0.0,
            gen: frame[4].to_bits(),
        }
    }
}

/// Poll the liveness view until world-rank `rank` is alive under an
/// incarnation newer than `after` — i.e. its supervised respawn has
/// rejoined — or `grace` runs out.
fn wait_resurrect(world: &Comm, rank: usize, after: u64, grace: Duration) -> Option<u64> {
    let deadline = Instant::now() + grace;
    loop {
        let view = world.liveness();
        let inc = view.incarnations[rank];
        if inc > after && view.alive[rank] {
            return Some(inc);
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The driver's side of one flow: a master that owes one status frame per
/// exchange window, and the ladder applied when it does not pay. A flow is
/// "replicated" or "sharded" only by who listens, and so may take over.
struct Flow {
    master: usize,
    /// Replicas that follow this flow: they get every control frame of it,
    /// hold its state and so may be promoted. All of a replicated run; the
    /// shard alone — nobody but the master — in a sharded one.
    listeners: Vec<usize>,
    /// How long a dead master's supervised respawn may take to rejoin;
    /// `None` switches the restart rung off.
    grace: Option<Duration>,
    /// Recovery generation: every restart or promotion bumps it, so
    /// pre-recovery frames can be told from the re-exchange.
    gen: u64,
    /// Consecutive missed windows.
    misses: u32,
    /// The incarnation this driver last acknowledged, per replica. A
    /// master whose *current* incarnation is ahead of it died and rejoined
    /// unnoticed — its new process is blocked on a control frame, so a
    /// missed window must route to the restart rung, not to transient hold.
    last_inc: Vec<u64>,
    trace: Vec<Vec<f64>>,
    events: Vec<DegradationEvent>,
    time_to_recover: Option<Duration>,
    error: Option<FailoverError>,
}

impl Flow {
    fn new(world: &Comm, master: usize, listeners: Vec<usize>, grace: Option<Duration>) -> Self {
        Self {
            master,
            listeners,
            grace,
            gen: 0,
            misses: 0,
            last_inc: world.liveness().incarnations[1..].to_vec(),
            trace: Vec::new(),
            events: Vec::new(),
            time_to_recover: None,
            error: None,
        }
    }

    /// The master's frame for window `w` at the current generation, past
    /// any stale retransmission: its flags word and physics values.
    fn await_window(
        &self,
        world: &Comm,
        w: u64,
        deadline: Duration,
    ) -> Result<(u64, Vec<f64>), RecvError> {
        let m = self.master;
        loop {
            let frame = world.recv_deadline::<f64>(1 + m, status_tag(m), deadline)?;
            let (fw, fgen) = (frame[0].to_bits(), frame[1].to_bits());
            if fw < w || fgen < self.gen {
                continue; // stale window or pre-recovery generation
            }
            assert_eq!((fw, fgen), (w, self.gen), "master ahead of driver");
            return Ok((frame[2].to_bits(), frame[3..].to_vec()));
        }
    }

    fn ctrl(&self, w: u64, resume: bool, held: bool) -> [f64; 5] {
        Ctrl::encode(w, self.master, resume, held, self.gen)
    }

    /// Send window `w`'s verdict to every live listener; `resume` is
    /// addressed to the master alone.
    fn tell(&self, world: &Comm, w: u64, resume: bool, held: bool) {
        for &r in self.listeners.iter().filter(|&&r| world.is_alive(1 + r)) {
            let ctrl = self.ctrl(w, resume && r == self.master, held);
            world.send(&ctrl, 1 + r, ctrl_tag(r));
        }
    }

    /// Hold-last-value: repeat the previous window's entry.
    fn hold(&mut self) {
        let last = self.trace.last().cloned();
        self.trace
            .push(last.unwrap_or_else(|| vec![0.0; TRACE_WIDTH]));
    }

    /// Order the current master to resume and re-exchange the held window
    /// `w`; when its frame lands, overwrite the held entry — the trace is
    /// exact again — and acknowledge. The ctrl deadline applies: a restore
    /// plus a window re-run dwarfs a status round-trip.
    fn recover(&mut self, world: &Comm, cfg: &FailoverConfig, w: u64) -> Result<(), RecvError> {
        let started = Instant::now();
        let m = self.master;
        self.gen += 1;
        self.misses = 0;
        self.tell(world, w, true, true);
        let (flags, values) = self.await_window(world, w, cfg.ctrl_deadline)?;
        if flags & FLAG_CKPT_FALLBACK != 0 {
            let replica = m as u64;
            self.events
                .push(DegradationEvent::CorruptSnapshotFallback { window: w, replica });
        }
        *self.trace.last_mut().expect("held entry") = values;
        self.events.push(DegradationEvent::Recovered { window: w });
        self.time_to_recover
            .get_or_insert_with(|| started.elapsed());
        world.send(&self.ctrl(w, false, false), 1 + m, ctrl_tag(m));
        Ok(())
    }

    /// Consume window `w`: the master's frame if it arrives in time, else
    /// the ladder — hold the last value; wait for a supervised respawn and
    /// restart it in place; promote the lowest live standby; lost. A lost
    /// flow keeps padding its trace with the last held values, so
    /// consumers keep their windows-long length invariant.
    fn advance(&mut self, world: &Comm, cfg: &FailoverConfig, w: u64) {
        if self.error.is_some() {
            return self.hold();
        }
        let err = match self.await_window(world, w, cfg.status_deadline) {
            Ok((_flags, values)) => {
                self.misses = 0;
                self.trace.push(values);
                return self.tell(world, w, false, false);
            }
            Err(err) => err,
        };
        // Rung 1: hold the previous window's values.
        self.misses += 1;
        self.hold();
        self.events
            .push(DegradationEvent::HeldLastValue { window: w });
        let m = self.master;
        let view = world.liveness();
        let rejoined_unnoticed = view.incarnations[1 + m] > self.last_inc[m];
        // A closed intake is as final as a dead peer: nothing can arrive.
        let dead = matches!(err, RecvError::PeerDead { .. } | RecvError::Closed { .. })
            || !view.alive[1 + m];
        if !dead && !rejoined_unnoticed && self.misses < 2 {
            // Transient lateness: degrade for this one τ window and move
            // on; the late frame will be skipped as stale.
            return self.tell(world, w, false, true);
        }
        let mut cause = err.to_string();
        // Rung 2: restart in place. Under supervision the dead master is
        // being respawned; wait for the new incarnation to rejoin and
        // order it to resume itself.
        let resurrected = self.grace.and_then(|grace| {
            if rejoined_unnoticed {
                Some(view.incarnations[1 + m])
            } else {
                wait_resurrect(world, 1 + m, self.last_inc[m], grace)
            }
        });
        if let Some(incarnation) = resurrected {
            self.last_inc[m] = incarnation;
            self.events.push(DegradationEvent::RestartInPlace {
                window: w,
                replica: m as u64,
                incarnation,
            });
            match self.recover(world, cfg, w) {
                Ok(()) => return,
                // It died again, or its replay stalled: next rung.
                Err(e) => cause = format!("restarted master never re-exchanged: {e}"),
            }
        }
        // Rung 3: fail over to the lowest live standby.
        let view = world.liveness();
        let promoted = (self.listeners.iter().copied()).find(|&r| r != m && view.alive[1 + r]);
        let Some(promoted) = promoted else {
            let detail = format!("no resurrection and no live standby remains ({cause})");
            return self.lose(w, detail);
        };
        self.master = promoted;
        self.events.push(DegradationEvent::Failover {
            window: w,
            from: m as u64,
            to: promoted as u64,
        });
        if let Err(e) = self.recover(world, cfg, w) {
            self.lose(w, format!("promoted replica never re-exchanged: {e}"));
        }
    }

    /// The ladder bottomed out at window `w`.
    fn lose(&mut self, window: u64, detail: String) {
        let master = self.master as u64;
        self.error = Some(FailoverError::RunLost {
            window,
            master,
            detail,
        });
    }

    fn outcome(self) -> DriverOutcome {
        DriverOutcome {
            trace: self.trace,
            events: self.events,
            active_master: self.master,
            time_to_recover: self.time_to_recover,
            error: self.error,
        }
    }
}

/// The replicated driver: one flow that every replica listens to and any
/// replica may take over. The restart rung is on only under a configured
/// grace (`None` = the PR-3 ladder: hold → promote → lost).
fn drive(world: &Comm, cfg: &FailoverConfig, make: &dyn Fn() -> NektarG) -> DriverOutcome {
    // One construction just to read the exchange schedule.
    let windows = make().progression.num_exchanges(cfg.total_ns_steps) as u64;
    let all = (0..cfg.n_replicas).collect();
    let mut flow = Flow::new(world, 0, all, cfg.restart_grace);
    for w in 1..=windows {
        flow.advance(world, cfg, w);
    }
    flow.outcome()
}

/// The sharded driver: `cfg.n_replicas` independent flows, shard `s` on
/// rank `1 + s` the only listener of its own, so nobody stands by — per
/// flow the ladder is hold → restart-in-place → lost, and one lost flow
/// never takes the run down. The restart rung is always on; without a
/// configured grace only a respawn that has already rejoined is taken.
fn drive_sharded(
    world: &Comm,
    cfg: &FailoverConfig,
    make: &dyn Fn(usize) -> NektarG,
) -> Vec<DriverOutcome> {
    let windows = make(0).progression.num_exchanges(cfg.total_ns_steps) as u64;
    let grace = Some(cfg.restart_grace.unwrap_or(Duration::ZERO));
    let mut flows: Vec<Flow> = (0..cfg.n_replicas)
        .map(|s| Flow::new(world, s, vec![s], grace))
        .collect();
    for w in 1..=windows {
        for flow in &mut flows {
            flow.advance(world, cfg, w);
        }
    }
    flows.into_iter().map(Flow::outcome).collect()
}

/// Restore the metasolver from the snapshot at `path` — the primary, or
/// its `.prev` generation when the primary is damaged *or missing*: a rank
/// killed inside `write_rotating`, after the primary was renamed to
/// `.prev` and before the new one was committed, leaves only `.prev`.
/// Returns the solver and `fell_back`: a snapshot existed but none could
/// be restored, so the solver was rebuilt from scratch and will replay the
/// whole history. Neither generation existing is not a fallback — that
/// rank simply never checkpointed.
fn resume_or_rebuild(make: &dyn Fn() -> NektarG, path: &Path) -> (NektarG, bool) {
    if !path.exists() && !prev_path(path).exists() {
        return (make(), false);
    }
    match NektarG::resume_latest(make, path) {
        Ok((resumed, _)) => (resumed, false),
        Err(_) => (make(), true),
    }
}

/// One replica: advance the metasolver window by window, checkpointing to
/// a rank-scoped snapshot; report windows while master; obey control
/// frames (adopting promotions, resuming from the dead master's
/// checkpoint when promoted). A respawned incarnation first resumes from
/// its *own* snapshot and replays forward to wherever the driver says the
/// run is.
fn replicate(
    world: &Comm,
    cfg: &FailoverConfig,
    incarnation: u64,
    initial_master: usize,
    make: &dyn Fn() -> NektarG,
) -> RunReport {
    let my_index = world.rank() - 1;
    let my_ckpt = rank_path(&cfg.ckpt_base, my_index);
    let policy = CheckpointPolicy::new(&my_ckpt, cfg.every_k_exchanges);
    // The driver's next control frame for window `w` or later.
    let await_ctrl = |w: u64| loop {
        let frame = world
            .recv_deadline::<f64>(0, ctrl_tag(my_index), cfg.ctrl_deadline)
            .unwrap_or_else(|e| {
                panic!(
                    "replica {my_index} (incarnation {incarnation}): \
                     no control frame for window {w}: {e}"
                )
            });
        let ctrl = Ctrl::decode(&frame);
        if ctrl.window >= w {
            return ctrl; // earlier windows are stale
        }
    };
    let flags = |fell_back: bool| if fell_back { FLAG_CKPT_FALLBACK } else { 0 };
    let mut master: usize = initial_master;
    let mut gen: u64 = 0;
    let mut start_w: u64 = 1;
    let mut ng;
    if incarnation > 0 {
        // Rejoin branch: this process is a supervised respawn of a dead
        // rank. Resume from our own rank-scoped snapshot, learn where the
        // run is from the driver's next control frame, and replay forward
        // to it.
        let (resumed, fell_back) = resume_or_rebuild(make, &my_ckpt);
        ng = resumed;
        let ctrl = await_ctrl(0);
        let cw = ctrl.window;
        master = ctrl.master;
        gen = ctrl.gen;
        let target = (cw as usize * ng.progression.exchange_every).min(cfg.total_ns_steps);
        ng.run_to(target, Some(&policy), None)
            .expect("rejoin replay cannot fail");
        ng.report.rejoins.push(cw);
        if fell_back {
            ng.report.snapshot_fallbacks.push(cw);
        }
        if ctrl.resume && my_index == master {
            // We are the restarted master: re-exchange the held window
            // and wait for the driver's acknowledgement.
            if ctrl.held {
                ng.report.held_exchanges.push(cw);
            }
            let status = status_frame(cw, gen, flags(fell_back), &ng);
            world.send(&status, 0, status_tag(my_index));
            let ack = await_ctrl(cw);
            assert_eq!(ack.window, cw, "driver ahead of rejoined replica");
            gen = ack.gen;
        }
        start_w = cw + 1;
    } else {
        ng = make();
    }
    let windows = ng.progression.num_exchanges(cfg.total_ns_steps) as u64;
    let exchange_every = ng.progression.exchange_every;
    for w in start_w..=windows {
        let target = (w as usize * exchange_every).min(cfg.total_ns_steps);
        ng.run_to(target, Some(&policy), None)
            .expect("replica advance cannot fail without a file-level fault plan");
        if cfg.die_at.contains(&(my_index, w, incarnation)) {
            // Scripted mid-run death: crash hard after the window compute
            // but before reporting it — no Goodbye, no unwinding. Exactly
            // the failure the supervision layer exists to heal.
            std::process::abort();
        }
        // The window compute phase sends nothing; let peers see progress.
        world.heartbeat();
        if my_index == master {
            let status = status_frame(w, gen, 0, &ng);
            world.send(&status, 0, status_tag(my_index));
        }
        // Await the driver's verdict for this window (twice when promoted:
        // once to order the resume, once to acknowledge the re-exchange).
        loop {
            let ctrl = await_ctrl(w);
            assert_eq!(ctrl.window, w, "driver ahead of replica");
            let old_master = master;
            master = ctrl.master;
            gen = ctrl.gen;
            if ctrl.resume {
                // Promoted: resume from the dead master's rank-scoped
                // snapshot (its state at the top of the last checkpointed
                // exchange boundary). A fallback to a fresh rebuild is
                // reported to the driver via the status flags so the
                // degradation is visible.
                let dead_ckpt = rank_path(&cfg.ckpt_base, old_master);
                let (resumed, fell_back) = resume_or_rebuild(make, &dead_ckpt);
                ng = resumed;
                ng.run_to(target, Some(&policy), None)
                    .expect("promoted re-run cannot fail");
                if ctrl.held {
                    ng.report.held_exchanges.push(w);
                }
                if fell_back {
                    ng.report.snapshot_fallbacks.push(w);
                }
                ng.report
                    .failovers
                    .push((w, old_master as u64, my_index as u64));
                let status = status_frame(w, gen, flags(fell_back), &ng);
                world.send(&status, 0, status_tag(my_index));
                continue; // wait for the acknowledging control frame
            }
            if ctrl.held && my_index == master {
                // My window was consumed as hold-last-value (transient
                // lateness, no failover).
                ng.report.held_exchanges.push(w);
            }
            break;
        }
    }
    ng.report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    /// A rank killed between `rotate_previous` and the commit of the new
    /// primary leaves only `.prev`: recovery restores it, un-flagged,
    /// instead of rebuilding from scratch. Only snapshots that exist and
    /// cannot be restored are a flagged fallback; none at all is a rank
    /// that never checkpointed.
    #[test]
    fn a_missing_primary_recovers_from_prev() {
        let dir = std::env::temp_dir().join(format!("nkg_failover_unit_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rank.nkgc");
        let small = Scenario::small();
        let make = move || small.build();
        let recover = || {
            let (ng, fell_back) = resume_or_rebuild(&make, &path);
            (ng.report.ns_steps, fell_back)
        };
        // Primary at step 8, `.prev` at step 4.
        let mut ng = make();
        for _ in 0..2 {
            ng.run(4);
            ng.checkpoint_rotating(&path).unwrap();
        }
        assert_eq!(recover(), (8, false));
        std::fs::remove_file(&path).unwrap();
        assert_eq!(recover(), (4, false), "`.prev` alone must restore");
        std::fs::write(prev_path(&path), b"not a snapshot").unwrap();
        assert_eq!(recover(), (0, true), "damage is a flagged rebuild");
        std::fs::remove_file(prev_path(&path)).unwrap();
        assert_eq!(recover(), (0, false), "never checkpointed: fresh");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
