//! The hub: server side of the framed backends.
//!
//! One hub per universe run owns the [`RouterCore`] — so fault judging,
//! sequence stamping, liveness and statistics live in exactly one place,
//! just like the in-proc path — plus one *pump thread* per connected rank
//! that reads frames off that rank's stream and dispatches them. Delivery
//! to a rank is a framed write through that rank's registered writer; the
//! per-destination writer mutex makes interleaving frame-atomic, and
//! because each rank's posts are judged by its own pump thread in arrival
//! order, per-flow FIFO is preserved exactly as the in-proc channel gave
//! it.
//!
//! ## Liveness over sockets
//!
//! A rank announces clean completion with `Goodbye` and an unwinding
//! panic with `Dying`. The third case — the rank vanished without a word
//! (process crash, `abort`, kill -9) — is detected at EOF: a pump whose
//! stream ends without a preceding `Goodbye` declares the rank dead. Any
//! death is broadcast to every other rank as a `Dead` frame, which the
//! rank-side pump folds into its local liveness replica, so blocked
//! receives resolve to `PeerDead` with the same promptness the shared
//! in-proc table gave.
//!
//! ## Scripted kills
//!
//! In-proc, a scripted kill panics the sender inside `post`, *before* the
//! next program statement runs. To preserve that synchronous semantics
//! across a socket, the hub enables post-acks (`Welcome { ack_posts }`)
//! whenever the fault plan contains kills: every `Data` post is answered
//! with `PostAck { killed }`, and the rank-side port panics `ScriptedKill`
//! on a killed ack. Clean runs (no kill scripted) stay fire-and-forget,
//! so the ack round-trip never taxes the configurations benchmarks
//! measure.

use crate::envelope::Envelope;
use crate::fault::FaultPlan;
use crate::frame::{read_frame, write_frame, Frame, NetError, RejectReason, PROTO_VERSION};
use crate::liveness::Liveness;
use crate::router::{RouterCore, Sink, SinkClosed, Verdict};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of one hub (one universe run).
pub struct HubConfig {
    /// World size: the number of ranks that will connect.
    pub world: usize,
    /// Fault plan judged at the hub's router.
    pub plan: Option<FaultPlan>,
    /// How long a delivery waits for its destination rank to finish the
    /// handshake before treating the destination as gone. Covers startup
    /// skew; after it, the router's dead-destination grace logic applies.
    pub deliver_grace: Duration,
}

/// Per-rank connection state at the hub.
struct Peer {
    /// The rank's framed writer, installed after a successful handshake
    /// and cleared on write failure. Guarded so concurrent deliveries from
    /// different pump threads interleave at frame granularity.
    writer: Mutex<Option<Box<dyn Write + Send>>>,
    /// Signaled when the writer is installed.
    ready: Condvar,
    /// `Goodbye` seen: the rank completed cleanly.
    finished: AtomicBool,
    /// `incarnation + 1` of the newest death announced for this rank
    /// (0 = none), so racing detectors (Dying frame, EOF, process exit)
    /// broadcast once per incarnation — and a later incarnation's death
    /// is announced even though an earlier one already was.
    death_announced: AtomicU64,
    /// A `Hello` already claimed this rank.
    hello_seen: AtomicBool,
    /// `incarnation + 1` of the most recent completed handshake, 0 while
    /// no handshake has finished. Once nonzero, that incarnation's pump
    /// owns the rank's death detection (every exit path of its
    /// steady-state loop announces death or records `finished`).
    connected: AtomicU64,
    /// Result payload reported by a process-mode worker.
    result: Mutex<Option<Vec<u8>>>,
}

struct HubInner {
    peers: Vec<Peer>,
    liveness: Arc<Liveness>,
    deliver_grace: Duration,
}

impl HubInner {
    /// Frame-level best-effort write to one rank (acks, death broadcasts).
    /// A missing or failing writer is ignored: the rank is gone, and gone
    /// ranks don't need protocol frames.
    fn write_to(&self, rank: usize, frame: &Frame) {
        let mut slot = self.peers[rank].writer.lock().unwrap();
        if let Some(w) = slot.as_mut() {
            if write_frame(w, frame).is_err() {
                *slot = None;
            }
        }
    }
}

/// The router's delivery endpoint for one destination rank: a framed
/// write through the rank's registered writer, waiting out startup skew.
pub struct HubSink {
    inner: Arc<HubInner>,
    dst: usize,
}

impl Sink for HubSink {
    fn deliver(&self, env: Envelope) -> Result<(), SinkClosed> {
        let peer = &self.inner.peers[self.dst];
        let deadline = Instant::now() + self.inner.deliver_grace;
        let mut slot = peer.writer.lock().unwrap();
        while slot.is_none() {
            // A finished, dead, or never-arriving rank behaves like the
            // in-proc closed channel: SinkClosed, and the router's grace
            // logic decides whether that is expected (dead rank) or a
            // protocol error. Live liveness (not a sticky announcement
            // flag) is consulted so a delivery racing a resurrection keeps
            // waiting for the rejoining rank's writer instead of bailing.
            if peer.finished.load(Ordering::Acquire) || self.inner.liveness.is_dead(self.dst) {
                return Err(SinkClosed);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(SinkClosed);
            }
            let (s, _timeout) = peer.ready.wait_timeout(slot, deadline - now).unwrap();
            slot = s;
        }
        let w = slot.as_mut().expect("writer present by loop invariant");
        match write_frame(
            w,
            &Frame::Data {
                dst: self.dst as u32,
                env,
            },
        ) {
            Ok(()) => Ok(()),
            Err(_) => {
                *slot = None;
                Err(SinkClosed)
            }
        }
    }
}

/// Aggregate outcome of one hub run, collected at shutdown.
pub struct HubReport {
    /// Total messages routed.
    pub messages: u64,
    /// Total payload bytes routed.
    pub bytes: u64,
    /// Posts fenced at the router because they came from a superseded
    /// incarnation (zombies of respawned ranks).
    pub stale_drops: u64,
    /// Fault-plan counters.
    pub fault_stats: crate::fault::FaultStats,
    /// Per-rank result payloads (process-mode `Result` frames).
    pub results: Vec<Option<Vec<u8>>>,
    /// Panic messages from pump threads (protocol errors, exited
    /// destinations). Empty on every healthy run; the universe surfaces
    /// them as one combined panic.
    pub panics: Vec<String>,
}

/// Server side of one framed-transport universe run.
pub struct Hub {
    inner: Arc<HubInner>,
    core: Arc<RouterCore<HubSink>>,
    dedup: bool,
    ack_posts: bool,
    pumps: Mutex<Vec<JoinHandle<()>>>,
}

impl Hub {
    /// Start a hub for `cfg.world` ranks. Connections are attached with
    /// [`Hub::adopt`]; the hub is passive until then.
    pub fn new(cfg: HubConfig) -> Self {
        let n = cfg.world;
        let dedup = cfg.plan.is_some();
        let ack_posts = cfg.plan.as_ref().is_some_and(|p| !p.kills.is_empty());
        let liveness = Arc::new(Liveness::new(n));
        let inner = Arc::new(HubInner {
            peers: (0..n)
                .map(|_| Peer {
                    writer: Mutex::new(None),
                    ready: Condvar::new(),
                    finished: AtomicBool::new(false),
                    death_announced: AtomicU64::new(0),
                    hello_seen: AtomicBool::new(false),
                    connected: AtomicU64::new(0),
                    result: Mutex::new(None),
                })
                .collect(),
            liveness: Arc::clone(&liveness),
            deliver_grace: cfg.deliver_grace,
        });
        let sinks = (0..n)
            .map(|dst| HubSink {
                inner: Arc::clone(&inner),
                dst,
            })
            .collect();
        let core = Arc::new(RouterCore::new(sinks, liveness, cfg.plan));
        Self {
            inner,
            core,
            dedup,
            ack_posts,
            pumps: Mutex::new(Vec::new()),
        }
    }

    /// The run's liveness table (hub-side authority).
    pub fn liveness(&self) -> Arc<Liveness> {
        Arc::clone(self.core.liveness())
    }

    /// Whether mailboxes must deduplicate by sequence number this run.
    pub fn dedup(&self) -> bool {
        self.dedup
    }

    /// Adopt one incoming connection: spawn its pump thread. The
    /// connection self-identifies with `Hello`; the hub does not need to
    /// know which rank a stream belongs to in advance.
    pub fn adopt(&self, reader: Box<dyn Read + Send>, writer: Box<dyn Write + Send>) {
        let inner = Arc::clone(&self.inner);
        let core = Arc::clone(&self.core);
        let ack_posts = self.ack_posts;
        let dedup = self.dedup;
        let pump = std::thread::Builder::new()
            .name("nkg-hub-pump".into())
            .spawn(move || pump(inner, core, dedup, ack_posts, reader, writer))
            .expect("failed to spawn hub pump thread");
        self.pumps.lock().unwrap().push(pump);
    }

    /// Whether `rank` said `Goodbye`.
    pub fn finished(&self, rank: usize) -> bool {
        self.inner.peers[rank].finished.load(Ordering::Acquire)
    }

    /// Whether `rank` ever completed a handshake. Once true, that
    /// connection's pump owns death detection: it drains in-flight frames
    /// *in order* and announces death at EOF/`Dying` — an external
    /// [`Hub::force_dead`] would race ahead of messages the rank sent
    /// before dying.
    pub fn connected(&self, rank: usize) -> bool {
        self.inner.peers[rank].connected.load(Ordering::Acquire) != 0
    }

    /// Whether `rank` completed a handshake at `incarnation` (or newer).
    /// The supervisor's per-attempt exit watcher uses this instead of
    /// [`Hub::connected`], which stays sticky-true across respawns.
    pub fn handshaken(&self, rank: usize, incarnation: u64) -> bool {
        self.inner.peers[rank].connected.load(Ordering::Acquire) > incarnation
    }

    /// Declare `rank`'s `incarnation` dead from outside the protocol —
    /// the process launcher calls this when a worker exits without a
    /// `Goodbye` (covering death *before* the rank ever said `Hello`,
    /// which no pump can observe). Fenced if a newer incarnation has
    /// already rejoined.
    pub fn force_dead(&self, rank: usize, incarnation: u64) {
        announce_death(&self.inner, &self.core, rank, incarnation);
    }

    /// Wait for all pump threads (they exit at stream EOF) and report.
    pub fn shutdown(self) -> HubReport {
        let pumps = std::mem::take(&mut *self.pumps.lock().unwrap());
        let mut panics = Vec::new();
        for h in pumps {
            if let Err(e) = h.join() {
                panics.push(crate::panic_message(e.as_ref()));
            }
        }
        let results = self
            .inner
            .peers
            .iter()
            .map(|p| p.result.lock().unwrap().take())
            .collect();
        HubReport {
            messages: self.core.messages(),
            bytes: self.core.bytes(),
            stale_drops: self.core.stale_drops(),
            fault_stats: self.core.fault_stats(),
            results,
            panics,
        }
    }
}

/// Mark `rank`'s `incarnation` dead and broadcast `Dead` to every other
/// connected rank, exactly once per incarnation no matter how many
/// detectors fire. A death announcement for an incarnation that has
/// already been superseded by a rejoin is fenced entirely.
fn announce_death(
    inner: &Arc<HubInner>,
    core: &Arc<RouterCore<HubSink>>,
    rank: usize,
    incarnation: u64,
) {
    if !core.liveness().mark_dead_if(rank, incarnation) {
        return;
    }
    let prev = inner.peers[rank]
        .death_announced
        .fetch_max(incarnation + 1, Ordering::AcqRel);
    if prev > incarnation {
        return;
    }
    // Wake deliveries parked on the dead rank's writer slot: the flag is
    // checked under the same mutex the waiters hold, so this cannot race.
    {
        let peer = &inner.peers[rank];
        let _slot = peer.writer.lock().unwrap();
        peer.ready.notify_all();
    }
    let frame = Frame::Dead {
        rank: rank as u32,
        incarnation: incarnation as u32,
    };
    for r in 0..inner.peers.len() {
        if r != rank {
            inner.write_to(r, &frame);
        }
    }
}

/// One connection's pump: handshake, then dispatch frames until EOF.
fn pump(
    inner: Arc<HubInner>,
    core: Arc<RouterCore<HubSink>>,
    dedup: bool,
    ack_posts: bool,
    mut reader: Box<dyn Read + Send>,
    mut writer: Box<dyn Write + Send>,
) {
    // ---- Handshake: the first frame must be Hello. ----
    let world = inner.peers.len() as u32;
    let (rank, incarnation) = match read_frame(&mut *reader) {
        Ok(Frame::Hello {
            version,
            world: their_world,
            rank,
            incarnation,
        }) => {
            let inc = incarnation as u64;
            let reject = if version != PROTO_VERSION {
                Some(RejectReason::Version {
                    ours: PROTO_VERSION,
                    theirs: version,
                })
            } else if their_world != world {
                Some(RejectReason::WorldSize {
                    ours: world,
                    theirs: their_world,
                })
            } else if rank >= world {
                Some(RejectReason::RankRange { rank, world })
            } else if inner.peers[rank as usize]
                .hello_seen
                .swap(true, Ordering::AcqRel)
            {
                // A reclaim of an already-seen rank is legal only as a
                // *rejoin*: a strictly newer incarnation. An equal
                // incarnation is a duplicate claim (the original
                // semantics); an older one is a zombie to fence.
                let cur = core.liveness().incarnation(rank as usize);
                if inc < cur {
                    Some(RejectReason::StaleIncarnation {
                        rank,
                        ours: cur as u32,
                        theirs: incarnation,
                    })
                } else if inc == cur {
                    Some(RejectReason::RankTaken { rank })
                } else {
                    None
                }
            } else {
                None
            };
            if let Some(reason) = reject {
                let _ = write_frame(&mut *writer, &Frame::Reject { reason });
                return;
            }
            (rank as usize, inc)
        }
        // A connection that never says Hello (or dies mid-handshake) is
        // dropped: it claimed no rank, so there is nothing to declare dead
        // here — the process launcher's exit watcher covers worker death
        // before Hello.
        _ => return,
    };

    // Accept: Welcome first (the connector reads it synchronously before
    // any Data can arrive), then publish the writer for deliveries.
    if write_frame(
        &mut *writer,
        &Frame::Welcome {
            world,
            dedup,
            ack_posts,
        },
    )
    .is_err()
    {
        return;
    }
    {
        let peer = &inner.peers[rank];
        let mut slot = peer.writer.lock().unwrap();
        if incarnation > 0 {
            // A rejoin: revive the rank *before* publishing the writer so
            // nothing can replay its own stale death to it. The death-
            // announcement dedup is incarnation-scoped and needs no reset.
            core.liveness().resurrect(rank, incarnation);
            peer.finished.store(false, Ordering::Release);
        }
        *slot = Some(writer);
        // Replay liveness state that predates this connection: the live
        // `Dead`/`Rejoined` broadcasts only reach ranks whose writer was
        // installed at the time. Scanning under our own writer lock closes
        // the race — a concurrent announcement either updated liveness
        // before this scan (we replay it) or will block on this lock in
        // its broadcast and find the writer installed (it delivers).
        // Duplicates are idempotent at the port.
        for r in 0..inner.peers.len() {
            if r == rank {
                continue;
            }
            let r_inc = core.liveness().incarnation(r) as u32;
            let replay = if core.liveness().is_dead(r) {
                Some(Frame::Dead {
                    rank: r as u32,
                    incarnation: r_inc,
                })
            } else if r_inc > 0 {
                // The peer died and rejoined while we were away: without
                // this replay our local incarnation table would lag and
                // we would fence its current-incarnation announcements.
                Some(Frame::Rejoined {
                    rank: r as u32,
                    incarnation: r_inc,
                })
            } else {
                None
            };
            if let Some(frame) = replay {
                let w = slot.as_mut().expect("writer just installed");
                if write_frame(w, &frame).is_err() {
                    *slot = None;
                    break;
                }
            }
        }
        peer.ready.notify_all();
        peer.connected.store(incarnation + 1, Ordering::Release);
    }
    if incarnation > 0 {
        // Tell everyone else the rank is back. Outside our own writer
        // lock: write_to takes each peer's writer mutex, and holding ours
        // while taking theirs invites an ABBA deadlock with their own
        // broadcasts (same discipline as announce_death).
        let frame = Frame::Rejoined {
            rank: rank as u32,
            incarnation: incarnation as u32,
        };
        for r in 0..inner.peers.len() {
            if r != rank {
                inner.write_to(r, &frame);
            }
        }
    }

    // ---- Steady state: dispatch frames until the stream ends. ----
    loop {
        match read_frame(&mut *reader) {
            Ok(Frame::Data { dst, mut env }) => {
                // The connection is the identity authority: a rank cannot
                // post on another rank's behalf, nor smuggle traffic from
                // an incarnation this connection did not handshake as.
                env.src = rank;
                let verdict = core.route(dst as usize, env, incarnation);
                let killed = matches!(verdict, Verdict::Killed);
                if ack_posts {
                    inner.write_to(rank, &Frame::PostAck { killed });
                }
                if killed {
                    // The rank is unwinding with `ScriptedKill`; nothing
                    // meaningful follows on this stream.
                    announce_death(&inner, &core, rank, incarnation);
                    break;
                }
            }
            Ok(Frame::Heartbeat { .. }) => core.liveness().beat(rank),
            Ok(Frame::CtxReq { n }) => {
                let base = core.alloc_ctx(n);
                inner.write_to(rank, &Frame::CtxRep { base });
            }
            // Dying/Goodbye are each the last word a rank speaks; exiting
            // here (rather than waiting for EOF) lets the hub shut down
            // even while the rank side's pump still holds its stream half
            // open blocked on reads.
            Ok(Frame::Dying { .. }) => {
                announce_death(&inner, &core, rank, incarnation);
                break;
            }
            Ok(Frame::Goodbye { .. }) => {
                inner.peers[rank].finished.store(true, Ordering::Release);
                break;
            }
            Ok(Frame::Result { data }) => {
                *inner.peers[rank].result.lock().unwrap() = Some(data);
            }
            Ok(other) => panic!(
                "hub: protocol error: unexpected {} frame from rank {rank}",
                other.kind_name()
            ),
            Err(NetError::Closed) => break,
            Err(_) => break,
        }
    }

    // EOF. A clean finish said Goodbye first; anything else is a crash —
    // the rank vanished without a word, so declare it dead (this is what
    // lets peers blocked on a rank that panicked before its first post
    // resolve to PeerDead).
    if !inner.peers[rank].finished.load(Ordering::Acquire) {
        announce_death(&inner, &core, rank, incarnation);
    }
}
