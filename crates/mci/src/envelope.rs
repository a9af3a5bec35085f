//! Message envelopes and per-rank mailboxes.
//!
//! The [`Envelope`] struct itself lives in `nkg-net` (every transport
//! backend carries it); the receive-side machinery — matching, dedup,
//! liveness-aware blocking — stays here with the communicator layer.

use crate::liveness::Liveness;
use crate::Tag;
use crossbeam_channel::Receiver;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

pub use nkg_net::envelope::Envelope;

/// Why a fallible receive did not produce a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvError {
    /// No matching message within the allowed wait.
    Timeout {
        /// Communicator context of the posted receive.
        ctx: u64,
        /// Expected sender (world rank).
        src: usize,
        /// Expected tag.
        tag: Tag,
        /// How long the receive actually waited.
        waited: Duration,
        /// Arrived-but-unmatched messages buffered at the receiver.
        pending: usize,
    },
    /// The expected sender has been declared dead and no matching message
    /// from it remains buffered; it can never arrive.
    PeerDead {
        /// The dead sender (world rank).
        src: usize,
    },
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Timeout {
                ctx,
                src,
                tag,
                waited,
                pending,
            } => write!(
                f,
                "receive (ctx={ctx:#x}, src={src}, tag={tag:#x}) timed out after {waited:?} \
                 with {pending} unmatched pending message(s) — likely deadlock"
            ),
            RecvError::PeerDead { src } => {
                write!(f, "peer world rank {src} is dead; message can never arrive")
            }
        }
    }
}

impl std::error::Error for RecvError {}

/// How finely a blocked receive re-checks liveness while waiting. Small
/// enough that a peer death resolves a blocked receive promptly, large
/// enough not to spin.
const LIVENESS_POLL: Duration = Duration::from_millis(2);

/// How long a blocked receive polls its channel, yielding the core between
/// polls, before it parks on it.
///
/// Parking is what a message latency is made of here: on the 2-vCPU
/// reference host two threads handing each other a turn through a condvar,
/// a channel or a socketpair take 32–45 µs per round trip (≈ 20 µs per
/// park/unpark) against 0.15 µs spinning on a flag, while encoding,
/// writing, reading and decoding an 8 kB frame is 2.5–4 µs. A reply that is
/// already on its way arrives within a few park/unpark costs, so the budget
/// sits there: on `ranks_uds` a 20 µs budget gave back a third of the gain
/// (wall 0.157 s against 0.140 s; 0.184 s never spinning) and 500 µs
/// measured the same as 100 µs (EXPERIMENTS.md, "Message latency"). The
/// transport pump threads do not spin: they block in `read`, which cannot
/// be polled without giving up the writer half's blocking mode.
const SPIN_BUDGET: Duration = Duration::from_micros(100);

/// Whether a universe of `world` ranks leaves every rank a core of its own.
/// Only then may a blocked receive spin: a spinning rank that shares its
/// core competes with the pump or peer it is waiting for (8 ranks over UDS
/// on 2 vCPUs: 384 µs per allreduce parked, 378–455 µs spinning). Open
/// MPI's `yield_when_idle` turns on by the same test.
fn rank_per_core(world: usize) -> bool {
    static CORES: OnceLock<usize> = OnceLock::new();
    world <= *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |c| c.get()))
}

/// The receive side of one rank: the incoming channel plus a buffer of
/// messages that have arrived but not yet been matched by a receive.
///
/// Matching is MPI-like: a receive names `(ctx, src, tag)` and takes the
/// *earliest arrived* message with those coordinates; messages for other
/// coordinates are left buffered in arrival order.
///
/// When a fault plan is installed on the universe, the mailbox also
/// deduplicates by transport sequence number: a message whose `seq` has
/// already been accepted is discarded on intake, which makes duplicated
/// and retried deliveries idempotent. The dedup table is kept per source
/// rank and keyed by that source's *incarnation*: when a peer dies and
/// rejoins, its seen-set is reset so the new incarnation's re-exchanged
/// traffic is not mistaken for replays of the old one. (Sequence numbers
/// are globally unique — the router stamps them from one counter — so a
/// per-source split never creates false negatives.)
pub struct Mailbox {
    rx: Receiver<Envelope>,
    pending: Vec<Envelope>,
    timeout: Duration,
    my_rank: usize,
    liveness: Arc<Liveness>,
    /// Poll for [`SPIN_BUDGET`] before parking; fixed when the rank starts.
    spin: bool,
    dedup: bool,
    /// Per-source dedup state: `(incarnation the set was built under,
    /// sequence numbers accepted from that incarnation)`.
    seen: HashMap<usize, (u64, HashSet<u64>)>,
}

impl Mailbox {
    pub(crate) fn new(
        rx: Receiver<Envelope>,
        timeout: Duration,
        my_rank: usize,
        liveness: Arc<Liveness>,
        dedup: bool,
    ) -> Self {
        Self {
            rx,
            pending: Vec::new(),
            timeout,
            my_rank,
            spin: rank_per_core(liveness.size()),
            liveness,
            dedup,
            seen: HashMap::new(),
        }
    }

    /// Accept one arrived envelope into the pending buffer, unless dedup
    /// recognizes its sequence number as already accepted from the
    /// sender's current incarnation.
    fn intake(&mut self, env: Envelope) {
        if self.dedup {
            let inc = self.liveness.incarnation(env.src);
            let (set_inc, set) = self
                .seen
                .entry(env.src)
                .or_insert_with(|| (inc, HashSet::new()));
            if *set_inc != inc {
                // The sender rejoined under a new incarnation: its dedup
                // history belongs to the dead one. Start fresh.
                *set_inc = inc;
                set.clear();
            }
            if !set.insert(env.seq) {
                return;
            }
        }
        self.liveness.beat(self.my_rank);
        self.pending.push(env);
    }

    fn take_match(&mut self, ctx: u64, src: usize, tag: Tag) -> Option<Envelope> {
        self.pending
            .iter()
            .position(|e| e.ctx == ctx && e.src == src && e.tag == tag)
            .map(|pos| self.pending.remove(pos))
    }

    fn drain_channel(&mut self) {
        while let Ok(env) = self.rx.try_recv() {
            self.intake(env);
        }
    }

    /// Blocking matched receive.
    ///
    /// # Panics
    /// Panics if no matching message arrives within the universe's receive
    /// timeout — by construction of the runtime this indicates a deadlock or
    /// a mismatched communication pattern, and failing loudly is preferable
    /// to hanging the test suite. Also panics if the expected sender dies
    /// with no matching message buffered; fallible callers should use
    /// [`Mailbox::recv_match_deadline`] instead.
    pub fn recv_match(&mut self, ctx: u64, src: usize, tag: Tag) -> Envelope {
        let timeout = self.timeout;
        match self.recv_match_deadline(ctx, src, tag, timeout) {
            Ok(env) => env,
            Err(e) => panic!("rank {}: {e}", self.my_rank),
        }
    }

    /// Blocking matched receive with an explicit deadline and a typed
    /// error surface instead of a panic.
    ///
    /// While waiting, the receive re-checks the sender's liveness every
    /// couple of milliseconds: a dead peer resolves to
    /// [`RecvError::PeerDead`] as soon as the buffered backlog is known
    /// not to contain a match, rather than burning the whole deadline.
    ///
    /// When every rank has a core to itself the first `SPIN_BUDGET`
    /// (100 µs) of the wait polls the channel instead of parking on it,
    /// re-running the same match, liveness and deadline checks on every
    /// poll.
    pub fn recv_match_deadline(
        &mut self,
        ctx: u64,
        src: usize,
        tag: Tag,
        timeout: Duration,
    ) -> Result<Envelope, RecvError> {
        let start = Instant::now();
        loop {
            self.drain_channel();
            if let Some(env) = self.take_match(ctx, src, tag) {
                return Ok(env);
            }
            if self.liveness.is_dead(src) {
                // One more drain: the death flag may have been set after
                // the final message was posted but before we saw it.
                self.drain_channel();
                if let Some(env) = self.take_match(ctx, src, tag) {
                    return Ok(env);
                }
                return Err(RecvError::PeerDead { src });
            }
            let elapsed = start.elapsed();
            if elapsed >= timeout {
                return Err(RecvError::Timeout {
                    ctx,
                    src,
                    tag,
                    waited: elapsed,
                    pending: self.pending.len(),
                });
            }
            if self.spin && elapsed < SPIN_BUDGET {
                std::thread::yield_now();
                continue;
            }
            let wait = LIVENESS_POLL.min(timeout - elapsed);
            // Sleep on the channel itself so arrival wakes us immediately.
            if let Ok(env) = self.rx.recv_timeout(wait) {
                self.intake(env);
            }
        }
    }

    /// Non-blocking matched receive: `Some(env)` if a matching message has
    /// already arrived, `None` otherwise.
    pub fn try_match(&mut self, ctx: u64, src: usize, tag: Tag) -> Option<Envelope> {
        self.drain_channel();
        self.take_match(ctx, src, tag)
    }

    /// Non-blocking probe: is a matching message already available?
    pub fn probe(&mut self, ctx: u64, src: usize, tag: Tag) -> bool {
        self.drain_channel();
        self.pending
            .iter()
            .any(|e| e.ctx == ctx && e.src == src && e.tag == tag)
    }

    /// Number of buffered (arrived, unmatched) messages. Used by tests.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }
}
