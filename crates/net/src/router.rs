//! The routing core: the single chokepoint every posted message passes
//! through, extracted from the MCI universe so every backend judges
//! traffic identically.
//!
//! [`RouterCore::route`] stamps the transport sequence number, beats the
//! sender's liveness, counts traffic, consults the fault plan and hands
//! the envelope to a destination [`Sink`]. In-proc, the sink *is* the
//! rank's channel sender (zero extra hops — the historical behavior);
//! under the socket backends it is the hub's framed writer for the
//! destination rank. The core never panics a scripted kill
//! itself: it marks the rank dead and returns [`Verdict::Killed`], and
//! the caller decides how death reaches the rank (an unwinding panic
//! in-proc, a synchronous post-ack over sockets).

use crate::envelope::Envelope;
use crate::fault::{Decision, FaultPlan, FaultState, FaultStats, MsgAction};
use crate::liveness::Liveness;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Delivery failed because the destination can no longer accept traffic.
pub struct SinkClosed;

/// One rank's delivery endpoint.
pub trait Sink: Send + Sync {
    /// Hand one envelope to the destination rank.
    fn deliver(&self, env: Envelope) -> Result<(), SinkClosed>;
}

/// The in-proc backend: delivery is a channel send.
impl Sink for std::sync::mpsc::Sender<Envelope> {
    fn deliver(&self, env: Envelope) -> Result<(), SinkClosed> {
        self.send(env).map_err(|_| SinkClosed)
    }
}

/// What [`RouterCore::route`] did with a post.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The message was handled (delivered, dropped, duplicated or parked —
    /// the sender does not distinguish).
    Posted,
    /// The fault plan killed the sending rank at this post; it has been
    /// marked dead and the message was discarded.
    Killed,
}

/// A fault-delayed message parked at the transport until enough later
/// traffic on the same `src → dst` flow has been delivered.
struct Delayed {
    dst: usize,
    remaining: u64,
    env: Envelope,
}

/// Shared routing state of one universe run.
pub struct RouterCore<S: Sink> {
    sinks: Vec<S>,
    ctx_counter: AtomicU64,
    msg_count: AtomicU64,
    byte_count: AtomicU64,
    seq_counter: AtomicU64,
    stale_count: AtomicU64,
    liveness: Arc<Liveness>,
    fault: Option<FaultState>,
    delayed: Mutex<Vec<Delayed>>,
}

impl<S: Sink> RouterCore<S> {
    /// Build the router for one run: one sink per world rank, the shared
    /// liveness table, and an optional fault plan instantiated against
    /// this world size.
    pub fn new(sinks: Vec<S>, liveness: Arc<Liveness>, plan: Option<FaultPlan>) -> Self {
        let n = sinks.len();
        Self {
            sinks,
            // ctx 0 is the world communicator of this run.
            ctx_counter: AtomicU64::new(1),
            msg_count: AtomicU64::new(0),
            byte_count: AtomicU64::new(0),
            seq_counter: AtomicU64::new(0),
            stale_count: AtomicU64::new(0),
            liveness,
            fault: plan.map(|p| FaultState::new(p, n)),
            delayed: Mutex::new(Vec::new()),
        }
    }

    /// Route one posted message. This is the single chokepoint all traffic
    /// passes through, so it is where the fault plan judges every message,
    /// where stale incarnations are fenced, and where heartbeats and
    /// sequence numbers are stamped.
    ///
    /// `src_incarnation` is the incarnation the *sender's connection*
    /// handshook under (always the current one for in-proc ranks, which
    /// cannot be respawned mid-run). A post from a superseded incarnation
    /// — a zombie of a rank that has already been respawned — is silently
    /// discarded before it can beat the heartbeat table or consume a
    /// sequence number, identically on every transport.
    pub fn route(&self, dst: usize, mut env: Envelope, src_incarnation: u64) -> Verdict {
        if src_incarnation < self.liveness.incarnation(env.src) {
            self.stale_count.fetch_add(1, Ordering::Relaxed);
            return Verdict::Posted;
        }
        self.liveness.beat(env.src);
        env.seq = self.seq_counter.fetch_add(1, Ordering::Relaxed);
        self.msg_count.fetch_add(1, Ordering::Relaxed);
        self.byte_count
            .fetch_add(env.data.len() as u64, Ordering::Relaxed);
        match self
            .fault
            .as_ref()
            .map_or(Decision::Deliver, |f| f.on_post(&env, dst))
        {
            Decision::Kill => {
                self.liveness.mark_dead(env.src);
                return Verdict::Killed;
            }
            Decision::Act(MsgAction::Drop) => {}
            Decision::Act(MsgAction::Duplicate) => {
                let src = env.src;
                self.deliver(dst, env.clone());
                // The extra copy is a transport artifact: a real network may
                // deliver a duplicate after the receiver has finalized, so a
                // closed mailbox just swallows it.
                self.deliver_one(dst, env, true);
                if self.fault.is_some() {
                    self.tick_delayed(src, dst);
                }
            }
            Decision::Act(MsgAction::Delay { after_flow_msgs }) => {
                if after_flow_msgs == 0 {
                    self.deliver(dst, env);
                } else {
                    self.delayed.lock().unwrap().push(Delayed {
                        dst,
                        remaining: after_flow_msgs,
                        env,
                    });
                }
            }
            Decision::Deliver => self.deliver(dst, env),
        }
        Verdict::Posted
    }

    /// Hand one envelope to the destination sink, releasing any parked
    /// delayed messages on the same flow whose counters reach zero.
    fn deliver(&self, dst: usize, env: Envelope) {
        let src = env.src;
        self.deliver_one(dst, env, false);
        if self.fault.is_some() {
            self.tick_delayed(src, dst);
        }
    }

    /// `best_effort` marks transport-generated extras (duplicate copies,
    /// delayed releases): a real network may deliver those after the
    /// receiver has finalized, so a closed sink swallows them silently
    /// instead of flagging a protocol error.
    fn deliver_one(&self, dst: usize, env: Envelope, best_effort: bool) {
        if self.sinks[dst].deliver(env).is_err() {
            if best_effort {
                return;
            }
            // The destination's sink is closed: its rank has exited.
            // If it died by scripted kill the flag may lag the disconnect
            // by an instant, so give it a moment before concluding this is
            // a genuine protocol error.
            if self.liveness.is_dead(dst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
            if self.liveness.is_dead(dst) {
                return;
            }
            panic!("virtual network: destination rank has exited");
        }
    }

    /// A message on `src → dst` was just delivered: decrement parked
    /// delayed messages on that flow and flush the ones that come due.
    /// Flushed messages do not re-enter the countdown (no cascades).
    fn tick_delayed(&self, src: usize, dst: usize) {
        let due: Vec<Delayed> = {
            let mut parked = self.delayed.lock().unwrap();
            let mut due = Vec::new();
            let mut i = 0;
            while i < parked.len() {
                if parked[i].env.src == src && parked[i].dst == dst {
                    parked[i].remaining -= 1;
                    if parked[i].remaining == 0 {
                        due.push(parked.swap_remove(i));
                        continue;
                    }
                }
                i += 1;
            }
            due
        };
        for d in due {
            self.deliver_one(d.dst, d.env, true);
        }
    }

    /// Allocate `n` consecutive communicator contexts.
    pub fn alloc_ctx(&self, n: u64) -> u64 {
        self.ctx_counter.fetch_add(n, Ordering::Relaxed)
    }

    /// The run's shared liveness table.
    pub fn liveness(&self) -> &Arc<Liveness> {
        &self.liveness
    }

    /// Total messages routed so far.
    pub fn messages(&self) -> u64 {
        self.msg_count.load(Ordering::Relaxed)
    }

    /// Total payload bytes routed so far.
    pub fn bytes(&self) -> u64 {
        self.byte_count.load(Ordering::Relaxed)
    }

    /// Posts fenced because they arrived from a superseded incarnation.
    pub fn stale_drops(&self) -> u64 {
        self.stale_count.load(Ordering::Relaxed)
    }

    /// Fault-plan counters (all-zero defaults when no plan is installed).
    pub fn fault_stats(&self) -> FaultStats {
        self.fault.as_ref().map(|f| f.stats()).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{MsgMatcher, Pick};
    use std::sync::mpsc::channel;

    fn env(src: usize, tag: u32, data: Vec<u8>) -> Envelope {
        Envelope {
            ctx: 0,
            src,
            tag,
            data,
            seq: 0,
        }
    }

    #[test]
    fn routes_and_counts() {
        let (tx, rx) = channel();
        let core = RouterCore::new(vec![tx], Arc::new(Liveness::new(1)), None);
        assert_eq!(core.route(0, env(0, 1, vec![0; 16]), 0), Verdict::Posted);
        let got = rx.try_recv().unwrap();
        assert_eq!(got.seq, 0);
        assert_eq!((core.messages(), core.bytes()), (1, 16));
        assert_eq!(core.liveness().beats(0), 1);
    }

    #[test]
    fn kill_marks_dead_and_discards() {
        let (tx, rx) = channel();
        let plan = FaultPlan::new().kill_rank(0, 1);
        let core = RouterCore::new(vec![tx], Arc::new(Liveness::new(1)), Some(plan));
        assert_eq!(core.route(0, env(0, 1, vec![1]), 0), Verdict::Killed);
        assert!(core.liveness().is_dead(0));
        assert!(rx.try_recv().is_err(), "killed post must not deliver");
        assert_eq!(core.fault_stats().sends_per_rank, vec![1]);
    }

    #[test]
    fn duplicate_copies_share_the_sequence_number() {
        let (tx, rx) = channel();
        let plan =
            FaultPlan::new().with_rule(MsgMatcher::any(), Pick::Always, MsgAction::Duplicate);
        let core = RouterCore::new(vec![tx], Arc::new(Liveness::new(1)), Some(plan));
        core.route(0, env(0, 7, vec![9]), 0);
        let a = rx.try_recv().unwrap();
        let b = rx.try_recv().unwrap();
        assert_eq!(a.seq, b.seq);
        assert_eq!(a.data, b.data);
    }

    #[test]
    fn stale_incarnation_posts_are_fenced() {
        let (tx, rx) = channel();
        let core = RouterCore::new(vec![tx], Arc::new(Liveness::new(1)), None);
        core.liveness().mark_dead(0);
        assert!(core.liveness().resurrect(0, 1));
        // A zombie of incarnation 0 posts after the respawn: discarded
        // without beating the heartbeat or consuming a sequence number.
        assert_eq!(core.route(0, env(0, 1, vec![7]), 0), Verdict::Posted);
        assert!(rx.try_recv().is_err(), "stale post must not deliver");
        assert_eq!(core.stale_drops(), 1);
        assert_eq!(core.liveness().beats(0), 0);
        // The new incarnation's traffic flows normally.
        assert_eq!(core.route(0, env(0, 1, vec![8]), 1), Verdict::Posted);
        assert_eq!(rx.try_recv().unwrap().seq, 0);
    }
}
