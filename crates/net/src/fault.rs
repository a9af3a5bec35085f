//! Deterministic, seedable fault injection for the virtual network.
//!
//! Production coupling layers lose ranks and messages as a matter of
//! course; the recovery paths (typed receive errors, retrying exchanges,
//! replica failover) must therefore be exercised by *reproducible*
//! disasters. A [`FaultPlan`] scripts them ahead of a run:
//!
//! * **rank kills** — rank `r` dies when it attempts its `k`-th message
//!   post, standing in for a node loss mid-exchange;
//! * **message rules** — messages matching a `(ctx, src, dst, tag)`
//!   pattern are dropped, duplicated (same transport sequence number, so
//!   receiver-side dedup catches them) or delayed (re-delivered after a
//!   fixed number of later messages on the same `src→dst` flow).
//!
//! Rule firing is deterministic: occurrence-counted ([`Pick::Nth`],
//! [`Pick::Every`]) or derived from a seeded counter hash
//! ([`Pick::Seeded`]), never from wall-clock or thread scheduling. On a
//! single `src→dst` flow the match indices are the sender's program
//! order, so a fixed seed replays the same disasters exactly.

use crate::envelope::Envelope;
use crate::Tag;
use std::sync::atomic::{AtomicU64, Ordering};

/// Kill one rank at a scripted point in its own message stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankKill {
    /// World rank to kill.
    pub rank: usize,
    /// The rank dies when it attempts its `at_send`-th post (1-based);
    /// that message is never delivered — a loss mid-exchange.
    pub at_send: u64,
}

/// Pattern over message coordinates; `None` fields are wildcards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MsgMatcher {
    /// Communicator context, if constrained.
    pub ctx: Option<u64>,
    /// Sender world rank, if constrained.
    pub src: Option<usize>,
    /// Destination world rank, if constrained.
    pub dst: Option<usize>,
    /// Message tag, if constrained.
    pub tag: Option<Tag>,
}

impl MsgMatcher {
    /// Match every message.
    pub fn any() -> Self {
        Self::default()
    }

    /// Match one directed flow `src → dst` (world ranks).
    pub fn flow(src: usize, dst: usize) -> Self {
        Self {
            src: Some(src),
            dst: Some(dst),
            ..Self::default()
        }
    }

    /// Additionally constrain the tag.
    pub fn with_tag(mut self, tag: Tag) -> Self {
        self.tag = Some(tag);
        self
    }

    fn matches(&self, env: &Envelope, dst: usize) -> bool {
        self.ctx.is_none_or(|c| c == env.ctx)
            && self.src.is_none_or(|s| s == env.src)
            && self.dst.is_none_or(|d| d == dst)
            && self.tag.is_none_or(|t| t == env.tag)
    }
}

/// What happens to a message a rule fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgAction {
    /// The message is silently discarded.
    Drop,
    /// The message is delivered twice with the same transport sequence
    /// number; mailbox dedup must make the copy invisible.
    Duplicate,
    /// Delivery is deferred until `after_flow_msgs` later messages on the
    /// same `src → dst` flow have been delivered (a re-ordering delay).
    /// If the flow falls silent the message stays parked — exactly the
    /// situation the retry layer's re-sends un-stick.
    Delay {
        /// How many subsequent same-flow deliveries precede this one.
        after_flow_msgs: u64,
    },
}

/// Which occurrences (1-based match indices) of a matching message the
/// rule fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// Every occurrence.
    Always,
    /// Exactly the `k`-th occurrence (one-shot).
    Nth(u64),
    /// Every `n`-th occurrence (`n`, `2n`, ...).
    Every(u64),
    /// Occurrence `i` fires when `splitmix64(seed, i) mod den < num` —
    /// a deterministic, seed-replayable Bernoulli(`num/den`) stream.
    Seeded {
        /// Stream seed.
        seed: u64,
        /// Numerator of the firing probability.
        num: u32,
        /// Denominator of the firing probability.
        den: u32,
    },
}

impl Pick {
    fn fires(&self, occurrence: u64) -> bool {
        match *self {
            Pick::Always => true,
            Pick::Nth(k) => occurrence == k,
            Pick::Every(n) => n > 0 && occurrence.is_multiple_of(n),
            Pick::Seeded { seed, num, den } => {
                assert!(den > 0, "seeded pick needs a positive denominator");
                splitmix64(seed ^ splitmix64(occurrence)) % (den as u64) < num as u64
            }
        }
    }
}

/// One scripted message disturbance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgRule {
    /// Which messages the rule considers.
    pub matcher: MsgMatcher,
    /// Which of those occurrences it fires on.
    pub pick: Pick,
    /// What it does when it fires.
    pub action: MsgAction,
}

/// A scripted set of disasters for one universe run. The first rule that
/// matches *and* fires decides a message's fate; later rules are not
/// consulted for it.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Scripted rank deaths.
    pub kills: Vec<RankKill>,
    /// Scripted message disturbances.
    pub rules: Vec<MsgRule>,
}

impl FaultPlan {
    /// An empty plan (installs the fault layer — sequence-number dedup on
    /// every mailbox — without scripting any disaster).
    pub fn new() -> Self {
        Self::default()
    }

    /// Kill `rank` when it attempts its `at_send`-th post (1-based).
    pub fn kill_rank(mut self, rank: usize, at_send: u64) -> Self {
        assert!(at_send >= 1, "sends are counted from 1");
        self.kills.push(RankKill { rank, at_send });
        self
    }

    /// Add a message rule.
    pub fn with_rule(mut self, matcher: MsgMatcher, pick: Pick, action: MsgAction) -> Self {
        self.rules.push(MsgRule {
            matcher,
            pick,
            action,
        });
        self
    }

    /// True when nothing is scripted.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty() && self.rules.is_empty()
    }
}

/// Per-run fired/match counters, reported back by the universe runner so
/// tests can assert that a plan replayed identically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages each rule matched (fired or not), in rule order.
    pub rule_matches: Vec<u64>,
    /// Messages each rule fired on, in rule order.
    pub rule_fired: Vec<u64>,
    /// Messages each rank posted (attempted), indexed by world rank.
    pub sends_per_rank: Vec<u64>,
}

/// The panic payload of a scripted kill. The universe runner recognizes it
/// and records the rank as dead instead of propagating a test failure; the
/// process worker maps it to a dedicated exit code.
#[derive(Debug, Clone, Copy)]
pub struct ScriptedKill {
    /// The rank the plan killed.
    pub rank: usize,
}

/// What the transport should do with one posted message.
pub enum Decision {
    /// The sending rank dies now; the message is lost.
    Kill,
    /// Apply a rule's action.
    Act(MsgAction),
    /// Deliver normally.
    Deliver,
}

/// Live counters instantiated from a [`FaultPlan`] for one run.
pub struct FaultState {
    plan: FaultPlan,
    send_counts: Vec<AtomicU64>,
    rule_matches: Vec<AtomicU64>,
    rule_fired: Vec<AtomicU64>,
}

impl FaultState {
    /// Instantiate live counters for one run over `n_ranks` world ranks.
    pub fn new(plan: FaultPlan, n_ranks: usize) -> Self {
        let n_rules = plan.rules.len();
        Self {
            plan,
            send_counts: (0..n_ranks).map(|_| AtomicU64::new(0)).collect(),
            rule_matches: (0..n_rules).map(|_| AtomicU64::new(0)).collect(),
            rule_fired: (0..n_rules).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Judge one posted message. Counts the sender's post, checks scripted
    /// kills, then runs the message rules in order.
    pub fn on_post(&self, env: &Envelope, dst: usize) -> Decision {
        let nth_send = self.send_counts[env.src].fetch_add(1, Ordering::Relaxed) + 1;
        for k in &self.plan.kills {
            if k.rank == env.src && k.at_send == nth_send {
                return Decision::Kill;
            }
        }
        for (i, rule) in self.plan.rules.iter().enumerate() {
            if rule.matcher.matches(env, dst) {
                let occurrence = self.rule_matches[i].fetch_add(1, Ordering::Relaxed) + 1;
                if rule.pick.fires(occurrence) {
                    self.rule_fired[i].fetch_add(1, Ordering::Relaxed);
                    return Decision::Act(rule.action);
                }
            }
        }
        Decision::Deliver
    }

    /// Snapshot of the per-rule and per-rank counters.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            rule_matches: self
                .rule_matches
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            rule_fired: self
                .rule_fired
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sends_per_rank: self
                .send_counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// SplitMix64 mixing step — the same counter-based generator family the
/// DPD stochastic streams use, so seeded picks are cheap and replayable.
/// Public because the supervisor's restart backoff derives its
/// deterministic jitter from the same stream.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(ctx: u64, src: usize, tag: Tag) -> Envelope {
        Envelope {
            ctx,
            src,
            tag,
            data: Vec::new(),
            seq: 0,
        }
    }

    #[test]
    fn matcher_wildcards_and_constraints() {
        let m = MsgMatcher::flow(1, 2).with_tag(7);
        assert!(m.matches(&env(0, 1, 7), 2));
        assert!(!m.matches(&env(0, 1, 8), 2));
        assert!(!m.matches(&env(0, 0, 7), 2));
        assert!(!m.matches(&env(0, 1, 7), 3));
        assert!(MsgMatcher::any().matches(&env(9, 5, 1), 0));
    }

    #[test]
    fn picks_are_occurrence_counted() {
        assert!(Pick::Always.fires(1) && Pick::Always.fires(100));
        assert!(Pick::Nth(3).fires(3));
        assert!(!Pick::Nth(3).fires(2) && !Pick::Nth(3).fires(4));
        assert!(Pick::Every(2).fires(2) && Pick::Every(2).fires(4));
        assert!(!Pick::Every(2).fires(3));
    }

    #[test]
    fn seeded_pick_replays_and_tracks_rate() {
        let p = Pick::Seeded {
            seed: 42,
            num: 1,
            den: 4,
        };
        let a: Vec<bool> = (1..=1000).map(|i| p.fires(i)).collect();
        let b: Vec<bool> = (1..=1000).map(|i| p.fires(i)).collect();
        assert_eq!(a, b, "same seed must replay identically");
        let hits = a.iter().filter(|&&h| h).count();
        assert!(
            (150..=350).contains(&hits),
            "Bernoulli(1/4) stream wildly off: {hits}/1000"
        );
        let q = Pick::Seeded {
            seed: 43,
            num: 1,
            den: 4,
        };
        let c: Vec<bool> = (1..=1000).map(|i| q.fires(i)).collect();
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn state_counts_kills_and_rule_fires() {
        let plan = FaultPlan::new().kill_rank(0, 2).with_rule(
            MsgMatcher::flow(1, 0),
            Pick::Nth(1),
            MsgAction::Drop,
        );
        let fs = FaultState::new(plan, 2);
        assert!(matches!(fs.on_post(&env(0, 0, 1), 1), Decision::Deliver));
        assert!(matches!(fs.on_post(&env(0, 0, 1), 1), Decision::Kill));
        assert!(matches!(
            fs.on_post(&env(0, 1, 1), 0),
            Decision::Act(MsgAction::Drop)
        ));
        assert!(matches!(fs.on_post(&env(0, 1, 1), 0), Decision::Deliver));
        let st = fs.stats();
        assert_eq!(st.sends_per_rank, vec![2, 2]);
        assert_eq!(st.rule_matches, vec![2]);
        assert_eq!(st.rule_fired, vec![1]);
    }
}
