//! The MCI hierarchy: topology-aware L2, task-oriented L3, interface-local
//! L4 sub-communicators, the three-step inter-patch exchange (paper Fig. 4)
//! and replica (ensemble) groups (paper Fig. 6).

use crate::comm::Comm;
use crate::envelope::RecvError;
use crate::Tag;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::time::Duration;

/// Per-rank input to [`Hierarchy::build`]: which topology block and which
/// solver task this rank belongs to.
///
/// On the real machine the L2 color comes from the node's torus coordinates
/// (one color per rack/midplane); here the caller derives it from the modeled
/// topology (`nkg-topo`) or passes a trivial single color on "homogeneous
/// networks", exactly as the paper does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchySpec {
    /// Topology block (rack) id — determines the L2 group.
    pub l2_color: usize,
    /// Task id (solver instance: patch index or atomistic domain index) —
    /// determines the L3 group. Task ids are global across L2 groups.
    pub l3_color: usize,
}

/// The communicator hierarchy of one rank after [`Hierarchy::build`].
pub struct Hierarchy {
    /// The undivided world communicator (L1).
    pub world: Comm,
    /// Topology-oriented group (L2).
    pub l2: Comm,
    /// Task-oriented group (L3) — the communicator a solver instance runs on.
    pub l3: Comm,
    /// This rank's spec, kept for diagnostics.
    pub spec: HierarchySpec,
}

impl Hierarchy {
    /// Collectively build the L2 and L3 levels.
    ///
    /// Following the paper (§3.1): the world communicator is first split by
    /// machine topology into L2 groups; the L2 groups are then subdivided by
    /// task. A task must not span L2 groups (the paper sizes tasks to fit a
    /// topology block); this is asserted by checking that the L3 group built
    /// inside L2 equals the set of world ranks with my task id.
    pub fn build(world: Comm, spec: HierarchySpec) -> Self {
        let l2 = world
            .split(Some(spec.l2_color), world.rank())
            .expect("uniform split cannot fail");
        let l3 = l2
            .split(Some(spec.l3_color), l2.rank())
            .expect("uniform split cannot fail");
        // Cross-check: every rank with my l3_color must be inside my L2,
        // otherwise the task straddles a topology boundary.
        let all: Vec<Vec<u64>> = world.allgather(&[spec.l3_color as u64, spec.l2_color as u64]);
        for (r, entry) in all.iter().enumerate() {
            if entry[0] as usize == spec.l3_color {
                assert_eq!(
                    entry[1] as usize, spec.l2_color,
                    "task {} spans topology blocks {} and {} (world rank {r})",
                    spec.l3_color, spec.l2_color, entry[1]
                );
            }
        }
        Self {
            world,
            l2,
            l3,
            spec,
        }
    }

    /// Derive an L4 interface group from this rank's L3 communicator.
    ///
    /// Every rank of the L3 group must call this; ranks whose partitions
    /// touch the interface pass `member = true` and get the new
    /// communicator, others get `None`. The L4 root (index 0) is the member
    /// with the lowest L3 rank, matching the paper's convention.
    pub fn derive_l4(&self, member: bool) -> Option<Comm> {
        self.l3
            .split(if member { Some(0) } else { None }, self.l3.rank())
    }

    /// Human-readable dump of the hierarchy as seen by this rank — the
    /// executable analogue of the paper's Fig. 3.
    pub fn describe(&self) -> String {
        format!(
            "world rank {w}/{ws} | L2 color {c2}: rank {r2}/{s2} (ctx {x2:#x}) | \
             L3 task {c3}: rank {r3}/{s3} (ctx {x3:#x})",
            w = self.world.rank(),
            ws = self.world.size(),
            c2 = self.spec.l2_color,
            r2 = self.l2.rank(),
            s2 = self.l2.size(),
            x2 = self.l2.context(),
            c3 = self.spec.l3_color,
            r3 = self.l3.rank(),
            s3 = self.l3.size(),
            x3 = self.l3.context(),
        )
    }
}

/// A point-to-point link between two interface (L4) groups living in
/// different solver domains, carrying data with the paper's three-step
/// algorithm:
///
/// 1. members gather their interface payload onto the L4 root;
/// 2. the two L4 roots exchange one message over the world communicator;
/// 3. each root scatters the received payload back to its members.
///
/// Only two world-level messages cross the domain boundary per exchange,
/// "performed only a few times at each time step and thus \[having\]
/// negligible impact on the performance" (paper §3.1).
pub struct InterfaceLink {
    /// The local interface group. Index 0 is the root.
    pub l4: Comm,
    /// World rank of the peer interface group's root.
    pub peer_root_world: usize,
    /// User tag distinguishing this interface from others.
    pub tag: Tag,
    /// Exchange sequence number for the fault-tolerant path: both sides
    /// count [`InterfaceLink::exchange_ft`] calls in lockstep, so a root
    /// can recognize (and discard) a stale retransmitted window.
    seq: Cell<u64>,
    /// Root-to-root frames this root has sent, by sequence number. A
    /// peer retransmitting an *old* window is the signal that our frame
    /// for that window was lost — we answer by resending the cached copy
    /// (retransmission-as-NACK). Pruned as the peer is observed to
    /// advance.
    sent: RefCell<HashMap<u64, Vec<f64>>>,
    /// Frames that arrived from a peer *ahead* of us (it completed a
    /// window whose frame to us was lost, advanced, and sent the next
    /// one). Stashed until our own sequence catches up.
    future: RefCell<HashMap<u64, Vec<f64>>>,
}

impl InterfaceLink {
    /// Assemble a link from its parts (no handshake). Prefer
    /// [`InterfaceLink::establish`], which verifies the pairing.
    pub fn new(l4: Comm, peer_root_world: usize, tag: Tag) -> Self {
        Self {
            l4,
            peer_root_world,
            tag,
            seq: Cell::new(0),
            sent: RefCell::new(HashMap::new()),
            future: RefCell::new(HashMap::new()),
        }
    }

    /// Establish a link by exchanging root identities over the world
    /// communicator (the paper's preprocessing step 3, where L3 roots signal
    /// which L4 groups must talk).
    ///
    /// `peer_l4_root_world` is the world rank of the remote L4 root, known
    /// to the caller from the domain registry; both sides' roots perform a
    /// handshake carrying the tag so mispaired links fail fast.
    pub fn establish(world: &Comm, l4: Comm, peer_l4_root_world: usize, tag: Tag) -> Self {
        let link = Self::new(l4, peer_l4_root_world, tag);
        if link.is_root() {
            let got = world.sendrecv(&[tag as u64], peer_l4_root_world, tag);
            assert_eq!(
                got,
                vec![tag as u64],
                "interface handshake mismatch on tag {tag}"
            );
        }
        link
    }

    /// Whether this rank is the L4 root of the local side.
    pub fn is_root(&self) -> bool {
        self.l4.rank() == 0
    }

    /// Three-step exchange. Each local member contributes `send`; each
    /// local member receives a chunk of the peer payload of length
    /// `recv_len` (the caller knows its interface footprint). The total
    /// received length must equal the peer's total sent length.
    ///
    /// The root-to-root message is length-prefixed: the sender declares its
    /// total up front, so a size mismatch between the two interface sides
    /// fails loudly naming both lengths instead of truncating or hanging.
    pub fn exchange(&self, world: &Comm, send: &[f64], recv_len: usize) -> Vec<f64> {
        let Some((flat, lens)) = self.gather_to_root(send, recv_len) else {
            return self.l4.scatter::<f64>(0, None);
        };
        // Step 2: root-to-root exchange over the world communicator, the
        // payload length declared in the first slot of the frame.
        let mut frame = Vec::with_capacity(flat.len() + 1);
        frame.push(f64::from_bits(flat.len() as u64));
        frame.extend_from_slice(&flat);
        let peer_frame = world.sendrecv(&frame, self.peer_root_world, self.tag);
        self.scatter_from_root(&self.unframe(&peer_frame), &lens)
    }

    /// Step 1 of the three-step exchange: gather every member's payload
    /// and receive-count on the L4 root. The root gets the concatenated
    /// payload and the counts in member order; members get `None`.
    fn gather_to_root(&self, send: &[f64], recv_len: usize) -> Option<(Vec<f64>, Vec<usize>)> {
        let gathered = self.l4.gather(0, send);
        let lens = self.l4.gather(0, &[recv_len as u64]);
        let flat = gathered?.into_iter().flatten().collect();
        let lens = lens?.iter().map(|l| l[0] as usize).collect();
        Some((flat, lens))
    }

    /// Step 3 on the root: check the peer payload against the members'
    /// declared footprints, then scatter it by receive-count. Returns the
    /// root's own chunk.
    fn scatter_from_root(&self, peer_flat: &[f64], lens: &[usize]) -> Vec<f64> {
        let total: usize = lens.iter().sum();
        assert_eq!(
            peer_flat.len(),
            total,
            "interface {}: peer declared and sent {} values, local members expect {} \
             — mismatched interface footprints",
            self.tag,
            peer_flat.len(),
            total
        );
        let mut parts = Vec::with_capacity(lens.len());
        let mut off = 0;
        for &l in lens {
            parts.push(peer_flat[off..off + l].to_vec());
            off += l;
        }
        self.l4.scatter(0, Some(&parts))
    }

    /// Validate a `[declared_len, data...]` frame and return the payload.
    fn unframe(&self, frame: &[f64]) -> Vec<f64> {
        assert!(
            !frame.is_empty(),
            "interface {}: peer root sent an unframed empty message",
            self.tag
        );
        let declared = frame[0].to_bits() as usize;
        let actual = frame.len() - 1;
        assert_eq!(
            declared, actual,
            "interface {}: peer declared {declared} values but {actual} arrived — \
             truncated or corrupted root-to-root message",
            self.tag
        );
        frame[1..].to_vec()
    }

    /// Variant where every local member receives the *entire* peer payload
    /// (root broadcasts instead of scattering). Used when members must
    /// interpolate from the full interface trace.
    pub fn exchange_bcast(&self, world: &Comm, send: &[f64]) -> Vec<f64> {
        let gathered = self.l4.gather(0, send);
        let mut peer = if self.is_root() {
            let flat: Vec<f64> = gathered.unwrap().into_iter().flatten().collect();
            world.sendrecv(&flat, self.peer_root_world, self.tag)
        } else {
            Vec::new()
        };
        self.l4.bcast(0, &mut peer);
        peer
    }

    /// One-directional push: local members contribute, the peer root
    /// receives the concatenation. The peer side must call
    /// [`InterfaceLink::pull`].
    pub fn push(&self, world: &Comm, send: &[f64]) {
        let gathered = self.l4.gather(0, send);
        if self.is_root() {
            let flat: Vec<f64> = gathered.unwrap().into_iter().flatten().collect();
            world.send(&flat, self.peer_root_world, self.tag);
        }
    }

    /// Receive a one-directional push from the peer; every member gets the
    /// full payload via broadcast.
    pub fn pull(&self, world: &Comm) -> Vec<f64> {
        let mut data = if self.is_root() {
            world.recv(self.peer_root_world, self.tag)
        } else {
            Vec::new()
        };
        self.l4.bcast(0, &mut data);
        data
    }

    /// Fault-tolerant three-step exchange: retry with exponential backoff.
    ///
    /// Identical data movement to [`InterfaceLink::exchange`], but the
    /// root-to-root message carries an exchange sequence number and the
    /// receiving root waits with a per-attempt deadline, resending its own
    /// window (backing off exponentially) until the peer's frame for the
    /// *current* sequence number arrives. Stale retransmissions of earlier
    /// windows are recognized by their sequence number and discarded, so
    /// retried exchanges stay idempotent and bitwise identical to a clean
    /// run. Every L4 member returns the same `Ok`/`Err` outcome (the root
    /// broadcasts the verdict before scattering).
    pub fn exchange_ft(
        &self,
        world: &Comm,
        send: &[f64],
        recv_len: usize,
        policy: &RetryPolicy,
    ) -> Result<Vec<f64>, ExchangeError> {
        assert!(policy.max_attempts >= 1, "need at least one attempt");
        let seq = self.seq.get() + 1;
        self.seq.set(seq);
        if let Some((flat, lens)) = self.gather_to_root(send, recv_len) {
            let mut frame = Vec::with_capacity(flat.len() + 2);
            frame.push(f64::from_bits(seq));
            frame.push(f64::from_bits(flat.len() as u64));
            frame.extend_from_slice(&flat);
            // Step 2 with retries: send, then await the peer's frame for
            // `seq`. Three recovery paths cover a lost frame in either
            // direction:
            //   * our wait times out → resend our frame (the peer may have
            //     never seen it) with exponential backoff;
            //   * the peer retransmits an *earlier* window → our frame for
            //     that window was lost; resend the cached copy;
            //   * the peer sends a *later* window → its frame for `seq`
            //     reached us in a previous call's stash, or will never
            //     come again — consult the stash, keep the new frame for
            //     the matching future call.
            self.sent.borrow_mut().insert(seq, frame.clone());
            world.send(&frame, self.peer_root_world, self.tag);
            let mut backoff = policy.backoff;
            let mut attempt = 1u32;
            let outcome: Result<Vec<f64>, ExchangeError> = loop {
                if let Some(pf) = self.future.borrow_mut().remove(&seq) {
                    break Ok(self.unframe(&pf[1..]));
                }
                match world.recv_deadline::<f64>(
                    self.peer_root_world,
                    self.tag,
                    policy.attempt_timeout,
                ) {
                    Ok(pf) => {
                        assert!(pf.len() >= 2, "malformed ft-exchange frame");
                        let rseq = pf[0].to_bits();
                        if rseq == seq {
                            // The peer reaching `seq` proves it completed
                            // every earlier window, i.e. holds all our
                            // frames below `seq` — prune the cache.
                            self.sent.borrow_mut().retain(|&s, _| s >= seq);
                            break Ok(self.unframe(&pf[1..]));
                        }
                        if rseq < seq {
                            // The peer is stuck on an earlier window: our
                            // frame for it was lost. Resend it (a frame no
                            // longer cached means the peer already has it
                            // and this is a harmless duplicate).
                            let cached = self.sent.borrow().get(&rseq).cloned();
                            if let Some(f) = cached {
                                world.send(&f, self.peer_root_world, self.tag);
                            }
                            continue;
                        }
                        // The peer is ahead: keep its frame for the call
                        // that will want it, and prune what it provably
                        // holds.
                        self.sent.borrow_mut().retain(|&s, _| s >= rseq);
                        self.future.borrow_mut().insert(rseq, pf);
                    }
                    Err(RecvError::PeerDead { .. }) => {
                        break Err(ExchangeError::PeerDead {
                            peer_root: self.peer_root_world,
                        });
                    }
                    Err(RecvError::Timeout { .. }) => {
                        if attempt >= policy.max_attempts {
                            break Err(ExchangeError::Deadline { attempts: attempt });
                        }
                        std::thread::sleep(backoff);
                        backoff *= policy.backoff_factor;
                        attempt += 1;
                        world.send(&frame, self.peer_root_world, self.tag);
                    }
                }
            };
            // Tell the members the verdict before the (optional) scatter.
            let mut status = match &outcome {
                Ok(_) => vec![0.0, 0.0],
                Err(ExchangeError::PeerDead { .. }) => vec![1.0, 0.0],
                Err(ExchangeError::Deadline { attempts }) => {
                    vec![2.0, f64::from_bits(*attempts as u64)]
                }
            };
            self.l4.bcast(0, &mut status);
            Ok(self.scatter_from_root(&outcome?, &lens))
        } else {
            let mut status: Vec<f64> = Vec::new();
            self.l4.bcast(0, &mut status);
            match status[0] as u64 {
                0 => Ok(self.l4.scatter::<f64>(0, None)),
                1 => Err(ExchangeError::PeerDead {
                    peer_root: self.peer_root_world,
                }),
                _ => Err(ExchangeError::Deadline {
                    attempts: status[1].to_bits() as u32,
                }),
            }
        }
    }
}

/// Retry schedule for [`InterfaceLink::exchange_ft`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total send attempts before giving up (≥ 1).
    pub max_attempts: u32,
    /// How long each attempt waits for the peer's frame.
    pub attempt_timeout: Duration,
    /// Sleep before the first resend.
    pub backoff: Duration,
    /// Multiplier applied to the backoff after every failed attempt.
    pub backoff_factor: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            attempt_timeout: Duration::from_millis(500),
            backoff: Duration::from_millis(2),
            backoff_factor: 2,
        }
    }
}

/// Why a fault-tolerant exchange failed. All L4 members of the local side
/// observe the same value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeError {
    /// The peer L4 root has been declared dead.
    PeerDead {
        /// World rank of the dead peer root.
        peer_root: usize,
    },
    /// The peer never answered within the retry schedule.
    Deadline {
        /// Attempts made before giving up.
        attempts: u32,
    },
}

impl std::fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExchangeError::PeerDead { peer_root } => {
                write!(f, "exchange peer root (world rank {peer_root}) is dead")
            }
            ExchangeError::Deadline { attempts } => {
                write!(f, "exchange deadline exceeded after {attempts} attempt(s)")
            }
        }
    }
}

impl std::error::Error for ExchangeError {}

/// Replica (ensemble) organization of an atomistic L3 group, paper Fig. 6.
///
/// The L3 group is split into `n_replicas` equal sub-groups, each running an
/// independent realization of the same stochastic problem. The same-index
/// ranks across replicas are additionally linked by an `across` communicator
/// so ensemble statistics (and interface payloads) can be averaged with one
/// allreduce. Replica 0 is the *master*: only its L4 group talks to the
/// continuum solver, and it broadcasts/averages on behalf of the slaves.
pub struct ReplicaSet {
    /// Communicator of my replica (a contiguous slice of the L3 group).
    pub replica: Comm,
    /// Communicator linking rank `i` of every replica.
    pub across: Comm,
    /// Which replica I belong to.
    pub replica_index: usize,
    /// Total number of replicas.
    pub n_replicas: usize,
    /// Ranks per replica.
    pub per: usize,
    /// World ranks of the whole L3 group, in L3 rank order; replica `r`
    /// owns the contiguous slice `r*per..(r+1)*per`.
    pub l3_members: Vec<usize>,
    /// Which replica currently acts as master. Starts at 0; bumped by
    /// [`ReplicaSet::promote`] on failover.
    pub master_index: usize,
}

impl ReplicaSet {
    /// Collectively split an L3 communicator into replicas.
    ///
    /// # Panics
    /// Panics unless the L3 size is a positive multiple of `n_replicas`.
    pub fn build(l3: &Comm, n_replicas: usize) -> Self {
        assert!(n_replicas > 0, "need at least one replica");
        assert_eq!(
            l3.size() % n_replicas,
            0,
            "L3 size {} not divisible into {} replicas",
            l3.size(),
            n_replicas
        );
        let per = l3.size() / n_replicas;
        let replica_index = l3.rank() / per;
        let replica = l3
            .split(Some(replica_index), l3.rank())
            .expect("uniform split");
        let across = l3
            .split(Some(l3.rank() % per), l3.rank())
            .expect("uniform split");
        Self {
            replica,
            across,
            replica_index,
            n_replicas,
            per,
            l3_members: l3.members().to_vec(),
            master_index: 0,
        }
    }

    /// Am I in the master replica (the one owning the continuum link)?
    pub fn is_master(&self) -> bool {
        self.replica_index == self.master_index
    }

    /// World rank of replica `r`'s root (its lowest L3 rank).
    pub fn replica_root_world(&self, r: usize) -> usize {
        self.l3_members[r * self.per]
    }

    /// Failover: re-elect the master as the lowest-indexed replica all of
    /// whose ranks satisfy `alive` (world-rank predicate). Returns the new
    /// master index, or `None` if no replica is fully live. Deterministic
    /// given the same liveness view, so every surviving rank that calls
    /// this with a consistent view elects the same master — the paper's
    /// master/slave L4 semantics with the lowest live slave promoted.
    pub fn promote(&mut self, alive: impl Fn(usize) -> bool) -> Option<usize> {
        let winner = (0..self.n_replicas).find(|&r| {
            self.l3_members[r * self.per..(r + 1) * self.per]
                .iter()
                .all(|&w| alive(w))
        })?;
        self.master_index = winner;
        Some(winner)
    }

    /// Ensemble average of per-rank data across replicas: each rank ends up
    /// with the mean of the values held by its counterparts.
    pub fn ensemble_average(&self, data: &[f64]) -> Vec<f64> {
        let mut sum = self.across.allreduce_sum(data);
        let inv = 1.0 / self.n_replicas as f64;
        for x in &mut sum {
            *x *= inv;
        }
        sum
    }

    /// Master broadcasts data to the same-index ranks of every replica
    /// (the paper's "master L4 ... broadcast\[s\] ... to the slaves"). The
    /// `across` communicator orders ranks by replica index, so the current
    /// master is root `master_index`.
    pub fn master_bcast(&self, data: &mut Vec<f64>) {
        self.across.bcast(self.master_index, data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;

    #[test]
    fn hierarchy_builds_and_describes() {
        // 8 ranks, 2 racks of 4, tasks: {0,1} in rack 0, {2} spanning rack 1.
        Universe::new(8).run(|world| {
            let r = world.rank();
            let spec = HierarchySpec {
                l2_color: r / 4,
                l3_color: if r < 2 {
                    0
                } else if r < 4 {
                    1
                } else {
                    2
                },
            };
            let h = Hierarchy::build(world, spec);
            assert_eq!(h.l2.size(), 4);
            let expected_l3 = if r < 4 { 2 } else { 4 };
            assert_eq!(h.l3.size(), expected_l3);
            assert!(h.describe().contains("L3 task"));
        });
    }

    #[test]
    #[should_panic(expected = "spans topology blocks")]
    fn task_across_racks_rejected() {
        Universe::new(4).run(|world| {
            let spec = HierarchySpec {
                l2_color: world.rank() / 2,
                l3_color: 0, // one task across both racks: invalid
            };
            let _ = Hierarchy::build(world, spec);
        });
    }

    #[test]
    fn l4_derivation_picks_members() {
        Universe::new(6).run(|world| {
            let spec = HierarchySpec {
                l2_color: 0,
                l3_color: world.rank() / 3,
            };
            let h = Hierarchy::build(world, spec);
            // Only the first two ranks of each task touch the interface.
            let member = h.l3.rank() < 2;
            let l4 = h.derive_l4(member);
            assert_eq!(l4.is_some(), member);
            if let Some(l4) = l4 {
                assert_eq!(l4.size(), 2);
            }
        });
    }

    #[test]
    fn three_step_exchange_swaps_payloads() {
        // Two domains of 3 ranks; interface members: ranks {0,1} of each L3.
        Universe::new(6).run(|world| {
            let domain = world.rank() / 3;
            let spec = HierarchySpec {
                l2_color: 0,
                l3_color: domain,
            };
            let h = Hierarchy::build(world, spec);
            let member = h.l3.rank() < 2;
            let l4 = h.derive_l4(member);
            if let Some(l4) = l4 {
                // Peer root: world rank 0 for domain 1, world rank 3 for domain 0.
                let peer_root = if domain == 0 { 3 } else { 0 };
                let link = InterfaceLink::establish(&h.world, l4, peer_root, 42);
                // Member k of domain d sends [d*100 + k, d*100 + k + 10].
                let me = link.l4.rank() as f64 + domain as f64 * 100.0;
                let got = link.exchange(&h.world, &[me, me + 10.0], 2);
                // Payload order is gather order: member 0 then member 1.
                let peer = 1.0 - domain as f64;
                let expect_first = peer * 100.0 + link.l4.rank() as f64; // my chunk
                assert_eq!(got.len(), 2);
                assert_eq!(got[0], expect_first);
                assert_eq!(got[1], expect_first + 10.0);
            }
        });
    }

    #[test]
    fn exchange_bcast_gives_full_payload() {
        Universe::new(4).run(|world| {
            let domain = world.rank() / 2;
            let l3 = world.split(Some(domain), world.rank()).unwrap();
            let l4 = l3.split(Some(0), l3.rank()).unwrap();
            let peer_root = if domain == 0 { 2 } else { 0 };
            let link = InterfaceLink::establish(&world, l4, peer_root, 7);
            let mine = [world.rank() as f64];
            let got = link.exchange_bcast(&world, &mine);
            let expect = if domain == 0 {
                vec![2.0, 3.0]
            } else {
                vec![0.0, 1.0]
            };
            assert_eq!(got, expect);
        });
    }

    #[test]
    fn push_pull_one_directional() {
        Universe::new(4).run(|world| {
            let domain = world.rank() / 2;
            let l3 = world.split(Some(domain), world.rank()).unwrap();
            let l4 = l3.split(Some(0), l3.rank()).unwrap();
            let peer_root = if domain == 0 { 2 } else { 0 };
            let link = InterfaceLink::new(l4, peer_root, 9);
            if domain == 0 {
                link.push(&world, &[world.rank() as f64 + 0.5]);
            } else {
                let got = link.pull(&world);
                assert_eq!(got, vec![0.5, 1.5]);
            }
        });
    }

    #[test]
    fn replica_set_averages() {
        // 6 ranks, 3 replicas of 2.
        Universe::new(6).run(|world| {
            let rs = ReplicaSet::build(&world, 3);
            assert_eq!(rs.replica.size(), 2);
            assert_eq!(rs.across.size(), 3);
            assert_eq!(rs.is_master(), world.rank() < 2);
            // Rank r holds value r; counterparts of position p hold p, p+2, p+4.
            let avg = rs.ensemble_average(&[world.rank() as f64]);
            let p = world.rank() % 2;
            let expect = ((p) + (p + 2) + (p + 4)) as f64 / 3.0;
            assert!((avg[0] - expect).abs() < 1e-12);
        });
    }

    #[test]
    fn master_bcast_reaches_slaves() {
        Universe::new(4).run(|world| {
            let rs = ReplicaSet::build(&world, 2);
            let mut data = if rs.is_master() {
                vec![world.rank() as f64 + 100.0]
            } else {
                Vec::new()
            };
            rs.master_bcast(&mut data);
            // Slave rank 2 pairs with master rank 0; slave 3 with master 1.
            assert_eq!(data, vec![(world.rank() % 2) as f64 + 100.0]);
        });
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn ragged_replicas_rejected() {
        Universe::new(5).run(|world| {
            let _ = ReplicaSet::build(&world, 2);
        });
    }

    #[test]
    #[should_panic(expected = "mismatched interface footprints")]
    fn exchange_length_mismatch_fails_loudly() {
        // Domain 0 sends 2 values per member but domain 1's members only
        // expect 1 each: the length-prefixed frame makes the receiving root
        // fail naming both totals instead of truncating.
        Universe::new(4).run(|world| {
            let domain = world.rank() / 2;
            let l3 = world.split(Some(domain), world.rank()).unwrap();
            let l4 = l3.split(Some(0), l3.rank()).unwrap();
            let peer_root = if domain == 0 { 2 } else { 0 };
            let link = InterfaceLink::new(l4, peer_root, 13);
            if domain == 0 {
                let _ = link.exchange(&world, &[1.0, 2.0], 2);
            } else {
                let _ = link.exchange(&world, &[3.0], 1);
            }
        });
    }

    #[test]
    fn exchange_ft_matches_plain_exchange() {
        let out = Universe::new(6).run(|world| {
            let domain = world.rank() / 3;
            let l3 = world.split(Some(domain), world.rank()).unwrap();
            let member = l3.rank() < 2;
            let l4 = l3.split(if member { Some(0) } else { None }, l3.rank());
            let Some(l4) = l4 else {
                return (Vec::new(), Vec::new());
            };
            let peer_root = if domain == 0 { 3 } else { 0 };
            let plain = InterfaceLink::establish(&world, l4.dup(), peer_root, 21);
            let ft = InterfaceLink::establish(&world, l4, peer_root, 22);
            let me = [world.rank() as f64, world.rank() as f64 * 0.5];
            let a = plain.exchange(&world, &me, 2);
            let b = ft
                .exchange_ft(&world, &me, 2, &RetryPolicy::default())
                .unwrap();
            (a, b)
        });
        for (a, b) in &out {
            assert_eq!(a, b, "ft exchange must be bitwise identical");
        }
    }

    #[test]
    fn exchange_ft_sequences_advance() {
        Universe::new(2).run(|world| {
            let l3 = world.split(Some(world.rank()), 0).unwrap();
            let l4 = l3.split(Some(0), 0).unwrap();
            let peer = 1 - world.rank();
            let link = InterfaceLink::new(l4, peer, 30);
            for k in 0..4u64 {
                let got = link
                    .exchange_ft(
                        &world,
                        &[world.rank() as f64 + k as f64],
                        1,
                        &RetryPolicy::default(),
                    )
                    .unwrap();
                assert_eq!(got, vec![peer as f64 + k as f64]);
            }
        });
    }

    #[test]
    fn promote_elects_lowest_live_replica() {
        Universe::new(6).run(|world| {
            let mut rs = ReplicaSet::build(&world, 3);
            assert_eq!(rs.master_index, 0);
            assert_eq!(rs.replica_root_world(1), 2);
            // Replica 0 loses world rank 1: lowest fully-live replica is 1.
            let new = rs.promote(|w| w != 1);
            assert_eq!(new, Some(1));
            assert_eq!(rs.is_master(), world.rank() / 2 == 1);
            // Replicas 0 and 1 both broken: replica 2 wins.
            let new = rs.promote(|w| w != 1 && w != 3);
            assert_eq!(new, Some(2));
            // Everyone broken: no master.
            assert_eq!(rs.promote(|_| false), None);
            rs.master_index = 0;
        });
    }

    #[test]
    fn master_bcast_from_promoted_replica() {
        Universe::new(4).run(|world| {
            let mut rs = ReplicaSet::build(&world, 2);
            rs.promote(|w| w >= 2); // replica 0 (ranks 0,1) is dead
            assert_eq!(rs.master_index, 1);
            let mut data = if rs.is_master() {
                vec![world.rank() as f64 + 200.0]
            } else {
                Vec::new()
            };
            rs.master_bcast(&mut data);
            assert_eq!(data, vec![(world.rank() % 2) as f64 + 202.0]);
        });
    }
}
