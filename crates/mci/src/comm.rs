//! Communicators: contexts, point-to-point messaging and `split`.

use crate::envelope::{Envelope, Mailbox, RecvError};
use crate::universe::RankNet;
use crate::{Tag, RESERVED_TAG_BASE};
use nkg_net::liveness::LivenessView;
use nkg_net::wire::{decode, encode, Wire};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// Internal tags (at or above [`RESERVED_TAG_BASE`]).
pub(crate) mod itag {
    use crate::Tag;
    pub const SPLIT_GATHER: Tag = 0xFFFF_0001;
    pub const SPLIT_REPLY: Tag = 0xFFFF_0002;
    pub const BARRIER: Tag = 0xFFFF_0003;
    pub const BCAST: Tag = 0xFFFF_0004;
    pub const REDUCE: Tag = 0xFFFF_0005;
    pub const GATHER: Tag = 0xFFFF_0006;
    pub const SCATTER: Tag = 0xFFFF_0007;
    pub const ALLTOALL: Tag = 0xFFFF_0008;
    pub const ALLREDUCE: Tag = 0xFFFF_0009;
}

/// An MPI-like communicator: an ordered group of ranks sharing a private
/// message context.
///
/// Ranks inside a communicator are indexed `0..size()`; [`Comm::world_rank`]
/// translates a communicator index to the global (world) rank. All
/// point-to-point calls name peers by *communicator index*.
///
/// `Comm` is deliberately `!Send`: it embeds the rank-local mailbox and must
/// stay on the thread of the rank that created it, exactly like an MPI
/// communicator handle belongs to one process.
pub struct Comm {
    net: Rc<dyn RankNet>,
    mailbox: Rc<RefCell<Mailbox>>,
    ctx: u64,
    ranks: std::sync::Arc<[usize]>,
    my_index: usize,
}

impl Comm {
    pub(crate) fn world(
        net: Rc<dyn RankNet>,
        mailbox: Rc<RefCell<Mailbox>>,
        my_world_rank: usize,
        ranks: std::sync::Arc<[usize]>,
    ) -> Self {
        Self {
            net,
            mailbox,
            ctx: 0,
            my_index: my_world_rank,
            ranks,
        }
    }

    /// This rank's index within the communicator.
    #[inline]
    pub fn rank(&self) -> usize {
        self.my_index
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// World rank of communicator index `i`.
    #[inline]
    pub fn world_rank(&self, i: usize) -> usize {
        self.ranks[i]
    }

    /// This rank's world rank.
    #[inline]
    pub fn my_world_rank(&self) -> usize {
        self.ranks[self.my_index]
    }

    /// The ordered world ranks of all members.
    pub fn members(&self) -> &[usize] {
        &self.ranks
    }

    /// Context identifier (unique per communicator per run). Exposed for
    /// diagnostics and the hierarchy demos.
    pub fn context(&self) -> u64 {
        self.ctx
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Buffered (non-blocking) typed send to communicator index `dst`.
    ///
    /// # Panics
    /// Panics if `tag` is in the reserved internal range or `dst` is out of
    /// bounds.
    pub fn send<T: Wire>(&self, data: &[T], dst: usize, tag: Tag) {
        assert!(
            tag < RESERVED_TAG_BASE,
            "tag {tag:#x} is reserved for internal use"
        );
        self.send_internal(data, dst, tag);
    }

    pub(crate) fn send_internal<T: Wire>(&self, data: &[T], dst: usize, tag: Tag) {
        let env = Envelope {
            ctx: self.ctx,
            src: self.my_world_rank(),
            tag,
            data: encode(data),
            // The transport stamps the real sequence number on post.
            seq: 0,
        };
        self.net.post(self.ranks[dst], env);
    }

    /// Blocking typed receive from communicator index `src`.
    pub fn recv<T: Wire>(&self, src: usize, tag: Tag) -> Vec<T> {
        assert!(
            tag < RESERVED_TAG_BASE,
            "tag {tag:#x} is reserved for internal use"
        );
        self.recv_internal(src, tag)
    }

    pub(crate) fn recv_internal<T: Wire>(&self, src: usize, tag: Tag) -> Vec<T> {
        let env = self
            .mailbox
            .borrow_mut()
            .recv_match(self.ctx, self.ranks[src], tag);
        decode(&env.data)
    }

    /// Combined exchange with one peer: send `data`, then receive the peer's
    /// message with the same tag. Never deadlocks because sends are buffered.
    pub fn sendrecv<T: Wire>(&self, data: &[T], peer: usize, tag: Tag) -> Vec<T> {
        self.send(data, peer, tag);
        self.recv(peer, tag)
    }

    /// Non-blocking check whether a message from `src` with `tag` is ready.
    pub fn probe(&self, src: usize, tag: Tag) -> bool {
        self.mailbox
            .borrow_mut()
            .probe(self.ctx, self.ranks[src], tag)
    }

    /// Non-blocking typed receive: `Ok(Some(data))` if a matching message
    /// has already arrived, `Ok(None)` if not, `Err(PeerDead)` if the
    /// sender is dead and nothing from it remains buffered.
    pub fn try_recv<T: Wire>(&self, src: usize, tag: Tag) -> Result<Option<Vec<T>>, RecvError> {
        assert!(
            tag < RESERVED_TAG_BASE,
            "tag {tag:#x} is reserved for internal use"
        );
        let world_src = self.ranks[src];
        let mut mb = self.mailbox.borrow_mut();
        if let Some(env) = mb.try_match(self.ctx, world_src, tag) {
            return Ok(Some(decode(&env.data)));
        }
        if self.net.liveness().is_dead(world_src) {
            // Re-drain once: the death flag may postdate a final message.
            if let Some(env) = mb.try_match(self.ctx, world_src, tag) {
                return Ok(Some(decode(&env.data)));
            }
            return Err(RecvError::PeerDead { src: world_src });
        }
        Ok(None)
    }

    /// Blocking typed receive with an explicit deadline and a typed error
    /// surface — the fault-tolerant sibling of [`Comm::recv`]. Resolves to
    /// [`RecvError::PeerDead`] promptly if the sender dies while we wait.
    pub fn recv_deadline<T: Wire>(
        &self,
        src: usize,
        tag: Tag,
        timeout: Duration,
    ) -> Result<Vec<T>, RecvError> {
        assert!(
            tag < RESERVED_TAG_BASE,
            "tag {tag:#x} is reserved for internal use"
        );
        self.mailbox
            .borrow_mut()
            .recv_match_deadline(self.ctx, self.ranks[src], tag, timeout)
            .map(|env| decode(&env.data))
    }

    // ------------------------------------------------------------------
    // Liveness
    // ------------------------------------------------------------------

    /// Record an explicit heartbeat for this rank. Message posts and
    /// receipts beat implicitly; long compute phases that neither send nor
    /// receive should call this so peers can see progress.
    pub fn heartbeat(&self) {
        self.net.beat();
    }

    /// Whether communicator index `i` has not been declared dead.
    pub fn is_alive(&self, i: usize) -> bool {
        self.net.liveness().is_alive(self.ranks[i])
    }

    /// Snapshot of the whole machine's liveness, indexed by **world** rank.
    pub fn liveness(&self) -> LivenessView {
        self.net.liveness().view()
    }

    // ------------------------------------------------------------------
    // Split
    // ------------------------------------------------------------------

    /// Collective communicator split, MPI semantics.
    ///
    /// Every member of `self` must call `split`. Ranks passing the same
    /// `Some(color)` end up in the same new communicator, ordered by
    /// `(key, old rank)`. Ranks passing `None` (MPI_UNDEFINED) receive
    /// `None`.
    pub fn split(&self, color: Option<usize>, key: usize) -> Option<Comm> {
        const UNDEF: u64 = u64::MAX;
        let root = 0usize;
        let my = [color.map_or(UNDEF, |c| c as u64), key as u64];
        // Step 1: everyone reports (color, key) to the comm root.
        self.send_internal(&my, root, itag::SPLIT_GATHER);
        let reply: Vec<u64> = if self.rank() == root {
            let mut entries: Vec<(u64, u64, usize)> = Vec::with_capacity(self.size());
            for i in 0..self.size() {
                let v: Vec<u64> = self.recv_internal(i, itag::SPLIT_GATHER);
                entries.push((v[0], v[1], i));
            }
            // Step 2: root forms the groups and allocates fresh contexts.
            let mut colors: Vec<u64> = entries
                .iter()
                .map(|e| e.0)
                .filter(|&c| c != UNDEF)
                .collect();
            colors.sort_unstable();
            colors.dedup();
            let base = self.net.alloc_ctx(colors.len() as u64);
            // reply to each member: [ctx, member world ranks...] or [] if undefined
            let mut replies: Vec<Vec<u64>> = vec![Vec::new(); self.size()];
            for (ci, &c) in colors.iter().enumerate() {
                let mut group: Vec<(u64, usize)> = entries
                    .iter()
                    .filter(|e| e.0 == c)
                    .map(|e| (e.1, e.2))
                    .collect();
                group.sort_unstable();
                let ctx = base + ci as u64;
                let world_ranks: Vec<u64> = group
                    .iter()
                    .map(|&(_, idx)| self.ranks[idx] as u64)
                    .collect();
                for &(_, idx) in &group {
                    let mut msg = Vec::with_capacity(1 + world_ranks.len());
                    msg.push(ctx);
                    msg.extend_from_slice(&world_ranks);
                    replies[idx] = msg;
                }
            }
            // Step 3: scatter the group descriptions.
            for (i, msg) in replies.iter().enumerate() {
                if i != root {
                    self.send_internal(msg, i, itag::SPLIT_REPLY);
                }
            }
            replies[root].clone()
        } else {
            self.recv_internal(root, itag::SPLIT_REPLY)
        };
        if reply.is_empty() {
            return None;
        }
        let ctx = reply[0];
        let ranks: std::sync::Arc<[usize]> = reply[1..].iter().map(|&r| r as usize).collect();
        let me = self.my_world_rank();
        let my_index = ranks
            .iter()
            .position(|&r| r == me)
            .expect("split: my rank missing from my own group");
        Some(Comm {
            net: Rc::clone(&self.net),
            mailbox: Rc::clone(&self.mailbox),
            ctx,
            ranks,
            my_index,
        })
    }

    /// Collective duplicate: a new communicator with the same group but a
    /// fresh context, so traffic on the two cannot interfere.
    pub fn dup(&self) -> Comm {
        self.split(Some(0), self.rank())
            .expect("dup: split with uniform color cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use crate::Universe;

    #[test]
    fn p2p_round_trip() {
        Universe::new(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(&[1.0f64, 2.5, -3.0], 1, 7);
                let back: Vec<f64> = comm.recv(1, 8);
                assert_eq!(back, vec![4.0]);
            } else {
                let got: Vec<f64> = comm.recv(0, 7);
                assert_eq!(got, vec![1.0, 2.5, -3.0]);
                comm.send(&[4.0f64], 0, 8);
            }
        });
    }

    #[test]
    fn tag_matching_is_selective() {
        Universe::new(2).run(|comm| {
            if comm.rank() == 0 {
                // Send tag 2 first, then tag 1; receiver asks for 1 first.
                comm.send(&[2.0f64], 1, 2);
                comm.send(&[1.0f64], 1, 1);
            } else {
                let one: Vec<f64> = comm.recv(0, 1);
                let two: Vec<f64> = comm.recv(0, 2);
                assert_eq!((one[0], two[0]), (1.0, 2.0));
            }
        });
    }

    #[test]
    fn fifo_order_same_tag() {
        Universe::new(2).run(|comm| {
            if comm.rank() == 0 {
                for k in 0..10u32 {
                    comm.send(&[k as f64], 1, 3);
                }
            } else {
                for k in 0..10u32 {
                    let v: Vec<f64> = comm.recv(0, 3);
                    assert_eq!(v[0], k as f64);
                }
            }
        });
    }

    #[test]
    fn sendrecv_pairwise_swap() {
        Universe::new(2).run(|comm| {
            let peer = 1 - comm.rank();
            let got = comm.sendrecv(&[comm.rank() as f64], peer, 4);
            assert_eq!(got, vec![peer as f64]);
        });
    }

    #[test]
    fn split_even_odd() {
        Universe::new(6).run(|comm| {
            let color = comm.rank() % 2;
            let sub = comm.split(Some(color), comm.rank()).unwrap();
            assert_eq!(sub.size(), 3);
            assert_eq!(sub.rank(), comm.rank() / 2);
            assert_eq!(sub.world_rank(sub.rank()), comm.rank());
            // Communicate within the subgroup only.
            let next = (sub.rank() + 1) % sub.size();
            let prev = (sub.rank() + sub.size() - 1) % sub.size();
            sub.send(&[comm.rank() as f64], next, 1);
            let got: Vec<f64> = sub.recv(prev, 1);
            assert_eq!(got[0] as usize % 2, color);
        });
    }

    #[test]
    fn split_key_reorders() {
        Universe::new(4).run(|comm| {
            // Reverse the rank order via the key.
            let sub = comm.split(Some(0), 100 - comm.rank()).unwrap();
            assert_eq!(sub.rank(), comm.size() - 1 - comm.rank());
        });
    }

    #[test]
    fn split_undefined_excluded() {
        Universe::new(5).run(|comm| {
            let color = if comm.rank() < 2 { Some(0) } else { None };
            let sub = comm.split(color, comm.rank());
            assert_eq!(sub.is_some(), comm.rank() < 2);
            if let Some(sub) = sub {
                assert_eq!(sub.size(), 2);
            }
        });
    }

    #[test]
    fn nested_splits() {
        Universe::new(8).run(|comm| {
            let half = comm.split(Some(comm.rank() / 4), comm.rank()).unwrap();
            let quarter = half.split(Some(half.rank() / 2), half.rank()).unwrap();
            assert_eq!(quarter.size(), 2);
            // World ranks of my quarter are contiguous pairs.
            let base = comm.rank() / 2 * 2;
            assert_eq!(quarter.members(), &[base, base + 1]);
        });
    }

    #[test]
    fn dup_isolates_traffic() {
        Universe::new(2).run(|comm| {
            let dup = comm.dup();
            assert_ne!(dup.context(), comm.context());
            if comm.rank() == 0 {
                comm.send(&[1.0f64], 1, 5);
                dup.send(&[2.0f64], 1, 5);
            } else {
                // Receive from the dup first: contexts keep them separate.
                let d: Vec<f64> = dup.recv(0, 5);
                let c: Vec<f64> = comm.recv(0, 5);
                assert_eq!((c[0], d[0]), (1.0, 2.0));
            }
        });
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_tags_rejected() {
        Universe::new(1).run(|comm| {
            comm.send(&[0.0f64], 0, crate::RESERVED_TAG_BASE + 1);
        });
    }
}
