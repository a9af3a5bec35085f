//! Tree-based collective operations on [`Comm`].
//!
//! All collectives are built from the point-to-point layer, exactly like a
//! software MPI: barrier uses the dissemination algorithm, broadcast and
//! reduce use binomial trees rooted at an arbitrary rank, allreduce is a
//! recursive-doubling butterfly on power-of-two communicators (reduce +
//! broadcast otherwise), and the gather/scatter family is linear at the
//! root (interface payloads in the paper travel through L4 roots anyway, so
//! root-linear is the realistic pattern). Because every collective is p2p
//! underneath, the universe's traffic counters see the true message counts
//! — which the Table-2 and exchange-ablation benches rely on.

use crate::comm::itag;
use crate::comm::Comm;
use nkg_net::wire::Wire;

/// Reduction operators over `f64` payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise minimum.
    Min,
    /// Element-wise maximum.
    Max,
}

impl ReduceOp {
    #[inline]
    fn apply(self, acc: &mut [f64], other: &[f64]) {
        match self {
            ReduceOp::Sum => {
                for (a, b) in acc.iter_mut().zip(other) {
                    *a += *b;
                }
            }
            ReduceOp::Min => {
                for (a, b) in acc.iter_mut().zip(other) {
                    *a = a.min(*b);
                }
            }
            ReduceOp::Max => {
                for (a, b) in acc.iter_mut().zip(other) {
                    *a = a.max(*b);
                }
            }
        }
    }
}

impl Comm {
    /// Dissemination barrier: `ceil(log2(n))` rounds, every rank sends one
    /// zero-byte message per round.
    pub fn barrier(&self) {
        let n = self.size();
        let mut k = 1usize;
        while k < n {
            let dst = (self.rank() + k) % n;
            let src = (self.rank() + n - k % n) % n;
            self.send_internal::<u8>(&[], dst, itag::BARRIER);
            let _: Vec<u8> = self.recv_internal(src, itag::BARRIER);
            k <<= 1;
        }
    }

    /// Binomial-tree broadcast from `root`. On the root, `data` is the
    /// payload to distribute; on every other rank its incoming value is
    /// ignored and replaced.
    pub fn bcast<T: Wire>(&self, root: usize, data: &mut Vec<T>) {
        let n = self.size();
        if n == 1 {
            return;
        }
        let rel = (self.rank() + n - root) % n;
        // Receive phase: find my parent in the binomial tree.
        let mut mask = 1usize;
        while mask < n {
            if rel & mask != 0 {
                let parent = ((rel - mask) + root) % n;
                *data = self.recv_internal(parent, itag::BCAST);
                break;
            }
            mask <<= 1;
        }
        // Send phase: forward to my children (in decreasing subtree size).
        mask >>= 1;
        while mask > 0 {
            if rel + mask < n {
                let child = (rel + mask + root) % n;
                self.send_internal(data, child, itag::BCAST);
            }
            mask >>= 1;
        }
    }

    /// Binomial-tree reduce of equal-length `f64` vectors onto `root`.
    /// Returns `Some(result)` on the root, `None` elsewhere.
    pub fn reduce(&self, root: usize, data: &[f64], op: ReduceOp) -> Option<Vec<f64>> {
        let n = self.size();
        let rel = (self.rank() + n - root) % n;
        let mut acc = data.to_vec();
        let mut mask = 1usize;
        while mask < n {
            if rel & mask == 0 {
                let peer = rel | mask;
                if peer < n {
                    let peer_idx = (peer + root) % n;
                    let incoming: Vec<f64> = self.recv_internal(peer_idx, itag::REDUCE);
                    assert_eq!(
                        incoming.len(),
                        acc.len(),
                        "reduce: rank {} contributed {} elements, expected {}",
                        peer_idx,
                        incoming.len(),
                        acc.len()
                    );
                    op.apply(&mut acc, &incoming);
                }
            } else {
                let parent_idx = ((rel & !mask) + root) % n;
                self.send_internal(&acc, parent_idx, itag::REDUCE);
                return None;
            }
            mask <<= 1;
        }
        Some(acc)
    }

    /// Reduce-to-all. Every rank returns the same bits, and the same bits
    /// as `reduce(0)` followed by `bcast(0)`.
    ///
    /// A power-of-two communicator runs a recursive-doubling butterfly:
    /// `log2 n` rounds in which rank `r` swaps its running value with rank
    /// `r ^ mask` and both combine the pair, the lower rank's operand on
    /// the left. Round `k` therefore leaves every rank of an aligned
    /// `2^(k+1)` block holding `block_lo ⊕ block_hi` — the very partial
    /// result the binomial tree forms at the block's lowest rank, so
    /// the association is the tree's, `(a0 ⊕ a1) ⊕ (a2 ⊕ a3)`, on all
    /// ranks at once. That is `log2 n` message latencies and `n·log2 n`
    /// messages against the tree's `2·log2 n` and `2(n − 1)`.
    ///
    /// Any other size has no such pairing and keeps reduce + broadcast.
    pub fn allreduce(&self, data: &[f64], op: ReduceOp) -> Vec<f64> {
        let n = self.size();
        if !n.is_power_of_two() {
            let mut out = self.reduce(0, data, op).unwrap_or_default();
            self.bcast(0, &mut out);
            return out;
        }
        let mut acc = data.to_vec();
        let mut mask = 1usize;
        while mask < n {
            let peer = self.rank() ^ mask;
            self.send_internal(&acc, peer, itag::ALLREDUCE);
            let mut theirs: Vec<f64> = self.recv_internal(peer, itag::ALLREDUCE);
            assert_eq!(
                theirs.len(),
                acc.len(),
                "allreduce: rank {} contributed {} elements, expected {}",
                peer,
                theirs.len(),
                acc.len()
            );
            if peer < self.rank() {
                op.apply(&mut theirs, &acc);
                acc = theirs;
            } else {
                op.apply(&mut acc, &theirs);
            }
            mask <<= 1;
        }
        acc
    }

    /// Element-wise sum across all ranks.
    pub fn allreduce_sum(&self, data: &[f64]) -> Vec<f64> {
        self.allreduce(data, ReduceOp::Sum)
    }

    /// Global sum of one scalar per rank.
    pub fn allreduce_scalar_sum(&self, x: f64) -> f64 {
        self.allreduce_sum(&[x])[0]
    }

    /// Global minimum of one scalar per rank.
    pub fn allreduce_scalar_min(&self, x: f64) -> f64 {
        self.allreduce(&[x], ReduceOp::Min)[0]
    }

    /// Global maximum of one scalar per rank.
    pub fn allreduce_scalar_max(&self, x: f64) -> f64 {
        self.allreduce(&[x], ReduceOp::Max)[0]
    }

    /// Gather variable-length vectors onto `root`. Returns `Some(parts)` in
    /// communicator-rank order on the root, `None` elsewhere.
    pub fn gather<T: Wire>(&self, root: usize, data: &[T]) -> Option<Vec<Vec<T>>> {
        if self.rank() == root {
            let mut parts = Vec::with_capacity(self.size());
            for i in 0..self.size() {
                if i == root {
                    parts.push(data.to_vec());
                } else {
                    parts.push(self.recv_internal(i, itag::GATHER));
                }
            }
            Some(parts)
        } else {
            self.send_internal(data, root, itag::GATHER);
            None
        }
    }

    /// Scatter per-rank vectors from `root`. On the root, `parts` must hold
    /// one vector per communicator rank; elsewhere it must be `None`.
    pub fn scatter<T: Wire>(&self, root: usize, parts: Option<&[Vec<T>]>) -> Vec<T> {
        if self.rank() == root {
            let parts = parts.expect("scatter: root must supply parts");
            assert_eq!(parts.len(), self.size(), "scatter: need one part per rank");
            for (i, part) in parts.iter().enumerate() {
                if i != root {
                    self.send_internal(part, i, itag::SCATTER);
                }
            }
            parts[root].clone()
        } else {
            assert!(parts.is_none(), "scatter: non-root must pass None");
            self.recv_internal(root, itag::SCATTER)
        }
    }

    /// Gather-to-all of variable-length vectors (gather at rank 0, then a
    /// broadcast of the concatenation plus offsets).
    pub fn allgather<T: Wire>(&self, data: &[T]) -> Vec<Vec<T>> {
        let gathered = self.gather(0, data);
        let (mut lens, mut flat): (Vec<usize>, Vec<T>) = if let Some(parts) = gathered {
            let lens = parts.iter().map(|p| p.len()).collect();
            let flat = parts.into_iter().flatten().collect();
            (lens, flat)
        } else {
            (Vec::new(), Vec::new())
        };
        self.bcast(0, &mut lens);
        self.bcast(0, &mut flat);
        let mut parts = Vec::with_capacity(lens.len());
        let mut off = 0;
        for len in lens {
            parts.push(flat[off..off + len].to_vec());
            off += len;
        }
        parts
    }

    /// Personalized all-to-all: `parts[i]` goes to rank `i`; returns the
    /// vector received from each rank.
    pub fn alltoall<T: Wire>(&self, parts: &[Vec<T>]) -> Vec<Vec<T>> {
        assert_eq!(parts.len(), self.size(), "alltoall: one part per rank");
        for (i, part) in parts.iter().enumerate() {
            if i != self.rank() {
                self.send_internal(part, i, itag::ALLTOALL);
            }
        }
        (0..self.size())
            .map(|i| {
                if i == self.rank() {
                    parts[i].clone()
                } else {
                    self.recv_internal(i, itag::ALLTOALL)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::ReduceOp;
    use crate::Universe;

    #[test]
    fn barrier_completes_many_sizes() {
        for n in [1usize, 2, 3, 5, 8] {
            Universe::new(n).run(|comm| {
                for _ in 0..3 {
                    comm.barrier();
                }
            });
        }
    }

    #[test]
    fn bcast_all_roots_all_sizes() {
        for n in [1usize, 2, 3, 4, 7] {
            for root in 0..n {
                Universe::new(n).run(move |comm| {
                    let mut data = if comm.rank() == root {
                        vec![3.5f64, -1.0, root as f64]
                    } else {
                        Vec::new()
                    };
                    comm.bcast(root, &mut data);
                    assert_eq!(data, vec![3.5, -1.0, root as f64]);
                });
            }
        }
    }

    #[test]
    fn reduce_sum_matches_closed_form() {
        for n in [1usize, 2, 5, 8] {
            Universe::new(n).run(move |comm| {
                let data = vec![comm.rank() as f64, 1.0];
                let out = comm.reduce(0, &data, ReduceOp::Sum);
                if comm.rank() == 0 {
                    let expect = (n * (n - 1) / 2) as f64;
                    assert_eq!(out.unwrap(), vec![expect, n as f64]);
                } else {
                    assert!(out.is_none());
                }
            });
        }
    }

    #[test]
    fn reduce_nonzero_root() {
        Universe::new(6).run(|comm| {
            let out = comm.reduce(4, &[comm.rank() as f64], ReduceOp::Max);
            if comm.rank() == 4 {
                assert_eq!(out.unwrap(), vec![5.0]);
            }
        });
    }

    #[test]
    fn allreduce_min_max() {
        Universe::new(5).run(|comm| {
            let x = comm.rank() as f64 - 2.0;
            assert_eq!(comm.allreduce_scalar_min(x), -2.0);
            assert_eq!(comm.allreduce_scalar_max(x), 2.0);
            assert_eq!(comm.allreduce_scalar_sum(1.0), 5.0);
        });
    }

    #[test]
    fn gather_variable_lengths() {
        Universe::new(4).run(|comm| {
            let mine: Vec<f64> = (0..comm.rank()).map(|i| i as f64).collect();
            let parts = comm.gather(2, &mine);
            if comm.rank() == 2 {
                let parts = parts.unwrap();
                assert_eq!(parts.len(), 4);
                for (r, p) in parts.iter().enumerate() {
                    assert_eq!(p.len(), r);
                }
            } else {
                assert!(parts.is_none());
            }
        });
    }

    #[test]
    fn scatter_round_trip() {
        Universe::new(3).run(|comm| {
            let parts: Option<Vec<Vec<f64>>> = if comm.rank() == 1 {
                Some((0..3).map(|i| vec![i as f64; i + 1]).collect())
            } else {
                None
            };
            let mine = comm.scatter(1, parts.as_deref());
            assert_eq!(mine, vec![comm.rank() as f64; comm.rank() + 1]);
        });
    }

    #[test]
    fn allgather_everyone_sees_everything() {
        Universe::new(4).run(|comm| {
            let mine = vec![comm.rank() as u64 * 10];
            let all = comm.allgather(&mine);
            assert_eq!(all, vec![vec![0], vec![10], vec![20], vec![30]]);
        });
    }

    #[test]
    fn alltoall_transpose() {
        Universe::new(3).run(|comm| {
            // parts[i] = [rank*10 + i]
            let parts: Vec<Vec<u64>> = (0..3)
                .map(|i| vec![(comm.rank() * 10 + i) as u64])
                .collect();
            let got = comm.alltoall(&parts);
            for (i, g) in got.iter().enumerate() {
                assert_eq!(g, &vec![(i * 10 + comm.rank()) as u64]);
            }
        });
    }

    #[test]
    fn collectives_on_subcommunicator() {
        Universe::new(6).run(|comm| {
            let sub = comm.split(Some(comm.rank() % 2), comm.rank()).unwrap();
            let total = sub.allreduce_scalar_sum(comm.rank() as f64);
            // evens: 0+2+4 = 6, odds: 1+3+5 = 9
            let expect = if comm.rank() % 2 == 0 { 6.0 } else { 9.0 };
            assert_eq!(total, expect);
        });
    }
}
