//! # Multilevel Communicating Interface (MCI)
//!
//! The coupling backbone of the NεκTαr-G metasolver (Grinberg et al.,
//! SC'11, §3.1). The paper builds its multiscale coupling on MPI:
//! `MPI_COMM_WORLD` is split hierarchically into
//!
//! * **L2** sub-communicators — *topology-oriented* groups (one per rack /
//!   torus block), so that tightly coupled traffic stays on fast links;
//! * **L3** sub-communicators — *task-oriented* groups (one per solver
//!   instance: each continuum patch, each atomistic domain);
//! * **L4** sub-communicators — *interface-local* groups containing only the
//!   ranks whose mesh partitions touch a given inter-domain interface.
//!
//! Inter-domain data travels in the **three-step exchange** (paper Fig. 4):
//! gather onto the L4 root, a single root-to-root point-to-point message over
//! the world communicator, then scatter from the peer L4 root.
//!
//! Rust has no production MPI implementation, so this crate supplies a
//! *virtual message-passing runtime* with MPI semantics — enough to run the
//! MCI hierarchy and every coupling algorithm in the paper unchanged:
//!
//! * [`Universe::run`] — launch an N-rank program, one OS thread per rank;
//! * [`Comm`] — communicators with contexts, `split(color, key)`, tagged
//!   point-to-point messaging, and tree-based collectives (barrier, bcast,
//!   reduce, allreduce, gather(v), scatter(v), allgather(v), alltoall);
//! * [`hierarchy`] — the L2/L3/L4 decomposition and the three-step exchange;
//! * message/byte counters ([`Universe::stats`]) so benchmarks can compare
//!   exchange strategies (e.g. three-step vs all-pairs, Table 2 and the
//!   §3.5 topology ablation).
//!
//! ## Semantics notes
//!
//! Sends are buffered and never block (as if every send were `MPI_Bsend`),
//! so `send; recv` pairs cannot deadlock. Receives match on
//! `(context, source, tag)` in arrival order. A receive that stays blocked
//! for longer than the universe's receive timeout panics — turning deadlocks
//! into test failures instead of hangs.
//!
//! ## Fault tolerance
//!
//! A [`FaultPlan`] installed with [`Universe::with_fault_plan`] scripts
//! deterministic disasters at the transport: rank kills at the *k*-th post
//! and drop/delay/duplicate rules over `(ctx, src, dst, tag)` patterns.
//! Run faulty programs with [`Universe::run_surviving`]; recover with the
//! typed receive surface ([`Comm::try_recv`], [`Comm::recv_deadline`],
//! [`RecvError`]), the per-universe liveness view ([`Comm::liveness`]),
//! and the retrying [`InterfaceLink::exchange_ft`]. See DESIGN.md §9.
//!
//! ## Transports
//!
//! The machine runs on a pluggable transport (`nkg-net`): in-process
//! channels (default) or Unix-domain/TCP sockets — selected per run with
//! `NKG_TRANSPORT=inproc|uds|tcp` or [`Universe::with_backend`]. Fault plans, liveness, dedup
//! and `exchange_ft` retry/failover behave identically on every backend
//! because all traffic is judged by one shared router. Process-mode runs
//! ([`Universe::spawn_processes`] + the `nkg-rank` worker binary) put
//! each rank in its own OS process over the socket backends. See
//! DESIGN.md §13.
//!
//! ```
//! use nkg_mci::Universe;
//!
//! // 4 ranks compute a sum via allreduce.
//! let results = Universe::new(4).run(|comm| {
//!     let mine = vec![comm.rank() as f64];
//!     let total = comm.allreduce_sum(&mine);
//!     total[0]
//! });
//! assert_eq!(results, vec![6.0, 6.0, 6.0, 6.0]);
//! ```

#![forbid(unsafe_code)]

pub mod collectives;
pub mod comm;
pub mod envelope;
pub mod hierarchy;
pub mod supervisor;
pub mod universe;
pub mod worker;

pub use comm::Comm;
pub use envelope::RecvError;
pub use hierarchy::{
    ExchangeError, Hierarchy, HierarchySpec, InterfaceLink, ReplicaSet, RetryPolicy,
};
pub use nkg_net::fault::{FaultPlan, FaultStats, MsgAction, MsgMatcher, MsgRule, Pick, RankKill};
pub use nkg_net::liveness::{Liveness, LivenessView};
pub use nkg_net::wire::Wire;
pub use nkg_net::{panic_message, Backend};
pub use supervisor::{RestartCause, RestartEvent, RestartPolicy};
pub use universe::{FaultRun, MsgStats, ProcessOptions, ProcessRun, Universe};

pub use nkg_net::{Tag, RESERVED_TAG_BASE};
