//! The rank side of a framed connection: handshake, demultiplexing pump,
//! and the post/ack/liveness state machine.
//!
//! A [`RemotePort`] is one rank's view of the hub. Its pump thread reads
//! frames off the stream and demultiplexes them — `Data` into the
//! mailbox channel, `Dead` into the rank's local liveness replica,
//! `PostAck`/`CtxRep` into RPC reply channels — so the rank's program
//! thread never blocks on protocol traffic it is not waiting for.
//! Everything the in-proc backend did through shared memory (the
//! liveness table, context allocation, synchronous kill panics) has an
//! explicit protocol message here, which is exactly what lets the same
//! semantics hold across a process boundary.

use crate::envelope::Envelope;
use crate::fault::ScriptedKill;
use crate::frame::{read_frame, write_frame, Frame, NetError, PROTO_VERSION};
use crate::liveness::Liveness;
use std::cell::RefCell;
use std::io::{Read, Write};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

/// One rank's connection to the hub.
pub struct RemotePort {
    rank: usize,
    writer: RefCell<Box<dyn Write + Send>>,
    liveness: Arc<Liveness>,
    dedup: bool,
    ack_posts: bool,
    ack_rx: Receiver<bool>,
    ctx_rx: Receiver<u64>,
    /// Bound on waiting for a hub reply (acks, context allocation); a hub
    /// that stops answering within it is a dead run, reported loudly.
    reply_timeout: Duration,
}

impl RemotePort {
    /// Run the handshake on a fresh connection and start the pump.
    ///
    /// Sends `Hello`, awaits `Welcome` (or a typed rejection), then spawns
    /// the demultiplexing pump. Returns the port plus the channel the pump
    /// feeds delivered envelopes into — the rank's mailbox intake.
    ///
    /// `incarnation` is 0 for a first launch; a supervised respawn
    /// connects with the attempt number, turning the handshake into a
    /// rejoin at the hub.
    pub fn connect(
        mut reader: Box<dyn Read + Send>,
        mut writer: Box<dyn Write + Send>,
        rank: usize,
        world: usize,
        incarnation: u64,
        reply_timeout: Duration,
    ) -> Result<(RemotePort, Receiver<Envelope>), NetError> {
        write_frame(
            &mut *writer,
            &Frame::Hello {
                version: PROTO_VERSION,
                world: world as u32,
                rank: rank as u32,
                incarnation: incarnation as u32,
            },
        )?;
        let (dedup, ack_posts) = match read_frame(&mut *reader)? {
            Frame::Welcome {
                world: their_world,
                dedup,
                ack_posts,
            } => {
                if their_world as usize != world {
                    return Err(NetError::ConfigSkew {
                        field: "world_size",
                        ours: world as u64,
                        theirs: their_world as u64,
                    });
                }
                (dedup, ack_posts)
            }
            Frame::Reject { reason } => return Err(reason.into_error()),
            other => {
                return Err(NetError::Protocol {
                    context: "handshake",
                    frame: other.kind_name(),
                })
            }
        };
        let liveness = Arc::new(Liveness::new(world));
        if incarnation > 0 {
            // Our own slot in the local replica must reflect the rejoin
            // incarnation, so replayed `Dead` frames for our *previous*
            // incarnation are fenced instead of killing us locally.
            liveness.resurrect(rank, incarnation);
        }
        let (env_tx, env_rx) = channel();
        let (ack_tx, ack_rx) = channel();
        let (ctx_tx, ctx_rx) = channel();
        {
            let liveness = Arc::clone(&liveness);
            std::thread::Builder::new()
                .name(format!("nkg-port-{rank}"))
                .spawn(move || pump(reader, liveness, env_tx, ack_tx, ctx_tx))
                .expect("failed to spawn port pump thread");
        }
        Ok((
            RemotePort {
                rank,
                writer: RefCell::new(writer),
                liveness,
                dedup,
                ack_posts,
                ack_rx,
                ctx_rx,
                reply_timeout,
            },
            env_rx,
        ))
    }

    /// This rank's local liveness replica (fed by `Dead` broadcasts).
    pub fn liveness(&self) -> &Arc<Liveness> {
        &self.liveness
    }

    /// Whether the mailbox must deduplicate by sequence number this run.
    pub fn dedup(&self) -> bool {
        self.dedup
    }

    /// Post one envelope to world rank `dst` through the hub.
    ///
    /// # Panics
    /// Panics with [`ScriptedKill`] when the hub's fault plan kills this
    /// rank at this post (ack mode) — the same unwinding death the
    /// in-proc backend delivers. Panics loudly if the hub connection is
    /// gone: without the hub there is no run left to continue.
    pub fn post(&self, dst: usize, env: Envelope) {
        let frame = Frame::Data {
            dst: dst as u32,
            env,
        };
        if let Err(e) = write_frame(&mut **self.writer.borrow_mut(), &frame) {
            panic!("rank {}: hub connection lost on post: {e}", self.rank);
        }
        if self.ack_posts {
            match self.ack_rx.recv_timeout(self.reply_timeout) {
                Ok(false) => {}
                Ok(true) => {
                    self.liveness.mark_dead(self.rank);
                    std::panic::panic_any(ScriptedKill { rank: self.rank });
                }
                Err(_) => panic!(
                    "rank {}: hub stopped acknowledging posts (waited {:?})",
                    self.rank, self.reply_timeout
                ),
            }
        }
    }

    /// Allocate `n` consecutive communicator contexts from the hub.
    pub fn alloc_ctx(&self, n: u64) -> u64 {
        if let Err(e) = write_frame(&mut **self.writer.borrow_mut(), &Frame::CtxReq { n }) {
            panic!(
                "rank {}: hub connection lost on context allocation: {e}",
                self.rank
            );
        }
        match self.ctx_rx.recv_timeout(self.reply_timeout) {
            Ok(base) => base,
            Err(_) => panic!(
                "rank {}: hub did not answer context allocation (waited {:?})",
                self.rank, self.reply_timeout
            ),
        }
    }

    /// Record a heartbeat locally and forward it to the hub (best effort —
    /// a rank that cannot reach the hub is about to find out anyway).
    pub fn beat(&self) {
        self.liveness.beat(self.rank);
        let _ = write_frame(
            &mut **self.writer.borrow_mut(),
            &Frame::Heartbeat {
                rank: self.rank as u32,
            },
        );
    }

    /// Announce this rank's death (panic unwinding). Best effort: if the
    /// stream is already gone, EOF detection at the hub covers it.
    pub fn report_death(&self) {
        self.liveness.mark_dead(self.rank);
        let _ = write_frame(
            &mut **self.writer.borrow_mut(),
            &Frame::Dying {
                rank: self.rank as u32,
            },
        );
    }

    /// Announce clean completion. Must precede dropping the port, so the
    /// hub can tell a finish from a crash.
    pub fn goodbye(&self) {
        let _ = write_frame(
            &mut **self.writer.borrow_mut(),
            &Frame::Goodbye {
                rank: self.rank as u32,
            },
        );
    }

    /// Report the program's encoded result payload (process mode).
    pub fn send_result(&self, data: &[u8]) {
        let _ = write_frame(
            &mut **self.writer.borrow_mut(),
            &Frame::Result {
                data: data.to_vec(),
            },
        );
    }
}

/// The demultiplexing pump: one per port, exits at stream EOF.
fn pump(
    mut reader: Box<dyn Read + Send>,
    liveness: Arc<Liveness>,
    env_tx: Sender<Envelope>,
    ack_tx: Sender<bool>,
    ctx_tx: Sender<u64>,
) {
    loop {
        match read_frame(&mut *reader) {
            // Send errors mean the rank-side receiver is gone (the program
            // returned); keep draining so the hub never blocks on us.
            Ok(Frame::Data { env, .. }) => {
                let _ = env_tx.send(env);
            }
            Ok(Frame::PostAck { killed }) => {
                let _ = ack_tx.send(killed);
            }
            Ok(Frame::CtxRep { base }) => {
                let _ = ctx_tx.send(base);
            }
            Ok(Frame::Dead { rank, incarnation }) => {
                // Conditional: a death announcement for an incarnation we
                // have already seen rejoin must not kill the new one.
                liveness.mark_dead_if(rank as usize, incarnation as u64);
            }
            Ok(Frame::Rejoined { rank, incarnation }) => {
                liveness.resurrect(rank as usize, incarnation as u64);
            }
            Ok(Frame::Heartbeat { rank }) => liveness.beat(rank as usize),
            // Anything else is protocol confusion or the end of the
            // stream; either way this connection is done.
            Ok(_) | Err(_) => break,
        }
    }
}
