//! Length-prefixed frame protocol carried by the socket backends.
//!
//! Every frame is `[4-byte magic "NKGF"][1-byte kind][4-byte body length,
//! u32 LE][body]`. Bodies reuse the little-endian scalar encoding of
//! [`crate::wire`]; an [`Envelope`] payload travels as raw bytes after its
//! fixed header fields, so the physics data a rank posted crosses the
//! socket bit-for-bit.
//!
//! The first frame on every connection must be [`Frame::Hello`]; the hub
//! answers [`Frame::Welcome`] (run configuration the rank must adopt) or
//! [`Frame::Reject`] (version/config skew, duplicate rank), after which
//! only post-handshake frames are legal. Every decoding failure is a loud
//! typed [`NetError`] — a truncated frame names how many bytes were
//! expected and seen, version skew names both versions — because a
//! transport that guesses is a transport that corrupts physics.

use crate::envelope::Envelope;
use std::io::{Read, Write};

/// Frame magic: ASCII `NKGF`.
pub const MAGIC: [u8; 4] = *b"NKGF";

/// Protocol version carried in [`Frame::Hello`]; bumped on any change to
/// the frame grammar or body encodings. v2 added incarnation-numbered
/// identities (`Hello`/`Dead` carry an incarnation, plus the `Rejoined`
/// broadcast) for supervised rank restart.
pub const PROTO_VERSION: u32 = 2;

/// Upper bound on one frame body (256 MiB). Far above any real exchange;
/// a length beyond it means a corrupt or hostile stream, not a message.
pub const MAX_FRAME_BODY: usize = 1 << 28;

const K_HELLO: u8 = 1;
const K_WELCOME: u8 = 2;
const K_REJECT: u8 = 3;
const K_DATA: u8 = 4;
const K_POST_ACK: u8 = 5;
const K_HEARTBEAT: u8 = 6;
const K_CTX_REQ: u8 = 7;
const K_CTX_REP: u8 = 8;
const K_DEAD: u8 = 9;
const K_DYING: u8 = 10;
const K_GOODBYE: u8 = 11;
const K_RESULT: u8 = 12;
const K_REJOINED: u8 = 13;

/// One protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// First frame on every connection: who is connecting, speaking what.
    Hello {
        /// Sender's [`PROTO_VERSION`].
        version: u32,
        /// World size the sender believes it is joining.
        world: u32,
        /// World rank the sender claims.
        rank: u32,
        /// Incarnation of the claim: 0 for a first launch, `k` for the
        /// `k`-th supervised respawn of this rank. A higher incarnation
        /// than the hub's current one is a rejoin; a lower one is fenced.
        incarnation: u32,
    },
    /// Hub's handshake acceptance, carrying run configuration.
    Welcome {
        /// Authoritative world size.
        world: u32,
        /// Whether mailboxes must deduplicate by sequence number.
        dedup: bool,
        /// Whether every `Data` post is answered with a [`Frame::PostAck`]
        /// (enabled when the fault plan scripts kills, so a rank dies
        /// synchronously at its k-th post exactly like the in-proc path).
        ack_posts: bool,
    },
    /// Hub's handshake refusal; the connection closes after this frame.
    Reject {
        /// Why the hub refused.
        reason: RejectReason,
    },
    /// One routed envelope. Rank→hub: a post, `dst` names the target.
    /// Hub→rank: a delivery, `dst` echoes the receiving rank.
    Data {
        /// Destination world rank.
        dst: u32,
        /// The message.
        env: Envelope,
    },
    /// Synchronous answer to a post when `ack_posts` is on.
    PostAck {
        /// True when the fault plan killed the posting rank at this post.
        killed: bool,
    },
    /// Explicit liveness beat for `rank` (compute phases with no traffic).
    Heartbeat {
        /// World rank that is alive.
        rank: u32,
    },
    /// Request `n` fresh communicator contexts from the hub allocator.
    CtxReq {
        /// How many consecutive contexts to allocate.
        n: u64,
    },
    /// Answer to [`Frame::CtxReq`]: first context of the allocated block.
    CtxRep {
        /// First allocated context id.
        base: u64,
    },
    /// Hub→rank broadcast: `rank` has been declared dead.
    Dead {
        /// The dead world rank.
        rank: u32,
        /// The incarnation that died. Receivers ignore the announcement
        /// when they have already observed a newer incarnation rejoin.
        incarnation: u32,
    },
    /// Rank→hub: this rank is dying (panic unwinding); declare it dead.
    Dying {
        /// The dying world rank.
        rank: u32,
    },
    /// Rank→hub: clean completion. An EOF *without* a preceding Goodbye is
    /// death detection's trigger: the rank crashed without a word.
    Goodbye {
        /// The finishing world rank.
        rank: u32,
    },
    /// Rank→hub: the program's encoded result payload (process mode).
    Result {
        /// Encoded result bytes.
        data: Vec<u8>,
    },
    /// Hub→rank broadcast: `rank` completed a rejoin handshake under a new
    /// incarnation — flip it back to alive and fence its older incarnations.
    Rejoined {
        /// The resurrected world rank.
        rank: u32,
        /// Its new (strictly higher) incarnation.
        incarnation: u32,
    },
}

impl Frame {
    /// Frame kind name, for protocol-error diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "Hello",
            Frame::Welcome { .. } => "Welcome",
            Frame::Reject { .. } => "Reject",
            Frame::Data { .. } => "Data",
            Frame::PostAck { .. } => "PostAck",
            Frame::Heartbeat { .. } => "Heartbeat",
            Frame::CtxReq { .. } => "CtxReq",
            Frame::CtxRep { .. } => "CtxRep",
            Frame::Dead { .. } => "Dead",
            Frame::Dying { .. } => "Dying",
            Frame::Goodbye { .. } => "Goodbye",
            Frame::Result { .. } => "Result",
            Frame::Rejoined { .. } => "Rejoined",
        }
    }
}

/// Why a hub refused a handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Protocol version mismatch.
    Version {
        /// Hub's [`PROTO_VERSION`].
        ours: u32,
        /// Connecting side's version.
        theirs: u32,
    },
    /// The rank joined a differently-sized world than the hub runs.
    WorldSize {
        /// Hub's world size.
        ours: u32,
        /// Connecting side's world size.
        theirs: u32,
    },
    /// Another connection already claimed this rank.
    RankTaken {
        /// The contested rank.
        rank: u32,
    },
    /// The claimed rank is outside `0..world`.
    RankRange {
        /// The claimed rank.
        rank: u32,
        /// Hub's world size.
        world: u32,
    },
    /// A reconnect claimed an incarnation the hub has already superseded
    /// (a zombie of an earlier respawn attempt); the rank must be fenced.
    StaleIncarnation {
        /// The contested rank.
        rank: u32,
        /// The hub's current incarnation for that rank.
        ours: u32,
        /// The stale incarnation the connector claimed.
        theirs: u32,
    },
}

impl RejectReason {
    /// The typed error a rejected connector should surface.
    pub fn into_error(self) -> NetError {
        match self {
            RejectReason::Version { ours, theirs } => NetError::VersionSkew {
                // From the connector's point of view the hub's version is
                // "theirs"; swap so the error reads correctly at the rank.
                ours: theirs,
                theirs: ours,
            },
            RejectReason::WorldSize { ours, theirs } => NetError::ConfigSkew {
                field: "world_size",
                ours: theirs as u64,
                theirs: ours as u64,
            },
            RejectReason::RankTaken { rank }
            | RejectReason::RankRange { rank, .. }
            | RejectReason::StaleIncarnation { rank, .. } => {
                NetError::Rejected { reason: self, rank }
            }
        }
    }
}

/// Loud, typed transport failure.
#[derive(Debug)]
pub enum NetError {
    /// Underlying stream error.
    Io(std::io::Error),
    /// The stream ended inside a frame: `got` of `need` bytes arrived.
    Truncated {
        /// What was being read ("frame header" / "frame body").
        context: &'static str,
        /// Bytes the frame required.
        need: usize,
        /// Bytes actually received before EOF.
        got: usize,
    },
    /// The stream did not start a frame with [`MAGIC`].
    BadMagic {
        /// The four bytes seen instead.
        got: [u8; 4],
    },
    /// Unknown frame kind byte.
    UnknownKind(u8),
    /// A frame body failed to parse.
    Garbled {
        /// Which frame kind was being decoded.
        context: &'static str,
        /// What was wrong.
        detail: &'static str,
    },
    /// Declared body length exceeds [`MAX_FRAME_BODY`].
    Oversized {
        /// Declared length.
        len: usize,
        /// The allowed maximum.
        max: usize,
    },
    /// Handshake failed: protocol versions differ.
    VersionSkew {
        /// This side's version.
        ours: u32,
        /// Peer's version.
        theirs: u32,
    },
    /// Handshake failed: run configuration differs.
    ConfigSkew {
        /// Which configuration field disagrees.
        field: &'static str,
        /// This side's value.
        ours: u64,
        /// Peer's value.
        theirs: u64,
    },
    /// Handshake refused for a non-skew reason (duplicate/out-of-range rank).
    Rejected {
        /// The hub's refusal.
        reason: RejectReason,
        /// The rank that was refused.
        rank: u32,
    },
    /// An unexpected frame kind arrived for the current protocol state.
    Protocol {
        /// Protocol state ("handshake", "rank pump", ...).
        context: &'static str,
        /// The frame kind that arrived.
        frame: &'static str,
    },
    /// Clean EOF between frames: the peer closed the stream.
    Closed,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport i/o error: {e}"),
            NetError::Truncated { context, need, got } => write!(
                f,
                "truncated {context}: stream ended after {got} of {need} bytes"
            ),
            NetError::BadMagic { got } => write!(
                f,
                "bad frame magic {got:02x?} (expected {:02x?}); stream is not NKGF",
                MAGIC
            ),
            NetError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            NetError::Garbled { context, detail } => {
                write!(f, "garbled {context} frame: {detail}")
            }
            NetError::Oversized { len, max } => write!(
                f,
                "frame body of {len} bytes exceeds the {max}-byte protocol maximum"
            ),
            NetError::VersionSkew { ours, theirs } => write!(
                f,
                "protocol version skew: we speak v{ours}, peer speaks v{theirs}"
            ),
            NetError::ConfigSkew {
                field,
                ours,
                theirs,
            } => write!(
                f,
                "run configuration skew on {field}: ours {ours}, peer's {theirs}"
            ),
            NetError::Rejected { reason, rank } => {
                write!(f, "hub rejected rank {rank}: {reason:?}")
            }
            NetError::Protocol { context, frame } => {
                write!(
                    f,
                    "protocol error: unexpected {frame} frame during {context}"
                )
            }
            NetError::Closed => write!(f, "peer closed the stream"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

// ---------------------------------------------------------------------
// Body encoding helpers
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Checked reader over one frame body.
struct Body<'a> {
    buf: &'a [u8],
    off: usize,
    context: &'static str,
}

impl<'a> Body<'a> {
    fn new(buf: &'a [u8], context: &'static str) -> Self {
        Self {
            buf,
            off: 0,
            context,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        if self.off + n > self.buf.len() {
            return Err(NetError::Truncated {
                context: self.context,
                need: self.off + n,
                got: self.buf.len(),
            });
        }
        let s = &self.buf[self.off..self.off + n];
        self.off += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, NetError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, NetError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, NetError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.off..];
        self.off = self.buf.len();
        s
    }

    fn finish(self) -> Result<(), NetError> {
        if self.off != self.buf.len() {
            return Err(NetError::Garbled {
                context: self.context,
                detail: "trailing bytes after a complete body",
            });
        }
        Ok(())
    }
}

/// Bytes before the body: magic, kind, body length.
const HEADER_LEN: usize = 9;

/// Encode one whole frame, header included, into a single buffer sized
/// once for its payload.
fn encode_frame(frame: &Frame) -> Result<Vec<u8>, NetError> {
    let payload = match frame {
        Frame::Data { env, .. } => env.data.len(),
        Frame::Result { data } => data.len(),
        _ => 0,
    };
    // 28 bytes of fixed fields precede a Data payload; no other body is
    // longer than that without a payload.
    let mut b = Vec::with_capacity(HEADER_LEN + 28 + payload);
    b.extend_from_slice(&MAGIC);
    b.extend_from_slice(&[0u8; HEADER_LEN - MAGIC.len()]);
    let kind = match frame {
        Frame::Hello {
            version,
            world,
            rank,
            incarnation,
        } => {
            put_u32(&mut b, *version);
            put_u32(&mut b, *world);
            put_u32(&mut b, *rank);
            put_u32(&mut b, *incarnation);
            K_HELLO
        }
        Frame::Welcome {
            world,
            dedup,
            ack_posts,
        } => {
            put_u32(&mut b, *world);
            b.push(u8::from(*dedup));
            b.push(u8::from(*ack_posts));
            K_WELCOME
        }
        Frame::Reject { reason } => {
            // StaleIncarnation carries three u32s after the code byte;
            // every other reason keeps the original two-u32 body.
            match *reason {
                RejectReason::Version { ours, theirs } => {
                    b.push(0u8);
                    put_u32(&mut b, ours);
                    put_u32(&mut b, theirs);
                }
                RejectReason::WorldSize { ours, theirs } => {
                    b.push(1);
                    put_u32(&mut b, ours);
                    put_u32(&mut b, theirs);
                }
                RejectReason::RankTaken { rank } => {
                    b.push(2);
                    put_u32(&mut b, rank);
                    put_u32(&mut b, 0);
                }
                RejectReason::RankRange { rank, world } => {
                    b.push(3);
                    put_u32(&mut b, rank);
                    put_u32(&mut b, world);
                }
                RejectReason::StaleIncarnation { rank, ours, theirs } => {
                    b.push(4);
                    put_u32(&mut b, rank);
                    put_u32(&mut b, ours);
                    put_u32(&mut b, theirs);
                }
            }
            K_REJECT
        }
        Frame::Data { dst, env } => {
            put_u32(&mut b, *dst);
            put_u64(&mut b, env.ctx);
            put_u32(&mut b, env.src as u32);
            put_u32(&mut b, env.tag);
            put_u64(&mut b, env.seq);
            b.extend_from_slice(&env.data);
            K_DATA
        }
        Frame::PostAck { killed } => {
            b.push(u8::from(*killed));
            K_POST_ACK
        }
        Frame::Heartbeat { rank } => {
            put_u32(&mut b, *rank);
            K_HEARTBEAT
        }
        Frame::CtxReq { n } => {
            put_u64(&mut b, *n);
            K_CTX_REQ
        }
        Frame::CtxRep { base } => {
            put_u64(&mut b, *base);
            K_CTX_REP
        }
        Frame::Dead { rank, incarnation } => {
            put_u32(&mut b, *rank);
            put_u32(&mut b, *incarnation);
            K_DEAD
        }
        Frame::Dying { rank } => {
            put_u32(&mut b, *rank);
            K_DYING
        }
        Frame::Goodbye { rank } => {
            put_u32(&mut b, *rank);
            K_GOODBYE
        }
        Frame::Result { data } => {
            b.extend_from_slice(data);
            K_RESULT
        }
        Frame::Rejoined { rank, incarnation } => {
            put_u32(&mut b, *rank);
            put_u32(&mut b, *incarnation);
            K_REJOINED
        }
    };
    let len = b.len() - HEADER_LEN;
    if len > MAX_FRAME_BODY {
        return Err(NetError::Oversized {
            len,
            max: MAX_FRAME_BODY,
        });
    }
    b[4] = kind;
    b[5..HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(b)
}

fn decode_body(kind: u8, buf: &[u8]) -> Result<Frame, NetError> {
    let frame = match kind {
        K_HELLO => {
            let mut b = Body::new(buf, "Hello");
            let f = Frame::Hello {
                version: b.u32()?,
                world: b.u32()?,
                rank: b.u32()?,
                incarnation: b.u32()?,
            };
            b.finish()?;
            f
        }
        K_WELCOME => {
            let mut b = Body::new(buf, "Welcome");
            let f = Frame::Welcome {
                world: b.u32()?,
                dedup: b.u8()? != 0,
                ack_posts: b.u8()? != 0,
            };
            b.finish()?;
            f
        }
        K_REJECT => {
            let mut b = Body::new(buf, "Reject");
            let code = b.u8()?;
            let a = b.u32()?;
            let c = b.u32()?;
            let reason = match code {
                0 => RejectReason::Version { ours: a, theirs: c },
                1 => RejectReason::WorldSize { ours: a, theirs: c },
                2 => RejectReason::RankTaken { rank: a },
                3 => RejectReason::RankRange { rank: a, world: c },
                4 => RejectReason::StaleIncarnation {
                    rank: a,
                    ours: c,
                    theirs: b.u32()?,
                },
                _ => {
                    return Err(NetError::Garbled {
                        context: "Reject",
                        detail: "unknown reject reason code",
                    })
                }
            };
            b.finish()?;
            Frame::Reject { reason }
        }
        K_DATA => {
            let mut b = Body::new(buf, "Data");
            let dst = b.u32()?;
            let ctx = b.u64()?;
            let src = b.u32()? as usize;
            let tag = b.u32()?;
            let seq = b.u64()?;
            let data = b.rest().to_vec();
            Frame::Data {
                dst,
                env: Envelope {
                    ctx,
                    src,
                    tag,
                    data,
                    seq,
                },
            }
        }
        K_POST_ACK => {
            let mut b = Body::new(buf, "PostAck");
            let f = Frame::PostAck {
                killed: b.u8()? != 0,
            };
            b.finish()?;
            f
        }
        K_HEARTBEAT => {
            let mut b = Body::new(buf, "Heartbeat");
            let f = Frame::Heartbeat { rank: b.u32()? };
            b.finish()?;
            f
        }
        K_CTX_REQ => {
            let mut b = Body::new(buf, "CtxReq");
            let f = Frame::CtxReq { n: b.u64()? };
            b.finish()?;
            f
        }
        K_CTX_REP => {
            let mut b = Body::new(buf, "CtxRep");
            let f = Frame::CtxRep { base: b.u64()? };
            b.finish()?;
            f
        }
        K_DEAD => {
            let mut b = Body::new(buf, "Dead");
            let f = Frame::Dead {
                rank: b.u32()?,
                incarnation: b.u32()?,
            };
            b.finish()?;
            f
        }
        K_DYING => {
            let mut b = Body::new(buf, "Dying");
            let f = Frame::Dying { rank: b.u32()? };
            b.finish()?;
            f
        }
        K_GOODBYE => {
            let mut b = Body::new(buf, "Goodbye");
            let f = Frame::Goodbye { rank: b.u32()? };
            b.finish()?;
            f
        }
        K_RESULT => Frame::Result { data: buf.to_vec() },
        K_REJOINED => {
            let mut b = Body::new(buf, "Rejoined");
            let f = Frame::Rejoined {
                rank: b.u32()?,
                incarnation: b.u32()?,
            };
            b.finish()?;
            f
        }
        k => return Err(NetError::UnknownKind(k)),
    };
    Ok(frame)
}

// ---------------------------------------------------------------------
// Stream i/o
// ---------------------------------------------------------------------

/// Write one frame and flush the stream.
///
/// Header and body leave in **one** `write_all`. Split in two, a frame
/// larger than the stream's `BufWriter` goes out as a 9-byte write that
/// wakes the reader, which consumes the header and parks again for the
/// body — two wake-ups for one message.
pub fn write_frame<W: Write + ?Sized>(w: &mut W, frame: &Frame) -> Result<(), NetError> {
    w.write_all(&encode_frame(frame)?)?;
    w.flush()?;
    Ok(())
}

/// Read one frame. A clean EOF *between* frames is [`NetError::Closed`];
/// EOF *inside* a frame is [`NetError::Truncated`] with byte counts.
pub fn read_frame<R: Read + ?Sized>(r: &mut R) -> Result<Frame, NetError> {
    let mut head = [0u8; HEADER_LEN];
    read_full(r, &mut head, "frame header", true)?;
    if head[..4] != MAGIC {
        return Err(NetError::BadMagic {
            got: [head[0], head[1], head[2], head[3]],
        });
    }
    let kind = head[4];
    let len = u32::from_le_bytes(head[5..HEADER_LEN].try_into().unwrap()) as usize;
    if len > MAX_FRAME_BODY {
        return Err(NetError::Oversized {
            len,
            max: MAX_FRAME_BODY,
        });
    }
    let mut body = vec![0u8; len];
    read_full(r, &mut body, "frame body", false)?;
    decode_body(kind, &body)
}

/// Fill `buf` completely. With `eof_is_close`, an EOF before the first
/// byte reports [`NetError::Closed`] (a clean shutdown); any other short
/// read is [`NetError::Truncated`].
fn read_full<R: Read + ?Sized>(
    r: &mut R,
    buf: &mut [u8],
    context: &'static str,
    eof_is_close: bool,
) -> Result<(), NetError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                if got == 0 && eof_is_close {
                    return Err(NetError::Closed);
                }
                return Err(NetError::Truncated {
                    context,
                    need: buf.len(),
                    got,
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), frame);
        assert!(cursor.is_empty(), "frame must consume exactly its bytes");
    }

    #[test]
    fn all_kinds_round_trip() {
        round_trip(Frame::Hello {
            version: PROTO_VERSION,
            world: 4,
            rank: 2,
            incarnation: 3,
        });
        round_trip(Frame::Welcome {
            world: 4,
            dedup: true,
            ack_posts: false,
        });
        round_trip(Frame::Reject {
            reason: RejectReason::Version { ours: 1, theirs: 9 },
        });
        round_trip(Frame::Reject {
            reason: RejectReason::RankRange { rank: 9, world: 4 },
        });
        round_trip(Frame::Reject {
            reason: RejectReason::StaleIncarnation {
                rank: 1,
                ours: 5,
                theirs: 2,
            },
        });
        round_trip(Frame::Data {
            dst: 3,
            env: Envelope {
                ctx: 7,
                src: 1,
                tag: 0xABCD,
                data: vec![1, 2, 3, 4, 5],
                seq: 99,
            },
        });
        round_trip(Frame::PostAck { killed: true });
        round_trip(Frame::Heartbeat { rank: 0 });
        round_trip(Frame::CtxReq { n: 3 });
        round_trip(Frame::CtxRep { base: 17 });
        round_trip(Frame::Dead {
            rank: 1,
            incarnation: 0,
        });
        round_trip(Frame::Dying { rank: 2 });
        round_trip(Frame::Goodbye { rank: 3 });
        round_trip(Frame::Result {
            data: vec![0; 1024],
        });
        round_trip(Frame::Rejoined {
            rank: 1,
            incarnation: 2,
        });
    }

    #[test]
    fn zero_byte_payload_round_trips() {
        round_trip(Frame::Data {
            dst: 0,
            env: Envelope {
                ctx: 0,
                src: 0,
                tag: 0,
                data: Vec::new(),
                seq: 0,
            },
        });
    }

    /// A sink that counts what it is asked to do.
    #[derive(Default)]
    struct CountingWrite {
        writes: usize,
        flushes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWrite {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn one_write_and_one_flush_per_frame() {
        let data = |payload: usize| Frame::Data {
            dst: 1,
            env: Envelope {
                ctx: 3,
                src: 0,
                tag: 9,
                data: vec![0xA5; payload],
                seq: 4,
            },
        };
        // Bodies of 0 B, 8 220 B (a 1 024-f64 exchange: just over an 8 KiB
        // BufWriter) and 70 kB (several buffers long).
        let frames = [
            (Frame::Result { data: Vec::new() }, 0),
            (data(8_192), 8_220),
            (data(70_000 - 28), 70_000),
        ];
        for (frame, body) in frames {
            let mut sink = CountingWrite::default();
            write_frame(&mut sink, &frame).unwrap();
            assert_eq!((sink.writes, sink.flushes), (1, 1), "body of {body} B");
            assert_eq!(sink.bytes.len(), HEADER_LEN + body);
            assert_eq!(read_frame(&mut &sink.bytes[..]).unwrap(), frame);
        }
    }

    #[test]
    fn clean_eof_is_closed() {
        let empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut { empty }), Err(NetError::Closed)));
    }

    #[test]
    fn truncated_header_reports_counts() {
        let mut partial: &[u8] = &MAGIC[..3];
        match read_frame(&mut partial) {
            Err(NetError::Truncated { context, need, got }) => {
                assert_eq!(context, "frame header");
                assert_eq!((need, got), (9, 3));
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn truncated_body_reports_counts() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::CtxReq { n: 5 }).unwrap();
        buf.truncate(buf.len() - 3);
        let mut cursor = &buf[..];
        match read_frame(&mut cursor) {
            Err(NetError::Truncated { context, need, got }) => {
                assert_eq!(context, "frame body");
                assert_eq!((need, got), (8, 5));
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Heartbeat { rank: 0 }).unwrap();
        buf[0] = b'X';
        let mut cursor = &buf[..];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(NetError::BadMagic { got }) if got[0] == b'X'
        ));
    }

    #[test]
    fn unknown_kind_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Heartbeat { rank: 0 }).unwrap();
        buf[4] = 0xEE;
        let mut cursor = &buf[..];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(NetError::UnknownKind(0xEE))
        ));
    }

    #[test]
    fn trailing_bytes_are_garbled() {
        // A Heartbeat body padded with an extra byte must not parse.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.push(6); // K_HEARTBEAT
        buf.extend_from_slice(&5u32.to_le_bytes());
        buf.extend_from_slice(&[0, 0, 0, 0, 7]);
        let mut cursor = &buf[..];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(NetError::Garbled {
                context: "Heartbeat",
                ..
            })
        ));
    }

    #[test]
    fn oversized_length_refused() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.push(12); // K_RESULT
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = &buf[..];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(NetError::Oversized { .. })
        ));
    }

    #[test]
    fn reject_reasons_map_to_typed_errors() {
        assert!(matches!(
            RejectReason::Version { ours: 1, theirs: 2 }.into_error(),
            NetError::VersionSkew { ours: 2, theirs: 1 }
        ));
        assert!(matches!(
            RejectReason::WorldSize { ours: 4, theirs: 3 }.into_error(),
            NetError::ConfigSkew {
                field: "world_size",
                ours: 3,
                theirs: 4
            }
        ));
        assert!(matches!(
            RejectReason::RankTaken { rank: 2 }.into_error(),
            NetError::Rejected { rank: 2, .. }
        ));
        assert!(matches!(
            RejectReason::StaleIncarnation {
                rank: 1,
                ours: 3,
                theirs: 1
            }
            .into_error(),
            NetError::Rejected { rank: 1, .. }
        ));
    }
}
