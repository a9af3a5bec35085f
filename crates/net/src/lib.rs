//! # nkg-net — pluggable transport layer for the MCI runtime
//!
//! The MCI virtual machine in `nkg-mci` judges every message at a single
//! chokepoint: sequence stamping, heartbeats, fault-plan injection and
//! delivery all happen where a rank *posts*. This crate extracts that
//! chokepoint ([`router::RouterCore`]) together with the primitives it is
//! built on (wire encoding, envelopes, liveness, fault plans) and puts a
//! pluggable transport underneath it, so one `Universe` can span OS
//! threads, processes, or machines while the PR 3 fault-tolerance
//! semantics stay byte-for-byte identical:
//!
//! * **in-proc** — the historical backend: ranks are threads, delivery is
//!   a channel send ([`router::Sink`] implemented directly on the sender);
//! * **uds / tcp** — ranks talk to a [`hub::Hub`] over length-prefixed
//!   framed streams ([`frame`]) with a version/config handshake; the hub
//!   owns the router, so fault judging, liveness and statistics live in
//!   exactly one place regardless of where ranks run.
//!
//! Process-mode bootstrap (endpoints, worker environment, exit codes)
//! lives in [`endpoint`]; the rank-side connection state machine in
//! [`port`].

#![forbid(unsafe_code)]

pub mod endpoint;
pub mod envelope;
pub mod fault;
pub mod frame;
pub mod hub;
pub mod liveness;
pub mod port;
pub mod router;
pub mod wire;

pub use envelope::Envelope;
pub use frame::{Frame, NetError, RejectReason, PROTO_VERSION};
pub use liveness::{Liveness, LivenessView};

/// A panic payload as text: the message of a `panic!("…")`, a placeholder
/// for a payload that is not a string.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Message tag type (user tags must stay below [`RESERVED_TAG_BASE`]).
pub type Tag = u32;

/// Tags at or above this value are reserved for internal collectives.
pub const RESERVED_TAG_BASE: Tag = 0xFFFF_0000;

/// Environment variable selecting the transport backend for a run.
pub const TRANSPORT_ENV: &str = "NKG_TRANSPORT";

/// Which transport carries MCI traffic for one universe run.
///
/// Every backend runs the same router, so fault plans, liveness, dedup and
/// message statistics behave identically; they differ only in how bytes
/// move between a rank and the router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Ranks are threads; delivery is an in-process channel send. The
    /// default, and the only backend with zero per-message encoding cost.
    InProc,
    /// Unix-domain socket streams to a hub (socketpairs for thread ranks,
    /// a named listener for process ranks).
    Uds,
    /// Loopback TCP streams to a hub. The only backend that can cross
    /// machines; also usable same-host.
    Tcp,
}

impl Backend {
    /// All backends, in documentation/bench order.
    pub const ALL: [Backend; 3] = [Backend::InProc, Backend::Uds, Backend::Tcp];

    /// Lower-case name, as accepted by [`TRANSPORT_ENV`].
    pub fn name(self) -> &'static str {
        match self {
            Backend::InProc => "inproc",
            Backend::Uds => "uds",
            Backend::Tcp => "tcp",
        }
    }

    /// Parse a backend name (the [`TRANSPORT_ENV`] value format).
    pub fn parse(s: &str) -> Option<Backend> {
        Backend::ALL.into_iter().find(|b| b.name() == s)
    }

    /// Backend selected by the `NKG_TRANSPORT` environment variable,
    /// defaulting to [`Backend::InProc`] when unset or empty.
    ///
    /// # Panics
    /// Panics on an unrecognized value — a typo silently falling back to
    /// the default would invalidate whatever the caller was measuring.
    pub fn from_env() -> Backend {
        match std::env::var(TRANSPORT_ENV) {
            Ok(v) if !v.is_empty() => Backend::parse(&v).unwrap_or_else(|| {
                panic!(
                    "{TRANSPORT_ENV}={v:?} is not a known transport; \
                     expected one of inproc|uds|tcp"
                )
            }),
            _ => Backend::InProc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_round_trip() {
        for b in Backend::ALL {
            assert_eq!(Backend::parse(b.name()), Some(b));
        }
        assert_eq!(Backend::parse("carrier-pigeon"), None);
        // The shared-memory ring is gone; its name is a typo like any other.
        assert_eq!(Backend::parse("shm"), None);
    }
}
