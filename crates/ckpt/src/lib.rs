//! `nkg-ckpt` — deterministic checkpoint/restart for coupled runs.
//!
//! The paper's production campaigns couple NεκTαr-3D and DPD-LAMMPS for
//! days across ~131k Blue Gene/P cores, where node loss is routine; a run
//! that cannot snapshot and resume does not finish. This crate provides
//! the substrate:
//!
//! * [`format`](mod@format) — a versioned, chunked binary container (magic + format
//!   version + per-section type tags, lengths and CRC32 integrity checks),
//!   written atomically via temp-file-then-rename, with `.prev` rotation
//!   so one bad write never destroys the last good snapshot;
//! * [`codec`] — encode/decode cursors reusing the MCI wire byte mapping,
//!   so `f64` state round-trips through its exact bit pattern;
//! * [`Snapshot`] — the trait every stateful component implements
//!   (`DpdSim`, the SEM multipatch fields, WPOD accumulators, the
//!   composed `NektarG` metasolver);
//! * [`fault`] — deterministic fault injection (kill / corrupt / truncate)
//!   so the recovery paths are exercised by tests, not just claimed.
//!
//! Because every stochastic hot path upstream is counter-based (pair
//! noise, inflow insertion, platelet seeding), a snapshot holds *no RNG
//! internals* — the headline contract is bitwise: a run checkpointed at
//! exchange `k` and resumed reproduces the uninterrupted run's report and
//! final particle/field state byte-for-byte.

pub mod codec;
pub mod crc32;
pub mod fault;
pub mod format;

pub use codec::{Dec, Enc};
pub use fault::FaultPlan;
pub use format::{
    prev_path, rank_path, rotate_previous, SnapshotFile, SnapshotWriter, FORMAT_VERSION, MAGIC,
};

use std::fmt;

/// Build a section tag from a four-character mnemonic.
pub const fn tag4(s: &[u8; 4]) -> u32 {
    u32::from_le_bytes(*s)
}

/// Render a section tag back into its mnemonic (for error messages).
pub fn tag_name(tag: u32) -> String {
    tag.to_le_bytes()
        .iter()
        .map(|&b| if b.is_ascii_graphic() { b as char } else { '?' })
        .collect()
}

/// Everything that can go wrong reading, writing or applying a snapshot.
#[derive(Debug)]
pub enum CkptError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file carries an unsupported format version.
    Version {
        /// Version found in the file.
        found: u32,
        /// Version this reader supports.
        expected: u32,
    },
    /// The file ends mid-structure (torn write, truncation).
    Truncated,
    /// A section's payload fails its CRC32 check.
    Corrupt {
        /// Tag of the failing section.
        tag: u32,
    },
    /// A required section is absent.
    MissingSection {
        /// Tag of the absent section.
        tag: u32,
    },
    /// A section decoded inconsistently (writer/reader schema skew).
    Malformed(&'static str),
    /// The snapshot disagrees with the freshly constructed run it is being
    /// restored into (different config, geometry or attachments).
    Mismatch(String),
}

impl CkptError {
    /// True for file-integrity failures — the cases where falling back to
    /// the previous good snapshot is the right recovery, as opposed to
    /// configuration errors ([`CkptError::Mismatch`]) where retrying
    /// another file cannot help.
    pub fn is_integrity(&self) -> bool {
        matches!(
            self,
            CkptError::Io(_)
                | CkptError::BadMagic
                | CkptError::Version { .. }
                | CkptError::Truncated
                | CkptError::Corrupt { .. }
                | CkptError::MissingSection { .. }
                | CkptError::Malformed(_)
        )
    }
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            CkptError::BadMagic => write!(f, "not a NKGC snapshot (bad magic)"),
            CkptError::Version { found, expected } => write!(
                f,
                "snapshot format version {found} unsupported (this reader expects {expected})"
            ),
            CkptError::Truncated => write!(f, "snapshot truncated mid-structure"),
            CkptError::Corrupt { tag } => {
                write!(f, "section '{}' fails its CRC32 check", tag_name(*tag))
            }
            CkptError::MissingSection { tag } => {
                write!(f, "required section '{}' absent", tag_name(*tag))
            }
            CkptError::Malformed(what) => write!(f, "malformed section: {what}"),
            CkptError::Mismatch(what) => {
                write!(f, "snapshot incompatible with reconstructed run: {what}")
            }
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e)
    }
}

/// A stateful component that can be captured into, and restored from, one
/// checkpoint section.
///
/// `restore` runs against a *compatibly constructed* instance: closures,
/// meshes and derived caches (cell grids, operator setups) come from
/// re-running the same setup code that built the original run, and
/// `restore` then overwrites the evolving state. Implementations encode a
/// configuration fingerprint and refuse (with [`CkptError::Mismatch`]) to
/// load into an instance whose fingerprint differs — resuming a run with
/// silently different physics is worse than failing.
pub trait Snapshot {
    /// Stable four-character section tag (see [`tag4`]).
    const TAG: u32;

    /// Serialize the component's state.
    fn snapshot(&self, enc: &mut Enc);

    /// Restore state captured by [`Snapshot::snapshot`] into `self`.
    fn restore(&mut self, dec: &mut Dec<'_>) -> Result<(), CkptError>;
}

/// Round-trip helper for tests: snapshot bytes of a component.
pub fn snapshot_bytes<T: Snapshot>(x: &T) -> Vec<u8> {
    let mut enc = Enc::new();
    x.snapshot(&mut enc);
    enc.into_bytes()
}

/// Round-trip helper for tests: restore a component from bytes produced by
/// [`snapshot_bytes`], requiring full consumption.
pub fn restore_bytes<T: Snapshot>(x: &mut T, bytes: &[u8]) -> Result<(), CkptError> {
    let mut dec = Dec::new(bytes);
    x.restore(&mut dec)?;
    dec.finish()
}

/// Magic of a sealed in-memory snapshot payload ("NKGS").
const SEAL_MAGIC: u32 = tag4(b"NKGS");

/// Wrap an in-memory snapshot payload in a tiny integrity envelope:
/// `[magic][len][crc32][payload]`. The ensemble scheduler carries
/// preempted-job state through its requeue path in this form, so a
/// payload that rotted while parked (or was truncated by a future
/// spill-to-disk tier) is *detected* at resume rather than silently
/// replayed into wrong physics. Cheap: one CRC pass, no copy on unseal.
pub fn seal_bytes(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + payload.len());
    out.extend_from_slice(&SEAL_MAGIC.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32::crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validate a [`seal_bytes`] envelope and borrow its payload. Fails with
/// [`CkptError::BadMagic`], [`CkptError::Truncated`] or
/// [`CkptError::Corrupt`] — all integrity errors, so callers can route
/// them through the same rebuild-from-scratch fallback as damaged
/// on-disk snapshots.
pub fn unseal_bytes(sealed: &[u8]) -> Result<&[u8], CkptError> {
    if sealed.len() < 12 {
        return Err(CkptError::Truncated);
    }
    let word = |i: usize| u32::from_le_bytes(sealed[i..i + 4].try_into().unwrap());
    if word(0) != SEAL_MAGIC {
        return Err(CkptError::BadMagic);
    }
    let len = word(4) as usize;
    let payload = sealed.get(12..12 + len).ok_or(CkptError::Truncated)?;
    if sealed.len() != 12 + len {
        return Err(CkptError::Truncated);
    }
    if crc32::crc32(payload) != word(8) {
        return Err(CkptError::Corrupt { tag: SEAL_MAGIC });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_mnemonics_round_trip() {
        assert_eq!(tag_name(tag4(b"DPDS")), "DPDS");
        assert_eq!(tag_name(tag4(b"WPOD")), "WPOD");
        // Non-printable bytes render as '?', not garbage.
        assert_eq!(tag_name(0x0102_0304), "????");
    }

    #[test]
    fn integrity_classification() {
        assert!(CkptError::Truncated.is_integrity());
        assert!(CkptError::Corrupt { tag: 1 }.is_integrity());
        assert!(CkptError::BadMagic.is_integrity());
        assert!(!CkptError::Mismatch("seed differs".into()).is_integrity());
    }

    #[test]
    fn seal_round_trips_and_detects_damage() {
        let payload = b"preempted job state".to_vec();
        let sealed = seal_bytes(&payload);
        assert_eq!(unseal_bytes(&sealed).unwrap(), payload.as_slice());
        // Empty payloads are legal (a zero-state job).
        assert_eq!(unseal_bytes(&seal_bytes(&[])).unwrap(), &[] as &[u8]);

        // Flip one payload bit → CRC failure.
        let mut bad = sealed.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert!(matches!(unseal_bytes(&bad), Err(CkptError::Corrupt { .. })));
        // Truncate → Truncated, never a panic.
        for cut in [0, 5, 11, sealed.len() - 1] {
            assert!(matches!(
                unseal_bytes(&sealed[..cut]),
                Err(CkptError::Truncated)
            ));
        }
        // Wrong magic → BadMagic.
        let mut wrong = sealed.clone();
        wrong[0] ^= 0xFF;
        assert!(matches!(unseal_bytes(&wrong), Err(CkptError::BadMagic)));
        // Length field lying long → Truncated.
        let mut long = sealed;
        long[4] = 0xFF;
        assert!(matches!(unseal_bytes(&long), Err(CkptError::Truncated)));
    }
}
