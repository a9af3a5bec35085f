//! Deterministic fault injection for exercising recovery paths.
//!
//! Production runs on ~131k cores lose nodes as a matter of course; the
//! recovery code (CRC rejection, fallback to the previous good snapshot,
//! version refusal) must therefore be *tested*, not just claimed. A
//! [`FaultPlan`] describes, ahead of time, exactly which disaster strikes:
//! kill the run after the k-th exchange, flip a byte inside a chosen
//! section of the freshest checkpoint, or tear its tail off. Everything is
//! deterministic so a failing recovery test replays exactly.

use crate::format::scan;
use crate::CkptError;
use std::fs;
use std::path::Path;

/// A scripted disaster for one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Abort the run immediately after this many coupling exchanges have
    /// completed (the driver surfaces this as an error, standing in for a
    /// node loss).
    pub kill_after_exchange: Option<u64>,
    /// After every checkpoint write, flip one payload byte inside the
    /// section with this tag — the snapshot must then fail its CRC check.
    pub corrupt_section: Option<u32>,
    /// After every checkpoint write, truncate the file by this many bytes
    /// (a torn write that escaped the atomic rename, e.g. media damage).
    pub truncate_tail: Option<u64>,
}

impl FaultPlan {
    /// A plan that only kills the run after `k` exchanges.
    pub fn kill_after(k: u64) -> Self {
        Self {
            kill_after_exchange: Some(k),
            ..Default::default()
        }
    }

    /// Whether [`Self::tamper`] touches the file at all.
    pub fn tampers(&self) -> bool {
        self.corrupt_section.is_some() || self.truncate_tail.is_some()
    }

    /// Apply the file-level faults (corruption, truncation) to a
    /// just-written checkpoint. Called by the run driver after each write.
    pub fn tamper(&self, path: &Path) -> Result<(), CkptError> {
        if let Some(tag) = self.corrupt_section {
            corrupt_section(path, tag)?;
        }
        if let Some(n) = self.truncate_tail {
            truncate_tail(path, n)?;
        }
        Ok(())
    }
}

/// Flip one byte in the middle of the payload of section `tag` in the
/// snapshot at `path`. The framing is parsed without CRC verification (the
/// point is to *create* a CRC mismatch). Errors if the section is absent.
pub fn corrupt_section(path: &Path, tag: u32) -> Result<(), CkptError> {
    let mut bytes = fs::read(path)?;
    let sections = scan(&bytes, false)?;
    let range = sections
        .into_iter()
        .find(|(t, _)| *t == tag)
        .map(|(_, r)| r)
        .ok_or(CkptError::MissingSection { tag })?;
    // Empty payloads have no byte to flip; damage the framing CRC instead
    // (the 4 bytes immediately preceding the payload).
    let target = if range.is_empty() {
        range.start - 1
    } else {
        range.start + range.len() / 2
    };
    bytes[target] ^= 0xA5;
    fs::write(path, &bytes)?;
    Ok(())
}

/// Truncate the snapshot at `path` by `n` bytes (to zero length if `n`
/// exceeds the file size).
pub fn truncate_tail(path: &Path, n: u64) -> Result<(), CkptError> {
    let len = fs::metadata(path)?.len();
    let f = fs::OpenOptions::new().write(true).open(path)?;
    f.set_len(len.saturating_sub(n))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{SnapshotFile, SnapshotWriter};
    use crate::tag4;

    fn write_sample(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("nkg_ckpt_fault_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let mut w = SnapshotWriter::new();
        w.add(tag4(b"ONEA"), &[1; 64]);
        w.add(tag4(b"TWOB"), &[2; 64]);
        w.write_atomic(&path).unwrap();
        path
    }

    #[test]
    fn corruption_hits_exactly_the_chosen_section() {
        let path = write_sample("corrupt.nkgc");
        corrupt_section(&path, tag4(b"TWOB")).unwrap();
        match SnapshotFile::read_from(&path) {
            Err(CkptError::Corrupt { tag }) => assert_eq!(tag, tag4(b"TWOB")),
            other => panic!("expected CRC failure on TWOB, got {other:?}"),
        }
    }

    #[test]
    fn corrupting_a_missing_section_errors() {
        let path = write_sample("missing.nkgc");
        assert!(matches!(
            corrupt_section(&path, tag4(b"NOPE")),
            Err(CkptError::MissingSection { .. })
        ));
        // File untouched: still validates.
        assert!(SnapshotFile::read_from(&path).is_ok());
    }

    #[test]
    fn truncation_detected_on_read() {
        let path = write_sample("trunc.nkgc");
        truncate_tail(&path, 10).unwrap();
        assert!(matches!(
            SnapshotFile::read_from(&path),
            Err(CkptError::Truncated)
        ));
    }
}
