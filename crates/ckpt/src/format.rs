//! The on-disk snapshot container.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "NKGC" | format_version: u32 | section_count: u32
//! per section:  tag: u32 | payload_len: u64 | crc32(payload): u32 | payload
//! ```
//!
//! Integrity policy: the reader validates magic, format version, section
//! framing and every section CRC *before* handing out a single payload
//! byte, so a torn or bit-rotted file is rejected atomically rather than
//! half-loaded. Writes go to a `.tmp` sibling which is fsynced and then
//! renamed over the destination — a crash mid-write leaves the previous
//! checkpoint intact.

use crate::codec::Enc;
use crate::crc32::crc32;
use crate::{tag_name, CkptError, Snapshot};
use std::fs;
use std::io::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// File magic: "NKGC" (NεκTαr-G Checkpoint).
pub const MAGIC: [u8; 4] = *b"NKGC";

/// Current format version. Bump on any incompatible layout change; readers
/// refuse other versions with [`CkptError::Version`] instead of guessing.
/// Version 2: NS solver sections carry projection warm-start bases and
/// per-step elliptic telemetry (run reports grew matching vectors).
pub const FORMAT_VERSION: u32 = 2;

const HEADER_LEN: usize = 4 + 4 + 4;
const SECTION_HEADER_LEN: usize = 4 + 8 + 4;

/// Encodes tagged sections straight into one snapshot image.
///
/// The image is the file: header first, then each section's framing and
/// payload, with components encoding into the image's tail through
/// [`Enc`]. A section's length is patched in when the section closes and
/// the section count on every add; the CRC fields stay zero until
/// [`Self::seal`], so the one pass over the payload bytes can run off the
/// thread that encoded them. [`Self::clear`] keeps the allocation, which
/// is what lets a periodic checkpointer reuse one buffer for every
/// generation.
#[derive(Debug)]
pub struct SnapshotWriter {
    image: Enc,
    sealed: bool,
}

impl Default for SnapshotWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotWriter {
    /// Empty writer.
    pub fn new() -> Self {
        let mut w = Self {
            image: Enc::new(),
            sealed: false,
        };
        w.clear();
        w
    }

    /// Drop every section, keeping the image's allocation.
    pub fn clear(&mut self) {
        let buf = &mut self.image.buf;
        buf.clear();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        self.sealed = false;
    }

    /// Append a section whose payload `encode` writes. Tags must be
    /// unique within one snapshot.
    pub fn add_with(&mut self, tag: u32, encode: impl FnOnce(&mut Enc)) {
        assert!(
            frames(&self.image.buf).all(|f| f.tag != tag),
            "duplicate section tag {}",
            tag_name(tag)
        );
        let buf = &mut self.image.buf;
        buf.extend_from_slice(&tag.to_le_bytes());
        buf.extend_from_slice(&[0; 12]); // payload_len and crc32, patched below / at seal
        let start = buf.len();
        encode(&mut self.image);
        let buf = &mut self.image.buf;
        let len = (buf.len() - start) as u64;
        buf[start - 12..start - 4].copy_from_slice(&len.to_le_bytes());
        let count = u32::from_le_bytes(buf[8..12].try_into().unwrap()) + 1;
        buf[8..12].copy_from_slice(&count.to_le_bytes());
        self.sealed = false;
    }

    /// Append a raw section.
    pub fn add(&mut self, tag: u32, payload: &[u8]) {
        self.add_with(tag, |enc| enc.buf.extend_from_slice(payload));
    }

    /// Append a component's state as a section under its own tag.
    pub fn add_snapshot<T: Snapshot>(&mut self, x: &T) {
        self.add_with(T::TAG, |enc| x.snapshot(enc));
    }

    /// Patch every section's CRC32 into its framing and return the
    /// finished image — exactly the bytes of the snapshot file.
    pub fn seal(&mut self) -> &[u8] {
        if !self.sealed {
            let spans: Vec<Frame> = frames(&self.image.buf).collect();
            let buf = &mut self.image.buf;
            for f in spans {
                let crc = crc32(&buf[f.payload.clone()]);
                buf[f.payload.start - 4..f.payload.start].copy_from_slice(&crc.to_le_bytes());
            }
            self.sealed = true;
        }
        &self.image.buf
    }

    /// Seal and hand over the finished image without copying it.
    pub fn into_image(mut self) -> Vec<u8> {
        self.seal();
        self.image.into_bytes()
    }

    /// Seal, then atomically write the snapshot to `path` (temp sibling +
    /// fsync + rename). Returns the number of bytes written.
    pub fn write_atomic(&mut self, path: &Path) -> Result<u64, CkptError> {
        commit(self.seal(), path)
    }

    /// Seal, rotate the snapshot already at `path` to its `.prev` sibling
    /// ([`rotate_previous`]), then write as [`Self::write_atomic`] does —
    /// the last known-good generation survives a failure during (or
    /// corruption after) the new write.
    pub fn write_rotating(&mut self, path: &Path) -> Result<u64, CkptError> {
        let image = self.seal();
        rotate_previous(path)?;
        commit(image, path)
    }
}

/// One section of a writer's own image.
struct Frame {
    tag: u32,
    payload: Range<usize>,
}

/// Walk the sections of an image the writer assembled itself (framing
/// trusted, CRC fields ignored).
fn frames(buf: &[u8]) -> impl Iterator<Item = Frame> + '_ {
    let mut off = HEADER_LEN;
    std::iter::from_fn(move || {
        if off >= buf.len() {
            return None;
        }
        let tag = u32::from_le_bytes(buf[off..off + 4].try_into().unwrap());
        let len = u64::from_le_bytes(buf[off + 4..off + 12].try_into().unwrap()) as usize;
        let start = off + SECTION_HEADER_LEN;
        off = start + len;
        Some(Frame {
            tag,
            payload: start..off,
        })
    })
}

/// Write `image` to the temp sibling of `path`, fsync it and rename it
/// over `path`. A failure at any step removes the temp file, so an
/// uncommittable path leaves no residue next to the last good snapshot.
fn commit(image: &[u8], path: &Path) -> Result<u64, CkptError> {
    let tmp = tmp_path(path);
    let written = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(image)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)
    })();
    match written {
        Ok(()) => Ok(image.len() as u64),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(e.into())
        }
    }
}

/// A fully validated snapshot loaded into memory: the image is owned
/// once and sections are ranges into it.
#[derive(Debug)]
pub struct SnapshotFile {
    image: Vec<u8>,
    sections: Vec<(u32, Range<usize>)>,
}

impl SnapshotFile {
    /// Parse and validate an owned snapshot image: magic, version,
    /// framing and every per-section CRC.
    pub fn from_image(image: Vec<u8>) -> Result<Self, CkptError> {
        let sections = scan(&image, true)?;
        Ok(Self { image, sections })
    }

    /// [`Self::from_image`] on a copy of `bytes`.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CkptError> {
        Self::from_image(bytes.to_vec())
    }

    /// Read and validate a snapshot file.
    pub fn read_from(path: &Path) -> Result<Self, CkptError> {
        Self::from_image(fs::read(path)?)
    }

    /// Tags present, in file order.
    pub fn tags(&self) -> Vec<u32> {
        self.sections.iter().map(|(t, _)| *t).collect()
    }

    /// Payload of the section tagged `tag`.
    pub fn payload(&self, tag: u32) -> Result<&[u8], CkptError> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, r)| &self.image[r.clone()])
            .ok_or(CkptError::MissingSection { tag })
    }

    /// Restore a component from its section, requiring the payload to be
    /// consumed exactly.
    pub fn restore_into<T: Snapshot>(&self, x: &mut T) -> Result<(), CkptError> {
        let mut dec = crate::codec::Dec::new(self.payload(T::TAG)?);
        x.restore(&mut dec)?;
        dec.finish()
    }
}

/// Scan the container framing, returning `(tag, payload range)` per
/// section. With `verify_crc` unset the stored checksums are ignored —
/// that is the entry point the fault injector uses to aim a corruption at
/// a chosen section without tripping over it.
pub(crate) fn scan(bytes: &[u8], verify_crc: bool) -> Result<Vec<(u32, Range<usize>)>, CkptError> {
    if bytes.len() < HEADER_LEN {
        return Err(CkptError::Truncated);
    }
    if bytes[0..4] != MAGIC {
        return Err(CkptError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(CkptError::Version {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let mut sections = Vec::with_capacity(count);
    let mut off = HEADER_LEN;
    for _ in 0..count {
        if bytes.len() - off < SECTION_HEADER_LEN {
            return Err(CkptError::Truncated);
        }
        let tag = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[off + 4..off + 12].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[off + 12..off + 16].try_into().unwrap());
        off += SECTION_HEADER_LEN;
        if bytes.len() - off < len {
            return Err(CkptError::Truncated);
        }
        let payload = off..off + len;
        if verify_crc && crc32(&bytes[payload.clone()]) != crc {
            return Err(CkptError::Corrupt { tag });
        }
        sections.push((tag, payload));
        off += len;
    }
    if off != bytes.len() {
        return Err(CkptError::Malformed("trailing bytes after last section"));
    }
    Ok(sections)
}

/// The temp sibling used by atomic writes.
pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(".tmp");
    PathBuf::from(s)
}

/// The rotation sibling holding the previous good snapshot.
pub fn prev_path(path: &Path) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(".prev");
    PathBuf::from(s)
}

/// Rank-scoped sibling of a snapshot path: `foo.nkgc` → `foo.rank3.nkgc`
/// (or `foo` → `foo.rank3` when there is no extension). In a replicated
/// run every replica checkpoints to its own rank-scoped file, and a
/// promoted replica restores from the *dead master's* file by naming the
/// master's rank — rank-scoped restore without any shared registry.
pub fn rank_path(path: &Path, rank: usize) -> PathBuf {
    let suffix = format!("rank{rank}");
    match path.extension() {
        Some(ext) => {
            let mut p = path.to_path_buf();
            let mut name = suffix;
            name.push('.');
            name.push_str(&ext.to_string_lossy());
            p.set_extension(name);
            p
        }
        None => {
            let mut s = path.as_os_str().to_os_string();
            s.push(".");
            s.push(&suffix);
            PathBuf::from(s)
        }
    }
}

/// Rotate: rename `path` to [`prev_path`] so the next write cannot
/// destroy the last known-good snapshot. A missing `path` is "nothing to
/// rotate", learned from the rename itself rather than a stat before it.
pub fn rotate_previous(path: &Path) -> Result<(), CkptError> {
    match fs::rename(path, prev_path(path)) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e.into()),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag4;

    #[test]
    fn rank_path_respects_extension() {
        assert_eq!(
            rank_path(Path::new("/tmp/run.nkgc"), 3),
            PathBuf::from("/tmp/run.rank3.nkgc")
        );
        assert_eq!(
            rank_path(Path::new("/tmp/run"), 0),
            PathBuf::from("/tmp/run.rank0")
        );
        // Rank-scoped paths compose with the .prev rotation sibling.
        assert_eq!(
            prev_path(&rank_path(Path::new("a.nkgc"), 1)),
            PathBuf::from("a.rank1.nkgc.prev")
        );
    }

    fn sample() -> SnapshotWriter {
        let mut w = SnapshotWriter::new();
        w.add(tag4(b"AAAA"), &[1, 2, 3, 4, 5]);
        w.add(tag4(b"BBBB"), &[9; 100]);
        w
    }

    #[test]
    fn round_trip_in_memory() {
        let bytes = sample().seal().to_vec();
        let f = SnapshotFile::from_bytes(&bytes).unwrap();
        assert_eq!(f.tags(), vec![tag4(b"AAAA"), tag4(b"BBBB")]);
        assert_eq!(f.payload(tag4(b"AAAA")).unwrap(), &[1, 2, 3, 4, 5]);
        assert!(matches!(
            f.payload(tag4(b"CCCC")),
            Err(CkptError::MissingSection { .. })
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().seal().to_vec();
        bytes[0] = b'X';
        assert!(matches!(
            SnapshotFile::from_bytes(&bytes),
            Err(CkptError::BadMagic)
        ));
    }

    #[test]
    fn version_mismatch_rejected_with_both_versions() {
        let mut bytes = sample().seal().to_vec();
        bytes[4] = 99;
        match SnapshotFile::from_bytes(&bytes) {
            Err(CkptError::Version { found, expected }) => {
                assert_eq!(found, 99);
                assert_eq!(expected, FORMAT_VERSION);
            }
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn payload_corruption_names_the_section() {
        let mut bytes = sample().seal().to_vec();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF; // last byte of section BBBB
        match SnapshotFile::from_bytes(&bytes) {
            Err(CkptError::Corrupt { tag }) => assert_eq!(tag, tag4(b"BBBB")),
            other => panic!("expected corrupt error, got {other:?}"),
        }
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample().seal().to_vec();
        for cut in [bytes.len() - 1, bytes.len() - 50, 10, 3] {
            assert!(
                matches!(
                    SnapshotFile::from_bytes(&bytes[..cut]),
                    Err(CkptError::Truncated)
                ),
                "cut at {cut} not detected"
            );
        }
    }

    #[test]
    #[should_panic(expected = "duplicate section tag")]
    fn duplicate_tags_refused() {
        let mut w = sample();
        w.add(tag4(b"AAAA"), &[]);
    }

    #[test]
    fn atomic_write_and_rotation() {
        let dir = std::env::temp_dir().join("nkg_ckpt_format_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.nkgc");
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(prev_path(&path));

        sample().write_atomic(&path).unwrap();
        assert!(SnapshotFile::read_from(&path).is_ok());
        // Rotate, write a second generation: both must validate.
        rotate_previous(&path).unwrap();
        let mut w2 = SnapshotWriter::new();
        w2.add(tag4(b"AAAA"), &[7, 7]);
        w2.write_atomic(&path).unwrap();
        assert!(SnapshotFile::read_from(&path).is_ok());
        assert!(SnapshotFile::read_from(&prev_path(&path)).is_ok());
        assert_eq!(
            SnapshotFile::read_from(&prev_path(&path))
                .unwrap()
                .payload(tag4(b"AAAA"))
                .unwrap(),
            &[1, 2, 3, 4, 5]
        );
        // No temp residue.
        assert!(!tmp_path(&path).exists());
    }

    #[test]
    fn cleared_writer_reproduces_a_fresh_one() {
        let fresh = sample().seal().to_vec();
        let mut w = SnapshotWriter::new();
        w.add(tag4(b"ZZZZ"), &[3; 4000]);
        w.seal();
        w.clear();
        w.add(tag4(b"AAAA"), &[1, 2, 3, 4, 5]);
        w.add_with(tag4(b"BBBB"), |enc| {
            for _ in 0..100 {
                enc.put(9u8);
            }
        });
        assert_eq!(w.seal(), fresh.as_slice());
        // Sealing twice changes nothing; adding after a seal reseals.
        assert_eq!(w.seal(), fresh.as_slice());
        w.add(tag4(b"CCCC"), &[]);
        assert!(SnapshotFile::from_bytes(w.seal()).is_ok());
    }

    #[test]
    fn rotating_nothing_is_not_an_error() {
        let dir = std::env::temp_dir().join("nkg_ckpt_format_rotate_none");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        rotate_previous(&dir.join("absent.nkgc")).unwrap();
        // Any other rename failure still surfaces: a file cannot replace
        // a non-empty directory.
        let path = dir.join("snap.nkgc");
        sample().write_atomic(&path).unwrap();
        fs::create_dir_all(prev_path(&path).join("occupied")).unwrap();
        assert!(matches!(rotate_previous(&path), Err(CkptError::Io(_))));
    }

    #[test]
    fn failed_commit_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join("nkg_ckpt_format_failed_commit");
        let _ = fs::remove_dir_all(&dir);
        // The destination is a non-empty directory: the temp file is
        // written and fsynced, the rename fails.
        let path = dir.join("snap.nkgc");
        fs::create_dir_all(path.join("occupied")).unwrap();
        assert!(matches!(
            sample().write_atomic(&path),
            Err(CkptError::Io(_))
        ));
        assert!(!tmp_path(&path).exists());
        // The destination's directory is gone: the temp file cannot even
        // be created.
        let orphan = dir.join("gone").join("snap.nkgc");
        assert!(matches!(
            sample().write_rotating(&orphan),
            Err(CkptError::Io(_))
        ));
    }
}
