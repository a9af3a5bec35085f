//! Encode/decode cursors over section payloads.
//!
//! Built on the same little-endian [`Wire`] byte mapping the MCI virtual
//! network uses for message payloads, so a checkpoint section and a wire
//! message agree byte-for-byte on how numbers are laid out. `f64` values
//! round-trip through their exact bit pattern (`to_le_bytes` of an IEEE
//! double is its bit image), which is what makes "resume equals
//! uninterrupted run" a *bitwise* contract rather than an approximate one.

use crate::CkptError;
use nkg_net::wire::Wire;

/// Append-only encoder. Free-standing it builds one payload; inside a
/// [`crate::SnapshotWriter`] it is the whole snapshot image, and each
/// component encodes its section straight into the image's tail.
#[derive(Debug, Default)]
pub struct Enc {
    pub(crate) buf: Vec<u8>,
}

impl Enc {
    /// Empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one scalar.
    pub fn put<T: Wire>(&mut self, x: T) {
        x.put(&mut self.buf);
    }

    /// Append a slice with a `u64` length prefix.
    pub fn put_slice<T: Wire>(&mut self, xs: &[T]) {
        self.buf.reserve(8 + xs.len() * T::SIZE);
        (xs.len() as u64).put(&mut self.buf);
        for &x in xs {
            x.put(&mut self.buf);
        }
    }

    /// Append a boolean as one byte.
    pub fn put_bool(&mut self, b: bool) {
        self.put(b as u8);
    }

    /// Finish, yielding the payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Consuming decoder over one section payload.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> Dec<'a> {
    /// Decode from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, off: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.off
    }

    /// Decode one scalar.
    pub fn take<T: Wire>(&mut self) -> Result<T, CkptError> {
        if self.remaining() < T::SIZE {
            return Err(CkptError::Truncated);
        }
        let v = T::get(&self.buf[self.off..self.off + T::SIZE]);
        self.off += T::SIZE;
        Ok(v)
    }

    /// Decode a length-prefixed slice written by [`Enc::put_slice`]. The
    /// declared length is validated against the remaining bytes *before*
    /// allocating, so a corrupt length cannot trigger a huge allocation.
    pub fn take_vec<T: Wire>(&mut self) -> Result<Vec<T>, CkptError> {
        let n = self.take::<u64>()? as usize;
        let bytes = n
            .checked_mul(T::SIZE)
            .ok_or(CkptError::Malformed("slice length overflows"))?;
        if self.remaining() < bytes {
            return Err(CkptError::Truncated);
        }
        let end = self.off + bytes;
        let out = self.buf[self.off..end]
            .chunks_exact(T::SIZE)
            .map(T::get)
            .collect();
        self.off = end;
        Ok(out)
    }

    /// Decode a boolean byte (strictly 0 or 1).
    pub fn take_bool(&mut self) -> Result<bool, CkptError> {
        match self.take::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CkptError::Malformed("boolean byte out of range")),
        }
    }

    /// Assert the payload was fully consumed — trailing bytes mean the
    /// writer and reader disagree about the section schema.
    pub fn finish(self) -> Result<(), CkptError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CkptError::Malformed("trailing bytes in section"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut e = Enc::new();
        e.put(42u64);
        e.put(-1.5f64);
        e.put(7u8);
        e.put_bool(true);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.take::<u64>().unwrap(), 42);
        assert_eq!(d.take::<f64>().unwrap(), -1.5);
        assert_eq!(d.take::<u8>().unwrap(), 7);
        assert!(d.take_bool().unwrap());
        d.finish().unwrap();
    }

    #[test]
    fn slice_round_trip_preserves_bits() {
        let xs = [0.0f64, -0.0, f64::MIN_POSITIVE, 1.0 / 3.0, -1e300];
        let mut e = Enc::new();
        e.put_slice(&xs);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let ys = d.take_vec::<f64>().unwrap();
        d.finish().unwrap();
        for (a, b) in xs.iter().zip(&ys) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn vec3_round_trip() {
        let xs = [[1.0f64, 2.0, 3.0], [-0.0, 0.5, -7.25]];
        let mut e = Enc::new();
        e.put_slice(&xs);
        let bytes = e.into_bytes();
        let ys = Dec::new(&bytes).take_vec::<[f64; 3]>().unwrap();
        assert_eq!(xs.to_vec(), ys);
    }

    #[test]
    fn short_buffer_is_truncated_not_panic() {
        let mut e = Enc::new();
        e.put(1u64);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes[..4]);
        assert!(matches!(d.take::<u64>(), Err(CkptError::Truncated)));
    }

    #[test]
    fn hostile_length_rejected_before_allocation() {
        // A length prefix claiming u64::MAX elements must not allocate.
        let mut e = Enc::new();
        e.put(u64::MAX);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(d.take_vec::<f64>().is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut e = Enc::new();
        e.put(1u8);
        e.put(2u8);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let _ = d.take::<u8>().unwrap();
        assert!(matches!(
            d.finish(),
            Err(CkptError::Malformed("trailing bytes in section"))
        ));
    }
}
