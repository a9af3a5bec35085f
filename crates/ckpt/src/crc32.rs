//! CRC-32 (IEEE 802.3 reflected polynomial 0xEDB88320), slicing-by-8.
//!
//! Guards every checkpoint section against bit rot and torn writes. The
//! polynomial matches zlib/`cksum -o 3`, so section checksums can be
//! cross-checked with standard tools while debugging a snapshot by hand.
//!
//! Eight bytes are folded per iteration through eight 256-entry tables:
//! `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
//! the eight lookups of one iteration are independent of each other and
//! only their XOR feeds the next iteration (≈ 2.0 GB/s against 0.37 GB/s
//! for one table and one byte per step, `bench_ckpt`'s first row). The
//! bytes are read with `from_le_bytes` on a `chunks_exact(8)` window — no
//! alignment requirement, no `unsafe`.

const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        // Only `lo` waits for the previous iteration. The four `hi`
        // lookups go first and the XORs form a tree, which keeps them off
        // the loop-carried chain: written as one left-to-right chain the
        // same eight lookups run at 1.5 instead of 2.0 GB/s.
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        let y = (t[3][(hi & 0xFF) as usize] ^ t[2][((hi >> 8) & 0xFF) as usize])
            ^ (t[1][((hi >> 16) & 0xFF) as usize] ^ t[0][(hi >> 24) as usize]);
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
        let x = (t[7][(lo & 0xFF) as usize] ^ t[6][((lo >> 8) & 0xFF) as usize])
            ^ (t[5][((lo >> 16) & 0xFF) as usize] ^ t[4][(lo >> 24) as usize]);
        c = x ^ y;
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_check_value() {
        // The universal CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn single_bit_flip_detected() {
        let a = crc32(b"checkpoint payload");
        let b = crc32(b"checkpoint pbyload");
        assert_ne!(a, b);
    }
}
