//! CRC-32 (IEEE 802.3 polynomial) over page payloads.
//!
//! The paper's adversary is honest-but-curious and never tampers with data
//! (§3.1). Our fault-injection extension (`pir::fault::FaultyStore`, and the
//! seeded disk faults of `pir::chaos::FaultyDisk`) lets a PIR backend
//! corrupt pages; checksums let the client detect that the trust assumption
//! was violated rather than silently returning a wrong path.
//!
//! Disk- and mmap-backed serving verifies every page of every linear scan, so
//! the checksum sits on the round's critical path. The implementation is
//! slicing-by-8 (eight 256-entry tables, one table lookup per input byte but
//! eight bytes consumed per iteration), which runs ~4x faster than the
//! classic one-table byte loop while producing bit-identical values.

/// Pre-computed slicing-by-8 tables for the reflected IEEE polynomial
/// 0xEDB88320. `tables()[0]` is the classic single CRC table; `tables()[k]`
/// advances a byte through `k` additional zero bytes.
fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        for i in 0..256 {
            let mut c = t[0][i];
            for k in 1..8 {
                c = t[0][(c & 0xFF) as usize] ^ (c >> 8);
                t[k][i] = c;
            }
        }
        t
    })
}

/// Computes the CRC-32 of `data` (same value as zlib's `crc32`).
pub fn crc32(data: &[u8]) -> u32 {
    let t = tables();
    let mut c: u32 = 0xFFFF_FFFF;
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes(ch[0..4].try_into().unwrap()) ^ c;
        let hi = u32::from_le_bytes(ch[4..8].try_into().unwrap());
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-table byte-at-a-time reference the sliced implementation must
    /// match bit for bit (committed snapshot manifests carry CRCs produced by
    /// the old loop).
    fn crc32_reference(data: &[u8]) -> u32 {
        let t = &tables()[0];
        let mut c: u32 = 0xFFFF_FFFF;
        for &b in data {
            c = t[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn matches_byte_at_a_time_reference() {
        // Every length 0..64 plus a 4 KiB page: exercises the 8-byte main
        // loop, the remainder tail, and their interaction.
        let data: Vec<u8> = (0..4096 + 64)
            .map(|i| ((i * 131 + 7) % 253) as u8)
            .collect();
        for len in 0..64 {
            assert_eq!(
                crc32(&data[..len]),
                crc32_reference(&data[..len]),
                "len {len}"
            );
        }
        assert_eq!(crc32(&data[..4096]), crc32_reference(&data[..4096]));
        assert_eq!(crc32(&data), crc32_reference(&data));
        // Unaligned start: the slice need not begin at an 8-byte boundary.
        assert_eq!(crc32(&data[3..1000]), crc32_reference(&data[3..1000]));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 4096];
        data[100] = 7;
        let c0 = crc32(&data);
        data[100] ^= 1;
        assert_ne!(crc32(&data), c0);
    }

    #[test]
    fn detects_transposition() {
        let a = crc32(b"ab");
        let b = crc32(b"ba");
        assert_ne!(a, b);
    }
}
