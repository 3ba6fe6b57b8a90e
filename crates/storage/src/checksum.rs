//! CRC-32 (IEEE 802.3 polynomial) over page payloads.
//!
//! The paper's adversary is honest-but-curious and never tampers with data
//! (§3.1). Our fault-injection extension (`pir::fault::FaultyStore`, and the
//! seeded disk faults of `pir::chaos::FaultyDisk`) lets a PIR backend
//! corrupt pages; checksums let the client detect that the trust assumption
//! was violated rather than silently returning a wrong path.
//!
//! Disk- and mmap-backed serving verifies every page of every linear scan, so
//! the checksum sits on the round's critical path: it is one of the passes a
//! sweep makes over every byte (a disk driver's read, the CRC, the select).
//! On x86-64 CPUs with carry-less multiply, inputs of at least 128 bytes
//! are folded 64 bytes a step with PCLMULQDQ: ≈ 11 GB/s on one core of the
//! reference 2-vCPU host over a 57 MB file, against ≈ 1.45 GB/s for the
//! table loop (`storage.checksum.crc32_gbps` of the reference benchmark's
//! traced run). Shorter inputs, the last few bytes
//! of a fold, and every input on other CPUs go through slicing-by-8: eight
//! 256-entry tables, eight bytes an iteration. Both produce zlib's value bit
//! for bit — snapshot manifests, sealed pages and wire frames carry CRCs,
//! so neither may change one.

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

/// Shortest input folded with carry-less multiplies: below two 64-byte
/// steps the fold's set-up and final reduction cost more than the table
/// loop saves.
#[cfg(target_arch = "x86_64")]
const CLMUL_MIN_LEN: usize = 128;

/// Computes the CRC-32 of `data` (same value as zlib's `crc32`).
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if data.len() >= CLMUL_MIN_LEN
            && std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: both target features `update_clmul` requires were just
            // verified at runtime, and `data` is longer than the 64 bytes it
            // starts from.
            return !unsafe { update_clmul(!0, data) };
        }
    }
    !update_table(!0, data)
}

/// Advances the CRC register `c` (the running value before the final
/// inversion) over `data`, eight bytes an iteration through the slicing
/// tables, then byte by byte.
fn update_table(mut c: u32, data: &[u8]) -> u32 {
    let t = tables();
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
    c
}

/// Fold constants of the reflected polynomial (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ", Intel 2009, as used
/// by zlib and Linux): `K1`/`K2` fold a 128-bit lane 512 bits ahead,
/// `K3`/`K4` 128 bits ahead, `K5` folds 96 bits to 64; `P` is the
/// polynomial with its x³² term and `MU` the Barrett constant ⌊x⁶⁴ / P⌋,
/// both bit-reflected.
#[cfg(target_arch = "x86_64")]
const K1: i64 = 0x1_5444_2bd4;
#[cfg(target_arch = "x86_64")]
const K2: i64 = 0x1_c6e4_1596;
#[cfg(target_arch = "x86_64")]
const K3: i64 = 0x1_7519_97d0;
#[cfg(target_arch = "x86_64")]
const K4: i64 = 0x0_ccaa_009e;
#[cfg(target_arch = "x86_64")]
const K5: i64 = 0x1_63cd_6124;
#[cfg(target_arch = "x86_64")]
const P: i64 = 0x1_DB71_0641;
#[cfg(target_arch = "x86_64")]
const MU: i64 = 0x1_F701_1641;

/// [`update_table`] for inputs of 64 bytes or more, folded with carry-less
/// multiplies: four 128-bit lanes advance 64 bytes a step, are folded into
/// one, which then advances 16 bytes a step; the 128 bits left are reduced
/// to 64, then Barrett-reduced to the 32-bit register. The last `len % 16`
/// bytes go through the table loop.
///
/// # Safety
/// Callers must have verified that the CPU supports `pclmulqdq` and
/// `sse4.1`.
///
/// # Panics
/// Panics if `data` is shorter than 64 bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
unsafe fn update_clmul(c: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };
    /// `a` carried 128 (or 512) bits ahead by `k`, onto `next`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold(a: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, k, 0x00);
        let hi = _mm_clmulepi64_si128(a, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }
    // SAFETY (enclosing fn): every load reads one 16-byte block of `data`
    // cut by `chunks_exact`, and `loadu` carries no alignment requirement.
    let load = |block: &[u8]| _mm_loadu_si128(block[..16].as_ptr() as *const __m128i);

    let mut steps = data.chunks_exact(64);
    let head = steps.next().expect("the fold starts from 64 bytes");
    let mut lanes = [0, 16, 32, 48].map(|at| load(&head[at..]));
    lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(c as i32));
    let k1k2 = _mm_set_epi64x(K2, K1);
    for step in &mut steps {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = fold(*lane, load(&step[i * 16..]), k1k2);
        }
    }
    let k3k4 = _mm_set_epi64x(K4, K3);
    let [l0, l1, l2, l3] = lanes;
    let mut x = fold(fold(fold(l0, l1, k3k4), l2, k3k4), l3, k3k4);
    let mut blocks = steps.remainder().chunks_exact(16);
    for block in &mut blocks {
        x = fold(x, load(block), k3k4);
    }

    // 128 bits to 64, then Barrett reduction to the 32-bit register (the
    // bit-reflected variant: the result is the upper half of the low word)
    let low32 = _mm_set_epi32(0, 0, 0, !0);
    let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
        _mm_srli_si128(x, 4),
    );
    let pmu = _mm_set_epi64x(MU, P);
    let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
    let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
    let c = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
    update_table(c, blocks.remainder())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-table byte-at-a-time reference both implementations must
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

    /// The slicing-by-8 loop alone: what `crc32` is on CPUs without
    /// carry-less multiply, and for short inputs everywhere.
    fn crc32_table(data: &[u8]) -> u32 {
        !update_table(!0, data)
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        // Long enough to be folded where the CPU can.
        assert_eq!(crc32(&[0u8; 4096]), 0xC71C_0011);
        assert_eq!(crc32(&[0xFFu8; 256]), 0xFEA8_A821);
    }

    #[test]
    fn matches_byte_at_a_time_reference() {
        // Every length 0..300 plus a 4 KiB page: exercises the 8-byte main
        // loop, the remainder tail, the switch to the fold at 128 bytes,
        // the fold's 16-byte blocks and tail, and their interaction.
        let data: Vec<u8> = (0..4096 + 64)
            .map(|i| ((i * 131 + 7) % 253) as u8)
            .collect();
        for len in 0..300 {
            let want = crc32_reference(&data[..len]);
            assert_eq!(crc32(&data[..len]), want, "len {len}");
            assert_eq!(crc32_table(&data[..len]), want, "table, len {len}");
        }
        assert_eq!(crc32(&data[..4096]), crc32_reference(&data[..4096]));
        assert_eq!(crc32(&data), crc32_reference(&data));
        // Unaligned start: the slice need not begin at an 8-byte boundary.
        assert_eq!(crc32(&data[3..1000]), crc32_reference(&data[3..1000]));
    }

    /// A length weighted towards the table/fold switch (0–200) and a page
    /// either side of 4 KiB, else anything up to 9,000 bytes.
    fn weighted_len(sel: u8, raw: usize) -> usize {
        match sel {
            0 => raw % 201,
            1 => 4096 - 64 + raw % 129,
            _ => raw,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Random bytes at every start offset of a 16-byte block: the
        /// dispatched CRC and the table loop both equal the reference.
        #[test]
        fn fast_crc_matches_the_reference_at_any_length_and_offset(
            sel in 0u8..4,
            raw in 0usize..=9000,
            start in 0usize..16,
            seed in any::<u64>(),
        ) {
            let len = weighted_len(sel, raw);
            let mut x = seed | 1;
            let buf: Vec<u8> = (0..start + len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x >> 24) as u8
                })
                .collect();
            let data = &buf[start..];
            let want = crc32_reference(data);
            prop_assert_eq!(crc32(data), want, "len {} at {}", len, start);
            prop_assert_eq!(crc32_table(data), want, "table, len {} at {}", len, start);
        }
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
