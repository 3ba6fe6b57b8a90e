//! CRC-32 (IEEE 802.3 polynomial) over page payloads, and the linear
//! sweep's verify-and-select pass over a page.
//!
//! The paper's adversary is honest-but-curious and never tampers with data
//! (§3.1). Our fault-injection extension (`pir::fault::FaultyStore`, and the
//! seeded disk faults of `pir::chaos::FaultyDisk`) lets a PIR backend
//! corrupt pages; checksums let the client detect that the trust assumption
//! was violated rather than silently returning a wrong path.
//!
//! Disk- and mmap-backed serving verifies every page of every linear scan, so
//! the checksum sits on the round's critical path. [`crc32_select`] makes it
//! the same pass as the sweep's masked select: on x86-64 CPUs with the
//! 512-bit carry-less multiply (VPCLMULQDQ with AVX-512F), inputs of at
//! least 256 bytes are folded 256 bytes a step in four zmm lanes, each load
//! selected as it is folded — ≈ 26 GB/s for the CRC alone on one core of
//! the reference 2-vCPU host over a 57 MB file, and a lap of that file
//! verified and selected on two cores in ≈ 1.4 ms
//! (`storage.checksum.crc32_gbps` and `pir.server.busy_ms` of the reference
//! benchmark's traced run). CPUs with only PCLMULQDQ fold inputs of at
//! least 128 bytes 64 bytes a step (≈ 9 – 18 GB/s) and select in a second
//! pass; shorter inputs, the last few bytes of a fold, and every input on
//! other CPUs go through slicing-by-8 (≈ 1.45 GB/s): eight 256-entry
//! tables, eight bytes an iteration. All produce zlib's value bit for bit — snapshot manifests,
//! sealed pages and wire frames carry CRCs, so none may change one.
//!
//! Files served without the checksum layer are only selected, by
//! `lane_select`: 512-bit, AVX2 or portable, whichever the CPU runs.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{__m128i, __m512i};

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

/// Shortest input folded with 512-bit carry-less multiplies: one whole
/// step of the four 64-byte lanes.
#[cfg(target_arch = "x86_64")]
const WIDE_MIN_LEN: usize = 256;

/// True when the CPU has what [`update_clmul`] needs.
#[cfg(target_arch = "x86_64")]
fn has_clmul() -> bool {
    std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
}

/// True when the CPU has what [`update_wide`] needs: the 512-bit form of
/// carry-less multiply (VPCLMULQDQ with AVX-512F).
#[cfg(target_arch = "x86_64")]
fn has_wide_fold() -> bool {
    std::arch::is_x86_feature_detected!("vpclmulqdq")
        && std::arch::is_x86_feature_detected!("avx512f")
        && has_clmul()
}

/// Computes the CRC-32 of `data` (same value as zlib's `crc32`).
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if data.len() >= WIDE_MIN_LEN && has_wide_fold() {
            // SAFETY: every target feature `update_wide` requires was just
            // verified at runtime, `data` holds the 256 bytes it starts from,
            // and without a select the empty accumulator is never touched.
            return !unsafe { update_wide::<false>(!0, data, 0, &mut []) };
        }
        if data.len() >= CLMUL_MIN_LEN && has_clmul() {
            // SAFETY: both target features `update_clmul` requires were just
            // verified at runtime, and `data` is longer than the 64 bytes it
            // starts from.
            return !unsafe { update_clmul(!0, data) };
        }
    }
    !update_table(!0, data)
}

/// The CRC-32 of `src` (as [`crc32`]), computed in the same pass that
/// OR-accumulates `src & mask` into `acc`, `mask` being all-ones or
/// all-zeros: the linear sweep's one pass over a page, which verifies the
/// page and selects it into its output slot (match) or the dummy sink (no
/// match). Every 64-byte load is folded into the CRC and OR-ed into `acc`
/// in the same iteration, with the same loads, folds and stores whatever
/// the mask.
///
/// The mask is laundered through [`std::hint::black_box`], for the reason
/// `lane_select` gives: the caller picks `acc` with a branch on the
/// predicate the mask comes from, and the fence keeps the work per page
/// constant.
///
/// On x86-64 CPUs with the 512-bit VPCLMULQDQ form, inputs of at least 256
/// bytes take the wide fold (`update_wide`); everywhere else, and for
/// shorter inputs, this is two passes: [`crc32`], then `lane_select`.
///
/// # Panics
/// Panics if `src.len() != acc.len()`.
pub fn crc32_select(src: &[u8], mask: u64, acc: &mut [u8]) -> u32 {
    assert_eq!(src.len(), acc.len(), "select buffers must match");
    let mask = std::hint::black_box(mask);
    #[cfg(target_arch = "x86_64")]
    {
        if src.len() >= WIDE_MIN_LEN && has_wide_fold() {
            // SAFETY: every target feature `update_wide` requires was just
            // verified at runtime, `src` holds the 256 bytes it starts from,
            // and `acc` is exactly as long as `src` (asserted above).
            return !unsafe { update_wide::<true>(!0, src, mask, acc) };
        }
    }
    crc32_then_select(src, mask, acc)
}

/// [`crc32_select`] as two passes: what it is on CPUs without the wide
/// fold, and for inputs under 256 bytes.
fn crc32_then_select(src: &[u8], mask: u64, acc: &mut [u8]) -> u32 {
    let crc = crc32(src);
    lane_select(src, mask, acc);
    crc
}

/// OR-accumulates `src & mask` into `acc`, `mask` being all-ones or
/// all-zeros. The scan calls this once per page with `acc` pointing at
/// either the page's output slot (match) or the dummy sink (no match), so
/// the work per page is independent of the request set.
///
/// The mask is laundered through [`std::hint::black_box`] before the loop:
/// the sweep picks `acc` with a branch on the same predicate the mask is
/// derived from, so without the fence the optimizer specializes the
/// no-match arm to `mask = 0`, folds `acc |= src & 0` to nothing, and
/// deletes the loads — a compiled scan whose per-page work (and timing)
/// depends on the request set. The fence keeps the work constant per page.
///
/// Three tiers, chosen at run time, each with the same loads and stores
/// per page whatever the mask: on x86-64 CPUs with AVX-512F a 512-bit loop
/// (one zmm load of the source, one of the accumulator and one store per
/// 64 bytes — a whole cache line when both buffers start on one, as the
/// sweep's do), else the AVX2 loop over 32-byte blocks, else the portable
/// word loop, which auto-vectorizes as the target allows (SSE2 on the
/// x86-64 baseline, which leaves the sweep compute bound well below what
/// the memory delivers).
///
/// # Panics
/// Debug-asserts `src.len() == acc.len()`.
#[inline]
pub(crate) fn lane_select(src: &[u8], mask: u64, acc: &mut [u8]) {
    debug_assert_eq!(src.len(), acc.len(), "lane kernel buffers must match");
    let mask = std::hint::black_box(mask);
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the `avx512f` requirement of `lane_words_avx512` was
            // just verified at runtime; the function is otherwise safe code.
            unsafe { lane_words_avx512(src, mask, acc) };
            return;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the `avx2` requirement of `lane_words_avx2` was just
            // verified at runtime; the function is otherwise safe code.
            unsafe { lane_words_avx2(src, mask, acc) };
            return;
        }
    }
    lane_words(src, mask, acc);
}

/// The portable lane loop: OR-accumulate 8-byte words under the mask, then
/// the byte tail. `#[inline(always)]` so the vector loops recompile this
/// exact body for their tails with their wider instructions instead of
/// duplicating it.
#[inline(always)]
fn lane_words(src: &[u8], mask: u64, acc: &mut [u8]) {
    let mut s = src.chunks_exact(8);
    let mut a = acc.chunks_exact_mut(8);
    for (sc, ac) in (&mut s).zip(&mut a) {
        let w = u64::from_le_bytes(sc.try_into().unwrap());
        let v = u64::from_le_bytes((&*ac).try_into().unwrap());
        ac.copy_from_slice(&(v | (w & mask)).to_le_bytes());
    }
    let mb = (mask & 0xFF) as u8;
    for (sb, ab) in s.remainder().iter().zip(a.into_remainder()) {
        *ab |= sb & mb;
    }
}

/// The 512-bit lane loop: 64-byte `vpandq`/`vporq` blocks with the
/// broadcast mask, the tail (under 64 bytes) delegated to [`lane_words`].
/// Separate from the dispatch so the whole-page loop is compiled once with
/// the feature enabled.
///
/// # Safety
/// Callers must have verified the CPU supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn lane_words_avx512(src: &[u8], mask: u64, acc: &mut [u8]) {
    use std::arch::x86_64::{
        _mm512_and_si512, _mm512_loadu_si512, _mm512_or_si512, _mm512_set1_epi64,
        _mm512_storeu_si512,
    };
    let blocks = src.len().min(acc.len()) / 64;
    let m = _mm512_set1_epi64(mask as i64);
    let sp = src.as_ptr();
    let ap = acc.as_mut_ptr();
    for i in 0..blocks {
        // SAFETY (enclosing fn): `i * 64 + 64 <= blocks * 64 <= len` of both
        // slices, and `loadu`/`storeu` carry no alignment requirement.
        let s = _mm512_loadu_si512(sp.add(i * 64).cast());
        let a = _mm512_loadu_si512(ap.add(i * 64).cast_const().cast());
        let r = _mm512_or_si512(a, _mm512_and_si512(s, m));
        _mm512_storeu_si512(ap.add(i * 64).cast(), r);
    }
    lane_words(&src[blocks * 64..], mask, &mut acc[blocks * 64..]);
}

/// The AVX2 lane loop: 32-byte `vpand`/`vpor` blocks with the broadcast
/// mask, tail delegated to [`lane_words`]. Separate from the dispatch so
/// the whole-page loop is compiled once with the feature enabled.
///
/// # Safety
/// Callers must have verified the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lane_words_avx2(src: &[u8], mask: u64, acc: &mut [u8]) {
    use std::arch::x86_64::{
        __m256i, _mm256_and_si256, _mm256_loadu_si256, _mm256_or_si256, _mm256_set1_epi64x,
        _mm256_storeu_si256,
    };
    let blocks = src.len().min(acc.len()) / 32;
    let m = _mm256_set1_epi64x(mask as i64);
    let sp = src.as_ptr();
    let ap = acc.as_mut_ptr();
    for i in 0..blocks {
        // SAFETY (enclosing fn): `i * 32 + 32 <= blocks * 32 <= len` of both
        // slices, and `loadu`/`storeu` carry no alignment requirement.
        let s = _mm256_loadu_si256(sp.add(i * 32) as *const __m256i);
        let a = _mm256_loadu_si256(ap.add(i * 32) as *mut __m256i as *const __m256i);
        let r = _mm256_or_si256(a, _mm256_and_si256(s, m));
        _mm256_storeu_si256(ap.add(i * 32) as *mut __m256i, r);
    }
    lane_words(&src[blocks * 32..], mask, &mut acc[blocks * 32..]);
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
/// both bit-reflected. `K2048` is the `K1`/`K2` pair of the wide fold,
/// carrying each 128-bit quarter of a lane 2,048 bits ahead; every pair is
/// (x^(D+32) mod P, x^(D−32) mod P) for a distance of D bits, reflected and
/// shifted left by one.
#[cfg(target_arch = "x86_64")]
const K2048: [i64; 2] = [0x1_1542_778a, 0x1_322d_1430];
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
/// one, and [`fold_tail`] finishes.
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
    use std::arch::x86_64::{_mm_cvtsi32_si128, _mm_loadu_si128, _mm_set_epi64x, _mm_xor_si128};
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
    let x = fold(fold(fold(l0, l1, k3k4), l2, k3k4), l3, k3k4);
    fold_tail(x, steps.remainder())
}

/// [`update_clmul`] with 512-bit registers, and with an optional select
/// riding along: four zmm lanes advance 256 bytes a step (each 128-bit
/// quarter 2,048 bits ahead), are folded into one 512 bits apart, whose
/// four quarters are folded into one 128 bits apart, and [`fold_tail`]
/// finishes over the last `len % 256` bytes. With `SELECT`, every 64-byte
/// load is also OR-ed under `mask` into the same 64 bytes of `acc` in the
/// same iteration — the same loads, folds and stores whatever the mask —
/// and the tail is selected by [`lane_select`].
///
/// # Safety
/// Callers must have verified that the CPU supports `avx512f`,
/// `vpclmulqdq`, `pclmulqdq` and `sse4.1`, and, with `SELECT`, that `acc`
/// is exactly as long as `data`: the loop writes `acc` through a raw
/// pointer.
///
/// # Panics
/// Panics if `data` is shorter than 256 bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,vpclmulqdq,pclmulqdq,sse4.1")]
unsafe fn update_wide<const SELECT: bool>(c: u32, data: &[u8], mask: u64, acc: &mut [u8]) -> u32 {
    use std::arch::x86_64::{
        _mm512_and_si512, _mm512_extracti32x4_epi32, _mm512_loadu_si512, _mm512_or_si512,
        _mm512_set1_epi64, _mm512_set4_epi64, _mm512_setzero_si512, _mm512_storeu_si512,
        _mm512_xor_si512, _mm512_zextsi128_si512, _mm_cvtsi32_si128, _mm_set_epi64x,
    };
    let steps = data.len() / 256;
    assert!(steps > 0, "the wide fold starts from 256 bytes");
    let (src, dst) = (data.as_ptr(), acc.as_mut_ptr());
    let m = _mm512_set1_epi64(mask as i64);
    // SAFETY (enclosing fn): `take` is only called with
    // `at + 64 <= steps * 256 <= data.len()`, which with `SELECT` is also
    // `acc.len()`; `loadu`/`storeu` carry no alignment requirement.
    let take = |at: usize| {
        let v = _mm512_loadu_si512(src.add(at).cast());
        if SELECT {
            let a = dst.add(at).cast::<__m512i>();
            _mm512_storeu_si512(
                a,
                _mm512_or_si512(_mm512_loadu_si512(a), _mm512_and_si512(v, m)),
            );
        }
        v
    };

    let mut lanes = [_mm512_setzero_si512(); 4];
    for (i, lane) in lanes.iter_mut().enumerate() {
        *lane = take(i * 64);
    }
    lanes[0] = _mm512_xor_si512(
        lanes[0],
        _mm512_zextsi128_si512(_mm_cvtsi32_si128(c as i32)),
    );
    let k = _mm512_set4_epi64(K2048[1], K2048[0], K2048[1], K2048[0]);
    for step in 1..steps {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = fold_512(*lane, take(step * 256 + i * 64), k);
        }
    }
    let k = _mm512_set4_epi64(K2, K1, K2, K1);
    let mut z = lanes[0];
    for &lane in &lanes[1..] {
        z = fold_512(z, lane, k);
    }
    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut x = _mm512_extracti32x4_epi32(z, 0);
    x = fold(x, _mm512_extracti32x4_epi32(z, 1), k3k4);
    x = fold(x, _mm512_extracti32x4_epi32(z, 2), k3k4);
    x = fold(x, _mm512_extracti32x4_epi32(z, 3), k3k4);
    let tail = steps * 256;
    if SELECT {
        lane_select(&data[tail..], mask, &mut acc[tail..]);
    }
    fold_tail(x, &data[tail..])
}

/// `a` carried 128 (or 512) bits ahead by `k`, onto `next`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq")]
fn fold(a: __m128i, next: __m128i, k: __m128i) -> __m128i {
    use std::arch::x86_64::{_mm_clmulepi64_si128, _mm_xor_si128};
    let lo = _mm_clmulepi64_si128(a, k, 0x00);
    let hi = _mm_clmulepi64_si128(a, k, 0x11);
    _mm_xor_si128(_mm_xor_si128(lo, hi), next)
}

/// [`fold`] on the four 128-bit quarters of a zmm register at once.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,vpclmulqdq")]
fn fold_512(a: __m512i, next: __m512i, k: __m512i) -> __m512i {
    use std::arch::x86_64::{_mm512_clmulepi64_epi128, _mm512_xor_si512};
    let lo = _mm512_clmulepi64_epi128(a, k, 0x00);
    let hi = _mm512_clmulepi64_epi128(a, k, 0x11);
    _mm512_xor_si512(_mm512_xor_si512(lo, hi), next)
}

/// The end of both folds: the 128-bit remainder `x` of everything before
/// `rest` advances 16 bytes a step over `rest`, is reduced to 64 bits, then
/// Barrett-reduced to the 32-bit register; the last `rest.len() % 16` bytes
/// go through the table loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn fold_tail(mut x: __m128i, rest: &[u8]) -> u32 {
    use std::arch::x86_64::{
        _mm_and_si128, _mm_clmulepi64_si128, _mm_extract_epi32, _mm_loadu_si128, _mm_set_epi32,
        _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };
    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut blocks = rest.chunks_exact(16);
    for block in &mut blocks {
        // SAFETY: `block` is 16 bytes cut by `chunks_exact`, and `loadu`
        // carries no alignment requirement.
        let next = unsafe { _mm_loadu_si128(block.as_ptr().cast()) };
        x = fold(x, next, k3k4);
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

    /// The 128-bit fold alone, where the CPU has it and `data` is long
    /// enough: what `crc32` is from 128 bytes on CPUs without the wide fold,
    /// which this one may have.
    fn crc32_narrow(data: &[u8]) -> Option<u32> {
        #[cfg(target_arch = "x86_64")]
        {
            if data.len() >= CLMUL_MIN_LEN && has_clmul() {
                // SAFETY: both target features `update_clmul` requires were
                // just verified at runtime, and `data` is at least 128 bytes.
                return Some(!unsafe { update_clmul(!0, data) });
            }
        }
        None
    }

    /// A length weighted towards where the table loop hands over to the
    /// 128-bit fold (128 bytes) and that to the wide one (256 bytes), 0–300,
    /// and a page either side of 4 KiB, else anything up to 9,000 bytes.
    fn weighted_len(sel: u8, raw: usize) -> usize {
        match sel {
            0 => raw % 301,
            1 => 4096 - 64 + raw % 129,
            _ => raw,
        }
    }

    /// `n` bytes of xorshift noise from `seed`.
    fn noise(seed: u64, n: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    /// A lane select: `acc |= src & mask`.
    type Select = fn(&[u8], u64, &mut [u8]);

    /// The dispatched select and every tier of it this CPU can run.
    fn lane_tiers() -> Vec<(&'static str, Select)> {
        let mut tiers: Vec<(&'static str, Select)> = vec![
            ("dispatched", lane_select),
            ("portable", |s, m, a| lane_words(s, m, a)),
        ];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: `avx512f` was just verified at runtime.
                tiers.push(("512-bit", |s, m, a| unsafe { lane_words_avx512(s, m, a) }));
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: `avx2` was just verified at runtime.
                tiers.push(("AVX2", |s, m, a| unsafe { lane_words_avx2(s, m, a) }));
            }
        }
        tiers
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Random bytes at any of 32 start offsets: the
        /// dispatched CRC (the wide fold from 256 bytes where the CPU has
        /// it), the 128-bit fold and the table loop all equal the reference.
        #[test]
        fn fast_crc_matches_the_reference_at_any_length_and_offset(
            sel in 0u8..4,
            raw in 0usize..=9000,
            start in 0usize..32,
            seed in any::<u64>(),
        ) {
            let len = weighted_len(sel, raw);
            let buf = noise(seed, start + len);
            let data = &buf[start..];
            let want = crc32_reference(data);
            prop_assert_eq!(crc32(data), want, "len {} at {}", len, start);
            if let Some(narrow) = crc32_narrow(data) {
                prop_assert_eq!(narrow, want, "128-bit fold, len {} at {}", len, start);
            }
            prop_assert_eq!(crc32_table(data), want, "table, len {} at {}", len, start);
        }

        /// The fused kernel against its oracle: the reference CRC and a
        /// byte-wise `acc |= src & mask` over an accumulator that already
        /// holds random bytes (the select ORs), for both masks, any length
        /// and any start offset of either buffer — and the two-pass
        /// fallback against the same oracle, so it stays covered on CPUs
        /// that take the wide fold.
        #[test]
        fn fused_select_matches_the_reference_crc_and_a_bytewise_select(
            sel in 0u8..4,
            raw in 0usize..=9000,
            start in 0usize..32,
            acc_start in 0usize..32,
            ones in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let len = weighted_len(sel, raw);
            let buf = noise(seed, start + 2 * len);
            let (src, prior) = buf[start..].split_at(len);
            let mask = if ones { u64::MAX } else { 0 };
            let want_crc = crc32_reference(src);
            let want_acc: Vec<u8> = src.iter().zip(prior).map(|(s, a)| a | (s & mask as u8)).collect();
            let mut acc_buf = vec![0u8; acc_start + len];
            for (name, kernel) in [
                ("fused", crc32_select as fn(&[u8], u64, &mut [u8]) -> u32),
                ("two-pass", crc32_then_select),
            ] {
                let acc = &mut acc_buf[acc_start..];
                acc.copy_from_slice(prior);
                prop_assert_eq!(kernel(src, mask, acc), want_crc, "{} crc, len {} at {}", name, len, start);
                prop_assert_eq!(&*acc, &want_acc[..], "{} select, len {} at {}", name, len, start);
            }
        }

        /// Every lane tier the CPU has — 512-bit, AVX2, portable — called
        /// directly, and the dispatched `lane_select`, against a byte-wise
        /// `acc |= src & mask` over an accumulator that already holds noise:
        /// both masks, lengths around every tier's block and tail and either
        /// side of a 4 KiB page, and source and accumulator at any offset
        /// within a cache line, so callers on misaligned buffers stay
        /// covered.
        #[test]
        fn lane_select_matches_a_bytewise_select_at_every_width(
            sel in 0u8..4,
            raw in 0usize..=9000,
            start in 0usize..64,
            acc_start in 0usize..64,
            ones in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let len = weighted_len(sel, raw);
            let buf = noise(seed, start + 2 * len);
            let (src, prior) = buf[start..].split_at(len);
            let mask = if ones { u64::MAX } else { 0 };
            let want: Vec<u8> = src.iter().zip(prior).map(|(s, a)| a | (s & mask as u8)).collect();
            let mut acc_buf = vec![0u8; acc_start + len];
            for (name, tier) in lane_tiers() {
                let acc = &mut acc_buf[acc_start..];
                acc.copy_from_slice(prior);
                tier(src, mask, acc);
                prop_assert_eq!(&*acc, &want[..], "{}, len {} at {} / {}", name, len, start, acc_start);
            }
        }
    }

    #[test]
    fn lane_select_masks_and_accumulates() {
        let src = [0xFFu8; 20];
        let mut acc = [0u8; 20];
        lane_select(&src, 0, &mut acc);
        assert_eq!(acc, [0u8; 20], "zero mask contributes nothing");
        let src: Vec<u8> = (0..20).collect();
        lane_select(&src, u64::MAX, &mut acc);
        assert_eq!(&acc[..], &src[..], "ones mask ORs the page in");
        // accumulation is an OR, so re-selecting is idempotent
        lane_select(&src, u64::MAX, &mut acc);
        assert_eq!(&acc[..], &src[..]);
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
