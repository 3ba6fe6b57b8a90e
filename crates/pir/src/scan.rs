//! The vectorized linear-scan kernel.
//!
//! Every round of the trivial-PIR store costs one full pass over the file —
//! the dominant server cost in the paper's model. This module makes that
//! pass run at the storage medium's bandwidth:
//!
//! * the file is streamed in multi-page **runs** through a reusable arena
//!   ([`PagedFile::read_run_into`]), so a disk-backed scan issues one
//!   positioned syscall per [`RUN_PAGES`] pages instead of one per page;
//! * drivers that expose their bytes zero-copy ([`PagedFile::contiguous`]:
//!   flat in-memory files, mappings) skip the arena entirely;
//! * each page is resolved with a branchless masked select over `u64` lanes
//!   ([`lane_select`]): **constant work per page regardless of match** — a
//!   non-matching page is OR-accumulated under an all-zeros mask into the
//!   arena's dummy sink, a matching one under an all-ones mask into its
//!   output slot. The inner loop is plain slice arithmetic over 8-byte
//!   words, which the compiler auto-vectorizes.
//!
//! * one sweep is split into **page-range shards** ([`Sweep`]): `S`
//!   passes over disjoint ranges cut on [`RUN_PAGES`] multiples, shard 0 on
//!   the calling thread and `S − 1` on scoped threads that are joined before
//!   the sweep returns. One core reaches neither the checksum layer's nor
//!   DRAM's bandwidth alone; the passes share nothing but the read-only
//!   driver, and each request lands in exactly one range, so merging them is
//!   a copy-out.
//!
//! Obliviousness is untouched: every page of the file is read exactly once
//! per sweep, in an order and a partition fixed by the file's page count and
//! the shard count alone — for every driver and every request set (the
//! leakage suite pins this differentially). The store records the sweep as
//! `0 .. N` in file order, exactly as the PR 3 sorted-cursor path did. Only
//! the per-page resolution got cheaper, the driver call granularity coarser
//! and the ranges concurrent.

use privpath_storage::{PageBuf, PagedFile, StorageError};
use std::ops::Range;

use crate::PirError;

/// Pages per streamed run: 64 pages × 4 KiB = 256 KiB per driver call,
/// large enough to amortize a syscall to noise, small enough to stay
/// cache-resident while the lane kernel resolves it.
pub const RUN_PAGES: usize = 64;

/// Fewest pages worth a shard of their own: 2,048 pages × 4 KiB = 8 MiB, a
/// few milliseconds of verified sweep against the tens of microseconds a
/// scoped thread costs to start and join. Files below twice this are swept
/// inline by the calling thread.
pub const MIN_SHARD_PAGES: usize = 2048;

/// Shards a sweep of a `num_pages`-page file is split into where the process
/// may use `cpus` CPUs: one per CPU, as long as every shard keeps at least
/// [`MIN_SHARD_PAGES`] pages, and never fewer than one.
pub fn shard_count(num_pages: u32, cpus: usize) -> usize {
    cpus.min(num_pages as usize / MIN_SHARD_PAGES).max(1)
}

/// Reusable scratch for the streaming scan: the run buffer (grown on first
/// use, absent entirely for zero-copy drivers) and the dummy sink
/// non-matching pages are masked into so per-page work stays constant.
pub struct ScanArena {
    run: Vec<u8>,
    dummy: Vec<u8>,
}

impl ScanArena {
    /// Arena for files of `page_size`-byte pages.
    pub fn new(page_size: usize) -> Self {
        ScanArena {
            run: Vec::new(),
            dummy: vec![0u8; page_size],
        }
    }
}

/// OR-accumulates `src & mask` into `acc`, 8 bytes per lane, `mask` being
/// all-ones or all-zeros. The scan calls this once per page with `acc`
/// pointing at either the page's output slot (match) or the dummy sink
/// (no match), so the work per page is independent of the request set.
///
/// The mask is laundered through [`std::hint::black_box`] before the loop:
/// `resolve_page` picks `acc` with a branch on the same predicate the mask
/// is derived from, so without the fence the optimizer specializes the
/// no-match arm to `mask = 0`, folds `acc |= src & 0` to nothing, and
/// deletes the loads — a compiled scan whose per-page work (and timing)
/// depends on the request set. The fence keeps the work constant per page.
///
/// On x86-64 the word loop is dispatched to an AVX2 build when the CPU has
/// it (the portable baseline is SSE2-only, which leaves the scan compute
/// bound below the memory bandwidth memcpy reaches); everywhere else the
/// plain invariant-scalar-mask word loop auto-vectorizes as the target
/// allows.
///
/// # Panics
/// Debug-asserts `src.len() == acc.len()`.
#[inline]
pub fn lane_select(src: &[u8], mask: u64, acc: &mut [u8]) {
    debug_assert_eq!(src.len(), acc.len(), "lane kernel buffers must match");
    let mask = std::hint::black_box(mask);
    #[cfg(target_arch = "x86_64")]
    {
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
/// the byte tail. `#[inline(always)]` so the AVX2 wrapper recompiles this
/// exact body with wider instructions instead of duplicating it.
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

/// A pass that ended before the end of its range: pages `range.start..at`
/// were swept and the run starting at `at` was not.
#[derive(Debug)]
pub struct ScanStop {
    /// First page of the run that was not read.
    pub at: u32,
    /// Why: the driver's error on that run, or the system's when the
    /// pass's thread could not be started.
    pub error: PirError,
}

/// One streamed pass over the pages `range` of `file`, resolving `wanted` —
/// page numbers inside `range`, **sorted** — so that `out[k]` receives page
/// `wanted[k]`. `range.start` must be a multiple of [`RUN_PAGES`], so that
/// the runs of a pass over a sub-range are runs of the pass over the whole
/// file, and requested pages must be in range (callers bounds-check before
/// the scan so a bad request costs no I/O).
pub fn scan_resolve(
    file: &dyn PagedFile,
    range: Range<u32>,
    wanted: &[u32],
    out: &mut [PageBuf],
    arena: &mut ScanArena,
) -> Result<(), ScanStop> {
    let ps = file.page_size();
    debug_assert!(range.start <= range.end && range.end <= file.num_pages());
    debug_assert_eq!(range.start as usize % RUN_PAGES, 0);
    debug_assert_eq!(wanted.len(), out.len());
    debug_assert!(wanted.windows(2).all(|w| w[0] <= w[1]));
    debug_assert!(wanted.iter().all(|p| range.contains(p)));
    // The kernel OR-accumulates, so output slots start from zero.
    for slot in out.iter_mut() {
        slot.as_mut_slice().fill(0);
    }
    let mut w = 0usize;
    if let Some(all) = file.contiguous() {
        debug_assert_eq!(all.len(), file.num_pages() as usize * ps);
        for p in range {
            let page = &all[p as usize * ps..(p as usize + 1) * ps];
            w = resolve_page(page, p, wanted, w, out, &mut arena.dummy);
        }
    } else {
        if arena.run.len() < RUN_PAGES * ps {
            arena.run.resize(RUN_PAGES * ps, 0);
        }
        let mut first = range.start;
        while first < range.end {
            let run = RUN_PAGES.min((range.end - first) as usize);
            let buf = &mut arena.run[..run * ps];
            if let Err(e) = file.read_run_into(first, buf) {
                return Err(ScanStop {
                    at: first,
                    error: e.into(),
                });
            }
            for (i, page) in buf.chunks_exact(ps).enumerate() {
                let p = first + i as u32;
                w = resolve_page(page, p, wanted, w, out, &mut arena.dummy);
            }
            first += run as u32;
        }
    }
    debug_assert_eq!(w, wanted.len(), "in-range sorted requests all resolve");
    Ok(())
}

/// Resolves one scanned page against the sorted request cursor `w`:
/// exactly one [`lane_select`] pass (into the wanted slot or the dummy
/// sink), then slot-to-slot copies for duplicate requests of the same page.
/// Returns the advanced cursor.
#[inline]
fn resolve_page(
    page: &[u8],
    p: u32,
    wanted: &[u32],
    mut w: usize,
    out: &mut [PageBuf],
    dummy: &mut [u8],
) -> usize {
    let hit = wanted.get(w) == Some(&p);
    let mask = (hit as u64).wrapping_neg();
    let acc: &mut [u8] = if hit {
        out[w].as_mut_slice()
    } else {
        &mut dummy[..]
    };
    lane_select(page, mask, acc);
    w += hit as usize;
    while wanted.get(w) == Some(&p) {
        // Duplicate request: its slot follows the one just resolved.
        let (done, rest) = out.split_at_mut(w);
        rest[0]
            .as_mut_slice()
            .copy_from_slice(done[w - 1].as_slice());
        w += 1;
    }
    w
}

/// One page range of a [`Sweep`] and what its pass alone touches.
struct Shard {
    range: Range<u32>,
    arena: ScanArena,
    /// Pages this shard has swept since the sweep was built.
    swept: u64,
}

impl Shard {
    fn pass(
        &mut self,
        file: &dyn PagedFile,
        wanted: &[u32],
        out: &mut [PageBuf],
    ) -> Result<(), ScanStop> {
        let res = scan_resolve(file, self.range.clone(), wanted, out, &mut self.arena);
        let reached = match &res {
            Ok(()) => self.range.end,
            Err(stop) => stop.at,
        };
        self.swept += u64::from(reached - self.range.start);
        res
    }
}

/// Cuts off the leading requests (and their slots) that fall below page
/// `end`: the share of the shard whose range ends there.
fn take_below<'a>(
    wanted: &mut &'a [u32],
    slots: &mut &'a mut [PageBuf],
    end: u32,
) -> (&'a [u32], &'a mut [PageBuf]) {
    let cut = wanted.partition_point(|&p| p < end);
    let (w, w_rest) = wanted.split_at(cut);
    let (s, s_rest) = std::mem::take(slots).split_at_mut(cut);
    *wanted = w_rest;
    *slots = s_rest;
    (w, s)
}

/// The sharded sweep: a fixed partition of one file's pages into ranges cut
/// on [`RUN_PAGES`] multiples, and the scratch every round reuses (one
/// [`ScanArena`] per shard, the sorted request list, the output slots the
/// passes resolve into), so a round in steady state allocates no scratch.
///
/// [`Sweep::run`] executes one round: shard 0 on the calling thread, the
/// others on scoped threads joined before it returns — no pool, no thread
/// that outlives the call. A one-shard sweep is the same code with nothing
/// to spawn.
pub struct Sweep {
    page_size: usize,
    shards: Vec<Shard>,
    /// `(page, caller slot)` of the current round, sorted by page.
    order: Vec<(u32, usize)>,
    /// The pages of `order`: what the passes resolve, split by range.
    sorted: Vec<u32>,
    /// `slots[k]` receives page `sorted[k]`; each pass owns the chunk of its
    /// range, so no two threads share a slot.
    slots: Vec<PageBuf>,
}

impl Sweep {
    /// Sweep of a file of `num_pages` pages of `page_size` bytes in `shards`
    /// ranges of (to within one run) equal length. Fewer ranges are used
    /// when the file has fewer runs than `shards`; there is always one.
    pub fn new(num_pages: u32, page_size: usize, shards: usize) -> Self {
        let runs = (num_pages as usize).div_ceil(RUN_PAGES);
        let shards = shards.clamp(1, runs.max(1));
        let bound =
            |i: usize| ((i * runs / shards * RUN_PAGES) as u64).min(num_pages.into()) as u32;
        Sweep {
            page_size,
            shards: (0..shards)
                .map(|i| Shard {
                    range: bound(i)..bound(i + 1),
                    arena: ScanArena::new(page_size),
                    swept: 0,
                })
                .collect(),
            order: Vec::new(),
            sorted: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// The page range of every shard, in file order.
    pub fn shard_ranges(&self) -> impl Iterator<Item = Range<u32>> + '_ {
        self.shards.iter().map(|s| s.range.clone())
    }

    /// Pages every shard has swept so far, in file order — like the ranges,
    /// a function of the file and the number of sweeps, never of a request.
    pub fn shard_pages_swept(&self) -> impl Iterator<Item = u64> + '_ {
        self.shards.iter().map(|s| s.swept)
    }

    /// One full sweep of `file`: `out[i]` receives page `pages[i]`, which
    /// must be in range. Every shard sweeps its whole range whatever the
    /// others meet. When passes fail, the error is that of the lowest failing
    /// range — what a front-to-back sweep would have stopped on — and `out`
    /// is left untouched. A pass that panics is re-raised here, after every
    /// other pass has ended.
    ///
    /// # Panics
    /// Panics if `out.len() != pages.len()`, if a buffer of `out` is not
    /// page-sized, or if `file` is not the shape the sweep was built for.
    pub fn run(
        &mut self,
        file: &dyn PagedFile,
        pages: &[u32],
        out: &mut [PageBuf],
    ) -> Result<(), ScanStop> {
        assert_eq!(pages.len(), out.len(), "batch output length mismatch");
        let end = self.shards.last().expect("a sweep has a shard").range.end;
        assert_eq!(
            (file.num_pages(), file.page_size()),
            (end, self.page_size),
            "sweep built for another file"
        );
        self.order.clear();
        self.order.extend(pages.iter().copied().zip(0..));
        self.order.sort_unstable();
        self.sorted.clear();
        self.sorted.extend(self.order.iter().map(|&(p, _)| p));
        if self.slots.len() < pages.len() {
            let ps = self.page_size;
            self.slots.resize_with(pages.len(), || PageBuf::zeroed(ps));
        }

        let mut wanted = &self.sorted[..];
        let mut slots = &mut self.slots[..pages.len()];
        let (first, rest) = self.shards.split_first_mut().expect("a sweep has a shard");
        let (w0, s0) = take_below(&mut wanted, &mut slots, first.range.end);
        std::thread::scope(|scope| {
            let mut spawned = Vec::with_capacity(rest.len());
            for shard in rest {
                let at = shard.range.start;
                let (w, s) = take_below(&mut wanted, &mut slots, shard.range.end);
                // A thread the system refuses is a pass that read nothing:
                // a typed I/O error (retryable on EAGAIN), not a panic.
                spawned.push(
                    std::thread::Builder::new()
                        .spawn_scoped(scope, move || shard.pass(file, w, s))
                        .map_err(|e| ScanStop {
                            at,
                            error: StorageError::Io(e).into(),
                        }),
                );
            }
            let mut outcome = first.pass(file, w0, s0);
            for handle in spawned {
                let res = handle.and_then(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                });
                // ranges are joined in file order: the first error stays
                outcome = outcome.and(res);
            }
            outcome
        })?;

        for (buf, &(_, slot)) in self.slots.iter().zip(&self.order) {
            out[slot].as_mut_slice().copy_from_slice(buf.as_slice());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{LinearScanStore, ObliviousStore};
    use privpath_storage::{crc32, ChecksumFile, DiskFile, MemFile, MmapFile};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("privpath-scan-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
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
    fn scan_resolves_against_zero_copy_and_streamed_drivers() {
        // page size deliberately not a multiple of 8 to hit the lane tail
        let ps = 28usize;
        let pages = 2 * RUN_PAGES as u32 + 7; // crosses run boundaries + partial last run
        let bytes: Vec<u8> = (0..pages as usize * ps)
            .map(|i| (i * 31 % 251) as u8)
            .collect();
        let mem = MemFile::from_bytes(&bytes, ps);

        let dir = temp_dir("resolve");
        let path = dir.join("f.bin");
        mem.persist(&path).unwrap();
        let disk = DiskFile::open(&path, ps).unwrap();
        assert!(mem.contiguous().is_some() && disk.contiguous().is_none());

        let wanted = [0u32, 5, 5, 5, RUN_PAGES as u32, pages - 1];
        let drivers: [&dyn PagedFile; 2] = [&mem, &disk];
        for f in drivers {
            let mut arena = ScanArena::new(ps);
            let mut out = vec![PageBuf::zeroed(ps); wanted.len()];
            scan_resolve(f, 0..pages, &wanted, &mut out, &mut arena).unwrap();
            for (k, &p) in wanted.iter().enumerate() {
                assert_eq!(out[k].as_slice(), mem.page(p).unwrap(), "request {k}");
            }
            // a sub-range pass resolves its share and nothing else
            let tail = RUN_PAGES as u32..pages;
            let mut out = vec![PageBuf::zeroed(ps); 2];
            scan_resolve(f, tail, &wanted[4..], &mut out, &mut arena).unwrap();
            assert_eq!(out[0].as_slice(), mem.page(RUN_PAGES as u32).unwrap());
            assert_eq!(out[1].as_slice(), mem.page(pages - 1).unwrap());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_request_set_still_scans_everything() {
        let ps = 16usize;
        let mem = MemFile::from_bytes(&vec![7u8; 5 * ps], ps);
        let mut sweep = Sweep::new(5, ps, 1);
        sweep.run(&mem, &[], &mut []).unwrap();
        assert_eq!(sweep.shard_pages_swept().collect::<Vec<_>>(), [5]);
    }

    #[test]
    fn shard_plans_cover_the_file_on_run_boundaries() {
        for pages in [0u32, 1, 63, 64, 65, 448, 457, 13_870] {
            for shards in [1usize, 2, 3, 7, 500] {
                let ranges: Vec<_> = Sweep::new(pages, 16, shards).shard_ranges().collect();
                let runs = (pages as usize).div_ceil(RUN_PAGES);
                assert_eq!(ranges.len(), shards.min(runs).max(1), "{pages} / {shards}");
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, pages);
                for pair in ranges.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start, "ranges abut");
                    assert_eq!(pair[0].end as usize % RUN_PAGES, 0, "cut on a run");
                }
                if pages > 0 {
                    assert!(ranges.iter().all(|r| r.start < r.end), "no empty shard");
                }
            }
        }
        // the plan of the store: one shard per CPU while each keeps its minimum
        assert_eq!(shard_count(13_870, 1), 1);
        assert_eq!(shard_count(13_870, 2), 2);
        assert_eq!(shard_count(13_870, 64), 6);
        assert_eq!(shard_count(2 * MIN_SHARD_PAGES as u32 - 1, 8), 1);
        assert_eq!(shard_count(2 * MIN_SHARD_PAGES as u32, 8), 2);
        assert_eq!(shard_count(143, 2), 1);
        assert_eq!(shard_count(0, 0), 1);
    }

    /// All six drivers over the same content persisted under `dir`.
    fn drivers(dir: &std::path::Path, mem: &MemFile) -> Vec<(&'static str, Arc<dyn PagedFile>)> {
        let ps = mem.page_size();
        let path = dir.join("f.bin");
        mem.persist(&path).unwrap();
        let crcs: Vec<u32> = (0..mem.num_pages())
            .map(|p| crc32(mem.page(p).unwrap()))
            .collect();
        let bare: Vec<(&'static str, Arc<dyn PagedFile>)> = vec![
            ("mem", Arc::new(mem.clone())),
            ("disk", Arc::new(DiskFile::open(&path, ps).unwrap())),
            ("mmap", Arc::new(MmapFile::open(&path, ps).unwrap())),
        ];
        let wrapped: Vec<(&'static str, Arc<dyn PagedFile>)> =
            ["crc(mem)", "crc(disk)", "crc(mmap)"]
                .into_iter()
                .zip(&bare)
                .map(|(name, (_, inner))| {
                    let guarded = ChecksumFile::new("F", Arc::clone(inner), crcs.clone());
                    (name, Arc::new(guarded) as Arc<dyn PagedFile>)
                })
                .collect();
        bare.into_iter().chain(wrapped).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// Every shard plan over every driver is the one-shard pass: the
        /// same answers in request order and the same `0..N` log, which are
        /// also those of the PR 3 reference path.
        #[test]
        fn sharded_sweeps_are_the_one_shard_pass(
            pages in 1u32..(7 * RUN_PAGES as u32 + 40),
            seed in any::<u64>(),
            picks in proptest::collection::vec(any::<u32>(), 0..12),
            boundaries in any::<bool>(),
        ) {
            let ps = 24usize; // not a multiple of 8: the lane tail runs too
            let bytes: Vec<u8> = (0..pages as usize * ps)
                .map(|i| (seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64) >> 5) as u8)
                .collect();
            let mem = MemFile::from_bytes(&bytes, ps);
            // duplicates come from the modulus; with `boundaries`, also the
            // pages either side of every cut of every plan, and the last
            // page of a partial last run
            let mut reqs: Vec<u32> = picks.iter().map(|p| p % pages).collect();
            if boundaries && !reqs.is_empty() {
                for shards in [2usize, 3, 7] {
                    for r in Sweep::new(pages, ps, shards).shard_ranges() {
                        reqs.extend([r.start, r.end - 1]);
                    }
                }
                reqs.push(pages - 1);
                reqs.push(reqs[0]);
            }
            let k = reqs.len();

            let mut reference = LinearScanStore::new(mem.clone());
            let mut want = vec![PageBuf::zeroed(ps); k];
            reference.fetch_batch_reference(&reqs, &mut want).unwrap();
            for (i, &p) in reqs.iter().enumerate() {
                prop_assert_eq!(want[i].as_slice(), mem.page(p).unwrap(), "reference {}", i);
            }

            let round_log = reference.physical_log().to_vec();
            prop_assert_eq!(round_log.len(), if k == 0 { 0 } else { pages as usize });

            let dir = temp_dir("prop");
            for (name, driver) in drivers(&dir, &mem) {
                for shards in [1usize, 2, 3, 7] {
                    let mut store = LinearScanStore::with_shards(Arc::clone(&driver), shards);
                    let mut got = vec![PageBuf::zeroed(ps); k];
                    // two rounds: the reused scratch must not carry over
                    for round in 0..2 {
                        store.fetch_batch(&reqs, &mut got).unwrap();
                        prop_assert_eq!(&got, &want, "{} x{} round {}", name, shards, round);
                    }
                    prop_assert_eq!(
                        store.physical_log(),
                        &[&round_log[..], &round_log[..]].concat()[..],
                        "{} x{} log", name, shards
                    );
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
