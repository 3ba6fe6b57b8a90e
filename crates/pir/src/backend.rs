//! Functional oblivious page stores.
//!
//! The cost model (used by the large-scale experiments) charges simulated
//! time without doing oblivious work; these backends complement it by
//! actually *being* oblivious, so the test suite can verify the property the
//! security argument delegates to \[36\]: the physical access sequence reveals
//! nothing about the logical one.

use crate::prp::Prp;
use crate::scan::{self, Crew, Ride, Rotation, Sweep};
use crate::Result;
use privpath_storage::{MemFile, PageBuf, PagedFile, StorageError};
use std::collections::HashMap;
use std::sync::Arc;

/// Default cap on physical-log entries (1 Mi slots = 4 MiB): generous for
/// every audit in the test suite, bounded for long-lived serving sessions.
pub const DEFAULT_LOG_CAP: usize = 1 << 20;

/// Typed marker that a [`PhysicalLog`] hit its cap: `dropped` reads were
/// observed but not recorded. The audit surface stays truthful — a truncated
/// log announces itself instead of silently looking like a short session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogOverflow {
    /// The cap the log was bounded to.
    pub cap: usize,
    /// Physical reads observed after the cap was reached.
    pub dropped: u64,
}

/// Bounded append-only record of physical slot reads. Stores record one
/// entry per physical page the host observes; once `cap` entries exist,
/// further reads are counted, not stored, and surface as a typed
/// [`LogOverflow`] — so a store serving forever holds at most
/// `cap * 4` bytes of audit state.
#[derive(Debug, Clone)]
pub struct PhysicalLog {
    entries: Vec<u32>,
    cap: usize,
    dropped: u64,
}

impl PhysicalLog {
    /// Log bounded to `cap` recorded entries.
    pub fn bounded(cap: usize) -> Self {
        PhysicalLog {
            entries: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// Records one physical read (or counts it once the cap is hit).
    #[inline]
    pub fn record(&mut self, slot: u32) {
        if self.entries.len() < self.cap {
            self.entries.push(slot);
        } else {
            self.dropped += 1;
        }
    }

    /// Records the physical reads `slots`, in order: what one
    /// [`PhysicalLog::record`] per slot would leave.
    pub fn record_range(&mut self, slots: std::ops::Range<u32>) {
        let room = self.cap.saturating_sub(self.entries.len());
        let kept = slots.len().min(room);
        self.entries.extend(slots.start..slots.start + kept as u32);
        self.dropped += (slots.len() - kept) as u64;
    }

    /// Recorded entries, oldest first.
    pub fn entries(&self) -> &[u32] {
        &self.entries
    }

    /// The overflow marker, present iff reads were dropped.
    pub fn overflow(&self) -> Option<LogOverflow> {
        (self.dropped > 0).then_some(LogOverflow {
            cap: self.cap,
            dropped: self.dropped,
        })
    }
}

impl Default for PhysicalLog {
    fn default() -> Self {
        PhysicalLog::bounded(DEFAULT_LOG_CAP)
    }
}

/// A store of `num_pages` logical pages that can be fetched obliviously.
///
/// `physical_log` exposes what the *host* (the adversary in the paper's
/// model) observes: the sequence of physical slot reads. Obliviousness means
/// this sequence's distribution is independent of the logical fetch sequence.
pub trait ObliviousStore: Send {
    /// Logical pages stored.
    fn num_pages(&self) -> u32;
    /// Obliviously fetches logical page `page`.
    fn fetch(&mut self, page: u32) -> Result<PageBuf>;
    /// Obliviously fetches a whole round's pages at once: `out[i]` receives
    /// logical page `pages[i]`. Semantically equivalent to `pages.len()`
    /// sequential [`ObliviousStore::fetch`] calls in issue order (same
    /// returned contents, same cache/epoch evolution) — the batch is where
    /// stores amortize their per-fetch overheads: the linear-scan store
    /// collects all requested pages in **one** pass over the file instead of
    /// one pass per page, and the shuffled store performs one epoch check
    /// per run of fetches instead of one per fetch.
    ///
    /// The default implementation is the sequential loop, which is always
    /// correct.
    ///
    /// # Panics
    /// Implementations may panic if `out.len() != pages.len()` or if the
    /// buffers in `out` are not page-sized.
    fn fetch_batch(&mut self, pages: &[u32], out: &mut [PageBuf]) -> Result<()> {
        assert_eq!(pages.len(), out.len(), "batch output length mismatch");
        for (slot, &page) in out.iter_mut().zip(pages) {
            *slot = self.fetch(page)?;
        }
        Ok(())
    }
    /// Physical slot reads the host has observed so far (possibly truncated
    /// at the store's log cap — see [`ObliviousStore::log_overflow`]).
    fn physical_log(&self) -> &[u32];
    /// Present iff the physical log hit its cap and dropped entries; `None`
    /// means [`ObliviousStore::physical_log`] is the complete record.
    fn log_overflow(&self) -> Option<LogOverflow> {
        None
    }
}

/// Trivial information-theoretic PIR: every fetch scans the whole file.
///
/// This is the classic `O(N)`-per-query scheme the paper dismisses as
/// impractical for sizable databases (§2.2) — kept as the obliviousness
/// ground truth for tests and as an ablation point.
pub struct LinearScanStore {
    file: Arc<dyn PagedFile>,
    /// The segment passes every lap is made of. The plan — segments of
    /// [`scan::SEGMENT_PAGES`] pages, each split into page ranges — is
    /// worked out once, here, from the file's page count and the CPUs the
    /// process may use ([`scan::shard_count`]): asking the system per sweep
    /// re-reads cgroup files, which a many-round query pays a hundred times
    /// over. Its arenas are reused across passes.
    sweep: Sweep,
    /// The rotation [`ObliviousStore::fetch_batch`] rides alone: a round
    /// served here is a lap from segment 0 with nobody else aboard. Rounds
    /// that share laps ride a rotation of their driver's
    /// ([`LinearScanStore::rotation`]) and borrow the sweep pass by pass.
    lap: Rotation,
    /// Where the lone lap's ride lands.
    done: Vec<Ride>,
    /// Scratch page for the PR 3 reference path
    /// ([`LinearScanStore::fetch_batch_reference`]).
    scratch: PageBuf,
    log: PhysicalLog,
}

/// One segment pass of `sweep` over `file`, logged as the front-to-back
/// pass its ranges add up to; a pass that fails logs what a front-to-back
/// pass stopping on the same run would have.
fn logged_pass(
    file: &dyn PagedFile,
    sweep: &mut Sweep,
    log: &mut PhysicalLog,
    crew: &mut Crew,
    seg: usize,
    wanted: &[u32],
    slots: &mut [PageBuf],
) -> Result<()> {
    let range = sweep.segment(seg);
    let res = sweep.pass(crew, file, seg, wanted, slots);
    let swept_to = match &res {
        Ok(()) => range.end,
        Err(stop) => stop.at,
    };
    log.record_range(range.start..swept_to);
    res.map_err(|stop| stop.error)
}

impl LinearScanStore {
    /// Wraps an in-memory file.
    pub fn new(file: MemFile) -> Self {
        Self::from_driver(Arc::new(file))
    }

    /// Wraps any page driver — in-memory, disk- or mmap-backed. A lap sweeps
    /// the driver segment by segment, so obliviousness (every page, once per
    /// lap) is driver-invariant by construction.
    pub fn from_driver(file: Arc<dyn PagedFile>) -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let shards = scan::shard_count(file.num_pages(), cpus);
        Self::with_shards(file, shards)
    }

    /// [`LinearScanStore::from_driver`] with the shard count given instead of
    /// worked out from the host: how the differential tests hold every plan
    /// to the one-shard pass on files too small to be sharded by themselves.
    pub(crate) fn with_shards(file: Arc<dyn PagedFile>, shards: usize) -> Self {
        Self::with_plan(file, scan::SEGMENT_PAGES, shards)
    }

    /// [`LinearScanStore::with_shards`] with the segment length given too.
    pub(crate) fn with_plan(file: Arc<dyn PagedFile>, segment_pages: usize, shards: usize) -> Self {
        let page_size = file.page_size();
        let sweep = Sweep::with_segments(file.num_pages(), page_size, segment_pages, shards);
        LinearScanStore {
            lap: Rotation::over(&sweep),
            sweep,
            done: Vec::new(),
            file,
            scratch: PageBuf::zeroed(page_size),
            log: PhysicalLog::default(),
        }
    }

    /// Bounds the physical log to `cap` recorded entries (the default is
    /// [`DEFAULT_LOG_CAP`]); reads past the cap surface as
    /// [`ObliviousStore::log_overflow`].
    pub fn with_log_cap(mut self, cap: usize) -> Self {
        self.log = PhysicalLog::bounded(cap);
        self
    }

    /// The store's sweep: its segment and page-range plan and how many pages
    /// each range has swept — both independent of what was requested.
    pub fn sweep(&self) -> &Sweep {
        &self.sweep
    }

    /// An idle rotation over this store's segments, for a driver that has
    /// rounds share laps: it owns the riders and calls
    /// [`LinearScanStore::pass`] for every step.
    pub(crate) fn rotation(&self) -> Rotation {
        Rotation::over(&self.sweep)
    }

    /// The helping hands a driver of [`LinearScanStore::rotation`] keeps
    /// for as long as somebody rides it.
    pub(crate) fn crew(&self) -> Crew {
        self.sweep.crew(&self.file)
    }

    /// One logged segment pass on behalf of a rotation: the `pass` of
    /// [`Rotation::step`], with a `crew` of this store's.
    pub(crate) fn pass(
        &mut self,
        crew: &mut Crew,
        seg: usize,
        wanted: &[u32],
        slots: &mut [PageBuf],
    ) -> Result<()> {
        logged_pass(
            &*self.file,
            &mut self.sweep,
            &mut self.log,
            crew,
            seg,
            wanted,
            slots,
        )
    }

    /// Validates that every requested page exists, so a bad request fails
    /// the round before any I/O (and before any log entries).
    fn check_requests(&self, pages: &[u32]) -> Result<()> {
        let n = self.file.num_pages();
        if let Some(&bad) = pages.iter().find(|&&p| p >= n) {
            return Err(StorageError::PageOutOfRange {
                page: bad,
                pages: n,
            }
            .into());
        }
        Ok(())
    }

    /// The PR 3 sorted-cursor copy path, kept verbatim as the reference the
    /// lane kernel is differentially tested and benchmarked against: one
    /// `read_page_into` driver call per page, a branchy copy on match.
    /// Observably identical to [`ObliviousStore::fetch_batch`] — same
    /// answers, same `0..N` physical log per round.
    pub fn fetch_batch_reference(&mut self, pages: &[u32], out: &mut [PageBuf]) -> Result<()> {
        assert_eq!(pages.len(), out.len(), "batch output length mismatch");
        self.check_requests(pages)?;
        if pages.is_empty() {
            return Ok(());
        }
        let mut wanted: Vec<(u32, usize)> = pages.iter().copied().zip(0..).collect();
        wanted.sort_unstable();
        let mut w = 0usize;
        for p in 0..self.file.num_pages() {
            self.log.record(p);
            self.file.read_page_into(p, &mut self.scratch)?;
            while w < wanted.len() && wanted[w].0 == p {
                out[wanted[w].1]
                    .as_mut_slice()
                    .copy_from_slice(self.scratch.as_slice());
                w += 1;
            }
        }
        Ok(())
    }
}

impl ObliviousStore for LinearScanStore {
    fn num_pages(&self) -> u32 {
        self.file.num_pages()
    }

    /// The single fetch is the k = 1 batch: same sweep, same full `0..N` log.
    fn fetch(&mut self, page: u32) -> Result<PageBuf> {
        let mut out = [PageBuf::zeroed(self.file.page_size())];
        self.fetch_batch(&[page], &mut out)?;
        let [buf] = out;
        Ok(buf)
    }

    /// One lap over the whole file serves the entire round: `k` batched
    /// fetches cost `N` page reads instead of the sequential path's `k·N`.
    /// The host still observes a full scan (obliviousness is untouched — the
    /// physical sequence is `0..N` regardless of the requested pages), it
    /// just observes *one* scan per round rather than one per page. The lap
    /// is a [`Rotation`] ridden alone, from segment 0: runs of pages per
    /// driver call, constant branchless work per page, one page range per
    /// CPU on files large enough to share out. The ranges of a segment run
    /// concurrently and are logged as the front-to-back pass they add up to;
    /// a lap that fails logs what a front-to-back pass stopping on the same
    /// run would have, and leaves `out` untouched.
    fn fetch_batch(&mut self, pages: &[u32], out: &mut [PageBuf]) -> Result<()> {
        assert_eq!(pages.len(), out.len(), "batch output length mismatch");
        self.check_requests(pages)?;
        if pages.is_empty() {
            return Ok(());
        }
        let LinearScanStore {
            file,
            sweep,
            lap,
            done,
            log,
            ..
        } = self;
        // the lap's hands are its own: started here, joined when it is over
        let mut crew = sweep.crew(file);
        lap.join(0, pages);
        while !lap.is_idle() {
            let stepped = lap.step(
                |seg, wanted, slots| {
                    logged_pass(&**file, sweep, log, &mut crew, seg, wanted, slots)
                },
                done,
            );
            if let Err(e) = stepped {
                lap.clear();
                return Err(e);
            }
        }
        let ride = done.pop().expect("the lap's one rider ends with it");
        for (i, buf) in out.iter_mut().enumerate() {
            buf.as_mut_slice().copy_from_slice(ride.page(i));
        }
        lap.recycle(ride);
        Ok(())
    }

    fn physical_log(&self) -> &[u32] {
        self.log.entries()
    }

    fn log_overflow(&self) -> Option<LogOverflow> {
        self.log.overflow()
    }
}

/// Square-root-ORAM-style shuffled store — a faithful miniature of the
/// hierarchy-of-shuffles idea behind Usable PIR \[36\].
///
/// Layout: `N` real pages plus `m = ⌈√N⌉` dummies, permuted by a fresh keyed
/// PRP each epoch. A fetch reads exactly one physical slot: the PRP image of
/// the logical page on a miss, or the next unread *dummy* slot on a cache
/// hit, so repeated requests for the same page are indistinguishable from
/// distinct ones. After `m` fetches the store reshuffles under a new key
/// (the real protocol does this with an oblivious merge sort whose amortized
/// cost is what the cost model charges).
pub struct ShuffledStore {
    plain: Arc<dyn PagedFile>,
    shuffled: Vec<PageBuf>,
    prp: Prp,
    cache: HashMap<u32, PageBuf>,
    epoch_len: u32,
    dummy_ptr: u32,
    fetches_this_epoch: u32,
    epoch: u64,
    seed: u64,
    log: PhysicalLog,
    reshuffles: u64,
}

impl ShuffledStore {
    /// Builds the shuffled layout for an in-memory `file` with RNG seed
    /// `seed`.
    pub fn new(file: MemFile, seed: u64) -> Self {
        Self::from_driver(Arc::new(file), seed).expect("in-memory pages cannot fail to read")
    }

    /// Builds the shuffled layout over any page driver. The initial shuffle
    /// reads every plain page, so a failing driver surfaces here as a typed
    /// error instead of a panic.
    pub fn from_driver(file: Arc<dyn PagedFile>, seed: u64) -> Result<Self> {
        let n = file.num_pages();
        let epoch_len = ((n as f64).sqrt().ceil() as u32).max(1);
        let mut store = ShuffledStore {
            plain: file,
            shuffled: Vec::new(),
            prp: Prp::new(1, 0),
            cache: HashMap::new(),
            epoch_len,
            dummy_ptr: 0,
            fetches_this_epoch: 0,
            epoch: 0,
            seed,
            log: PhysicalLog::default(),
            reshuffles: 0,
        };
        store.reshuffle()?;
        Ok(store)
    }

    /// Bounds the physical log to `cap` recorded entries, like
    /// [`LinearScanStore::with_log_cap`].
    pub fn with_log_cap(mut self, cap: usize) -> Self {
        self.log = PhysicalLog::bounded(cap);
        self
    }

    /// Epoch length (`⌈√N⌉`): fetches between reshuffles.
    pub fn epoch_len(&self) -> u32 {
        self.epoch_len
    }

    /// Number of reshuffles performed so far (first layout included).
    pub fn reshuffles(&self) -> u64 {
        self.reshuffles
    }

    fn total_slots(&self) -> u32 {
        self.plain.num_pages() + self.epoch_len
    }

    /// All-or-nothing: the new layout is built fully (every plain page read
    /// through the driver) before any store state changes, so a mid-shuffle
    /// read failure leaves the current epoch intact and retryable.
    fn reshuffle(&mut self) -> Result<()> {
        let epoch = self.epoch + 1;
        let total = self.total_slots();
        let prp = Prp::new(u64::from(total), self.seed.wrapping_add(epoch));
        let page_size = self.plain.page_size();
        let mut slots = vec![PageBuf::zeroed(page_size); total as usize];
        for logical in 0..self.plain.num_pages() {
            let slot = prp.apply(u64::from(logical)) as usize;
            slots[slot] = self.plain.read_page(logical)?;
        }
        // dummy slots (logical N..N+m) stay zeroed — in the real protocol
        // they are encrypted and indistinguishable from real pages.
        self.epoch = epoch;
        self.reshuffles += 1;
        self.prp = prp;
        self.shuffled = slots;
        self.cache.clear();
        self.dummy_ptr = 0;
        self.fetches_this_epoch = 0;
        Ok(())
    }

    fn read_slot(&mut self, slot: u32) -> PageBuf {
        self.log.record(slot);
        self.shuffled[slot as usize].clone()
    }

    /// One oblivious fetch, *without* the bounds check and epoch bookkeeping
    /// (the callers own those — [`ObliviousStore::fetch`] per fetch, the
    /// batch path once per epoch-sized run).
    fn fetch_one(&mut self, page: u32) -> PageBuf {
        let n = self.plain.num_pages();
        if let Some(hit) = self.cache.get(&page).cloned() {
            // Cache hit: read (and discard) the next unread dummy so the host
            // still sees exactly one fresh slot access.
            let dummy_logical = u64::from(n) + u64::from(self.dummy_ptr);
            self.dummy_ptr += 1;
            let slot = self.prp.apply(dummy_logical) as u32;
            let _ = self.read_slot(slot);
            hit
        } else {
            let slot = self.prp.apply(u64::from(page)) as u32;
            let buf = self.read_slot(slot);
            self.cache.insert(page, buf.clone());
            buf
        }
    }
}

impl ObliviousStore for ShuffledStore {
    fn num_pages(&self) -> u32 {
        self.plain.num_pages()
    }

    fn fetch(&mut self, page: u32) -> Result<PageBuf> {
        let n = self.plain.num_pages();
        if page >= n {
            return Err(StorageError::PageOutOfRange { page, pages: n }.into());
        }
        let result = self.fetch_one(page);
        self.fetches_this_epoch += 1;
        if self.fetches_this_epoch >= self.epoch_len {
            self.reshuffle()?;
        }
        Ok(result)
    }

    /// A batch advances the store exactly as the same fetches issued one by
    /// one would (same cache evolution, same dummy consumption, reshuffles at
    /// the same points), but the epoch boundary is checked once per
    /// epoch-sized run instead of once per fetch.
    fn fetch_batch(&mut self, pages: &[u32], out: &mut [PageBuf]) -> Result<()> {
        assert_eq!(pages.len(), out.len(), "batch output length mismatch");
        let n = self.plain.num_pages();
        if let Some(&bad) = pages.iter().find(|&&p| p >= n) {
            return Err(StorageError::PageOutOfRange {
                page: bad,
                pages: n,
            }
            .into());
        }
        let mut i = 0usize;
        while i < pages.len() {
            let left_in_epoch = (self.epoch_len - self.fetches_this_epoch) as usize;
            let run = left_in_epoch.min(pages.len() - i);
            for k in i..i + run {
                out[k] = self.fetch_one(pages[k]);
            }
            self.fetches_this_epoch += run as u32;
            i += run;
            if self.fetches_this_epoch >= self.epoch_len {
                self.reshuffle()?;
            }
        }
        Ok(())
    }

    fn physical_log(&self) -> &[u32] {
        self.log.entries()
    }

    fn log_overflow(&self) -> Option<LogOverflow> {
        self.log.overflow()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privpath_storage::DEFAULT_PAGE_SIZE;

    fn make_file(pages: u32) -> MemFile {
        let mut f = MemFile::empty(DEFAULT_PAGE_SIZE);
        for p in 0..pages {
            let mut page = PageBuf::zeroed(DEFAULT_PAGE_SIZE);
            page.as_mut_slice()[..4].copy_from_slice(&p.to_le_bytes());
            f.push_page(page);
        }
        f
    }

    fn page_tag(p: &PageBuf) -> u32 {
        u32::from_le_bytes(p.as_slice()[..4].try_into().unwrap())
    }

    #[test]
    fn linear_scan_returns_right_page_and_scans_everything() {
        let mut s = LinearScanStore::new(make_file(10));
        let p = s.fetch(7).unwrap();
        assert_eq!(page_tag(&p), 7);
        assert_eq!(s.physical_log().len(), 10);
        let p = s.fetch(0).unwrap();
        assert_eq!(page_tag(&p), 0);
        assert_eq!(s.physical_log().len(), 20);
        assert!(s.fetch(10).is_err());
    }

    #[test]
    fn linear_scan_log_is_query_independent() {
        let mut a = LinearScanStore::new(make_file(6));
        let mut b = LinearScanStore::new(make_file(6));
        a.fetch(0).unwrap();
        a.fetch(0).unwrap();
        b.fetch(5).unwrap();
        b.fetch(3).unwrap();
        assert_eq!(a.physical_log(), b.physical_log());
    }

    #[test]
    fn linear_scan_batch_is_one_pass() {
        let mut batched = LinearScanStore::new(make_file(10));
        let mut sequential = LinearScanStore::new(make_file(10));
        let pages = [7u32, 0, 7, 9];
        let mut out = vec![PageBuf::zeroed(DEFAULT_PAGE_SIZE); pages.len()];
        batched.fetch_batch(&pages, &mut out).unwrap();
        for (&p, buf) in pages.iter().zip(&out) {
            assert_eq!(page_tag(buf), p);
            assert_eq!(buf, &sequential.fetch(p).unwrap());
        }
        // the whole round cost one scan (N reads), not one scan per page
        assert_eq!(batched.physical_log().len(), 10);
        assert_eq!(sequential.physical_log().len(), 4 * 10);
        assert_eq!(batched.physical_log(), &(0..10).collect::<Vec<_>>()[..]);
        // out-of-range request fails the whole batch without a partial scan
        let mut out = vec![PageBuf::zeroed(DEFAULT_PAGE_SIZE)];
        assert!(batched.fetch_batch(&[10], &mut out).is_err());
        assert_eq!(batched.physical_log().len(), 10);
    }

    #[test]
    fn shuffled_batch_matches_sequential_state_evolution() {
        // Batches split arbitrarily across epoch boundaries must leave the
        // store in exactly the state the same fetches issued one by one do.
        let requests: Vec<u32> = (0..40u32).map(|i| (i * 13 + 2) % 16).collect();
        let mut sequential = ShuffledStore::new(make_file(16), 7);
        let seq_pages: Vec<PageBuf> = requests
            .iter()
            .map(|&p| sequential.fetch(p).unwrap())
            .collect();
        for split in [1usize, 3, 4, 7, 40] {
            let mut batched = ShuffledStore::new(make_file(16), 7);
            let mut got = Vec::new();
            for chunk in requests.chunks(split) {
                let mut out = vec![PageBuf::zeroed(DEFAULT_PAGE_SIZE); chunk.len()];
                batched.fetch_batch(chunk, &mut out).unwrap();
                got.extend(out);
            }
            assert_eq!(got, seq_pages, "contents differ at split {split}");
            assert_eq!(
                batched.physical_log(),
                sequential.physical_log(),
                "physical access sequence differs at split {split}"
            );
            assert_eq!(batched.reshuffles(), sequential.reshuffles());
        }
    }

    #[test]
    fn default_batch_impl_is_the_sequential_loop() {
        // A store that only implements `fetch` still serves batches.
        struct Minimal(LinearScanStore);
        impl ObliviousStore for Minimal {
            fn num_pages(&self) -> u32 {
                self.0.num_pages()
            }
            fn fetch(&mut self, page: u32) -> Result<PageBuf> {
                self.0.fetch(page)
            }
            fn physical_log(&self) -> &[u32] {
                self.0.physical_log()
            }
        }
        let mut s = Minimal(LinearScanStore::new(make_file(6)));
        let mut out = vec![PageBuf::zeroed(DEFAULT_PAGE_SIZE); 2];
        s.fetch_batch(&[5, 1], &mut out).unwrap();
        assert_eq!(page_tag(&out[0]), 5);
        assert_eq!(page_tag(&out[1]), 1);
        assert_eq!(s.physical_log().len(), 12, "two sequential scans");
    }

    #[test]
    fn lane_kernel_matches_pr3_reference_path() {
        // The streamed lane-select batch and the PR 3 sorted-cursor copy
        // path must be bit-identical in answers AND in log evolution, round
        // after round on the same store.
        let mut kernel = LinearScanStore::new(make_file(70));
        let mut reference = LinearScanStore::new(make_file(70));
        for round in 0..6u32 {
            let pages: Vec<u32> = (0..5).map(|i| (round * 17 + i * 13) % 70).collect();
            let mut a = vec![PageBuf::zeroed(DEFAULT_PAGE_SIZE); pages.len()];
            let mut b = vec![PageBuf::zeroed(DEFAULT_PAGE_SIZE); pages.len()];
            kernel.fetch_batch(&pages, &mut a).unwrap();
            reference.fetch_batch_reference(&pages, &mut b).unwrap();
            assert_eq!(a, b, "round {round}");
            assert_eq!(kernel.physical_log(), reference.physical_log());
        }
        assert!(kernel.log_overflow().is_none());
    }

    /// `inner` under the per-page checksum guard snapshot serving installs.
    fn guard(inner: Arc<dyn PagedFile>, crcs: Vec<u32>) -> Arc<dyn PagedFile> {
        Arc::new(privpath_storage::ChecksumFile::new("Fi", inner, crcs))
    }

    /// `pages` tagged pages of `ps` bytes, and their CRC table.
    fn small_pages(pages: u32, ps: usize) -> (MemFile, Vec<u32>) {
        let mut f = MemFile::empty(ps);
        for p in 0..pages {
            let mut page = PageBuf::zeroed(ps);
            page.as_mut_slice()[..4].copy_from_slice(&p.to_le_bytes());
            page.as_mut_slice()[4] = (p * 7 % 251) as u8;
            f.push_page(page);
        }
        let crcs = (0..pages)
            .map(|p| privpath_storage::crc32(f.page(p).unwrap()))
            .collect();
        (f, crcs)
    }

    #[test]
    fn store_built_for_the_host_shards_large_files() {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cpus < 2 {
            println!("note: 1 CPU available, the host plan is one shard; skipped");
            return;
        }
        let pages = 2 * scan::MIN_SHARD_PAGES as u32 + 100;
        let (file, crcs) = small_pages(pages, 16);
        let guarded = guard(Arc::new(file), crcs);
        let mut host = LinearScanStore::from_driver(Arc::clone(&guarded));
        let mut one = LinearScanStore::with_shards(Arc::clone(&guarded), 1);
        let mut reference = LinearScanStore::from_driver(guarded);
        // two whole segments and a 100-page one, each in two ranges
        assert_eq!(host.sweep().segments().count(), 3);
        for seg in 0..3 {
            assert_eq!(
                host.sweep().shard_ranges(seg).len(),
                2,
                "{cpus} CPUs, {pages} pages"
            );
            assert_eq!(one.sweep().shard_ranges(seg).len(), 1);
        }

        let cut = host.sweep().shard_ranges(0)[0].end;
        let next = host.sweep().segment(1).start;
        let reqs = [
            pages - 1,
            0,
            cut,
            cut - 1,
            next,
            next - 1,
            17,
            cut,
            pages - 1,
        ];
        let mut a = vec![PageBuf::zeroed(16); reqs.len()];
        let mut b = a.clone();
        let mut c = a.clone();
        for round in 0..3 {
            host.fetch_batch(&reqs, &mut a).unwrap();
            one.fetch_batch(&reqs, &mut b).unwrap();
            reference.fetch_batch_reference(&reqs, &mut c).unwrap();
            assert_eq!(a, b, "round {round}");
            assert_eq!(a, c, "round {round}");
        }
        assert_eq!(page_tag(&a[0]), pages - 1);
        assert_eq!(host.physical_log(), one.physical_log());
        assert_eq!(host.physical_log(), reference.physical_log());
        let swept: Vec<u64> = host.sweep().shard_pages_swept().collect();
        let lane = |j: usize| -> u64 {
            (0..3)
                .map(|seg| host.sweep().shard_ranges(seg)[j].len() as u64)
                .sum()
        };
        assert_eq!(swept, [3 * lane(0), 3 * lane(1)]);
        assert_eq!(swept.iter().sum::<u64>(), 3 * u64::from(pages));
    }

    #[test]
    fn corrupt_page_fails_every_plan_like_one_shard() {
        // 7 runs and a partial one; three ranges of 2-3 runs each
        let pages = 7 * scan::RUN_PAGES as u32 + 9;
        let (clean, crcs) = small_pages(pages, 32);
        let ranges = scan::Sweep::new(pages, 32, 3).shard_ranges(0).to_vec();
        assert_eq!(ranges.len(), 3);
        let victim = |r: &std::ops::Range<u32>| r.start + (r.end - r.start) / 2 + 1;
        // a flipped bit in each range in turn, then in two ranges at once
        let mut cases: Vec<Vec<u32>> = ranges.iter().map(|r| vec![victim(r)]).collect();
        cases.push(vec![victim(&ranges[2]), victim(&ranges[1])]);
        for bad in cases {
            let mut bytes = clean.contiguous().unwrap().to_vec();
            for &p in &bad {
                bytes[p as usize * 32 + 9] ^= 0x40;
            }
            let rotten = guard(Arc::new(MemFile::from_bytes(&bytes, 32)), crcs.clone());
            let lowest = *bad.iter().min().unwrap();
            let reqs = [pages - 1, 3, lowest];
            let mut outcomes = Vec::new();
            for shards in [1usize, 2, 3, 7] {
                let mut store = LinearScanStore::with_shards(Arc::clone(&rotten), shards);
                let mut out = vec![PageBuf::zeroed(32); reqs.len()];
                let err = store.fetch_batch(&reqs, &mut out).unwrap_err();
                match &err {
                    crate::PirError::Storage(StorageError::PageCorrupt {
                        file,
                        page,
                        expected,
                        actual,
                    }) => {
                        assert_eq!((file.as_str(), *page), ("Fi", lowest), "x{shards}");
                        assert_eq!(*expected, crcs[lowest as usize]);
                        assert_ne!(actual, expected);
                    }
                    other => panic!("want PageCorrupt, got {other}"),
                }
                assert!(out.iter().all(|b| b.as_slice().iter().all(|&x| x == 0)));
                // what a front-to-back pass logs: every run before the bad one
                let run_start = lowest - lowest % scan::RUN_PAGES as u32;
                assert_eq!(
                    store.physical_log(),
                    &(0..run_start).collect::<Vec<_>>()[..],
                    "x{shards}"
                );
                outcomes.push(err.to_string());
            }
            assert!(outcomes.windows(2).all(|w| w[0] == w[1]), "{outcomes:?}");
        }
    }

    #[test]
    fn shard_panic_resurfaces_on_the_calling_thread() {
        /// Panics on any read that touches `bad`.
        struct PanicFile(MemFile, u32);
        impl PagedFile for PanicFile {
            fn num_pages(&self) -> u32 {
                self.0.num_pages()
            }
            fn page_size(&self) -> usize {
                self.0.page_size()
            }
            fn read_page(&self, page: u32) -> privpath_storage::Result<PageBuf> {
                assert_ne!(page, self.1, "sabotaged page");
                self.0.read_page(page)
            }
        }
        let pages = 4 * scan::RUN_PAGES as u32;
        for (shards, bad) in [(1usize, 10u32), (4, 10), (4, pages - 1)] {
            let file = PanicFile(small_pages(pages, 16).0, bad);
            let mut store = LinearScanStore::with_shards(Arc::new(file), shards);
            let mut out = vec![PageBuf::zeroed(16)];
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                store.fetch_batch(&[3], &mut out)
            }));
            let payload = caught.expect_err("the shard's panic must reach the caller");
            let msg = payload.downcast_ref::<String>().expect("assert message");
            assert!(msg.contains("sabotaged page"), "x{shards}: {msg}");
        }
    }

    #[test]
    fn flaky_disk_under_a_sharded_sweep_recovers_bit_exact() {
        use crate::chaos::{DiskFaultPlan, FaultyDisk};
        let pages = 5 * scan::RUN_PAGES as u32 + 3;
        let (clean, crcs) = small_pages(pages, 16);
        let plan = DiskFaultPlan {
            transient_per_mille: 4,
            max_faults: 12,
            ..DiskFaultPlan::clean(0xf1a_5a4d)
        };
        let faulty = Arc::new(FaultyDisk::new(Arc::new(clean.clone()), plan));
        let mut store = LinearScanStore::with_shards(guard(faulty.clone(), crcs), 3);
        let mut failed = 0u32;
        for round in 0..40u32 {
            let reqs = [(round * 7 + 1) % pages, (round * 131 + 5) % pages];
            let mut out = vec![PageBuf::zeroed(16); 2];
            // the injector rolls by call order, which the threads interleave:
            // which page fails is not fixed, what a failure is and that a
            // retry of the same round recovers are
            while let Err(e) = store.fetch_batch(&reqs, &mut out) {
                assert!(e.is_transient_storage(), "round {round}: {e}");
                failed += 1;
                assert!(failed <= 12, "more failures than the fault budget");
            }
            for (buf, &p) in out.iter().zip(&reqs) {
                assert_eq!(buf.as_slice(), clean.page(p).unwrap(), "round {round}");
            }
        }
        assert!(failed > 0, "the flaky plan actually fired");
        assert!(faulty.faults_injected() >= u64::from(failed));
    }

    #[test]
    fn fetch_reuses_scratch_and_stays_a_full_scan() {
        // Satellite: the single fetch used to allocate a fresh page buffer
        // for every scanned page; it is now the k = 1 batch. Same full-scan
        // log, same answer.
        let mut s = LinearScanStore::new(make_file(12));
        let p = s.fetch(11).unwrap();
        assert_eq!(page_tag(&p), 11);
        assert_eq!(s.physical_log(), &(0..12).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn physical_log_caps_with_typed_overflow() {
        let mut s = LinearScanStore::new(make_file(10)).with_log_cap(25);
        s.fetch(3).unwrap(); // 10 entries
        s.fetch(4).unwrap(); // 20 entries
        assert!(s.log_overflow().is_none());
        s.fetch(5).unwrap(); // hits the cap at 25, drops 5
        assert_eq!(s.physical_log().len(), 25);
        let ovf = s.log_overflow().expect("cap was hit");
        assert_eq!(
            ovf,
            LogOverflow {
                cap: 25,
                dropped: 5
            }
        );
        // the recorded prefix is still the honest scan prefix
        assert_eq!(&s.physical_log()[20..], &[0, 1, 2, 3, 4]);
        // answers are unaffected by the log bound
        assert_eq!(page_tag(&s.fetch(7).unwrap()), 7);
        assert_eq!(s.log_overflow().unwrap().dropped, 15);

        let mut sh = ShuffledStore::new(make_file(16), 3).with_log_cap(2);
        for i in 0..8 {
            sh.fetch(i % 16).unwrap();
        }
        assert_eq!(sh.physical_log().len(), 2);
        assert_eq!(
            sh.log_overflow().unwrap(),
            LogOverflow { cap: 2, dropped: 6 }
        );
    }

    #[test]
    fn shuffled_store_returns_correct_pages() {
        let mut s = ShuffledStore::new(make_file(50), 99);
        for q in [3u32, 17, 3, 49, 0, 17, 17, 25] {
            let p = s.fetch(q).unwrap();
            assert_eq!(page_tag(&p), q, "wrong content for logical page {q}");
        }
        assert!(s.fetch(50).is_err());
    }

    #[test]
    fn shuffled_store_one_physical_read_per_fetch() {
        let mut s = ShuffledStore::new(make_file(30), 5);
        for q in [1u32, 1, 1, 1, 2] {
            s.fetch(q).unwrap();
        }
        assert_eq!(s.physical_log().len(), 5);
    }

    #[test]
    fn physical_reads_are_distinct_within_epoch() {
        let mut s = ShuffledStore::new(make_file(100), 31);
        let epoch = s.epoch_len() as usize;
        // hammer a single hot page — worst case for naive schemes
        for _ in 0..epoch {
            s.fetch(42).unwrap();
        }
        let log = &s.physical_log()[..epoch];
        let distinct: std::collections::HashSet<_> = log.iter().collect();
        assert_eq!(
            distinct.len(),
            epoch,
            "repeat physical slot within an epoch leaks"
        );
    }

    #[test]
    fn reshuffle_happens_every_epoch() {
        let mut s = ShuffledStore::new(make_file(16), 7);
        let epoch = s.epoch_len(); // 4
        assert_eq!(s.reshuffles(), 1);
        for i in 0..(3 * epoch) {
            s.fetch(i % 16).unwrap();
        }
        assert_eq!(s.reshuffles(), 4);
        // content still correct after reshuffles
        for q in 0..16 {
            assert_eq!(page_tag(&s.fetch(q).unwrap()), q);
        }
    }

    #[test]
    fn hot_and_cold_workloads_have_same_log_length() {
        let mut hot = ShuffledStore::new(make_file(64), 1);
        let mut cold = ShuffledStore::new(make_file(64), 1);
        for i in 0..32u32 {
            hot.fetch(7).unwrap();
            cold.fetch(i).unwrap();
        }
        assert_eq!(hot.physical_log().len(), cold.physical_log().len());
        // both logs consist of distinct slots within each epoch
        let epoch = hot.epoch_len() as usize;
        for log in [hot.physical_log(), cold.physical_log()] {
            for chunk in log.chunks(epoch) {
                let distinct: std::collections::HashSet<_> = chunk.iter().collect();
                assert_eq!(distinct.len(), chunk.len());
            }
        }
    }

    #[test]
    fn single_page_file() {
        let mut s = ShuffledStore::new(make_file(1), 3);
        for _ in 0..5 {
            assert_eq!(page_tag(&s.fetch(0).unwrap()), 0);
        }
    }
}
