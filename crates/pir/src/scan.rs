//! The vectorized linear-scan kernel.
//!
//! Every round of the trivial-PIR store costs one full pass over the file —
//! the dominant server cost in the paper's model. This module makes that
//! pass run at the storage medium's bandwidth:
//!
//! * the file is streamed in multi-page **runs**
//!   ([`PagedFile::select_run`]): a disk-backed scan fills a reusable arena
//!   with one positioned syscall per `RUN_PAGES` pages instead of one per
//!   page, and drivers that already hold the bytes (flat in-memory files,
//!   mappings) lend each run instead;
//! * each page of a run is resolved with a branchless masked select
//!   (`crc32_select` under the checksum layer, which verifies the page in
//!   the same pass, the lane kernel elsewhere): **constant work per page
//!   regardless of match** — a non-matching page is OR-accumulated under an
//!   all-zeros mask into the arena's dummy sink, a matching one under an
//!   all-ones mask into its output slot, and a duplicate request is copied
//!   from its twin's slot only once the page is verified. Every buffer of
//!   the pass starts on a cache line — the runs a `MemFile` lends, the run
//!   arena, the dummy sink and the output slots (`ScanArena`, [`PageBuf`])
//!   — so the unverified select (`lane_select`'s 512-bit loop where the
//!   CPU has AVX-512F) sweeps a file that fits in cache at ≈ 50 GB/s on one
//!   core of the reference host: ≈ 11 µs for `lm-rounds`' 143-page `Fd`,
//!   against ≈ 25 µs for 256-bit loads over buffers where the allocator
//!   put them (`select_run_mem_143_pages` in the `kernels` bench);
//!
//! * a sweep is cut into fixed **segments** of [`SEGMENT_PAGES`] pages, and
//!   each segment's pass into **page-range shards** ([`Sweep`]): `S` passes
//!   over disjoint ranges cut on `RUN_PAGES` multiples, shard 0 on the
//!   calling thread and `S − 1` on the threads of a [`Crew`] that stands by
//!   for as long as its store lives, all ended before the pass returns. One
//!   core verifies and selects a mapped file at ≈ 20 GB/s on the reference
//!   2-vCPU host, about what it reads the mapping at alone (≈ 23 GB/s);
//!   the passes share nothing but the read-only driver, and each request
//!   lands in exactly one range, so merging them is a copy-out;
//! * rounds share a sweep by **riding a rotation** ([`Rotation`]): a round
//!   joins at the next segment boundary and leaves after exactly one lap, and
//!   each segment pass resolves the union of what its riders asked for. A
//!   round that finds nobody aboard is a lap from segment 0 — the plain
//!   front-to-back sweep.
//!
//! Obliviousness is untouched: a lap reads every page of the file exactly
//! once, in segments and ranges fixed by the file's page count and the shard
//! count alone, and which segment a lap starts at is fixed by when the round
//! arrived — for every driver and every request set (the leakage suite pins
//! this differentially). The store records each segment pass in file order,
//! so a lone round logs `0 .. N`, exactly as the PR 3 sorted-cursor path
//! did. Only the per-page resolution got cheaper, the driver call
//! granularity coarser, the ranges concurrent and the laps shared.

use privpath_storage::{PageBuf, PagedFile, RunSink};
use std::ops::Range;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::PirError;

/// Pages per streamed run: 64 pages × 4 KiB = 256 KiB per driver call,
/// large enough to amortize a syscall to noise, small enough to stay
/// cache-resident while the kernel resolves it.
pub(crate) const RUN_PAGES: usize = 64;

/// Fewest pages worth a shard of their own: 2,048 pages × 4 KiB = 8 MiB,
/// about 0.4 ms of verified sweep on one core of the reference host
/// against the tens of microseconds a thread costs to start and join. Files
/// below twice this are swept inline by the calling thread.
pub const MIN_SHARD_PAGES: usize = 2048;

/// Pages per segment of a [`Rotation`]: where a round may join a sweep in
/// progress, and how long the round waits for it — at most one segment pass,
/// a seventh of a lap on the reference benchmark's 13,870-page index file.
/// It is also how long a front's loop thread, which drives every lap, leaves
/// the frames of other sessions queued. Every boundary is a hand-off between
/// that thread and the threads of the store's [`Crew`]: tens of microseconds
/// against the ≈ 0.2 ms a verified two-shard pass of this many 4 KiB mapped
/// pages takes on the reference 2-vCPU host. A multiple of `RUN_PAGES`, so
/// segments cut on runs.
pub const SEGMENT_PAGES: usize = 2048;

/// Shards the segment passes of a `num_pages`-page file are split into where
/// the process may use `cpus` CPUs: one per CPU, as long as the file has at
/// least [`MIN_SHARD_PAGES`] pages for each, and never fewer than one.
pub fn shard_count(num_pages: u32, cpus: usize) -> usize {
    cpus.min(num_pages as usize / MIN_SHARD_PAGES).max(1)
}

/// Reusable scratch for the streaming scan: the run buffer drivers that
/// fill are read into (allocated on first use; a driver that lends leaves it
/// untouched) and the dummy sink non-matching pages are masked into so
/// per-page work stays constant. Both are [`PageBuf`]s (the run one
/// `RUN_PAGES` pages long) for their alignment: they start on a cache line,
/// like the output slots and the runs a `MemFile` lends, so a page masked
/// into the dummy sink costs what one selected into its slot does, wherever
/// the allocator put either.
pub(crate) struct ScanArena {
    run: PageBuf,
    dummy: PageBuf,
}

impl ScanArena {
    /// Arena for files of `page_size`-byte pages.
    pub(crate) fn new(page_size: usize) -> Self {
        ScanArena {
            run: PageBuf::zeroed(0),
            dummy: PageBuf::zeroed(page_size),
        }
    }
}

/// A pass that ended before the end of its range: pages `range.start..at`
/// were swept and the run starting at `at` was not.
#[derive(Debug)]
pub struct ScanStop {
    /// First page of the run that was not read.
    pub(crate) at: u32,
    /// Why: the driver's error on that run, or the system's when the
    /// pass's thread could not be started.
    pub(crate) error: PirError,
}

/// One streamed pass over the pages `range` of `file`, resolving `wanted` —
/// page numbers inside `range`, **sorted** — so that `out[k]` receives page
/// `wanted[k]`. `range.start` must be a multiple of [`RUN_PAGES`], so that
/// the runs of a pass over a sub-range are runs of the pass over the whole
/// file, and requested pages must be in range (callers bounds-check before
/// the scan so a bad request costs no I/O).
pub(crate) fn scan_resolve(
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
    if arena.run.len() < RUN_PAGES * ps {
        // zeroed on allocation, so a driver that lends never touches it
        arena.run = PageBuf::zeroed(RUN_PAGES * ps);
    }
    let ScanArena { run, dummy } = arena;
    let mut sink = Resolve {
        wanted,
        w: 0,
        out,
        dummy: dummy.as_mut_slice(),
    };
    let mut first = range.start;
    while first < range.end {
        let pages = RUN_PAGES.min((range.end - first) as usize);
        file.select_run(first, &mut run.as_mut_slice()[..pages * ps], &mut sink)
            .map_err(|e| ScanStop {
                at: first,
                error: e.into(),
            })?;
        first += pages as u32;
    }
    debug_assert_eq!(sink.w, wanted.len(), "in-range sorted requests all resolve");
    Ok(())
}

/// Resolves the pages of a pass against the sorted requests: each page is
/// selected exactly once, into its wanted slot under an all-ones mask or
/// into the dummy sink under an all-zeros one, and once it is in (and
/// verified, where the file verifies) the slots of duplicate requests of
/// the same page are copied from it.
struct Resolve<'a> {
    wanted: &'a [u32],
    /// The request cursor: `wanted[..w]` are resolved.
    w: usize,
    out: &'a mut [PageBuf],
    dummy: &'a mut [u8],
}

impl RunSink for Resolve<'_> {
    fn slot(&mut self, page: u32) -> (u64, &mut [u8]) {
        let hit = self.wanted.get(self.w) == Some(&page);
        let mask = (hit as u64).wrapping_neg();
        let acc = if hit {
            self.out[self.w].as_mut_slice()
        } else {
            &mut self.dummy[..]
        };
        (mask, acc)
    }

    fn selected(&mut self, page: u32) {
        let w = &mut self.w;
        *w += (self.wanted.get(*w) == Some(&page)) as usize;
        while self.wanted.get(*w) == Some(&page) {
            // Duplicate request: its slot follows the one just resolved.
            let (done, rest) = self.out.split_at_mut(*w);
            rest[0]
                .as_mut_slice()
                .copy_from_slice(done[*w - 1].as_slice());
            *w += 1;
        }
    }
}

/// What one concurrent range of a segment pass alone touches: its scratch
/// and its page count.
struct Lane {
    arena: ScanArena,
    /// Pages this lane has swept since the sweep was built.
    swept: u64,
}

impl Lane {
    fn pass(
        &mut self,
        file: &dyn PagedFile,
        range: Range<u32>,
        wanted: &[u32],
        out: &mut [PageBuf],
    ) -> Result<(), ScanStop> {
        let start = range.start;
        let end = range.end;
        let res = scan_resolve(file, range, wanted, out, &mut self.arena);
        let reached = match &res {
            Ok(()) => end,
            Err(stop) => stop.at,
        };
        self.swept += u64::from(reached - start);
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

/// The segments a file of `num_pages` pages is cut into: consecutive ranges
/// of `segment_pages` pages, the last one as long as what is left. There is
/// always one, empty for an empty file.
fn segment_ranges(num_pages: u32, segment_pages: usize) -> Vec<Range<u32>> {
    assert!(
        segment_pages > 0 && segment_pages.is_multiple_of(RUN_PAGES),
        "segments are cut on runs"
    );
    let n = num_pages as usize;
    let bound = |i: usize| (i * segment_pages).min(n) as u32;
    (0..n.div_ceil(segment_pages).max(1))
        .map(|i| bound(i)..bound(i + 1))
        .collect()
}

/// How long a thread of a [`Crew`] polls for its next hand-off before it
/// sleeps. The hand-offs of a lap follow each other within the imbalance of
/// two ranges of one segment — tens of microseconds — and a thread that
/// slept through that gap is what made a segment pass cost 150 µs more than
/// its pages on the reference host (an idle virtual CPU takes ≈ 100 µs to
/// wake), seven times a lap — measured when a pass took ≈ 3.6 ms; against
/// the ≈ 0.2 ms a verified pass takes now it would be most of it. A gap
/// longer than this is the end of the lap, or a CPU given to somebody else:
/// not worth burning.
const HANDOFF_SPIN: Duration = Duration::from_micros(200);

/// Nothing posted: the helper waits.
const IDLE: u8 = 0;
/// A range is posted: the helper's to sweep.
const POSTED: u8 = 1;
/// The posted range is swept: its outcome is the crew's to collect.
const SWEPT: u8 = 2;
/// The crew is done with the helper: it ends.
const DISMISSED: u8 = 3;

/// Waits for `state` to read one of `wanted`: polling for
/// [`HANDOFF_SPIN`], then asleep until unparked. Whoever changes the state
/// unparks the waiter afterwards, so a change is never slept through.
fn await_state(state: &AtomicU8, wanted: &[u8]) -> u8 {
    let since = Instant::now();
    loop {
        let now = state.load(Ordering::SeqCst);
        if wanted.contains(&now) {
            return now;
        }
        if since.elapsed() < HANDOFF_SPIN {
            std::hint::spin_loop();
        } else {
            std::thread::park();
        }
    }
}

/// One range of one pass, handed to a helper and back: the request share
/// and the slots it resolves into are owned by the hand-off (and reused by
/// the next), so nothing a pass borrows has to outlive it.
#[derive(Default)]
struct Handoff {
    range: Range<u32>,
    wanted: Vec<u32>,
    slots: Vec<PageBuf>,
    /// `None` until swept; a panic is carried back to the crew's thread.
    outcome: Option<std::thread::Result<Result<(), ScanStop>>>,
    /// Whom to wake when it is.
    crew: Option<std::thread::Thread>,
}

struct Helper {
    /// [`IDLE`] → [`POSTED`] (crew) → [`SWEPT`] (helper) → [`IDLE`] (crew).
    state: Arc<AtomicU8>,
    handoff: Arc<Mutex<Handoff>>,
    thread: JoinHandle<()>,
}

fn lock_handoff(handoff: &Mutex<Handoff>) -> MutexGuard<'_, Handoff> {
    // the sweep under the lock runs inside `catch_unwind`: never poisoned
    handoff.lock().unwrap_or_else(|e| e.into_inner())
}

/// The helping hands of a store: threads that stand by for as long as the
/// store lives and sweep the ranges after the first of every segment pass,
/// while the thread that calls the pass sweeps the first. They are started
/// with the store and joined when it drops the crew — no pool, no queue, no
/// size to choose. Keeping them across passes and laps, polling for the next
/// range instead of being started for it, is what makes a segment boundary
/// cost microseconds. A one-range plan's crew has nobody in it: every range
/// runs on the calling thread.
pub struct Crew {
    helpers: Vec<Helper>,
}

impl Crew {
    /// `hands` threads standing by to sweep ranges of `file`. A thread the
    /// system refuses is done without: its range runs on the crew's thread.
    pub(crate) fn of(file: &Arc<dyn PagedFile>, hands: usize) -> Crew {
        let mut helpers = Vec::with_capacity(hands);
        for _ in 0..hands {
            let state = Arc::new(AtomicU8::new(IDLE));
            let handoff = Arc::new(Mutex::new(Handoff::default()));
            let (file, theirs, posted) =
                (Arc::clone(file), Arc::clone(&state), Arc::clone(&handoff));
            let spawned = std::thread::Builder::new()
                .name("privpath-sweep".into())
                .spawn(move || {
                    let mut arena = ScanArena::new(file.page_size());
                    while await_state(&theirs, &[POSTED, DISMISSED]) == POSTED {
                        let mut h = lock_handoff(&posted);
                        let Handoff {
                            range,
                            wanted,
                            slots,
                            ..
                        } = &mut *h;
                        let swept = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            scan_resolve(&*file, range.clone(), wanted, slots, &mut arena)
                        }));
                        h.outcome = Some(swept);
                        let crew = h.crew.take();
                        drop(h);
                        // (a crew dropped mid-pass has dismissed the helper
                        // meanwhile: that stands)
                        let _ = theirs.compare_exchange(
                            POSTED,
                            SWEPT,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        );
                        if let Some(crew) = crew {
                            crew.unpark();
                        }
                    }
                });
            let Ok(thread) = spawned else { break };
            helpers.push(Helper {
                state,
                handoff,
                thread,
            });
        }
        Crew { helpers }
    }
}

impl Helper {
    /// Hands the helper `range` and the requests inside it.
    fn post(&self, range: Range<u32>, wanted: &[u32], page_size: usize) {
        let mut h = lock_handoff(&self.handoff);
        h.range = range;
        h.wanted.clear();
        h.wanted.extend_from_slice(wanted);
        h.slots
            .resize_with(wanted.len(), || PageBuf::zeroed(page_size));
        h.outcome = None;
        h.crew = Some(std::thread::current());
        drop(h);
        self.state.store(POSTED, Ordering::SeqCst);
        self.thread.thread().unpark();
    }

    /// Waits for the posted range and takes what it came to: the pages into
    /// `slots`, and the outcome (a panic as the `Err` of the outer result).
    fn collect(&self, slots: &mut [PageBuf]) -> std::thread::Result<Result<(), ScanStop>> {
        await_state(&self.state, &[SWEPT]);
        let mut h = lock_handoff(&self.handoff);
        for (out, page) in slots.iter_mut().zip(&h.slots) {
            out.as_mut_slice().copy_from_slice(page.as_slice());
        }
        let outcome = h.outcome.take().expect("a swept range has an outcome");
        drop(h);
        self.state.store(IDLE, Ordering::SeqCst);
        outcome
    }
}

impl Drop for Crew {
    fn drop(&mut self) {
        for helper in self.helpers.drain(..) {
            helper.state.store(DISMISSED, Ordering::SeqCst);
            helper.thread.thread().unpark();
            // its sweeps run inside `catch_unwind`; nothing to report
            let _ = helper.thread.join();
        }
    }
}

/// The sharded segment pass: a fixed partition of one file's pages into
/// segments, of every segment into ranges cut on `RUN_PAGES` multiples,
/// and the scratch every pass reuses (one `ScanArena` per concurrent
/// range), so a pass in steady state allocates no scratch.
///
/// [`Sweep::pass`] sweeps one segment: its range 0 on the calling thread,
/// the others on the threads of the [`Crew`] it is given, all ended before
/// it returns. A one-range pass is the same code with nobody to hand to.
pub struct Sweep {
    num_pages: u32,
    page_size: usize,
    /// `plan[i]`: the ranges segment `i`'s pass is split into, in file order.
    plan: Vec<Vec<Range<u32>>>,
    /// `lanes[j]` serves range `j` of whichever segment is being swept.
    lanes: Vec<Lane>,
}

impl Sweep {
    /// Sweep of a file of `num_pages` pages of `page_size` bytes in segments
    /// of [`SEGMENT_PAGES`] pages, each split into `shards` ranges of (to
    /// within one run) equal length. A segment with fewer runs than `shards`
    /// is split into as many ranges as it has runs; there is always one.
    pub fn new(num_pages: u32, page_size: usize, shards: usize) -> Self {
        Self::with_segments(num_pages, page_size, SEGMENT_PAGES, shards)
    }

    /// [`Sweep::new`] with the segment length given: how the tests get many
    /// segments out of files of a few hundred pages.
    pub(crate) fn with_segments(
        num_pages: u32,
        page_size: usize,
        segment_pages: usize,
        shards: usize,
    ) -> Self {
        let plan: Vec<Vec<Range<u32>>> = segment_ranges(num_pages, segment_pages)
            .into_iter()
            .map(|seg| {
                let len = (seg.end - seg.start) as usize;
                let runs = len.div_ceil(RUN_PAGES);
                let shards = shards.clamp(1, runs.max(1));
                let bound = |j: usize| seg.start + (j * runs / shards * RUN_PAGES).min(len) as u32;
                (0..shards).map(|j| bound(j)..bound(j + 1)).collect()
            })
            .collect();
        let widest = plan.iter().map(Vec::len).max().unwrap_or(1);
        Sweep {
            num_pages,
            page_size,
            lanes: (0..widest)
                .map(|_| Lane {
                    arena: ScanArena::new(page_size),
                    swept: 0,
                })
                .collect(),
            plan,
        }
    }

    /// The page range of every segment, in file order.
    pub fn segments(&self) -> impl Iterator<Item = Range<u32>> + '_ {
        (0..self.plan.len()).map(|seg| self.segment(seg))
    }

    /// The page range of segment `seg`.
    pub(crate) fn segment(&self, seg: usize) -> Range<u32> {
        let ranges = &self.plan[seg];
        ranges[0].start..ranges.last().expect("a segment has a range").end
    }

    /// The ranges segment `seg`'s pass is split into, in file order.
    pub fn shard_ranges(&self, seg: usize) -> &[Range<u32>] {
        &self.plan[seg]
    }

    /// Pages swept so far by range 0, range 1, … of all the passes — like the
    /// plan, a function of the file and of which segments were swept, never
    /// of a request.
    pub fn shard_pages_swept(&self) -> impl Iterator<Item = u64> + '_ {
        self.lanes.iter().map(|l| l.swept)
    }

    /// A crew for laps over `file`: one helper for every range after the
    /// first of this sweep's widest segment.
    pub fn crew(&self, file: &Arc<dyn PagedFile>) -> Crew {
        Crew::of(file, self.lanes.len() - 1)
    }

    /// One pass over segment `seg` of `file`: `slots[k]` receives page
    /// `wanted[k]`; `wanted` is sorted and inside the segment. Range 0 runs
    /// on the calling thread, range `j` on helper `j − 1` of `crew` — which
    /// must have been made for `file` — or, past the crew's last helper,
    /// on the calling thread afterwards. Every range sweeps all of its pages
    /// whatever the others meet. When ranges fail, the error is that of the
    /// lowest failing one — what a front-to-back pass would have stopped on.
    /// A range that panics is re-raised here, after every other range has
    /// ended.
    ///
    /// # Panics
    /// Panics if `slots.len() != wanted.len()`, if a buffer of `slots` is
    /// not page-sized, or if `file` is not the shape the sweep was built for.
    pub fn pass(
        &mut self,
        crew: &mut Crew,
        file: &dyn PagedFile,
        seg: usize,
        wanted: &[u32],
        slots: &mut [PageBuf],
    ) -> Result<(), ScanStop> {
        assert_eq!(wanted.len(), slots.len(), "batch output length mismatch");
        assert_eq!(
            (file.num_pages(), file.page_size()),
            (self.num_pages, self.page_size),
            "sweep built for another file"
        );
        let ranges = &self.plan[seg];
        let helped = (ranges.len() - 1).min(crew.helpers.len());
        let (mut wanted, mut slots) = (wanted, slots);
        let (w0, s0) = take_below(&mut wanted, &mut slots, ranges[0].end);
        let mut rest = wanted;
        for (helper, range) in crew.helpers.iter().zip(&ranges[1..]) {
            let (w, _) = rest.split_at(rest.partition_point(|&p| p < range.end));
            helper.post(range.clone(), w, self.page_size);
            rest = &rest[w.len()..];
        }
        let (first, others) = self.lanes.split_first_mut().expect("a sweep has a lane");
        let own = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            first.pass(file, ranges[0].clone(), w0, s0)
        }));
        // ranges are collected in file order: the first error (and the first
        // panic) stays
        let mut outcome = own;
        for ((helper, range), lane) in crew.helpers.iter().zip(&ranges[1..]).zip(others.iter_mut())
        {
            let (_, s) = take_below(&mut wanted, &mut slots, range.end);
            let swept = helper.collect(s);
            let reached = match &swept {
                Ok(Ok(())) => range.end,
                Ok(Err(stop)) => stop.at,
                Err(_) => range.start,
            };
            lane.swept += u64::from(reached - range.start);
            outcome = match (outcome, swept) {
                (Ok(so_far), Ok(res)) => Ok(so_far.and(res)),
                (Err(panic), _) | (Ok(_), Err(panic)) => Err(panic),
            };
        }
        let mut outcome = outcome.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        for (lane, range) in others[helped..].iter_mut().zip(&ranges[1 + helped..]) {
            let (w, s) = take_below(&mut wanted, &mut slots, range.end);
            outcome = outcome.and(lane.pass(file, range.clone(), w, s));
        }
        outcome
    }
}

/// One round aboard a [`Rotation`]: what it asked for and, once its lap is
/// over, the pages.
#[derive(Default)]
pub struct Ride {
    id: u64,
    page_size: usize,
    /// `(page, request)` of every request, sorted by page.
    order: Vec<(u32, u32)>,
    /// Request `i`'s page at `i * page_size`.
    pages: Vec<u8>,
    joined: usize,
    /// Segment passes still to ride.
    left: usize,
    shared: bool,
}

impl Ride {
    /// The id the round joined under.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The page of the round's `i`-th request.
    pub fn page(&self, i: usize) -> &[u8] {
        &self.pages[i * self.page_size..(i + 1) * self.page_size]
    }

    /// All pages, in request order, back to back.
    pub(crate) fn pages(&self) -> &[u8] {
        &self.pages
    }

    /// The segment whose pass was the ride's first.
    pub fn joined_at(&self) -> usize {
        self.joined
    }

    /// True when at least one segment pass of the ride had another round
    /// aboard.
    pub fn shared(&self) -> bool {
        self.shared
    }
}

/// The rotating sweep rounds share: a cursor over a file's segments and the
/// rounds aboard. A round [joins](Rotation::join) between two passes, rides
/// the next `K` of them — one lap of the `K` segments, wrapping at the end of
/// the file — and comes out of the pass that completes it with every page it
/// asked for. Each [`Rotation::step`] is one segment pass resolving the
/// union of what its riders want from that segment, so `R` rounds aboard
/// cost the host one pass, not `R`.
///
/// The rotation holds no file and runs no I/O: `step` hands the pass (the
/// segment and the sorted pages wanted from it) to its caller, which is what
/// lets a store lend its [`Sweep`] to several rotations in turn. Whoever
/// calls `step` is the only one to touch the riders, so a failed or
/// panicking pass is that caller's to report to them.
pub struct Rotation {
    num_pages: u32,
    page_size: usize,
    segments: Vec<Range<u32>>,
    /// The segment the next pass sweeps; 0 whenever nobody is aboard.
    at: usize,
    /// In join order.
    riders: Vec<Ride>,
    /// Rides handed back, for their buffers.
    spare: Vec<Ride>,
    /// `(page, rider, request)` of the current pass, sorted.
    merged: Vec<(u32, u32, u32)>,
    /// The pages of `merged`: what the pass resolves.
    wanted: Vec<u32>,
    /// `slots[k]` receives page `wanted[k]`.
    slots: Vec<PageBuf>,
}

impl Rotation {
    /// An idle rotation over the segments of `sweep`, whose passes its steps
    /// are to be handed to.
    pub fn over(sweep: &Sweep) -> Self {
        Rotation {
            num_pages: sweep.num_pages,
            page_size: sweep.page_size,
            segments: sweep.segments().collect(),
            at: 0,
            riders: Vec::new(),
            spare: Vec::new(),
            merged: Vec::new(),
            wanted: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// The page range of every segment, in file order.
    pub fn segments(&self) -> &[Range<u32>] {
        &self.segments
    }

    /// True when nobody is aboard.
    pub fn is_idle(&self) -> bool {
        self.riders.is_empty()
    }

    /// The ids aboard, in join order.
    pub(crate) fn riders(&self) -> impl Iterator<Item = u64> + '_ {
        self.riders.iter().map(|r| r.id)
    }

    /// Takes a round aboard under `id`: it rides from the next pass on. A
    /// round that finds nobody aboard starts its lap at segment 0.
    ///
    /// # Panics
    /// Panics if a page is out of range (callers bounds-check first, so that
    /// a bad request costs no I/O and fails nobody else).
    pub fn join(&mut self, id: u64, pages: &[u32]) {
        assert!(
            pages.iter().all(|&p| p < self.num_pages),
            "a round joins with in-range pages"
        );
        if self.riders.is_empty() {
            self.at = 0;
        }
        let mut ride = self.spare.pop().unwrap_or_default();
        ride.id = id;
        ride.page_size = self.page_size;
        ride.order.clear();
        ride.order.extend(pages.iter().copied().zip(0..));
        ride.order.sort_unstable();
        // every request's page is written before the ride comes out: what an
        // earlier ride left in the buffer need not be cleared
        ride.pages.resize(pages.len() * self.page_size, 0);
        ride.joined = self.at;
        ride.left = self.segments.len();
        ride.shared = false;
        self.riders.push(ride);
    }

    /// Drops the round that joined under `id`, if it is still aboard.
    pub(crate) fn leave(&mut self, id: u64) {
        if let Some(i) = self.riders.iter().position(|r| r.id == id) {
            let ride = self.riders.remove(i);
            self.spare.push(ride);
        }
    }

    /// Drops everybody: what is left to do after a pass that failed or
    /// panicked, once its riders have been told.
    pub(crate) fn clear(&mut self) {
        self.spare.append(&mut self.riders);
    }

    /// Hands a finished ride back for its buffers.
    pub fn recycle(&mut self, ride: Ride) {
        self.spare.push(ride);
    }

    /// One segment pass: `pass(segment, wanted, slots)` must fill `slots[k]`
    /// with page `wanted[k]` (sorted, all inside the segment) or fail. The
    /// rounds whose lap this pass completes are appended to `done`, in join
    /// order, holding their pages. A failed pass fails every round aboard:
    /// the error is the caller's to pass on to `Rotation::riders`, who must
    /// then all be dropped (`Rotation::clear`) — no page of a lap that
    /// missed a segment may be served — which leaves the rotation idle and
    /// ready for the next round.
    pub fn step<E>(
        &mut self,
        pass: impl FnOnce(usize, &[u32], &mut [PageBuf]) -> Result<(), E>,
        done: &mut Vec<Ride>,
    ) -> Result<(), E> {
        let seg = self.segments[self.at].clone();
        self.merged.clear();
        for (r, ride) in self.riders.iter().enumerate() {
            let lo = ride.order.partition_point(|&(p, _)| p < seg.start);
            let hi = ride.order.partition_point(|&(p, _)| p < seg.end);
            let here = ride.order[lo..hi].iter();
            self.merged.extend(here.map(|&(p, i)| (p, r as u32, i)));
        }
        self.merged.sort_unstable();
        self.wanted.clear();
        self.wanted.extend(self.merged.iter().map(|&(p, _, _)| p));
        let n = self.merged.len();
        if self.slots.len() < n {
            let ps = self.page_size;
            self.slots.resize_with(n, || PageBuf::zeroed(ps));
        }
        pass(self.at, &self.wanted, &mut self.slots[..n])?;
        let ps = self.page_size;
        for (slot, &(_, r, i)) in self.slots.iter().zip(&self.merged) {
            let at = i as usize * ps;
            self.riders[r as usize].pages[at..at + ps].copy_from_slice(slot.as_slice());
        }
        self.at = (self.at + 1) % self.segments.len();
        let shared = self.riders.len() > 1;
        let mut i = 0;
        while i < self.riders.len() {
            let ride = &mut self.riders[i];
            ride.shared |= shared;
            ride.left -= 1;
            if ride.left == 0 {
                done.push(self.riders.remove(i));
            } else {
                i += 1;
            }
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
        let mut scratch = vec![0u8; ps];
        assert!(mem.read_run(0, &mut scratch).unwrap().is_some(), "lends");
        assert!(disk.read_run(0, &mut scratch).unwrap().is_none(), "fills");

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
    fn arena_buffers_start_on_a_cache_line() {
        let on_a_line = |b: &PageBuf| b.as_slice().as_ptr().addr().is_multiple_of(64);
        for ps in [32usize, 300, 4096] {
            let mem = seeded_file(3, ps, 5);
            let mut arenas: Vec<ScanArena> = (0..8).map(|_| ScanArena::new(ps)).collect();
            for arena in &mut arenas {
                let mut out = [PageBuf::zeroed(ps)];
                scan_resolve(&mem, 0..3, &[1], &mut out, arena).unwrap();
                assert_eq!(out[0].as_slice(), mem.page(1).unwrap());
            }
            for arena in &arenas {
                assert_eq!(arena.run.len(), RUN_PAGES * ps);
                assert!(on_a_line(&arena.dummy), "dummy sink, {ps}-byte pages");
                assert!(on_a_line(&arena.run), "run arena, {ps}-byte pages");
            }
        }
    }

    #[test]
    fn empty_request_set_still_scans_everything() {
        let ps = 16usize;
        let mem: Arc<dyn PagedFile> = Arc::new(MemFile::from_bytes(&vec![7u8; 5 * ps], ps));
        let mut sweep = Sweep::new(5, ps, 1);
        let mut crew = sweep.crew(&mem);
        sweep.pass(&mut crew, &*mem, 0, &[], &mut []).unwrap();
        assert_eq!(sweep.shard_pages_swept().collect::<Vec<_>>(), [5]);
    }

    #[test]
    fn shard_plans_cover_the_file_on_run_boundaries() {
        for pages in [0u32, 1, 63, 64, 65, 448, 457, 2048, 2049, 13_870] {
            for shards in [1usize, 2, 3, 7, 500] {
                let sweep = Sweep::new(pages, 16, shards);
                let segments: Vec<_> = sweep.segments().collect();
                assert_eq!(
                    segments.len(),
                    (pages as usize).div_ceil(SEGMENT_PAGES).max(1),
                    "{pages}"
                );
                assert_eq!(segments[0].start, 0);
                assert_eq!(segments.last().unwrap().end, pages);
                for pair in segments.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start, "segments abut");
                    assert_eq!(pair[0].len(), SEGMENT_PAGES, "all but the last are whole");
                }
                for (i, seg) in segments.iter().enumerate() {
                    let ranges = sweep.shard_ranges(i);
                    let runs = seg.len().div_ceil(RUN_PAGES);
                    assert_eq!(ranges.len(), shards.min(runs).max(1), "{pages} / {shards}");
                    assert_eq!(ranges[0].start, seg.start);
                    assert_eq!(ranges.last().unwrap().end, seg.end);
                    for pair in ranges.windows(2) {
                        assert_eq!(pair[0].end, pair[1].start, "ranges abut");
                        assert_eq!(pair[0].end as usize % RUN_PAGES, 0, "cut on a run");
                    }
                    if pages > 0 {
                        assert!(ranges.iter().all(|r| r.start < r.end), "no empty shard");
                    }
                }
                // a rotation rides the sweep's segments
                assert_eq!(Rotation::over(&sweep).segments(), &segments[..]);
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

    #[test]
    fn a_failed_pass_fails_every_rider_and_leaves_the_rotation_reusable() {
        let ps = 16usize;
        let pages = 5 * RUN_PAGES as u32;
        let mem: Arc<dyn PagedFile> = Arc::new(seeded_file(pages, ps, 7));
        let mut sweep = Sweep::with_segments(pages, ps, 2 * RUN_PAGES, 2);
        let mut crew = sweep.crew(&mem);
        let mut rotation = Rotation::over(&sweep);
        let mut done = Vec::new();
        rotation.join(7, &[3, pages - 1]);
        rotation
            .step(
                |seg, w, s| sweep.pass(&mut crew, &*mem, seg, w, s),
                &mut done,
            )
            .unwrap();
        rotation.join(8, &[0]);
        // the second pass fails: both riders are the caller's to tell
        let err = rotation
            .step(|seg, _, _| Err::<(), usize>(seg), &mut done)
            .unwrap_err();
        assert_eq!(err, 1);
        assert!(done.is_empty());
        assert_eq!(rotation.riders().collect::<Vec<_>>(), [7, 8]);
        rotation.clear();
        assert!(rotation.is_idle());
        // the next round starts a lap of its own, from segment 0
        rotation.join(9, &[pages - 1, 3]);
        let mut run = Vec::new();
        while !rotation.is_idle() {
            rotation
                .step(
                    |seg, w, s| {
                        run.push(seg);
                        sweep.pass(&mut crew, &*mem, seg, w, s)
                    },
                    &mut done,
                )
                .unwrap();
        }
        assert_eq!(run, [0, 1, 2]);
        let ride = done.pop().unwrap();
        assert_eq!((ride.id(), ride.joined_at(), ride.shared()), (9, 0, false));
        assert_eq!(ride.page(0), mem.read_page(pages - 1).unwrap().as_slice());
        assert_eq!(ride.page(1), mem.read_page(3).unwrap().as_slice());
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

    /// A file of `pages` pages of `ps` bytes whose content follows `seed`.
    fn seeded_file(pages: u32, ps: usize, seed: u64) -> MemFile {
        let bytes: Vec<u8> = (0..pages as usize * ps)
            .map(|i| (seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64) >> 5) as u8)
            .collect();
        MemFile::from_bytes(&bytes, ps)
    }

    /// The pages either side of every cut of `sweep`, and the file's last.
    fn boundary_pages(sweep: &Sweep) -> Vec<u32> {
        let mut out = Vec::new();
        for seg in 0..sweep.segments().count() {
            for r in sweep.shard_ranges(seg) {
                out.extend([r.start, r.end - 1]);
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// Every segment and shard plan over every driver is the one-shard
        /// pass: the same answers in request order and the same `0..N` log,
        /// which are also those of the PR 3 reference path.
        #[test]
        fn sharded_sweeps_are_the_one_shard_pass(
            pages in 1u32..(7 * RUN_PAGES as u32 + 40),
            seed in any::<u64>(),
            picks in proptest::collection::vec(any::<u32>(), 0..12),
            boundaries in any::<bool>(),
        ) {
            let ps = 24usize; // not a multiple of 8: the lane tail runs too
            let mem = seeded_file(pages, ps, seed);
            // duplicates come from the modulus; with `boundaries`, also the
            // pages either side of every cut of every plan, and the last
            // page of a partial last run
            let mut reqs: Vec<u32> = picks.iter().map(|p| p % pages).collect();
            if boundaries && !reqs.is_empty() {
                for shards in [2usize, 3, 7] {
                    reqs.extend(boundary_pages(&Sweep::with_segments(pages, ps, 2 * RUN_PAGES, shards)));
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
                for (segment, shards) in [(SEGMENT_PAGES, 1usize), (SEGMENT_PAGES, 3), (2 * RUN_PAGES, 2), (RUN_PAGES, 7)] {
                    let mut store = LinearScanStore::with_plan(Arc::clone(&driver), segment, shards);
                    let mut got = vec![PageBuf::zeroed(ps); k];
                    // two rounds: the reused scratch must not carry over
                    for round in 0..2 {
                        store.fetch_batch(&reqs, &mut got).unwrap();
                        prop_assert_eq!(&got, &want, "{} {}x{} round {}", name, segment, shards, round);
                    }
                    prop_assert_eq!(
                        store.physical_log(),
                        &[&round_log[..], &round_log[..]].concat()[..],
                        "{} {}x{} log", name, segment, shards
                    );
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }

        /// The rotation as a plain structure, under any join schedule: every
        /// ride comes out with the pages a one-shot fetch returns, every
        /// rider is aboard for exactly one lap of consecutive segments from
        /// the one it joined at, and the host sweeps the segments that were
        /// run and nothing else.
        #[test]
        fn rides_of_any_join_schedule_are_one_shot_fetches(
            pages in 1u32..(7 * RUN_PAGES as u32 + 40),
            seed in any::<u64>(),
            segment_runs in 1usize..4,
            riders in proptest::collection::vec(
                // requests, boundary pages too, passes run before it joins
                (proptest::collection::vec(any::<u32>(), 0..7), any::<bool>(), 0usize..12),
                1..5,
            ),
        ) {
            let ps = 24usize;
            let mem = seeded_file(pages, ps, seed);
            let segment = segment_runs * RUN_PAGES;
            let dir = temp_dir("ride");
            for (name, driver) in drivers(&dir, &mem) {
                for shards in [1usize, 2, 3] {
                    let mut store = LinearScanStore::with_plan(Arc::clone(&driver), segment, shards);
                    let mut rotation = store.rotation();
                    let segments = rotation.segments().to_vec();
                    let k = segments.len();
                    let requests: Vec<Vec<u32>> = riders
                        .iter()
                        .map(|(picks, boundaries, _)| {
                            let mut reqs: Vec<u32> = picks.iter().map(|p| p % pages).collect();
                            if *boundaries {
                                reqs.extend(boundary_pages(store.sweep()));
                                reqs.push(pages - 1);
                            }
                            reqs
                        })
                        .collect();
                    // riders in the order of the boundary they join at
                    let mut waiting: Vec<usize> = (0..riders.len()).collect();
                    waiting.sort_by_key(|&r| riders[r].2);

                    let mut run: Vec<usize> = Vec::new(); // segment of every pass
                    let mut aboard_at: Vec<Vec<usize>> = Vec::new(); // riders of every pass
                    let mut first_pass = vec![0usize; riders.len()];
                    let mut done = Vec::new();
                    let mut finished = 0usize;
                    let mut next = 0usize;
                    while finished < riders.len() {
                        // an idle rotation waits for its next rider
                        let boundary = if rotation.is_idle() {
                            riders[waiting[next]].2.max(run.len())
                        } else {
                            run.len()
                        };
                        while next < waiting.len() && riders[waiting[next]].2 <= boundary {
                            let r = waiting[next];
                            rotation.join(r as u64, &requests[r]);
                            first_pass[r] = run.len();
                            next += 1;
                        }
                        aboard_at.push(rotation.riders().map(|id| id as usize).collect());
                        rotation
                            .step(
                                |seg, wanted, slots| {
                                    run.push(seg);
                                    store.pass(seg, wanted, slots)
                                },
                                &mut done,
                            )
                            .unwrap();
                        for ride in done.drain(..) {
                            let r = ride.id() as usize;
                            for (i, &p) in requests[r].iter().enumerate() {
                                prop_assert_eq!(ride.page(i), mem.page(p).unwrap(), "{} x{} rider {} request {}", name, shards, r, i);
                            }
                            prop_assert_eq!(ride.pages().len(), requests[r].len() * ps);
                            // aboard for the K passes from its first, over
                            // consecutive segments from the one it joined at
                            let lap = &run[first_pass[r]..];
                            prop_assert_eq!(lap.len(), k, "{} x{} rider {}", name, shards, r);
                            for (j, &seg) in lap.iter().enumerate() {
                                prop_assert_eq!(seg, (ride.joined_at() + j) % k);
                            }
                            let company = aboard_at[first_pass[r]..].iter().any(|a| a.len() > 1);
                            prop_assert_eq!(ride.shared(), company);
                            if !company {
                                prop_assert_eq!(ride.joined_at(), 0, "a lone lap starts at segment 0");
                            }
                            rotation.recycle(ride);
                            finished += 1;
                        }
                    }
                    prop_assert!(rotation.is_idle());
                    // pages swept = segments run, and they are what was logged
                    let logged: Vec<u32> = run.iter().flat_map(|&seg| segments[seg].clone()).collect();
                    prop_assert_eq!(store.physical_log(), &logged[..], "{} x{}", name, shards);
                    let swept: u64 = store.sweep().shard_pages_swept().sum();
                    prop_assert_eq!(swept, logged.len() as u64);
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
