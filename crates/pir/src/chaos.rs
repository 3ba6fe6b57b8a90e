//! Deterministic fault injection for the transport stack.
//!
//! The wire layer's retry/replay machinery (see [`crate::wire`]) claims the
//! protocol survives a lossy link without changing anything the server
//! observes *logically*. This module supplies the lossy links that claim is
//! tested against, all driven by a seeded, fully deterministic [`FaultPlan`]
//! so a failing chaos run reproduces from its seed:
//!
//! * [`ChaosLink`] — wraps any [`FrameLink`] and injects frame drops,
//!   truncation, bit corruption, delays, duplicated frames, and a scheduled
//!   mid-session outage window, on both directions independently;
//! * [`PanicStore`] — an [`ObliviousStore`] that panics at a scheduled
//!   fetch, for proving the server loop tears down only the offending
//!   session;
//! * [`FaultyDisk`] — a [`PagedFile`] wrapper injecting seeded *disk*
//!   faults (transient read errors, bit flips, torn reads) under a
//!   [`DiskFaultPlan`], for proving disk-backed serving degrades to typed
//!   errors and per-session teardown, never a crash or a wrong answer;
//! * [`GateDisk`] — a [`PagedFile`] wrapper whose run reads stop at a gate
//!   the test arms and releases, so a test holds a sweep at an exact run
//!   while it queues the frames that are to meet it at the next boundary:
//!   deterministic interleavings without sleeps;
//! * [`connect_chaos`] — convenience: a [`WireChannel`] over a `ChaosLink`
//!   into a [`ServerFront`].
//!
//! Faults are scheduled per *operation* from the plan's per-mille rates via
//! a hand-rolled xorshift64* generator — no external RNG dependency, and
//! independence from `rand` keeps the substrate's dependency surface at
//! just the storage crate.

use crate::backend::ObliviousStore;
use crate::error::PirError;
use crate::wire::{FrameLink, RetryPolicy, ServerFront, WireChannel};
use crate::Result;
use privpath_storage::{MemFile, PageBuf, PagedFile};
use std::time::Duration;

/// xorshift64* — tiny, seedable, good enough to schedule faults.
#[derive(Debug, Clone)]
struct XorShift64(u64);

impl XorShift64 {
    fn new(seed: u64) -> Self {
        XorShift64(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform-ish draw in `[0, 1000)`.
    fn per_mille(&mut self) -> u64 {
        self.next() % 1000
    }
}

/// A seeded, deterministic fault schedule. Rates are per-mille per
/// operation (a send or a receive); `max_faults` bounds the total number of
/// injected faults so a bounded retry budget always wins eventually and
/// chaos tests terminate.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// RNG seed — the whole schedule derives from it.
    pub seed: u64,
    /// Per-mille chance a frame is silently dropped.
    pub drop_per_mille: u64,
    /// Per-mille chance a frame is truncated mid-byte.
    pub corrupt_per_mille: u64,
    /// Per-mille chance a frame has one bit flipped.
    pub truncate_per_mille: u64,
    /// Per-mille chance a frame is delivered twice.
    pub duplicate_per_mille: u64,
    /// Per-mille chance a frame is delayed by [`FaultPlan::delay`].
    pub delay_per_mille: u64,
    /// The injected delay.
    pub delay: Duration,
    /// Operation index at which a disconnect window opens (`None` = never).
    pub outage_at_op: Option<u64>,
    /// How many operations the outage window swallows.
    pub outage_ops: u32,
    /// Total fault budget: once this many faults have fired, the link
    /// behaves perfectly. Keeps every bounded retry policy sufficient.
    pub max_faults: u64,
}

impl FaultPlan {
    /// A plan that injects nothing (the identity wrapper — handy for
    /// differential baselines through the same code path).
    pub fn clean(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_per_mille: 0,
            corrupt_per_mille: 0,
            truncate_per_mille: 0,
            duplicate_per_mille: 0,
            delay_per_mille: 0,
            delay: Duration::ZERO,
            outage_at_op: None,
            outage_ops: 0,
            max_faults: 0,
        }
    }

    /// A lossy-link profile: ~15% of operations dropped, ~10% corrupted,
    /// ~5% truncated, ~5% duplicated, bounded by a budget of 64 faults.
    pub fn lossy(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_per_mille: 150,
            corrupt_per_mille: 100,
            truncate_per_mille: 50,
            duplicate_per_mille: 50,
            delay_per_mille: 30,
            delay: Duration::from_micros(200),
            outage_at_op: None,
            outage_ops: 0,
            max_faults: 64,
        }
    }

    /// The lossy profile plus one mid-session disconnect window: every
    /// operation in `[at, at + ops)` fails with a link-down error.
    pub fn with_outage(seed: u64, at: u64, ops: u32) -> FaultPlan {
        FaultPlan {
            outage_at_op: Some(at),
            outage_ops: ops,
            ..FaultPlan::lossy(seed)
        }
    }
}

/// One fault decision for an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    Drop,
    Corrupt,
    Truncate,
    Duplicate,
    Delay,
    Outage,
}

/// The plan's runtime state: the RNG, the operation counter and the spent
/// fault budget.
#[derive(Debug, Clone)]
struct FaultState {
    plan: FaultPlan,
    rng: XorShift64,
    ops: u64,
    faults: u64,
}

impl FaultState {
    fn new(plan: FaultPlan) -> Self {
        let rng = XorShift64::new(plan.seed);
        FaultState {
            plan,
            rng,
            ops: 0,
            faults: 0,
        }
    }

    /// Decides the fault (if any) for the next operation. Advances the RNG
    /// deterministically whether or not a fault fires.
    fn roll(&mut self) -> Fault {
        let op = self.ops;
        self.ops += 1;
        let draw = self.rng.per_mille();
        if let Some(at) = self.plan.outage_at_op {
            if op >= at && op < at + u64::from(self.plan.outage_ops) {
                self.faults += 1;
                return Fault::Outage;
            }
        }
        if self.faults >= self.plan.max_faults {
            return Fault::None;
        }
        // One draw decides the fault: each kind owns a contiguous per-mille
        // band, stacked in this order.
        let p = &self.plan;
        let bands = [
            (p.drop_per_mille, Fault::Drop),
            (p.corrupt_per_mille, Fault::Corrupt),
            (p.truncate_per_mille, Fault::Truncate),
            (p.duplicate_per_mille, Fault::Duplicate),
            (p.delay_per_mille, Fault::Delay),
        ];
        let mut edge = 0;
        for (width, fault) in bands {
            edge += width;
            if draw < edge {
                self.faults += 1;
                return fault;
            }
        }
        Fault::None
    }

    /// Position at which to mangle a frame of `len` bytes (past the length
    /// field, so the mangled frame still frames correctly and the damage is
    /// caught by crc, not by a short read).
    fn mangle_at(&mut self, len: usize) -> usize {
        if len <= 4 {
            return 0;
        }
        4 + (self.rng.next() as usize) % (len - 4)
    }
}

/// A fault-injecting [`FrameLink`] wrapper: every send and every receive
/// rolls the [`FaultPlan`] and may drop, truncate, corrupt, duplicate or
/// delay the frame, or fail outright inside an outage window. All faults
/// are *link-shaped*: the wrapped link still only ever sees byte frames, so
/// the client's retry machinery is exercised exactly as a real lossy
/// network would.
pub struct ChaosLink<L: FrameLink> {
    inner: L,
    state: FaultState,
}

impl<L: FrameLink> ChaosLink<L> {
    /// Wraps `inner` under `plan`.
    pub(crate) fn new(inner: L, plan: FaultPlan) -> Self {
        ChaosLink {
            inner,
            state: FaultState::new(plan),
        }
    }
}

impl<L: FrameLink> FrameLink for ChaosLink<L> {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        match self.state.roll() {
            Fault::None => self.inner.send(frame),
            Fault::Outage => Err(PirError::LinkDown("chaos: outage window".into())),
            Fault::Drop => Ok(()), // swallowed silently; the timeout finds out
            Fault::Truncate => {
                let n = self.state.mangle_at(frame.len());
                self.inner.send(&frame[..n])
            }
            Fault::Corrupt => {
                let mut bytes = frame.to_vec();
                let at = self.state.mangle_at(bytes.len());
                let bit = (self.state.rng.next() % 8) as u8;
                if let Some(b) = bytes.get_mut(at) {
                    *b ^= 1 << bit;
                }
                self.inner.send(&bytes)
            }
            Fault::Duplicate => {
                self.inner.send(frame)?;
                self.inner.send(frame)
            }
            Fault::Delay => {
                std::thread::sleep(self.state.plan.delay);
                self.inner.send(frame)
            }
        }
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Result<Vec<u8>> {
        let frame = self.inner.recv(timeout)?;
        match self.state.roll() {
            Fault::None | Fault::Duplicate => Ok(frame),
            Fault::Outage => Err(PirError::LinkDown("chaos: outage window".into())),
            Fault::Drop => Err(PirError::Timeout("chaos: response dropped".into())),
            Fault::Truncate => {
                let n = self.state.mangle_at(frame.len());
                Ok(frame[..n].to_vec())
            }
            Fault::Corrupt => {
                let mut bytes = frame;
                let at = self.state.mangle_at(bytes.len());
                let bit = (self.state.rng.next() % 8) as u8;
                if let Some(b) = bytes.get_mut(at) {
                    *b ^= 1 << bit;
                }
                Ok(bytes)
            }
            Fault::Delay => {
                std::thread::sleep(self.state.plan.delay);
                Ok(frame)
            }
        }
    }
}

/// Connects to `front` through a [`ChaosLink`] running `plan`, retrying per
/// `policy`. The composition every chaos differential test uses.
pub fn connect_chaos(
    front: &ServerFront,
    plan: FaultPlan,
    policy: RetryPolicy,
) -> Result<WireChannel> {
    let link = ChaosLink::new(front.raw_link()?, plan);
    WireChannel::handshake(Box::new(link), policy)
}

/// A seeded, deterministic schedule of *disk* faults for [`FaultyDisk`].
/// Rates are per-mille per page read; `max_faults` bounds the total injected
/// so bounded retry budgets always win and soak tests terminate.
#[derive(Debug, Clone)]
pub struct DiskFaultPlan {
    /// RNG seed — the whole schedule derives from it.
    pub seed: u64,
    /// Per-mille chance a read fails with a *transient* I/O error
    /// (`ErrorKind::Interrupted` — retryable per
    /// `StorageError::is_transient`).
    pub transient_per_mille: u64,
    /// Per-mille chance a read returns the page with one bit flipped
    /// (bit rot — caught by the per-page checksum layer as `PageCorrupt`).
    pub flip_per_mille: u64,
    /// Per-mille chance a read comes back short: the tail of the page is
    /// zeroed from a random offset (a torn read — also caught as
    /// `PageCorrupt`).
    pub short_per_mille: u64,
    /// Total fault budget; once spent, the disk behaves perfectly.
    pub max_faults: u64,
}

impl DiskFaultPlan {
    /// No faults (identity wrapper, for differential baselines).
    pub fn clean(seed: u64) -> DiskFaultPlan {
        DiskFaultPlan {
            seed,
            transient_per_mille: 0,
            flip_per_mille: 0,
            short_per_mille: 0,
            max_faults: 0,
        }
    }

    /// Only transient (retryable) errors: ~10% of reads, budget 32.
    pub fn flaky(seed: u64) -> DiskFaultPlan {
        DiskFaultPlan {
            seed,
            transient_per_mille: 100,
            flip_per_mille: 0,
            short_per_mille: 0,
            max_faults: 32,
        }
    }

    /// Bit rot and torn reads (fatal through the checksum layer): ~5% each,
    /// budget 16.
    pub fn corrupting(seed: u64) -> DiskFaultPlan {
        DiskFaultPlan {
            seed,
            transient_per_mille: 0,
            flip_per_mille: 50,
            short_per_mille: 50,
            max_faults: 16,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DiskFault {
    None,
    Transient,
    Flip,
    Short,
}

struct DiskFaultState {
    plan: DiskFaultPlan,
    rng: XorShift64,
    faults: u64,
}

impl DiskFaultState {
    fn roll(&mut self) -> DiskFault {
        let draw = self.rng.per_mille();
        if self.faults >= self.plan.max_faults {
            return DiskFault::None;
        }
        let p = &self.plan;
        let bands = [
            (p.transient_per_mille, DiskFault::Transient),
            (p.flip_per_mille, DiskFault::Flip),
            (p.short_per_mille, DiskFault::Short),
        ];
        let mut edge = 0;
        for (width, fault) in bands {
            edge += width;
            if draw < edge {
                self.faults += 1;
                return fault;
            }
        }
        DiskFault::None
    }
}

/// A fault-injecting [`PagedFile`] wrapper: page reads may fail with a
/// transient I/O error, come back bit-flipped, or come back torn (tail
/// zeroed), per a seeded [`DiskFaultPlan`]. Layer a
/// [`privpath_storage::ChecksumFile`] *outside* it — as the snapshot loader
/// does for real disks — and the data faults surface as typed `PageCorrupt`
/// while the transient ones stay retryable: exactly the taxonomy the
/// serving front's containment story is tested against.
pub struct FaultyDisk {
    inner: std::sync::Arc<dyn PagedFile>,
    state: std::sync::Mutex<DiskFaultState>,
}

impl FaultyDisk {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: std::sync::Arc<dyn PagedFile>, plan: DiskFaultPlan) -> Self {
        let rng = XorShift64::new(plan.seed);
        FaultyDisk {
            inner,
            state: std::sync::Mutex::new(DiskFaultState {
                plan,
                rng,
                faults: 0,
            }),
        }
    }

    /// Faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.lock_state().faults
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, DiskFaultState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl PagedFile for FaultyDisk {
    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }

    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn read_page(&self, page: u32) -> privpath_storage::Result<PageBuf> {
        let (fault, mangle) = {
            let mut s = self.lock_state();
            let f = s.roll();
            (f, s.rng.next())
        };
        if fault == DiskFault::Transient {
            return Err(privpath_storage::StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                format!("chaos: transient read error on page {page}"),
            )));
        }
        let mut buf = self.inner.read_page(page)?;
        match fault {
            DiskFault::Flip => {
                let bytes = buf.as_mut_slice();
                if !bytes.is_empty() {
                    let at = (mangle as usize) % bytes.len();
                    let bit = (mangle >> 32) % 8;
                    bytes[at] ^= 1 << bit;
                }
            }
            DiskFault::Short => {
                let bytes = buf.as_mut_slice();
                if !bytes.is_empty() {
                    let from = (mangle as usize) % bytes.len();
                    for b in &mut bytes[from..] {
                        *b = 0;
                    }
                }
            }
            DiskFault::None | DiskFault::Transient => {}
        }
        Ok(buf)
    }
}

/// A [`PagedFile`] wrapper with a gate on its run reads: once
/// [armed](GateDisk::arm) at a page, the next [`PagedFile::read_run`]
/// starting there parks until the test [releases](GateDisk::release) it. A
/// linear scan reads runs front to back, so a gate at the first page of a
/// run holds the sweep — and the thread running it — at exactly that run,
/// while the test lines up what the sweep is to find when it moves on.
/// Pages are served by `inner` unchanged, always copied into the caller's
/// scratch: like every wrapper that must see each read, it lends nothing.
pub struct GateDisk {
    inner: std::sync::Arc<dyn PagedFile>,
    gate: std::sync::Mutex<Gate>,
    moved: std::sync::Condvar,
}

#[derive(Default)]
struct Gate {
    /// First page of the run read that is to park.
    armed: Option<u32>,
    /// A reader is parked at the gate.
    parked: bool,
}

impl GateDisk {
    /// Wraps `inner` with the gate open.
    pub fn new(inner: std::sync::Arc<dyn PagedFile>) -> Self {
        GateDisk {
            inner,
            gate: std::sync::Mutex::default(),
            moved: std::sync::Condvar::new(),
        }
    }

    fn lock_gate(&self) -> std::sync::MutexGuard<'_, Gate> {
        self.gate.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Arms the gate: the next run read starting at page `first` parks. May
    /// be called while a reader is parked, to set where it stops next.
    pub fn arm(&self, first: u32) {
        self.lock_gate().armed = Some(first);
    }

    /// Blocks until a reader is parked at the gate.
    pub fn wait_parked(&self) {
        let mut gate = self.lock_gate();
        while !gate.parked {
            gate = self.moved.wait(gate).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Lets the parked reader go on.
    pub fn release(&self) {
        self.lock_gate().parked = false;
        self.moved.notify_all();
    }
}

impl PagedFile for GateDisk {
    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }

    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn read_page(&self, page: u32) -> privpath_storage::Result<PageBuf> {
        self.inner.read_page(page)
    }

    fn read_run(&self, first: u32, scratch: &mut [u8]) -> privpath_storage::Result<Option<&[u8]>> {
        let mut gate = self.lock_gate();
        if gate.armed == Some(first) {
            gate.armed = None;
            gate.parked = true;
            self.moved.notify_all();
            while gate.parked {
                gate = self.moved.wait(gate).unwrap_or_else(|e| e.into_inner());
            }
        }
        drop(gate);
        self.inner.read_run_into(first, scratch)?;
        Ok(None)
    }
}

/// An [`ObliviousStore`] that panics at a scheduled fetch — the sabotage
/// the graceful-degradation tests feed a [`ServerFront`] to prove a
/// panicking handler tears down one session, not the loop.
pub struct PanicStore {
    file: MemFile,
    fetches: u64,
    /// 0-based fetch index at which to panic.
    panic_at: u64,
    log: Vec<u32>,
}

impl PanicStore {
    /// A store over `file` that panics on fetch number `panic_at`.
    pub fn new(file: MemFile, panic_at: u64) -> Self {
        PanicStore {
            file,
            fetches: 0,
            panic_at,
            log: Vec::new(),
        }
    }
}

impl ObliviousStore for PanicStore {
    fn num_pages(&self) -> u32 {
        self.file.num_pages()
    }

    fn fetch(&mut self, page: u32) -> Result<PageBuf> {
        let n = self.fetches;
        self.fetches += 1;
        if n == self.panic_at {
            panic!("chaos: PanicStore scheduled panic at fetch {n}");
        }
        self.log.push(page);
        Ok(self.file.read_page(page)?)
    }

    fn physical_log(&self) -> &[u32] {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{FileId, PirMode, PirServer};
    use crate::spec::SystemSpec;
    use crate::transport::Transport;
    use privpath_storage::DEFAULT_PAGE_SIZE;
    use std::sync::Arc;

    fn file(pages: u32) -> MemFile {
        let mut f = MemFile::empty(DEFAULT_PAGE_SIZE);
        for p in 0..pages {
            let mut page = PageBuf::zeroed(DEFAULT_PAGE_SIZE);
            page.as_mut_slice()[..4].copy_from_slice(&p.to_le_bytes());
            f.push_page(page);
        }
        f
    }

    fn server() -> Arc<PirServer> {
        let mut srv = PirServer::new(SystemSpec::default());
        srv.add_file("Fh", file(2), PirMode::CostOnly).unwrap();
        srv.add_file("Fd", file(32), PirMode::Shuffled { seed: 7 })
            .unwrap();
        Arc::new(srv)
    }

    #[test]
    fn fault_plan_is_deterministic() {
        let mut a = FaultState::new(FaultPlan::lossy(42));
        let mut b = FaultState::new(FaultPlan::lossy(42));
        let rolls_a: Vec<Fault> = (0..200).map(|_| a.roll()).collect();
        let rolls_b: Vec<Fault> = (0..200).map(|_| b.roll()).collect();
        assert_eq!(rolls_a, rolls_b);
        assert!(rolls_a.iter().any(|f| *f != Fault::None), "plan too quiet");
        // budget respected
        assert!(a.faults <= a.plan.max_faults);
    }

    #[test]
    fn outage_window_fires_exactly_where_scheduled() {
        let mut s = FaultState::new(FaultPlan {
            // otherwise-clean plan with a 3-op outage at op 5
            ..FaultPlan::with_outage(1, 5, 3)
        });
        s.plan.drop_per_mille = 0;
        s.plan.corrupt_per_mille = 0;
        s.plan.truncate_per_mille = 0;
        s.plan.duplicate_per_mille = 0;
        s.plan.delay_per_mille = 0;
        let rolls: Vec<Fault> = (0..12).map(|_| s.roll()).collect();
        for (i, f) in rolls.iter().enumerate() {
            if (5..8).contains(&i) {
                assert_eq!(*f, Fault::Outage, "op {i}");
            } else {
                assert_eq!(*f, Fault::None, "op {i}");
            }
        }
    }

    #[test]
    fn chaos_wire_channel_still_serves_correct_pages() {
        let srv = server();
        let front = ServerFront::spawn(Arc::clone(&srv));
        let mut chan = connect_chaos(
            &front,
            FaultPlan::with_outage(0xC0FFEE, 6, 2),
            RetryPolicy::resilient(),
        )
        .unwrap();
        chan.begin_query().unwrap();
        let mut out = vec![PageBuf::zeroed(DEFAULT_PAGE_SIZE); 3];
        chan.serve_round(
            2,
            &[(FileId(1), 4), (FileId(1), 19), (FileId(1), 31)],
            &mut out,
        )
        .unwrap();
        for (buf, want) in out.iter().zip([4u32, 19, 31]) {
            assert_eq!(
                u32::from_le_bytes(buf.as_slice()[..4].try_into().unwrap()),
                want
            );
        }
        chan.close().unwrap();
    }

    #[test]
    fn faulty_disk_transient_errors_are_retryable_and_bounded() {
        let plan = DiskFaultPlan::flaky(0xD15C);
        let budget = plan.max_faults;
        let disk = FaultyDisk::new(Arc::new(file(16)), plan);
        let mut transients = 0u64;
        // Hammer reads: every failure must be a transient Io, every success
        // must be byte-correct, and the budget must eventually run dry.
        let clean = file(16);
        for i in 0..2000u32 {
            let p = i % 16;
            match disk.read_page(p) {
                Ok(buf) => assert_eq!(buf, clean.read_page(p).unwrap()),
                Err(e) => {
                    assert!(e.is_transient(), "flaky plan must only inject transients");
                    transients += 1;
                }
            }
        }
        assert!(transients > 0, "plan too quiet");
        assert_eq!(disk.faults_injected(), budget.min(transients));
        // budget spent: now perfect
        for p in 0..16u32 {
            assert_eq!(disk.read_page(p).unwrap(), clean.read_page(p).unwrap());
        }
    }

    #[test]
    fn faulty_disk_data_faults_surface_as_page_corrupt_through_checksums() {
        use privpath_storage::{crc32, ChecksumFile};
        let clean = file(8);
        let crcs: Vec<u32> = (0..8u32)
            .map(|p| crc32(clean.read_page(p).unwrap().as_slice()))
            .collect();
        let faulty = FaultyDisk::new(Arc::new(file(8)), DiskFaultPlan::corrupting(0xBAD));
        let checked = ChecksumFile::new("Fd", Arc::new(faulty), crcs);
        let mut corrupt = 0u64;
        for i in 0..800u32 {
            match checked.read_page(i % 8) {
                Ok(buf) => assert_eq!(buf, clean.read_page(i % 8).unwrap()),
                Err(e) => {
                    assert!(
                        matches!(e, privpath_storage::StorageError::PageCorrupt { .. }),
                        "corrupting plan must only surface PageCorrupt, got {e:?}"
                    );
                    assert!(!e.is_transient());
                    corrupt += 1;
                }
            }
        }
        assert!(corrupt > 0, "plan too quiet");
    }

    #[test]
    fn panic_store_panics_on_schedule() {
        let mut store = PanicStore::new(file(4), 2);
        assert!(store.fetch(0).is_ok());
        assert!(store.fetch(1).is_ok());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.fetch(2)));
        assert!(r.is_err());
        assert_eq!(store.physical_log(), &[0, 1]);
    }
}
