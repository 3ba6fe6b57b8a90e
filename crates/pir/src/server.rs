//! The PIR server facade: the LBS-side machinery of Figure 1.
//!
//! The server side is split along the concurrency boundary:
//!
//! * [`PirServer`] — the database files themselves. After the build phase
//!   (`add_file`) it is never mutated again: page serving is `&self`, so one
//!   server can be shared behind an `Arc` and queried from many threads at
//!   once. Functional oblivious stores (which reshuffle internally) sit
//!   behind a `Mutex`; the default cost-only mode reads pages lock-free.
//! * [`PirSession`] — one client's protocol state: the cost [`Meter`], the
//!   adversary-observable [`AccessTrace`] and the round counter. Every
//!   fetch goes through a session so costs and traces are charged to the
//!   querying client, never to the shared server.
//!
//! A session drives a [`crate::transport::Transport`] — the in-process
//! reference link or a wire channel — and exposes the protocol operations:
//!
//! 1. [`PirSession::download_full`] — fetch a whole file directly (only ever
//!    used for the header `Fh`, which every client downloads in full);
//! 2. [`PirSession::run_round`] — open a protocol round and execute all of
//!    its PIR fetches as **one batch** (the primary execution path: the
//!    client derives a round's page list before issuing any of it, so only
//!    rounds — not fetches — cost an RTT, and the server can serve the whole
//!    batch in one store pass);
//! 3. [`PirSession::fetch_batch`] — a further batch *within* the current
//!    round (rounds whose page list is discovered in stages, e.g. the HY
//!    continuation-page walk);
//! 4. [`PirSession::begin_round`] / [`PirSession::pir_fetch`] — the
//!    fine-grained primitives the batch path is defined against. Batched
//!    execution is *accounting-identical* to them by construction: the meter
//!    charges the same Table 2 per-retrieval cost for every page of a batch,
//!    in issue order, and the trace records the same per-fetch event
//!    sequence, so Theorem 1's trace equality is bit-for-bit unaffected by
//!    how the round was executed.
//!
//! Every operation is charged to the [`Meter`] using the Table 2 cost model
//! and appended to the [`AccessTrace`].

use crate::backend::{LinearScanStore, ObliviousStore, ShuffledStore};
use crate::cost::{plain_read_cost, retrieval_cost, CostBreakdown};
use crate::error::PirError;
use crate::meter::Meter;
use crate::scan::Rotation;
use crate::spec::SystemSpec;
use crate::trace::{AccessTrace, TraceEvent};
use crate::transport::Transport;
use crate::Result;
use privpath_storage::{ByteReader, ByteWriter, MemFile, PageBuf, PagedFile, StorageError};
use std::sync::{Arc, Mutex, MutexGuard};

/// Identifies a registered database file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u16);

/// How a file's pages are physically served.
#[derive(Debug, Clone)]
pub enum PirMode {
    /// No functional obliviousness — pages are read directly and only the
    /// *cost* of the PIR protocol is charged. The default for large-scale
    /// experiments (the paper, likewise, simulates the SCP).
    CostOnly,
    /// Functional: every fetch scans the whole file.
    LinearScan,
    /// Functional: square-root-ORAM-style shuffled store.
    Shuffled {
        /// RNG seed for the shuffle PRP keys.
        seed: u64,
    },
    /// Fault injection: linear-scan store that corrupts the given fetch
    /// sequence numbers — violates the paper's honest-but-curious assumption
    /// so tests can show the client detects tampering via page checksums.
    Faulty {
        /// 0-based fetch sequence numbers to corrupt (per file).
        corrupt_fetches: Vec<u64>,
    },
}

impl PirMode {
    /// Serializes the mode for a snapshot manifest. `Faulty` is a test-only
    /// injection and is not persistable.
    pub fn to_blob(&self) -> Option<Vec<u8>> {
        let mut w = ByteWriter::new();
        match self {
            PirMode::CostOnly => {
                w.u8(0);
            }
            PirMode::LinearScan => {
                w.u8(1);
            }
            PirMode::Shuffled { seed } => {
                w.u8(2).u64(*seed);
            }
            PirMode::Faulty { .. } => return None,
        }
        Some(w.into_vec())
    }

    /// Inverse of [`PirMode::to_blob`]; typed error on unknown tags or a
    /// malformed blob.
    pub fn from_blob(blob: &[u8]) -> std::result::Result<Self, StorageError> {
        let mut r = ByteReader::new(blob);
        let mode = match r.u8()? {
            0 => PirMode::CostOnly,
            1 => PirMode::LinearScan,
            2 => PirMode::Shuffled { seed: r.u64()? },
            t => return Err(StorageError::Corrupt(format!("unknown PIR mode tag {t}"))),
        };
        if r.remaining() != 0 {
            return Err(StorageError::Corrupt(format!(
                "{} trailing bytes after PIR mode",
                r.remaining()
            )));
        }
        Ok(mode)
    }
}

struct ServedFile {
    name: String,
    /// The page driver the file is served from: in-memory ([`MemFile`]) or
    /// disk-backed (a snapshot window with per-page checksum verification).
    /// Serving is driver-agnostic — the same scans, the same replies.
    plain: Arc<dyn PagedFile>,
    /// The mode this file was registered with ([`PirServer::add_file`]), or
    /// `None` for externally supplied stores — those cannot be reproduced
    /// from a snapshot, so servers holding them are not persistable.
    mode: Option<PirMode>,
    store: Store,
}

/// What stands between a file's pages and a fetch. Functional stores mutate
/// on fetch (epoch reshuffles, sweep scratch, the physical log), so
/// concurrent sessions serialize on their lock.
enum Store {
    /// Cost-only: `plain` is read without locking.
    None,
    /// The linear-scan store. A fetch of it is a pure function of the
    /// request — every sweep reads the same state-independent content — so
    /// rounds of *different* sessions may share the segment passes of one
    /// [`Rotation`] without changing any reply.
    Scan(Box<Mutex<LinearScanStore>>),
    /// Any other store: stateful (shuffled epochs, fault injectors) or
    /// externally supplied, so its rounds are served one at a time.
    Other(Mutex<Box<dyn ObliviousStore>>),
}

/// The LBS: database files + SCP. Immutable once built; share with `Arc`.
pub struct PirServer {
    spec: SystemSpec,
    files: Vec<ServedFile>,
}

impl PirServer {
    /// New server with the given hardware/link spec.
    pub fn new(spec: SystemSpec) -> Self {
        PirServer {
            spec,
            files: Vec::new(),
        }
    }

    /// The system spec in force.
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// Registers an in-memory database file (build phase only).
    pub fn add_file(&mut self, name: &str, file: MemFile, mode: PirMode) -> Result<FileId> {
        self.add_file_with_driver(name, Arc::new(file), mode)
    }

    /// Registers a database file served from an arbitrary page driver —
    /// in-memory or disk-backed (build phase only). Enforces the PIR
    /// interface's file-size limit (§3.2) — the reason the PI scheme becomes
    /// inapplicable on large networks (§7.5). Functional stores read their
    /// working layout through the driver, so a failing disk surfaces here
    /// (shuffled stores preload) or at serve time (linear scans), always as
    /// a typed error.
    pub fn add_file_with_driver(
        &mut self,
        name: &str,
        file: Arc<dyn PagedFile>,
        mode: PirMode,
    ) -> Result<FileId> {
        let pages = u64::from(file.num_pages());
        if pages > self.spec.max_file_pages() {
            return Err(PirError::FileTooLarge {
                pages,
                max_pages: self.spec.max_file_pages(),
            });
        }
        let store = match &mode {
            PirMode::CostOnly => Store::None,
            PirMode::LinearScan => Store::Scan(Box::new(Mutex::new(LinearScanStore::from_driver(
                Arc::clone(&file),
            )))),
            PirMode::Shuffled { seed } => Store::Other(Mutex::new(Box::new(
                ShuffledStore::from_driver(Arc::clone(&file), *seed)?,
            ))),
            PirMode::Faulty { corrupt_fetches } => {
                Store::Other(Mutex::new(Box::new(crate::fault::FaultyStore::new(
                    LinearScanStore::from_driver(Arc::clone(&file)),
                    corrupt_fetches.clone(),
                ))))
            }
        };
        self.files.push(ServedFile {
            name: name.to_string(),
            plain: file,
            mode: Some(mode),
            store,
        });
        Ok(FileId((self.files.len() - 1) as u16))
    }

    /// Registers a file served through an explicit oblivious store (build
    /// phase only). The chaos suite uses this to inject misbehaving stores
    /// ([`crate::chaos::PanicStore`]) and prove the server loop survives
    /// them; production callers use [`PirServer::add_file`].
    pub fn add_file_with_store(
        &mut self,
        name: &str,
        file: MemFile,
        store: Box<dyn ObliviousStore>,
    ) -> Result<FileId> {
        let pages = u64::from(file.num_pages());
        if pages > self.spec.max_file_pages() {
            return Err(PirError::FileTooLarge {
                pages,
                max_pages: self.spec.max_file_pages(),
            });
        }
        self.files.push(ServedFile {
            name: name.to_string(),
            plain: Arc::new(file),
            mode: None,
            store: Store::Other(Mutex::new(store)),
        });
        Ok(FileId((self.files.len() - 1) as u16))
    }

    /// The page driver file `f` is served from (snapshot writing).
    pub fn file_driver(&self, f: FileId) -> Result<Arc<dyn PagedFile>> {
        Ok(Arc::clone(&self.file(f)?.plain))
    }

    /// The mode file `f` was registered with, or `None` for externally
    /// supplied stores (those servers cannot be persisted).
    pub fn file_mode(&self, f: FileId) -> Result<Option<&PirMode>> {
        Ok(self.file(f)?.mode.as_ref())
    }

    fn file(&self, f: FileId) -> Result<&ServedFile> {
        self.files
            .get(f.0 as usize)
            .ok_or(PirError::UnknownFile(f.0))
    }

    /// Pages in file `f`.
    pub fn file_pages(&self, f: FileId) -> Result<u32> {
        Ok(self.file(f)?.plain.num_pages())
    }

    /// Name of file `f` (diagnostics only).
    pub fn file_name(&self, f: FileId) -> Result<&str> {
        Ok(self.file(f)?.name.as_str())
    }

    /// The linear-scan store of file `f`, locked — `None` where the file is
    /// served any other way, or not at all.
    fn scan_store(&self, f: FileId) -> Option<Result<MutexGuard<'_, LinearScanStore>>> {
        let file = self.file(f).ok()?;
        match &file.store {
            Store::Scan(store) => Some(store.lock().map_err(|_| poisoned(&file.name))),
            _ => None,
        }
    }

    /// An idle rotation over file `f`, whose steps are to be served by
    /// [`PirServer::scan_pass`] — `None` unless rounds of `f` may share laps
    /// across sessions (see `Store::Scan`) and its store can still be locked;
    /// the immediate serve path produces the error where it cannot.
    pub(crate) fn scan_rotation(&self, f: FileId) -> Option<Rotation> {
        Some(self.scan_store(f)?.ok()?.rotation())
    }

    /// One segment pass over file `f` on behalf of a rotation from
    /// [`PirServer::scan_rotation`], under the store's lock: laps of
    /// different drivers interleave pass by pass.
    pub(crate) fn scan_pass(
        &self,
        f: FileId,
        seg: usize,
        wanted: &[u32],
        slots: &mut [PageBuf],
    ) -> Result<()> {
        self.scan_store(f)
            .ok_or(PirError::UnknownFile(f.0))??
            .pass(seg, wanted, slots)
    }

    /// Reads the linear-scan store of file `f` — its physical log, its sweep
    /// plan and per-range page counts — for audits of what the host observed.
    /// `None` where the file is served any other way or its store is
    /// poisoned.
    pub fn audit_scan<R>(&self, f: FileId, read: impl FnOnce(&LinearScanStore) -> R) -> Option<R> {
        Some(read(&*self.scan_store(f)?.ok()?))
    }

    /// Number of registered files.
    pub fn num_files(&self) -> usize {
        self.files.len()
    }

    /// Total database size in bytes across all files — the storage-space
    /// metric of the evaluation charts.
    pub fn total_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.plain.size_bytes()).sum()
    }

    /// Serves one round exchange's requests: splits the list into runs of
    /// consecutive same-file requests and reads each run in a single store
    /// pass through [`PirServer::read_pages_raw`]. `run_pages` is caller
    /// scratch (kept outside so steady-state serving allocates nothing).
    /// This is the one serving routine behind both transports: the
    /// in-process [`crate::transport::InProc`] path and the wire server
    /// loop ([`crate::wire::ServerFront`]) call exactly this.
    pub(crate) fn serve_requests(
        &self,
        requests: &[(FileId, u32)],
        run_pages: &mut Vec<u32>,
        out: &mut [PageBuf],
    ) -> Result<()> {
        debug_assert_eq!(requests.len(), out.len());
        let mut start = 0usize;
        while start < requests.len() {
            let f = requests[start].0;
            let end = start
                + requests[start..]
                    .iter()
                    .take_while(|&&(rf, _)| rf == f)
                    .count();
            run_pages.clear();
            run_pages.extend(requests[start..end].iter().map(|&(_, p)| p));
            self.read_pages_raw(f, run_pages, &mut out[start..end])?;
            start = end;
        }
        Ok(())
    }

    /// Reads an entire file's plain bytes (the header download — never
    /// through an oblivious store). One whole-file run read instead of a
    /// page-by-page loop; integrity wrappers still verify page by page
    /// inside the run. No accounting — sessions wrap this.
    pub(crate) fn read_full(&self, f: FileId) -> Result<Vec<u8>> {
        let file = self.file(f)?;
        let mut out = vec![0u8; file.plain.size_bytes() as usize];
        file.plain.read_run_into(0, &mut out)?;
        Ok(out)
    }

    /// Physically reads a round's pages of one file in a single pass:
    /// functional stores take the lock **once** and serve the whole batch
    /// through [`ObliviousStore::fetch_batch`] (the linear-scan store scans
    /// the file once for all of them); cost-only files are read lock-free
    /// straight into the caller's buffers, no allocation. No accounting —
    /// sessions wrap this.
    fn read_pages_raw(&self, f: FileId, pages: &[u32], out: &mut [PageBuf]) -> Result<()> {
        debug_assert_eq!(pages.len(), out.len());
        let file = self.file(f)?;
        match &file.store {
            Store::Scan(store) => store
                .lock()
                .map_err(|_| poisoned(&file.name))?
                .fetch_batch(pages, out),
            Store::Other(store) => store
                .lock()
                .map_err(|_| poisoned(&file.name))?
                .fetch_batch(pages, out),
            Store::None => {
                for (&page, buf) in pages.iter().zip(out.iter_mut()) {
                    file.plain.read_page_into(page, buf)?;
                }
                Ok(())
            }
        }
    }
}

fn poisoned(file: &str) -> PirError {
    PirError::Poisoned(format!(
        "oblivious store of file '{file}' poisoned by an earlier panic"
    ))
}

/// One client's protocol session: cost meter, access trace, round counter,
/// and the reusable page arena batched rounds are served into.
///
/// Sessions are cheap; every concurrent querier owns one and shares the
/// [`PirServer`] immutably.
#[derive(Debug)]
pub struct PirSession {
    /// Cost accounting for the current query.
    pub meter: Meter,
    /// Adversary-observable trace for the current query.
    pub trace: AccessTrace,
    round: u32,
    /// Round arena: page buffers reused across batches and queries, so
    /// steady-state batched fetches allocate nothing. Returned `&[PageBuf]`
    /// slices point in here and are valid until the next batch call.
    arena: Vec<PageBuf>,
}

impl Default for PirSession {
    fn default() -> Self {
        PirSession {
            meter: Meter::new(),
            trace: AccessTrace::new(),
            round: 0,
            arena: Vec::new(),
        }
    }
}

impl PirSession {
    /// Fresh session with zeroed accounting.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new protocol round. The client link RTT is charged once per
    /// query (connection establishment): the paper's Table 3 communication
    /// times match `bytes / bandwidth` almost exactly (LM moves 536 pages in
    /// 46.4 s ≈ 536 × 83 ms), so rounds evidently stream over the persistent
    /// SSL connection without paying a fresh RTT each. Round 1 announces the
    /// query to the transport ([`Transport::begin_query`] — the exchange the
    /// RTT models), which is why this can fail on a wire.
    pub fn begin_round(&mut self, link: &mut dyn Transport) -> Result<()> {
        self.round += 1;
        self.meter.rounds += 1;
        if self.round == 1 {
            self.meter.comm_s += link.spec().comm_rtt_s;
            self.meter.exchanges += 1;
            link.begin_query()?;
        }
        self.trace.push(TraceEvent::RoundStart(self.round));
        Ok(())
    }

    /// Fetches one page via the PIR interface: charges the SCP retrieval
    /// cost (polylog in the file's page count) plus the page transfer to the
    /// client, and logs the fetch (file only, never the page number). One
    /// transport exchange per call — this is the per-fetch reference
    /// primitive the batched path is defined against.
    pub fn pir_fetch(&mut self, link: &mut dyn Transport, f: FileId, page: u32) -> Result<PageBuf> {
        let pages = link.file_pages(f)?;
        let page_bytes = link.spec().page_size as u64;
        self.meter.pir.add(retrieval_cost(link.spec(), pages));
        self.meter.comm_s += link.spec().transfer_s(page_bytes);
        self.meter.bytes_transferred += page_bytes;
        self.meter.record_fetches(f.0 as usize, 1);
        self.meter.exchanges += 1;
        self.trace.push(TraceEvent::PirFetch(f));
        let mut out = [PageBuf::zeroed(link.spec().page_size)];
        link.serve_round(self.round, &[(f, page)], &mut out)?;
        let [page_buf] = out;
        Ok(page_buf)
    }

    /// Opens a new round and executes all of `requests` as one batch:
    /// equivalent to [`PirSession::begin_round`] followed by one
    /// [`PirSession::pir_fetch`] per `(file, page)` request in order, but the
    /// server serves each file's pages in a single store pass. Returns the
    /// fetched pages as slices into the session's reusable arena, `out[i]`
    /// holding the page of `requests[i]`; the slices stay valid until the
    /// next batch call on this session.
    ///
    /// An empty request list just opens the round (the OBF baseline's only
    /// protocol action).
    pub fn run_round(
        &mut self,
        link: &mut dyn Transport,
        requests: &[(FileId, u32)],
    ) -> Result<&[PageBuf]> {
        self.begin_round(link)?;
        self.fetch_batch(link, requests)
    }

    /// Executes a further batch of PIR fetches *within* the current round
    /// (for rounds whose page list is discovered in stages). Accounting is
    /// identical to issuing each request through [`PirSession::pir_fetch`]:
    /// the meter is charged the Table 2 retrieval cost and page transfer per
    /// request in issue order, and the trace gains one `PirFetch` event per
    /// request — batching changes how pages are *served*, never what the
    /// adversary observes or what the client pays. One transport exchange
    /// per call (even for an empty list — a fetch-free round still crosses
    /// the wire so the server observes it).
    pub fn fetch_batch(
        &mut self,
        link: &mut dyn Transport,
        requests: &[(FileId, u32)],
    ) -> Result<&[PageBuf]> {
        let k = requests.len();
        self.ensure_arena(link.spec().page_size, k);
        // Accounting first, per request in issue order. The retrieval cost
        // depends only on the file, so it is computed once per run of
        // same-file requests and *accumulated* per fetch — the identical
        // f64 addition sequence `pir_fetch` performs, one call per request.
        let page_bytes = link.spec().page_size as u64;
        let transfer = link.spec().transfer_s(page_bytes);
        let mut cached: Option<(FileId, CostBreakdown)> = None;
        for &(f, _) in requests {
            let cost = match cached {
                Some((cf, c)) if cf == f => c,
                _ => {
                    let c = retrieval_cost(link.spec(), link.file_pages(f)?);
                    cached = Some((f, c));
                    c
                }
            };
            self.meter.pir.add(cost);
            self.meter.comm_s += transfer;
            self.meter.bytes_transferred += page_bytes;
            self.meter.record_fetches(f.0 as usize, 1);
            self.trace.push(TraceEvent::PirFetch(f));
        }
        self.meter.exchanges += 1;
        // Serving second: one transport exchange for the whole batch; the
        // serving side reads each run of consecutive same-file requests in
        // one store pass.
        link.serve_round(self.round, requests, &mut self.arena[..k])?;
        Ok(&self.arena[..k])
    }

    /// Grows (or re-sizes) the arena to hold `k` pages of `page_size` bytes.
    /// Steady state — same server, same or smaller round size — touches
    /// nothing and allocates nothing.
    fn ensure_arena(&mut self, page_size: usize, k: usize) {
        for buf in self.arena.iter_mut().take(k) {
            if buf.len() != page_size {
                *buf = PageBuf::zeroed(page_size);
            }
        }
        while self.arena.len() < k {
            self.arena.push(PageBuf::zeroed(page_size));
        }
    }

    /// Downloads an entire file directly (no PIR): a plain sequential disk
    /// read at the server plus the byte transfer. Used for the header.
    pub fn download_full(&mut self, link: &mut dyn Transport, f: FileId) -> Result<Vec<u8>> {
        let pages = link.file_pages(f)?;
        let bytes = u64::from(pages) * link.spec().page_size as u64;
        self.meter.server_s += plain_read_cost(link.spec(), u64::from(pages));
        self.meter.comm_s += link.spec().transfer_s(bytes);
        self.meter.bytes_transferred += bytes;
        self.meter.exchanges += 1;
        self.trace.push(TraceEvent::FullDownload(f));
        link.download(f)
    }

    /// Charges server-side plaintext computation (OBF baseline only).
    pub fn add_server_compute(&mut self, seconds: f64) {
        self.meter.server_s += seconds;
    }

    /// Charges client-side computation (measured by the protocol driver).
    pub fn add_client_compute(&mut self, seconds: f64) {
        self.meter.client_s += seconds;
    }

    /// Charges a raw transfer of `bytes` to the client (OBF result paths).
    pub fn add_transfer(&mut self, spec: &SystemSpec, bytes: u64) {
        self.meter.comm_s += spec.transfer_s(bytes);
        self.meter.bytes_transferred += bytes;
    }

    /// Resets per-query accounting (meter, trace, round counter). Server
    /// file state — including functional store shuffle epochs — is unaffected,
    /// as it would be at a real server.
    pub fn reset_query(&mut self) {
        self.meter = Meter::new();
        self.trace.clear();
        self.round = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InProc;
    use privpath_storage::DEFAULT_PAGE_SIZE;

    fn file(pages: u32) -> MemFile {
        let mut f = MemFile::empty(DEFAULT_PAGE_SIZE);
        for p in 0..pages {
            let mut page = PageBuf::zeroed(DEFAULT_PAGE_SIZE);
            page.as_mut_slice()[..4].copy_from_slice(&p.to_le_bytes());
            f.push_page(page);
        }
        f
    }

    #[test]
    fn fetch_charges_cost_and_logs_trace() {
        let mut srv = PirServer::new(SystemSpec::default());
        let f = srv.add_file("Fd", file(100), PirMode::CostOnly).unwrap();
        let mut link = InProc::new(&srv);
        let mut sess = PirSession::new();
        sess.begin_round(&mut link).unwrap();
        let p = sess.pir_fetch(&mut link, f, 42).unwrap();
        assert_eq!(
            u32::from_le_bytes(p.as_slice()[..4].try_into().unwrap()),
            42
        );
        assert!(sess.meter.pir.total_s() > 0.0);
        assert!(sess.meter.comm_s > srv.spec().comm_rtt_s);
        assert_eq!(sess.meter.rounds, 1);
        assert_eq!(sess.meter.exchanges, 2); // query open + one fetch
        assert_eq!(sess.trace.total_fetches(), 1);
        assert_eq!(sess.trace.events().len(), 2);
    }

    #[test]
    fn functional_modes_return_same_content() {
        for mode in [
            PirMode::CostOnly,
            PirMode::LinearScan,
            PirMode::Shuffled { seed: 7 },
        ] {
            let mut srv = PirServer::new(SystemSpec::default());
            let f = srv.add_file("Fd", file(33), mode).unwrap();
            let mut link = InProc::new(&srv);
            let mut sess = PirSession::new();
            for q in [0u32, 32, 5, 5, 17] {
                let p = sess.pir_fetch(&mut link, f, q).unwrap();
                assert_eq!(u32::from_le_bytes(p.as_slice()[..4].try_into().unwrap()), q);
            }
        }
    }

    /// Batched and per-fetch execution must be indistinguishable in every
    /// client-observable dimension: returned bytes, meter (bit-for-bit,
    /// including the f64 cost accumulators), and trace. (The `exchanges`
    /// counter is *excluded* by design: it counts transport round-trips,
    /// and per-fetch execution genuinely performs more of them.)
    #[test]
    fn run_round_is_accounting_identical_to_per_fetch() {
        for mode in [
            PirMode::CostOnly,
            PirMode::LinearScan,
            PirMode::Shuffled { seed: 11 },
        ] {
            let mut srv = PirServer::new(SystemSpec::default());
            let fd = srv.add_file("Fd", file(64), mode.clone()).unwrap();
            let fi = srv.add_file("Fi", file(16), mode).unwrap();
            let requests = [(fi, 3u32), (fi, 9), (fd, 40), (fd, 40), (fd, 0)];

            let mut link = InProc::new(&srv);
            let mut batched = PirSession::new();
            let got: Vec<PageBuf> = batched.run_round(&mut link, &requests).unwrap().to_vec();

            let mut link2 = InProc::new(&srv);
            let mut reference = PirSession::new();
            reference.begin_round(&mut link2).unwrap();
            let mut want = Vec::new();
            for &(f, p) in &requests {
                want.push(reference.pir_fetch(&mut link2, f, p).unwrap());
            }

            assert_eq!(got, want, "page contents differ");
            assert_eq!(batched.trace, reference.trace, "traces differ");
            assert_eq!(batched.meter.rounds, reference.meter.rounds);
            assert_eq!(
                batched.meter.fetches_per_file,
                reference.meter.fetches_per_file
            );
            assert_eq!(
                batched.meter.bytes_transferred,
                reference.meter.bytes_transferred
            );
            // f64 accumulators: same additions in the same order => same bits
            assert_eq!(batched.meter.pir.total_s(), reference.meter.pir.total_s());
            assert_eq!(batched.meter.comm_s, reference.meter.comm_s);
            // exchange counts: one per round for the batch, one per fetch
            // (plus the query open) for the reference path
            assert_eq!(batched.meter.exchanges, 2);
            assert_eq!(reference.meter.exchanges, 1 + requests.len() as u32);
        }
    }

    #[test]
    fn empty_round_only_opens_the_round() {
        let mut srv = PirServer::new(SystemSpec::default());
        let _ = srv.add_file("Fd", file(4), PirMode::CostOnly).unwrap();
        let mut link = InProc::new(&srv);
        let mut sess = PirSession::new();
        let pages = sess.run_round(&mut link, &[]).unwrap();
        assert!(pages.is_empty());
        assert_eq!(sess.meter.rounds, 1);
        assert_eq!(sess.trace.events().len(), 1);
        assert_eq!(sess.trace.total_fetches(), 0);
    }

    #[test]
    fn batch_with_unknown_file_errors() {
        let mut srv = PirServer::new(SystemSpec::default());
        let f = srv.add_file("Fd", file(4), PirMode::CostOnly).unwrap();
        let mut link = InProc::new(&srv);
        let mut sess = PirSession::new();
        assert!(matches!(
            sess.run_round(&mut link, &[(f, 0), (FileId(9), 0)]),
            Err(PirError::UnknownFile(9))
        ));
    }

    #[test]
    fn arena_reuses_buffers_across_rounds_and_queries() {
        let mut srv = PirServer::new(SystemSpec::default());
        let f = srv.add_file("Fd", file(32), PirMode::CostOnly).unwrap();
        let mut link = InProc::new(&srv);
        let mut sess = PirSession::new();
        let first = sess
            .run_round(&mut link, &[(f, 1), (f, 2), (f, 3)])
            .unwrap();
        let ptr = first[0].as_slice().as_ptr();
        assert_eq!(first.len(), 3);
        sess.reset_query();
        // smaller round after a reset: same backing buffers, fresh contents
        let again = sess.run_round(&mut link, &[(f, 30)]).unwrap();
        assert_eq!(again[0].as_slice().as_ptr(), ptr, "arena buffer reused");
        assert_eq!(
            u32::from_le_bytes(again[0].as_slice()[..4].try_into().unwrap()),
            30
        );
    }

    #[test]
    fn oversized_file_rejected() {
        let spec = SystemSpec {
            scp_memory_bytes: 1 << 20,
            ..Default::default()
        }; // tiny SCP
        let max = spec.max_file_pages();
        let mut srv = PirServer::new(spec);
        let too_big = file(max as u32 + 1);
        assert!(matches!(
            srv.add_file("Fi", too_big, PirMode::CostOnly),
            Err(PirError::FileTooLarge { .. })
        ));
    }

    #[test]
    fn download_full_reassembles_bytes() {
        let mut srv = PirServer::new(SystemSpec::default());
        let f = srv.add_file("Fh", file(3), PirMode::CostOnly).unwrap();
        let mut link = InProc::new(&srv);
        let mut sess = PirSession::new();
        let bytes = sess.download_full(&mut link, f).unwrap();
        assert_eq!(bytes.len(), 3 * DEFAULT_PAGE_SIZE);
        assert_eq!(
            u32::from_le_bytes(
                bytes[DEFAULT_PAGE_SIZE..DEFAULT_PAGE_SIZE + 4]
                    .try_into()
                    .unwrap()
            ),
            1
        );
        assert!(sess.meter.server_s > 0.0);
        assert_eq!(sess.trace.events().len(), 1);
    }

    #[test]
    fn reset_clears_accounting_only() {
        let mut srv = PirServer::new(SystemSpec::default());
        let f = srv
            .add_file("Fd", file(10), PirMode::Shuffled { seed: 1 })
            .unwrap();
        let mut link = InProc::new(&srv);
        let mut sess = PirSession::new();
        sess.begin_round(&mut link).unwrap();
        sess.pir_fetch(&mut link, f, 3).unwrap();
        sess.reset_query();
        assert_eq!(sess.meter.total_fetches(), 0);
        assert_eq!(sess.trace.events().len(), 0);
        assert_eq!(sess.meter.rounds, 0);
        assert_eq!(sess.meter.exchanges, 0);
        // file still there
        assert_eq!(srv.file_pages(f).unwrap(), 10);
        assert_eq!(srv.total_bytes(), 10 * DEFAULT_PAGE_SIZE as u64);
    }

    #[test]
    fn unknown_file() {
        let srv = PirServer::new(SystemSpec::default());
        let mut link = InProc::new(&srv);
        let mut sess = PirSession::new();
        assert!(matches!(
            sess.pir_fetch(&mut link, FileId(3), 0),
            Err(PirError::UnknownFile(3))
        ));
        assert!(matches!(
            sess.download_full(&mut link, FileId(1)),
            Err(PirError::UnknownFile(1))
        ));
    }

    #[test]
    fn bigger_files_cost_more_per_fetch() {
        let mut srv = PirServer::new(SystemSpec::default());
        let small = srv.add_file("s", file(8), PirMode::CostOnly).unwrap();
        let big = srv.add_file("b", file(4096), PirMode::CostOnly).unwrap();
        let mut link = InProc::new(&srv);
        let mut sess = PirSession::new();
        sess.pir_fetch(&mut link, small, 0).unwrap();
        let small_cost = sess.meter.pir.total_s();
        sess.reset_query();
        sess.pir_fetch(&mut link, big, 0).unwrap();
        let big_cost = sess.meter.pir.total_s();
        assert!(big_cost > small_cost);
    }

    #[test]
    fn server_is_shareable_across_threads() {
        use std::sync::Arc;
        let mut srv = PirServer::new(SystemSpec::default());
        let f = srv.add_file("Fd", file(64), PirMode::CostOnly).unwrap();
        let g = srv
            .add_file("Fs", file(16), PirMode::Shuffled { seed: 3 })
            .unwrap();
        let srv = Arc::new(srv);
        std::thread::scope(|scope| {
            for k in 0..4u32 {
                let srv = Arc::clone(&srv);
                scope.spawn(move || {
                    let mut link = InProc::new(Arc::clone(&srv));
                    let mut sess = PirSession::new();
                    sess.begin_round(&mut link).unwrap();
                    for i in 0..32u32 {
                        let page = (k * 7 + i) % 64;
                        let p = sess.pir_fetch(&mut link, f, page).unwrap();
                        assert_eq!(
                            u32::from_le_bytes(p.as_slice()[..4].try_into().unwrap()),
                            page
                        );
                        let page = (k + i) % 16;
                        let p = sess.pir_fetch(&mut link, g, page).unwrap();
                        assert_eq!(
                            u32::from_le_bytes(p.as_slice()[..4].try_into().unwrap()),
                            page
                        );
                    }
                    assert_eq!(sess.meter.total_fetches(), 64);
                });
            }
        });
    }
}
