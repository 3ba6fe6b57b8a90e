//! The client/server trust boundary as a type.
//!
//! The paper's protocol is client/server: the client issues PIR rounds over
//! a network link and the server must learn nothing beyond the fixed plan
//! from what crosses the wire. [`Transport`] reifies that boundary — a
//! [`crate::PirSession`] performs **all** of its accounting (meter, trace,
//! rounds) on the client side of the trait and asks the transport only to
//! *serve*:
//!
//! * [`InProc`] — the zero-cost reference path: requests go straight into
//!   the shared [`PirServer`] by reference, exactly as every caller did
//!   before the boundary existed. One heap-free virtual call per round.
//! * [`crate::wire::WireChannel`] — the real boundary: every request is
//!   serialized into a versioned binary frame, crosses a byte channel into
//!   the server loop thread (see [`crate::wire::ServerFront`]), and the
//!   response frames carry the pages back.
//!
//! Both transports expose the same public metadata (the [`SystemSpec`] and
//! per-file page counts — everything in them is published to every client
//! anyway), so the client computes bit-identical simulated costs no matter
//! which side of a wire the pages come from. The differential suite in
//! `tests/leakage.rs` holds wire and in-process execution observably equal
//! for every scheme.

use crate::server::{FileId, PirServer};
use crate::spec::SystemSpec;
use crate::Result;
use privpath_storage::PageBuf;

/// Something that can hand out a [`PirServer`] to serve from. Implemented
/// for `PirServer` itself, references, and `Arc`s — and by the core crate
/// for its built `Database`, so a server front can own the whole artifact.
pub trait ServeHost {
    /// The PIR server hosting the database files.
    fn pir_server(&self) -> &PirServer;
}

impl ServeHost for PirServer {
    fn pir_server(&self) -> &PirServer {
        self
    }
}

impl<T: ServeHost + ?Sized> ServeHost for &T {
    fn pir_server(&self) -> &PirServer {
        (**self).pir_server()
    }
}

impl<T: ServeHost + ?Sized> ServeHost for std::sync::Arc<T> {
    fn pir_server(&self) -> &PirServer {
        (**self).pir_server()
    }
}

/// A provider of the *current* database generation for a hot-swappable
/// server front ([`crate::wire::ServerFront::spawn_swappable`]).
///
/// Implementors own an atomically-swappable `(generation id, host)` pair:
/// ids start at 1 and only ever grow, and a published generation's host is
/// immutable (swapping means publishing a *new* pair, never mutating the
/// old one — sessions pinned to an old generation keep serving from it
/// until they drain). The core crate's `DbRegistry` is the production
/// implementor: it runs background rebuilds and publishes the result here.
pub trait GenerationSource: Send + Sync {
    /// The current generation: its id and the host serving it. Called by
    /// the front loop at client connect and at each `SessionOpen` on a
    /// channel with no open session — it must be cheap (a lock and two
    /// clones, not a rebuild).
    fn current_generation(&self) -> (u64, std::sync::Arc<dyn ServeHost + Send + Sync>);
}

/// The degenerate single-generation source wrapping a static host: always
/// generation 1. This is what [`crate::wire::ServerFront::spawn`] serves
/// from, so legacy callers get hot-swap-shaped plumbing at zero cost.
pub(crate) struct StaticSource<H: ServeHost + Send + Sync + 'static>(std::sync::Arc<H>);

impl<H: ServeHost + Send + Sync + 'static> StaticSource<H> {
    /// Wraps `host` as a never-swapping generation-1 source.
    pub(crate) fn new(host: H) -> Self {
        StaticSource(std::sync::Arc::new(host))
    }
}

impl<H: ServeHost + Send + Sync + 'static> GenerationSource for StaticSource<H> {
    fn current_generation(&self) -> (u64, std::sync::Arc<dyn ServeHost + Send + Sync>) {
        let host: std::sync::Arc<dyn ServeHost + Send + Sync> = self.0.clone();
        (1, host)
    }
}

/// One client's link to the server. All methods are client-side verbs; the
/// transport never does accounting — that stays in the
/// [`crate::PirSession`] on the near side of the boundary.
pub trait Transport {
    /// The server's published [`SystemSpec`] (Table 2 constants). Public by
    /// construction; the client prices every fetch from it.
    fn spec(&self) -> &SystemSpec;

    /// Page count of file `f` — public metadata (it is in every client's
    /// header) the cost model needs.
    fn file_pages(&self, f: FileId) -> Result<u32>;

    /// Announces a new query (the per-query "connection establishment" whose
    /// RTT the meter charges at round 1). On the wire this is an explicit
    /// `QueryOpen` frame, so the server can delimit and count queries
    /// per session; in-process it is a no-op.
    fn begin_query(&mut self) -> Result<()>;

    /// Serves one request/response exchange of protocol round `round`: all
    /// of `requests` in one pass, `out[i]` receiving the page of
    /// `requests[i]`. A round executed in stages (e.g. the HY continuation
    /// walk) calls this several times with the same `round` number — each
    /// call is one wire exchange. An empty request list still crosses the
    /// wire (it is how a fetch-free round is observed by the server).
    fn serve_round(
        &mut self,
        round: u32,
        requests: &[(FileId, u32)],
        out: &mut [PageBuf],
    ) -> Result<()>;

    /// Downloads file `f` in full (the header, which every client fetches
    /// whole — no PIR involved).
    fn download(&mut self, f: FileId) -> Result<Vec<u8>>;

    /// Closes the link (sends the close frame on a wire; no-op in-process).
    fn close(&mut self) -> Result<()>;

    /// Retransmissions this transport has performed so far. A perfect link
    /// never retries; a resilient one (a [`crate::wire::WireChannel`] under
    /// a [`crate::wire::RetryPolicy`]) reports its recovery work here.
    /// Deliberately **not** part of the [`crate::Meter`]: retry counts
    /// depend on the link, not the query, and the meter must stay
    /// bit-identical across clean and lossy links.
    fn retries(&self) -> u64 {
        0
    }
}

/// The in-process transport: direct calls into a shared [`PirServer`].
///
/// `H` is anything that can reach the server — `&PirServer`, an
/// `Arc<PirServer>`, or (via the core crate's `ServeHost` impl) an
/// `Arc<Database>`. The only state besides the host is the same-file run
/// scratch, kept so steady-state rounds stay allocation-free.
pub struct InProc<H: ServeHost> {
    host: H,
    run_pages: Vec<u32>,
}

impl<H: ServeHost> InProc<H> {
    /// A transport serving directly from `host`.
    pub fn new(host: H) -> Self {
        InProc {
            host,
            run_pages: Vec::new(),
        }
    }
}

impl<H: ServeHost> Transport for InProc<H> {
    fn spec(&self) -> &SystemSpec {
        self.host.pir_server().spec()
    }

    fn file_pages(&self, f: FileId) -> Result<u32> {
        self.host.pir_server().file_pages(f)
    }

    fn begin_query(&mut self) -> Result<()> {
        Ok(())
    }

    fn serve_round(
        &mut self,
        _round: u32,
        requests: &[(FileId, u32)],
        out: &mut [PageBuf],
    ) -> Result<()> {
        self.host
            .pir_server()
            .serve_requests(requests, &mut self.run_pages, out)
    }

    fn download(&mut self, f: FileId) -> Result<Vec<u8>> {
        self.host.pir_server().read_full(f)
    }

    fn close(&mut self) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::PirMode;
    use privpath_storage::DEFAULT_PAGE_SIZE;

    fn server() -> PirServer {
        let mut f = privpath_storage::MemFile::empty(DEFAULT_PAGE_SIZE);
        for p in 0..8u32 {
            let mut page = PageBuf::zeroed(DEFAULT_PAGE_SIZE);
            page.as_mut_slice()[..4].copy_from_slice(&p.to_le_bytes());
            f.push_page(page);
        }
        let mut srv = PirServer::new(SystemSpec::default());
        srv.add_file("Fd", f, PirMode::CostOnly).unwrap();
        srv
    }

    #[test]
    fn inproc_serves_rounds_and_downloads() {
        let srv = server();
        let mut link = InProc::new(&srv);
        assert_eq!(link.file_pages(FileId(0)).unwrap(), 8);
        let mut out = vec![PageBuf::zeroed(DEFAULT_PAGE_SIZE); 2];
        link.serve_round(2, &[(FileId(0), 3), (FileId(0), 5)], &mut out)
            .unwrap();
        assert_eq!(
            u32::from_le_bytes(out[0].as_slice()[..4].try_into().unwrap()),
            3
        );
        assert_eq!(
            u32::from_le_bytes(out[1].as_slice()[..4].try_into().unwrap()),
            5
        );
        let bytes = link.download(FileId(0)).unwrap();
        assert_eq!(bytes.len(), 8 * DEFAULT_PAGE_SIZE);
        link.begin_query().unwrap();
        link.close().unwrap();
    }

    #[test]
    fn inproc_works_through_arc_hosts() {
        let srv = std::sync::Arc::new(server());
        let mut link = InProc::new(std::sync::Arc::clone(&srv));
        let mut out = vec![PageBuf::zeroed(DEFAULT_PAGE_SIZE)];
        link.serve_round(1, &[(FileId(0), 7)], &mut out).unwrap();
        assert_eq!(
            u32::from_le_bytes(out[0].as_slice()[..4].try_into().unwrap()),
            7
        );
    }
}
