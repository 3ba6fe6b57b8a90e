//! The user-facing engine: build a private shortest-path database for a
//! scheme, then run queries that leak nothing to the server.
//!
//! The types are split along the concurrency boundary:
//!
//! * [`Database`] — the immutable built artifact: the scheme state, the
//!   [`PirServer`] hosting the files, and the build statistics. Wrap it in
//!   an [`Arc`] and hand clones to as many threads as you like.
//! * [`QuerySession`] — one client's mutable query state: the PIR session
//!   (meter, trace, round counter), the RNG driving dummy fetches, and the
//!   reusable client-side scratch (subgraph arena + Dijkstra buffers).
//!   Sessions are cheap to create and fully independent; `N` sessions over
//!   one shared database run `N` queries concurrently.

use crate::config::BuildConfig;
use crate::error::CoreError;
use crate::files::fh::Header;
use crate::plan::{PlanFile, QueryPlan};
use crate::schemes::baseline::{self, BaselineScheme};
use crate::schemes::index_scheme::{self, BuildStats, IndexFlavor, IndexScheme};
use crate::schemes::obf::ObfScheme;
use crate::subgraph::{ClientSubgraph, QueryScratch};
use crate::Result;
use privpath_graph::network::RoadNetwork;
use privpath_graph::types::{Dist, NodeId, Point};
use privpath_pir::{
    connect_chaos, AccessTrace, FaultPlan, FileId, FrontConfig, InProc, Meter, PirServer,
    PirSession, RetryPolicy, ServeHost, ServerFront, TcpFront, Transport,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The schemes of the paper's evaluation (§7): the four PIR index schemes,
/// the two PIR baselines, and the non-PIR obfuscation baseline. All seven
/// build into a [`Database`] and query through a [`QuerySession`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Concise Index (§5).
    Ci,
    /// Passage Index (§6).
    Pi,
    /// Hybrid (§6).
    Hy,
    /// Clustered Passage Index (§6) — PI with `cluster_pages > 1`.
    PiStar,
    /// Landmark baseline (§4).
    Lm,
    /// Arc-flag baseline (§4).
    Af,
    /// Obfuscation baseline (§7.3) — decoy candidate sets, no PIR. Weak
    /// privacy (the LBS learns both sets); measured for performance context.
    Obf,
}

impl SchemeKind {
    /// All seven scheme kinds, in the paper's presentation order — the one
    /// canonical list for "sweep every scheme" call sites (the consistency
    /// and leakage suites, snapshot reopening), so adding an eighth kind
    /// updates them all at once.
    pub const ALL: [SchemeKind; 7] = [
        SchemeKind::Ci,
        SchemeKind::Pi,
        SchemeKind::Hy,
        SchemeKind::PiStar,
        SchemeKind::Lm,
        SchemeKind::Af,
        SchemeKind::Obf,
    ];

    /// Header discriminator byte.
    pub fn byte(self) -> u8 {
        match self {
            SchemeKind::Ci => 1,
            SchemeKind::Pi => 2,
            SchemeKind::Hy => 3,
            SchemeKind::PiStar => 4,
            SchemeKind::Lm => 5,
            SchemeKind::Af => 6,
            SchemeKind::Obf => 7,
        }
    }

    /// Inverse of [`SchemeKind::byte`] — used when reopening a persisted
    /// snapshot, whose meta block records the scheme as its header byte.
    pub(crate) fn from_byte(b: u8) -> Option<SchemeKind> {
        SchemeKind::ALL.into_iter().find(|k| k.byte() == b)
    }

    /// Display name as used in the paper's charts.
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Ci => "CI",
            SchemeKind::Pi => "PI",
            SchemeKind::Hy => "HY",
            SchemeKind::PiStar => "PI*",
            SchemeKind::Lm => "LM",
            SchemeKind::Af => "AF",
            SchemeKind::Obf => "OBF",
        }
    }

    /// True for the PIR-based schemes whose Theorem 1 trace-equality
    /// guarantee applies (everything except OBF).
    pub fn is_pir(self) -> bool {
        !matches!(self, SchemeKind::Obf)
    }
}

/// The shortest-path answer returned to the client.
#[derive(Debug, Clone)]
pub struct PathAnswer {
    /// Path cost, or `None` if the destination is unreachable.
    pub cost: Option<Dist>,
    /// Node sequence of the found path (empty when unreachable).
    pub path_nodes: Vec<NodeId>,
    /// Node the source point snapped to.
    pub src_node: NodeId,
    /// Node the destination point snapped to.
    pub dst_node: NodeId,
}

impl PathAnswer {
    /// True if a path was found.
    pub fn found(&self) -> bool {
        self.cost.is_some()
    }
}

/// Everything a query produces: the answer, the simulated costs, and the
/// adversary-observable trace.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// The path.
    pub answer: PathAnswer,
    /// Cost accounting (PIR / communication / server / client, Table 3).
    pub meter: Meter,
    /// What the adversary saw.
    pub trace: AccessTrace,
    /// True if the query needed more fetches than the fixed plan allows
    /// (possible only for LM/AF with sampled plan derivation; see
    /// `BuildConfig::plan_sample`).
    pub plan_violation: bool,
}

impl QueryOutput {
    /// The output of the query `pir` just ran: the answer — `path` is kept
    /// only when a `cost` was found — and the session's meter and trace.
    pub(crate) fn new(
        pir: &PirSession,
        cost: Option<Dist>,
        path: &[NodeId],
        (src_node, dst_node): (NodeId, NodeId),
        plan_violation: bool,
    ) -> Self {
        QueryOutput {
            answer: PathAnswer {
                cost,
                path_nodes: cost.map_or(Vec::new(), |_| path.to_vec()),
                src_node,
                dst_node,
            },
            meter: pir.meter.clone(),
            trace: pir.trace.clone(),
            plan_violation,
        }
    }
}

pub(crate) enum SchemeState {
    Index(IndexScheme),
    Baseline(BaselineScheme),
    Obf(ObfScheme),
}

/// Per-session mutable query state handed to the scheme protocol drivers.
///
/// Everything a query mutates lives here: PIR accounting, the dummy-fetch
/// RNG, and the reusable client compute buffers. The buffers are cleared —
/// not reallocated — between queries, so steady-state queries stay off the
/// allocator.
pub(crate) struct QueryCtx {
    /// PIR protocol accounting (meter, trace, rounds) and the batched-round
    /// executor with its reusable page arena.
    pub(crate) pir: PirSession,
    /// Dummy-request page choices.
    pub(crate) rng: SmallRng,
    /// Client-side subgraph arena (interner, arc rows, region memo).
    pub(crate) sub: ClientSubgraph,
    /// Client-side Dijkstra solver state (distances, heap, path buffer).
    pub(crate) scratch: QueryScratch,
    /// Round-assembly scratch: the `(file, page)` list a scheme builds up
    /// before issuing the round as one batch. Cleared — never reallocated —
    /// between rounds.
    pub(crate) reqs: Vec<(FileId, u32)>,
    /// Unsealed-payload scratch: the index family's round-3 window (and
    /// HY's continuation pages), then each multi-page region group.
    /// Cleared between uses.
    pub(crate) payloads: Vec<u8>,
}

impl QueryCtx {
    fn new(seed: u64) -> Self {
        QueryCtx {
            pir: PirSession::new(),
            rng: SmallRng::seed_from_u64(seed),
            sub: ClientSubgraph::new(),
            scratch: QueryScratch::new(),
            reqs: Vec::new(),
            payloads: Vec::new(),
        }
    }
}

/// A built private shortest-path database plus its (immutable) server.
///
/// Fields are `pub(crate)` so [`crate::snapshot`] can persist a built
/// database to disk and reconstruct one from a snapshot without widening
/// the public API.
pub struct Database {
    pub(crate) kind: SchemeKind,
    pub(crate) server: PirServer,
    pub(crate) state: SchemeState,
    pub(crate) stats: BuildStats,
    pub(crate) seed: u64,
}

impl Database {
    /// Builds the database for `kind` over `net` and stands up the LBS.
    pub fn build(net: &RoadNetwork, kind: SchemeKind, cfg: &BuildConfig) -> Result<Database> {
        let mut cfg = cfg.clone();
        match kind {
            SchemeKind::PiStar => {
                if cfg.cluster_pages < 2 {
                    cfg.cluster_pages = 2;
                }
            }
            SchemeKind::Pi => {}
            _ => cfg.cluster_pages = 1,
        }
        let mut server = PirServer::new(cfg.spec.clone());
        let (state, stats) = match kind {
            SchemeKind::Ci => {
                let (s, st) =
                    index_scheme::build(net, IndexFlavor::Sets, kind.byte(), &cfg, &mut server)?;
                (SchemeState::Index(s), st)
            }
            SchemeKind::Pi | SchemeKind::PiStar => {
                let (s, st) =
                    index_scheme::build(net, IndexFlavor::Graphs, kind.byte(), &cfg, &mut server)?;
                (SchemeState::Index(s), st)
            }
            SchemeKind::Hy => {
                let threshold = cfg.hy_threshold.unwrap_or(usize::MAX);
                let (s, st) = index_scheme::build(
                    net,
                    IndexFlavor::Hybrid { threshold },
                    kind.byte(),
                    &cfg,
                    &mut server,
                )?;
                (SchemeState::Index(s), st)
            }
            SchemeKind::Lm | SchemeKind::Af => {
                let (s, st) = baseline::build(net, kind, &cfg, &mut server)?;
                (SchemeState::Baseline(s), st)
            }
            SchemeKind::Obf => {
                let (s, st) = crate::schemes::obf::build(net, &cfg, &mut server)?;
                (SchemeState::Obf(s), st)
            }
        };
        Ok(Database {
            kind,
            server,
            state,
            stats,
            seed: cfg.seed,
        })
    }

    /// The scheme this database serves.
    pub fn kind(&self) -> SchemeKind {
        self.kind
    }

    /// Build statistics (regions, borders, m, utilization, page counts).
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    /// The PIR server hosting the files.
    pub fn server(&self) -> &PirServer {
        &self.server
    }

    /// Total database size in bytes — the storage-space metric of the
    /// evaluation charts.
    pub fn db_bytes(&self) -> u64 {
        self.server.total_bytes()
    }

    /// The fixed query plan.
    pub fn plan(&self) -> &QueryPlan {
        match &self.state {
            SchemeState::Index(s) => &s.header.plan,
            SchemeState::Baseline(s) => &s.header.plan,
            SchemeState::Obf(s) => &s.plan,
        }
    }

    /// The parsed public header, or `None` for OBF (which has no PIR files).
    /// The header is public by construction — every client downloads it in
    /// full — so exposing it leaks nothing.
    pub fn header(&self) -> Option<&Header> {
        match &self.state {
            SchemeState::Index(s) => Some(&s.header),
            SchemeState::Baseline(s) => Some(&s.header),
            SchemeState::Obf(_) => None,
        }
    }

    /// Stands up a wire server front for this database: a loop thread that
    /// owns an `Arc` of it and serves any number of [`QuerySession`]s
    /// connected through [`Database::wire_session_with_seed`] (or raw
    /// [`privpath_pir::WireChannel`]s) over the versioned frame protocol.
    /// A front stood up this way serves this database forever; for live
    /// rebuild-and-swap serving, wrap it in a
    /// [`crate::generation::DbRegistry`] and serve through
    /// [`crate::generation::DbRegistry::serve_wire`] instead.
    pub fn serve_wire(self: &Arc<Self>) -> ServerFront {
        ServerFront::spawn(Arc::clone(self))
    }

    /// [`Database::serve_wire`] with explicit degradation knobs (idle
    /// eviction etc.).
    pub fn serve_wire_with(self: &Arc<Self>, cfg: FrontConfig) -> ServerFront {
        ServerFront::spawn_with(Arc::clone(self), cfg)
    }

    /// Stands up a network-real server for this database: the same front
    /// loop as [`Database::serve_wire`], behind a loopback TCP accept loop
    /// serving the frame protocol over real sockets
    /// ([`privpath_pir::TcpFront`]). Clients connect through
    /// [`Database::tcp_session_with_seed`] or any [`privpath_pir::TcpLink`].
    pub fn serve_tcp(self: &Arc<Self>) -> Result<TcpFront> {
        self.serve_tcp_with(FrontConfig::default())
    }

    /// [`Database::serve_tcp`] with an explicit [`FrontConfig`], whose one
    /// knob is [`FrontConfig::idle_timeout`] for idle eviction. Every reply
    /// is one frame, however large, and how concurrent rounds share
    /// linear-scan sweeps is not a knob either: they always join the lap in
    /// progress (see `privpath_pir::wire`).
    pub(crate) fn serve_tcp_with(self: &Arc<Self>, cfg: FrontConfig) -> Result<TcpFront> {
        Ok(TcpFront::spawn_with(Arc::clone(self), cfg)?)
    }

    /// Opens a query session over a real TCP connection to `front`. Same
    /// contract as [`Database::wire_session_with_seed`], but every frame
    /// crosses a loopback socket.
    pub fn tcp_session_with_seed(
        self: &Arc<Self>,
        front: &TcpFront,
        seed: u64,
    ) -> Result<QuerySession> {
        let chan = front.connect()?;
        Ok(self.session_over(seed, Box::new(chan)))
    }

    /// Opens a TCP session through a client-side [`privpath_pir::ChaosLink`]
    /// fault injector layered over the socket; the channel recovers per
    /// `policy`. The chaos-under-TCP differential in `tests/chaos.rs`
    /// checks answers and meters stay bit-identical to a clean session.
    pub fn chaos_tcp_session_with_seed(
        self: &Arc<Self>,
        front: &TcpFront,
        seed: u64,
        plan: FaultPlan,
        policy: RetryPolicy,
    ) -> Result<QuerySession> {
        let chan = front.connect_chaos(plan, policy)?;
        Ok(self.session_over(seed, Box::new(chan)))
    }

    /// Maps a plan file to the concrete server [`FileId`] this database
    /// registered for it, or `None` when the scheme has no such file. This
    /// is what lets [`crate::audit::check_plan_conformance`] verify a
    /// recorded trace against [`Database::plan`].
    pub fn file_of(&self, file: PlanFile) -> Option<FileId> {
        match (&self.state, file) {
            (SchemeState::Index(s), PlanFile::Header) => Some(s.header_file),
            (SchemeState::Index(s), PlanFile::Lookup) => Some(s.lookup_file),
            (SchemeState::Index(s), PlanFile::Index) => Some(s.index_file),
            (SchemeState::Index(s), PlanFile::Data) => Some(s.data_file),
            // HY registers one combined `Fi|Fd` file under the index id.
            (SchemeState::Index(s), PlanFile::Combined) => Some(s.index_file),
            (SchemeState::Baseline(s), PlanFile::Header) => Some(s.header_file),
            (SchemeState::Baseline(s), PlanFile::Data) => Some(s.data_file),
            _ => None,
        }
    }

    /// Opens a query session with the database's default RNG stream, derived
    /// from [`BuildConfig::seed`]: two sessions opened this way make the same
    /// dummy-page choices.
    pub fn session(self: &Arc<Self>) -> QuerySession {
        self.session_with_seed(self.seed ^ 0x9e37)
    }

    /// Opens a query session with an explicit RNG seed — give each thread
    /// of a parallel workload its own seed. The session runs over the
    /// in-process transport: direct calls into this database's server.
    pub fn session_with_seed(self: &Arc<Self>, seed: u64) -> QuerySession {
        self.session_over(seed, Box::new(InProc::new(Arc::clone(self))))
    }

    /// Opens a query session over a wire connection to `front` (which must
    /// serve this same database — answers are wrong otherwise, exactly as
    /// with a real misdirected client). Every protocol operation of the
    /// session crosses the frame protocol into the front's loop thread.
    pub fn wire_session_with_seed(
        self: &Arc<Self>,
        front: &ServerFront,
        seed: u64,
    ) -> Result<QuerySession> {
        let chan = front.connect()?;
        Ok(self.session_over(seed, Box::new(chan)))
    }

    /// Opens a wire session through a fault-injected link: frames to and
    /// from `front` pass a [`privpath_pir::ChaosLink`] running `plan`, and
    /// the channel recovers per `policy`. Answers, meters and traces are
    /// bit-identical to a clean-link session (the chaos differential suite
    /// enforces it) — only [`QuerySession::transport_retries`] differs.
    pub fn chaos_wire_session_with_seed(
        self: &Arc<Self>,
        front: &ServerFront,
        seed: u64,
        plan: FaultPlan,
        policy: RetryPolicy,
    ) -> Result<QuerySession> {
        let chan = connect_chaos(front, plan, policy)?;
        Ok(self.session_over(seed, Box::new(chan)))
    }

    /// Opens a query session over an explicit transport.
    pub fn session_over(
        self: &Arc<Self>,
        seed: u64,
        link: Box<dyn Transport + Send>,
    ) -> QuerySession {
        QuerySession {
            db: Arc::clone(self),
            ctx: QueryCtx::new(seed),
            link,
        }
    }
}

impl ServeHost for Database {
    fn pir_server(&self) -> &PirServer {
        &self.server
    }
}

/// One client's query session over a shared [`Database`], bound to a
/// [`Transport`] — the in-process reference path by default, or a wire
/// channel into a [`ServerFront`]. Every scheme's round execution drives
/// through the transport; there is no scheme-shaped special case at the
/// boundary, and no transport-shaped one either (the differential suite in
/// `tests/leakage.rs` holds wire and in-process execution observably
/// identical per scheme).
pub struct QuerySession {
    db: Arc<Database>,
    ctx: QueryCtx,
    link: Box<dyn Transport + Send>,
}

impl QuerySession {
    /// Runs one private query from `s` to `t` (Euclidean points anywhere on
    /// the network; they are snapped to nodes of their host regions).
    pub fn query(&mut self, s: Point, t: Point) -> Result<QueryOutput> {
        let db = Arc::clone(&self.db);
        let link = self.link.as_mut();
        match &db.state {
            SchemeState::Index(scheme) => index_scheme::query(scheme, link, &mut self.ctx, s, t),
            SchemeState::Baseline(scheme) => baseline::query(scheme, link, &mut self.ctx, s, t),
            SchemeState::Obf(scheme) => {
                crate::schemes::obf::query(scheme, link, &mut self.ctx, s, t)
            }
        }
    }

    /// Retransmissions the session's transport has performed so far. Zero
    /// on a perfect link; under chaos this is the recovery work the retry
    /// policy spent. Deliberately *not* part of the query meter — retries
    /// depend on the link, not the query, and meters stay bit-identical
    /// across link quality.
    pub fn transport_retries(&self) -> u64 {
        self.link.retries()
    }

    /// Closes the session's transport (sends the close frame on a wire;
    /// no-op in-process).
    pub fn close(mut self) -> Result<()> {
        self.link.close().map_err(CoreError::from)
    }

    /// Convenience: query between two node ids of the original network.
    pub fn query_nodes(&mut self, net: &RoadNetwork, s: NodeId, t: NodeId) -> Result<QueryOutput> {
        if s as usize >= net.num_nodes() || t as usize >= net.num_nodes() {
            return Err(CoreError::Query("node id out of range".into()));
        }
        self.query(net.node_point(s), net.node_point(t))
    }
}

#[cfg(test)]
impl QuerySession {
    /// Bytes of region payload the session's region memo holds.
    pub(crate) fn memo_len(&self) -> usize {
        self.ctx.sub.memo_len()
    }
}
