//! PIR substrate: the "black box" the paper builds on.
//!
//! The paper relies on hardware-aided PIR — the Williams–Sion *Usable PIR*
//! protocol \[36\] running on an IBM 4764 secure co-processor (SCP) — and,
//! exactly like the paper's own evaluation, we "strictly simulate its
//! performance" rather than require the hardware:
//!
//! * [`spec`] — the system constants of Table 2 (page size, disk, SCP and
//!   crypto rates, 3G link) plus the protocol's structural limits: the SCP
//!   needs `c·√N` pages of memory, capping supported file sizes at ≈2.5 GB
//!   for the 32 MB IBM 4764;
//! * [`cost`] — the calibrated retrieval cost model: amortized
//!   `O(log² N)` page operations per fetch, anchored to the paper's "around
//!   one second to retrieve a page from a Gigabyte file";
//! * [`prp`] — a keyed pseudo-random permutation (4-round Feistel with
//!   cycle-walking) used to shuffle oblivious stores;
//! * [`backend`] — *functional* oblivious stores: a linear-scan store
//!   (information-theoretically oblivious) and a square-root-ORAM-style
//!   shuffled store with per-epoch reshuffles, both exposing their physical
//!   access sequence (bounded by [`backend::PhysicalLog`]) so tests can
//!   check obliviousness;
//! * [`scan`] — the vectorized linear-scan kernel: multi-page run streaming
//!   through a reusable arena plus a branchless `u64`-lane masked select
//!   with constant work per page, the sharded [`scan::Sweep`] that runs
//!   one pass per page range, segment by segment, on the threads of a
//!   lap's [`scan::Crew`], and the [`scan::Rotation`] rounds ride to share
//!   those passes;
//! * [`fault`] — a fault-injecting wrapper (extension beyond the paper's
//!   honest-but-curious adversary);
//! * [`trace`] — the adversary-observable access trace (which file was
//!   touched, in what order — never which page);
//! * [`meter`] — simulated-time accounting (PIR, communication, server,
//!   client components, mirroring Table 3);
//! * [`server`] — the facade tying it together, split along the concurrency
//!   boundary: an immutable, `Arc`-shareable [`PirServer`] serves pages
//!   read-only while per-client [`PirSession`]s own the meters, traces and
//!   round counters, so many sessions can query one server in parallel;
//! * [`transport`] — the client/server trust boundary as a trait: sessions
//!   drive a [`Transport`], either [`InProc`] (direct calls into the shared
//!   server) or a wire channel;
//! * [`wire`] — the versioned, integrity-checked binary frame protocol
//!   (per-frame CRC + sequence numbers with idempotent server-side replay)
//!   and the multi-client [`ServerFront`] loop serving N [`WireChannel`]
//!   clients over byte channels, with per-session server-side accounting,
//!   recorded adversary-observable frame streams, retry policies and
//!   graceful degradation (panic teardown, idle eviction, shutdown drains),
//!   plus shared laps (concurrent rounds of one linear-scan file join the
//!   sweep in progress and ride one lap of its rotation together) and
//!   chunked response streaming;
//! * [`wire::tcp`] — the same frames over real loopback sockets: a
//!   [`TcpFront`] accept loop with per-connection reader/writer threads and
//!   graceful drain, and the [`TcpLink`] client [`FrameLink`];
//! * [`chaos`] — deterministic fault injection for the transport stack:
//!   seeded [`FaultPlan`]s driving lossy [`ChaosLink`]s under any
//!   [`WireChannel`], the in-process [`ChaosHost`] analog, and sabotage
//!   stores for degradation tests.

pub mod backend;
pub mod chaos;
pub mod cost;
pub mod error;
pub mod fault;
pub mod meter;
pub mod prp;
pub mod scan;
pub mod server;
pub mod spec;
pub mod trace;
pub mod transport;
pub mod wire;

pub use backend::{LinearScanStore, LogOverflow, ObliviousStore, PhysicalLog, ShuffledStore};
pub use chaos::{
    connect_chaos, ChaosHost, ChaosLink, DiskFaultPlan, FaultPlan, FaultyDisk, GateDisk, PanicStore,
};
pub use cost::CostBreakdown;
pub use error::PirError;
pub use meter::Meter;
pub use prp::Prp;
pub use server::{FileId, PirMode, PirServer, PirSession};
pub use spec::SystemSpec;
pub use trace::{AccessTrace, TraceEvent};
pub use transport::{GenerationSource, InProc, ServeHost, StaticSource, Transport};
pub use wire::tcp::{TcpFront, TcpLink};
pub use wire::{
    FrameLink, FrontConfig, ObservedEvent, RetryPolicy, ServerFront, ServerInfo, SessionStats,
    WireChannel,
};

/// Result alias for PIR operations.
pub type Result<T> = std::result::Result<T, PirError>;
