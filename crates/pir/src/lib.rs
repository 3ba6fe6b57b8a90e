//! PIR substrate: the "black box" the paper builds on.
//!
//! The paper relies on hardware-aided PIR — the Williams–Sion *Usable PIR*
//! protocol \[36\] running on an IBM 4764 secure co-processor (SCP) — and,
//! exactly like the paper's own evaluation, we "strictly simulate its
//! performance" rather than require the hardware:
//!
//! * `spec` — [`SystemSpec`], the constants of Table 2 (page size, disk, SCP and
//!   crypto rates, 3G link) plus the protocol's structural limits: the SCP
//!   needs `c·√N` pages of memory, capping supported file sizes at ≈2.5 GB
//!   for the 32 MB IBM 4764;
//! * `cost` — the calibrated retrieval cost model: amortized
//!   `O(log² N)` page operations per fetch, anchored to the paper's "around
//!   one second to retrieve a page from a Gigabyte file";
//! * `prp` — [`Prp`], a keyed pseudo-random permutation (4-round Feistel with
//!   cycle-walking) used to shuffle oblivious stores;
//! * `backend` — *functional* oblivious stores: a [`LinearScanStore`]
//!   (information-theoretically oblivious) and a square-root-ORAM-style
//!   [`ShuffledStore`] with per-epoch reshuffles, both exposing their
//!   physical access sequence (bounded by `PhysicalLog`) so tests can
//!   check obliviousness;
//! * [`scan`] — the vectorized linear-scan kernel: multi-page run streaming
//!   through a reusable arena plus a branchless `u64`-lane masked select
//!   with constant work per page, the sharded [`scan::Sweep`] that runs
//!   one pass per page range, segment by segment, on the threads of the
//!   [`scan::Crew`] each linear-scan store keeps for its whole life, and the
//!   [`scan::Rotation`] rounds ride to share those passes;
//! * `fault` — a fault-injecting store wrapper (extension beyond the paper's
//!   honest-but-curious adversary);
//! * `trace` — the adversary-observable [`AccessTrace`] (which file was
//!   touched, in what order — never which page);
//! * `meter` — [`Meter`], simulated-time accounting (PIR, communication, server,
//!   client components, mirroring Table 3);
//! * `server` — the facade tying it together, split along the concurrency
//!   boundary: an immutable, `Arc`-shareable [`PirServer`] serves pages
//!   read-only while per-client [`PirSession`]s own the meters, traces and
//!   round counters, so many sessions can query one server in parallel;
//! * `transport` — the client/server trust boundary as a trait: sessions
//!   drive a [`Transport`], either [`InProc`] (direct calls into the shared
//!   server) or a wire channel;
//! * [`wire`] — the versioned, integrity-checked binary frame protocol
//!   (per-frame CRC + sequence numbers with idempotent server-side replay)
//!   and the multi-client [`ServerFront`] loop serving N [`WireChannel`]
//!   clients over sockets, with per-session server-side accounting,
//!   recorded adversary-observable frame streams, retry policies and
//!   graceful degradation (panic teardown, idle eviction, shutdown drains),
//!   plus shared laps (concurrent rounds of one linear-scan file join the
//!   sweep in progress and ride one lap of its rotation together), one
//!   reply frame per request;
//! * `wire::tcp` — the sockets: a front's one loop thread reads and
//!   writes every connection itself, loopback TCP ([`TcpFront`]) and
//!   in-process socket pairs alike (one non-blocking send per reply, an
//!   unsent tail held until the socket is writable, the connection unread
//!   meanwhile), and the [`SocketLink`] client [`FrameLink`] ([`TcpLink`]
//!   over TCP), one write per frame;
//! * `chaos` — deterministic fault injection for the transport stack:
//!   seeded [`FaultPlan`]s driving lossy [`ChaosLink`]s under any
//!   [`WireChannel`], and sabotage stores and disks for degradation tests.

#![warn(unreachable_pub)]

mod backend;
mod chaos;
mod cost;
mod error;
mod fault;
mod meter;
mod prp;
pub mod scan;
mod server;
mod spec;
mod trace;
mod transport;
pub mod wire;

pub use backend::{LinearScanStore, LogOverflow, ObliviousStore, ShuffledStore};
pub use chaos::{
    connect_chaos, ChaosLink, DiskFaultPlan, FaultPlan, FaultyDisk, GateDisk, PanicStore,
};
pub use cost::CostBreakdown;
pub use error::PirError;
pub use meter::Meter;
pub use prp::Prp;
pub use server::{FileId, PirMode, PirServer, PirSession};
pub use spec::SystemSpec;
pub use trace::{AccessTrace, TraceEvent};
pub use transport::{GenerationSource, InProc, ServeHost, Transport};
pub use wire::tcp::{SocketLink, TcpFront, TcpLink};
pub use wire::{
    FrameLink, FrontConfig, ObservedEvent, RetryPolicy, ServerFront, SessionStats, WireChannel,
};

/// Result alias for PIR operations.
pub type Result<T> = std::result::Result<T, PirError>;
