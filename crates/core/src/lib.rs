//! The paper's contribution: private shortest-path schemes with no
//! information leakage.
//!
//! Everything here implements Mouratidis & Yiu (PVLDB 2012):
//!
//! * [`augment`] — the augmented graph of §5.2: network edges subdivided at
//!   region crossings so border nodes become ordinary nodes during
//!   pre-processing;
//! * [`precompute`] — one Dijkstra per border node plus a bitset sweep over
//!   each shortest-path tree yields the region sets `S_ij` (CI) and exact
//!   subgraphs `G_ij` (PI) for every region pair;
//! * `records` — the network-index record formats, including the in-page
//!   delta compression of §5.5;
//! * [`files`] — the four database files: header `Fh`, look-up `Fl`, network
//!   index `Fi`, region data `Fd` (§5.3), plus the concatenated `Fi|Fd` used
//!   by HY;
//! * [`plan`] — fixed query plans: every query performs the same fetches in
//!   the same order, padded with dummy retrievals (§3.1);
//! * [`subgraph`] — client-side subgraph assembly, Dijkstra over the CSR
//!   arena, and the LM/AF interleaved fetch-and-search drivers;
//! * [`schemes`] — the CI, PI, HY and PI* engines (§5, §6) and the LM / AF /
//!   OBF baselines (§4, §7.3), all behind one build/query API;
//! * [`engine`] — the user-facing facade: build a [`engine::Database`] for
//!   any scheme, query it through [`engine::QuerySession`]s, inspect costs
//!   and traces;
//! * [`audit`] — Theorem 1 as executable checks: query indistinguishability
//!   via trace equality and plan conformance;
//! * `generation` — generation-stamped hot swap: a [`DbRegistry`] runs
//!   background rebuilds (updated edge weights) and atomically publishes
//!   new generations while pinned sessions drain on the old one, with
//!   crash-contained rebuild failure;
//! * [`snapshot`] — durable snapshots: [`engine::Database::persist`] writes
//!   a built database as one integrity-checked file (atomic rename,
//!   per-page checksums), [`engine::Database::open_snapshot`] reopens it
//!   memory-resident or disk-backed, and [`DbRegistry::recover`] cold-starts
//!   from the newest valid snapshot in a directory.

#![warn(unreachable_pub)]

pub mod audit;
pub mod augment;
pub mod config;
pub mod engine;
pub mod error;
pub mod files;
mod generation;
pub mod plan;
pub mod precompute;
mod records;
pub mod schemes;
pub mod snapshot;
pub mod subgraph;

pub use config::BuildConfig;
pub use engine::{Database, PathAnswer, QueryOutput, QuerySession, SchemeKind};
pub use error::CoreError;
pub use generation::{DbRegistry, RebuildHandle, RebuildStats};
pub use snapshot::StorageBackend;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
