//! # privpath — Shortest Path Computation with No Information Leakage
//!
//! A full Rust reproduction of Mouratidis & Yiu, *"Shortest Path Computation
//! with No Information Leakage"*, PVLDB 5(8), 2012. The facade crate
//! re-exports the workspace crates so downstream users can depend on a single
//! crate:
//!
//! * [`storage`] — fixed-size disk pages, byte codecs, paged files;
//! * [`graph`] — road-network graphs, shortest-path algorithms, generators;
//! * [`partition`] — (packed) KD-tree network partitioning and border nodes;
//! * [`pir`] — the PIR substrate: SCP cost model (Table 2), oblivious
//!   backends, access traces;
//! * [`core`] — the paper's contribution: CI / PI / HY / PI* schemes and the
//!   LM / AF / OBF baselines — all behind one `Database`/`QuerySession`
//!   build-and-query API — plus the fixed-query-plan client/server protocol
//!   and the security auditor.
//!
//! ## Quick start
//!
//! ```
//! use privpath::core::engine::{Database, SchemeKind};
//! use privpath::graph::gen::{road_like, RoadGenConfig};
//! use std::sync::Arc;
//!
//! // A small synthetic road network (deterministic for a given seed).
//! let net = road_like(&RoadGenConfig { nodes: 500, extra_edge_frac: 0.15, seed: 7, ..Default::default() });
//!
//! // Build the Concise Index database, then query it privately through a session.
//! let db = Arc::new(Database::build(&net, SchemeKind::Ci, &Default::default()).unwrap());
//! let mut session = db.session();
//! let a = net.node_point(0);
//! let b = net.node_point((net.num_nodes() - 1) as u32);
//! let out = session.query(a, b).unwrap();
//! assert!(out.answer.found());
//! ```
//!
//! ## Concurrent querying
//!
//! A [`Database`](core::engine::Database) is immutable once built: share it
//! with an [`Arc`](std::sync::Arc), and open one
//! [`QuerySession`](core::engine::QuerySession) per thread. Sessions own all
//! mutable query state — the cost meter, the adversary trace, the
//! dummy-fetch RNG, and the reusable client scratch (CSR subgraph arena +
//! Dijkstra buffers), which is cleared, not reallocated, between queries.
//! Every scheme kind — including the LM/AF baselines (whose interleaved
//! fetch-and-search runs on the same CSR arena) and the non-PIR OBF
//! baseline — builds and queries through this one API.
//!
//! ```
//! use privpath::core::engine::{Database, SchemeKind};
//! use privpath::graph::gen::{road_like, RoadGenConfig};
//! use std::sync::Arc;
//!
//! let net = road_like(&RoadGenConfig { nodes: 300, seed: 7, ..Default::default() });
//! let db = Arc::new(Database::build(&net, SchemeKind::Ci, &Default::default()).unwrap());
//! std::thread::scope(|scope| {
//!     for client in 0..4u64 {
//!         let db = Arc::clone(&db);
//!         let net = &net;
//!         scope.spawn(move || {
//!             let mut session = db.session_with_seed(client);
//!             let out = session.query_nodes(net, 0, 99).unwrap();
//!             assert!(out.answer.found());
//!         });
//!     }
//! });
//! ```

pub use privpath_core as core;
pub use privpath_graph as graph;
pub use privpath_partition as partition;
pub use privpath_pir as pir;
pub use privpath_storage as storage;
