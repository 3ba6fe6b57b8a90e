//! Road-network substrate for privpath.
//!
//! The paper models a road network as a weighted graph `G = (V, E)` with
//! directed edges, positive weights, and Euclidean node coordinates (§3.1).
//! This crate provides:
//!
//! * [`network`] — the compressed-sparse-row [`network::RoadNetwork`] and its
//!   builder;
//! * [`dijkstra`](mod@dijkstra) / [`astar`] — shortest-path algorithms with deterministic
//!   tie-breaking (canonical shortest-path trees drive the pre-computation of
//!   §5.2);
//! * [`path`] — path extraction and verification;
//! * [`gen`] — synthetic road-network generators reproducing the spatial
//!   sparsity of the paper's six datasets (Table 1);
//! * [`heap`] — the indexed binary-heap kernel (decrease-key, reusable
//!   buffers) shared by every Dijkstra in the system, offline and online;
//! * [`landmark`] — Landmark (ALT) pre-computation used by the LM baseline;
//! * [`arcflag`] — Arc-flag pre-computation used by the AF baseline;
//! * [`bitset`] — fixed-width bitsets shared by arc flags and the region-set
//!   pre-computation.

pub mod arcflag;
pub mod astar;
pub mod bitset;
pub mod dijkstra;
pub mod gen;
pub mod heap;
pub mod landmark;
pub mod network;
pub mod path;
pub mod types;

pub use bitset::FixedBitset;
pub use dijkstra::{dijkstra, dijkstra_to_target, SpTree, INFINITY};
pub use heap::IndexedMinHeap;
pub use network::{NetworkBuilder, RoadNetwork};
pub use path::Path;
pub use types::{Dist, EdgeId, NodeId, Point, Weight};
