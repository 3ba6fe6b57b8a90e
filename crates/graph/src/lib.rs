//! Road-network substrate for privpath.
//!
//! The paper models a road network as a weighted graph `G = (V, E)` with
//! directed edges, positive weights, and Euclidean node coordinates (§3.1).
//! This crate provides:
//!
//! * [`network`] — the compressed-sparse-row [`network::RoadNetwork`] and its
//!   builder;
//! * [`dijkstra`](mod@dijkstra) — shortest paths with deterministic
//!   tie-breaking on std's `BinaryHeap`, as every Dijkstra in the system
//!   runs (canonical shortest-path trees drive the pre-computation of §5.2);
//! * [`path`] — path extraction from a shortest-path tree;
//! * [`gen`] — synthetic road-network generators reproducing the spatial
//!   sparsity of the paper's six datasets (Table 1);
//! * [`landmark`] — Landmark (ALT) pre-computation used by the LM baseline;
//! * [`arcflag`] — Arc-flag pre-computation used by the AF baseline;
//! * `bitset` — [`FixedBitset`], the fixed-width bitsets shared by arc flags
//!   and the region-set pre-computation.

#![warn(unreachable_pub)]

pub mod arcflag;
mod bitset;
pub mod dijkstra;
pub mod gen;
pub mod landmark;
pub mod network;
pub mod path;
pub mod types;

pub use bitset::FixedBitset;
pub use dijkstra::{dijkstra, dijkstra_to_target, SpTree, INFINITY};
pub use network::{NetworkBuilder, RoadNetwork};
pub use path::Path;
pub use types::{Dist, EdgeId, NodeId, Point, Weight};
