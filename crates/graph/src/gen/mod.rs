//! Synthetic road-network generators.
//!
//! The paper evaluates on six real road networks (Table 1: Oldenburg,
//! Germany, Argentina, Denmark, India, North America). Those datasets are not
//! redistributable here, so we generate *road-like* networks with the same
//! node and edge counts: spatial points connected by a Euclidean
//! minimum-spanning-tree skeleton plus short shortcut edges, which reproduces
//! the extreme sparsity (edge/node ratio ≈ 1.03–1.15) and strong spatial
//! locality of real road graphs — the two properties every measured quantity
//! in the paper depends on (page counts, region-set sizes, search effort).
//!
//! EXPERIMENTS.md ("Network scales") records the sizes the stand-ins are run
//! at. No loader for real datasets ships: the DIMACS and node/edge-list
//! parsers that had no caller were removed, and come back from git history
//! with the first dataset the repository holds.

mod grid;
mod paper;
mod road;
mod spatial;

pub use grid::{grid_network, GridGenConfig};
pub use paper::{paper_network, PaperNetwork, ALL_PAPER_NETWORKS};
pub use road::{road_like, RoadGenConfig};
pub use spatial::GridIndex;
