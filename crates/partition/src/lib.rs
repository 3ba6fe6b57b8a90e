//! Network partitioning for privpath.
//!
//! The CI/PI/HY/PI* schemes all start by partitioning the road network into
//! regions via a KD-tree superimposed on the Euclidean embedding (§5.1). Two
//! constructions are provided:
//!
//! * [`builder::partition_plain`] — the textbook KD-tree that splits at the
//!   median node until each leaf's serialized data fits in a page; up to 50%
//!   of each page can end up unused;
//! * [`builder::partition_packed`] — the paper's packed construction (§5.6):
//!   an unbalanced tree whose byte-positioned splits guarantee high page
//!   utilization (>95% measured, Figure 8).
//!
//! [`compute_borders`] computes **border nodes** — the intersection points of network
//! edges with the (bounded) splitting segments (§5.2) — by exact-fraction
//! clipping of each edge through the leaf cells.
//!
//! Split lines live at *odd doubled coordinates* (`2·c − 1`): node
//! coordinates are integers, so doubling guarantees no node ever lies exactly
//! on a split line and every region crossing is a strictly interior point of
//! some edge. This keeps the paper's fundamental border-node property
//! ("any path leaving a region passes through one of its border nodes")
//! unconditional.

#![warn(unreachable_pub)]

mod borders;
mod builder;
mod frac;
mod kdtree;

pub use borders::{compute_borders, ArcCrossing, BorderNode, Borders};
pub use builder::{partition_into, partition_packed, partition_plain, Partition};
pub use frac::Frac;
pub use kdtree::{KdNode, KdTree, RegionId};
