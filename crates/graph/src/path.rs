//! Paths: the answer format of a shortest-path query.

use crate::dijkstra::SpTree;
use crate::types::{Dist, NodeId};

/// A path through the network together with its total cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// Visited nodes, source first.
    pub nodes: Vec<NodeId>,
    /// Total cost.
    pub cost: Dist,
}

impl Path {
    /// Extracts the canonical path to `t` from a shortest-path tree.
    pub fn from_tree(tree: &SpTree, t: NodeId) -> Option<Path> {
        Some(Path {
            nodes: tree.path_nodes(t)?,
            cost: tree.dist[t as usize],
        })
    }

    /// Serialized size of the result in bytes (one u32 node id per node plus
    /// the u64 cost) — used by the communication cost model for the OBF
    /// baseline, which ships `|S|·|T|` whole paths back to the client.
    pub fn wire_bytes(&self) -> usize {
        8 + 4 * self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use crate::network::{NetworkBuilder, RoadNetwork};
    use crate::types::Point;

    fn chain() -> RoadNetwork {
        let mut b = NetworkBuilder::new();
        for i in 0..5 {
            b.add_node(Point::new(i, 0));
        }
        for i in 0..4u32 {
            b.add_undirected(i, i + 1, i + 1);
        }
        b.build()
    }

    #[test]
    fn from_tree_round_trip() {
        let g = chain();
        let t = dijkstra(&g, 0);
        let p = Path::from_tree(&t, 4).unwrap();
        assert_eq!(p.nodes, vec![0, 1, 2, 3, 4]);
        assert_eq!(p.cost, 1 + 2 + 3 + 4);
    }

    #[test]
    fn trivial_path() {
        let g = chain();
        let t = dijkstra(&g, 2);
        let p = Path::from_tree(&t, 2).unwrap();
        assert_eq!(p.nodes, vec![2]);
        assert_eq!(p.cost, 0);
        assert_eq!(p.wire_bytes(), 12);
    }
}
