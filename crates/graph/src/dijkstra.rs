//! Dijkstra's algorithm with deterministic tie-breaking.
//!
//! The pre-computation of §5.2 runs one Dijkstra per border node and walks the
//! resulting shortest-path trees; determinism (given the CSR arc order) makes
//! database construction reproducible. Clients also run plain Dijkstra over
//! the retrieved subgraph (§5.4).

use crate::heap::IndexedMinHeap;
use crate::network::RoadNetwork;
use crate::types::{Dist, NodeId};

/// Unreachable distance marker.
pub const INFINITY: Dist = Dist::MAX;

/// Sentinel for "no parent".
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// A shortest-path tree rooted at `source`.
#[derive(Debug, Clone)]
pub struct SpTree {
    /// The root.
    pub(crate) source: NodeId,
    /// `dist[u]` — cost of the shortest path from `source` to `u`
    /// ([`INFINITY`] if unreachable).
    pub dist: Vec<Dist>,
    /// `parent[u]` — predecessor of `u` on the canonical shortest path
    /// ([`NO_PARENT`] for the source and unreachable nodes).
    pub(crate) parent: Vec<NodeId>,
}

impl SpTree {
    /// True if `u` was reached.
    pub(crate) fn reached(&self, u: NodeId) -> bool {
        self.dist[u as usize] != INFINITY
    }

    /// Walks the canonical path from the source to `t`, returning the node
    /// sequence, or `None` if `t` is unreachable.
    pub(crate) fn path_nodes(&self, t: NodeId) -> Option<Vec<NodeId>> {
        if !self.reached(t) {
            return None;
        }
        let mut nodes = vec![t];
        let mut cur = t;
        while self.parent[cur as usize] != NO_PARENT {
            cur = self.parent[cur as usize];
            nodes.push(cur);
        }
        nodes.reverse();
        debug_assert_eq!(nodes[0], self.source);
        Some(nodes)
    }
}

/// Runs Dijkstra from `source` to all nodes.
pub fn dijkstra(net: &RoadNetwork, source: NodeId) -> SpTree {
    dijkstra_impl(net, source, None)
}

/// Runs Dijkstra from `source`, stopping as soon as `target` is settled.
/// Distances of unsettled nodes are whatever the partial run produced; only
/// `target`'s entries (and those of already-settled nodes) are final.
pub fn dijkstra_to_target(net: &RoadNetwork, source: NodeId, target: NodeId) -> SpTree {
    dijkstra_impl(net, source, Some(target))
}

fn dijkstra_impl(net: &RoadNetwork, source: NodeId, target: Option<NodeId>) -> SpTree {
    let n = net.num_nodes();
    let mut dist = vec![INFINITY; n];
    let mut parent = vec![NO_PARENT; n];
    // Keys are `(dist, node)`: the node-id tie-break makes pop order — and
    // hence the canonical tree — independent of heap internals. Decrease-key
    // means a popped node's distance is final: settle order equals pop order
    // with no staleness filtering.
    let mut heap = IndexedMinHeap::new();
    heap.reset(n);

    dist[source as usize] = 0;
    heap.push(source, (0, source));

    while let Some(u) = heap.pop() {
        let d = dist[u as usize];
        if target == Some(u) {
            break;
        }
        for (_, v, w) in net.arcs_from(u) {
            let nd = d + Dist::from(w);
            let dv = &mut dist[v as usize];
            if nd < *dv || (nd == *dv && parent[v as usize] != NO_PARENT && u < parent[v as usize])
            {
                // Strictly better, or an equal-cost path from a smaller-id
                // predecessor: the latter keeps the canonical tree unique
                // regardless of arc insertion order.
                // A tie can only be observed before `v` settles (weights are
                // >= 1), so the relaxation never resurrects a settled node —
                // its heap key only changes while it is still enqueued.
                *dv = nd;
                parent[v as usize] = u;
                heap.push_or_decrease(v, (nd, v));
            }
        }
    }

    SpTree {
        source,
        dist,
        parent,
    }
}

/// Point-to-point distance, or [`INFINITY`] if unreachable.
pub fn distance(net: &RoadNetwork, s: NodeId, t: NodeId) -> Dist {
    if s == t {
        return 0;
    }
    dijkstra_to_target(net, s, t).dist[t as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkBuilder;
    use crate::types::Point;

    /// Weight-respecting relaxation check: verifies that `tree` is a valid
    /// shortest-path tree for `net` (every arc satisfies the triangle inequality
    /// and every parent arc is tight).
    fn verify_sp_tree(net: &RoadNetwork, tree: &SpTree) -> bool {
        for u in 0..net.num_nodes() as u32 {
            let du = tree.dist[u as usize];
            if du == INFINITY {
                continue;
            }
            for (_, v, w) in net.arcs_from(u) {
                let dv = tree.dist[v as usize];
                if dv == INFINITY || dv > du + Dist::from(w) {
                    return false;
                }
            }
            if u != tree.source {
                let p = tree.parent[u as usize];
                if p == NO_PARENT {
                    return false;
                }
                let tight = net
                    .arcs_from(p)
                    .any(|(_, h, w)| h == u && tree.dist[p as usize] + Dist::from(w) == du);
                if !tight {
                    return false;
                }
            }
        }
        true
    }

    fn grid3() -> RoadNetwork {
        // 3x3 grid, unit weights, undirected.
        let mut b = NetworkBuilder::new();
        for y in 0..3 {
            for x in 0..3 {
                b.add_node(Point::new(x, y));
            }
        }
        let id = |x: i32, y: i32| (y * 3 + x) as u32;
        for y in 0..3 {
            for x in 0..3 {
                if x + 1 < 3 {
                    b.add_undirected(id(x, y), id(x + 1, y), 1);
                }
                if y + 1 < 3 {
                    b.add_undirected(id(x, y), id(x, y + 1), 1);
                }
            }
        }
        b.build()
    }

    #[test]
    fn distances_on_grid() {
        let g = grid3();
        let t = dijkstra(&g, 0);
        // Manhattan distances on the unit grid.
        for y in 0..3i32 {
            for x in 0..3i32 {
                assert_eq!(t.dist[(y * 3 + x) as usize], (x + y) as Dist);
            }
        }
        assert!(verify_sp_tree(&g, &t));
    }

    #[test]
    fn path_extraction() {
        let g = grid3();
        let t = dijkstra(&g, 0);
        let nodes = t.path_nodes(8).unwrap();
        assert_eq!(nodes.first(), Some(&0));
        assert_eq!(nodes.last(), Some(&8));
        assert_eq!(nodes.len(), 5); // 4 hops
        let cost: Dist = nodes
            .windows(2)
            .map(|w| {
                let (_, _, weight) = g.arcs_from(w[0]).find(|&(_, h, _)| h == w[1]).unwrap();
                Dist::from(weight)
            })
            .sum();
        assert_eq!(cost, t.dist[8]);
    }

    #[test]
    fn early_exit_settles_target() {
        let g = grid3();
        let t = dijkstra_to_target(&g, 0, 4);
        assert_eq!(t.dist[4], 2);
    }

    #[test]
    fn unreachable_reported() {
        let mut b = NetworkBuilder::new();
        b.add_node(Point::new(0, 0));
        b.add_node(Point::new(1, 0));
        b.add_node(Point::new(2, 0));
        b.add_arc(0, 1, 1);
        let g = b.build();
        let t = dijkstra(&g, 0);
        assert!(!t.reached(2));
        assert!(t.path_nodes(2).is_none());
        assert_eq!(distance(&g, 0, 2), INFINITY);
    }

    #[test]
    fn directed_asymmetry() {
        let mut b = NetworkBuilder::new();
        b.add_node(Point::new(0, 0));
        b.add_node(Point::new(1, 0));
        b.add_arc(0, 1, 7);
        let g = b.build();
        assert_eq!(distance(&g, 0, 1), 7);
        assert_eq!(distance(&g, 1, 0), INFINITY);
        assert_eq!(distance(&g, 0, 0), 0);
    }

    #[test]
    fn ties_break_canonically() {
        // Two equal-cost paths 0->1->3 and 0->2->3; the canonical tree must
        // pick parent 1 (smaller predecessor id) for node 3.
        let mut b = NetworkBuilder::new();
        for i in 0..4 {
            b.add_node(Point::new(i, 0));
        }
        b.add_arc(0, 2, 1);
        b.add_arc(2, 3, 1);
        b.add_arc(0, 1, 1);
        b.add_arc(1, 3, 1);
        let g = b.build();
        let t = dijkstra(&g, 0);
        assert_eq!(t.dist[3], 2);
        assert_eq!(t.parent[3], 1);
    }
}
