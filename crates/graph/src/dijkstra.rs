//! Dijkstra's algorithm with deterministic tie-breaking.
//!
//! The pre-computation of §5.2 runs one Dijkstra per border node and walks the
//! resulting shortest-path trees; determinism (given the CSR arc order) makes
//! database construction reproducible. Clients also run plain Dijkstra over
//! the retrieved subgraph (§5.4).

use crate::network::RoadNetwork;
use crate::types::{Dist, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
    // A lazy-deletion heap keyed by `(dist, node)`: the node-id tie-break
    // makes pop order — and hence the canonical tree — independent of heap
    // internals. An entry is pushed only on a strict improvement, so each
    // node has at most one live entry (its key is `(dist[v], v)`), and one
    // popped with `d > dist[u]` is stale.
    let mut heap = BinaryHeap::new();

    dist[source as usize] = 0;
    heap.push(Reverse((0, source)));

    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        if target == Some(u) {
            break;
        }
        for (_, v, w) in net.arcs_from(u) {
            let nd = d + Dist::from(w);
            let (dv, pv) = (dist[v as usize], parent[v as usize]);
            if nd < dv {
                dist[v as usize] = nd;
                parent[v as usize] = u;
                heap.push(Reverse((nd, v)));
            } else if nd == dv && pv != NO_PARENT && u < pv {
                // An equal-cost path from a smaller-id predecessor: keeps
                // the canonical tree unique regardless of arc insertion
                // order. The key is unchanged, so `v` keeps its one entry;
                // a second equal one would settle it twice. A tie can only
                // be observed before `v` settles (weights are >= 1).
                parent[v as usize] = u;
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
    use crate::gen::{grid_network, GridGenConfig};
    use crate::network::NetworkBuilder;
    use crate::types::Point;
    use proptest::prelude::*;

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

    /// The O(n²) oracle: each step settles the reached, unsettled node of
    /// least `(dist, id)`, stops when `target` is chosen, and relaxes with
    /// the rule of `dijkstra_impl` — a strictly shorter path, or an equal
    /// one from a smaller-id predecessor. Returns `(dist, parent)`.
    fn selection_tree(
        net: &RoadNetwork,
        source: NodeId,
        target: Option<NodeId>,
    ) -> (Vec<Dist>, Vec<NodeId>) {
        let n = net.num_nodes();
        let mut dist = vec![INFINITY; n];
        let mut parent = vec![NO_PARENT; n];
        let mut settled = vec![false; n];
        dist[source as usize] = 0;
        while let Some(u) = (0..n as NodeId)
            .filter(|&u| !settled[u as usize] && dist[u as usize] != INFINITY)
            .min_by_key(|&u| (dist[u as usize], u))
        {
            if target == Some(u) {
                break;
            }
            settled[u as usize] = true;
            for (_, v, w) in net.arcs_from(u) {
                let nd = dist[u as usize] + Dist::from(w);
                let (dv, pv) = (dist[v as usize], parent[v as usize]);
                if nd < dv || (nd == dv && pv != NO_PARENT && u < pv) {
                    dist[v as usize] = nd;
                    parent[v as usize] = u;
                }
            }
        }
        (dist, parent)
    }

    /// Every full tree, and every partial tree `dijkstra_to_target` leaves,
    /// equals the oracle's, `dist` and `parent` for every node.
    fn check_against_selection(net: &RoadNetwork) -> Result<(), TestCaseError> {
        let n = net.num_nodes() as NodeId;
        for s in 0..n {
            let full = dijkstra(net, s);
            let (dist, parent) = selection_tree(net, s, None);
            prop_assert_eq!(&full.dist, &dist, "dist from {}", s);
            prop_assert_eq!(&full.parent, &parent, "parent from {}", s);
            for t in 0..n {
                let part = dijkstra_to_target(net, s, t);
                let (dist, parent) = selection_tree(net, s, Some(t));
                prop_assert_eq!(&part.dist, &dist, "dist {} -> {}", s, t);
                prop_assert_eq!(&part.parent, &parent, "parent {} -> {}", s, t);
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Ties everywhere: random directed networks with weights in
        /// `1..=3`, and grids without jitter, whose arcs all weigh the same.
        /// The equal-cost branch of the relaxation decides most parents
        /// here, and the `(dist, id)` order decides where a search to a
        /// target stops.
        #[test]
        fn trees_match_a_selection_dijkstra_on_tied_networks(
            n in 2u32..20,
            arcs in proptest::collection::vec((0u32..20, 0u32..20, 1u32..=3), 0..60),
            grid in (1usize..7, 1usize..6),
        ) {
            let (nx, ny) = grid;
            let mut b = NetworkBuilder::new();
            for i in 0..n {
                b.add_node(Point::new(i as i32, 0));
            }
            for (u, v, w) in arcs {
                if u % n != v % n {
                    b.add_arc(u % n, v % n, w);
                }
            }
            check_against_selection(&b.build())?;
            let grid = grid_network(&GridGenConfig {
                nx,
                ny,
                jitter: 0,
                ..Default::default()
            });
            check_against_selection(&grid)?;
        }
    }
}
