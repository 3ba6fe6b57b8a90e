//! Landmark (ALT) pre-computation — the substrate of the LM baseline (§4).
//!
//! Landmark \[13\] "chooses a number of anchor nodes in G and pre-computes for
//! each v ∈ V the shortest path costs (from v) to the anchors. The vector of
//! costs, called Landmark vector, is kept with v and helps compute estimates
//! for the cost of SP(v, t)". The estimates feed an A* search.

use crate::dijkstra::{dijkstra, INFINITY};
use crate::network::RoadNetwork;
use crate::types::{Dist, NodeId};

/// Pre-computed landmark distance vectors.
#[derive(Debug, Clone)]
pub struct Landmarks {
    /// Chosen anchor nodes.
    pub(crate) anchors: Vec<NodeId>,
    /// `to_anchor[v][a]` — distance from `v` to `anchors[a]`.
    pub to_anchor: Vec<Vec<Dist>>,
}

impl Landmarks {
    /// Selects `k` anchors by the farthest-point heuristic (first anchor =
    /// node farthest from the spatial median, each further anchor maximizes
    /// the minimum network distance to those already chosen) and computes all
    /// distance vectors.
    pub fn build(net: &RoadNetwork, k: usize) -> Landmarks {
        assert!(k >= 1, "need at least one landmark");
        let n = net.num_nodes();
        assert!(n > 0);
        let (rev, _) = net.reversed();

        let mut anchors: Vec<NodeId> = Vec::with_capacity(k);
        // Seed: node 0's farthest reachable node tends to sit on the border.
        let seed_tree = dijkstra(net, 0);
        let first = (0..n as u32)
            .filter(|&u| seed_tree.reached(u))
            .max_by_key(|&u| seed_tree.dist[u as usize])
            .unwrap_or(0);
        anchors.push(first);

        let mut to_anchor = vec![Vec::with_capacity(k); n];
        let mut min_dist = vec![Dist::MAX; n];

        for ai in 0..k {
            let a = anchors[ai];
            // distances from anchor (forward tree) and to anchor (reverse tree)
            let fwd = dijkstra(net, a);
            let bwd = dijkstra(&rev, a);
            for u in 0..n {
                to_anchor[u].push(bwd.dist[u]);
                let d = fwd.dist[u];
                if d != INFINITY {
                    min_dist[u] = min_dist[u].min(d);
                }
            }
            if ai + 1 < k {
                let next = (0..n as u32)
                    .filter(|&u| !anchors.contains(&u) && min_dist[u as usize] != Dist::MAX)
                    .max_by_key(|&u| min_dist[u as usize]);
                match next {
                    Some(u) => anchors.push(u),
                    None => break, // tiny graphs: fewer anchors than requested
                }
            }
        }

        // Trim vectors if we stopped early.
        let k = anchors.len();
        for v in &mut to_anchor {
            v.truncate(k);
        }
        Landmarks { anchors, to_anchor }
    }

    /// Number of landmarks.
    pub fn len(&self) -> usize {
        self.anchors.len()
    }

    /// True if no landmarks were selected (empty network).
    pub fn is_empty(&self) -> bool {
        self.anchors.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::distance;
    use crate::gen::{grid_network, GridGenConfig};

    /// The bound the LM client computes from two stored vectors:
    /// `d(u,t) >= max_a |d(u,a) - d(t,a)|` on an undirected network.
    fn bound(lm: &Landmarks, u: NodeId, t: NodeId) -> Dist {
        let (tu, tt) = (&lm.to_anchor[u as usize], &lm.to_anchor[t as usize]);
        tu.iter()
            .zip(tt)
            .filter(|&(&a, &b)| a != INFINITY && b != INFINITY)
            .map(|(&a, &b)| a.abs_diff(b))
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn lower_bound_is_admissible() {
        let net = grid_network(&GridGenConfig {
            nx: 8,
            ny: 8,
            ..Default::default()
        });
        let lm = Landmarks::build(&net, 4);
        assert_eq!(lm.len(), 4);
        for s in (0..64u32).step_by(7) {
            for t in (0..64u32).step_by(11) {
                let d = distance(&net, s, t);
                assert!(bound(&lm, s, t) <= d, "bound exceeded for {s}->{t}");
            }
        }
    }

    #[test]
    fn bound_is_exact_at_anchor() {
        let net = grid_network(&GridGenConfig {
            nx: 6,
            ny: 6,
            ..Default::default()
        });
        let lm = Landmarks::build(&net, 3);
        let a = lm.anchors[0];
        for u in 0..36u32 {
            // d(u, a) = to_anchor[u][0] - to_anchor[a][0]: tight at the anchor.
            assert_eq!(bound(&lm, u, a), distance(&net, u, a));
        }
    }

    #[test]
    fn anchors_are_distinct() {
        let net = grid_network(&GridGenConfig {
            nx: 10,
            ny: 10,
            ..Default::default()
        });
        let lm = Landmarks::build(&net, 8);
        let mut set = std::collections::HashSet::new();
        for &a in &lm.anchors {
            assert!(set.insert(a), "duplicate anchor {a}");
        }
    }

    #[test]
    fn more_landmarks_never_weaken_bounds() {
        let net = grid_network(&GridGenConfig {
            nx: 8,
            ny: 8,
            ..Default::default()
        });
        let lm2 = Landmarks::build(&net, 2);
        let lm6 = Landmarks::build(&net, 6);
        // The first two anchors coincide (same selection process), so bounds
        // with 6 anchors dominate bounds with 2.
        assert_eq!(lm2.anchors[..], lm6.anchors[..2]);
        for s in (0..64u32).step_by(5) {
            for t in (0..64u32).step_by(9) {
                assert!(bound(&lm6, s, t) >= bound(&lm2, s, t));
            }
        }
    }
}
