//! Border nodes: intersection points of network edges with region boundaries.
//!
//! §5.2: "These are intersection points of the network edges with the
//! splitting lines of the KD-tree. [...] Border nodes are treated as normal
//! network nodes during pre-processing, but they are discarded afterwards."
//!
//! Split lines only bound the cells of their subtree, so a naive
//! line-intersection test would generate phantom crossings where an edge
//! crosses the *extension* of a split segment. We instead clip every edge
//! through the leaf cells by descending the tree with an exact-fraction
//! parameter interval: the output is the ordered sequence of regions the
//! segment traverses, and border nodes are exactly the region transitions.

use crate::frac::Frac;
use crate::kdtree::{KdNode, KdTree, RegionId};
use privpath_graph::network::RoadNetwork;
use privpath_graph::types::EdgeId;
use std::collections::HashMap;

/// A border node generated by one (undirected) edge crossing a boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BorderNode {
    /// Regions on the two sides of the crossing, in the order traversed by
    /// the *canonical* arc that generated the node.
    pub regions: (RegionId, RegionId),
}

/// A crossing on a specific arc: border node `border` at parameter `t` from
/// the arc's tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArcCrossing {
    /// Border node id.
    pub border: u32,
    /// Position along the arc (0 = tail, 1 = head), strictly interior.
    pub t: Frac,
}

/// All border nodes of a partitioned network.
#[derive(Debug, Clone)]
pub struct Borders {
    /// The border nodes.
    pub nodes: Vec<BorderNode>,
    /// Crossings of every arc, ascending in `t`. Arcs that stay inside one
    /// region have empty lists. A two-way road shares the same border nodes
    /// in both directions (mirrored at `1 − t`).
    pub arc_crossings: Vec<Vec<ArcCrossing>>,
}

impl Borders {
    /// Number of border nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the partition has a single region (no boundaries).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Ordered list of `(region, t_start, t_end)` intervals the segment
/// `a -> b` (doubled coordinates) traverses.
fn clip_segment(tree: &KdTree, a2: (i64, i64), b2: (i64, i64)) -> Vec<(RegionId, Frac, Frac)> {
    let mut out = Vec::new();
    clip_rec(tree.nodes(), 0, a2, b2, Frac::ZERO, Frac::ONE, &mut out);
    out
}

fn clip_rec(
    nodes: &[KdNode],
    idx: u32,
    a2: (i64, i64),
    b2: (i64, i64),
    t0: Frac,
    t1: Frac,
    out: &mut Vec<(RegionId, Frac, Frac)>,
) {
    match nodes[idx as usize] {
        KdNode::Leaf { region } => out.push((region, t0, t1)),
        KdNode::Split {
            axis,
            coord2,
            left,
            right,
        } => {
            let ca = if axis == 0 { a2.0 } else { a2.1 };
            let cb = if axis == 0 { b2.0 } else { b2.1 };
            // Doubled node coordinates are even, split coordinates odd:
            // equality is impossible, so sides are always strict.
            debug_assert_ne!(ca, coord2);
            debug_assert_ne!(cb, coord2);
            if ca < coord2 && cb < coord2 {
                clip_rec(nodes, left, a2, b2, t0, t1, out);
            } else if ca > coord2 && cb > coord2 {
                clip_rec(nodes, right, a2, b2, t0, t1, out);
            } else {
                let t_star = Frac::new(coord2 - ca, cb - ca);
                let (first, second) = if ca < coord2 {
                    (left, right)
                } else {
                    (right, left)
                };
                if t_star <= t0 {
                    clip_rec(nodes, second, a2, b2, t0, t1, out);
                } else if t_star >= t1 {
                    clip_rec(nodes, first, a2, b2, t0, t1, out);
                } else {
                    clip_rec(nodes, first, a2, b2, t0, t_star, out);
                    clip_rec(nodes, second, a2, b2, t_star, t1, out);
                }
            }
        }
    }
}

/// Computes border nodes for every arc of `net` under the partition `tree`.
///
/// Two-way segments (arc pairs `(u,v)`/`(v,u)`) are clipped once and share
/// border node identities, mirroring the paper's treatment of the underlying
/// undirected road geometry.
pub fn compute_borders(net: &RoadNetwork, tree: &KdTree) -> Borders {
    let mut nodes: Vec<BorderNode> = Vec::new();
    let mut arc_crossings: Vec<Vec<ArcCrossing>> = vec![Vec::new(); net.num_arcs()];

    // Map head -> arc id for reverse lookup.
    let mut reverse_arc: HashMap<(u32, u32), EdgeId> = HashMap::with_capacity(net.num_arcs());
    for e in 0..net.num_arcs() as u32 {
        let (u, v) = net.edge_endpoints(e);
        reverse_arc.entry((u, v)).or_insert(e);
    }

    for e in 0..net.num_arcs() as u32 {
        let (u, v) = net.edge_endpoints(e);
        let rev = reverse_arc.get(&(v, u)).copied();
        // Canonical direction: process (u,v) if u < v, or if no reverse arc
        // exists (one-way road).
        if u > v && rev.is_some() {
            continue;
        }
        let pu = net.node_point(u);
        let pv = net.node_point(v);
        let a2 = (2 * i64::from(pu.x), 2 * i64::from(pu.y));
        let b2 = (2 * i64::from(pv.x), 2 * i64::from(pv.y));
        let intervals = clip_segment(tree, a2, b2);
        debug_assert!(!intervals.is_empty());
        for w in intervals.windows(2) {
            let (r_before, _, t_cross) = w[0];
            let (r_after, t_check, _) = w[1];
            debug_assert_eq!(t_cross, t_check);
            debug_assert!(t_cross.is_interior());
            let border_id = nodes.len() as u32;
            nodes.push(BorderNode {
                regions: (r_before, r_after),
            });
            arc_crossings[e as usize].push(ArcCrossing {
                border: border_id,
                t: t_cross,
            });
            if let Some(re) = rev {
                if re != e {
                    arc_crossings[re as usize].push(ArcCrossing {
                        border: border_id,
                        t: t_cross.complement(),
                    });
                }
            }
        }
        if let Some(re) = rev {
            if re != e {
                arc_crossings[re as usize].sort_by_key(|c| c.t);
            }
        }
    }

    Borders {
        nodes,
        arc_crossings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::partition_packed;
    use privpath_graph::gen::{grid_network, road_like, GridGenConfig, RoadGenConfig};
    use privpath_graph::network::NetworkBuilder;
    use privpath_graph::types::Point;

    /// Quadrant tree with splits at x=9.5 then y=19.5 on both sides.
    fn quad_tree() -> KdTree {
        KdTree::from_nodes(vec![
            KdNode::Split {
                axis: 0,
                coord2: 19,
                left: 1,
                right: 4,
            },
            KdNode::Split {
                axis: 1,
                coord2: 39,
                left: 2,
                right: 3,
            },
            KdNode::Leaf { region: 0 },
            KdNode::Leaf { region: 1 },
            KdNode::Split {
                axis: 1,
                coord2: 39,
                left: 5,
                right: 6,
            },
            KdNode::Leaf { region: 2 },
            KdNode::Leaf { region: 3 },
        ])
    }

    #[test]
    fn clip_straight_crossing() {
        let tree = quad_tree();
        // horizontal segment crossing the x split only
        let iv = clip_segment(&tree, (0, 0), (40, 0));
        assert_eq!(iv.len(), 2);
        assert_eq!(iv[0].0, 0);
        assert_eq!(iv[1].0, 2);
        assert_eq!(iv[0].2, Frac::new(19, 40));
    }

    #[test]
    fn clip_diagonal_double_crossing() {
        let tree = quad_tree();
        // from region 0 to region 3 crossing both splits
        let iv = clip_segment(&tree, (0, 0), (40, 80));
        let regions: Vec<RegionId> = iv.iter().map(|&(r, _, _)| r).collect();
        // crosses x=19 at t=19/40, y=39 at t=39/80 — x first
        assert_eq!(regions, vec![0, 2, 3]);
    }

    #[test]
    fn clip_no_crossing() {
        let tree = quad_tree();
        let iv = clip_segment(&tree, (0, 0), (10, 10));
        assert_eq!(iv.len(), 1);
        assert_eq!(iv[0], (0, Frac::ZERO, Frac::ONE));
    }

    #[test]
    fn two_way_roads_share_border_nodes() {
        let mut b = NetworkBuilder::new();
        b.add_node(Point::new(0, 0));
        b.add_node(Point::new(20, 0)); // crosses x=9.5
        b.add_undirected(0, 1, 20);
        let net = b.build();
        let borders = compute_borders(&net, &quad_tree());
        assert_eq!(borders.len(), 1);
        assert_eq!(borders.arc_crossings[0].len(), 1);
        assert_eq!(borders.arc_crossings[1].len(), 1);
        assert_eq!(
            borders.arc_crossings[0][0].border,
            borders.arc_crossings[1][0].border
        );
        let t = borders.arc_crossings[0][0].t;
        assert_eq!(borders.arc_crossings[1][0].t, t.complement());
    }

    #[test]
    fn crossing_chain_is_consistent() {
        // Every arc's crossing sequence must chain the region of its tail to
        // the region of its head.
        let net = road_like(&RoadGenConfig {
            nodes: 800,
            seed: 11,
            ..Default::default()
        });
        let p = partition_packed(&net, 1024, &|u| net.node_record_bytes(u));
        let borders = compute_borders(&net, &p.tree);
        assert!(!borders.is_empty());
        for e in 0..net.num_arcs() as u32 {
            let (u, v) = net.edge_endpoints(e);
            let (ru, rv) = (p.region_of_node[u as usize], p.region_of_node[v as usize]);
            let xs = &borders.arc_crossings[e as usize];
            if xs.is_empty() {
                assert_eq!(ru, rv, "arc {e} changes region without a crossing");
                continue;
            }
            // Regions chain; direction of the `regions` pair matches the
            // canonical arc only, so compare as sets of adjacency.
            let borders_region = |b: u32, r| {
                let regions = borders.nodes[b as usize].regions;
                regions.0 == r || regions.1 == r
            };
            assert!(
                borders_region(xs[0].border, ru),
                "first crossing of arc {e} must border tail region"
            );
            assert!(
                borders_region(xs[xs.len() - 1].border, rv),
                "last crossing of arc {e} must border head region"
            );
            for w in xs.windows(2) {
                assert!(w[0].t <= w[1].t, "crossings must be ordered");
            }
        }
    }

    #[test]
    fn single_region_has_no_borders() {
        let net = grid_network(&GridGenConfig {
            nx: 4,
            ny: 4,
            ..Default::default()
        });
        let borders = compute_borders(&net, &KdTree::single_region());
        assert!(borders.is_empty());
        assert!(borders.arc_crossings.iter().all(|c| c.is_empty()));
    }
}
