//! The augmented graph of §5.2: "Border nodes are treated as normal network
//! nodes during pre-processing".
//!
//! Every arc is subdivided at its region crossings; the pieces' weights are
//! apportioned by the exact crossing fractions and *sum exactly to the
//! original weight* (cumulative rounding), so shortest-path costs through
//! border nodes equal costs in the original network — the property the
//! decomposition argument of §5.2 rests on.

use privpath_graph::network::RoadNetwork;
use privpath_graph::types::{Dist, EdgeId};
use privpath_partition::{Borders, RegionId};

/// Sentinel for "no node" in parent arrays.
pub(crate) const NO_NODE: u32 = u32::MAX;

/// An augmented arc: a piece of an original arc.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AugArc {
    /// Head (augmented node id).
    pub(crate) to: u32,
    /// Piece weight.
    pub(crate) w: u32,
    /// The original arc this piece belongs to.
    pub(crate) orig: EdgeId,
}

/// The augmented graph: original nodes `0..n_orig`, border nodes
/// `n_orig..n_total`.
#[derive(Debug, Clone)]
pub struct AugGraph {
    /// Number of original network nodes.
    pub(crate) n_orig: usize,
    /// Total nodes (original + border).
    pub(crate) n_total: usize,
    offsets: Vec<u32>,
    arcs: Vec<AugArc>,
    /// The two regions each border node touches (indexed by border id).
    pub(crate) border_regions: Vec<(RegionId, RegionId)>,
    /// Region of the *tail* of each original arc — the region whose `Fd`
    /// page stores the arc, and so the region `S_ij` has to name for every
    /// shortest path that uses it (§5.2).
    pub(crate) arc_tail_region: Vec<RegionId>,
}

impl AugGraph {
    /// Augmented node id of border node `b`.
    pub(crate) fn border_node(&self, b: u32) -> u32 {
        (self.n_orig as u32) + b
    }

    /// Number of border nodes.
    pub(crate) fn num_borders(&self) -> usize {
        self.n_total - self.n_orig
    }

    /// Arcs leaving augmented node `u`.
    pub(crate) fn arcs_from(&self, u: u32) -> &[AugArc] {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        &self.arcs[lo..hi]
    }

    /// Builds the augmented graph for `net` under `borders` (computed by
    /// [`privpath_partition::compute_borders`]), with `region_of_node` giving
    /// each node's region.
    pub fn build(net: &RoadNetwork, borders: &Borders, region_of_node: &[RegionId]) -> AugGraph {
        let n_orig = net.num_nodes();
        let n_borders = borders.len();
        let n_total = n_orig + n_borders;

        let mut arc_tail_region = vec![0u16; net.num_arcs()];
        for e in 0..net.num_arcs() as u32 {
            let (t, _) = net.edge_endpoints(e);
            arc_tail_region[e as usize] = region_of_node[t as usize];
        }

        // Adjacency as (tail, AugArc) pairs, then CSR-ified.
        let mut pairs: Vec<(u32, AugArc)> = Vec::with_capacity(net.num_arcs() * 2);
        for e in 0..net.num_arcs() as u32 {
            let (u, v) = net.edge_endpoints(e);
            let w = net.edge_weight(e);
            let xs = &borders.arc_crossings[e as usize];
            if xs.is_empty() {
                pairs.push((u, AugArc { to: v, w, orig: e }));
                continue;
            }
            // Piece weights by cumulative rounding: piece i spans
            // [t_{i-1}, t_i]; w_i = round(w·t_i) − round(w·t_{i-1}).
            let mut prev_node = u;
            let mut prev_round = 0u64;
            for x in xs {
                let cum = (f64::from(w) * x.t.to_f64()).round() as u64;
                let piece = (cum - prev_round) as u32;
                let bnode = n_orig as u32 + x.border;
                pairs.push((
                    prev_node,
                    AugArc {
                        to: bnode,
                        w: piece,
                        orig: e,
                    },
                ));
                prev_node = bnode;
                prev_round = cum;
            }
            let last_piece = (u64::from(w) - prev_round) as u32;
            pairs.push((
                prev_node,
                AugArc {
                    to: v,
                    w: last_piece,
                    orig: e,
                },
            ));
        }

        let mut offsets = vec![0u32; n_total + 1];
        for &(t, _) in &pairs {
            offsets[t as usize + 1] += 1;
        }
        for i in 0..n_total {
            offsets[i + 1] += offsets[i];
        }
        let mut arcs = vec![
            AugArc {
                to: 0,
                w: 0,
                orig: 0
            };
            pairs.len()
        ];
        let mut cursor = offsets.clone();
        for (t, a) in pairs {
            let slot = cursor[t as usize] as usize;
            cursor[t as usize] += 1;
            arcs[slot] = a;
        }

        AugGraph {
            n_orig,
            n_total,
            offsets,
            arcs,
            border_regions: borders.nodes.iter().map(|b| b.regions).collect(),
            arc_tail_region,
        }
    }
}

/// Reusable scratch buffers for repeated Dijkstra runs (one per worker).
///
/// [`aug_dijkstra_into`] leaves its whole result here — distances, parents,
/// settle order — so the pre-computation sweep reads the tree in place
/// instead of paying three `O(n_total)` array clones per border source.
/// Entries of `dist`/`parent`/`parent_orig` are meaningful only for nodes the
/// last run touched; everything else still holds the reset sentinels.
pub(crate) struct DijkstraScratch {
    /// Tentative/final distance per augmented node.
    pub(crate) dist: Vec<Dist>,
    /// Tree parent per augmented node (`NO_NODE` = source/untouched).
    pub(crate) parent: Vec<u32>,
    /// Original arc of the tree edge into each node.
    pub(crate) parent_orig: Vec<EdgeId>,
    /// Settle (pop) order of the last run — chronological, so parents always
    /// precede children even across zero-weight augmented pieces. With
    /// border pruning this is exactly the settled *prefix*: it ends the
    /// moment the last reachable border node settles.
    pub(crate) settled: Vec<u32>,
    /// Nodes whose `dist`/`parent` entries the last run wrote (reset list).
    touched: Vec<u32>,
    heap: privpath_graph::IndexedMinHeap,
}

impl DijkstraScratch {
    /// Buffers for a graph with `n_total` augmented nodes.
    pub(crate) fn new(n_total: usize) -> Self {
        let mut heap = privpath_graph::IndexedMinHeap::new();
        heap.reset(n_total);
        DijkstraScratch {
            dist: vec![Dist::MAX; n_total],
            parent: vec![NO_NODE; n_total],
            parent_orig: vec![NO_NODE; n_total],
            settled: Vec::new(),
            touched: Vec::new(),
            heap,
        }
    }
}

/// Dijkstra over the augmented graph from `source` (augmented node id),
/// leaving the tree in `scratch` (allocation-free in steady state: every
/// buffer, including the indexed heap, is reused across runs).
///
/// With `prune_borders`, the search terminates the moment all
/// [`AugGraph::num_borders`] border nodes have settled (or the heap runs
/// dry, whichever is first — so partially reachable border sets still
/// produce the full reachable tree). The pruning is *exact* for the §5.2
/// pre-computation: in Dijkstra every tree ancestor settles before its
/// descendants, so any node settled after the last border node can never lie
/// on a source→border path — its `J` bitset stays empty and the bottom-up
/// sweep would skip it anyway. `scratch.settled` is exactly the prefix the
/// sweep must visit.
///
/// Zero-weight pieces (crossings rounding to the same cumulative weight) are
/// handled; `settled` stays a valid children-after-parents order because a
/// node can only be pushed after its final parent was popped.
pub(crate) fn aug_dijkstra_into(
    g: &AugGraph,
    source: u32,
    scratch: &mut DijkstraScratch,
    prune_borders: bool,
) {
    // Reset only what the previous run touched.
    for &u in &scratch.touched {
        scratch.dist[u as usize] = Dist::MAX;
        scratch.parent[u as usize] = NO_NODE;
        scratch.parent_orig[u as usize] = NO_NODE;
    }
    scratch.touched.clear();
    scratch.settled.clear();
    scratch.heap.reset(g.n_total);

    let border_total = g.num_borders();
    let mut borders_settled = 0usize;

    scratch.dist[source as usize] = 0;
    scratch.touched.push(source);
    scratch.heap.push(source, (0, source));

    while let Some(u) = scratch.heap.pop() {
        let d = scratch.dist[u as usize];
        scratch.settled.push(u);
        if prune_borders && u as usize >= g.n_orig {
            borders_settled += 1;
            if borders_settled == border_total {
                break; // every node past this point carries an empty J
            }
        }
        for a in g.arcs_from(u) {
            let nd = d + Dist::from(a.w);
            if nd < scratch.dist[a.to as usize] {
                if scratch.dist[a.to as usize] == Dist::MAX {
                    scratch.touched.push(a.to);
                }
                scratch.dist[a.to as usize] = nd;
                scratch.parent[a.to as usize] = u;
                scratch.parent_orig[a.to as usize] = a.orig;
                scratch.heap.push_or_decrease(a.to, (nd, a.to));
            }
        }
    }

    // Early termination leaves entries enqueued; drop them in O(remaining)
    // so the next run's reset stays cheap.
    scratch.heap.clear_drained();
}

#[cfg(test)]
mod tests {
    use super::*;
    use privpath_graph::dijkstra::{dijkstra, INFINITY};
    use privpath_graph::gen::{grid_network, GridGenConfig};
    use privpath_graph::network::NetworkBuilder;
    use privpath_graph::types::Point;
    use privpath_partition::{compute_borders, partition_packed};

    /// A shortest-path tree over the augmented graph.
    #[derive(Debug)]
    struct AugSpTree {
        /// Distance from the source per augmented node (`u64::MAX` unreachable).
        dist: Vec<Dist>,
        /// Parent augmented node (`NO_NODE` for source/unreachable).
        parent: Vec<u32>,
        /// Original arc of the tree edge into each node.
        parent_orig_arc: Vec<EdgeId>,
        /// Settle (pop) order — chronological, so parents always precede
        /// children even across zero-weight augmented pieces.
        settled: Vec<u32>,
    }

    /// Dijkstra over the augmented graph from `source`, returning an owned
    /// [`AugSpTree`] (unpruned). The pre-computation hot loop uses
    /// [`aug_dijkstra_into`] and reads the scratch directly; these tests read
    /// the copy.
    fn aug_dijkstra(g: &AugGraph, source: u32, scratch: &mut DijkstraScratch) -> AugSpTree {
        aug_dijkstra_into(g, source, scratch, false);
        AugSpTree {
            dist: scratch.dist.clone(),
            parent: scratch.parent.clone(),
            parent_orig_arc: scratch.parent_orig.clone(),
            settled: scratch.settled.clone(),
        }
    }

    fn setup(net: &RoadNetwork, cap: usize) -> (AugGraph, privpath_partition::Partition) {
        let p = partition_packed(net, cap, &|u| net.node_record_bytes(u));
        let borders = compute_borders(net, &p.tree);
        let g = AugGraph::build(net, &borders, &p.region_of_node);
        (g, p)
    }

    #[test]
    fn piece_weights_sum_to_original() {
        let net = grid_network(&GridGenConfig {
            nx: 10,
            ny: 10,
            ..Default::default()
        });
        let (g, _) = setup(&net, 512);
        assert!(g.num_borders() > 0, "partition should create borders");
        // per original arc, sum piece weights
        let mut sums = vec![0u64; net.num_arcs()];
        for u in 0..g.n_total as u32 {
            for a in g.arcs_from(u) {
                sums[a.orig as usize] += u64::from(a.w);
            }
        }
        for e in 0..net.num_arcs() as u32 {
            assert_eq!(sums[e as usize], u64::from(net.edge_weight(e)), "arc {e}");
        }
    }

    #[test]
    fn augmented_distances_match_original_between_real_nodes() {
        let net = grid_network(&GridGenConfig {
            nx: 8,
            ny: 8,
            ..Default::default()
        });
        let (g, _) = setup(&net, 512);
        let mut scratch = DijkstraScratch::new(g.n_total);
        for s in [0u32, 17, 63] {
            let aug = aug_dijkstra(&g, s, &mut scratch);
            let orig = dijkstra(&net, s);
            for t in 0..net.num_nodes() {
                let od = orig.dist[t];
                let ad = aug.dist[t];
                if od == INFINITY {
                    assert_eq!(ad, Dist::MAX);
                } else {
                    assert_eq!(ad, od, "distance {s}->{t}");
                }
            }
        }
    }

    #[test]
    fn settled_order_has_parents_first() {
        let net = grid_network(&GridGenConfig {
            nx: 6,
            ny: 6,
            ..Default::default()
        });
        let (g, _) = setup(&net, 512);
        let mut scratch = DijkstraScratch::new(g.n_total);
        let tree = aug_dijkstra(&g, 0, &mut scratch);
        let mut pos = vec![usize::MAX; g.n_total];
        for (i, &u) in tree.settled.iter().enumerate() {
            pos[u as usize] = i;
        }
        for &u in &tree.settled {
            let p = tree.parent[u as usize];
            if p != NO_NODE {
                assert!(
                    pos[p as usize] < pos[u as usize],
                    "parent of {u} settled after it"
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_is_clean() {
        let net = grid_network(&GridGenConfig {
            nx: 5,
            ny: 5,
            ..Default::default()
        });
        let (g, _) = setup(&net, 512);
        let mut scratch = DijkstraScratch::new(g.n_total);
        let first = aug_dijkstra(&g, 3, &mut scratch);
        let again = aug_dijkstra(&g, 3, &mut scratch);
        assert_eq!(first.dist, again.dist);
        assert_eq!(first.parent, again.parent);
    }

    #[test]
    fn border_dijkstra_reaches_real_nodes() {
        let net = grid_network(&GridGenConfig {
            nx: 8,
            ny: 8,
            ..Default::default()
        });
        let (g, _) = setup(&net, 512);
        let mut scratch = DijkstraScratch::new(g.n_total);
        let b0 = g.border_node(0);
        let tree = aug_dijkstra(&g, b0, &mut scratch);
        let reached = (0..g.n_orig).filter(|&u| tree.dist[u] != Dist::MAX).count();
        assert_eq!(
            reached, g.n_orig,
            "border node should reach the whole (connected) network"
        );
    }

    #[test]
    fn pruned_run_is_exact_prefix_of_full_run() {
        let net = grid_network(&GridGenConfig {
            nx: 10,
            ny: 10,
            ..Default::default()
        });
        let (g, _) = setup(&net, 512);
        assert!(g.num_borders() > 2);
        let mut scratch = DijkstraScratch::new(g.n_total);
        for b in 0..g.num_borders() as u32 {
            let src = g.border_node(b);
            let full = aug_dijkstra(&g, src, &mut scratch);
            aug_dijkstra_into(&g, src, &mut scratch, true);
            // The pruned settle list is a prefix of the full one, ending at
            // the last border node.
            let k = scratch.settled.len();
            assert!(k <= full.settled.len());
            assert_eq!(scratch.settled[..], full.settled[..k], "border {b}");
            assert!(*scratch.settled.last().unwrap() as usize >= g.n_orig);
            let borders_in_prefix = scratch
                .settled
                .iter()
                .filter(|&&u| u as usize >= g.n_orig)
                .count();
            assert_eq!(borders_in_prefix, g.num_borders(), "border {b}");
            // dist/parent agree with the full tree on the settled prefix.
            for &u in &scratch.settled {
                assert_eq!(scratch.dist[u as usize], full.dist[u as usize]);
                assert_eq!(scratch.parent[u as usize], full.parent[u as usize]);
                assert_eq!(
                    scratch.parent_orig[u as usize],
                    full.parent_orig_arc[u as usize]
                );
            }
        }
    }

    #[test]
    fn one_way_arcs_subdivide_too() {
        let mut b = NetworkBuilder::new();
        b.add_node(Point::new(0, 0));
        b.add_node(Point::new(100, 0));
        b.add_arc(0, 1, 100); // one-way
        let net = b.build();
        use privpath_partition::{KdNode, KdTree};
        let tree = KdTree::from_nodes(vec![
            KdNode::Split {
                axis: 0,
                coord2: 99,
                left: 1,
                right: 2,
            }, // x=49.5
            KdNode::Leaf { region: 0 },
            KdNode::Leaf { region: 1 },
        ]);
        let borders = compute_borders(&net, &tree);
        assert_eq!(borders.len(), 1);
        let region_of = vec![0u16, 1u16];
        let g = AugGraph::build(&net, &borders, &region_of);
        assert_eq!(g.arcs.len(), 2); // two pieces
        let mut scratch = DijkstraScratch::new(g.n_total);
        let tree = aug_dijkstra(&g, 0, &mut scratch);
        assert_eq!(tree.dist[1], 100);
        // reverse direction unreachable
        let tree_rev = aug_dijkstra(&g, 1, &mut scratch);
        assert_eq!(tree_rev.dist[0], Dist::MAX);
    }
}
