//! The road network: a directed, weighted, spatially-embedded graph in
//! compressed-sparse-row (CSR) form.

use crate::types::{EdgeId, NodeId, Point, Weight};

/// Directed, weighted road network with Euclidean node coordinates.
///
/// Arcs are stored in CSR order grouped by tail node; each arc has a stable
/// [`EdgeId`] equal to its CSR position, which the rest of the system uses to
/// reference edges (e.g. the PI subgraphs `G_ij` store original edge ids).
#[derive(Debug, Clone)]
pub struct RoadNetwork {
    points: Vec<Point>,
    /// CSR offsets: arcs of node `u` are `offsets[u]..offsets[u+1]`.
    offsets: Vec<u32>,
    heads: Vec<NodeId>,
    weights: Vec<Weight>,
    /// Tail node of each arc (same length as `heads`); kept explicit so
    /// `edge_endpoints` is O(1).
    tails: Vec<NodeId>,
}

impl RoadNetwork {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.points.len()
    }

    /// Number of directed arcs.
    pub fn num_arcs(&self) -> usize {
        self.heads.len()
    }

    /// Coordinates of node `u`.
    pub fn node_point(&self, u: NodeId) -> Point {
        self.points[u as usize]
    }

    /// Out-degree of node `u`.
    pub fn degree(&self, u: NodeId) -> usize {
        (self.offsets[u as usize + 1] - self.offsets[u as usize]) as usize
    }

    /// Iterates `(edge_id, head, weight)` for the arcs leaving `u`.
    pub fn arcs_from(&self, u: NodeId) -> impl Iterator<Item = (EdgeId, NodeId, Weight)> + '_ {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        (lo..hi).map(move |e| (e as EdgeId, self.heads[e], self.weights[e]))
    }

    /// Tail and head of arc `e`.
    pub fn edge_endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        (self.tails[e as usize], self.heads[e as usize])
    }

    /// Weight of arc `e`.
    pub fn edge_weight(&self, e: EdgeId) -> Weight {
        self.weights[e as usize]
    }

    /// Bounding box of all node coordinates (`(min, max)`), or `None` for an
    /// empty network.
    pub fn bounding_box(&self) -> Option<(Point, Point)> {
        let first = *self.points.first()?;
        let mut min = first;
        let mut max = first;
        for p in &self.points {
            min.x = min.x.min(p.x);
            min.y = min.y.min(p.y);
            max.x = max.x.max(p.x);
            max.y = max.y.max(p.y);
        }
        Some((min, max))
    }

    /// The reverse network: every arc `(u, v, w)` becomes `(v, u, w)`.
    /// Returns the reversed network together with a map from each reversed
    /// arc id to the original arc id (needed by arc-flag pre-computation).
    pub(crate) fn reversed(&self) -> (RoadNetwork, Vec<EdgeId>) {
        let n = self.num_nodes();
        let mut deg = vec![0u32; n + 1];
        for &h in &self.heads {
            deg[h as usize + 1] += 1;
        }
        for i in 0..n {
            deg[i + 1] += deg[i];
        }
        let offsets = deg.clone();
        let m = self.num_arcs();
        let mut heads = vec![0u32; m];
        let mut weights = vec![0u32; m];
        let mut tails = vec![0u32; m];
        let mut orig = vec![0u32; m];
        let mut cursor = offsets.clone();
        for e in 0..m {
            let (t, h) = (self.tails[e], self.heads[e]);
            let slot = cursor[h as usize] as usize;
            cursor[h as usize] += 1;
            heads[slot] = t;
            tails[slot] = h;
            weights[slot] = self.weights[e];
            orig[slot] = e as u32;
        }
        (
            RoadNetwork {
                points: self.points.clone(),
                offsets,
                heads,
                weights,
                tails,
            },
            orig,
        )
    }

    /// A copy of this network with every arc weight deterministically
    /// perturbed by up to ±20% — the "updated edge weights" a live traffic
    /// feed would deliver between database generations. Topology and
    /// coordinates are untouched, so the same `EdgeId`s and query points
    /// remain valid against the rebuilt database. The jitter is keyed on
    /// `seed` and the *unordered* endpoint pair: the two directions of an
    /// undirected road get the same factor, preserving symmetry.
    pub fn reweighted(&self, seed: u64) -> RoadNetwork {
        let mut weights = self.weights.clone();
        for (e, w_out) in weights.iter_mut().enumerate() {
            let (u, v) = self.edge_endpoints(e as EdgeId);
            let (a, b) = if u <= v { (u, v) } else { (v, u) };
            // splitmix-style hash of (seed, unordered endpoint pair)
            let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
            for x in [u64::from(a), u64::from(b)] {
                h = h.wrapping_add(x).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                h ^= h >> 27;
            }
            let pct = 80 + (h % 41); // 80..=120 percent of the old weight
            let w = u64::from(self.weights[e]);
            *w_out = (((w * pct + 50) / 100).max(1)).min(u64::from(Weight::MAX)) as Weight;
        }
        RoadNetwork {
            points: self.points.clone(),
            offsets: self.offsets.clone(),
            heads: self.heads.clone(),
            weights,
            tails: self.tails.clone(),
        }
    }

    /// Nearest node to `p`, ties broken by the lowest node id (linear scan:
    /// the OBF baseline's LBS snaps query points this way; the index schemes
    /// use the KD header for the real lookup).
    pub fn nearest_node(&self, p: Point) -> Option<NodeId> {
        (0..self.num_nodes() as u32).min_by_key(|&u| self.points[u as usize].dist2(&p))
    }

    /// Serialized size of node `u`'s record in the region-data file `Fd`:
    /// `node_id (4) + x (4) + y (4) + degree (2) + degree × (head 4 + weight 4)`.
    /// This drives the packed KD-tree construction (§5.6), where `z` is the
    /// largest such record.
    pub fn node_record_bytes(&self, u: NodeId) -> usize {
        14 + 8 * self.degree(u)
    }
}

/// Incremental builder for [`RoadNetwork`].
#[derive(Debug, Default, Clone)]
pub struct NetworkBuilder {
    points: Vec<Point>,
    arcs: Vec<(NodeId, NodeId, Weight)>,
}

impl NetworkBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, p: Point) -> NodeId {
        self.points.push(p);
        (self.points.len() - 1) as NodeId
    }

    /// Adds a directed arc. Zero weights are clamped to 1 to preserve the
    /// paper's positive-weight requirement.
    pub fn add_arc(&mut self, u: NodeId, v: NodeId, w: Weight) {
        self.arcs.push((u, v, w.max(1)));
    }

    /// Adds both arcs of an undirected road segment.
    pub fn add_undirected(&mut self, u: NodeId, v: NodeId, w: Weight) {
        self.add_arc(u, v, w);
        self.add_arc(v, u, w);
    }

    /// Finishes the CSR arrays. Arcs are grouped by tail and sorted by
    /// `(head, weight)` within each group for deterministic iteration order
    /// (and hence deterministic canonical shortest-path trees).
    ///
    /// # Panics
    /// Panics if an arc references a missing node or is a self-loop
    /// (self-loops can never appear on a shortest path and would complicate
    /// border-node subdivision).
    pub fn build(mut self) -> RoadNetwork {
        let n = self.points.len();
        for &(u, v, _) in &self.arcs {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "arc references missing node"
            );
            assert_ne!(u, v, "self-loops are not allowed");
        }
        self.arcs.sort_unstable_by_key(|&(u, v, w)| (u, v, w));
        self.arcs.dedup();
        let mut offsets = vec![0u32; n + 1];
        for &(u, _, _) in &self.arcs {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let m = self.arcs.len();
        let mut heads = Vec::with_capacity(m);
        let mut weights = Vec::with_capacity(m);
        let mut tails = Vec::with_capacity(m);
        for &(u, v, w) in &self.arcs {
            tails.push(u);
            heads.push(v);
            weights.push(w);
        }
        RoadNetwork {
            points: self.points,
            offsets,
            heads,
            weights,
            tails,
        }
    }
}

#[cfg(test)]
impl RoadNetwork {
    /// All node coordinates.
    pub(crate) fn points(&self) -> &[Point] {
        &self.points
    }

    /// True if every node can reach every other node (checked via forward and
    /// backward BFS from node 0).
    pub(crate) fn is_strongly_connected(&self) -> bool {
        if self.num_nodes() == 0 {
            return true;
        }
        let full = |net: &RoadNetwork| {
            let mut seen = vec![false; net.num_nodes()];
            let mut stack = vec![0u32];
            seen[0] = true;
            let mut count = 1usize;
            while let Some(u) = stack.pop() {
                for (_, v, _) in net.arcs_from(u) {
                    if !seen[v as usize] {
                        seen[v as usize] = true;
                        count += 1;
                        stack.push(v);
                    }
                }
            }
            count == net.num_nodes()
        };
        full(self) && full(&self.reversed().0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> RoadNetwork {
        // 0 -> 1 -> 3, 0 -> 2 -> 3; cost via 1 is 3, via 2 is 4.
        let mut b = NetworkBuilder::new();
        for (x, y) in [(0, 0), (1, 1), (1, -1), (2, 0)] {
            b.add_node(Point::new(x, y));
        }
        b.add_arc(0, 1, 1);
        b.add_arc(1, 3, 2);
        b.add_arc(0, 2, 2);
        b.add_arc(2, 3, 2);
        b.build()
    }

    #[test]
    fn csr_layout() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_arcs(), 4);
        let arcs: Vec<_> = g.arcs_from(0).collect();
        assert_eq!(arcs.len(), 2);
        // sorted by head within the group
        assert_eq!(arcs[0].1, 1);
        assert_eq!(arcs[1].1, 2);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn edge_endpoints_match_iteration() {
        let g = diamond();
        for u in 0..g.num_nodes() as u32 {
            for (e, v, w) in g.arcs_from(u) {
                assert_eq!(g.edge_endpoints(e), (u, v));
                assert_eq!(g.edge_weight(e), w);
            }
        }
    }

    #[test]
    fn reverse_maps_edges() {
        let g = diamond();
        let (r, orig) = g.reversed();
        assert_eq!(r.num_arcs(), g.num_arcs());
        for e in 0..r.num_arcs() as u32 {
            let (t, h) = r.edge_endpoints(e);
            let (ot, oh) = g.edge_endpoints(orig[e as usize]);
            assert_eq!((t, h), (oh, ot));
            assert_eq!(r.edge_weight(e), g.edge_weight(orig[e as usize]));
        }
    }

    #[test]
    fn connectivity() {
        let g = diamond();
        assert!(!g.is_strongly_connected()); // no arcs back to 0
        let mut b = NetworkBuilder::new();
        b.add_node(Point::new(0, 0));
        b.add_node(Point::new(1, 0));
        b.add_undirected(0, 1, 5);
        assert!(b.build().is_strongly_connected());
    }

    #[test]
    fn bounding_box() {
        let g = diamond();
        let (min, max) = g.bounding_box().unwrap();
        assert_eq!(min, Point::new(0, -1));
        assert_eq!(max, Point::new(2, 1));
    }

    #[test]
    fn nearest_node_finds_closest() {
        let g = diamond();
        assert_eq!(g.nearest_node(Point::new(0, 0)), Some(0));
        assert_eq!(g.nearest_node(Point::new(2, 0)), Some(3));
        assert_eq!(g.nearest_node(Point::new(1, 1)), Some(1));
    }

    #[test]
    fn zero_weights_clamped() {
        let mut b = NetworkBuilder::new();
        b.add_node(Point::new(0, 0));
        b.add_node(Point::new(1, 0));
        b.add_arc(0, 1, 0);
        let g = b.build();
        assert_eq!(g.edge_weight(0), 1);
    }

    #[test]
    fn duplicate_arcs_deduped() {
        let mut b = NetworkBuilder::new();
        b.add_node(Point::new(0, 0));
        b.add_node(Point::new(1, 0));
        b.add_arc(0, 1, 3);
        b.add_arc(0, 1, 3);
        assert_eq!(b.build().num_arcs(), 1);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loops_rejected() {
        let mut b = NetworkBuilder::new();
        b.add_node(Point::new(0, 0));
        b.add_arc(0, 0, 1);
        b.build();
    }

    #[test]
    fn record_bytes() {
        let g = diamond();
        assert_eq!(g.node_record_bytes(0), 14 + 16); // degree 2
        assert_eq!(g.node_record_bytes(3), 14); // degree 0
    }

    #[test]
    fn reweighted_jitters_symmetrically_within_bounds() {
        let mut b = NetworkBuilder::new();
        for i in 0..4 {
            b.add_node(Point::new(i, 0));
        }
        b.add_undirected(0, 1, 100);
        b.add_undirected(1, 2, 100);
        b.add_undirected(2, 3, 100);
        let g = b.build();
        let r = g.reweighted(7);
        assert_eq!(r.num_nodes(), g.num_nodes());
        assert_eq!(r.num_arcs(), g.num_arcs());
        let mut changed = false;
        for e in 0..g.num_arcs() as EdgeId {
            assert_eq!(r.edge_endpoints(e), g.edge_endpoints(e));
            let w = r.edge_weight(e);
            assert!((80..=120).contains(&w), "weight {w} out of the ±20% band");
            changed |= w != g.edge_weight(e);
            // the reverse direction of an undirected road keeps symmetry
            let (u, v) = g.edge_endpoints(e);
            let back = (0..g.num_arcs() as EdgeId)
                .find(|&f| g.edge_endpoints(f) == (v, u))
                .unwrap();
            assert_eq!(r.edge_weight(back), w, "asymmetric jitter on {u}-{v}");
        }
        assert!(changed, "seeded jitter should move at least one weight");
        // deterministic in the seed
        assert_eq!(
            (0..g.num_arcs() as EdgeId)
                .map(|e| g.reweighted(7).edge_weight(e))
                .collect::<Vec<_>>(),
            (0..g.num_arcs() as EdgeId)
                .map(|e| r.edge_weight(e))
                .collect::<Vec<_>>()
        );
        // weight-1 arcs stay legal
        let mut b = NetworkBuilder::new();
        b.add_node(Point::new(0, 0));
        b.add_node(Point::new(1, 0));
        b.add_arc(0, 1, 1);
        let tiny = b.build().reweighted(3);
        assert!(tiny.edge_weight(0) >= 1);
    }
}
