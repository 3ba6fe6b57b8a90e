//! Arc-flag pre-computation — the substrate of the AF baseline (§4).
//!
//! Arc-flag \[21\] "requires partitioning the road network into regions. For
//! each edge e ∈ E, it keeps a bit-vector where every bit corresponds to a
//! region – the bit for a region is set to 1 only if there is a shortest path
//! from one endpoint of e to a node in that region that passes through e."
//! Queries then expand only edges whose bit for the *destination* region is
//! set.

use crate::bitset::FixedBitset;
use crate::dijkstra::{dijkstra, INFINITY};
use crate::network::RoadNetwork;
use crate::types::{Dist, EdgeId, NodeId};

/// Per-edge region bit-vectors.
#[derive(Debug, Clone)]
pub struct ArcFlags {
    regions: usize,
    words_per_edge: usize,
    /// Flattened: edge `e` owns words `[e*wpe, (e+1)*wpe)`.
    words: Vec<u64>,
}

impl ArcFlags {
    /// Number of regions (bits per edge).
    pub fn num_regions(&self) -> usize {
        self.regions
    }

    /// Words per edge in the flat array.
    pub fn words_per_edge(&self) -> usize {
        self.words_per_edge
    }

    /// True if edge `e` may lie on a shortest path into `region`.
    pub fn get(&self, e: EdgeId, region: usize) -> bool {
        assert!(region < self.regions);
        let base = e as usize * self.words_per_edge;
        self.words[base + region / 64] >> (region % 64) & 1 == 1
    }

    fn set(&mut self, e: EdgeId, region: usize) {
        let base = e as usize * self.words_per_edge;
        self.words[base + region / 64] |= 1 << (region % 64);
    }

    /// The flag vector of edge `e` as a [`FixedBitset`].
    pub fn edge_flags(&self, e: EdgeId) -> FixedBitset {
        let base = e as usize * self.words_per_edge;
        FixedBitset::from_words(
            self.words_per_edge * 64,
            self.words[base..base + self.words_per_edge].to_vec(),
        )
    }

    /// Serialized size of one edge's flag vector in bytes.
    pub fn flag_bytes(&self) -> usize {
        self.regions.div_ceil(8)
    }

    /// Fraction of set bits (diagnostic: sparser is better for pruning).
    pub fn density(&self) -> f64 {
        let ones: u64 = self.words.iter().map(|w| w.count_ones() as u64).sum();
        let total = self.words.len() as u64 * 64;
        ones as f64 / total as f64
    }

    /// Computes arc flags for `net` under the region assignment
    /// `region_of[node]` with `regions` regions.
    ///
    /// For every region `j`, a backward Dijkstra runs from each *boundary
    /// node* of `j` (a node of `j` with an incoming arc from outside); an arc
    /// `(u, v)` receives flag `j` when it is tight on some shortest path
    /// toward that boundary node (`d(u→b) = w(u,v) + d(v→b)`). Intra-region
    /// arcs always carry their own region's flag.
    pub fn compute(net: &RoadNetwork, region_of: &[u16], regions: usize) -> ArcFlags {
        assert_eq!(region_of.len(), net.num_nodes());
        let words_per_edge = regions.div_ceil(64).max(1);
        let mut flags = ArcFlags {
            regions,
            words_per_edge,
            words: vec![0; net.num_arcs() * words_per_edge],
        };

        // Intra-region arcs.
        for e in 0..net.num_arcs() as u32 {
            let (u, v) = net.edge_endpoints(e);
            let (ru, rv) = (region_of[u as usize], region_of[v as usize]);
            flags.set(e, rv as usize);
            if ru == rv {
                flags.set(e, ru as usize);
            }
        }

        // Boundary nodes per region.
        let (rev, rev_to_orig) = net.reversed();
        let mut boundary: Vec<Vec<NodeId>> = vec![Vec::new(); regions];
        for e in 0..net.num_arcs() as u32 {
            let (u, v) = net.edge_endpoints(e);
            if region_of[u as usize] != region_of[v as usize] {
                boundary[region_of[v as usize] as usize].push(v);
            }
        }
        for list in &mut boundary {
            list.sort_unstable();
            list.dedup();
        }

        for (j, nodes) in boundary.iter().enumerate() {
            for &b in nodes {
                // dist_to_b[x] = shortest distance x -> b in the original net.
                let tree = dijkstra(&rev, b);
                for re in 0..rev.num_arcs() as u32 {
                    // reverse arc re = (v, u) corresponds to original (u, v)
                    let (v, u) = rev.edge_endpoints(re);
                    let (dv, du) = (tree.dist[v as usize], tree.dist[u as usize]);
                    if du == INFINITY || dv == INFINITY {
                        continue;
                    }
                    if du == dv + Dist::from(rev.edge_weight(re)) {
                        flags.set(rev_to_orig[re as usize], j);
                    }
                }
            }
        }
        flags
    }
}

/// Runs an arc-flag-pruned Dijkstra from `s` to `t`: only arcs whose flag for
/// `t`'s region is set are relaxed. Returns the (optimal) cost and the number
/// of settled nodes, mirroring [`crate::astar::AStarResult`].
pub fn arcflag_query(
    net: &RoadNetwork,
    flags: &ArcFlags,
    region_of: &[u16],
    s: NodeId,
    t: NodeId,
) -> (Dist, usize) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let goal_region = region_of[t as usize] as usize;
    let n = net.num_nodes();
    let mut dist = vec![INFINITY; n];
    let mut closed = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[s as usize] = 0;
    heap.push(Reverse((0 as Dist, s)));
    let mut settled = 0usize;
    while let Some(Reverse((d, u))) = heap.pop() {
        if closed[u as usize] {
            continue;
        }
        closed[u as usize] = true;
        settled += 1;
        if u == t {
            return (d, settled);
        }
        for (e, v, w) in net.arcs_from(u) {
            if !flags.get(e, goal_region) {
                continue;
            }
            let nd = d + Dist::from(w);
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    (INFINITY, settled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::distance;
    use crate::gen::{grid_network, GridGenConfig};

    /// 2x2 block partition of a grid network.
    fn quad_regions(net: &RoadNetwork) -> Vec<u16> {
        let (min, max) = net.bounding_box().unwrap();
        let midx = (i64::from(min.x) + i64::from(max.x)) / 2;
        let midy = (i64::from(min.y) + i64::from(max.y)) / 2;
        net.points()
            .iter()
            .map(|p| {
                let rx = u16::from(i64::from(p.x) > midx);
                let ry = u16::from(i64::from(p.y) > midy);
                ry * 2 + rx
            })
            .collect()
    }

    #[test]
    fn pruned_queries_stay_optimal() {
        let net = grid_network(&GridGenConfig {
            nx: 8,
            ny: 8,
            ..Default::default()
        });
        let regions = quad_regions(&net);
        let flags = ArcFlags::compute(&net, &regions, 4);
        for s in (0..64u32).step_by(5) {
            for t in (0..64u32).step_by(7) {
                let (cost, _) = arcflag_query(&net, &flags, &regions, s, t);
                assert_eq!(cost, distance(&net, s, t), "query {s}->{t}");
            }
        }
    }

    #[test]
    fn pruning_reduces_search() {
        let net = grid_network(&GridGenConfig {
            nx: 12,
            ny: 12,
            ..Default::default()
        });
        let regions = quad_regions(&net);
        let flags = ArcFlags::compute(&net, &regions, 4);
        let (_, settled_flagged) = arcflag_query(&net, &flags, &regions, 0, 143);
        // flags strictly prune vs. all-ones baseline
        let all = ArcFlags {
            regions: 4,
            words_per_edge: 1,
            words: vec![u64::MAX; net.num_arcs()],
        };
        let (_, settled_all) = arcflag_query(&net, &all, &regions, 0, 143);
        assert!(settled_flagged <= settled_all);
        assert!(flags.density() < 1.0);
    }

    #[test]
    fn intra_region_flags_set() {
        let net = grid_network(&GridGenConfig {
            nx: 6,
            ny: 6,
            ..Default::default()
        });
        let regions = quad_regions(&net);
        let flags = ArcFlags::compute(&net, &regions, 4);
        for e in 0..net.num_arcs() as u32 {
            let (u, v) = net.edge_endpoints(e);
            if regions[u as usize] == regions[v as usize] {
                assert!(flags.get(e, regions[u as usize] as usize));
            }
        }
    }

    #[test]
    fn flag_bytes_rounds_up() {
        let net = grid_network(&GridGenConfig {
            nx: 3,
            ny: 3,
            ..Default::default()
        });
        let regions = vec![0u16; net.num_nodes()];
        let flags = ArcFlags::compute(&net, &regions, 9);
        assert_eq!(flags.flag_bytes(), 2);
        assert_eq!(flags.num_regions(), 9);
    }

    #[test]
    fn edge_flags_round_trip() {
        let net = grid_network(&GridGenConfig {
            nx: 4,
            ny: 4,
            ..Default::default()
        });
        let regions = quad_regions(&net);
        let flags = ArcFlags::compute(&net, &regions, 4);
        for e in (0..net.num_arcs() as u32).step_by(3) {
            let bs = flags.edge_flags(e);
            for r in 0..4 {
                assert_eq!(bs.get(r), flags.get(e, r));
            }
        }
    }
}
