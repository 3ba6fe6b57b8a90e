//! Plain and packed KD-tree partition builders.
//!
//! Both builders cut the node set until each leaf's serialized network data
//! fits in one disk page (or one *cluster* of pages for PI*). The plain
//! builder splits at the median node — the textbook KD-tree of §5.1, which
//! "would leave up to 50% unutilized space". The packed builder implements
//! §5.6: splits at byte position `2^i·(B−z)` along the sorted byte stream,
//! guaranteeing high utilization.
//!
//! Deviation from the paper: the paper's byte-split argument can overflow a
//! page by up to `z` bytes in adversarial inputs, so we split against an
//! effective target of `B − 2z` and keep a plain-split fallback for any leaf
//! that still exceeds `B`; no page ever overflows and measured utilization
//! stays >95%.

use crate::kdtree::{KdNode, KdTree, RegionId};
use privpath_graph::network::RoadNetwork;
use privpath_graph::types::NodeId;

/// A finished partition: the tree plus node-to-region assignment.
#[derive(Debug, Clone)]
pub struct Partition {
    /// The region tree (serialized into the header file).
    pub tree: KdTree,
    /// Region of each network node.
    pub region_of_node: Vec<RegionId>,
    /// Nodes of each region, ascending.
    pub region_nodes: Vec<Vec<NodeId>>,
    /// Serialized bytes of each region's node records.
    pub region_bytes: Vec<usize>,
    /// Page-payload capacity the builder packed against.
    pub(crate) capacity: usize,
}

impl Partition {
    /// Number of regions.
    pub fn num_regions(&self) -> u16 {
        self.tree.num_regions()
    }

    /// Mean fraction of `capacity` actually used per region — the space
    /// utilization metric of Figure 8(a).
    pub fn utilization(&self) -> f64 {
        if self.region_bytes.is_empty() {
            return 0.0;
        }
        let used: usize = self.region_bytes.iter().sum();
        used as f64 / (self.capacity as f64 * self.region_bytes.len() as f64)
    }
}

#[derive(Clone, Copy)]
struct Item {
    node: NodeId,
    x: i32,
    y: i32,
    bytes: usize,
}

impl Item {
    fn coord(&self, axis: u8) -> i32 {
        if axis == 0 {
            self.x
        } else {
            self.y
        }
    }
}

struct BuildCtx {
    nodes: Vec<KdNode>,
    next_region: u16,
    assign: Vec<RegionId>,
    capacity: usize,
}

impl BuildCtx {
    fn make_leaf(&mut self, items: &[Item]) -> u32 {
        let region = self.next_region;
        self.next_region = self
            .next_region
            .checked_add(1)
            .expect("more than 65535 regions; increase the page size or cluster factor");
        for it in items {
            self.assign[it.node as usize] = region;
        }
        let idx = self.nodes.len() as u32;
        self.nodes.push(KdNode::Leaf { region });
        idx
    }

    /// Pushes a split placeholder, builds children via `f`, patches links.
    fn make_split(
        &mut self,
        axis: u8,
        coord2: i64,
        f: impl FnOnce(&mut Self) -> (u32, u32),
    ) -> u32 {
        let idx = self.nodes.len() as u32;
        self.nodes.push(KdNode::Split {
            axis,
            coord2,
            left: 0,
            right: 0,
        });
        let (l, r) = f(self);
        if let KdNode::Split { left, right, .. } = &mut self.nodes[idx as usize] {
            *left = l;
            *right = r;
        }
        idx
    }
}

fn total_bytes(items: &[Item]) -> usize {
    items.iter().map(|i| i.bytes).sum()
}

fn sort_axis(items: &mut [Item], axis: u8) {
    items.sort_unstable_by_key(|i| (i.coord(axis), i.node));
}

/// Finds a split index near `want` (in `1..items.len()`) that falls on a
/// coordinate boundary of `axis` (so the geometric line separates the two
/// sides). Returns `None` if all items share the coordinate.
fn boundary_near(items: &[Item], axis: u8, want: usize) -> Option<usize> {
    let n = items.len();
    debug_assert!(n >= 2);
    let want = want.clamp(1, n - 1);
    let ok = |k: usize| items[k - 1].coord(axis) != items[k].coord(axis);
    if ok(want) {
        return Some(want);
    }
    for d in 1..n {
        if want + d < n && ok(want + d) {
            return Some(want + d);
        }
        if want > d && ok(want - d) {
            return Some(want - d);
        }
    }
    None
}

/// Index `k` where the byte prefix sum crosses `target`, with the straddling
/// item pushed to whichever side lands closer to `target`; clamped to
/// `1..items.len()`.
fn byte_split_index(items: &[Item], target: usize) -> usize {
    let mut acc = 0usize;
    for (i, it) in items.iter().enumerate() {
        let next = acc + it.bytes;
        if next >= target {
            // push straddler left (k = i+1) or right (k = i)?
            let k = if next - target <= target.saturating_sub(acc) {
                i + 1
            } else {
                i
            };
            return k.clamp(1, items.len() - 1);
        }
        acc = next;
    }
    items.len() - 1
}

/// How the split position is chosen.
enum SplitGoal {
    /// Near a byte prefix-sum position (packed construction).
    Bytes(usize),
    /// At the median item (plain KD-tree).
    MedianItem,
}

/// Splits `items` at a coordinate boundary near the goal position on `axis`,
/// falling back to the other axis. Returns `(axis_used, k, coord2)`.
fn split_point(items: &mut [Item], axis: u8, goal: SplitGoal) -> (u8, usize, i64) {
    for candidate in [axis, axis ^ 1] {
        sort_axis(items, candidate);
        let want = match goal {
            SplitGoal::Bytes(target) => byte_split_index(items, target),
            SplitGoal::MedianItem => items.len() / 2,
        };
        if let Some(k) = boundary_near(items, candidate, want) {
            let coord2 = 2 * i64::from(items[k].coord(candidate)) - 1;
            return (candidate, k, coord2);
        }
    }
    panic!(
        "cannot split: all {} items share identical coordinates",
        items.len()
    );
}

/// Plain recursive median split (§5.1's baseline construction).
fn build_plain(ctx: &mut BuildCtx, items: &mut [Item], axis: u8) -> u32 {
    if total_bytes(items) <= ctx.capacity || items.len() < 2 {
        assert!(
            total_bytes(items) <= ctx.capacity,
            "single node record exceeds page capacity; use a larger page size"
        );
        return ctx.make_leaf(items);
    }
    let (axis_used, k, coord2) = split_point(items, axis, SplitGoal::MedianItem);
    let (l_items, r_items) = items.split_at_mut(k);
    ctx.make_split(axis_used, coord2, |ctx| {
        let l = build_plain(ctx, l_items, axis_used ^ 1);
        let r = build_plain(ctx, r_items, axis_used ^ 1);
        (l, r)
    })
}

/// Balanced byte-median splits producing `leaves` leaves (the left-subtree
/// step of §5.6). Falls back to further splitting if a leaf still exceeds
/// capacity.
fn build_balanced(ctx: &mut BuildCtx, items: &mut [Item], axis: u8, leaves: usize) -> u32 {
    if leaves <= 1 || items.len() < 2 {
        if total_bytes(items) > ctx.capacity {
            return build_plain(ctx, items, axis);
        }
        return ctx.make_leaf(items);
    }
    let half = total_bytes(items) / 2;
    let (axis_used, k, coord2) = split_point(items, axis, SplitGoal::Bytes(half.max(1)));
    let (l_items, r_items) = items.split_at_mut(k);
    ctx.make_split(axis_used, coord2, |ctx| {
        let l = build_balanced(ctx, l_items, axis_used ^ 1, leaves / 2);
        let r = build_balanced(ctx, r_items, axis_used ^ 1, leaves - leaves / 2);
        (l, r)
    })
}

/// The packed construction of §5.6: split the byte stream at `2^i · target`
/// for the smallest `i` placing the split right of the middle byte; the left
/// part becomes `2^i` tightly-packed leaves, the right part recurses.
fn build_packed_rec(ctx: &mut BuildCtx, items: &mut [Item], axis: u8, target: usize) -> u32 {
    let w = total_bytes(items);
    if w <= ctx.capacity || items.len() < 2 {
        assert!(
            w <= ctx.capacity,
            "single node record exceeds page capacity; use a larger page size"
        );
        return ctx.make_leaf(items);
    }
    let mut i = 0u32;
    let mut p = target;
    while p <= w / 2 {
        i += 1;
        p = target << i;
    }
    let leaves = 1usize << i;
    if p >= w {
        // The whole group already fits the 2^i leaf budget.
        return build_balanced(ctx, items, axis, leaves);
    }
    let (axis_used, k, coord2) = split_point(items, axis, SplitGoal::Bytes(p));
    let (l_items, r_items) = items.split_at_mut(k);
    ctx.make_split(axis_used, coord2, |ctx| {
        let l = build_balanced(ctx, l_items, axis_used ^ 1, leaves);
        let r = build_packed_rec(ctx, r_items, axis_used ^ 1, target);
        (l, r)
    })
}

fn finish(ctx: BuildCtx, net: &RoadNetwork, bytes_of: &dyn Fn(NodeId) -> usize) -> Partition {
    let tree = KdTree::from_nodes(ctx.nodes);
    let regions = tree.num_regions() as usize;
    let mut region_nodes = vec![Vec::new(); regions];
    let mut region_bytes = vec![0usize; regions];
    for u in 0..net.num_nodes() as u32 {
        let r = ctx.assign[u as usize] as usize;
        region_nodes[r].push(u);
        region_bytes[r] += bytes_of(u);
    }
    for (r, b) in region_bytes.iter().enumerate() {
        assert!(
            *b <= ctx.capacity,
            "region {r} overflows capacity ({b} > {}): builder bug",
            ctx.capacity
        );
    }
    Partition {
        tree,
        region_of_node: ctx.assign,
        region_nodes,
        region_bytes,
        capacity: ctx.capacity,
    }
}

fn items_of(net: &RoadNetwork, bytes_of: &dyn Fn(NodeId) -> usize) -> Vec<Item> {
    (0..net.num_nodes() as u32)
        .map(|u| {
            let p = net.node_point(u);
            Item {
                node: u,
                x: p.x,
                y: p.y,
                bytes: bytes_of(u),
            }
        })
        .collect()
}

/// Builds a plain (median-split) partition with page payload `capacity`.
pub fn partition_plain(
    net: &RoadNetwork,
    capacity: usize,
    bytes_of: &dyn Fn(NodeId) -> usize,
) -> Partition {
    assert!(net.num_nodes() > 0, "cannot partition an empty network");
    let mut items = items_of(net, bytes_of);
    let mut ctx = BuildCtx {
        nodes: Vec::new(),
        next_region: 0,
        assign: vec![0; net.num_nodes()],
        capacity,
    };
    build_plain(&mut ctx, &mut items, 0);
    finish(ctx, net, bytes_of)
}

/// Splits into exactly `leaves` regions at count-medians (no byte capacity
/// constraint) — the partitioning used by the AF baseline, where "the number
/// of pages per region is a parameter of the method" (§4) rather than one
/// page per region. `capacity` in the result is set to the largest region's
/// byte size (so utilization is 100% for the max region).
pub fn partition_into(
    net: &RoadNetwork,
    leaves: usize,
    bytes_of: &dyn Fn(NodeId) -> usize,
) -> Partition {
    assert!(net.num_nodes() > 0, "cannot partition an empty network");
    assert!(leaves >= 1, "need at least one region");
    fn split_into(ctx: &mut BuildCtx, items: &mut [Item], axis: u8, k: usize) -> u32 {
        if k <= 1 || items.len() < 2 {
            return ctx.make_leaf(items);
        }
        let kl = k / 2;
        let want = items.len() * kl / k;
        // reuse the coordinate-boundary machinery via a temporary sort
        sort_axis(items, axis);
        let (axis_used, split_k, coord2) = match boundary_near(items, axis, want.max(1)) {
            Some(b) => (axis, b, 2 * i64::from(items[b].coord(axis)) - 1),
            None => {
                let other = axis ^ 1;
                sort_axis(items, other);
                match boundary_near(items, other, want.max(1)) {
                    Some(b) => (other, b, 2 * i64::from(items[b].coord(other)) - 1),
                    None => return ctx.make_leaf(items),
                }
            }
        };
        let (l_items, r_items) = items.split_at_mut(split_k);
        ctx.make_split(axis_used, coord2, |ctx| {
            let l = split_into(ctx, l_items, axis_used ^ 1, kl.max(1));
            let r = split_into(ctx, r_items, axis_used ^ 1, (k - kl).max(1));
            (l, r)
        })
    }
    let mut items = items_of(net, bytes_of);
    let mut ctx = BuildCtx {
        nodes: Vec::new(),
        next_region: 0,
        assign: vec![0; net.num_nodes()],
        capacity: usize::MAX,
    };
    split_into(&mut ctx, &mut items, 0, leaves);
    let mut part = finish(ctx, net, bytes_of);
    part.capacity = part.region_bytes.iter().copied().max().unwrap_or(1).max(1);
    part
}

/// Builds a packed partition (§5.6) with page payload `capacity`.
pub fn partition_packed(
    net: &RoadNetwork,
    capacity: usize,
    bytes_of: &dyn Fn(NodeId) -> usize,
) -> Partition {
    assert!(net.num_nodes() > 0, "cannot partition an empty network");
    let mut items = items_of(net, bytes_of);
    let z = items.iter().map(|i| i.bytes).max().unwrap_or(0);
    assert!(
        z <= capacity,
        "largest node record ({z} bytes) exceeds page capacity {capacity}"
    );
    // The paper's target B − z; leaves that still overflow after straddler
    // pushes and coordinate-boundary adjustments fall back to a further
    // median split (module docs), so `capacity` is a hard bound either way.
    let target = capacity.saturating_sub(z).max(z.max(1));
    let mut ctx = BuildCtx {
        nodes: Vec::new(),
        next_region: 0,
        assign: vec![0; net.num_nodes()],
        capacity,
    };
    build_packed_rec(&mut ctx, &mut items, 0, target);
    finish(ctx, net, bytes_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use privpath_graph::gen::{grid_network, road_like, GridGenConfig, RoadGenConfig};

    fn record_bytes(net: &RoadNetwork) -> impl Fn(NodeId) -> usize + '_ {
        move |u| net.node_record_bytes(u)
    }

    #[test]
    fn plain_partition_respects_capacity() {
        let net = road_like(&RoadGenConfig {
            nodes: 2000,
            seed: 5,
            ..Default::default()
        });
        let cap = 1024;
        let p = partition_plain(&net, cap, &record_bytes(&net));
        assert!(p.num_regions() > 1);
        for &b in &p.region_bytes {
            assert!(b <= cap);
        }
        // every node assigned to the region its point maps to
        for u in 0..net.num_nodes() as u32 {
            assert_eq!(
                p.tree.region_of(net.node_point(u)),
                p.region_of_node[u as usize]
            );
        }
    }

    #[test]
    fn packed_partition_utilization_beats_plain() {
        // Average over several networks: a single size can flatter the plain
        // tree (utilization W / (2^d · cap) swings with W), but packed must
        // dominate on average and stay above 90% everywhere.
        let cap = 2048;
        let mut plain_sum = 0.0;
        let mut packed_sum = 0.0;
        for seed in [6, 7, 8, 9] {
            let net = road_like(&RoadGenConfig {
                nodes: 2500 + seed as usize * 371,
                seed,
                ..Default::default()
            });
            let plain = partition_plain(&net, cap, &record_bytes(&net));
            let packed = partition_packed(&net, cap, &record_bytes(&net));
            plain_sum += plain.utilization();
            packed_sum += packed.utilization();
            assert!(
                packed.utilization() > 0.90,
                "packed utilization {:.3}",
                packed.utilization()
            );
            assert!(packed.num_regions() <= plain.num_regions());
        }
        assert!(
            packed_sum > plain_sum,
            "packed {packed_sum:.3} <= plain {plain_sum:.3}"
        );
    }

    #[test]
    fn packed_regions_respect_capacity() {
        let net = road_like(&RoadGenConfig {
            nodes: 3000,
            seed: 7,
            ..Default::default()
        });
        let cap = 1500;
        let p = partition_packed(&net, cap, &record_bytes(&net));
        for &b in &p.region_bytes {
            assert!(b <= cap);
        }
        for u in 0..net.num_nodes() as u32 {
            assert_eq!(
                p.tree.region_of(net.node_point(u)),
                p.region_of_node[u as usize]
            );
        }
    }

    #[test]
    fn grid_points_with_ties_still_split() {
        // Grid without jitter has massive coordinate ties on both axes.
        let net = grid_network(&GridGenConfig {
            nx: 30,
            ny: 30,
            jitter: 0,
            ..Default::default()
        });
        let p = partition_packed(&net, 2048, &record_bytes(&net));
        for &b in &p.region_bytes {
            assert!(b <= 2048);
        }
        let q = partition_plain(&net, 2048, &record_bytes(&net));
        for &b in &q.region_bytes {
            assert!(b <= 2048);
        }
    }

    #[test]
    fn whole_network_in_one_region_when_it_fits() {
        let net = grid_network(&GridGenConfig {
            nx: 3,
            ny: 3,
            ..Default::default()
        });
        let p = partition_packed(&net, 1 << 20, &record_bytes(&net));
        assert_eq!(p.num_regions(), 1);
        assert!(p.region_of_node.iter().all(|&r| r == 0));
    }

    #[test]
    fn region_nodes_partition_the_node_set() {
        let net = road_like(&RoadGenConfig {
            nodes: 1000,
            seed: 8,
            ..Default::default()
        });
        let p = partition_packed(&net, 1024, &record_bytes(&net));
        let mut seen = vec![false; net.num_nodes()];
        for (r, nodes) in p.region_nodes.iter().enumerate() {
            for &u in nodes {
                assert!(!seen[u as usize]);
                seen[u as usize] = true;
                assert_eq!(p.region_of_node[u as usize] as usize, r);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "exceeds page capacity")]
    fn oversized_record_rejected() {
        let net = grid_network(&GridGenConfig {
            nx: 3,
            ny: 3,
            ..Default::default()
        });
        partition_packed(&net, 8, &|_| 100);
    }

    #[test]
    fn partition_into_hits_leaf_count() {
        let net = road_like(&RoadGenConfig {
            nodes: 1000,
            seed: 12,
            ..Default::default()
        });
        for k in [1usize, 2, 5, 8, 16] {
            let p = partition_into(&net, k, &record_bytes(&net));
            assert_eq!(p.num_regions() as usize, k, "leaf count for k={k}");
            for u in 0..net.num_nodes() as u32 {
                assert_eq!(
                    p.tree.region_of(net.node_point(u)),
                    p.region_of_node[u as usize]
                );
            }
        }
    }

    #[test]
    fn partition_into_balances_counts() {
        let net = road_like(&RoadGenConfig {
            nodes: 900,
            seed: 13,
            ..Default::default()
        });
        let p = partition_into(&net, 9, &record_bytes(&net));
        for nodes in &p.region_nodes {
            assert!(
                (60..=140).contains(&nodes.len()),
                "region of {} nodes",
                nodes.len()
            );
        }
    }

    #[test]
    fn utilization_of_uniform_records() {
        // 100 nodes × 100 bytes, capacity 1000: packed should approach ~10 per page.
        let net = road_like(&RoadGenConfig {
            nodes: 100,
            seed: 3,
            ..Default::default()
        });
        let p = partition_packed(&net, 1000, &|_| 100);
        assert!(p.utilization() >= 0.7, "utilization {:.3}", p.utilization());
    }
}
