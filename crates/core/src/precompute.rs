//! Pre-computation of the region sets `S_ij` (CI, §5.2) and exact subgraphs
//! `G_ij` (PI, §6).
//!
//! For every pair of regions `(R_i, R_j)`, the paper materializes information
//! about the shortest paths between all border-node pairs `(v ∈ R_i,
//! v' ∈ R_j)`:
//!
//! * `S_ij` — the regions those paths cross (precisely: the regions of the
//!   *tail nodes* of their edges, which is exactly the set of `Fd` pages the
//!   client needs to reassemble the paths);
//! * `G_ij` — the exact edges appearing on them.
//!
//! Instead of walking each of the `O(borders²)` paths, we run one Dijkstra
//! per (border, source-region) pair over the augmented graph and then sweep
//! each shortest-path tree bottom-up, propagating *destination-region
//! bitsets*: `J(u)` holds every region `R_j` with a border node in `u`'s
//! subtree, so the tree edge into `u` belongs to the border-pair paths of
//! exactly the destinations in `J(u)`. One bitset union per tree node and
//! per tree edge replaces per-pair path walks.
//!
//! Two exact optimizations keep the border searches affordable at paper
//! scale:
//!
//! * **Pruning.** Only source→border paths matter, and in Dijkstra every
//!   tree ancestor settles before its descendants — so each search
//!   terminates the moment the last reachable border node settles, and the
//!   sweep walks exactly that settled prefix (a node settled after the last
//!   border can never carry a non-empty `J`).
//! * **Border dedup.** A border node adjacent to regions `(R₁, R₂)` is a
//!   source for *both* regions' rows, and its shortest-path tree — hence
//!   its sweep contribution — is identical both times. The first visit
//!   records the sweep's non-empty-`J` *skeleton* (node, parent, original
//!   arc — everything the bottom-up pass touches); the partner region
//!   *replays* the skeleton instead of re-running the Dijkstra. Replay is a
//!   sweep-only pass, so each shared border pays for one search instead of
//!   two. The cache is bounded by [`PrecomputeOptions::dedup_cache_bytes`];
//!   on overflow a border is simply searched again (slower, never wrong).
//!
//! Work is split across contiguous region ranges (balanced by border
//! count — contiguity is what lets the dedup cache pair a border's two
//! host regions inside one worker) with `std::thread::scope`; each worker
//! owns its scratch buffers and writes its regions' rows straight into the
//! final `s_sets`/`g_sets` tables, whose rows are split off for it — ranges
//! are disjoint and in order by construction, so the row writes are
//! lock-free (no result mutex, no reassembly pass).

use crate::augment::{aug_dijkstra_into, AugGraph, DijkstraScratch, NO_NODE};
use privpath_graph::FixedBitset;
use privpath_partition::{Borders, RegionId};

/// Options for [`precompute`].
#[derive(Debug, Clone)]
pub struct PrecomputeOptions {
    /// Also compute the `G_ij` edge sets (needed by PI/HY/PI*; CI only needs
    /// `S_ij`). Each worker then holds `num_arcs × 32` bits of slot map plus
    /// `touched_max × r` bits of bitset pool (see `GRows::Sparse`).
    pub compute_g: bool,
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// Per-worker byte budget for cached border sweep skeletons (the
    /// search-each-border-once dedup). A skeleton that does not fit is not
    /// cached, and its border is searched again from the partner region.
    pub dedup_cache_bytes: usize,
}

impl Default for PrecomputeOptions {
    fn default() -> Self {
        PrecomputeOptions {
            compute_g: true,
            threads: 0,
            dedup_cache_bytes: 256 << 20,
        }
    }
}

/// The materialized pre-computation.
#[derive(Debug)]
pub struct Precomputed {
    /// Number of regions `R`.
    pub(crate) num_regions: u16,
    /// `s_sets[i·R + j]` — sorted intermediate regions of `S_ij`
    /// (excluding `i` and `j` themselves, which the client always fetches).
    pub(crate) s_sets: Vec<Vec<RegionId>>,
    /// `g_sets[i·R + j]` — sorted original arc ids of `G_ij`
    /// (empty vectors when `compute_g` was off).
    pub(crate) g_sets: Vec<Vec<u32>>,
    /// `m` — the largest `|S_ij|`; the CI query plan fetches `m + 2` region
    /// pages (§5.4).
    pub(crate) m: usize,
}

impl Precomputed {
    /// The `S_ij` set.
    pub(crate) fn s(&self, i: RegionId, j: RegionId) -> &[RegionId] {
        &self.s_sets[i as usize * self.num_regions as usize + j as usize]
    }

    /// The `G_ij` arc set.
    pub(crate) fn g(&self, i: RegionId, j: RegionId) -> &[u32] {
        &self.g_sets[i as usize * self.num_regions as usize + j as usize]
    }

    /// Histogram of `|S_ij|` cardinalities (Figure 10(a)).
    pub(crate) fn s_cardinality_histogram(&self) -> Vec<(usize, usize)> {
        let mut counts = std::collections::BTreeMap::new();
        for s in &self.s_sets {
            *counts.entry(s.len()).or_insert(0usize) += 1;
        }
        counts.into_iter().collect()
    }
}

/// One node of a recorded sweep skeleton: exactly what the bottom-up pass
/// reads for a node with a non-empty `J` bitset. Skeleton entries are
/// stored in the sweep's visit order (reverse settle order), so a replay
/// still sees children before parents.
#[derive(Debug, Clone, Copy)]
struct SkelEntry {
    node: u32,
    parent: u32,
    orig_arc: u32,
}

/// The per-worker `G_ij` accumulator: the region set gathered per original
/// arc during the current source region's sweeps.
enum GRows {
    /// `compute_g` off: no accumulator at all.
    Off,
    /// Slot-mapped: `slot_of[arc]` points into a recycled pool of bitsets
    /// that only ever grows to the touched-arc high-water mark. Slots are
    /// handed out in touch order and returned when the row is emitted.
    Sparse {
        slot_of: Vec<u32>,
        pool: Vec<FixedBitset>,
        r: usize,
    },
}

const NO_SLOT: u32 = u32::MAX;

impl GRows {
    /// Unions `j` into arc `e`'s region set, registering `e` in `touched`
    /// on first touch. No-op when the accumulator is off.
    #[inline]
    fn union_touch(&mut self, e: usize, j: &FixedBitset, touched: &mut Vec<u32>) {
        match self {
            GRows::Off => {}
            GRows::Sparse { slot_of, pool, r } => {
                let slot = if slot_of[e] == NO_SLOT {
                    let s = touched.len();
                    if pool.len() <= s {
                        pool.push(FixedBitset::new(*r));
                    }
                    slot_of[e] = s as u32;
                    touched.push(e as u32);
                    s
                } else {
                    slot_of[e] as usize
                };
                pool[slot].union_with(j);
            }
        }
    }

    /// Arc `e`'s accumulated region set (must be touched).
    fn row(&self, e: usize) -> &FixedBitset {
        match self {
            GRows::Off => unreachable!("row() on a disabled G accumulator"),
            GRows::Sparse { slot_of, pool, .. } => &pool[slot_of[e] as usize],
        }
    }

    /// Clears arc `e`'s set and returns its slot to the pool.
    fn clear_row(&mut self, e: usize) {
        match self {
            GRows::Off => {}
            GRows::Sparse { slot_of, pool, .. } => {
                pool[slot_of[e] as usize].clear();
                slot_of[e] = NO_SLOT;
            }
        }
    }

    fn enabled(&self) -> bool {
        !matches!(self, GRows::Off)
    }
}

/// The per-worker sweep state: `J` bitsets, the destination-region
/// accumulators for the current source region, and their touched lists.
struct SweepBufs {
    j_sets: Vec<FixedBitset>,
    j_nonempty: Vec<bool>,
    s_row: Vec<FixedBitset>,
    g_row: GRows,
    s_touched: Vec<u16>,
    g_touched: Vec<u32>,
}

impl SweepBufs {
    fn new(aug: &AugGraph, r: usize, num_orig_arcs: usize, compute_g: bool) -> Self {
        SweepBufs {
            j_sets: (0..aug.n_total).map(|_| FixedBitset::new(r)).collect(),
            j_nonempty: vec![false; aug.n_total],
            s_row: (0..r).map(|_| FixedBitset::new(r)).collect(),
            g_row: if compute_g {
                GRows::Sparse {
                    slot_of: vec![NO_SLOT; num_orig_arcs],
                    pool: Vec::new(),
                    r,
                }
            } else {
                GRows::Off
            },
            s_touched: Vec::new(),
            g_touched: Vec::new(),
        }
    }

    /// Folds one skeleton node into the accumulators and propagates its `J`
    /// to the parent. `J(node)` must already be complete (children visited).
    #[inline]
    fn fold(&mut self, aug: &AugGraph, node: usize, parent: u32, orig_arc: u32) {
        if parent == NO_NODE {
            return;
        }
        let e = orig_arc as usize;
        let tr = aug.arc_tail_region[e];
        if self.s_row[tr as usize].is_empty() {
            self.s_touched.push(tr);
        }
        self.s_row[tr as usize].union_with(&self.j_sets[node]);
        if self.g_row.enabled() {
            self.g_row
                .union_touch(e, &self.j_sets[node], &mut self.g_touched);
        }
        let p = parent as usize;
        let (a, b) = if p < node {
            let (lo, hi) = self.j_sets.split_at_mut(node);
            (&mut lo[p], &hi[0])
        } else {
            let (lo, hi) = self.j_sets.split_at_mut(p);
            (&mut hi[0], &lo[node])
        };
        a.union_with(b);
        self.j_nonempty[p] = true;
    }

    /// The bottom-up sweep over a freshly computed tree (children before
    /// parents via reverse settle order). When `record` is given, every
    /// visited non-empty-`J` node is appended — the skeleton a later
    /// [`replay`](Self::replay) re-sweeps without re-running the Dijkstra.
    fn sweep_tree(
        &mut self,
        aug: &AugGraph,
        scratch: &DijkstraScratch,
        mut record: Option<&mut Vec<SkelEntry>>,
    ) {
        for &u in scratch.settled.iter().rev() {
            let ui = u as usize;
            if ui >= aug.n_orig {
                let (r1, r2) = aug.border_regions[ui - aug.n_orig];
                self.j_sets[ui].set(r1 as usize);
                self.j_sets[ui].set(r2 as usize);
                self.j_nonempty[ui] = true;
            }
            if !self.j_nonempty[ui] {
                continue;
            }
            let p = scratch.parent[ui];
            let e = scratch.parent_orig[ui];
            if let Some(rec) = record.as_deref_mut() {
                rec.push(SkelEntry {
                    node: u,
                    parent: p,
                    orig_arc: e,
                });
            }
            self.fold(aug, ui, p, e);
        }
        // reset J buffers for the next source
        for &u in &scratch.settled {
            if self.j_nonempty[u as usize] {
                self.j_sets[u as usize].clear();
                self.j_nonempty[u as usize] = false;
            }
        }
    }

    /// Replays a recorded skeleton: the same folds as
    /// [`sweep_tree`](Self::sweep_tree) produced, with no Dijkstra. Exact
    /// because the skeleton holds *every* node the original sweep folded,
    /// in the original visit order.
    fn replay(&mut self, aug: &AugGraph, skel: &[SkelEntry]) {
        for &SkelEntry {
            node,
            parent,
            orig_arc,
        } in skel
        {
            let ui = node as usize;
            if ui >= aug.n_orig {
                let (r1, r2) = aug.border_regions[ui - aug.n_orig];
                self.j_sets[ui].set(r1 as usize);
                self.j_sets[ui].set(r2 as usize);
            }
            self.fold(aug, ui, parent, orig_arc);
        }
        for &SkelEntry { node, .. } in skel {
            self.j_sets[node as usize].clear();
            self.j_nonempty[node as usize] = false;
        }
    }

    /// Drains the accumulators into the final row for source region `i`.
    fn emit_row(
        &mut self,
        aug: &AugGraph,
        i: usize,
        s_lists: &mut [Vec<RegionId>],
        g_lists: Option<&mut [Vec<u32>]>,
    ) {
        self.s_touched.sort_unstable();
        self.s_touched.dedup();
        for k in 0..self.s_touched.len() {
            let tr = self.s_touched[k];
            for j in self.s_row[tr as usize].ones() {
                if tr as usize != i && tr as usize != j {
                    s_lists[j].push(tr);
                }
            }
            self.s_row[tr as usize].clear();
        }
        self.s_touched.clear();

        if let Some(g_lists) = g_lists {
            self.g_touched.sort_unstable();
            self.g_touched.dedup();
            for k in 0..self.g_touched.len() {
                let e = self.g_touched[k];
                // Edges whose tail lies in R_i or R_j are already in the
                // region pages the client always fetches; storing them again
                // would only bloat G_ij (and push records past the in-page
                // compression's reach).
                let tr = aug.arc_tail_region[e as usize] as usize;
                for j in self.g_row.row(e as usize).ones() {
                    if tr != i && tr != j {
                        g_lists[j].push(e);
                    }
                }
                self.g_row.clear_row(e as usize);
            }
            self.g_touched.clear();
        }
    }
}

/// Splits `0..r` into at most `threads` contiguous ranges with roughly
/// equal total border counts. Contiguity keeps each border's two host
/// regions in one worker whenever possible (the dedup cache's hit case);
/// border-count balancing approximates search-cost balancing.
fn region_chunks(region_borders: &[Vec<u32>], threads: usize) -> Vec<(usize, usize)> {
    let r = region_borders.len();
    let total: usize = region_borders.iter().map(|v| v.len()).sum();
    let threads = threads.max(1).min(r.max(1));
    let target = total.div_ceil(threads).max(1);
    let mut chunks = Vec::with_capacity(threads);
    let (mut lo, mut acc) = (0usize, 0usize);
    for (i, b) in region_borders.iter().enumerate() {
        acc += b.len();
        if acc >= target && chunks.len() + 1 < threads {
            chunks.push((lo, i + 1));
            lo = i + 1;
            acc = 0;
        }
    }
    if lo < r {
        chunks.push((lo, r));
    }
    chunks
}

/// Runs the full pre-computation.
pub fn precompute(
    aug: &AugGraph,
    borders: &Borders,
    num_regions: u16,
    num_orig_arcs: usize,
    opts: &PrecomputeOptions,
) -> Precomputed {
    let r = num_regions as usize;
    let threads = if opts.threads > 0 {
        opts.threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };

    // borders adjacent to each region
    let mut region_borders: Vec<Vec<u32>> = vec![Vec::new(); r];
    for (b, node) in borders.nodes.iter().enumerate() {
        let (r1, r2) = node.regions;
        region_borders[r1 as usize].push(b as u32);
        if r2 != r1 {
            region_borders[r2 as usize].push(b as u32);
        }
    }

    let chunks = region_chunks(&region_borders, threads);
    let mut s_sets: Vec<Vec<RegionId>> = vec![Vec::new(); r * r];
    let mut g_sets: Vec<Vec<u32>> = vec![Vec::new(); r * r];

    std::thread::scope(|scope| {
        // Each worker takes the rows of its own region range: the ranges
        // are contiguous and in order, so the tables split front to back.
        let (mut s_rest, mut g_rest) = (&mut s_sets[..], &mut g_sets[..]);
        for &(lo, hi) in &chunks {
            let rows = ..(hi - lo) * r;
            let s_rows = s_rest.split_off_mut(rows).expect("the ranges tile 0..r");
            let g_rows = g_rest.split_off_mut(rows).expect("the ranges tile 0..r");
            let region_borders = &region_borders;
            scope.spawn(move || {
                let mut scratch = DijkstraScratch::new(aug.n_total);
                let mut bufs = SweepBufs::new(aug, r, num_orig_arcs, opts.compute_g);
                // Border-dedup skeleton cache: filled on a border's first
                // visit when its partner region lies later in this chunk,
                // consumed (and freed) on the second visit.
                let mut cache: Vec<Option<Box<[SkelEntry]>>> = vec![None; borders.len()];
                let mut cache_bytes = 0usize;
                let mut skel_buf: Vec<SkelEntry> = Vec::new();

                #[allow(clippy::needless_range_loop)] // `i` is the region id, not just an index
                for i in lo..hi {
                    for &b in &region_borders[i] {
                        if let Some(skel) = cache[b as usize].take() {
                            cache_bytes -= std::mem::size_of_val(&skel[..]);
                            bufs.replay(aug, &skel);
                            continue;
                        }
                        let src = aug.border_node(b);
                        // Pruned: the search stops at the last reachable
                        // border node and `scratch.settled` is exactly the
                        // prefix the sweep must visit.
                        aug_dijkstra_into(aug, src, &mut scratch, true);
                        let (r1, r2) = borders.nodes[b as usize].regions;
                        let partner = if r1 as usize == i { r2 } else { r1 } as usize;
                        if partner > i && partner < hi {
                            skel_buf.clear();
                            bufs.sweep_tree(aug, &scratch, Some(&mut skel_buf));
                            let bytes = std::mem::size_of_val(&skel_buf[..]);
                            if cache_bytes + bytes <= opts.dedup_cache_bytes {
                                cache_bytes += bytes;
                                cache[b as usize] =
                                    Some(skel_buf.as_slice().to_vec().into_boxed_slice());
                            }
                        } else {
                            bufs.sweep_tree(aug, &scratch, None);
                        }
                    }

                    // Emit row i straight into the output tables.
                    let row = (i - lo) * r..(i - lo + 1) * r;
                    let g_lists = opts.compute_g.then(|| &mut g_rows[row.clone()]);
                    bufs.emit_row(aug, i, &mut s_rows[row], g_lists);
                }
            });
        }
    });

    let m = s_sets.iter().map(|s| s.len()).max().unwrap_or(0);
    Precomputed {
        num_regions,
        s_sets,
        g_sets,
        m,
    }
}

/// The PR 3 offline path, retained verbatim as the behavioural reference
/// for the differential suites and the baseline of the
/// `precompute_border_sweep` criterion bench: border Dijkstras that
/// allocate their heap and settle flags per call and return owned (cloned)
/// trees, full unpruned searches, and a mutex-guarded result collection
/// with a final reassembly pass. The production [`precompute`] replaced
/// all three (trees and heap left in a reused scratch, border pruning,
/// lock-free row slots); the proptests below hold the two bit-identical.
pub mod reference {
    use super::{Precomputed, RegionId};
    use crate::augment::{AugGraph, NO_NODE};
    use privpath_graph::types::{Dist, EdgeId};
    use privpath_graph::FixedBitset;
    use privpath_partition::Borders;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    struct RefTree {
        parent: Vec<u32>,
        parent_orig_arc: Vec<EdgeId>,
        settled: Vec<u32>,
    }

    struct RefScratch {
        dist: Vec<Dist>,
        parent: Vec<u32>,
        parent_orig: Vec<EdgeId>,
        touched: Vec<u32>,
    }

    /// The PR 3 border Dijkstra: lazy-deletion `BinaryHeap`, per-call
    /// `settled_flag` allocation, cloned output arrays.
    fn aug_dijkstra_ref(g: &AugGraph, source: u32, scratch: &mut RefScratch) -> RefTree {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        for &u in &scratch.touched {
            scratch.dist[u as usize] = Dist::MAX;
            scratch.parent[u as usize] = NO_NODE;
            scratch.parent_orig[u as usize] = NO_NODE;
        }
        scratch.touched.clear();

        let mut settled_flag = vec![false; g.n_total];
        let mut settled = Vec::new();
        let mut heap: BinaryHeap<Reverse<(Dist, u32)>> = BinaryHeap::new();
        scratch.dist[source as usize] = 0;
        scratch.touched.push(source);
        heap.push(Reverse((0, source)));

        while let Some(Reverse((d, u))) = heap.pop() {
            if settled_flag[u as usize] {
                continue;
            }
            settled_flag[u as usize] = true;
            settled.push(u);
            for a in g.arcs_from(u) {
                let nd = d + Dist::from(a.w);
                if nd < scratch.dist[a.to as usize] {
                    if scratch.dist[a.to as usize] == Dist::MAX {
                        scratch.touched.push(a.to);
                    }
                    scratch.dist[a.to as usize] = nd;
                    scratch.parent[a.to as usize] = u;
                    scratch.parent_orig[a.to as usize] = a.orig;
                    heap.push(Reverse((nd, a.to)));
                }
            }
        }

        RefTree {
            parent: scratch.parent.clone(),
            parent_orig_arc: scratch.parent_orig.clone(),
            settled,
        }
    }

    struct RegionRow {
        region: usize,
        s_lists: Vec<Vec<RegionId>>,
        g_lists: Vec<Vec<u32>>,
    }

    /// The PR 3 pre-computation loop (full searches, mutex-collected rows).
    pub fn precompute_ref(
        aug: &AugGraph,
        borders: &Borders,
        num_regions: u16,
        num_orig_arcs: usize,
        compute_g: bool,
        threads: usize,
    ) -> Precomputed {
        let r = num_regions as usize;
        let threads = threads.max(1).min(r.max(1));

        let mut region_borders: Vec<Vec<u32>> = vec![Vec::new(); r];
        for (b, node) in borders.nodes.iter().enumerate() {
            let (r1, r2) = node.regions;
            region_borders[r1 as usize].push(b as u32);
            if r2 != r1 {
                region_borders[r2 as usize].push(b as u32);
            }
        }

        let next_region = AtomicUsize::new(0);
        let results: Mutex<Vec<RegionRow>> = Mutex::new(Vec::with_capacity(r));

        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut scratch = RefScratch {
                        dist: vec![Dist::MAX; aug.n_total],
                        parent: vec![NO_NODE; aug.n_total],
                        parent_orig: vec![NO_NODE; aug.n_total],
                        touched: Vec::new(),
                    };
                    let mut j_sets: Vec<FixedBitset> =
                        (0..aug.n_total).map(|_| FixedBitset::new(r)).collect();
                    let mut j_nonempty = vec![false; aug.n_total];
                    let mut s_row: Vec<FixedBitset> = (0..r).map(|_| FixedBitset::new(r)).collect();
                    let mut g_row: Vec<FixedBitset> = if compute_g {
                        (0..num_orig_arcs).map(|_| FixedBitset::new(r)).collect()
                    } else {
                        Vec::new()
                    };
                    let mut g_touched: Vec<u32> = Vec::new();
                    let mut s_touched: Vec<u16> = Vec::new();

                    loop {
                        let i = next_region.fetch_add(1, Ordering::Relaxed);
                        if i >= r {
                            break;
                        }
                        for &b in &region_borders[i] {
                            let src = aug.border_node(b);
                            let tree = aug_dijkstra_ref(aug, src, &mut scratch);
                            for &u in tree.settled.iter().rev() {
                                let ui = u as usize;
                                if ui >= aug.n_orig {
                                    let (r1, r2) = aug.border_regions[ui - aug.n_orig];
                                    j_sets[ui].set(r1 as usize);
                                    j_sets[ui].set(r2 as usize);
                                    j_nonempty[ui] = true;
                                }
                                if !j_nonempty[ui] {
                                    continue;
                                }
                                let p = tree.parent[ui];
                                if p != NO_NODE {
                                    let e = tree.parent_orig_arc[ui] as usize;
                                    let tr = aug.arc_tail_region[e];
                                    if s_row[tr as usize].is_empty() {
                                        s_touched.push(tr);
                                    }
                                    s_row[tr as usize].union_with(&j_sets[ui]);
                                    if compute_g {
                                        if g_row[e].is_empty() {
                                            g_touched.push(e as u32);
                                        }
                                        g_row[e].union_with(&j_sets[ui]);
                                    }
                                    let (a, bse) = if (p as usize) < ui {
                                        let (lo, hi) = j_sets.split_at_mut(ui);
                                        (&mut lo[p as usize], &hi[0])
                                    } else {
                                        let (lo, hi) = j_sets.split_at_mut(p as usize);
                                        (&mut hi[0], &lo[ui])
                                    };
                                    a.union_with(bse);
                                    j_nonempty[p as usize] = true;
                                }
                            }
                            for &u in &tree.settled {
                                if j_nonempty[u as usize] {
                                    j_sets[u as usize].clear();
                                    j_nonempty[u as usize] = false;
                                }
                            }
                        }

                        let mut s_lists: Vec<Vec<RegionId>> = vec![Vec::new(); r];
                        s_touched.sort_unstable();
                        s_touched.dedup();
                        for &tr in &s_touched {
                            for j in s_row[tr as usize].ones() {
                                if tr as usize != i && tr as usize != j {
                                    s_lists[j].push(tr);
                                }
                            }
                            s_row[tr as usize].clear();
                        }
                        s_touched.clear();

                        let mut g_lists: Vec<Vec<u32>> = vec![Vec::new(); r];
                        if compute_g {
                            g_touched.sort_unstable();
                            g_touched.dedup();
                            for &e in &g_touched {
                                let tr = aug.arc_tail_region[e as usize] as usize;
                                for j in g_row[e as usize].ones() {
                                    if tr != i && tr != j {
                                        g_lists[j].push(e);
                                    }
                                }
                                g_row[e as usize].clear();
                            }
                            g_touched.clear();
                        }

                        results.lock().unwrap().push(RegionRow {
                            region: i,
                            s_lists,
                            g_lists,
                        });
                    }
                });
            }
        });

        let mut s_sets: Vec<Vec<RegionId>> = vec![Vec::new(); r * r];
        let mut g_sets: Vec<Vec<u32>> = vec![Vec::new(); r * r];
        for row in results.into_inner().unwrap() {
            for (j, lst) in row.s_lists.into_iter().enumerate() {
                s_sets[row.region * r + j] = lst;
            }
            for (j, lst) in row.g_lists.into_iter().enumerate() {
                g_sets[row.region * r + j] = lst;
            }
        }
        let m = s_sets.iter().map(|s| s.len()).max().unwrap_or(0);
        Precomputed {
            num_regions,
            s_sets,
            g_sets,
            m,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privpath_graph::dijkstra::dijkstra;
    use privpath_graph::gen::{grid_network, road_like, GridGenConfig, RoadGenConfig};
    use privpath_graph::network::RoadNetwork;
    use privpath_graph::types::Dist;
    use privpath_partition::{compute_borders, partition_packed, Partition};

    fn setup(net: &RoadNetwork, cap: usize) -> (AugGraph, Partition, Borders) {
        let p = partition_packed(net, cap, &|u| net.node_record_bytes(u));
        let borders = compute_borders(net, &p.tree);
        let aug = AugGraph::build(net, &borders, &p.region_of_node);
        (aug, p, borders)
    }

    /// Brute-force reference: client subgraph from S_ij (the union of region
    /// pages) must support optimal-cost paths for all node pairs.
    fn check_s_correctness(
        net: &RoadNetwork,
        part: &Partition,
        pre: &Precomputed,
        pairs: &[(u32, u32)],
    ) {
        let r = pre.num_regions as usize;
        for &(s, t) in pairs {
            let rs = part.region_of_node[s as usize];
            let rt = part.region_of_node[t as usize];
            // allowed regions: rs, rt, S_{rs,rt}
            let mut allowed = vec![false; r];
            allowed[rs as usize] = true;
            allowed[rt as usize] = true;
            for &x in pre.s(rs, rt) {
                allowed[x as usize] = true;
            }
            // restricted Dijkstra: only arcs whose tail is in an allowed region
            let full = dijkstra(net, s);
            let restricted = restricted_dijkstra(net, s, |u| {
                allowed[part.region_of_node[u as usize] as usize]
            });
            assert_eq!(
                restricted[t as usize], full.dist[t as usize],
                "S_ij misses pages for {s}->{t} (regions {rs}->{rt})"
            );
        }
    }

    fn restricted_dijkstra(net: &RoadNetwork, s: u32, tail_ok: impl Fn(u32) -> bool) -> Vec<Dist> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut dist = vec![Dist::MAX; net.num_nodes()];
        let mut heap = BinaryHeap::new();
        dist[s as usize] = 0;
        heap.push(Reverse((0, s)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            if !tail_ok(u) {
                continue; // node's adjacency lives in a page we don't have
            }
            for (_, v, w) in net.arcs_from(u) {
                let nd = d + Dist::from(w);
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        dist
    }

    #[test]
    fn s_sets_support_optimal_paths_on_grid() {
        let net = grid_network(&GridGenConfig {
            nx: 12,
            ny: 12,
            ..Default::default()
        });
        let (aug, part, borders) = setup(&net, 600);
        assert!(part.num_regions() >= 4);
        let pre = precompute(
            &aug,
            &borders,
            part.num_regions(),
            net.num_arcs(),
            &PrecomputeOptions::default(),
        );
        let pairs: Vec<(u32, u32)> = (0..12)
            .map(|k| (k * 11 % 144, (k * 37 + 80) % 144))
            .collect();
        check_s_correctness(&net, &part, &pre, &pairs);
    }

    #[test]
    fn s_sets_support_optimal_paths_on_road_network() {
        let net = road_like(&RoadGenConfig {
            nodes: 600,
            seed: 21,
            ..Default::default()
        });
        let (aug, part, borders) = setup(&net, 700);
        let pre = precompute(
            &aug,
            &borders,
            part.num_regions(),
            net.num_arcs(),
            &PrecomputeOptions::default(),
        );
        let n = net.num_nodes() as u32;
        let pairs: Vec<(u32, u32)> = (0..15).map(|k| (k * 31 % n, (k * 83 + 7) % n)).collect();
        check_s_correctness(&net, &part, &pre, &pairs);
    }

    #[test]
    fn g_sets_support_optimal_costs() {
        let net = grid_network(&GridGenConfig {
            nx: 10,
            ny: 10,
            ..Default::default()
        });
        let (aug, part, borders) = setup(&net, 600);
        let pre = precompute(
            &aug,
            &borders,
            part.num_regions(),
            net.num_arcs(),
            &PrecomputeOptions::default(),
        );
        // client graph for (s,t): arcs of R_s and R_t pages + G_{rs,rt} arcs
        for &(s, t) in &[(0u32, 99u32), (9, 90), (5, 55), (0, 9)] {
            let rs = part.region_of_node[s as usize];
            let rt = part.region_of_node[t as usize];
            let mut arc_ok = vec![false; net.num_arcs()];
            for e in 0..net.num_arcs() as u32 {
                let (u, _) = net.edge_endpoints(e);
                let ru = part.region_of_node[u as usize];
                if ru == rs || ru == rt {
                    arc_ok[e as usize] = true;
                }
            }
            for &e in pre.g(rs, rt) {
                arc_ok[e as usize] = true;
            }
            // Dijkstra over allowed arcs only
            use std::cmp::Reverse;
            use std::collections::BinaryHeap;
            let mut dist = vec![Dist::MAX; net.num_nodes()];
            let mut heap = BinaryHeap::new();
            dist[s as usize] = 0;
            heap.push(Reverse((0, s)));
            while let Some(Reverse((d, u))) = heap.pop() {
                if d > dist[u as usize] {
                    continue;
                }
                for (e, v, w) in net.arcs_from(u) {
                    if !arc_ok[e as usize] {
                        continue;
                    }
                    let nd = d + Dist::from(w);
                    if nd < dist[v as usize] {
                        dist[v as usize] = nd;
                        heap.push(Reverse((nd, v)));
                    }
                }
            }
            let full = dijkstra(&net, s);
            assert_eq!(
                dist[t as usize], full.dist[t as usize],
                "G misses edges for {s}->{t}"
            );
        }
    }

    #[test]
    fn sets_are_sorted_and_deduped() {
        let net = grid_network(&GridGenConfig {
            nx: 8,
            ny: 8,
            ..Default::default()
        });
        let (aug, part, borders) = setup(&net, 512);
        let pre = precompute(
            &aug,
            &borders,
            part.num_regions(),
            net.num_arcs(),
            &PrecomputeOptions::default(),
        );
        let r = pre.num_regions;
        for i in 0..r {
            for j in 0..r {
                let s = pre.s(i, j);
                assert!(
                    s.windows(2).all(|w| w[0] < w[1]),
                    "S_{i},{j} not strictly sorted"
                );
                assert!(
                    !s.contains(&i) && !s.contains(&j),
                    "S must exclude endpoints"
                );
                let g = pre.g(i, j);
                assert!(
                    g.windows(2).all(|w| w[0] < w[1]),
                    "G_{i},{j} not strictly sorted"
                );
            }
        }
        let max_len = (0..r)
            .flat_map(|i| (0..r).map(move |j| (i, j)))
            .map(|(i, j)| pre.s(i, j).len())
            .max()
            .unwrap();
        assert_eq!(pre.m, max_len);
    }

    #[test]
    fn single_region_has_empty_sets() {
        let net = grid_network(&GridGenConfig {
            nx: 4,
            ny: 4,
            ..Default::default()
        });
        let p = partition_packed(&net, 1 << 20, &|u| net.node_record_bytes(u));
        assert_eq!(p.num_regions(), 1);
        let borders = compute_borders(&net, &p.tree);
        let aug = AugGraph::build(&net, &borders, &p.region_of_node);
        let pre = precompute(
            &aug,
            &borders,
            1,
            net.num_arcs(),
            &PrecomputeOptions::default(),
        );
        assert_eq!(pre.m, 0);
        assert!(pre.s(0, 0).is_empty());
        assert!(pre.g(0, 0).is_empty());
    }

    /// Differential harness: the pruned, deduplicated border searches and
    /// the sparse `G` accumulator must reproduce the retained PR 3
    /// implementation ([`reference::precompute_ref`], full searches and a
    /// dense `G` layout) bit-for-bit (`s_sets`, `g_sets`, `m`), with `G` off
    /// (what CI builds) and on (what PI/HY/PI* build).
    fn assert_prune_exact(net: &RoadNetwork, cap: usize, threads: usize) {
        let (aug, part, borders) = setup(net, cap);
        for compute_g in [false, true] {
            let pruned = precompute(
                &aug,
                &borders,
                part.num_regions(),
                net.num_arcs(),
                &PrecomputeOptions {
                    compute_g,
                    threads,
                    ..PrecomputeOptions::default()
                },
            );
            let pr3 = reference::precompute_ref(
                &aug,
                &borders,
                part.num_regions(),
                net.num_arcs(),
                compute_g,
                threads,
            );
            let g = if compute_g { "G on" } else { "G off" };
            assert_eq!(pr3.s_sets, pruned.s_sets, "S_ij diverged from PR 3 ({g})");
            assert_eq!(pr3.g_sets, pruned.g_sets, "G_ij diverged from PR 3 ({g})");
            assert_eq!(pr3.m, pruned.m, "m diverged from PR 3 ({g})");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 6, ..Default::default()
        })]

        /// Pruned ≡ PR 3 reference on random road-like networks (the
        /// paper's network shape), across thread counts.
        #[test]
        fn pruned_precompute_is_exact_on_road_nets(
            seed in 0u64..10_000,
            nodes in 150usize..400,
            threads in 1usize..4,
        ) {
            let net = road_like(&RoadGenConfig { nodes, seed, ..Default::default() });
            assert_prune_exact(&net, 600, threads);
        }

        /// Pruned ≡ PR 3 reference on jittered grids (dense border
        /// structure — many equal-cost ties crossing region boundaries).
        #[test]
        fn pruned_precompute_is_exact_on_grids(
            nx in 6usize..13,
            ny in 6usize..13,
            seed in 0u64..10_000,
        ) {
            let net = grid_network(&GridGenConfig { nx, ny, seed, ..Default::default() });
            assert_prune_exact(&net, 480, 2);
        }
    }

    /// The border-dedup skeleton replay must be invisible in the output:
    /// the default budget, a zero budget (nothing cached) and a tiny budget
    /// (forcing the overflow fallback) all produce identical tables.
    #[test]
    fn border_dedup_is_exact_and_budget_safe() {
        let net = road_like(&RoadGenConfig {
            nodes: 500,
            seed: 77,
            ..Default::default()
        });
        let (aug, part, borders) = setup(&net, 600);
        let run = |dedup_cache_bytes: usize, threads: usize| {
            precompute(
                &aug,
                &borders,
                part.num_regions(),
                net.num_arcs(),
                &PrecomputeOptions {
                    compute_g: true,
                    threads,
                    dedup_cache_bytes,
                },
            )
        };
        let with_dedup = run(256 << 20, 1);
        let without = run(0, 1);
        assert_eq!(with_dedup.s_sets, without.s_sets);
        assert_eq!(with_dedup.g_sets, without.g_sets);
        assert_eq!(with_dedup.m, without.m);
        // A budget too small for any whole skeleton: every insert overflows,
        // exercising the search-again fallback.
        let starved = run(64, 2);
        assert_eq!(with_dedup.s_sets, starved.s_sets);
        assert_eq!(with_dedup.g_sets, starved.g_sets);
    }

    #[test]
    fn multithreaded_matches_single_thread() {
        let net = road_like(&RoadGenConfig {
            nodes: 400,
            seed: 33,
            ..Default::default()
        });
        let (aug, part, borders) = setup(&net, 600);
        let a = precompute(
            &aug,
            &borders,
            part.num_regions(),
            net.num_arcs(),
            &PrecomputeOptions {
                compute_g: true,
                threads: 1,
                ..PrecomputeOptions::default()
            },
        );
        let b = precompute(
            &aug,
            &borders,
            part.num_regions(),
            net.num_arcs(),
            &PrecomputeOptions {
                compute_g: true,
                threads: 4,
                ..PrecomputeOptions::default()
            },
        );
        assert_eq!(a.s_sets, b.s_sets);
        assert_eq!(a.g_sets, b.g_sets);
        assert_eq!(a.m, b.m);
    }

    #[test]
    fn histogram_covers_all_pairs() {
        let net = grid_network(&GridGenConfig {
            nx: 8,
            ny: 8,
            ..Default::default()
        });
        let (aug, part, borders) = setup(&net, 512);
        let pre = precompute(
            &aug,
            &borders,
            part.num_regions(),
            net.num_arcs(),
            &PrecomputeOptions::default(),
        );
        let hist = pre.s_cardinality_histogram();
        let total: usize = hist.iter().map(|&(_, c)| c).sum();
        let r = pre.num_regions as usize;
        assert_eq!(total, r * r);
    }
}
