//! Client-side subgraph assembly and shortest-path computation.
//!
//! After the PIR rounds, the client holds a set of region pages (and, for
//! PI-family schemes, a decoded subgraph `G_st`). "Upon receipt of these
//! data, she possesses a subgraph of G that is guaranteed to contain the
//! desired shortest path. SP(s, t) is computed using Dijkstra's algorithm in
//! this subgraph" (§5.4).
//!
//! The LM and AF baselines interleave fetching with the search instead
//! (§4): one search, `search_regions`, runs A* over the same arena — under
//! the landmark bounds for LM, under a zero bound over the flag-pruned arcs
//! for AF — and pulls in a region page whenever the frontier pops a node
//! whose record has not arrived yet.
//!
//! This is the client hot path, so its cost follows the bytes it reads. A
//! region's unsealed payload is parsed straight into the arena in one pass
//! (`ClientSubgraph::add_region`): no decoded copy, and no hash — node ids
//! are interned through a table indexed by id, which never grows past a
//! bound the query driver derives from the published file shape (every
//! node has one record in `Fd`, and a record is at least
//! `RecordFormat::node_bytes(0)` bytes). Each node's arcs land as one
//! contiguous row of the arc array, so every search relaxes a node's row
//! as soon as its record arrives. [`ClientSubgraph::shortest_path_in`]
//! relaxes that row, then the node's row of `add_edges` triples: those
//! arrive in any order, so they alone are sorted into rows by counting
//! sort, once per solve, over the triples alone, and a view with no triples
//! (CI, LM, AF) sorts none. Dijkstra runs over dense arrays with std's
//! `BinaryHeap` and lazy deletion (a stale entry is skipped when popped).
//! All buffers live in the [`ClientSubgraph`] and [`QueryScratch`] and are
//! cleared — not reallocated — between queries, so a long-running
//! [`crate::engine::QuerySession`] allocates per query only for its
//! per-query outputs; `tests/alloc_budget.rs` bounds the count.
//!
//! **The memo and the view.** A session is pinned to one generation, so
//! the region pages its queries fetch repeat byte for byte. The arena
//! therefore keeps every region it folded — its members, their records
//! and arc rows, and its unsealed payload — as the session's *memo*, and a
//! query sees only its *view*: the regions folded or reused since
//! `ClientSubgraph::clear_view`. Every page is still
//! fetched, CRC-checked and unsealed as before; a region whose payload
//! equals the memoized one byte for byte, under the same record format,
//! goal flag and id bound, is only marked in view, and anything else folds
//! afresh (a region whose bytes changed drops every region out of view,
//! and the next `clear_view` starts the memo over). Searches and snaps read
//! only in-view records and members, so they see the subgraph a fresh
//! arena folded from the same pages, and the `(dist, id)` heap key settles
//! it in the same order. The memo retains at most one `Fd` of payload (the
//! cap the query driver sets), node slots stay below the id bound, and the
//! solver's reset and the triple rows walk what the last query touched,
//! not the memo.
//!
//! Only the index family (`schemes::index_scheme`) keeps the memo across
//! queries: it folds after its last exchange, so reuse shortens only the
//! gap before the next `QueryOpen`. LM and AF fold between exchanges,
//! where a shorter fold would shorten a gap the server can time, so they
//! (and the offline plan probes) [`clear`](ClientSubgraph::clear) the
//! arena, memo included, before every query.

use crate::error::CoreError;
use crate::files::fd::RecordFormat;
use crate::files::unseal_page;
use crate::schemes::baseline::BaselineFlavor;
use crate::Result;
use privpath_graph::types::{Dist, NodeId, Point};
use privpath_storage::{ByteReader, PageBuf};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel for "no dense slot" (and "no region entry").
const NO_SLOT: u32 = u32::MAX;

/// Sentinel for "no region hint".
const NO_REGION: u16 = u16::MAX;

/// ALT-style lower bound from stored (truncated) landmark vectors: the
/// maximum coordinate-wise `|a - b|`, ignoring `u32::MAX` sentinels
/// (unreachable anchors / records not yet fetched).
pub(crate) fn lm_bound(u_vec: &[u32], t_vec: &[u32]) -> Dist {
    let mut best = 0u64;
    for (&a, &b) in u_vec.iter().zip(t_vec) {
        if a == u32::MAX || b == u32::MAX {
            continue;
        }
        best = best.max(u64::from(a).abs_diff(u64::from(b)));
    }
    best
}

/// True if bit `region` is set in a little-endian arc-flag byte string.
pub(crate) fn flag_set(flags: &[u8], region: usize) -> bool {
    flags
        .get(region / 8)
        .is_some_and(|b| b >> (region % 8) & 1 == 1)
}

#[cold]
fn id_past_bound(id: NodeId, bound: usize) -> CoreError {
    CoreError::Query(format!(
        "node id {id} is not below the bound {bound} the region file allows"
    ))
}

fn u16_at(b: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([b[at], b[at + 1]])
}

fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

/// One region the arena folded since its last [`clear`](ClientSubgraph::clear).
#[derive(Debug)]
struct Folded {
    /// The region id its payload names.
    region: u16,
    /// The format and AF goal flag it was folded under.
    fmt: RecordFormat,
    goal_flag: Option<usize>,
    /// `(start, end)` of its members in `members`; emptied when the region
    /// is dropped from the memo.
    members: (u32, u32),
    /// `(start, end)` of its unsealed payload in `memo_bytes`, if the memo
    /// had room for it.
    bytes: Option<(usize, usize)>,
    /// Part of the current view.
    in_view: bool,
}

/// The client's partial view of the network, interned into dense node slots.
///
/// Accumulate pages with `add_region` /
/// [`add_edges`](Self::add_edges), then solve with
/// [`shortest_path_in`](Self::shortest_path_in). [`clear`](Self::clear)
/// forgets everything, `clear_view` only what the last query saw (the
/// module doc says which driver calls which); both keep every buffer's
/// capacity.
#[derive(Debug, Default)]
pub struct ClientSubgraph {
    /// External node id → dense slot (`NO_SLOT` when not interned). Grown
    /// lazily to the largest id seen, never past `id_bound`; `clear` resets
    /// only the entries `ids` names.
    slot_of: Vec<u32>,
    /// Every interned id is below this. The query drivers set it from the
    /// header on every query; until one is set, any id is taken.
    id_bound: Option<u32>,
    /// Dense slot → external node id.
    ids: Vec<NodeId>,
    /// Dense slot → coordinates (meaningful only for region-page nodes;
    /// edge-only nodes keep the origin placeholder and are never snapped
    /// because `snap` walks region members exclusively).
    coords: Vec<Point>,
    /// The arcs of region records as dense `(tail, head, weight)` triples.
    arcs: Vec<(u32, u32, u32)>,
    /// Dense slot → the `(start, end)` range of its arcs in `arcs`, set
    /// when its record is folded in (empty until then). A node's arcs come
    /// only from its own record, folded in once, so the range is contiguous.
    arc_rows: Vec<(u32, u32)>,
    /// Dense slot → the entry of `folded` holding its record (`NO_SLOT`
    /// while none does). The record counts only while that entry is in
    /// view.
    record: Vec<u32>,
    /// `add_edges` triples as dense `(tail, head, weight)`, in insertion
    /// order.
    edges: Vec<(u32, u32, u32)>,
    /// `edges` sorted by tail, stably (counting sort).
    edge_rows: Vec<(u32, u32, u32)>,
    /// Dense slot → the `(start, end)` of its row in `edge_rows`; `(0, 0)`
    /// for every slot no sorted triple leaves.
    edge_spans: Vec<(u32, u32)>,
    /// Triples already sorted into `edge_rows` (rebuilt only when new
    /// triples arrived since).
    sorted_edges: usize,
    /// Dense slot → host-region hint (`u16::MAX` = unknown). Filled from
    /// region membership and from the `to_region` adjacency hints carried by
    /// LM/AF records.
    region_of: Vec<u16>,
    /// Flattened per-slot auxiliary vectors (LM landmark distances),
    /// `aux_stride` entries per slot, extended lazily and `u32::MAX`-padded
    /// for slots whose records have not arrived yet.
    aux: Vec<u32>,
    /// Entries per slot in `aux` (0 when the data carries no aux vectors).
    aux_stride: usize,
    /// Dense slots of region members, one contiguous run per `folded`
    /// entry.
    members: Vec<u32>,
    /// Every region folded since the last `clear`, in fold order: the memo.
    folded: Vec<Folded>,
    /// Region id → its live entry in `folded` (`NO_SLOT` when none).
    entry_of: Vec<u32>,
    /// The entries of the current view, in the order they joined it.
    view: Vec<u32>,
    /// The unsealed payloads of `folded` entries, back to back.
    memo_bytes: Vec<u8>,
    /// Most bytes `memo_bytes` may hold (0, the default, retains none).
    memo_cap: usize,
    /// Some region was dropped from the memo since the last `clear`, so its
    /// buffers hold dead rows: the next `clear_view` clears instead.
    dropped: bool,
}

impl ClientSubgraph {
    /// Empty subgraph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets all nodes, arcs and regions — the memo with the view —
    /// keeping allocated capacity.
    pub fn clear(&mut self) {
        for &id in &self.ids {
            if let Some(slot) = self.slot_of.get_mut(id as usize) {
                *slot = NO_SLOT;
            }
        }
        for f in &self.folded {
            self.entry_of[usize::from(f.region)] = NO_SLOT;
        }
        self.ids.clear();
        self.coords.clear();
        self.arcs.clear();
        self.arc_rows.clear();
        self.record.clear();
        self.edges.clear();
        self.edge_rows.clear();
        self.edge_spans.clear();
        self.sorted_edges = 0;
        self.region_of.clear();
        self.aux.clear();
        self.aux_stride = 0;
        self.members.clear();
        self.folded.clear();
        self.view.clear();
        self.memo_bytes.clear();
        self.dropped = false;
    }

    /// Forgets the current view — its regions and `add_edges` triples —
    /// and keeps the memo for the next query to reuse (or clears it all if
    /// a region was dropped from it).
    pub(crate) fn clear_view(&mut self) {
        if self.dropped {
            self.clear();
            return;
        }
        for &e in &self.view {
            self.folded[e as usize].in_view = false;
        }
        self.view.clear();
        for &(u, _, _) in &self.edge_rows {
            self.edge_spans[u as usize] = (0, 0);
        }
        self.edge_rows.clear();
        self.edges.clear();
        self.sorted_edges = 0;
    }

    /// Admits only node ids below `bound` from now on (an id at or past it
    /// is a [`CoreError::Query`]), and shortens the id table to it. A bound
    /// other than the current one clears the arena: the memo was folded
    /// under the old one.
    pub(crate) fn set_id_bound(&mut self, bound: u32) {
        if self.id_bound != Some(bound) {
            self.clear();
            self.id_bound = Some(bound);
            self.slot_of.truncate(bound as usize);
        }
    }

    /// Lets the memo retain up to `bytes` bytes of region payload (the
    /// index driver sets one `Fd`); a memo already past it is cleared.
    pub(crate) fn set_memo_cap(&mut self, bytes: usize) {
        if self.memo_bytes.len() > bytes {
            self.clear();
        }
        self.memo_cap = bytes;
    }

    /// Number of interned nodes.
    pub(crate) fn num_nodes(&self) -> usize {
        self.ids.len()
    }

    /// The dense slot of `id`, if interned.
    fn slot(&self, id: NodeId) -> Option<u32> {
        self.slot_of
            .get(id as usize)
            .copied()
            .filter(|&s| s != NO_SLOT)
    }

    /// True if dense slot `u`'s record is in the view.
    #[inline]
    fn in_view(&self, u: u32) -> bool {
        let e = self.record[u as usize];
        e != NO_SLOT && self.folded[e as usize].in_view
    }

    #[inline]
    fn intern(&mut self, id: NodeId) -> Result<u32> {
        let bound = self.id_bound.map_or(usize::MAX, |b| b as usize);
        let at = id as usize;
        if at >= bound {
            return Err(id_past_bound(id, bound));
        }
        if at >= self.slot_of.len() {
            // Amortised growth, capped at the bound.
            let len = (at + 1).max(2 * self.slot_of.len()).min(bound);
            self.slot_of.resize(len, NO_SLOT);
        }
        let slot = self.slot_of[at];
        if slot != NO_SLOT {
            return Ok(slot);
        }
        let slot = self.ids.len() as u32;
        self.slot_of[at] = slot;
        self.ids.push(id);
        self.coords.push(Point::new(0, 0));
        self.region_of.push(NO_REGION);
        self.record.push(NO_SLOT);
        self.arc_rows.push((0, 0));
        Ok(slot)
    }

    /// Brings a region's unsealed payload (its page group's payloads,
    /// concatenated) in `fmt`'s record layout into the view: from the memo
    /// when it holds these exact bytes under the same format and goal flag,
    /// otherwise folded straight into the arena in one pass. Records
    /// landmark vectors and region hints where `fmt` carries them, and —
    /// when `goal_flag` is set — keeps only arcs whose flag bit for that
    /// region is 1 (AF pruning, applied at insertion instead of at
    /// relaxation; the two are equivalent because a pruned arc is never
    /// relaxed).
    ///
    /// Idempotent per region within a view: a region already in view is
    /// skipped (the PIR fetch that produced `payload` still happened; the
    /// caller counts it).
    ///
    /// # Errors
    /// A payload shorter than its region head, a record head or an
    /// adjacency block it announces is a [`CoreError::Storage`]; a record
    /// or arc head whose id is not below the id bound, and a node with two
    /// records in the view, are a [`CoreError::Query`]. The arena is then
    /// cleared, memo and all.
    pub(crate) fn add_region(
        &mut self,
        payload: &[u8],
        fmt: &RecordFormat,
        goal_flag: Option<usize>,
    ) -> Result<()> {
        let mut r = ByteReader::new(payload);
        let region = r.u16()?;
        let count = r.u16()?;
        if let Some(&e) = self
            .entry_of
            .get(usize::from(region))
            .filter(|&&e| e != NO_SLOT)
        {
            let f = &self.folded[e as usize];
            if f.in_view {
                return Ok(());
            }
            let same = f.fmt == *fmt
                && f.goal_flag == goal_flag
                && f.bytes
                    .is_some_and(|(lo, hi)| self.memo_bytes[lo..hi] == *payload);
            if same {
                self.folded[e as usize].in_view = true;
                self.view.push(e);
                return Ok(());
            }
            self.drop_out_of_view();
        }
        let folded = self.fold(region, count, r, payload, fmt, goal_flag);
        if folded.is_err() {
            self.clear();
        }
        folded
    }

    /// Drops every region out of view from the memo, so a region that
    /// changed (or a node whose record moved) folds afresh beside the view
    /// this query has built. Their rows stay in the buffers, dead, until
    /// the next `clear_view` clears the arena.
    fn drop_out_of_view(&mut self) {
        for (e, f) in self.folded.iter_mut().enumerate() {
            if f.in_view {
                continue;
            }
            for &u in &self.members[f.members.0 as usize..f.members.1 as usize] {
                self.record[u as usize] = NO_SLOT;
            }
            f.members = (0, 0);
            if self.entry_of[usize::from(f.region)] == e as u32 {
                self.entry_of[usize::from(f.region)] = NO_SLOT;
            }
        }
        self.dropped = true;
    }

    /// Folds `count` records from `r` (the rest of `payload`) into the
    /// arena as a new in-view region, retaining `payload` if the memo has
    /// room.
    fn fold(
        &mut self,
        region: u16,
        count: u16,
        mut r: ByteReader<'_>,
        payload: &[u8],
        fmt: &RecordFormat,
        goal_flag: Option<usize>,
    ) -> Result<()> {
        let entry = self.folded.len() as u32;
        let at = usize::from(region);
        if self.entry_of.len() <= at {
            self.entry_of.resize(at + 1, NO_SLOT);
        }
        self.entry_of[at] = entry;
        let bytes = (self.memo_bytes.len() + payload.len() <= self.memo_cap).then(|| {
            let lo = self.memo_bytes.len();
            self.memo_bytes.extend_from_slice(payload);
            (lo, self.memo_bytes.len())
        });
        let start = self.members.len() as u32;
        self.folded.push(Folded {
            region,
            fmt: *fmt,
            goal_flag,
            members: (start, start),
            bytes,
            in_view: true,
        });
        self.view.push(entry);

        let lm_count = usize::from(fmt.lm_count);
        if self.aux_stride == 0 {
            self.aux_stride = lm_count;
        }
        let head_bytes = fmt.node_bytes(0);
        let arc_bytes = fmt.node_bytes(1) - head_bytes;
        let flags_at = arc_bytes - usize::from(fmt.flag_bytes);
        for _ in 0..count {
            let head = r.bytes(head_bytes)?;
            let u = self.intern(u32_at(head, 0))?;
            let slot = u as usize;
            if self.record[slot] != NO_SLOT {
                if self.in_view(u) {
                    return Err(CoreError::Query(format!(
                        "node {} has two records",
                        self.ids[slot]
                    )));
                }
                self.drop_out_of_view();
            }
            self.coords[slot] = Point::new(u32_at(head, 4) as i32, u32_at(head, 8) as i32);
            self.region_of[slot] = region;
            self.record[slot] = entry;
            let stride = self.aux_stride.min(lm_count);
            if stride > 0 {
                let lo = slot * self.aux_stride;
                if self.aux.len() < lo + self.aux_stride {
                    self.aux.resize(lo + self.aux_stride, u32::MAX);
                }
                for (k, entry) in self.aux[lo..lo + stride].iter_mut().enumerate() {
                    *entry = u32_at(head, 12 + 4 * k);
                }
            }
            self.members.push(u);
            let degree = usize::from(u16_at(head, head_bytes - 2));
            let block = r.bytes(degree * arc_bytes)?;
            let row_start = self.arcs.len() as u32;
            for arc in block.chunks_exact(arc_bytes) {
                let v = self.intern(u32_at(arc, 0))?;
                if fmt.with_regions {
                    let to_region = u16_at(arc, 8);
                    if to_region != NO_REGION && !self.in_view(v) {
                        self.region_of[v as usize] = to_region;
                    }
                }
                if goal_flag.is_none_or(|g| flag_set(&arc[flags_at..], g)) {
                    self.arcs.push((u, v, u32_at(arc, 4)));
                }
            }
            self.arc_rows[slot] = (row_start, self.arcs.len() as u32);
        }
        self.folded[entry as usize].members.1 = self.members.len() as u32;
        Ok(())
    }

    /// Unseals a batch of region page groups, `group_pages` pages each, and
    /// brings each into the view with [`add_region`](Self::add_region): a
    /// one-page group straight from its page, a longer one concatenated
    /// through `buf`.
    pub(crate) fn add_page_groups(
        &mut self,
        pages: &[PageBuf],
        group_pages: usize,
        fmt: &RecordFormat,
        goal_flag: Option<usize>,
        buf: &mut Vec<u8>,
    ) -> Result<()> {
        for group in pages.chunks(group_pages) {
            if let [page] = group {
                self.add_region(unseal_page(page)?, fmt, goal_flag)?;
                continue;
            }
            buf.clear();
            for page in group {
                buf.extend_from_slice(unseal_page(page)?);
            }
            self.add_region(buf, fmt, goal_flag)?;
        }
        Ok(())
    }

    /// The arcs of dense slot `u`'s record, in record order (empty until
    /// the record arrives).
    fn arcs_of(&self, u: u32) -> &[(u32, u32, u32)] {
        let (lo, hi) = self.arc_rows[u as usize];
        &self.arcs[lo as usize..hi as usize]
    }

    /// What [`shortest_path_in`](Self::shortest_path_in) relaxes for dense
    /// slot `u`, in order: its record's arcs in record order if the record
    /// is in view, then its `add_edges` triples in insertion order — the
    /// row a stable sort of all the view's arcs by tail gives, because
    /// every driver folds records before it adds triples. Needs the triple
    /// rows built.
    fn rows(&self, u: u32) -> [&[(u32, u32, u32)]; 2] {
        let record: &[_] = if self.in_view(u) {
            self.arcs_of(u)
        } else {
            &[]
        };
        let triples = match self.edge_spans.get(u as usize) {
            Some(&(lo, hi)) => &self.edge_rows[lo as usize..hi as usize],
            None => &[],
        };
        [record, triples]
    }

    /// Aux (landmark) vector of a dense slot — empty if none stored yet.
    /// Entries are `u32::MAX` until the slot's record arrives, which makes
    /// [`lm_bound`] degrade to the trivial bound 0, exactly like the
    /// `HashMap` reference search's treatment of unknown nodes.
    fn aux_of(&self, slot: u32) -> &[u32] {
        let lo = slot as usize * self.aux_stride;
        let hi = lo + self.aux_stride;
        if self.aux_stride == 0 || self.aux.len() < hi {
            &[]
        } else {
            &self.aux[lo..hi]
        }
    }

    /// Merges subgraph edge triples (PI family).
    ///
    /// # Errors
    /// An endpoint id not below the id bound is a [`CoreError::Query`]; the
    /// triples before it are merged.
    pub fn add_edges(&mut self, triples: &[(u32, u32, u32)]) -> Result<()> {
        for &(u, v, w) in triples {
            let du = self.intern(u)?;
            let dv = self.intern(v)?;
            self.edges.push((du, dv, w));
        }
        Ok(())
    }

    /// The members of `region` if it is in view, in record order.
    fn members_in_view(&self, region: u16) -> &[u32] {
        match self.entry_of.get(usize::from(region)) {
            Some(&e) if e != NO_SLOT && self.folded[e as usize].in_view => {
                let (lo, hi) = self.folded[e as usize].members;
                &self.members[lo as usize..hi as usize]
            }
            _ => &[],
        }
    }

    /// Snaps a query point to the nearest node of `region` ("our
    /// contributions apply to query sources/destinations that lie anywhere
    /// on the road network", §3.1 — we snap within the host region).
    pub(crate) fn snap(&self, region: u16, p: Point) -> Option<NodeId> {
        let mut best: Option<(i128, NodeId)> = None;
        for &u in self.members_in_view(region) {
            let d = self.coords[u as usize].dist2(&p);
            let key = (d, self.ids[u as usize]);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        best.map(|(_, id)| id)
    }

    /// Snaps like [`snap`](Self::snap) but breaks distance ties by record
    /// order (first minimum wins) instead of by external node id —
    /// matching the `HashMap` reference searches' `min_by_key`, so the LM/AF
    /// differential suites can require exact equality.
    pub(crate) fn snap_first(&self, region: u16, p: Point) -> Option<NodeId> {
        let mut best: Option<(i128, NodeId)> = None;
        for &u in self.members_in_view(region) {
            let d = self.coords[u as usize].dist2(&p);
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, self.ids[u as usize]));
            }
        }
        best.map(|(_, id)| id)
    }

    /// (Re)sorts the `add_edges` triples by tail into `edge_rows` by
    /// counting sort, in time linear in the triples. Idempotent: a no-op
    /// unless triples arrived since the last build, and nothing at all
    /// while there are none.
    fn build_edge_rows(&mut self) {
        if self.sorted_edges == self.edges.len() {
            return;
        }
        for &(u, _, _) in &self.edge_rows {
            self.edge_spans[u as usize] = (0, 0);
        }
        if self.edge_spans.len() < self.ids.len() {
            self.edge_spans.resize(self.ids.len(), (0, 0));
        }
        // Each tail's span goes (0, count), then — tails in order of first
        // appearance — (end, end), then, filled back to front so each row
        // keeps insertion order, (start, end).
        for &(u, _, _) in &self.edges {
            self.edge_spans[u as usize].1 += 1;
        }
        let mut end = 0;
        for &(u, _, _) in &self.edges {
            let span = &mut self.edge_spans[u as usize];
            if span.0 < span.1 {
                end += span.1;
                *span = (end, end);
            }
        }
        self.edge_rows.clear();
        self.edge_rows.resize(self.edges.len(), (0, 0, 0));
        for &e in self.edges.iter().rev() {
            let span = &mut self.edge_spans[e.0 as usize];
            span.0 -= 1;
            self.edge_rows[span.0 as usize] = e;
        }
        self.sorted_edges = self.edges.len();
    }

    /// Dijkstra from `s` to `t` over the view, using (and populating)
    /// `scratch`. Returns the cost, or `None` if `t` is unreachable; on
    /// success the node path is in [`QueryScratch::path`].
    pub fn shortest_path_in(
        &mut self,
        scratch: &mut QueryScratch,
        s: NodeId,
        t: NodeId,
    ) -> Option<Dist> {
        self.build_edge_rows();
        let (s_slot, t_slot) = (self.slot(s)?, self.slot(t)?);
        scratch.reset(self.ids.len());
        scratch.reach(s_slot, 0, NO_SLOT);
        scratch.heap.push(Reverse((0, s, s_slot)));
        while let Some(Reverse((du, _, u))) = scratch.heap.pop() {
            if du > scratch.dist[u as usize] {
                continue; // stale
            }
            if u == t_slot {
                scratch.emit_path(t_slot, &self.ids);
                return Some(du);
            }
            for row in self.rows(u) {
                for &(_, v, w) in row {
                    let nd = du + Dist::from(w);
                    if nd < scratch.dist[v as usize] {
                        scratch.reach(v, nd, u);
                        scratch.heap.push(Reverse((nd, self.ids[v as usize], v)));
                    }
                }
            }
        }
        None
    }

    /// Convenience wrapper over [`shortest_path_in`](Self::shortest_path_in)
    /// with a throwaway scratch: returns `(cost, node path)` or `None` if
    /// `t` is unreachable in the view.
    pub fn shortest_path(&mut self, s: NodeId, t: NodeId) -> Option<(Dist, Vec<NodeId>)> {
        let mut scratch = QueryScratch::new();
        let cost = self.shortest_path_in(&mut scratch, s, t)?;
        Some((cost, scratch.path.clone()))
    }
}

/// Reusable solver state for the client Dijkstra: distance / parent arrays,
/// the two searches' heaps, and the output path buffer. One instance lives
/// in each [`crate::engine::QuerySession`]; between queries it is cleared,
/// never reallocated (capacity ratchets up to the high-water mark), and
/// the clearing walks only the slots the last search reached, so it costs
/// what that search touched, not what the arena holds.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// Tentative distances per dense slot (`Dist::MAX` = unreached).
    dist: Vec<Dist>,
    /// Dijkstra tree parent per dense slot (`NO_SLOT` = none).
    parent: Vec<u32>,
    /// The slots whose `dist` is set, each once.
    reached: Vec<u32>,
    /// The frontier of [`ClientSubgraph::shortest_path_in`], a
    /// lazy-deletion min-heap of `(dist, external id, slot)`: the
    /// external-id tie-break keeps the settle order canonical regardless of
    /// interning order. A slot is pushed only when its distance strictly
    /// falls, and has one external id, so its one live entry has a key no
    /// other entry shares.
    heap: BinaryHeap<Reverse<(Dist, NodeId, u32)>>,
    /// The frontier of [`search_regions`], a lazy-deletion min-heap of
    /// `(g + bound, g, external id, slot)`: the reference searches' own
    /// `BinaryHeap<Reverse<(_, _, NodeId)>>` with the slot appended. A slot
    /// has one external id, so the slot orders only entries that are equal
    /// throughout, and the pop sequence is the references'.
    frontier: BinaryHeap<Reverse<(Dist, Dist, NodeId, u32)>>,
    /// Per-query copy of the target's aux vector (`t_vec` of the LM bound),
    /// held here so heuristic evaluation never borrows the growing arena.
    aux_key: Vec<u32>,
    /// Node path of the last successful query (external ids, source first).
    pub path: Vec<NodeId>,
}

impl QueryScratch {
    /// Fresh scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepares the buffers for a graph of `n` dense slots.
    fn reset(&mut self, n: usize) {
        for &u in &self.reached {
            self.dist[u as usize] = Dist::MAX;
            self.parent[u as usize] = NO_SLOT;
        }
        self.reached.clear();
        self.ensure(n);
        self.heap.clear();
        self.frontier.clear();
        self.aux_key.clear();
        self.path.clear();
    }

    /// Extends the dense buffers to `n` slots without disturbing existing
    /// entries — the interleaved searches grow the arena mid-query.
    fn ensure(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, Dist::MAX);
            self.parent.resize(n, NO_SLOT);
            // room for every slot, so a search never grows it
            self.reached.reserve(n - self.reached.len());
        }
    }

    /// Sets slot `v`'s tentative distance and tree parent.
    #[inline]
    fn reach(&mut self, v: u32, dist: Dist, parent: u32) {
        if self.dist[v as usize] == Dist::MAX {
            self.reached.push(v);
        }
        self.dist[v as usize] = dist;
        self.parent[v as usize] = parent;
    }

    /// Walks parents from `t_slot` and writes the external-id path (source
    /// first) into `self.path`.
    fn emit_path(&mut self, t_slot: u32, ids: &[NodeId]) {
        self.path.clear();
        let mut cur = t_slot;
        loop {
            self.path.push(ids[cur as usize]);
            cur = self.parent[cur as usize];
            if cur == NO_SLOT {
                break;
            }
        }
        self.path.reverse();
    }
}

/// Outcome of an interleaved fetch-and-search (`search_regions`). The
/// node path of a successful search is left in [`QueryScratch::path`].
#[derive(Debug, Clone)]
pub(crate) struct FetchOutcome {
    /// Path cost, or `None` if the destination is unreachable.
    pub(crate) cost: Option<Dist>,
    /// Node the source point snapped to.
    pub(crate) s_node: NodeId,
    /// Node the destination point snapped to.
    pub(crate) t_node: NodeId,
    /// Region fetches issued, including the two initial host regions (the
    /// LM page count / AF region count the fixed plan budgets against).
    pub(crate) fetches: u32,
}

/// What a search calls to bring a region's records into the arena: fetch
/// region `r` and fold it into the arena it is handed (one fetch, counted
/// by the search whether or not the region was folded in before).
pub(crate) type FoldRegion<'a> = dyn FnMut(u16, &mut ClientSubgraph) -> Result<()> + 'a;

/// The interleaved search of the LM and AF baselines (§4) on the interned
/// arena: A* under the stored landmark lower bounds, fetching a region
/// whenever the frontier pops a node whose record has not arrived yet. A
/// settled node's arcs are its row of the arena's arc array, recorded when
/// its region was folded in, so a fetch costs the region it brings and
/// nothing more. The first two fetches are the host regions `rs` and `rt`
/// (two even if they are one region, per the fixed plan), and every fetch
/// counts whether or not its region was folded in before, mirroring the
/// reference searches' unconditional `load`.
///
/// AF is the same search under a zero bound. Its records carry no landmark
/// vectors, so [`lm_bound`] of any two rows is 0 and the key `(g + 0, g,
/// id)` orders exactly as the AF reference's `(g, id)`; its pruning is
/// `fetch`'s, which folds each region with `rt` as the goal flag, so a
/// node's row holds only the kept arcs. The flavours differ in one line,
/// marked below.
///
/// Behaviourally identical — same snaps, same settle order, same fetch
/// sequence — to the retained `HashMap` implementations, the test oracles
/// `schemes::lm::reference::lm_search` and
/// `schemes::af::reference::af_search`; the differentials in
/// `schemes::baseline::tests` assert answers, paths, fetch counts and PIR
/// meter charges match exactly. Unlike the references, the search
/// allocates nothing in steady state: its state lives in the reusable `sub`
/// arena and `scratch` buffers, and `fetch` folds each region's bytes
/// straight into `sub`.
pub(crate) fn search_regions(
    flavor: BaselineFlavor,
    sub: &mut ClientSubgraph,
    scratch: &mut QueryScratch,
    (rs, rt): (u16, u16),
    (s, t): (Point, Point),
    fetch: &mut FoldRegion<'_>,
) -> Result<FetchOutcome> {
    fetch(rs, sub)?;
    fetch(rt, sub)?;
    let mut fetches = 2u32;

    let s_node = sub
        .snap_first(rs, s)
        .ok_or_else(|| CoreError::Query("empty source region".into()))?;
    let t_node = sub
        .snap_first(rt, t)
        .ok_or_else(|| CoreError::Query("empty target region".into()))?;
    scratch.reset(sub.num_nodes());
    if s_node == t_node {
        scratch.path.push(s_node);
        return Ok(FetchOutcome {
            cost: Some(0),
            s_node,
            t_node,
            fetches,
        });
    }
    let s_slot = sub.slot_of[s_node as usize];
    let t_slot = sub.slot_of[t_node as usize];
    scratch.aux_key.extend_from_slice(sub.aux_of(t_slot));

    scratch.reach(s_slot, 0, NO_SLOT);
    let h0 = lm_bound(sub.aux_of(s_slot), &scratch.aux_key);
    scratch.frontier.push(Reverse((h0, 0, s_node, s_slot)));
    // Keys stay below `Dist::MAX` (a simple path of `u32` arcs over `u32`
    // slots, plus a `u32` bound), so no break fires before a path is found.
    let mut incumbent = Dist::MAX;

    while let Some(Reverse((f, gu, id, u))) = scratch.frontier.pop() {
        if f >= incumbent {
            break; // admissible bounds: nothing better remains
        }
        if gu > scratch.dist[u as usize] {
            continue; // stale
        }
        if !sub.in_view(u) {
            let region = sub.region_of[u as usize];
            if region == NO_REGION {
                return Err(CoreError::Query(format!("no region hint for node {id}")));
            }
            fetch(region, sub)?;
            fetches += 1;
            scratch.ensure(sub.num_nodes());
            if !sub.in_view(u) {
                return Err(CoreError::Query(format!(
                    "node {id} missing after region fetch"
                )));
            }
            let hu = lm_bound(sub.aux_of(u), &scratch.aux_key);
            scratch.frontier.push(Reverse((gu + hu, gu, id, u)));
            continue;
        }
        if u == t_slot {
            incumbent = incumbent.min(gu);
            continue;
        }
        for &(_, v, w) in sub.arcs_of(u) {
            let nd = gu + Dist::from(w);
            if nd < scratch.dist[v as usize] {
                scratch.reach(v, nd, u);
                let hv = lm_bound(sub.aux_of(v), &scratch.aux_key);
                scratch
                    .frontier
                    .push(Reverse((nd + hv, nd, sub.ids[v as usize], v)));
                // The flavours' one difference: LM's reference lowers the
                // incumbent when a relaxation reaches t, AF's only when t
                // settles. Under AF's zero bound every key left at that
                // settle is at least the incumbent, so the break above ends
                // the search exactly where AF's reference stops.
                if v == t_slot && flavor == BaselineFlavor::Lm {
                    incumbent = incumbent.min(nd);
                }
            }
        }
    }

    let cost = (incumbent != Dist::MAX).then_some(incumbent);
    if cost.is_some() {
        scratch.emit_path(t_slot, &sub.ids);
    }
    Ok(FetchOutcome {
        cost,
        s_node,
        t_node,
        fetches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use privpath_storage::ByteWriter;

    impl ClientSubgraph {
        /// Bytes of region payload the memo holds.
        pub(crate) fn memo_len(&self) -> usize {
            self.memo_bytes.len()
        }
    }

    type TestNode = (u32, (i32, i32), Vec<(u32, u32)>);

    /// Encodes `nodes` as one plain-format region record stream, as a client
    /// holds it once it has unsealed a fetched page.
    fn region(region: u16, nodes: Vec<TestNode>) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u16(region).u16(nodes.len() as u16);
        for (id, (x, y), adj) in nodes {
            w.u32(id).i32(x).i32(y).u16(adj.len() as u16);
            for (to, wt) in adj {
                w.u32(to).u32(wt);
            }
        }
        w.into_vec()
    }

    fn add(g: &mut ClientSubgraph, payload: &[u8]) {
        g.add_region(payload, &RecordFormat::default(), None)
            .unwrap();
    }

    #[test]
    fn path_across_regions() {
        let mut g = ClientSubgraph::new();
        add(
            &mut g,
            &region(
                0,
                vec![(0, (0, 0), vec![(1, 5)]), (1, (1, 0), vec![(0, 5), (2, 7)])],
            ),
        );
        add(&mut g, &region(1, vec![(2, (2, 0), vec![(1, 7)])]));
        let (cost, path) = g.shortest_path(0, 2).unwrap();
        assert_eq!(cost, 12);
        assert_eq!(path, vec![0, 1, 2]);
    }

    #[test]
    fn unreachable_is_none() {
        let mut g = ClientSubgraph::new();
        add(&mut g, &region(0, vec![(0, (0, 0), vec![])]));
        add(&mut g, &region(1, vec![(9, (9, 9), vec![])]));
        assert!(g.shortest_path(0, 9).is_none());
    }

    #[test]
    fn extra_edges_from_subgraph_records() {
        let mut g = ClientSubgraph::new();
        add(
            &mut g,
            &region(0, vec![(0, (0, 0), vec![(1, 100)]), (1, (5, 0), vec![])]),
        );
        // A cheaper connection arrives via G_st triples.
        g.add_edges(&[(0, 2, 1), (2, 1, 1)]).unwrap();
        let (cost, path) = g.shortest_path(0, 1).unwrap();
        assert_eq!(cost, 2);
        assert_eq!(path, vec![0, 2, 1]);
    }

    #[test]
    fn duplicate_edges_are_harmless() {
        let mut g = ClientSubgraph::new();
        add(
            &mut g,
            &region(0, vec![(0, (0, 0), vec![(1, 3)]), (1, (1, 1), vec![])]),
        );
        g.add_edges(&[(0, 1, 3), (0, 1, 3)]).unwrap();
        let (cost, _) = g.shortest_path(0, 1).unwrap();
        assert_eq!(cost, 3);
    }

    #[test]
    fn snapping_picks_nearest_in_region() {
        let mut g = ClientSubgraph::new();
        add(
            &mut g,
            &region(
                3,
                vec![
                    (10, (0, 0), vec![]),
                    (11, (100, 100), vec![]),
                    (12, (10, 10), vec![]),
                ],
            ),
        );
        assert_eq!(g.snap(3, Point::new(9, 9)), Some(12));
        assert_eq!(g.snap(3, Point::new(-5, 0)), Some(10));
        assert_eq!(g.snap(4, Point::new(0, 0)), None);
    }

    #[test]
    fn trivial_same_node() {
        let mut g = ClientSubgraph::new();
        add(&mut g, &region(0, vec![(7, (0, 0), vec![])]));
        let (cost, path) = g.shortest_path(7, 7).unwrap();
        assert_eq!(cost, 0);
        assert_eq!(path, vec![7]);
    }

    #[test]
    fn clear_keeps_capacity_and_resets_view() {
        let mut g = ClientSubgraph::new();
        let mut scratch = QueryScratch::new();
        add(
            &mut g,
            &region(0, vec![(0, (0, 0), vec![(1, 5)]), (1, (1, 0), vec![])]),
        );
        assert_eq!(g.shortest_path_in(&mut scratch, 0, 1), Some(5));
        g.clear();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.snap(0, Point::new(0, 0)), None);
        // Same ids, different topology: stale state must not leak through.
        add(
            &mut g,
            &region(0, vec![(0, (0, 0), vec![(1, 9)]), (1, (1, 0), vec![])]),
        );
        assert_eq!(g.shortest_path_in(&mut scratch, 0, 1), Some(9));
        assert_eq!(scratch.path, vec![0, 1]);
    }

    #[test]
    fn csr_rebuilds_after_incremental_edges() {
        let mut g = ClientSubgraph::new();
        add(
            &mut g,
            &region(0, vec![(0, (0, 0), vec![(1, 50)]), (1, (1, 0), vec![])]),
        );
        assert_eq!(g.shortest_path(0, 1).unwrap().0, 50);
        // Triples arriving after a solve must be sorted into the next one.
        g.add_edges(&[(0, 1, 2)]).unwrap();
        assert_eq!(g.shortest_path(0, 1).unwrap().0, 2);
    }

    /// The parent design's adjacency, kept as the oracle of the row solver:
    /// every arc the view holds — record arcs in fold order, then the
    /// `add_edges` triples in insertion order — sorted by tail into one
    /// CSR by a stable counting sort. Returns the row offsets and the
    /// `(head, weight)` column.
    fn all_arcs_csr(sub: &ClientSubgraph) -> (Vec<u32>, Vec<(u32, u32)>) {
        let n = sub.num_nodes();
        let all: Vec<(u32, u32, u32)> = sub.arcs.iter().chain(&sub.edges).copied().collect();
        let mut offsets = vec![0u32; n + 1];
        for &(u, _, _) in &all {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut column = vec![(0, 0); all.len()];
        for &(u, v, w) in &all {
            column[cursor[u as usize] as usize] = (v, w);
            cursor[u as usize] += 1;
        }
        (offsets, column)
    }

    /// The all-arcs solver over [`all_arcs_csr`]: Dijkstra keyed by
    /// `(distance, external id, slot)`. Returns the cost and the node path.
    fn csr_solve(sub: &ClientSubgraph, s: NodeId, t: NodeId) -> Option<(Dist, Vec<NodeId>)> {
        let (offsets, column) = all_arcs_csr(sub);
        let (s_slot, t_slot) = (sub.slot(s)?, sub.slot(t)?);
        let mut scratch = QueryScratch::new();
        scratch.reset(sub.num_nodes());
        scratch.dist[s_slot as usize] = 0;
        scratch.heap.push(Reverse((0, s, s_slot)));
        while let Some(Reverse((du, _, u))) = scratch.heap.pop() {
            if du > scratch.dist[u as usize] {
                continue;
            }
            if u == t_slot {
                scratch.emit_path(t_slot, &sub.ids);
                return Some((du, scratch.path.clone()));
            }
            for &(v, w) in &column[offsets[u as usize] as usize..offsets[u as usize + 1] as usize] {
                let nd = du + Dist::from(w);
                if nd < scratch.dist[v as usize] {
                    scratch.dist[v as usize] = nd;
                    scratch.parent[v as usize] = u;
                    scratch.heap.push(Reverse((nd, sub.ids[v as usize], v)));
                }
            }
        }
        None
    }

    /// One node record for [`encode`]: id, coordinates and `(head, weight)`
    /// arcs.
    type Record = (u32, i32, i32, Vec<(u32, u32)>);

    /// Encodes `records` as one region's payload in `fmt`'s layout, with
    /// landmark entries, head-region hints and flag bytes derived from the
    /// ids (`home` gives each head's region).
    fn encode(
        region: u16,
        records: &[Record],
        fmt: &RecordFormat,
        home: &dyn Fn(u32) -> u16,
    ) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u16(region).u16(records.len() as u16);
        for (id, x, y, adj) in records {
            w.u32(*id).i32(*x).i32(*y);
            for k in 0..u32::from(fmt.lm_count) {
                w.u32(id.wrapping_mul(31).wrapping_add(k * 7) % 1000);
            }
            w.u16(adj.len() as u16);
            for &(to, wt) in adj {
                w.u32(to).u32(wt);
                if fmt.with_regions {
                    w.u16(home(to));
                }
                for b in 0..fmt.flag_bytes {
                    w.u8((to as u8).wrapping_mul(37) ^ (b as u8).wrapping_mul(101));
                }
            }
        }
        w.into_vec()
    }

    /// Random records over `n` nodes in `regions` regions: each node in one
    /// region, up to four arcs to any node (self-loops and parallel arcs
    /// included). Returns each region's payload.
    fn random_records(seed: u64, fmt: &RecordFormat, regions: u16, n: u32) -> Vec<Vec<u8>> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let home: Vec<u16> = (0..n).map(|_| rng.gen_range(0..regions)).collect();
        (0..regions)
            .map(|r| {
                let records: Vec<Record> = (0..n)
                    .filter(|&u| home[u as usize] == r)
                    .map(|u| {
                        let deg = rng.gen_range(0..5usize);
                        let adj = (0..deg)
                            .map(|_| (rng.gen_range(0..n), rng.gen_range(1..50u32)))
                            .collect();
                        (u, rng.gen_range(0..100), rng.gen_range(0..100), adj)
                    })
                    .collect();
                encode(r, &records, fmt, &|v| home[v as usize])
            })
            .collect()
    }

    const PLAIN: RecordFormat = RecordFormat {
        lm_count: 0,
        with_regions: false,
        flag_bytes: 0,
    };
    const LM: RecordFormat = RecordFormat {
        lm_count: 3,
        with_regions: true,
        flag_bytes: 0,
    };
    const AF: RecordFormat = RecordFormat {
        lm_count: 0,
        with_regions: true,
        flag_bytes: 2,
    };

    /// A forgery of an otherwise well-formed region payload.
    #[derive(Debug, Clone, Copy)]
    enum Forgery {
        /// The payload cut to this many bytes (shorter than its records).
        Truncate(usize),
        /// Record `k`'s degree raised past what the payload holds.
        Degree(usize, u16),
        /// A record count beyond the records present.
        Count(u16),
        /// Record `k`'s id replaced.
        RecordId(usize, u32),
        /// Record `k`'s first arc head replaced.
        ArcHead(usize, u32),
        /// Record `k` a second record of record 0's node.
        TwoRecords(usize),
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 64, ..Default::default() })]

        /// The arc range each slot's record leaves in `arcs` is its CSR
        /// row: the same heads and weights in the same order, for LM
        /// records and for goal-pruned AF records, after every load of any
        /// subset of regions in any order, repeats included.
        #[test]
        fn arc_rows_equal_csr_rows(
            seed in 0u64..1_000_000,
            af in 0u8..2,
            goal in 0usize..6,
            loads in proptest::collection::vec(0u16..6, 1..12),
        ) {
            let (fmt, goal_flag) = if af == 1 {
                let fmt = RecordFormat { lm_count: 0, with_regions: true, flag_bytes: 1 };
                (fmt, Some(goal))
            } else {
                let fmt = RecordFormat { lm_count: 3, with_regions: true, flag_bytes: 0 };
                (fmt, None)
            };
            let regions = random_records(seed, &fmt, 6, 48);
            let mut sub = ClientSubgraph::new();
            for &r in &loads {
                sub.add_region(&regions[r as usize], &fmt, goal_flag).unwrap();
                let (offsets, column) = all_arcs_csr(&sub);
                for u in 0..sub.num_nodes() {
                    let row = column[offsets[u] as usize..offsets[u + 1] as usize].to_vec();
                    let arcs = sub.arcs_of(u as u32);
                    proptest::prop_assert!(arcs.iter().all(|a| a.0 == u as u32));
                    let arcs: Vec<(u32, u32)> = arcs.iter().map(|&(_, v, w)| (v, w)).collect();
                    proptest::prop_assert_eq!(arcs, row, "slot {} after loading {:?}", u, loads);
                }
            }
        }

        /// The row solver against the parent's all-arcs CSR solver on mixed
        /// views: records of several regions, folded first as every driver
        /// folds them, then `add_edges` triples — tails with a record and
        /// triples both, and ids no record names. Each node's relax rows,
        /// concatenated, are its CSR row, in order; and from any interned
        /// source to any interned target both solvers return the same cost
        /// and the same node path.
        #[test]
        fn row_solver_matches_csr_solver_on_mixed_views(
            seed in 0u64..1_000_000,
            loads in proptest::collection::vec(0u16..5, 1..8),
            triples in proptest::collection::vec((0u32..48, 0u32..48, 1u32..60), 0..80),
            ends in proptest::collection::vec((0u32..48, 0u32..48), 1..6),
        ) {
            let regions = random_records(seed, &PLAIN, 5, 40);
            let mut sub = ClientSubgraph::new();
            for &r in &loads {
                sub.add_region(&regions[r as usize], &PLAIN, None).unwrap();
            }
            sub.add_edges(&triples).unwrap();
            sub.build_edge_rows();
            let (offsets, column) = all_arcs_csr(&sub);
            for u in 0..sub.num_nodes() as u32 {
                let rows: Vec<(u32, u32)> =
                    sub.rows(u).concat().iter().map(|&(_, v, w)| (v, w)).collect();
                let csr = &column[offsets[u as usize] as usize..offsets[u as usize + 1] as usize];
                proptest::prop_assert_eq!(rows.as_slice(), csr, "slot {}", u);
            }
            for &(s, t) in &ends {
                let want = csr_solve(&sub, s, t);
                let got = sub.shortest_path(s, t);
                proptest::prop_assert_eq!(got, want, "{} -> {}", s, t);
            }
        }

        /// Forged payloads fold to an error, never a panic, in the plain,
        /// LM and AF layouts: random bytes (which may also happen to be
        /// well formed), truncations, degrees and counts beyond the
        /// payload, record ids and arc heads at, just below and far past
        /// the id bound, and a node with two records. The id table never
        /// outgrows the bound, and the arena answers a well-formed region
        /// correctly after `clear`.
        #[test]
        fn forged_payloads_are_errors_not_panics(
            seed in 0u64..1_000_000,
            layout in 0u8..3,
            noise in proptest::collection::vec(0u8..=255, 0..160),
            forgery in 0u8..9,
            pick in 0usize..1_000,
            cut in 0usize..1_000,
        ) {
            let fmt = [PLAIN, LM, AF][layout as usize];
            let bound = 40u32;
            let mut sub = ClientSubgraph::new();
            sub.set_id_bound(bound);

            // Random bytes, folded as the payload of a region.
            let _ = sub.add_region(&noise, &fmt, Some(3));
            proptest::prop_assert!(sub.slot_of.len() <= bound as usize);
            sub.clear();

            // A well-formed region over ids below the bound, then forged.
            let records: Vec<Record> = (0..6u32)
                .map(|k| {
                    let id = (seed as u32).wrapping_add(k * 7) % bound;
                    let adj = (0..1 + k % 3)
                        .map(|j| ((id + 1 + j * 5) % bound, 1 + j))
                        .collect();
                    (id, k as i32, -(k as i32), adj)
                })
                .collect();
            let mut records = records;
            records.sort_by_key(|r| r.0);
            records.dedup_by_key(|r| r.0);
            let k = pick % records.len();
            let forged = match forgery {
                0 => Forgery::Truncate(cut % encode(1, &records, &fmt, &|_| 1).len()),
                1 => Forgery::Degree(k, u16::MAX),
                2 => Forgery::Count(records.len() as u16 + 1 + (pick as u16 % 500)),
                3 => Forgery::RecordId(k, bound),
                4 => Forgery::RecordId(k, u32::MAX - (pick as u32 % 3)),
                5 => Forgery::ArcHead(k, bound),
                6 => Forgery::ArcHead(k, bound + 1 + pick as u32 * 1_000_003),
                7 => Forgery::TwoRecords(k.max(1)),
                _ => Forgery::RecordId(k, bound - 1),
            };
            let mut bad = records.clone();
            match forged {
                Forgery::RecordId(k, id) => bad[k].0 = id,
                Forgery::ArcHead(k, id) => bad[k].3[0].0 = id,
                Forgery::TwoRecords(k) => bad[k].0 = bad[0].0,
                _ => {}
            }
            let mut payload = encode(1, &bad, &fmt, &|_| 1);
            match forged {
                Forgery::Truncate(len) => payload.truncate(len),
                Forgery::Count(c) => payload[2..4].copy_from_slice(&c.to_le_bytes()),
                Forgery::Degree(k, d) => {
                    let at = 4 + records[..k]
                        .iter()
                        .map(|r| fmt.node_bytes(r.3.len()))
                        .sum::<usize>()
                        + fmt.node_bytes(0)
                        - 2;
                    payload[at..at + 2].copy_from_slice(&d.to_le_bytes());
                }
                _ => {}
            }
            let folded = sub.add_region(&payload, &fmt, None);
            // An id just below the bound is legitimate (unless it names a
            // node another record already has).
            let legit = matches!(forged, Forgery::RecordId(k, id)
                if id < bound && records.iter().enumerate().all(|(j, r)| j == k || r.0 != id));
            proptest::prop_assert_eq!(folded.is_ok(), legit, "{:?}: {:?}", forged, folded);
            proptest::prop_assert!(sub.slot_of.len() <= bound as usize);

            // The arena is usable again after `clear`.
            sub.clear();
            let good = encode(2, &[(0, 0, 0, vec![(1, 4)]), (1, 1, 0, vec![(2, 5)]), (2, 2, 0, vec![])], &fmt, &|_| 2);
            sub.add_region(&good, &fmt, None).unwrap();
            proptest::prop_assert_eq!(sub.shortest_path(0, 2), Some((9, vec![0, 1, 2])));
        }
    }

    /// The ids of `add_edges` triples are held to the bound too, and a
    /// rejected id leaves the table no longer than the bound.
    #[test]
    fn edge_ids_past_the_bound_are_errors() {
        let mut g = ClientSubgraph::new();
        g.set_id_bound(10);
        assert!(g.add_edges(&[(0, 9, 1)]).is_ok());
        for bad in [
            (0, 10, 1),
            (10, 0, 1),
            (0, u32::MAX, 1),
            (4_000_000_000, 1, 1),
        ] {
            assert!(matches!(g.add_edges(&[bad]), Err(CoreError::Query(_))));
            assert!(g.slot_of.len() <= 10);
        }
        assert_eq!(g.shortest_path(0, 9).map(|(c, _)| c), Some(1));
    }

    /// On deterministic pseudo-random multigraph views, the solver's
    /// cost equals `graph::dijkstra::distance` over a `NetworkBuilder`
    /// network of the same triples (`INFINITY` read as unreachable).
    /// Self-loops are left out of the network: they never lie on a shortest
    /// path, and the builder rejects them.
    #[test]
    fn matches_reference_on_dense_random_views() {
        use privpath_graph::dijkstra::{distance, INFINITY};
        use privpath_graph::NetworkBuilder;
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..20 {
            let n = 2 + (next() % 40) as u32;
            let m = (next() % 200) as usize;
            let triples: Vec<(u32, u32, u32)> = (0..m)
                .map(|_| {
                    (
                        next() as u32 % n,
                        next() as u32 % n,
                        1 + (next() as u32 % 1000),
                    )
                })
                .collect();
            let mut csr = ClientSubgraph::new();
            csr.add_edges(&triples).unwrap();
            let mut net = NetworkBuilder::new();
            for _ in 0..n {
                net.add_node(Point::new(0, 0));
            }
            for &(u, v, w) in triples.iter().filter(|&&(u, v, _)| u != v) {
                net.add_arc(u, v, w);
            }
            let net = net.build();
            let (s, t) = (next() as u32 % n, next() as u32 % n);
            if s == t {
                // The oracle answers s == t with 0 whether or not s is in
                // the view; the interned view reports an unknown s
                // unreachable. Not comparable.
                continue;
            }
            let got = csr.shortest_path(s, t).map(|(c, _)| c);
            let want = Some(distance(&net, s, t)).filter(|&d| d != INFINITY);
            assert_eq!(
                got, want,
                "round {round}: sp({s},{t}) over {m} arcs on {n} nodes"
            );
        }
    }
}
