//! The LM baseline (§4): Landmark vectors + A* with on-demand region
//! fetching and a fixed page budget.
//!
//! "In the first round of processing, the querying client requests for and
//! receives a header file ... In round two, she fetches from Fd the pages
//! that hold the data of these two regions ... When the search encounters a
//! node that belongs to another region, a new round of processing is
//! initiated and the corresponding Fd page is fetched via the PIR interface,
//! and so on, until the destination t is reached. ... upon reaching t, the
//! client may need to make dummy requests until the necessary number of page
//! retrievals is reached."

use crate::config::BuildConfig;
use crate::engine::{PathAnswer, QueryOutput};
use crate::files::fd::{build_fd, decode_region, NodeExtra, RecordFormat, RegionData};
use crate::files::fh::Header;
use crate::files::{unseal_page, PAGE_CRC_BYTES};
use crate::plan::{PlanFile, QueryPlan, RoundSpec};
use crate::schemes::index_scheme::{BuildStats, StageBreakdown};
use crate::schemes::plan_probe::{probe_max, sample_pairs, ProbePairs, ProbeSearch};
use crate::subgraph::search_lm;
use crate::Result;
use privpath_graph::landmark::Landmarks;
use privpath_graph::network::RoadNetwork;
use privpath_graph::types::{NodeId, Point};
use privpath_pir::{FileId, PirMode, PirServer, Transport};
use privpath_storage::{MemFile, PagedFile};
use rand::Rng;
use std::sync::Arc;

pub use crate::subgraph::lm_bound;

/// Built LM database handles.
pub(crate) struct LmScheme {
    /// The public header.
    pub(crate) header: Header,
    /// Header file id.
    pub(crate) header_file: FileId,
    /// Region data file id.
    pub(crate) data_file: FileId,
    /// Total `Fd` pages any query fetches (the fixed plan budget).
    pub(crate) max_pages: u32,
}

struct LmExtra<'a> {
    lm: &'a Landmarks,
}

impl NodeExtra for LmExtra<'_> {
    fn lm_vec(&self, node: u32) -> Vec<u32> {
        self.lm.to_anchor[node as usize]
            .iter()
            .map(|&d| {
                if d == privpath_graph::INFINITY {
                    u32::MAX
                } else {
                    d.min(u64::from(u32::MAX - 1)) as u32
                }
            })
            .collect()
    }
}

/// The original `HashMap`-based client search, retained verbatim as the
/// behavioural reference for the CSR-arena [`crate::subgraph::search_lm`]
/// that replaced it on the query path. The differential property suite
/// (`tests/leakage.rs`) asserts both return identical answers, snapped
/// nodes, paths and fetch counts on identical inputs — which makes their
/// PIR meter charges identical too.
pub mod reference {
    use super::*;
    use crate::error::CoreError;
    use crate::files::fd::NodeData;
    use privpath_graph::types::Dist;
    use std::collections::HashMap;

    /// What the reference search produced. `pages` counts region fetches
    /// including the two initial host regions.
    pub struct SearchOutcome {
        /// Path cost, or `None` if the destination is unreachable.
        pub cost: Option<Dist>,
        /// Node sequence of the found path (empty when unreachable).
        pub path: Vec<NodeId>,
        /// Node the source point snapped to.
        pub s_node: NodeId,
        /// Node the destination point snapped to.
        pub t_node: NodeId,
        /// Region page fetches issued.
        pub pages: u32,
    }

    /// A* over `HashMap` state with on-demand region fetching.
    pub fn lm_search(
        rs: u16,
        rt: u16,
        s: Point,
        t: Point,
        fetch: &mut dyn FnMut(u16) -> Result<RegionData>,
    ) -> Result<SearchOutcome> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut known: HashMap<NodeId, NodeData> = HashMap::new();
        let mut members: HashMap<u16, Vec<NodeId>> = HashMap::new();
        let mut pages = 0u32;
        let load = |region: u16,
                    known: &mut HashMap<NodeId, NodeData>,
                    members: &mut HashMap<u16, Vec<NodeId>>,
                    pages: &mut u32,
                    fetch: &mut dyn FnMut(u16) -> Result<RegionData>|
         -> Result<()> {
            let data = fetch(region)?;
            *pages += 1;
            if !members.contains_key(&region) {
                let list = members.entry(region).or_default();
                for n in data.nodes {
                    list.push(n.id);
                    known.insert(n.id, n);
                }
            }
            Ok(())
        };

        // Round-two fetches: both host regions (two page fetches even if
        // equal, per the fixed plan).
        load(rs, &mut known, &mut members, &mut pages, fetch)?;
        load(rt, &mut known, &mut members, &mut pages, fetch)?;

        let snap = |region: u16,
                    p: Point,
                    known: &HashMap<NodeId, NodeData>,
                    members: &HashMap<u16, Vec<NodeId>>| {
            members.get(&region).and_then(|list| {
                list.iter()
                    .copied()
                    .min_by_key(|id| known[id].pos.dist2(&p))
            })
        };
        let s_node = snap(rs, s, &known, &members)
            .ok_or_else(|| CoreError::Query("empty source region".into()))?;
        let t_node = snap(rt, t, &known, &members)
            .ok_or_else(|| CoreError::Query("empty target region".into()))?;
        let t_vec = known[&t_node].lm_vec.clone();

        if s_node == t_node {
            return Ok(SearchOutcome {
                cost: Some(0),
                path: vec![s_node],
                s_node,
                t_node,
                pages,
            });
        }

        let mut g: HashMap<NodeId, Dist> = HashMap::new();
        let mut parent: HashMap<NodeId, NodeId> = HashMap::new();
        let mut region_hint: HashMap<NodeId, u16> = HashMap::new();
        let mut heap: BinaryHeap<Reverse<(Dist, Dist, NodeId)>> = BinaryHeap::new();
        let mut incumbent = Dist::MAX;

        g.insert(s_node, 0);
        let h0 = lm_bound(&known[&s_node].lm_vec, &t_vec);
        heap.push(Reverse((h0, 0, s_node)));

        while let Some(&Reverse((f, _, _))) = heap.peek() {
            if incumbent != Dist::MAX && f >= incumbent {
                break; // admissible bounds: nothing better remains
            }
            let Reverse((_, gu, u)) = heap.pop().expect("peeked");
            if gu > *g.get(&u).unwrap_or(&Dist::MAX) {
                continue; // stale
            }
            if !known.contains_key(&u) {
                let region = *region_hint
                    .get(&u)
                    .ok_or_else(|| CoreError::Query(format!("no region hint for node {u}")))?;
                load(region, &mut known, &mut members, &mut pages, fetch)?;
                let hu = known
                    .get(&u)
                    .map(|n| lm_bound(&n.lm_vec, &t_vec))
                    .ok_or_else(|| {
                        CoreError::Query(format!("node {u} missing after region fetch"))
                    })?;
                heap.push(Reverse((gu + hu, gu, u)));
                continue;
            }
            if u == t_node {
                incumbent = incumbent.min(gu);
                continue;
            }
            let rec = &known[&u];
            let arcs: Vec<(u32, u32, u16)> =
                rec.adj.iter().map(|a| (a.to, a.w, a.to_region)).collect();
            for (v, w, v_region) in arcs {
                let nd = gu + Dist::from(w);
                if nd < *g.get(&v).unwrap_or(&Dist::MAX) {
                    g.insert(v, nd);
                    parent.insert(v, u);
                    region_hint.insert(v, v_region);
                    let hv = known
                        .get(&v)
                        .map(|n| lm_bound(&n.lm_vec, &t_vec))
                        .unwrap_or(0);
                    heap.push(Reverse((nd + hv, nd, v)));
                    if v == t_node {
                        incumbent = incumbent.min(nd);
                    }
                }
            }
        }

        if incumbent == Dist::MAX {
            return Ok(SearchOutcome {
                cost: None,
                path: Vec::new(),
                s_node,
                t_node,
                pages,
            });
        }
        let mut path = vec![t_node];
        let mut cur = t_node;
        while let Some(&p) = parent.get(&cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Ok(SearchOutcome {
            cost: Some(incumbent),
            path,
            s_node,
            t_node,
            pages,
        })
    }
}

fn offline_region(fd: &MemFile, region: u16, fmt: &RecordFormat) -> Result<RegionData> {
    let page = fd.read_page(u32::from(region))?;
    decode_region(unseal_page(&page)?, fmt)
}

/// Builds the LM database: packed partition with landmark-extended records,
/// plan derived by running the search over sampled (or all) node pairs.
pub(crate) fn build(
    net: &RoadNetwork,
    cfg: &BuildConfig,
    server: &mut PirServer,
) -> Result<(LmScheme, BuildStats)> {
    use std::time::Instant;
    let mut stage_s = StageBreakdown::default();
    let t0 = Instant::now();
    let lm = Landmarks::build(net, cfg.landmarks.max(1));
    stage_s.precompute_s = t0.elapsed().as_secs_f64();
    let fmt = RecordFormat {
        lm_count: lm.len() as u16,
        with_regions: true,
        flag_bytes: 0,
    };
    let page_size = cfg.spec.page_size;
    let capacity = (page_size - PAGE_CRC_BYTES) - 4;
    let bytes_of = |u: u32| fmt.node_bytes(net.degree(u));
    let t0 = Instant::now();
    let partition = if cfg.packed_partition {
        privpath_partition::partition_packed(net, capacity, &bytes_of)
    } else {
        privpath_partition::partition_plain(net, capacity, &bytes_of)
    };
    stage_s.partition_s = t0.elapsed().as_secs_f64();
    let r = partition.num_regions();
    let t0 = Instant::now();
    let fd = build_fd(net, &partition, &fmt, &LmExtra { lm: &lm }, 1, page_size)?;
    stage_s.files_s = t0.elapsed().as_secs_f64();

    // ---- plan derivation: max pages over (sampled or all) node pairs ----
    // Runs the same CSR-arena search the online query path uses, so the
    // derived budget matches the online fetch counts exactly. Each region
    // page is unsealed and decoded once into the probe cache; the probe
    // loop itself is striped across `cfg.threads` workers with a
    // deterministic max-reduction (see [`crate::schemes::plan_probe`]).
    let t0 = Instant::now();
    let cache: Vec<Arc<RegionData>> = (0..r)
        .map(|reg| offline_region(&fd, reg, &fmt).map(Arc::new))
        .collect::<Result<_>>()?;
    let n = net.num_nodes() as u32;
    let pairs = if cfg.plan_sample == 0 {
        // The paper's exhaustive derivation ("from all possible sources s ∈ V
        // to all possible destinations t ∈ V") — quadratic, small nets only.
        ProbePairs::Exhaustive
    } else {
        ProbePairs::Sampled(sample_pairs(n, cfg.plan_sample, cfg.seed ^ 0x1a2b))
    };
    let mut max_pages = probe_max(
        net,
        &partition.region_of_node,
        &cache,
        ProbeSearch::Lm,
        &pairs,
        cfg.resolved_threads(),
    )?
    .max(2);
    if cfg.plan_sample != 0 {
        // safety margin over the sampled maximum
        max_pages =
            ((f64::from(max_pages) * (1.0 + cfg.plan_margin)).ceil() as u32).min(u32::from(r) + 2);
    }
    drop(cache);
    stage_s.plan_s = t0.elapsed().as_secs_f64();

    let mut rounds = vec![
        RoundSpec::one(PlanFile::Header, 0),
        RoundSpec::one(PlanFile::Data, 2),
    ];
    for _ in 0..max_pages.saturating_sub(2) {
        rounds.push(RoundSpec::one(PlanFile::Data, 1));
    }
    let plan = QueryPlan { rounds };

    let header = Header {
        scheme: crate::engine::SchemeKind::Lm.byte(),
        page_size: page_size as u32,
        num_regions: r,
        cluster_pages: 1,
        record_format: fmt,
        m_regions: 0,
        index_span: 0,
        hy_round4: 0,
        combined_fd_offset: 0,
        fl_pages: 0,
        fi_pages: 0,
        fd_pages: fd.num_pages(),
        tree: partition.tree.clone(),
        region_page: (0..u32::from(r)).collect(),
        plan,
    };
    let t0 = Instant::now();
    let header_mem = header.to_file(page_size);
    let header_file = server.add_file("Fh", header_mem, PirMode::CostOnly)?;
    let fd_pages = fd.num_pages();
    let data_file = server.add_file("Fd", fd, cfg.pir_mode.clone())?;
    stage_s.files_s += t0.elapsed().as_secs_f64();

    let stats = BuildStats {
        regions: u32::from(r),
        borders: 0,
        m: 0,
        index_span: 0,
        fd_utilization: partition.utilization(),
        pages: (0, 0, fd_pages),
        s_histogram: Vec::new(),
        stage_s,
    };
    Ok((
        LmScheme {
            header,
            header_file,
            data_file,
            max_pages,
        },
        stats,
    ))
}

/// Executes one private LM query. `link` is the session's transport to the
/// shared page host; all mutation happens in `ctx` — the interleaved A*
/// runs on the session's CSR arena and scratch buffers, so the search
/// itself allocates nothing in steady state.
///
/// Round batching: the client knows round two's page list — the two host
/// regions — before the search starts, so it is prefetched as one
/// [`privpath_pir::PirSession::run_round`] batch and handed to the search's
/// first two fetch calls. Every later round of the interleaved search is
/// data-dependent and holds one page, issued as a batch of one; the trace is
/// event-for-event identical to per-fetch execution.
pub(crate) fn query(
    scheme: &LmScheme,
    link: &mut dyn Transport,
    ctx: &mut crate::engine::QueryCtx,
    s: Point,
    t: Point,
) -> Result<QueryOutput> {
    use std::time::Instant;
    let crate::engine::QueryCtx {
        pir,
        rng,
        sub,
        scratch,
        ..
    } = ctx;
    pir.reset_query();
    sub.clear();

    pir.begin_round(link)?;
    let raw = pir.download_full(link, scheme.header_file)?;
    let page_size = link.spec().page_size;
    let t0 = Instant::now();
    let payload = crate::files::unseal_download(&raw, page_size)?;
    let header = Header::parse(&payload)?;
    let rs = header.tree.region_of(s);
    let rt = header.tree.region_of(t);
    let client_s = t0.elapsed().as_secs_f64();

    // Round 2: both host regions, one batch (two page fetches even if the
    // regions coincide, per the fixed plan).
    let mut prefetched: std::collections::VecDeque<(u16, Arc<RegionData>)> = {
        let pages = pir.run_round(
            link,
            &[
                (scheme.data_file, header.region_page[rs as usize]),
                (scheme.data_file, header.region_page[rt as usize]),
            ],
        )?;
        let mut q = std::collections::VecDeque::with_capacity(2);
        for (&region, page) in [rs, rt].iter().zip(pages) {
            q.push_back((
                region,
                Arc::new(decode_region(unseal_page(page)?, &header.record_format)?),
            ));
        }
        q
    };
    let out = {
        let mut fetch = |region: u16| -> Result<Arc<RegionData>> {
            if let Some((prefetched_region, data)) = prefetched.pop_front() {
                if prefetched_region != region {
                    return Err(crate::error::CoreError::Query(format!(
                        "search requested region {region} but round two prefetched \
                         {prefetched_region}"
                    )));
                }
                return Ok(data);
            }
            // rounds 3, 4, ...: one data-dependent page each
            let pages = pir.run_round(
                link,
                &[(scheme.data_file, header.region_page[region as usize])],
            )?;
            Ok(Arc::new(decode_region(
                unseal_page(&pages[0])?,
                &header.record_format,
            )?))
        };
        search_lm(sub, scratch, rs, rt, s, t, &mut fetch)?
    };

    // Dummy rounds to reach the plan budget (one page per round).
    let mut pages = out.fetches;
    let plan_violation = pages > scheme.max_pages;
    while pages < scheme.max_pages {
        let dummy = rng.gen_range(0..header.fd_pages.max(1));
        let _ = pir.run_round(link, &[(scheme.data_file, dummy)])?;
        pages += 1;
    }
    pir.add_client_compute(client_s);

    let path_nodes = if out.cost.is_some() {
        scratch.path.clone()
    } else {
        Vec::new()
    };
    Ok(QueryOutput {
        answer: PathAnswer {
            cost: out.cost,
            path_nodes,
            src_node: out.s_node,
            dst_node: out.t_node,
        },
        meter: pir.meter.clone(),
        trace: pir.trace.clone(),
        plan_violation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lm_bound_ignores_infinity_sentinels() {
        assert_eq!(lm_bound(&[10, u32::MAX], &[4, 7]), 6);
        assert_eq!(lm_bound(&[10, 100], &[4, u32::MAX]), 6);
        assert_eq!(lm_bound(&[], &[]), 0);
    }

    #[test]
    fn lm_bound_is_symmetric_difference() {
        assert_eq!(lm_bound(&[5], &[12]), 7);
        assert_eq!(lm_bound(&[12], &[5]), 7);
        assert_eq!(lm_bound(&[3, 50], &[9, 41]), 9);
    }

    /// Satellite differential: the cached + threaded probe driver must
    /// derive exactly the plan the old uncached serial loop derived — for
    /// the exhaustive mode and the sampled mode, across thread counts.
    #[test]
    fn cached_probe_plan_matches_uncached_derivation() {
        use crate::subgraph::{ClientSubgraph, QueryScratch};
        use privpath_graph::gen::{road_like, RoadGenConfig};

        let net = road_like(&RoadGenConfig {
            nodes: 70,
            seed: 13,
            ..Default::default()
        });
        let lm = Landmarks::build(&net, 3);
        let fmt = RecordFormat {
            lm_count: lm.len() as u16,
            with_regions: true,
            flag_bytes: 0,
        };
        let page_size = 512;
        let capacity = (page_size - PAGE_CRC_BYTES) - 4;
        let bytes_of = |u: u32| fmt.node_bytes(net.degree(u));
        let partition = privpath_partition::partition_packed(&net, capacity, &bytes_of);
        let r = partition.num_regions();
        assert!(r >= 3, "need a multi-region net for a meaningful plan");
        let fd = build_fd(&net, &partition, &fmt, &LmExtra { lm: &lm }, 1, page_size).unwrap();
        let cache: Vec<Arc<RegionData>> = (0..r)
            .map(|reg| offline_region(&fd, reg, &fmt).map(Arc::new))
            .collect::<Result<_>>()
            .unwrap();

        // The uncached serial reference: decode through `offline_region` on
        // every fetch, exactly like the pre-cache derivation loop.
        let n = net.num_nodes() as u32;
        let uncached_max = |probe_pairs: &[(u32, u32)]| -> u32 {
            let mut max_pages = 0u32;
            let mut sub = ClientSubgraph::new();
            let mut scratch = QueryScratch::new();
            for &(s, t) in probe_pairs {
                let rs = partition.region_of_node[s as usize];
                let rt = partition.region_of_node[t as usize];
                let mut fetch = |region: u16| offline_region(&fd, region, &fmt).map(Arc::new);
                sub.clear();
                let out = search_lm(
                    &mut sub,
                    &mut scratch,
                    rs,
                    rt,
                    net.node_point(s),
                    net.node_point(t),
                    &mut fetch,
                )
                .unwrap();
                max_pages = max_pages.max(out.fetches);
            }
            max_pages
        };

        // exhaustive mode
        let all_pairs: Vec<(u32, u32)> = (0..n)
            .flat_map(|s| (0..n).filter(move |&t| t != s).map(move |t| (s, t)))
            .collect();
        let want = uncached_max(&all_pairs);
        for threads in [1usize, 3] {
            let got = probe_max(
                &net,
                &partition.region_of_node,
                &cache,
                ProbeSearch::Lm,
                &ProbePairs::Exhaustive,
                threads,
            )
            .unwrap();
            assert_eq!(got, want, "exhaustive plan diverged at {threads} threads");
        }

        // sampled mode (the pre-drawn pair list is the shared input)
        let sampled = sample_pairs(n, 96, 0x5eed ^ 0x1a2b);
        let want = uncached_max(&sampled);
        for threads in [1usize, 4] {
            let got = probe_max(
                &net,
                &partition.region_of_node,
                &cache,
                ProbeSearch::Lm,
                &ProbePairs::Sampled(sampled.clone()),
                threads,
            )
            .unwrap();
            assert_eq!(got, want, "sampled plan diverged at {threads} threads");
        }
    }

    #[test]
    fn landmark_vectors_saturate() {
        use privpath_graph::gen::{grid_network, GridGenConfig};
        let net = grid_network(&GridGenConfig {
            nx: 4,
            ny: 4,
            ..Default::default()
        });
        let lm = Landmarks::build(&net, 2);
        let extra = LmExtra { lm: &lm };
        for u in 0..net.num_nodes() as u32 {
            let v = extra.lm_vec(u);
            assert_eq!(v.len(), 2);
            assert!(v.iter().all(|&x| x != u32::MAX), "grid is connected");
        }
    }
}
