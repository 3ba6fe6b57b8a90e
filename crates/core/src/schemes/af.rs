//! The AF baseline (§4): arc-flag-pruned Dijkstra with on-demand region
//! fetching.
//!
//! "Arc-flag requires partitioning the road network into regions. ...
//! processing a shortest path query only considers edges whose bit for the
//! destination region is 1. ... we allocate for each region a fixed number
//! of pages, to be retrieved together during query processing."

use crate::config::BuildConfig;
use crate::engine::{PathAnswer, QueryOutput};
use crate::files::fd::{build_fd, decode_region, NodeExtra, RecordFormat, RegionData};
use crate::files::fh::Header;
use crate::files::{unseal_page, PAGE_CRC_BYTES};
use crate::plan::{PlanFile, QueryPlan, RoundSpec};
use crate::schemes::index_scheme::{BuildStats, StageBreakdown};
use crate::schemes::plan_probe::{probe_max, sample_pairs, ProbePairs, ProbeSearch};
use crate::subgraph::search_af;
use crate::Result;
use privpath_graph::arcflag::ArcFlags;
use privpath_graph::network::RoadNetwork;
use privpath_graph::types::{NodeId, Point};
use privpath_partition::partition_into;
use privpath_pir::{FileId, PirMode, PirServer, Transport};
use privpath_storage::{MemFile, PagedFile};
use rand::Rng;
use std::sync::Arc;

pub use crate::subgraph::flag_set;

/// Built AF database handles.
pub(crate) struct AfScheme {
    /// The public header.
    pub(crate) header: Header,
    /// Header file id.
    pub(crate) header_file: FileId,
    /// Region data file id.
    pub(crate) data_file: FileId,
    /// Regions any query fetches (plan budget, each `pages_per_region` pages).
    pub(crate) max_regions: u32,
    /// Pages per region.
    pub(crate) pages_per_region: u32,
}

struct AfExtra<'a> {
    flags: &'a ArcFlags,
}

impl NodeExtra for AfExtra<'_> {
    fn edge_flags(&self, edge: u32) -> Vec<u8> {
        let bits = self.flags.edge_flags(edge);
        let n = self.flags.flag_bytes();
        let mut out = vec![0u8; n];
        for r in 0..self.flags.num_regions() {
            if bits.get(r) {
                out[r / 8] |= 1 << (r % 8);
            }
        }
        out
    }
}

/// The original `HashMap`-based client search, retained verbatim as the
/// behavioural reference for the CSR-arena [`crate::subgraph::search_af`]
/// that replaced it on the query path. The differential property suite
/// (`tests/leakage.rs`) asserts both return identical answers, snapped
/// nodes, paths and fetch counts on identical inputs.
pub mod reference {
    use super::*;
    use crate::error::CoreError;
    use crate::files::fd::NodeData;
    use privpath_graph::types::Dist;
    use std::collections::HashMap;

    /// What the reference search produced. `regions_fetched` counts region
    /// fetches including the two initial host regions.
    pub struct SearchOutcome {
        /// Path cost, or `None` if the destination is unreachable.
        pub cost: Option<Dist>,
        /// Node sequence of the found path (empty when unreachable).
        pub path: Vec<NodeId>,
        /// Node the source point snapped to.
        pub s_node: NodeId,
        /// Node the destination point snapped to.
        pub t_node: NodeId,
        /// Region fetches issued.
        pub regions_fetched: u32,
    }

    /// Flag-pruned Dijkstra with on-demand region loading. `fetch(region)`
    /// retrieves all of a region's pages (one protocol round).
    pub fn af_search(
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
        let mut regions_fetched = 0u32;
        let load = |region: u16,
                    known: &mut HashMap<NodeId, NodeData>,
                    members: &mut HashMap<u16, Vec<NodeId>>,
                    count: &mut u32,
                    fetch: &mut dyn FnMut(u16) -> Result<RegionData>|
         -> Result<()> {
            let data = fetch(region)?;
            *count += 1;
            if !members.contains_key(&region) {
                let list = members.entry(region).or_default();
                for n in data.nodes {
                    list.push(n.id);
                    known.insert(n.id, n);
                }
            }
            Ok(())
        };

        load(rs, &mut known, &mut members, &mut regions_fetched, fetch)?;
        load(rt, &mut known, &mut members, &mut regions_fetched, fetch)?;

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
        if s_node == t_node {
            return Ok(SearchOutcome {
                cost: Some(0),
                path: vec![s_node],
                s_node,
                t_node,
                regions_fetched,
            });
        }

        let goal = rt as usize;
        let mut g: HashMap<NodeId, Dist> = HashMap::new();
        let mut parent: HashMap<NodeId, NodeId> = HashMap::new();
        let mut region_hint: HashMap<NodeId, u16> = HashMap::new();
        let mut heap: BinaryHeap<Reverse<(Dist, NodeId)>> = BinaryHeap::new();
        g.insert(s_node, 0);
        heap.push(Reverse((0, s_node)));
        let mut found = None;

        while let Some(Reverse((gu, u))) = heap.pop() {
            if gu > *g.get(&u).unwrap_or(&Dist::MAX) {
                continue;
            }
            if !known.contains_key(&u) {
                let region = *region_hint
                    .get(&u)
                    .ok_or_else(|| CoreError::Query(format!("no region hint for node {u}")))?;
                load(
                    region,
                    &mut known,
                    &mut members,
                    &mut regions_fetched,
                    fetch,
                )?;
                heap.push(Reverse((gu, u)));
                continue;
            }
            if u == t_node {
                found = Some(gu);
                break; // Dijkstra (no heuristic): first settle is optimal
            }
            let arcs: Vec<(u32, u32, u16, bool)> = known[&u]
                .adj
                .iter()
                .map(|a| (a.to, a.w, a.to_region, flag_set(&a.flags, goal)))
                .collect();
            for (v, w, v_region, ok) in arcs {
                if !ok {
                    continue; // pruned: no shortest path into the target region
                }
                let nd = gu + Dist::from(w);
                if nd < *g.get(&v).unwrap_or(&Dist::MAX) {
                    g.insert(v, nd);
                    parent.insert(v, u);
                    region_hint.insert(v, v_region);
                    heap.push(Reverse((nd, v)));
                }
            }
        }

        let cost = match found {
            Some(c) => c,
            None => {
                return Ok(SearchOutcome {
                    cost: None,
                    path: Vec::new(),
                    s_node,
                    t_node,
                    regions_fetched,
                })
            }
        };
        let mut path = vec![t_node];
        let mut cur = t_node;
        while let Some(&p) = parent.get(&cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Ok(SearchOutcome {
            cost: Some(cost),
            path,
            s_node,
            t_node,
            regions_fetched,
        })
    }
}

fn offline_region(fd: &MemFile, region: u16, ppr: u32, fmt: &RecordFormat) -> Result<RegionData> {
    let mut bytes = Vec::new();
    for c in 0..ppr {
        let page = fd.read_page(u32::from(region) * ppr + c)?;
        bytes.extend_from_slice(unseal_page(&page)?);
    }
    decode_region(&bytes, fmt)
}

/// Builds the AF database.
pub(crate) fn build(
    net: &RoadNetwork,
    cfg: &BuildConfig,
    server: &mut PirServer,
) -> Result<(AfScheme, BuildStats)> {
    use std::time::Instant;
    let mut stage_s = StageBreakdown::default();
    let regions = cfg.af_regions.max(2).min(net.num_nodes());
    let flag_bytes = regions.div_ceil(8) as u16;
    let fmt = RecordFormat {
        lm_count: 0,
        with_regions: true,
        flag_bytes,
    };
    let bytes_of = |u: u32| fmt.node_bytes(net.degree(u));
    let t0 = Instant::now();
    let partition = partition_into(net, regions, &bytes_of);
    stage_s.partition_s = t0.elapsed().as_secs_f64();
    let r = partition.num_regions();
    let t0 = Instant::now();
    let flags = ArcFlags::compute(net, &partition.region_of_node, r as usize);
    stage_s.precompute_s = t0.elapsed().as_secs_f64();

    let page_size = cfg.spec.page_size;
    let payload = page_size - PAGE_CRC_BYTES;
    // fixed pages per region: enough for the largest region
    let ppr = partition
        .region_bytes
        .iter()
        .map(|&b| (b + 4).div_ceil(payload))
        .max()
        .unwrap_or(1)
        .max(1) as u32;
    let t0 = Instant::now();
    let fd = build_fd(
        net,
        &partition,
        &fmt,
        &AfExtra { flags: &flags },
        ppr as u16,
        page_size,
    )?;
    stage_s.files_s = t0.elapsed().as_secs_f64();

    // Plan derivation — the same CSR-arena search the online query path
    // uses, over a decode-once region cache, striped across workers with a
    // deterministic max-reduction (see [`crate::schemes::plan_probe`]).
    let t0 = Instant::now();
    let cache: Vec<Arc<RegionData>> = (0..r)
        .map(|reg| offline_region(&fd, reg, ppr, &fmt).map(Arc::new))
        .collect::<Result<_>>()?;
    let n = net.num_nodes() as u32;
    let pairs = if cfg.plan_sample == 0 {
        ProbePairs::Exhaustive
    } else {
        ProbePairs::Sampled(sample_pairs(n, cfg.plan_sample, cfg.seed ^ 0x33aa))
    };
    let mut max_regions = probe_max(
        net,
        &partition.region_of_node,
        &cache,
        ProbeSearch::Af,
        &pairs,
        cfg.resolved_threads(),
    )?
    .max(2);
    if cfg.plan_sample != 0 {
        max_regions = ((f64::from(max_regions) * (1.0 + cfg.plan_margin)).ceil() as u32)
            .min(u32::from(r) + 2);
    }
    drop(cache);
    stage_s.plan_s = t0.elapsed().as_secs_f64();

    let mut rounds = vec![
        RoundSpec::one(PlanFile::Header, 0),
        RoundSpec::one(PlanFile::Data, 2 * ppr),
    ];
    for _ in 0..max_regions.saturating_sub(2) {
        rounds.push(RoundSpec::one(PlanFile::Data, ppr));
    }
    let plan = QueryPlan { rounds };

    let header = Header {
        scheme: crate::engine::SchemeKind::Af.byte(),
        page_size: page_size as u32,
        num_regions: r,
        cluster_pages: ppr as u16,
        record_format: fmt,
        m_regions: 0,
        index_span: 0,
        hy_round4: 0,
        combined_fd_offset: 0,
        fl_pages: 0,
        fi_pages: 0,
        fd_pages: fd.num_pages(),
        tree: partition.tree.clone(),
        region_page: (0..u32::from(r)).map(|x| x * ppr).collect(),
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
        fd_utilization: partition.region_bytes.iter().sum::<usize>() as f64
            / (fd_pages as f64 * payload as f64),
        pages: (0, 0, fd_pages),
        s_histogram: Vec::new(),
        stage_s,
    };
    Ok((
        AfScheme {
            header,
            header_file,
            data_file,
            max_regions,
            pages_per_region: ppr,
        },
        stats,
    ))
}

/// Executes one private AF query. `link` is the session's transport to the
/// shared page host; all mutation happens in `ctx` — the flag-pruned
/// Dijkstra runs on the session's CSR arena and scratch buffers, so the
/// search itself allocates nothing in steady state.
///
/// Round batching: round two's page list — all `pages_per_region` pages of
/// both host regions — is known before the search starts and is issued as
/// one [`privpath_pir::PirSession::run_round`] batch; every later round
/// fetches one region's page group as a batch, and dummy rounds batch their
/// `pages_per_region` random pages. The trace is event-for-event identical
/// to per-fetch execution.
pub(crate) fn query(
    scheme: &AfScheme,
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
        reqs,
        region_bytes,
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

    let ppr = scheme.pages_per_region;
    // Round 2: both host region page groups, one batch.
    let mut prefetched: std::collections::VecDeque<(u16, Arc<RegionData>)> = {
        reqs.clear();
        for &reg in &[rs, rt] {
            let base = header.region_page[reg as usize];
            reqs.extend((0..ppr).map(|c| (scheme.data_file, base + c)));
        }
        let pages = pir.run_round(link, reqs)?;
        let mut q = std::collections::VecDeque::with_capacity(2);
        for (&region, group) in [rs, rt].iter().zip(pages.chunks(ppr as usize)) {
            region_bytes.clear();
            for page in group {
                region_bytes.extend_from_slice(unseal_page(page)?);
            }
            q.push_back((
                region,
                Arc::new(decode_region(region_bytes, &header.record_format)?),
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
            // rounds 3, 4, ...: one region's page group per round
            let base = header.region_page[region as usize];
            reqs.clear();
            reqs.extend((0..ppr).map(|c| (scheme.data_file, base + c)));
            let pages = pir.run_round(link, reqs)?;
            region_bytes.clear();
            for page in pages {
                region_bytes.extend_from_slice(unseal_page(page)?);
            }
            Ok(Arc::new(decode_region(
                region_bytes,
                &header.record_format,
            )?))
        };
        search_af(sub, scratch, rs, rt, s, t, &mut fetch)?
    };

    let mut regions = out.fetches;
    let plan_violation = regions > scheme.max_regions;
    while regions < scheme.max_regions {
        reqs.clear();
        for _ in 0..ppr {
            let dummy = rng.gen_range(0..header.fd_pages.max(1));
            reqs.push((scheme.data_file, dummy));
        }
        let _ = pir.run_round(link, reqs)?;
        regions += 1;
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
    fn flag_bits_round_trip() {
        let flags = vec![0b0000_0101u8, 0b1000_0000];
        assert!(flag_set(&flags, 0));
        assert!(!flag_set(&flags, 1));
        assert!(flag_set(&flags, 2));
        assert!(flag_set(&flags, 15));
        assert!(!flag_set(&flags, 14));
        assert!(!flag_set(&flags, 16)); // out of range -> false
    }

    /// Satellite differential: the cached + threaded AF probe driver must
    /// derive exactly the plan the old uncached serial loop derived.
    #[test]
    fn cached_probe_plan_matches_uncached_derivation() {
        use crate::subgraph::{ClientSubgraph, QueryScratch};
        use privpath_graph::gen::{road_like, RoadGenConfig};

        let net = road_like(&RoadGenConfig {
            nodes: 70,
            seed: 29,
            ..Default::default()
        });
        let regions = 6usize;
        let fmt = RecordFormat {
            lm_count: 0,
            with_regions: true,
            flag_bytes: regions.div_ceil(8) as u16,
        };
        let bytes_of = |u: u32| fmt.node_bytes(net.degree(u));
        let partition = partition_into(&net, regions, &bytes_of);
        let r = partition.num_regions();
        let flags = ArcFlags::compute(&net, &partition.region_of_node, r as usize);
        let page_size = 512;
        let payload = page_size - PAGE_CRC_BYTES;
        let ppr = partition
            .region_bytes
            .iter()
            .map(|&b| (b + 4).div_ceil(payload))
            .max()
            .unwrap()
            .max(1) as u32;
        let fd = build_fd(
            &net,
            &partition,
            &fmt,
            &AfExtra { flags: &flags },
            ppr as u16,
            page_size,
        )
        .unwrap();
        let cache: Vec<Arc<RegionData>> = (0..r)
            .map(|reg| offline_region(&fd, reg, ppr, &fmt).map(Arc::new))
            .collect::<Result<_>>()
            .unwrap();

        let n = net.num_nodes() as u32;
        let uncached_max = |probe_pairs: &[(u32, u32)]| -> u32 {
            let mut max_regions = 0u32;
            let mut sub = ClientSubgraph::new();
            let mut scratch = QueryScratch::new();
            for &(s, t) in probe_pairs {
                let rsr = partition.region_of_node[s as usize];
                let rtr = partition.region_of_node[t as usize];
                let mut fetch = |region: u16| offline_region(&fd, region, ppr, &fmt).map(Arc::new);
                sub.clear();
                let out = search_af(
                    &mut sub,
                    &mut scratch,
                    rsr,
                    rtr,
                    net.node_point(s),
                    net.node_point(t),
                    &mut fetch,
                )
                .unwrap();
                max_regions = max_regions.max(out.fetches);
            }
            max_regions
        };

        let all_pairs: Vec<(u32, u32)> = (0..n)
            .flat_map(|s| (0..n).filter(move |&t| t != s).map(move |t| (s, t)))
            .collect();
        let want = uncached_max(&all_pairs);
        for threads in [1usize, 3] {
            let got = probe_max(
                &net,
                &partition.region_of_node,
                &cache,
                ProbeSearch::Af,
                &ProbePairs::Exhaustive,
                threads,
            )
            .unwrap();
            assert_eq!(got, want, "exhaustive plan diverged at {threads} threads");
        }

        let sampled = sample_pairs(n, 96, 0x5eed ^ 0x33aa);
        let want = uncached_max(&sampled);
        for threads in [1usize, 4] {
            let got = probe_max(
                &net,
                &partition.region_of_node,
                &cache,
                ProbeSearch::Af,
                &ProbePairs::Sampled(sampled.clone()),
                threads,
            )
            .unwrap();
            assert_eq!(got, want, "sampled plan diverged at {threads} threads");
        }
    }

    #[test]
    fn af_extra_encodes_arcflags() {
        use privpath_graph::gen::{grid_network, GridGenConfig};
        let net = grid_network(&GridGenConfig {
            nx: 5,
            ny: 5,
            ..Default::default()
        });
        let regions: Vec<u16> = (0..net.num_nodes()).map(|u| (u % 4) as u16).collect();
        let flags = ArcFlags::compute(&net, &regions, 4);
        let extra = AfExtra { flags: &flags };
        for e in (0..net.num_arcs() as u32).step_by(7) {
            let bytes = extra.edge_flags(e);
            for r in 0..4usize {
                assert_eq!(flag_set(&bytes, r), flags.get(e, r), "edge {e} region {r}");
            }
        }
    }
}
