//! The region-fetch baselines of §4 — LM (landmark vectors + A*) and AF
//! (arc flags + flag-pruned Dijkstra) — as two flavours of one protocol.
//!
//! LM: "In the first round of processing, the querying client requests for
//! and receives a header file ... In round two, she fetches from Fd the
//! pages that hold the data of these two regions ... When the search
//! encounters a node that belongs to another region, a new round of
//! processing is initiated and the corresponding Fd page is fetched via the
//! PIR interface, and so on, until the destination t is reached. ... upon
//! reaching t, the client may need to make dummy requests until the
//! necessary number of page retrievals is reached."
//!
//! AF: "Arc-flag requires partitioning the road network into regions. ...
//! processing a shortest path query only considers edges whose bit for the
//! destination region is 1. ... we allocate for each region a fixed number
//! of pages, to be retrieved together during query processing."
//!
//! Both run the same fixed plan over a header `Fh` and a region file `Fd`
//! holding `ppr` pages per region:
//!
//! 1. download the header and locate the source and target regions;
//! 2. fetch both host regions' page groups (`2·ppr` pages, even if the
//!    regions coincide);
//! 3. one round per region the interleaved search reaches, `ppr` pages
//!    each;
//! 4. dummy rounds of `ppr` random pages until the budget of regions —
//!    the maximum any probed query needs — is reached.
//!
//! A [`BaselineFlavor`] fixes only what differs: the record extra (landmark
//! vectors or per-arc flag bytes), the partitioner, the one line in which
//! the interleaved search ([`search_regions`]) treats them apart, and the
//! plan-sample seed. LM is AF at one page per region: its partitioner caps
//! every region at one page's payload less the 4-byte region stream
//! header, so the shared pages-per-region rule gives `ppr = 1` and every
//! round above draws its pages exactly as a one-page protocol would.
//!
//! **The plan probe.** Both flavours fix the budget of step 4 by
//! *probing*: run the interleaved search over many (or all) node pairs and
//! take the maximum number of region fetches observed ("from all possible
//! sources s ∈ V to all possible destinations t ∈ V", §4). The probes
//! dominate baseline build time at scale — exhaustive derivation is
//! `O(n²)` searches — so [`probe_max`] removes the two per-probe overheads
//! the naive loop pays:
//!
//! * **Unsealed-region cache.** Every probe fetch used to re-read and
//!   unseal (CRC) the region page(s) through `offline_region`. The probe
//!   receives each region's payload unsealed exactly once; a probe fetch
//!   folds those bytes into the probe's arena, as a query folds the bytes
//!   of the pages it fetched.
//! * **Threaded max-reduction.** Probes are independent and the plan is a
//!   pure maximum, so the pair space is striped across workers (each with
//!   its own arena + scratch) and reduced with `max` — an
//!   order-independent fold, making the derived budget identical for every
//!   thread count, including the serial reference. Sampled probe sets are
//!   drawn *before* striping, so the RNG sequence (and hence the probe
//!   set) never depends on the worker count either.

use crate::config::BuildConfig;
use crate::engine::{QueryCtx, QueryOutput, SchemeKind};
use crate::error::CoreError;
use crate::files::fd::{build_fd, NodeExtra, RecordFormat};
use crate::files::fh::Header;
use crate::files::{unseal_download, unseal_page, PAGE_CRC_BYTES};
use crate::plan::{PlanFile, QueryPlan, RoundSpec};
use crate::schemes::index_scheme::{BuildStats, StageBreakdown};
use crate::subgraph::{search_regions, ClientSubgraph, QueryScratch};
use crate::Result;
use privpath_graph::arcflag::ArcFlags;
use privpath_graph::landmark::Landmarks;
use privpath_graph::network::RoadNetwork;
use privpath_graph::types::{NodeId, Point};
use privpath_partition::{partition_into, partition_packed, partition_plain, Partition, RegionId};
use privpath_pir::{FileId, PirMode, PirServer, Transport};
use privpath_storage::{MemFile, PagedFile};
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Which baseline a [`BaselineScheme`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BaselineFlavor {
    /// Landmark vectors + A* under their lower bounds, one page per region.
    Lm,
    /// Arc flags + flag-pruned Dijkstra (A* under a zero bound), a fixed
    /// page group per region.
    Af,
}

/// Built LM or AF database handles.
pub(crate) struct BaselineScheme {
    /// Which baseline.
    pub(crate) flavor: BaselineFlavor,
    /// The public header.
    pub(crate) header: Header,
    /// Header file id.
    pub(crate) header_file: FileId,
    /// Region data file id.
    pub(crate) data_file: FileId,
    /// Regions any query fetches (the fixed plan budget), each
    /// `pages_per_region` pages.
    pub(crate) max_regions: u32,
    /// Pages per region (1 for LM).
    pub(crate) pages_per_region: u32,
}

impl NodeExtra for Landmarks {
    fn lm_vec(&self, node: u32) -> Vec<u32> {
        self.to_anchor[node as usize]
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

impl NodeExtra for ArcFlags {
    fn edge_flags(&self, edge: u32) -> Vec<u8> {
        let bits = ArcFlags::edge_flags(self, edge);
        let mut out = vec![0u8; self.flag_bytes()];
        for r in 0..self.num_regions() {
            if bits.get(r) {
                out[r / 8] |= 1 << (r % 8);
            }
        }
        out
    }
}

impl BaselineFlavor {
    /// The flag bit a region is folded in under for a query whose target
    /// lies in region `rt`: AF keeps only the arcs flagged for it.
    pub(crate) fn goal(self, rt: u16) -> Option<usize> {
        match self {
            BaselineFlavor::Lm => None,
            BaselineFlavor::Af => Some(rt as usize),
        }
    }

    /// Mixed into the build seed to draw the sampled probe pairs.
    fn sample_salt(self) -> u64 {
        match self {
            BaselineFlavor::Lm => 0x1a2b,
            BaselineFlavor::Af => 0x33aa,
        }
    }

    /// Partitions `net`, computes the flavour's record extra and lays out
    /// `Fd` with a fixed page group per region — enough for the largest.
    /// Returns the record format, the partition, the pages per region and
    /// `Fd`.
    fn region_file(
        self,
        net: &RoadNetwork,
        cfg: &BuildConfig,
        stage_s: &mut StageBreakdown,
    ) -> Result<(RecordFormat, Partition, u32, MemFile)> {
        let page_size = cfg.spec.page_size;
        let payload = page_size - PAGE_CRC_BYTES;
        let (fmt, partition, extra): (_, _, Box<dyn NodeExtra>) = match self {
            BaselineFlavor::Lm => {
                let t0 = Instant::now();
                let lm = Landmarks::build(net, cfg.landmarks.max(1));
                stage_s.precompute_s = t0.elapsed().as_secs_f64();
                let fmt = RecordFormat {
                    lm_count: lm.len() as u16,
                    with_regions: true,
                    flag_bytes: 0,
                };
                let bytes_of = |u: u32| fmt.node_bytes(net.degree(u));
                let t0 = Instant::now();
                // one page per region: its payload less the stream header
                let partition = if cfg.packed_partition {
                    partition_packed(net, payload - 4, &bytes_of)
                } else {
                    partition_plain(net, payload - 4, &bytes_of)
                };
                stage_s.partition_s = t0.elapsed().as_secs_f64();
                (fmt, partition, Box::new(lm))
            }
            BaselineFlavor::Af => {
                let regions = cfg.af_regions.max(2).min(net.num_nodes());
                let fmt = RecordFormat {
                    lm_count: 0,
                    with_regions: true,
                    flag_bytes: regions.div_ceil(8) as u16,
                };
                let bytes_of = |u: u32| fmt.node_bytes(net.degree(u));
                let t0 = Instant::now();
                let partition = partition_into(net, regions, &bytes_of);
                stage_s.partition_s = t0.elapsed().as_secs_f64();
                let t0 = Instant::now();
                let r = partition.num_regions() as usize;
                let flags = ArcFlags::compute(net, &partition.region_of_node, r);
                stage_s.precompute_s = t0.elapsed().as_secs_f64();
                (fmt, partition, Box::new(flags))
            }
        };
        let ppr = partition
            .region_bytes
            .iter()
            .map(|&b| (b + 4).div_ceil(payload))
            .max()
            .unwrap_or(1)
            .max(1) as u32;
        let t0 = Instant::now();
        let fd = build_fd(net, &partition, &fmt, &*extra, ppr as u16, page_size)?;
        stage_s.files_s = t0.elapsed().as_secs_f64();
        Ok((fmt, partition, ppr, fd))
    }
}

/// Reads and unseals region `region`'s page group from the built `Fd`:
/// its payloads, concatenated.
fn offline_region(fd: &MemFile, region: u16, ppr: u32) -> Result<Vec<u8>> {
    let base = u32::from(region) * ppr;
    let mut payload = Vec::new();
    for p in base..base + ppr {
        payload.extend_from_slice(unseal_page(&fd.read_page(p)?)?);
    }
    Ok(payload)
}

/// The probe set.
enum ProbePairs {
    /// All ordered pairs `s != t` — the paper's exhaustive derivation.
    Exhaustive,
    /// A pre-drawn sample (see [`sample_pairs`]).
    Sampled(Vec<(NodeId, NodeId)>),
}

/// Draws the sampled probe set: `count` attempts, pairs with `s == t`
/// skipped — the exact draw sequence of the serial loops this replaced, so
/// sampled plans are unchanged.
fn sample_pairs(n: u32, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut pairs = Vec::with_capacity(count);
    for _ in 0..count {
        let s = rng.gen_range(0..n);
        let t = rng.gen_range(0..n);
        if s != t {
            pairs.push((s, t));
        }
    }
    pairs
}

/// Source values handed out per claim in exhaustive mode (amortizes the
/// atomic increment over `stride · n` probes).
const EXHAUSTIVE_STRIDE: usize = 4;
/// Pair indices handed out per claim in sampled mode.
const SAMPLED_STRIDE: usize = 32;

/// Runs every probe in `pairs` and returns the maximum region-fetch count
/// observed (`0` when there are no probes). `payloads[r]` must hold region
/// `r`'s unsealed payload in `fmt`'s layout; `threads` ≤ 1 runs inline.
fn probe_max(
    net: &RoadNetwork,
    region_of: &[RegionId],
    payloads: &[Vec<u8>],
    fmt: &RecordFormat,
    flavor: BaselineFlavor,
    pairs: &ProbePairs,
    threads: usize,
) -> Result<u32> {
    let n = net.num_nodes() as u32;
    let claims = match pairs {
        ProbePairs::Exhaustive => (n as usize).div_ceil(EXHAUSTIVE_STRIDE),
        ProbePairs::Sampled(v) => v.len().div_ceil(SAMPLED_STRIDE),
    };
    let threads = threads.max(1).min(claims.max(1));

    let run_stripe = |claim: usize,
                      sub: &mut ClientSubgraph,
                      scratch: &mut QueryScratch,
                      best: &mut u32|
     -> Result<()> {
        let mut probe = |s: NodeId, t: NodeId| -> Result<()> {
            let rs = region_of[s as usize];
            let rt = region_of[t as usize];
            let goal = flavor.goal(rt);
            let mut fetch = |region: u16, sub: &mut ClientSubgraph| {
                sub.add_region(&payloads[region as usize], fmt, goal)
            };
            sub.clear();
            let ends = (net.node_point(s), net.node_point(t));
            let out = search_regions(flavor, sub, scratch, (rs, rt), ends, &mut fetch)?;
            *best = (*best).max(out.fetches);
            Ok(())
        };
        match pairs {
            ProbePairs::Exhaustive => {
                let lo = claim * EXHAUSTIVE_STRIDE;
                let hi = (lo + EXHAUSTIVE_STRIDE).min(n as usize);
                for s in lo as u32..hi as u32 {
                    for t in 0..n {
                        if s != t {
                            probe(s, t)?;
                        }
                    }
                }
            }
            ProbePairs::Sampled(v) => {
                let lo = claim * SAMPLED_STRIDE;
                let hi = (lo + SAMPLED_STRIDE).min(v.len());
                for &(s, t) in &v[lo..hi] {
                    probe(s, t)?;
                }
            }
        }
        Ok(())
    };

    let next = AtomicUsize::new(0);
    let worker = || -> Result<u32> {
        let mut sub = ClientSubgraph::new();
        let mut scratch = QueryScratch::new();
        let mut best = 0u32;
        loop {
            let claim = next.fetch_add(1, Ordering::Relaxed);
            if claim >= claims {
                return Ok(best);
            }
            run_stripe(claim, &mut sub, &mut scratch, &mut best)?;
        }
    };
    if threads == 1 {
        return worker();
    }
    let locals: Vec<Result<u32>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe worker panicked"))
            .collect()
    });
    // Deterministic max-reduction: `max` over the same probe set, however
    // it was striped.
    let mut best = 0u32;
    for local in locals {
        best = best.max(local?);
    }
    Ok(best)
}

/// Builds an LM or AF database (`kind` is one of the two): the flavour's
/// partition and records, then the plan derived by running the search over
/// sampled (or all) node pairs.
pub(crate) fn build(
    net: &RoadNetwork,
    kind: SchemeKind,
    cfg: &BuildConfig,
    server: &mut PirServer,
) -> Result<(BaselineScheme, BuildStats)> {
    let flavor = match kind {
        SchemeKind::Lm => BaselineFlavor::Lm,
        _ => BaselineFlavor::Af,
    };
    let mut stage_s = StageBreakdown::default();
    let (fmt, partition, ppr, fd) = flavor.region_file(net, cfg, &mut stage_s)?;
    let r = partition.num_regions();

    // ---- plan derivation: max regions over (sampled or all) node pairs ----
    // Runs the same arena search the online query path uses, so the
    // derived budget matches the online fetch counts exactly. Each region
    // is unsealed once into the probe cache; the probe loop itself is
    // striped across `cfg.threads` workers with a deterministic
    // max-reduction (see the module doc).
    let t0 = Instant::now();
    let cache: Vec<Vec<u8>> = (0..r)
        .map(|reg| offline_region(&fd, reg, ppr))
        .collect::<Result<_>>()?;
    let n = net.num_nodes() as u32;
    let pairs = if cfg.plan_sample == 0 {
        // The paper's exhaustive derivation ("from all possible sources s ∈ V
        // to all possible destinations t ∈ V") — quadratic, small nets only.
        ProbePairs::Exhaustive
    } else {
        let seed = cfg.seed ^ flavor.sample_salt();
        ProbePairs::Sampled(sample_pairs(n, cfg.plan_sample, seed))
    };
    let region_of = &partition.region_of_node;
    let threads = cfg.resolved_threads();
    let mut max_regions = probe_max(net, region_of, &cache, &fmt, flavor, &pairs, threads)?.max(2);
    if cfg.plan_sample != 0 {
        // safety margin over the sampled maximum
        max_regions = ((f64::from(max_regions) * (1.0 + cfg.plan_margin)).ceil() as u32)
            .min(u32::from(r) + 2);
    }
    drop(cache);
    stage_s.plan_s = t0.elapsed().as_secs_f64();

    let mut rounds = vec![
        RoundSpec::one(PlanFile::Header, 0),
        RoundSpec::one(PlanFile::Data, 2 * ppr),
    ];
    rounds.extend((2..max_regions).map(|_| RoundSpec::one(PlanFile::Data, ppr)));
    let page_size = cfg.spec.page_size;
    let fd_pages = fd.num_pages();
    let header = Header {
        scheme: kind.byte(),
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
        fd_pages,
        tree: partition.tree.clone(),
        region_page: (0..u32::from(r)).map(|x| x * ppr).collect(),
        plan: QueryPlan { rounds },
    };
    let t0 = Instant::now();
    let header_file = server.add_file("Fh", header.to_file(page_size), PirMode::CostOnly)?;
    let data_file = server.add_file("Fd", fd, cfg.pir_mode.clone())?;
    stage_s.files_s += t0.elapsed().as_secs_f64();

    let fd_utilization = match flavor {
        // the mean fill of the partitioner's one-page capacity
        BaselineFlavor::Lm => partition.utilization(),
        BaselineFlavor::Af => {
            let payload = page_size - PAGE_CRC_BYTES;
            partition.region_bytes.iter().sum::<usize>() as f64 / (fd_pages as f64 * payload as f64)
        }
    };
    let stats = BuildStats {
        regions: u32::from(r),
        borders: 0,
        m: 0,
        index_span: 0,
        fd_utilization,
        pages: (0, 0, fd_pages),
        s_histogram: Vec::new(),
        stage_s,
    };
    let scheme = BaselineScheme {
        flavor,
        header,
        header_file,
        data_file,
        max_regions,
        pages_per_region: ppr,
    };
    Ok((scheme, stats))
}

/// Executes one private LM or AF query. `link` is the session's transport
/// to the shared page host; all mutation happens in `ctx` — the
/// interleaved search runs on the session's arena and scratch buffers, and
/// each fetched region's bytes are folded straight into the arena, so a
/// warm query allocates nothing per region.
///
/// Round batching: round two's page list — both host regions' page groups
/// — is known before the search starts, so it is issued as one
/// [`privpath_pir::PirSession::run_round`] batch and both groups are folded
/// in from it; the search's first two fetch calls find them there. Every
/// later round fetches one region's page group as a batch, and dummy
/// rounds batch `pages_per_region` random pages. The trace is
/// event-for-event identical to per-fetch execution.
pub(crate) fn query(
    scheme: &BaselineScheme,
    link: &mut dyn Transport,
    ctx: &mut QueryCtx,
    s: Point,
    t: Point,
) -> Result<QueryOutput> {
    let QueryCtx {
        pir,
        rng,
        sub,
        scratch,
        reqs,
        payloads,
    } = ctx;
    pir.reset_query();
    sub.clear();

    pir.begin_round(link)?;
    let raw = pir.download_full(link, scheme.header_file)?;
    let page_size = link.spec().page_size;
    let t0 = Instant::now();
    let header = Header::parse(&unseal_download(&raw, page_size)?)?;
    sub.set_id_bound(header.node_id_bound(link.file_pages(scheme.data_file)?, false, page_size)?);
    let (rs, rt) = (header.tree.region_of(s), header.tree.region_of(t));
    let client_s = t0.elapsed().as_secs_f64();

    let ppr = scheme.pages_per_region;
    let fmt = &header.record_format;
    let goal = scheme.flavor.goal(rt);
    let group = |region: u16| -> Result<_> {
        let base = *header
            .region_page
            .get(region as usize)
            .ok_or_else(|| CoreError::Query(format!("no region {region} in the header")))?;
        Ok((base..base + ppr).map(|p| (scheme.data_file, p)))
    };
    // Round 2: both host regions' page groups, one batch, folded in as the
    // search's first two fetches would fold them.
    reqs.clear();
    reqs.extend(group(rs)?.chain(group(rt)?));
    let pages = pir.run_round(link, reqs)?;
    sub.add_page_groups(pages, ppr as usize, fmt, goal, payloads)?;
    let mut prefetched = [rs, rt].into_iter();
    let mut fetch = |region: u16, sub: &mut ClientSubgraph| -> Result<()> {
        if let Some(prefetched_region) = prefetched.next() {
            if prefetched_region != region {
                return Err(CoreError::Query(format!(
                    "search requested region {region} but round two prefetched \
                     {prefetched_region}"
                )));
            }
            return Ok(());
        }
        // rounds 3, 4, ...: one region's page group per round
        reqs.clear();
        reqs.extend(group(region)?);
        let pages = pir.run_round(link, reqs)?;
        sub.add_page_groups(pages, ppr as usize, fmt, goal, payloads)
    };
    let out = search_regions(scheme.flavor, sub, scratch, (rs, rt), (s, t), &mut fetch)?;

    // Dummy rounds to reach the plan budget, one page group each.
    let mut regions = out.fetches;
    let plan_violation = regions > scheme.max_regions;
    while regions < scheme.max_regions {
        reqs.clear();
        reqs.extend((0..ppr).map(|_| (scheme.data_file, rng.gen_range(0..header.fd_pages.max(1)))));
        pir.run_round(link, reqs)?;
        regions += 1;
    }
    pir.add_client_compute(client_s);

    Ok(QueryOutput::new(
        pir,
        out.cost,
        &scratch.path,
        (out.s_node, out.t_node),
        plan_violation,
    ))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use privpath_graph::gen::{road_like, RoadGenConfig};

    /// The cached + threaded probe loop must derive exactly the plan the
    /// old uncached serial loop derived — for either flavour, in the
    /// exhaustive mode and the sampled mode, across thread counts. The
    /// `lm` and `af` modules each run it on their own flavour and net.
    pub(crate) fn check_cached_probe_plan(flavor: BaselineFlavor, seed: u64) {
        let net = road_like(&RoadGenConfig {
            nodes: 70,
            seed,
            ..Default::default()
        });
        let mut cfg = BuildConfig::default();
        cfg.spec.page_size = 512;
        cfg.landmarks = 3;
        cfg.af_regions = 6;
        let mut stage_s = StageBreakdown::default();
        let (fmt, partition, ppr, fd) = flavor.region_file(&net, &cfg, &mut stage_s).unwrap();
        let r = partition.num_regions();
        assert!(r >= 3, "need a multi-region net for a meaningful plan");
        let cache: Vec<Vec<u8>> = (0..r)
            .map(|reg| offline_region(&fd, reg, ppr))
            .collect::<Result<_>>()
            .unwrap();

        // The uncached serial reference: read and unseal through
        // `offline_region` on every fetch, exactly like the pre-cache
        // derivation loop.
        let n = net.num_nodes() as u32;
        let uncached_max = |probe_pairs: &[(u32, u32)]| -> u32 {
            let mut max_regions = 0u32;
            let mut sub = ClientSubgraph::new();
            let mut scratch = QueryScratch::new();
            for &(s, t) in probe_pairs {
                let rs = partition.region_of_node[s as usize];
                let rt = partition.region_of_node[t as usize];
                let goal = flavor.goal(rt);
                let mut fetch = |region: u16, sub: &mut ClientSubgraph| {
                    sub.add_region(&offline_region(&fd, region, ppr)?, &fmt, goal)
                };
                sub.clear();
                let ends = (net.node_point(s), net.node_point(t));
                let out =
                    search_regions(flavor, &mut sub, &mut scratch, (rs, rt), ends, &mut fetch)
                        .unwrap();
                max_regions = max_regions.max(out.fetches);
            }
            max_regions
        };
        let probe = |pairs: &ProbePairs, threads: usize| {
            probe_max(
                &net,
                &partition.region_of_node,
                &cache,
                &fmt,
                flavor,
                pairs,
                threads,
            )
            .unwrap()
        };

        // exhaustive mode
        let all_pairs: Vec<(u32, u32)> = (0..n)
            .flat_map(|s| (0..n).filter(move |&t| t != s).map(move |t| (s, t)))
            .collect();
        let want = uncached_max(&all_pairs);
        for threads in [1usize, 3] {
            let got = probe(&ProbePairs::Exhaustive, threads);
            assert_eq!(
                got, want,
                "{flavor:?}: exhaustive plan diverged at {threads} threads"
            );
        }

        // sampled mode (the pre-drawn pair list is the shared input)
        let sampled = sample_pairs(n, 96, 0x5eed ^ flavor.sample_salt());
        let want = uncached_max(&sampled);
        for threads in [1usize, 4] {
            let got = probe(&ProbePairs::Sampled(sampled.clone()), threads);
            assert_eq!(
                got, want,
                "{flavor:?}: sampled plan diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn sampled_pairs_are_deterministic_and_skip_diagonal() {
        let a = sample_pairs(50, 200, 0xfeed);
        let b = sample_pairs(50, 200, 0xfeed);
        assert_eq!(a, b);
        assert!(a.iter().all(|&(s, t)| s != t));
        assert!(a.len() <= 200);
        let c = sample_pairs(50, 200, 0xbeef);
        assert_ne!(a, c, "different seeds must draw different sets");
    }

    /// On a grid whose arcs all weigh the same, equal distances are
    /// everywhere, so the heap's order among tied keys decides which nodes
    /// pop before the target settles, and with them the fetch sequence and
    /// the path. For LM and AF at 512-byte pages, over every ordered pair of
    /// two grid sizes, the arena search answers exactly as the retained
    /// reference fed by the reference decoder: cost, snapped nodes, path and
    /// fetch count. AF cuts twelve regions, a count whose rectangles do not
    /// line up across the grid, so for some pairs a region is first reached
    /// by a node that ties with the target: an AF search that stopped when a
    /// relaxation reaches t, as LM's does, skips that fetch (15 of 900 and
    /// 60 of 11,664 pairs here). The larger grid gives AF two-page groups.
    #[test]
    fn one_search_matches_the_references_on_tied_grids() {
        use crate::files::fd::decode_region;
        use crate::schemes::{af, lm};
        use privpath_graph::gen::{grid_network, GridGenConfig};

        for (nx, ny) in [(6, 5), (12, 9)] {
            let net = grid_network(&GridGenConfig {
                nx,
                ny,
                jitter: 0,
                ..Default::default()
            });
            let mut cfg = BuildConfig::default();
            cfg.spec.page_size = 512;
            cfg.landmarks = 3;
            cfg.af_regions = 12;
            for flavor in [BaselineFlavor::Lm, BaselineFlavor::Af] {
                let mut stage_s = StageBreakdown::default();
                let (fmt, partition, ppr, fd) =
                    flavor.region_file(&net, &cfg, &mut stage_s).unwrap();
                let cache: Vec<Vec<u8>> = (0..partition.num_regions())
                    .map(|reg| offline_region(&fd, reg, ppr))
                    .collect::<Result<_>>()
                    .unwrap();
                let mut sub = ClientSubgraph::new();
                let mut scratch = QueryScratch::new();
                let n = net.num_nodes() as u32;
                for (s, t) in (0..n).flat_map(|s| (0..n).map(move |t| (s, t))) {
                    let rs = partition.region_of_node[s as usize];
                    let rt = partition.region_of_node[t as usize];
                    let (ps, pt) = (net.node_point(s), net.node_point(t));
                    let mut decoded = |reg: u16| decode_region(&cache[reg as usize], &fmt);
                    let want = match flavor {
                        BaselineFlavor::Lm => {
                            let o = lm::reference::lm_search(rs, rt, ps, pt, &mut decoded).unwrap();
                            (o.cost, o.s_node, o.t_node, o.path, o.pages)
                        }
                        BaselineFlavor::Af => {
                            let o = af::reference::af_search(rs, rt, ps, pt, &mut decoded).unwrap();
                            (o.cost, o.s_node, o.t_node, o.path, o.regions_fetched)
                        }
                    };
                    let goal = flavor.goal(rt);
                    let mut fetch = |reg: u16, sub: &mut ClientSubgraph| {
                        sub.add_region(&cache[reg as usize], &fmt, goal)
                    };
                    sub.clear();
                    let out = search_regions(
                        flavor,
                        &mut sub,
                        &mut scratch,
                        (rs, rt),
                        (ps, pt),
                        &mut fetch,
                    )
                    .unwrap();
                    let got = (
                        out.cost,
                        out.s_node,
                        out.t_node,
                        scratch.path.clone(),
                        out.fetches,
                    );
                    assert_eq!(got, want, "{flavor:?} on a {nx}x{ny} grid: {s} -> {t}");
                }
            }
        }
    }
}
