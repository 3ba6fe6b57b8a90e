//! The index-based scheme family: CI (§5), PI (§6), HY (§6) and PI* (§6).
//!
//! All four share the same skeleton — partition, pre-compute, build
//! `Fh`/`Fl`/`Fi`/`Fd`, derive a fixed plan, then answer queries in 3–4
//! PIR rounds — and differ only in what the network index stores:
//!
//! | scheme | index record            | rounds | data pages/round 3–4        |
//! |--------|-------------------------|--------|-----------------------------|
//! | CI     | region sets `S_ij`      | 4      | `m + 2` from `Fd`           |
//! | PI     | subgraphs `G_ij`        | 3      | `h` from `Fi` + 2 from `Fd` |
//! | PI*    | subgraphs, k pages/reg  | 3      | `h` + `2k`                  |
//! | HY     | mixed, one file `Fi|Fd` | 4      | `r` then `q4` (combined)    |

use crate::augment::AugGraph;
use crate::config::BuildConfig;
use crate::error::CoreError;
use crate::files::fd::{build_fd, NoExtra, RecordFormat};
use crate::files::fh::Header;
use crate::files::fi::FiBuilder;
use crate::files::{fl, unseal_page, PAGE_CRC_BYTES};
use crate::plan::{PlanFile, QueryPlan, RoundSpec};
use crate::precompute::{precompute, PrecomputeOptions, Precomputed};
use crate::records::{literal_size, IndexPayload};
use crate::Result;
use privpath_graph::network::RoadNetwork;
use privpath_partition::{compute_borders, partition_packed, partition_plain, Partition};
use privpath_pir::{FileId, PirServer, Transport};
use privpath_storage::MemFile;

/// Which payload the index stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IndexFlavor {
    /// Region sets (CI).
    Sets,
    /// Subgraphs (PI / PI*).
    Graphs,
    /// Mixed: sets up to a cardinality threshold, subgraphs beyond (HY).
    Hybrid {
        /// Replace `S_ij` with `G_ij` when `|S_ij| > threshold`.
        threshold: usize,
    },
}

/// Built database handles for an index-family scheme.
pub(crate) struct IndexScheme {
    /// Scheme discriminator byte stored in the header.
    pub(crate) scheme_byte: u8,
    /// The flavor.
    pub(crate) flavor: IndexFlavor,
    /// Header (also kept parsed for inspection).
    pub(crate) header: Header,
    /// PIR file ids.
    pub(crate) header_file: FileId,
    /// Look-up file id.
    pub(crate) lookup_file: FileId,
    /// Index file id (for HY this is the combined `Fi|Fd` file).
    pub(crate) index_file: FileId,
    /// Region-data file id (same as `index_file` for HY).
    pub(crate) data_file: FileId,
}

/// Wall-clock seconds per offline build stage — what `experiments` prints
/// per build and the reference benchmark reports as `core.build.*_s`.
/// Stages not applicable to a scheme stay `0.0` (e.g. LM/AF have no border
/// computation; for them `precompute` covers their own substrate: landmark
/// vectors / arc flags).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageBreakdown {
    /// KD-tree partitioning (§5.1/§5.6).
    pub partition_s: f64,
    /// Border-node computation + augmented-graph assembly (§5.2).
    pub borders_s: f64,
    /// The heavy pre-computation: border Dijkstras and set sweeps (§5.2/§6),
    /// or the LM/AF substrate (landmark vectors, arc flags).
    pub precompute_s: f64,
    /// File formation (`Fd`/`Fi`/`Fl`/headers) and server registration.
    pub files_s: f64,
    /// Query-plan derivation (LM/AF probe loops; HY threshold auto-tune).
    pub plan_s: f64,
}

/// Statistics produced during the build (for the experiment harness).
#[derive(Debug, Clone, Default)]
pub struct BuildStats {
    /// Number of regions.
    pub regions: u32,
    /// Number of border nodes.
    pub(crate) borders: u32,
    /// `m` — max region-set cardinality.
    pub m: u32,
    /// Max pages spanned by an index record.
    pub(crate) index_span: u32,
    /// Fd space utilization (Figure 8(a)).
    pub fd_utilization: f64,
    /// Page counts: (Fl, Fi, Fd).
    pub pages: (u32, u32, u32),
    /// `|S_ij|` histogram (Figure 10(a)).
    pub s_histogram: Vec<(usize, usize)>,
    /// Per-stage build wall-clock breakdown.
    pub stage_s: StageBreakdown,
}

fn edge_triples(net: &RoadNetwork, edges: &[u32]) -> Vec<(u32, u32, u32)> {
    let mut v: Vec<(u32, u32, u32)> = edges
        .iter()
        .map(|&e| {
            let (a, b) = net.edge_endpoints(e);
            (a, b, net.edge_weight(e))
        })
        .collect();
    v.sort_unstable();
    v
}

/// Estimates the uncompressed index size for a HY threshold, used for
/// auto-tuning: pick the smallest threshold whose index fits the PIR limit.
pub(crate) fn estimate_hybrid_index_bytes(
    _net: &RoadNetwork,
    pre: &Precomputed,
    threshold: usize,
) -> u64 {
    let mut total = 0u64;
    let r = pre.num_regions as usize;
    for i in 0..r {
        for j in 0..r {
            let s = &pre.s_sets[i * r + j];
            total += if s.len() > threshold {
                literal_size(&IndexPayload::Edges(vec![
                    (0, 0, 0);
                    pre.g_sets[i * r + j].len()
                ])) as u64
            } else {
                literal_size(&IndexPayload::Regions(s.clone())) as u64
            };
        }
    }
    total
}

/// Picks the smallest HY threshold whose estimated index stays within
/// `limit_bytes` (Figure 10(b): "the best threshold value is the smallest for
/// which the network index file does not exceed the maximum size supported").
pub(crate) fn auto_hybrid_threshold(
    net: &RoadNetwork,
    pre: &Precomputed,
    limit_bytes: u64,
) -> usize {
    // Estimates are monotone decreasing in the threshold; binary search.
    let (mut lo, mut hi) = (0usize, pre.m + 1);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if estimate_hybrid_index_bytes(net, pre, mid) <= limit_bytes {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo.min(pre.m)
}

/// Builds an index-family database and registers its files with `server`.
pub(crate) fn build(
    net: &RoadNetwork,
    flavor: IndexFlavor,
    scheme_byte: u8,
    cfg: &BuildConfig,
    server: &mut PirServer,
) -> Result<(IndexScheme, BuildStats)> {
    use std::time::Instant;
    let mut stage_s = StageBreakdown::default();
    let fmt = RecordFormat::default();
    let page_size = cfg.spec.page_size;
    let cluster = cfg.cluster_pages.max(1);
    // region capacity: cluster pages of payload, minus the 4-byte region
    // stream header
    let capacity = cluster as usize * (page_size - PAGE_CRC_BYTES) - 4;
    let bytes_of = |u: u32| fmt.node_bytes(net.degree(u));
    let t0 = Instant::now();
    let partition: Partition = if cfg.packed_partition {
        partition_packed(net, capacity, &bytes_of)
    } else {
        partition_plain(net, capacity, &bytes_of)
    };
    stage_s.partition_s = t0.elapsed().as_secs_f64();
    let r = partition.num_regions();

    let t0 = Instant::now();
    let borders = compute_borders(net, &partition.tree);
    let aug = AugGraph::build(net, &borders, &partition.region_of_node);
    stage_s.borders_s = t0.elapsed().as_secs_f64();
    let need_g = !matches!(flavor, IndexFlavor::Sets);
    let t0 = Instant::now();
    let pre = precompute(
        &aug,
        &borders,
        r,
        net.num_arcs(),
        &PrecomputeOptions {
            compute_g: need_g,
            threads: cfg.threads,
            ..PrecomputeOptions::default()
        },
    );
    stage_s.precompute_s = t0.elapsed().as_secs_f64();

    // HY: resolve the threshold now (auto = smallest fitting the PIR limit).
    let t0 = Instant::now();
    let flavor = match flavor {
        IndexFlavor::Hybrid {
            threshold: usize::MAX,
        } => IndexFlavor::Hybrid {
            threshold: auto_hybrid_threshold(net, &pre, cfg.spec.max_file_bytes() / 2),
        },
        f => f,
    };
    stage_s.plan_s = t0.elapsed().as_secs_f64();

    // m for the compression bound: CI uses the global m; HY uses the max
    // cardinality among *kept* sets; PI has no region sets.
    let m_bound = match flavor {
        IndexFlavor::Sets => pre.m,
        IndexFlavor::Hybrid { threshold } => pre
            .s_sets
            .iter()
            .map(|s| s.len())
            .filter(|&l| l <= threshold)
            .max()
            .unwrap_or(0),
        IndexFlavor::Graphs => 0,
    };

    // ---- Fd ----
    let t0 = Instant::now();
    let fd = build_fd(net, &partition, &fmt, &NoExtra, cluster, page_size)?;

    // ---- Fi ----
    let mut fi_builder = FiBuilder::new(page_size, m_bound, cfg.compress_index);
    let mut fl_entries = vec![0u32; r as usize * r as usize];
    let mut max_set_span = 1u32;
    let mut max_graph_span = 1u32;
    for i in 0..r {
        for j in 0..r {
            let idx = fl::entry_index(i, j, r);
            let s_set = pre.s(i, j);
            let use_graph = match flavor {
                IndexFlavor::Sets => false,
                IndexFlavor::Graphs => true,
                IndexFlavor::Hybrid { threshold } => s_set.len() > threshold,
            };
            let payload = if use_graph {
                IndexPayload::Edges(edge_triples(net, pre.g(i, j)))
            } else {
                IndexPayload::Regions(s_set.to_vec())
            };
            let loc = fi_builder.add(i, j, payload);
            fl_entries[idx] = loc.page;
            if use_graph {
                max_graph_span = max_graph_span.max(loc.span);
            } else {
                max_set_span = max_set_span.max(loc.span);
            }
        }
    }
    let (fi, _) = fi_builder.finish();
    let fl_file = fl::build_fl(&fl_entries, page_size);

    // ---- plan + header ----
    let is_hybrid = matches!(flavor, IndexFlavor::Hybrid { .. });
    let (index_span, plan, hy_round4, combined_fd_offset, index_file_mem, data_file_mem) =
        match flavor {
            IndexFlavor::Sets => {
                let span = max_set_span;
                let plan = QueryPlan {
                    rounds: vec![
                        RoundSpec::one(PlanFile::Header, 0),
                        RoundSpec::one(PlanFile::Lookup, 1),
                        RoundSpec::one(PlanFile::Index, span),
                        RoundSpec::one(PlanFile::Data, (pre.m as u32 + 2) * u32::from(cluster)),
                    ],
                };
                (span, plan, 0u32, 0u32, Some(fi), Some(fd))
            }
            IndexFlavor::Graphs => {
                let h = max_graph_span;
                let plan = QueryPlan {
                    rounds: vec![
                        RoundSpec::one(PlanFile::Header, 0),
                        RoundSpec::one(PlanFile::Lookup, 1),
                        RoundSpec {
                            steps: vec![
                                (PlanFile::Index, h),
                                (PlanFile::Data, 2 * u32::from(cluster)),
                            ],
                        },
                    ],
                };
                (h, plan, 0, 0, Some(fi), Some(fd))
            }
            IndexFlavor::Hybrid { .. } => {
                // one physical file: Fi section followed by Fd section, so the
                // adversary cannot tell set queries from subgraph queries (§6)
                let r_span = max_set_span;
                let fd_offset = index_mem_pages(&fi);
                let mut combined = fi;
                combined.concat(&fd);
                // Round 4 has a fixed two-phase shape so even the *wire
                // exchange* stream is query-independent: first exactly
                // `hy_cont` single-page continuation exchanges (the
                // data-dependent record-continuation walk, padded with dummy
                // singles), then one batch of exactly `(m + 2) · cluster`
                // pages (region groups padded with dummies). `hy_cont` is
                // the worst-case continuation need — the widest subgraph
                // record minus the `r_span` window round 3 already fetched —
                // and the client recovers it from the header as
                // `hy_round4 - (m_regions + 2) · cluster_pages`.
                let hy_cont = max_graph_span.saturating_sub(r_span);
                let q4 = hy_cont + (m_bound as u32 + 2) * u32::from(cluster);
                let plan = QueryPlan {
                    rounds: vec![
                        RoundSpec::one(PlanFile::Header, 0),
                        RoundSpec::one(PlanFile::Lookup, 1),
                        RoundSpec::one(PlanFile::Combined, r_span),
                        RoundSpec::one(PlanFile::Combined, q4),
                    ],
                };
                (r_span, plan, q4, fd_offset, Some(combined), None)
            }
        };

    let index_mem = index_file_mem.expect("index file always built");
    let fi_pages = if is_hybrid {
        combined_fd_offset
    } else {
        index_mem_pages(&index_mem)
    };
    let fd_pages = match &data_file_mem {
        Some(fd) => index_mem_pages(fd),
        None => index_mem_pages(&index_mem) - combined_fd_offset,
    };

    // region -> starting page (absolute within its file)
    let region_page: Vec<u32> = (0..r)
        .map(|reg| {
            let base = u32::from(reg) * u32::from(cluster);
            if is_hybrid {
                combined_fd_offset + base
            } else {
                base
            }
        })
        .collect();

    let header = Header {
        scheme: scheme_byte,
        page_size: page_size as u32,
        num_regions: r,
        cluster_pages: cluster,
        record_format: fmt,
        m_regions: m_bound as u16,
        index_span: index_span as u16,
        hy_round4,
        combined_fd_offset,
        fl_pages: index_mem_pages(&fl_file),
        fi_pages,
        fd_pages,
        tree: partition.tree.clone(),
        region_page,
        plan,
    };
    let header_mem = header.to_file(page_size);

    let header_file = server.add_file("Fh", header_mem, privpath_pir::PirMode::CostOnly)?;
    let lookup_file = server.add_file("Fl", fl_file, cfg.pir_mode.clone())?;
    let index_file = server.add_file(
        if is_hybrid { "Fi|Fd" } else { "Fi" },
        index_mem,
        cfg.pir_mode.clone(),
    )?;
    let data_file = match data_file_mem {
        Some(fd) => server.add_file("Fd", fd, cfg.pir_mode.clone())?,
        None => index_file,
    };
    stage_s.files_s = t0.elapsed().as_secs_f64();

    let stats = BuildStats {
        regions: u32::from(r),
        borders: borders.len() as u32,
        m: pre.m as u32,
        index_span: max_set_span.max(max_graph_span),
        fd_utilization: partition.utilization(),
        pages: (header.fl_pages, header.fi_pages, header.fd_pages),
        s_histogram: pre.s_cardinality_histogram(),
        stage_s,
    };

    Ok((
        IndexScheme {
            scheme_byte,
            flavor,
            header,
            header_file,
            lookup_file,
            index_file,
            data_file,
        },
        stats,
    ))
}

fn index_mem_pages(f: &MemFile) -> u32 {
    use privpath_storage::PagedFile;
    f.num_pages()
}

/// Executes one private query against an index-family database. `link` is
/// the session's [`Transport`] — the shared in-process server or a wire
/// channel; all mutation happens in `ctx`.
///
/// Every protocol round assembles its full page list — real fetches and
/// dummies alike — *before* issuing it, then executes it as one
/// [`privpath_pir::PirSession::run_round`] batch. The paper's protocol
/// already reads this
/// way (the client knows a round's pages before requesting any of them;
/// §5.4, §6), so batching changes the server's work per round, not the
/// protocol: the trace and meter are bit-identical to per-fetch execution.
pub(crate) fn query(
    scheme: &IndexScheme,
    link: &mut dyn Transport,
    ctx: &mut crate::engine::QueryCtx,
    s: privpath_graph::types::Point,
    t: privpath_graph::types::Point,
) -> Result<crate::engine::QueryOutput> {
    use rand::Rng;
    use std::collections::HashMap;
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

    // Round 1: download the header in full.
    pir.begin_round(link)?;
    let raw = pir.download_full(link, scheme.header_file)?;
    let page_size = link.spec().page_size;
    let t0 = Instant::now();
    let payload = crate::files::unseal_download(&raw, page_size)?;
    let header = Header::parse(&payload)?;
    let combined = matches!(scheme.flavor, IndexFlavor::Hybrid { .. });
    sub.set_id_bound(header.node_id_bound(
        link.file_pages(scheme.data_file)?,
        combined,
        page_size,
    )?);
    let rs = header.tree.region_of(s);
    let rt = header.tree.region_of(t);
    let mut client_s = t0.elapsed().as_secs_f64();

    // Round 2: one look-up page (a batch of one).
    let idx = fl::entry_index(rs, rt, header.num_regions);
    let fl_page = fl::page_of_entry(idx, header.page_size as usize);
    let fl_payload = {
        let pages = pir.run_round(link, &[(scheme.lookup_file, fl_page)])?;
        unseal_page(&pages[0])?.to_vec()
    };
    let fi_start = fl::read_entry(&fl_payload, idx, header.page_size as usize)?;

    // Round 3: the index window, assembled up front and issued as one batch.
    let span = u32::from(header.index_span.max(1));
    let window_start = fi_start.min(header.fi_pages.saturating_sub(span));
    reqs.clear();
    reqs.extend((window_start..window_start + span).map(|p| (scheme.index_file, p)));
    let mut fetched: HashMap<u32, Vec<u8>> = HashMap::new();
    {
        let pages = pir.run_round(link, reqs)?;
        for (&(_, p), page) in reqs.iter().zip(pages) {
            fetched.insert(p, unseal_page(page)?.to_vec());
        }
    }

    let cluster = u32::from(header.cluster_pages.max(1));
    let answer_payload: Option<IndexPayload>;

    match scheme.flavor {
        IndexFlavor::Graphs => {
            // Round 3 continues: both region page groups in one batch.
            reqs.clear();
            for &reg in &[rs, rt] {
                let base = header.region_page[reg as usize];
                reqs.extend((0..cluster).map(|c| (scheme.data_file, base + c)));
            }
            {
                let pages = pir.fetch_batch(link, reqs)?;
                let t1 = Instant::now();
                sub.add_page_groups(
                    pages,
                    cluster as usize,
                    &header.record_format,
                    None,
                    region_bytes,
                )?;
                client_s += t1.elapsed().as_secs_f64();
            }
            let t1 = Instant::now();
            let getter = |p: u32| -> Result<Vec<u8>> {
                fetched
                    .get(&p)
                    .cloned()
                    .ok_or_else(|| CoreError::Query(format!("index page {p} not in window")))
            };
            answer_payload = Some(crate::files::fi::decode_entry(&getter, fi_start, rs, rt)?);
            client_s += t1.elapsed().as_secs_f64();
        }
        IndexFlavor::Sets => {
            let t1 = Instant::now();
            let getter = |p: u32| -> Result<Vec<u8>> {
                fetched
                    .get(&p)
                    .cloned()
                    .ok_or_else(|| CoreError::Query(format!("index page {p} not in window")))
            };
            let decoded = crate::files::fi::decode_entry(&getter, fi_start, rs, rt)?;
            client_s += t1.elapsed().as_secs_f64();
            let regions = match &decoded {
                IndexPayload::Regions(v) => v.clone(),
                IndexPayload::Edges(_) => {
                    return Err(CoreError::Query("CI index holds a subgraph record".into()))
                }
            };
            // Round 4: m + 2 region page groups (real ones first, dummies
            // after), the whole list assembled before the round is issued.
            let budget = (u32::from(header.m_regions) + 2) * cluster;
            reqs.clear();
            let real_groups = 2 + regions.len();
            for reg in [rs, rt].into_iter().chain(regions.iter().copied()) {
                let base = header.region_page[reg as usize];
                reqs.extend((0..cluster).map(|c| (scheme.data_file, base + c)));
            }
            while (reqs.len() as u32) < budget {
                let dummy = rng.gen_range(0..header.fd_pages.max(1));
                reqs.push((scheme.data_file, dummy));
            }
            {
                let pages = pir.run_round(link, reqs)?;
                let real = real_groups * cluster as usize;
                let t1 = Instant::now();
                sub.add_page_groups(
                    &pages[..real],
                    cluster as usize,
                    &header.record_format,
                    None,
                    region_bytes,
                )?;
                // dummy pages are discarded, but their checksums are still
                // verified — a tampering server cannot hide in the padding
                for page in &pages[real..] {
                    unseal_page(page)?;
                }
                client_s += t1.elapsed().as_secs_f64();
            }
            answer_payload = Some(decoded);
        }
        IndexFlavor::Hybrid { .. } => {
            // Round 4 has a fixed two-phase shape (see the plan derivation
            // in `build`): exactly `hy_cont` single-page continuation
            // exchanges, then one batch of exactly `(m + 2) · cluster`
            // pages — so the number and size of every wire exchange is
            // query-independent, not just the fetch totals. All fetches go
            // against the combined file.
            pir.begin_round(link)?;
            let q4 = header.hy_round4;
            let batch_budget = (u32::from(header.m_regions) + 2) * cluster;
            let hy_cont = q4.checked_sub(batch_budget).ok_or_else(|| {
                CoreError::Query(format!(
                    "header hy_round4 {q4} smaller than the fixed batch of {batch_budget}"
                ))
            })?;
            let total_pages = header.fi_pages + header.fd_pages;
            let mut used = 0u32;
            // Phase one — the data-dependent continuation walk. The decoder
            // cannot hold a mutable borrow of the session, so decode against
            // what we have and fetch missing continuation pages between
            // attempts (each attempt discovers one more page).
            let mut all: HashMap<u32, Vec<u8>> = fetched.clone();
            let decoded = loop {
                let getter = |p: u32| -> Result<Vec<u8>> {
                    all.get(&p)
                        .cloned()
                        .ok_or_else(|| CoreError::Query(format!("missing page {p}")))
                };
                match crate::files::fi::decode_entry(&getter, fi_start, rs, rt) {
                    Ok(v) => break v,
                    Err(CoreError::Query(msg)) if msg.starts_with("missing page") => {
                        let p: u32 = msg["missing page ".len()..]
                            .parse()
                            .map_err(|_| CoreError::Query(msg.clone()))?;
                        if all.contains_key(&p) {
                            return Err(CoreError::Query(format!("page {p} repeatedly missing")));
                        }
                        if used >= hy_cont {
                            return Err(CoreError::Query(format!(
                                "record needs more than the {hy_cont} continuation pages the \
                                 plan allows"
                            )));
                        }
                        let payload = {
                            let pages = pir.fetch_batch(link, &[(scheme.index_file, p)])?;
                            unseal_page(&pages[0])?.to_vec()
                        };
                        used += 1;
                        all.insert(p, payload);
                    }
                    Err(e) => return Err(e),
                }
            };
            // Pad the continuation phase to its fixed length with dummy
            // single-page exchanges (checksum-verified like everything else).
            while used < hy_cont {
                let dummy = rng.gen_range(0..total_pages.max(1));
                let pages = pir.fetch_batch(link, &[(scheme.index_file, dummy)])?;
                unseal_page(&pages[0])?;
                used += 1;
            }
            // Phase two — region pages for rs, rt and (for set records) the
            // set regions, then dummies up to the fixed batch budget: one
            // batch exchange.
            let mut to_fetch: Vec<u16> = vec![rs, rt];
            if let IndexPayload::Regions(v) = &decoded {
                to_fetch.extend(v.iter().copied());
            }
            let real_groups = to_fetch.len();
            reqs.clear();
            for reg in to_fetch {
                let base = header.region_page[reg as usize];
                reqs.extend((0..cluster).map(|c| (scheme.index_file, base + c)));
            }
            while (reqs.len() as u32) < batch_budget {
                let dummy = rng.gen_range(0..total_pages.max(1));
                reqs.push((scheme.index_file, dummy));
            }
            {
                let pages = pir.fetch_batch(link, reqs)?;
                let real = real_groups * cluster as usize;
                let t1 = Instant::now();
                sub.add_page_groups(
                    &pages[..real],
                    cluster as usize,
                    &header.record_format,
                    None,
                    region_bytes,
                )?;
                // dummy padding is checksum-verified like the real pages
                for page in &pages[real..] {
                    unseal_page(page)?;
                }
                client_s += t1.elapsed().as_secs_f64();
            }
            answer_payload = Some(decoded);
        }
    }

    // Assemble and solve (allocation-free in steady state: the arena, its
    // triple rows and the Dijkstra scratch are reused across the session's
    // queries).
    let t1 = Instant::now();
    if let Some(IndexPayload::Edges(triples)) = &answer_payload {
        sub.add_edges(triples)?;
    }
    let s_node = sub
        .snap(rs, s)
        .ok_or_else(|| CoreError::Query(format!("source region {rs} has no nodes")))?;
    let t_node = sub
        .snap(rt, t)
        .ok_or_else(|| CoreError::Query(format!("target region {rt} has no nodes")))?;
    let cost = sub.shortest_path_in(scratch, s_node, t_node);
    client_s += t1.elapsed().as_secs_f64();
    pir.add_client_compute(client_s);

    let (cost, path) = match cost {
        Some(c) => (Some(c), scratch.path.clone()),
        None => (None, Vec::new()),
    };
    Ok(crate::engine::QueryOutput {
        answer: crate::engine::PathAnswer {
            cost,
            path_nodes: path,
            src_node: s_node,
            dst_node: t_node,
        },
        meter: pir.meter.clone(),
        trace: pir.trace.clone(),
        plan_violation: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use privpath_graph::gen::{road_like, RoadGenConfig};

    #[test]
    fn edge_triples_are_sorted_and_faithful() {
        let net = road_like(&RoadGenConfig {
            nodes: 50,
            seed: 1,
            ..Default::default()
        });
        let ids: Vec<u32> = (0..net.num_arcs() as u32).step_by(3).collect();
        let triples = edge_triples(&net, &ids);
        assert_eq!(triples.len(), ids.len());
        assert!(triples.windows(2).all(|w| w[0] <= w[1]));
        for &(a, b, w) in &triples {
            let e = ids
                .iter()
                .copied()
                .find(|&e| net.edge_endpoints(e) == (a, b) && net.edge_weight(e) == w);
            assert!(e.is_some(), "triple ({a},{b},{w}) not among source arcs");
        }
    }

    #[test]
    fn hybrid_threshold_monotone_and_auto_picks_smallest() {
        let net = road_like(&RoadGenConfig {
            nodes: 400,
            seed: 2,
            ..Default::default()
        });
        let cap = 1000;
        let fmt = RecordFormat::default();
        let p = partition_packed(&net, cap, &|u| fmt.node_bytes(net.degree(u)));
        let borders = compute_borders(&net, &p.tree);
        let aug = AugGraph::build(&net, &borders, &p.region_of_node);
        let pre = precompute(
            &aug,
            &borders,
            p.num_regions(),
            net.num_arcs(),
            &PrecomputeOptions::default(),
        );
        // size estimates shrink as the threshold rises (fewer subgraphs)
        let sizes: Vec<u64> = (0..=pre.m)
            .map(|th| estimate_hybrid_index_bytes(&net, &pre, th))
            .collect();
        assert!(
            sizes.windows(2).all(|w| w[0] >= w[1]),
            "estimate must be monotone"
        );
        // auto threshold honours a generous limit with threshold 0 (pure PI)
        let big_limit = sizes[0] + 1;
        assert_eq!(auto_hybrid_threshold(&net, &pre, big_limit), 0);
        // and a tight limit forces a high threshold
        let tight = *sizes.last().unwrap();
        let th = auto_hybrid_threshold(&net, &pre, tight);
        assert!(estimate_hybrid_index_bytes(&net, &pre, th) <= tight.max(1));
    }

    #[test]
    fn build_stats_are_populated() {
        let net = road_like(&RoadGenConfig {
            nodes: 300,
            seed: 3,
            ..Default::default()
        });
        let mut cfg = crate::config::BuildConfig::default();
        cfg.spec.page_size = 512;
        let mut server = PirServer::new(cfg.spec.clone());
        let (scheme, stats) = build(&net, IndexFlavor::Sets, 1, &cfg, &mut server).unwrap();
        assert!(stats.regions > 1);
        assert!(stats.borders > 0);
        assert!(stats.fd_utilization > 0.5);
        assert_eq!(stats.pages.2, scheme.header.fd_pages);
        let total: usize = stats.s_histogram.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, (stats.regions * stats.regions) as usize);
    }
}
