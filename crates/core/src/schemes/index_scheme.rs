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
use crate::engine::{QueryCtx, QueryOutput};
use crate::error::CoreError;
use crate::files::fd::{build_fd, NoExtra, RecordFormat};
use crate::files::fh::Header;
use crate::files::fi::{self, FiBuilder};
use crate::files::{fl, unseal_page, PAGE_CRC_BYTES};
use crate::plan::{PlanFile, QueryPlan, RoundSpec};
use crate::precompute::{precompute, PrecomputeOptions, Precomputed};
use crate::records::{edges_literal_size, regions_literal_size, IndexPayload};
use crate::Result;
use privpath_graph::network::RoadNetwork;
use privpath_graph::types::Point;
use privpath_partition::{compute_borders, partition_packed, partition_plain, Partition};
use privpath_pir::{FileId, PirServer, Transport};
use privpath_storage::MemFile;
use rand::Rng;
use std::time::Instant;

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

impl IndexFlavor {
    /// Whether the record of a pair whose `S_ij` has `set_len` regions
    /// stores `G_ij`.
    fn stores_graph(self, set_len: usize) -> bool {
        match self {
            IndexFlavor::Sets => false,
            IndexFlavor::Graphs => true,
            IndexFlavor::Hybrid { threshold } => set_len > threshold,
        }
    }
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
    /// Per-stage build wall-clock breakdown. Not persisted, so that a
    /// snapshot is a pure function of its input: a database reopened from
    /// one reports zero for every stage.
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

/// The record of pair `(i, j)` under `flavor`: `G_ij`'s sorted triples or
/// `S_ij`.
fn index_payload(
    net: &RoadNetwork,
    pre: &Precomputed,
    flavor: IndexFlavor,
    i: u16,
    j: u16,
) -> IndexPayload {
    let s_set = pre.s(i, j);
    if flavor.stores_graph(s_set.len()) {
        IndexPayload::Edges(edge_triples(net, pre.g(i, j)))
    } else {
        IndexPayload::Regions(s_set.to_vec())
    }
}

/// The literal byte length of every pair's `G_ij` record, in `g_sets`
/// order: what HY's threshold is sized by and what `Fi`'s `H` is taken from.
fn edge_record_bytes(net: &RoadNetwork, pre: &Precomputed) -> Vec<usize> {
    pre.g_sets
        .iter()
        .map(|g| edges_literal_size(&edge_triples(net, g)))
        .collect()
}

/// Estimates the uncompressed index size for a HY threshold, used for
/// auto-tuning: pick the smallest threshold whose index fits the PIR limit.
/// `edge_bytes` is [`edge_record_bytes`].
pub(crate) fn estimate_hybrid_index_bytes(
    pre: &Precomputed,
    edge_bytes: &[usize],
    threshold: usize,
) -> u64 {
    pre.s_sets
        .iter()
        .zip(edge_bytes)
        .map(|(s, &edges)| {
            if s.len() > threshold {
                edges as u64
            } else {
                regions_literal_size(s.len()) as u64
            }
        })
        .sum()
}

/// Picks the smallest HY threshold whose estimated index stays within
/// `limit_bytes` (Figure 10(b): "the best threshold value is the smallest for
/// which the network index file does not exceed the maximum size supported").
pub(crate) fn auto_hybrid_threshold(
    pre: &Precomputed,
    edge_bytes: &[usize],
    limit_bytes: u64,
) -> usize {
    // Estimates are monotone decreasing in the threshold; binary search.
    let (mut lo, mut hi) = (0usize, pre.m + 1);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if estimate_hybrid_index_bytes(pre, edge_bytes, mid) <= limit_bytes {
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

    // The pre-pass over the encoded `G_ij` records, part of forming `Fi`.
    let t0 = Instant::now();
    let edge_bytes = if need_g {
        edge_record_bytes(net, &pre)
    } else {
        Vec::new()
    };
    stage_s.files_s = t0.elapsed().as_secs_f64();

    // HY: resolve the threshold now (auto = smallest fitting the PIR limit).
    let t0 = Instant::now();
    let flavor = match flavor {
        IndexFlavor::Hybrid {
            threshold: usize::MAX,
        } => IndexFlavor::Hybrid {
            threshold: auto_hybrid_threshold(&pre, &edge_bytes, cfg.spec.max_file_bytes() / 2),
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
    // `H`: the most pages an edge record needs from a fresh page.
    let edge_span = pre
        .s_sets
        .iter()
        .zip(&edge_bytes)
        .filter(|(s, _)| flavor.stores_graph(s.len()))
        .map(|(_, &len)| fi::pages_from_fresh(len, page_size))
        .max()
        .unwrap_or(1);
    let mut fi_builder = FiBuilder::new(page_size, m_bound, cfg.compress_index, edge_span);
    let mut fl_entries = vec![0u32; r as usize * r as usize];
    let mut max_set_span = 1u32;
    let mut max_graph_span = 1u32;
    for i in 0..r {
        for j in 0..r {
            let payload = index_payload(net, &pre, flavor, i, j);
            let use_graph = matches!(payload, IndexPayload::Edges(_));
            let loc = fi_builder.add(i, j, payload);
            fl_entries[fl::entry_index(i, j, r)] = loc.page;
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
    stage_s.files_s += t0.elapsed().as_secs_f64();

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
///
/// The four flavours walk one path and differ only in values the header
/// and its plan publish: the region batch's budget, whether it opens round
/// 4 (CI, HY) or rides round 3 (PI, PI*), its dummy page range, and HY's
/// `hy_cont` continuation singles. Whether a record names regions or carries edges
/// is the decoded record's own property (HY mixes both).
pub(crate) fn query(
    scheme: &IndexScheme,
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
    // The region memo outlives the query (`subgraph` module doc).
    sub.clear_view();

    // Round 1: download the header in full.
    pir.begin_round(link)?;
    let raw = pir.download_full(link, scheme.header_file)?;
    let page_size = link.spec().page_size;
    let t0 = Instant::now();
    let header = Header::parse(&crate::files::unseal_download(&raw, page_size)?)?;
    let combined = matches!(scheme.flavor, IndexFlavor::Hybrid { .. });
    // `node_id_bound` checks the header's page counts against this one, the
    // dummy pages' range
    let data_pages = link.file_pages(scheme.data_file)?;
    sub.set_id_bound(header.node_id_bound(data_pages, combined, page_size)?);
    sub.set_memo_cap(header.fd_pages as usize * (page_size - PAGE_CRC_BYTES));
    let rs = header.tree.region_of(s);
    let rt = header.tree.region_of(t);
    let mut client_s = t0.elapsed().as_secs_f64();

    // Round 2: one look-up page (a batch of one).
    let idx = fl::entry_index(rs, rt, header.num_regions);
    let fl_page = fl::page_of_entry(idx, header.page_size as usize);
    let fi_start = {
        let pages = pir.run_round(link, &[(scheme.lookup_file, fl_page)])?;
        fl::read_entry(unseal_page(&pages[0])?, idx, header.page_size as usize)?
    };

    // Round 3: the index window, unsealed once into `payloads`.
    let span = u32::from(header.index_span.max(1));
    let window_start = fi_start.min(header.fi_pages.saturating_sub(span));
    let window_end = window_start + span;
    reqs.clear();
    reqs.extend((window_start..window_end).map(|p| (scheme.index_file, p)));
    payloads.clear();
    for page in pir.run_round(link, reqs)? {
        payloads.extend_from_slice(unseal_page(page)?);
    }

    // The region batch holds `m + 2` groups (PI publishes `m` = 0) and
    // opens round 4 where the plan has one (CI, HY) or rides round 3 (PI).
    let cluster = u32::from(header.cluster_pages.max(1));
    let budget = (u32::from(header.m_regions) + 2) * cluster;
    let hy_cont = if combined {
        header.hy_round4.checked_sub(budget).ok_or_else(|| {
            CoreError::Query(format!(
                "header hy_round4 {} smaller than the fixed batch of {budget}",
                header.hy_round4
            ))
        })?
    } else {
        0
    };
    if header.plan.rounds.len() > 3 {
        pir.begin_round(link)?;
    }

    // The record's pages past the window, named by its head: HY fetches
    // them in ascending order, one single-page exchange each, then pads
    // the phase to `hy_cont` with dummy singles (checksum-verified like
    // everything else), so every query makes the same exchanges. CI and PI
    // windows hold their widest record (`hy_cont` is 0).
    let page_len = page_size - PAGE_CRC_BYTES;
    let first = (fi_start - window_start) as usize * page_len;
    let head = payloads.get(first..first + page_len).ok_or_else(|| {
        CoreError::Query(format!(
            "look-up entry names index page {fi_start}, past the index's {}",
            header.fi_pages
        ))
    })?;
    let end = u64::from(fi_start) + u64::from(fi::record_pages(head, rs, rt)?);
    let past = end.saturating_sub(u64::from(window_end));
    if past > u64::from(hy_cont) || end > u64::from(header.fi_pages) {
        return Err(CoreError::Query(format!(
            "index record ends at page {end}: {past} past its window, the plan allows \
             {hy_cont}, the index has {}",
            header.fi_pages
        )));
    }
    for p in window_end..end as u32 {
        let pages = pir.fetch_batch(link, &[(scheme.index_file, p)])?;
        payloads.extend_from_slice(unseal_page(&pages[0])?);
    }
    for _ in past as u32..hy_cont {
        let dummy = rng.gen_range(0..data_pages.max(1));
        unseal_page(&pir.fetch_batch(link, &[(scheme.index_file, dummy)])?[0])?;
    }
    let t1 = Instant::now();
    let record = fi::decode_entry(&payloads[first..], page_len, rs, rt)?;
    client_s += t1.elapsed().as_secs_f64();

    // The region batch: the groups of `rs`, `rt` and the regions the record
    // names, real ones first, padded with dummies to the budget.
    let named: &[u16] = match &record {
        IndexPayload::Regions(v) => v,
        IndexPayload::Edges(_) => &[],
    };
    let real = (2 + named.len()) * cluster as usize;
    if real > budget as usize {
        return Err(CoreError::Query(format!(
            "index record names {} regions, more than the plan's batch of {budget} pages holds",
            named.len()
        )));
    }
    reqs.clear();
    for &reg in [rs, rt].iter().chain(named) {
        let group = header
            .region_page
            .get(usize::from(reg))
            .and_then(|&base| Some(base..base.checked_add(cluster)?))
            .ok_or_else(|| {
                CoreError::Query(format!(
                    "index record names region {reg}, the header has {}",
                    header.region_page.len()
                ))
            })?;
        reqs.extend(group.map(|p| (scheme.data_file, p)));
    }
    while (reqs.len() as u32) < budget {
        reqs.push((scheme.data_file, rng.gen_range(0..data_pages.max(1))));
    }
    let pages = pir.fetch_batch(link, reqs)?;

    // Assemble and solve (allocation-free in steady state: the arena, its
    // triple rows and the Dijkstra scratch are reused across the session's
    // queries, and a region the memo holds byte for byte is not refolded).
    let t1 = Instant::now();
    let fmt = &header.record_format;
    sub.add_page_groups(&pages[..real], cluster as usize, fmt, None, payloads)?;
    // dummy pages are discarded, but their checksums are still verified — a
    // tampering server cannot hide in the padding
    for page in &pages[real..] {
        unseal_page(page)?;
    }
    if let IndexPayload::Edges(triples) = &record {
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
    Ok(QueryOutput::new(
        pir,
        cost,
        &scratch.path,
        (s_node, t_node),
        false,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Database, QuerySession, SchemeKind, SchemeState};
    use privpath_graph::dijkstra::{distance, INFINITY};
    use privpath_graph::gen::{road_like, RoadGenConfig};
    use privpath_pir::{InProc, SystemSpec};
    use privpath_storage::{PageBuf, PagedFile};
    use std::sync::{Arc, Mutex};

    /// Every exchange a session's link served: `(round, requests)`.
    type Exchanges = Arc<Mutex<Vec<(u32, Vec<(FileId, u32)>)>>>;

    /// A page the links sharing it serve in place of the stored one, while
    /// it is set: `(file, page, bytes)`.
    type Resealed = Arc<Mutex<Option<(FileId, u32, PageBuf)>>>;

    /// An in-process link that logs every exchange and, when handed a
    /// forged page, serves it for every page round 3 asks of its file;
    /// while `resealed` is set, it serves that page in every round.
    struct Logged {
        inner: InProc<Arc<Database>>,
        log: Exchanges,
        forged: Option<(FileId, PageBuf)>,
        resealed: Resealed,
    }

    impl Transport for Logged {
        fn spec(&self) -> &SystemSpec {
            self.inner.spec()
        }

        fn file_pages(&self, f: FileId) -> privpath_pir::Result<u32> {
            self.inner.file_pages(f)
        }

        fn begin_query(&mut self) -> privpath_pir::Result<()> {
            self.log.lock().unwrap().clear();
            self.inner.begin_query()
        }

        fn serve_round(
            &mut self,
            round: u32,
            requests: &[(FileId, u32)],
            out: &mut [PageBuf],
        ) -> privpath_pir::Result<()> {
            self.log.lock().unwrap().push((round, requests.to_vec()));
            self.inner.serve_round(round, requests, out)?;
            if let (3, Some((file, page))) = (round, &self.forged) {
                for (&(f, _), buf) in requests.iter().zip(out.iter_mut()) {
                    if f == *file {
                        buf.as_mut_slice().copy_from_slice(page.as_slice());
                    }
                }
            }
            if let Some((file, page, bytes)) = &*self.resealed.lock().unwrap() {
                for (&request, buf) in requests.iter().zip(out.iter_mut()) {
                    if request == (*file, *page) {
                        buf.as_mut_slice().copy_from_slice(bytes.as_slice());
                    }
                }
            }
            Ok(())
        }

        fn download(&mut self, f: FileId) -> privpath_pir::Result<Vec<u8>> {
            self.inner.download(f)
        }

        fn close(&mut self) -> privpath_pir::Result<()> {
            self.inner.close()
        }
    }

    fn logged_session(
        db: &Arc<Database>,
        forged: Option<(FileId, PageBuf)>,
    ) -> (QuerySession, Exchanges) {
        let log = Exchanges::default();
        let link = Logged {
            inner: InProc::new(Arc::clone(db)),
            log: Arc::clone(&log),
            forged,
            resealed: Resealed::default(),
        };
        (db.session_over(5, Box::new(link)), log)
    }

    /// A session over a link that serves `resealed` while it is set.
    fn resealed_session(db: &Arc<Database>, resealed: &Resealed) -> QuerySession {
        let link = Logged {
            inner: InProc::new(Arc::clone(db)),
            log: Exchanges::default(),
            forged: None,
            resealed: Arc::clone(resealed),
        };
        db.session_over(5, Box::new(link))
    }

    /// The first arc `u -> v` of weight above 1, with `u` and `v` more than
    /// 1 apart in `net`, whose weight lies on the last page of its region's
    /// page group: `(u, v, page, that page with the weight lowered to 1)`.
    fn arc_to_lower(db: &Database, net: &RoadNetwork) -> (u32, u32, u32, PageBuf) {
        let h = db.header().unwrap();
        let page_size = h.page_size as usize;
        let page_len = page_size - PAGE_CRC_BYTES;
        let cluster = u32::from(h.cluster_pages);
        let fd = db
            .server
            .file_driver(db.file_of(PlanFile::Data).unwrap())
            .unwrap();
        let fmt = h.record_format;
        let (head_bytes, arc_bytes) = (fmt.node_bytes(0), fmt.node_bytes(1) - fmt.node_bytes(0));
        for &base in &h.region_page {
            let mut group = Vec::new();
            for p in base..base + cluster {
                group.extend_from_slice(unseal_page(&fd.read_page(p).unwrap()).unwrap());
            }
            let count = u16::from_le_bytes([group[2], group[3]]);
            let mut at = 4;
            for _ in 0..count {
                let u = u32::from_le_bytes(group[at..at + 4].try_into().unwrap());
                let degree =
                    u16::from_le_bytes([group[at + head_bytes - 2], group[at + head_bytes - 1]]);
                at += head_bytes;
                for _ in 0..degree {
                    let v = u32::from_le_bytes(group[at..at + 4].try_into().unwrap());
                    let w_at = at + 4;
                    let w = u32::from_le_bytes(group[w_at..w_at + 4].try_into().unwrap());
                    let page = w_at / page_len;
                    at += arc_bytes;
                    if w > 1
                        && page == (w_at + 3) / page_len
                        && page as u32 == cluster - 1
                        && distance(net, u, v) > 1
                    {
                        let mut payload = group[page * page_len..(page + 1) * page_len].to_vec();
                        payload[w_at % page_len..w_at % page_len + 4]
                            .copy_from_slice(&1u32.to_le_bytes());
                        let sealed = crate::files::seal_page(&payload, page_size);
                        return (u, v, base + page as u32, sealed);
                    }
                }
            }
        }
        panic!("no arc to lower");
    }

    /// The region memo never answers from bytes the link no longer serves.
    /// From query `k` on, the link serves one region page re-sealed (a
    /// valid CRC) with the weight of an arc `u -> v` lowered to 1; from
    /// query `k2` on, the stored page again. At every step a warm session
    /// equals a fresh one over the same link state — answers, paths, and
    /// meters with `client_s` zeroed — and its memo never holds more than
    /// one `Fd` of payload. Every query starts at `u`, so each folds the
    /// changed region, and every other one asks for `u -> v`, whose cost the
    /// change moves to 1: a memo that reused a region by its id alone would
    /// answer the old cost at `k` and the new one at `k2`. CI, and PI* at
    /// 512-byte pages (multi-page region groups, the changed page the last
    /// of its group).
    #[test]
    fn memo_never_answers_from_stale_region_bytes() {
        let net = road_like(&RoadGenConfig {
            nodes: 600,
            seed: 21,
            ..Default::default()
        });
        let n = net.num_nodes() as u32;
        for (kind, page_size) in [(SchemeKind::Ci, 4096), (SchemeKind::PiStar, 512)] {
            let mut cfg = BuildConfig::default();
            cfg.spec.page_size = page_size;
            let db = Arc::new(Database::build(&net, kind, &cfg).unwrap());
            let h = db.header().unwrap();
            assert!(
                kind == SchemeKind::Ci || h.cluster_pages > 1,
                "PI* with one-page groups"
            );
            let fd_bytes = h.fd_pages as usize * (page_size - PAGE_CRC_BYTES);
            let data = db.file_of(PlanFile::Data).unwrap();
            let (u, v, page, lowered) = arc_to_lower(&db, &net);

            let resealed = Resealed::default();
            let mut warm = resealed_session(&db, &resealed);
            let (k, k2) = (4, 8);
            for step in 0..12u32 {
                let changed = (k..k2).contains(&step);
                *resealed.lock().unwrap() = changed.then(|| (data, page, lowered.clone()));
                let t = if step % 2 == 0 {
                    v
                } else {
                    (step * 97 + 5) % n
                };
                let got = warm.query_nodes(&net, u, t).unwrap();
                let want = resealed_session(&db, &resealed)
                    .query_nodes(&net, u, t)
                    .unwrap();
                let at = format!("{kind:?} step {step}: {u} -> {t}");
                assert_eq!(got.answer.cost, want.answer.cost, "{at}");
                assert_eq!(got.answer.path_nodes, want.answer.path_nodes, "{at}");
                assert_eq!(
                    (got.answer.src_node, got.answer.dst_node),
                    (want.answer.src_node, want.answer.dst_node),
                    "{at}"
                );
                let (mut got_meter, mut want_meter) = (got.meter, want.meter);
                got_meter.client_s = 0.0;
                want_meter.client_s = 0.0;
                assert_eq!(got_meter, want_meter, "{at}");
                if t == v {
                    assert_eq!(want.answer.cost == Some(1), changed, "{at}");
                }
                assert!(
                    warm.memo_len() <= fd_bytes,
                    "{at}: memo {} > {fd_bytes}",
                    warm.memo_len()
                );
            }
        }
    }

    fn index_file_of(db: &Database) -> FileId {
        match &db.state {
            SchemeState::Index(scheme) => scheme.index_file,
            _ => unreachable!("an index-family database"),
        }
    }

    /// HY's round 4 opens with exactly `hy_cont` single-page exchanges and
    /// then one batch, whatever the record. A record that spans past the
    /// round-3 window is read from the pages right after it, in ascending
    /// order: some query over every pair of regions spends all `hy_cont`
    /// singles on them, and every answer is the network's distance.
    #[test]
    fn hybrid_walk_fetches_continuation_pages() {
        let net = road_like(&RoadGenConfig {
            nodes: 600,
            seed: 11,
            ..Default::default()
        });
        let mut cfg = BuildConfig::default();
        cfg.spec.page_size = 512;
        let db = Arc::new(Database::build(&net, SchemeKind::Hy, &cfg).unwrap());
        let h = db.header().unwrap();
        let batch = (u32::from(h.m_regions) + 2) * u32::from(h.cluster_pages);
        let hy_cont = (h.hy_round4 - batch) as usize;
        assert!(
            hy_cont > 0,
            "the 512-byte HY build has no continuation phase"
        );

        let mut one_node = vec![None; usize::from(h.num_regions)];
        for u in 0..net.num_nodes() as u32 {
            one_node[usize::from(h.tree.region_of(net.node_point(u)))].get_or_insert(u);
        }
        let nodes: Vec<u32> = one_node.into_iter().flatten().collect();
        let (mut session, log) = logged_session(&db, None);
        let mut walked = 0;
        for &s in &nodes {
            for &t in &nodes {
                let out = session.query_nodes(&net, s, t).unwrap();
                let want = Some(distance(&net, s, t)).filter(|&d| d != INFINITY);
                assert_eq!(out.answer.cost, want, "{s} -> {t}");
                let log = log.lock().unwrap();
                let window = &log.iter().find(|(round, _)| *round == 3).unwrap().1;
                let window_end = window.last().unwrap().1 + 1;
                let round4: Vec<&Vec<(FileId, u32)>> = log
                    .iter()
                    .filter(|(round, _)| *round == 4)
                    .map(|(_, requests)| requests)
                    .collect();
                assert_eq!(round4.len(), hy_cont + 1, "{s} -> {t}");
                assert!(round4[..hy_cont].iter().all(|r| r.len() == 1));
                assert_eq!(round4[hy_cont].len(), batch as usize);
                let singles: Vec<u32> = round4[..hy_cont].iter().map(|r| r[0].1).collect();
                if singles == (window_end..window_end + hy_cont as u32).collect::<Vec<_>>() {
                    walked += 1;
                }
            }
        }
        assert!(walked > 0, "no record spanned past its window");
    }

    /// A forged index record that names a region the header does not have,
    /// or more region groups than the plan's batch holds, ends a CI or HY
    /// query in a `CoreError::Query`, and the round-4 batch is never
    /// issued (HY's continuation singles are the plan's and still run).
    #[test]
    fn forged_region_ids_and_oversized_sets_are_query_errors() {
        let net = road_like(&RoadGenConfig {
            nodes: 400,
            seed: 4,
            ..Default::default()
        });
        let (s, t) = (3, 377);
        for kind in [SchemeKind::Ci, SchemeKind::Hy] {
            let db = Arc::new(Database::build(&net, kind, &BuildConfig::default()).unwrap());
            let h = db.header().unwrap();
            let (rs, rt) = (
                h.tree.region_of(net.node_point(s)),
                h.tree.region_of(net.node_point(t)),
            );
            let out_of_range = vec![h.num_regions];
            let oversized = vec![0; usize::from(h.m_regions) + 1];
            for regions in [out_of_range, oversized] {
                let mut fi = FiBuilder::new(h.page_size as usize, 0, false, 1);
                fi.add(rs, rt, IndexPayload::Regions(regions.clone()));
                let page = fi.finish().0.read_page(0).unwrap();
                let (mut session, log) = logged_session(&db, Some((index_file_of(&db), page)));
                let err = session.query_nodes(&net, s, t).unwrap_err();
                assert!(
                    matches!(err, CoreError::Query(_)),
                    "{kind:?} {regions:?}: {err}"
                );
                let log = log.lock().unwrap();
                assert!(
                    log.iter()
                        .all(|(round, r)| *round < 4 || (*round == 4 && r.len() == 1)),
                    "{kind:?} {regions:?}: issued {log:?}"
                );
            }
        }
    }

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

    /// The pre-computation of a 400-node network cut into regions of 1,000
    /// bytes.
    fn small_precompute() -> (RoadNetwork, Precomputed) {
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
        (net, pre)
    }

    #[test]
    fn hybrid_threshold_monotone_and_auto_picks_smallest() {
        let (net, pre) = small_precompute();
        let edge_bytes = edge_record_bytes(&net, &pre);
        // size estimates shrink as the threshold rises (fewer subgraphs)
        let sizes: Vec<u64> = (0..=pre.m)
            .map(|th| estimate_hybrid_index_bytes(&pre, &edge_bytes, th))
            .collect();
        assert!(
            sizes.windows(2).all(|w| w[0] >= w[1]),
            "estimate must be monotone"
        );
        // auto threshold honours a generous limit with threshold 0 (pure PI)
        let big_limit = sizes[0] + 1;
        assert_eq!(auto_hybrid_threshold(&pre, &edge_bytes, big_limit), 0);
        // and a tight limit forces a high threshold
        let tight = *sizes.last().unwrap();
        let th = auto_hybrid_threshold(&pre, &edge_bytes, tight);
        assert!(estimate_hybrid_index_bytes(&pre, &edge_bytes, th) <= tight.max(1));
    }

    /// HY's size estimate is the encoding that ships: at threshold 0 it
    /// equals the summed length of the records the `Fi` loop builds, each
    /// encoded literally.
    #[test]
    fn hybrid_estimate_at_threshold_zero_is_the_built_literal_bytes() {
        let (net, pre) = small_precompute();
        let flavor = IndexFlavor::Hybrid { threshold: 0 };
        let r = pre.num_regions;
        let mut built = 0;
        for i in 0..r {
            for j in 0..r {
                let payload = index_payload(&net, &pre, flavor, i, j);
                let mut w = privpath_storage::ByteWriter::new();
                crate::records::encode_literal(&payload, &mut w);
                built += w.len() as u64;
            }
        }
        let edge_bytes = edge_record_bytes(&net, &pre);
        assert_eq!(estimate_hybrid_index_bytes(&pre, &edge_bytes, 0), built);
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
