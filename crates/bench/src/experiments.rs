//! One function per table/figure of the paper's evaluation (§7).
//!
//! Every function prints an aligned table (plus the paper's reference values
//! where the paper reports absolute numbers) and writes a CSV under
//! `results/`. Networks are seeded synthetic stand-ins at the scales of
//! [`crate::scales`]; EXPERIMENTS.md ("Network scales") documents the
//! substitution and the scales.

use crate::report::{mb, secs, Table};
use crate::runner::{run_workload, WorkloadResult};
use crate::scales::{effective_scale, parse_scale_arg};
use privpath_core::config::BuildConfig;
use privpath_core::engine::SchemeKind;
use privpath_core::{CoreError, Result};
use privpath_graph::gen::{paper_network, PaperNetwork, ALL_PAPER_NETWORKS};
use privpath_graph::network::RoadNetwork;
use privpath_pir::SystemSpec;

/// Harness-wide knobs from the CLI.
#[derive(Debug, Clone)]
pub struct ExpCtx {
    /// Multiplier on the default per-network scales.
    pub scale_factor: f64,
    /// Queries per workload (paper: 1000).
    pub queries: usize,
    /// Pre-computation threads (0 = all cores).
    pub threads: usize,
}

impl Default for ExpCtx {
    fn default() -> Self {
        ExpCtx {
            scale_factor: 1.0,
            queries: 100,
            threads: 0,
        }
    }
}

impl ExpCtx {
    fn cfg(&self) -> BuildConfig {
        BuildConfig {
            threads: self.threads,
            ..Default::default()
        }
    }

    fn net(&self, which: PaperNetwork) -> (RoadNetwork, f64) {
        let scale = effective_scale(which, self.scale_factor);
        (paper_network(which, scale), scale)
    }

    /// Scales the SCP memory with the network so the PIR file-size limit
    /// binds at reduced scale exactly as the 2.5 GB limit binds at full
    /// scale (used by the large-network experiments, §7.5).
    fn scaled_spec(&self, scale: f64) -> SystemSpec {
        let mut spec = SystemSpec::default();
        spec.scp_memory_bytes =
            ((spec.scp_memory_bytes as f64) * scale).max((1u64 << 20) as f64) as u64;
        spec
    }
}

/// All experiment ids, in paper order.
pub const ALL_EXPERIMENTS: [&str; 11] = [
    "table1", "table2", "fig5", "table3", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
];

/// Parses the `experiments` command line (everything after the program
/// name): an experiment id — one of [`ALL_EXPERIMENTS`] or `all` — then
/// `--scale F|full`, `--queries N` (at least 1) and `--threads T` in any
/// order. Every `Err` is a usage error, raised before any network is
/// generated.
pub fn parse_args(args: &[String]) -> std::result::Result<(String, ExpCtx), String> {
    let (id, flags) = args.split_first().ok_or("missing experiment id")?;
    if id != "all" && !ALL_EXPERIMENTS.contains(&id.as_str()) {
        return Err(format!("unknown experiment '{id}'"));
    }
    let mut ctx = ExpCtx::default();
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--scale" => {
                let v = value()?;
                ctx.scale_factor = parse_scale_arg(v)
                    .ok_or_else(|| format!("--scale: not a positive factor or 'full': '{v}'"))?;
            }
            "--queries" => {
                let v = value()?;
                ctx.queries = v
                    .parse()
                    .ok()
                    .filter(|&q| q >= 1)
                    .ok_or_else(|| format!("--queries: not an integer >= 1: '{v}'"))?;
            }
            "--threads" => {
                let v = value()?;
                ctx.threads = v
                    .parse()
                    .map_err(|_| format!("--threads: not a non-negative integer: '{v}'"))?;
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok((id.clone(), ctx))
}

/// Runs one experiment by id (or `all`).
pub fn run(id: &str, ctx: &ExpCtx) -> Result<()> {
    match id {
        "table1" => table1(ctx),
        "table2" => table2(ctx),
        "fig5" => fig5(ctx),
        "table3" => table3(ctx),
        "fig6" => fig6(ctx),
        "fig7" => fig7(ctx),
        "fig8" => fig8(ctx),
        "fig9" => fig9(ctx),
        "fig10" => fig10(ctx),
        "fig11" => fig11(ctx),
        "fig12" => fig12(ctx),
        "all" => {
            for e in ALL_EXPERIMENTS {
                run(e, ctx)?;
            }
            Ok(())
        }
        other => Err(CoreError::Build(format!(
            "unknown experiment '{other}' (expected one of {ALL_EXPERIMENTS:?} or 'all')"
        ))),
    }
}

/// Table 1: the road networks (paper counts vs generated stand-ins).
pub fn table1(ctx: &ExpCtx) -> Result<()> {
    let mut t = Table::new(
        "Table 1: road networks (synthetic stand-ins)",
        &[
            "network",
            "paper nodes",
            "paper edges",
            "scale",
            "gen nodes",
            "gen edges",
        ],
    );
    for which in ALL_PAPER_NETWORKS {
        let (net, scale) = ctx.net(which);
        t.row(vec![
            which.name().into(),
            which.nodes().to_string(),
            which.edges().to_string(),
            format!("{scale:.3}"),
            net.num_nodes().to_string(),
            (net.num_arcs() / 2).to_string(),
        ]);
    }
    t.emit("table1");
    Ok(())
}

/// Table 2: system specifications (the simulation constants in force).
pub fn table2(_ctx: &ExpCtx) -> Result<()> {
    let s = SystemSpec::default();
    let mut t = Table::new("Table 2: system specifications", &["parameter", "value"]);
    t.row(vec!["Disk page size".into(), format!("{} B", s.page_size)]);
    t.row(vec![
        "Disk seek time".into(),
        format!("{} ms", s.disk_seek_s * 1e3),
    ]);
    t.row(vec![
        "Disk read/write rate".into(),
        format!("{} MB/s", s.disk_rate_bps / 1e6),
    ]);
    t.row(vec![
        "SCP read/write rate".into(),
        format!("{} MB/s", s.scp_io_rate_bps / 1e6),
    ]);
    t.row(vec![
        "SCP crypto rate".into(),
        format!("{} MB/s", s.crypto_rate_bps / 1e6),
    ]);
    t.row(vec![
        "Communication bandwidth".into(),
        format!("{} KB/s", s.comm_rate_bps / 1024.0),
    ]);
    t.row(vec![
        "Communication RTT".into(),
        format!("{} ms", s.comm_rtt_s * 1e3),
    ]);
    t.row(vec![
        "SCP memory".into(),
        format!("{} MB", s.scp_memory_bytes >> 20),
    ]);
    t.row(vec![
        "Max PIR file".into(),
        format!("{:.2} GB", s.max_file_bytes() as f64 / 1e9),
    ]);
    t.emit("table2");
    Ok(())
}

/// Figure 5: LM tuning — response time and space vs number of landmarks
/// (Argentina). Paper: best at 5 anchors; too few → weak bounds, too many →
/// bigger Fd and costlier PIR fetches.
pub fn fig5(ctx: &ExpCtx) -> Result<()> {
    let (net, scale) = ctx.net(PaperNetwork::Argentina);
    let mut t = Table::new(
        &format!("Figure 5: LM tuning (Argentina @ {scale:.3})"),
        &[
            "landmarks",
            "response (s)",
            "space (MB)",
            "Fd pages",
            "plan pages",
        ],
    );
    for k in [1usize, 2, 5, 8, 12, 16, 20] {
        let mut cfg = ctx.cfg();
        cfg.landmarks = k;
        let r = run_workload(&net, SchemeKind::Lm, &cfg, ctx.queries, 77)?;
        t.row(vec![
            k.to_string(),
            secs(r.response_s()),
            mb(r.db_bytes),
            r.stats.pages.2.to_string(),
            r.avg.total_fetches().to_string(),
        ]);
    }
    t.emit("fig5");
    Ok(())
}

fn component_rows(t: &mut Table, r: &WorkloadResult, paper: Option<[&str; 4]>) {
    let p = paper.unwrap_or(["-", "-", "-", "-"]);
    t.row(vec![
        r.kind.name().into(),
        secs(r.response_s()),
        p[0].into(),
        secs(r.avg.pir.total_s()),
        p[1].into(),
        secs(r.avg.comm_s),
        p[2].into(),
        format!("{:.3}", r.avg.client_s),
        format!("{}", r.avg.total_fetches()),
        format!(
            "(fl {}, fi {}, fd {})",
            r.stats.pages.0, r.stats.pages.1, r.stats.pages.2
        ),
        mb(r.db_bytes),
        p[3].into(),
    ]);
}

/// Table 3: response-time components on Argentina for AF, LM, CI, PI.
pub fn table3(ctx: &ExpCtx) -> Result<()> {
    let (net, scale) = ctx.net(PaperNetwork::Argentina);
    let mut t = Table::new(
        &format!("Table 3: components of response time (Argentina @ {scale:.3}; 'paper' columns are the full-scale published values)"),
        &[
            "method",
            "resp (s)",
            "paper",
            "PIR (s)",
            "paper",
            "comm (s)",
            "paper",
            "client (s)",
            "fetches",
            "file pages",
            "space (MB)",
            "paper MB",
        ],
    );
    let paper: [(SchemeKind, [&str; 4]); 4] = [
        (SchemeKind::Af, ["324.18", "272.56", "51.47", "3.28"]),
        (SchemeKind::Lm, ["311.93", "265.38", "46.43", "4.38"]),
        (SchemeKind::Ci, ["105.45", "88.09", "17.34", "8.40"]),
        (SchemeKind::Pi, ["58.17", "54.21", "3.94", "1102"]),
    ];
    for (kind, p) in paper {
        let r = run_workload(&net, kind, &ctx.cfg(), ctx.queries, 31)?;
        component_rows(&mut t, &r, Some(p));
        if r.violations > 0 {
            println!("note: {} plan violations for {}", r.violations, kind.name());
        }
    }
    t.emit("table3");
    Ok(())
}

/// Figure 6: OBF response time vs |S| = |T| (Argentina), with CI and PI
/// reference lines. OBF leaks the candidate sets — performance context only.
pub fn fig6(ctx: &ExpCtx) -> Result<()> {
    let (net, scale) = ctx.net(PaperNetwork::Argentina);
    let mut t = Table::new(
        &format!("Figure 6: OBF vs decoy-set size (Argentina @ {scale:.3})"),
        &[
            "method",
            "|S|=|T|",
            "response (s)",
            "server (s)",
            "comm (s)",
            "shipped MB",
        ],
    );
    for decoys in [20usize, 40, 60, 80, 100] {
        let mut cfg = ctx.cfg();
        cfg.obf_decoys = decoys;
        let r = run_workload(&net, SchemeKind::Obf, &cfg, ctx.queries.min(30), 55)?;
        t.row(vec![
            "OBF".into(),
            decoys.to_string(),
            secs(r.response_s()),
            secs(r.avg.server_s),
            secs(r.avg.comm_s),
            mb(r.avg.bytes_transferred),
        ]);
    }
    for kind in [SchemeKind::Ci, SchemeKind::Pi] {
        let r = run_workload(&net, kind, &ctx.cfg(), ctx.queries.min(30), 55)?;
        t.row(vec![
            kind.name().into(),
            "-".into(),
            secs(r.response_s()),
            "0".into(),
            secs(r.avg.comm_s),
            "-".into(),
        ]);
    }
    t.emit("fig6");
    Ok(())
}

/// Figure 7: AF/LM/CI/PI across Oldenburg, Germany, Argentina.
pub fn fig7(ctx: &ExpCtx) -> Result<()> {
    let mut t = Table::new(
        "Figure 7: response time and space on different road networks",
        &[
            "network",
            "scale",
            "method",
            "response (s)",
            "space (MB)",
            "fetches",
        ],
    );
    for which in [
        PaperNetwork::Oldenburg,
        PaperNetwork::Germany,
        PaperNetwork::Argentina,
    ] {
        let (net, scale) = ctx.net(which);
        for kind in [
            SchemeKind::Af,
            SchemeKind::Lm,
            SchemeKind::Ci,
            SchemeKind::Pi,
        ] {
            let r = run_workload(&net, kind, &ctx.cfg(), ctx.queries, 41)?;
            t.row(vec![
                which.short_name().into(),
                format!("{scale:.3}"),
                kind.name().into(),
                secs(r.response_s()),
                mb(r.db_bytes),
                r.avg.total_fetches().to_string(),
            ]);
        }
    }
    t.emit("fig7");
    Ok(())
}

/// Figure 8: packed vs plain KD-tree partitioning (CI, CI-P, PI, PI-P).
pub fn fig8(ctx: &ExpCtx) -> Result<()> {
    let mut t = Table::new(
        "Figure 8: effect of packed partitioning",
        &[
            "network",
            "variant",
            "Fd util (%)",
            "response (s)",
            "space (MB)",
            "regions",
        ],
    );
    for which in [
        PaperNetwork::Oldenburg,
        PaperNetwork::Germany,
        PaperNetwork::Argentina,
    ] {
        let (net, _) = ctx.net(which);
        for (kind, packed, label) in [
            (SchemeKind::Ci, true, "CI"),
            (SchemeKind::Ci, false, "CI-P"),
            (SchemeKind::Pi, true, "PI"),
            (SchemeKind::Pi, false, "PI-P"),
        ] {
            let mut cfg = ctx.cfg();
            cfg.packed_partition = packed;
            let r = run_workload(&net, kind, &cfg, ctx.queries, 43)?;
            t.row(vec![
                which.short_name().into(),
                label.into(),
                format!("{:.1}", r.stats.fd_utilization * 100.0),
                secs(r.response_s()),
                mb(r.db_bytes),
                r.stats.regions.to_string(),
            ]);
        }
    }
    t.emit("fig8");
    Ok(())
}

/// Figure 9: index compression on/off (CI, CI-C, PI, PI-C).
pub fn fig9(ctx: &ExpCtx) -> Result<()> {
    let mut t = Table::new(
        "Figure 9: effect of index compression",
        &[
            "network",
            "variant",
            "response (s)",
            "space (MB)",
            "Fi pages",
        ],
    );
    for which in [
        PaperNetwork::Oldenburg,
        PaperNetwork::Germany,
        PaperNetwork::Argentina,
    ] {
        let (net, _) = ctx.net(which);
        for (kind, compress, label) in [
            (SchemeKind::Ci, true, "CI"),
            (SchemeKind::Ci, false, "CI-C"),
            (SchemeKind::Pi, true, "PI"),
            (SchemeKind::Pi, false, "PI-C"),
        ] {
            let mut cfg = ctx.cfg();
            cfg.compress_index = compress;
            match run_workload(&net, kind, &cfg, ctx.queries, 47) {
                Ok(r) => t.row(vec![
                    which.short_name().into(),
                    label.into(),
                    secs(r.response_s()),
                    mb(r.db_bytes),
                    r.stats.pages.1.to_string(),
                ]),
                Err(CoreError::Pir(privpath_pir::PirError::FileTooLarge { .. })) => t.row(vec![
                    which.short_name().into(),
                    label.into(),
                    "Nil".into(),
                    "Nil".into(),
                    "-".into(),
                ]),
                Err(e) => return Err(e),
            }
        }
    }
    t.emit("fig9");
    Ok(())
}

/// Figure 10: HY on Denmark — |S_ij| histogram plus the threshold sweep.
/// The SCP memory scales with the network so the file-size limit binds as it
/// does at full scale.
pub fn fig10(ctx: &ExpCtx) -> Result<()> {
    let (net, scale) = ctx.net(PaperNetwork::Denmark);
    let spec = ctx.scaled_spec(scale);

    // (a) the |S_ij| cardinality histogram from a CI build
    let mut cfg = ctx.cfg();
    cfg.spec = spec.clone();
    let ci = run_workload(&net, SchemeKind::Ci, &cfg, ctx.queries, 61)?;
    let mut ha = Table::new(
        &format!(
            "Figure 10(a): |S_ij| distribution (Denmark @ {scale:.3}, m = {})",
            ci.stats.m
        ),
        &["|S_ij| bucket", "pairs"],
    );
    let bucket = (ci.stats.m as usize / 12).max(1);
    let mut buckets = std::collections::BTreeMap::new();
    for &(len, count) in &ci.stats.s_histogram {
        *buckets.entry(len / bucket).or_insert(0usize) += count;
    }
    for (b, count) in buckets {
        ha.row(vec![
            format!("{}..{}", b * bucket, (b + 1) * bucket - 1),
            count.to_string(),
        ]);
    }
    ha.emit("fig10a");

    // (b, c) threshold sweep
    let mut t = Table::new(
        &format!(
            "Figure 10(b,c): HY threshold sweep (Denmark @ {scale:.3}; PIR file limit {:.1} MB)",
            spec.max_file_bytes() as f64 / 1e6
        ),
        &[
            "variant",
            "threshold",
            "response (s)",
            "space (MB)",
            "plan fetches",
        ],
    );
    let m = ci.stats.m as usize;
    t.row(vec![
        "CI".into(),
        "-".into(),
        secs(ci.response_s()),
        mb(ci.db_bytes),
        ci.avg.total_fetches().to_string(),
    ]);
    for frac in [0.15, 0.3, 0.5, 0.7, 0.9] {
        let threshold = ((m as f64 * frac) as usize).max(1);
        let mut cfg = ctx.cfg();
        cfg.spec = spec.clone();
        cfg.hy_threshold = Some(threshold);
        match run_workload(&net, SchemeKind::Hy, &cfg, ctx.queries, 61) {
            Ok(r) => t.row(vec![
                "HY".into(),
                threshold.to_string(),
                secs(r.response_s()),
                mb(r.db_bytes),
                r.avg.total_fetches().to_string(),
            ]),
            Err(CoreError::Pir(privpath_pir::PirError::FileTooLarge { .. })) => t.row(vec![
                "HY".into(),
                threshold.to_string(),
                "Nil (exceeds PIR limit)".into(),
                "-".into(),
                "-".into(),
            ]),
            Err(e) => return Err(e),
        }
    }
    t.emit("fig10");
    Ok(())
}

/// Figure 11: PI* cluster-size sweep on Denmark (scaled SCP).
pub fn fig11(ctx: &ExpCtx) -> Result<()> {
    let (net, scale) = ctx.net(PaperNetwork::Denmark);
    let spec = ctx.scaled_spec(scale);
    let mut t = Table::new(
        &format!(
            "Figure 11: PI* vs cluster size (Denmark @ {scale:.3}; PIR file limit {:.1} MB)",
            spec.max_file_bytes() as f64 / 1e6
        ),
        &[
            "variant",
            "cluster pages",
            "response (s)",
            "space (MB)",
            "regions",
        ],
    );
    let mut cfg = ctx.cfg();
    cfg.spec = spec.clone();
    let ci = run_workload(&net, SchemeKind::Ci, &cfg, ctx.queries, 67)?;
    t.row(vec![
        "CI".into(),
        "1".into(),
        secs(ci.response_s()),
        mb(ci.db_bytes),
        ci.stats.regions.to_string(),
    ]);
    for cluster in [2u16, 4, 6, 8, 12, 16] {
        let mut cfg = ctx.cfg();
        cfg.spec = spec.clone();
        cfg.cluster_pages = cluster;
        match run_workload(&net, SchemeKind::PiStar, &cfg, ctx.queries, 67) {
            Ok(r) => t.row(vec![
                "PI*".into(),
                cluster.to_string(),
                secs(r.response_s()),
                mb(r.db_bytes),
                r.stats.regions.to_string(),
            ]),
            Err(CoreError::Pir(privpath_pir::PirError::FileTooLarge { .. })) => t.row(vec![
                "PI*".into(),
                cluster.to_string(),
                "Nil (exceeds PIR limit)".into(),
                "-".into(),
                "-".into(),
            ]),
            Err(e) => return Err(e),
        }
    }
    t.emit("fig11");
    Ok(())
}

/// Figure 12: CI vs HY vs PI* on the three large networks (scaled SCP).
pub fn fig12(ctx: &ExpCtx) -> Result<()> {
    let mut t = Table::new(
        "Figure 12: performance on larger networks",
        &[
            "network",
            "scale",
            "method",
            "response (s)",
            "space (MB)",
            "fetches",
        ],
    );
    for which in [
        PaperNetwork::Denmark,
        PaperNetwork::India,
        PaperNetwork::NorthAmerica,
    ] {
        let (net, scale) = ctx.net(which);
        let spec = ctx.scaled_spec(scale);
        // CI
        let mut cfg = ctx.cfg();
        cfg.spec = spec.clone();
        let ci = run_workload(&net, SchemeKind::Ci, &cfg, ctx.queries, 71)?;
        t.row(vec![
            which.short_name().into(),
            format!("{scale:.3}"),
            "CI".into(),
            secs(ci.response_s()),
            mb(ci.db_bytes),
            ci.avg.total_fetches().to_string(),
        ]);
        // HY auto-tuned to the (scaled) PIR limit
        let mut cfg = ctx.cfg();
        cfg.spec = spec.clone();
        cfg.hy_threshold = None;
        let hy = run_workload(&net, SchemeKind::Hy, &cfg, ctx.queries, 71)?;
        t.row(vec![
            which.short_name().into(),
            format!("{scale:.3}"),
            "HY".into(),
            secs(hy.response_s()),
            mb(hy.db_bytes),
            hy.avg.total_fetches().to_string(),
        ]);
        // PI*: smallest cluster whose index fits
        let mut placed = false;
        for cluster in [2u16, 3, 4, 6, 8, 12, 16] {
            let mut cfg = ctx.cfg();
            cfg.spec = spec.clone();
            cfg.cluster_pages = cluster;
            match run_workload(&net, SchemeKind::PiStar, &cfg, ctx.queries, 71) {
                Ok(r) => {
                    t.row(vec![
                        which.short_name().into(),
                        format!("{scale:.3}"),
                        format!("PI* (k={cluster})"),
                        secs(r.response_s()),
                        mb(r.db_bytes),
                        r.avg.total_fetches().to_string(),
                    ]);
                    placed = true;
                    break;
                }
                Err(CoreError::Pir(privpath_pir::PirError::FileTooLarge { .. })) => continue,
                Err(e) => return Err(e),
            }
        }
        if !placed {
            t.row(vec![
                which.short_name().into(),
                format!("{scale:.3}"),
                "PI*".into(),
                "Nil".into(),
                "-".into(),
                "-".into(),
            ]);
        }
    }
    t.emit("fig12");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scales::FULL_SCALE;

    fn parse(line: &str) -> std::result::Result<(String, ExpCtx), String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn parse_args_rejects_usage_errors() {
        for (line, needle) in [
            ("", "missing experiment id"),
            ("bogus", "unknown experiment 'bogus'"),
            ("--queries 4", "unknown experiment '--queries'"),
            ("table3 --queries 0", "--queries"),
            ("table3 --queries many", "--queries"),
            ("table3 --queries", "--queries needs a value"),
            ("fig7 --scale bogus", "--scale"),
            ("fig7 --scale 0", "--scale"),
            ("fig7 --threads -1", "--threads"),
            ("fig7 --nodes 5", "unknown flag '--nodes'"),
        ] {
            let err = parse(line).expect_err(line);
            assert!(err.contains(needle), "'{line}' gave: {err}");
        }
    }

    #[test]
    fn parse_args_accepts_ids_and_flags() {
        let (id, ctx) = parse("all").unwrap();
        assert_eq!(id, "all");
        let d = ExpCtx::default();
        assert_eq!(
            (ctx.scale_factor, ctx.queries, ctx.threads),
            (d.scale_factor, d.queries, d.threads)
        );

        let (id, ctx) = parse("fig7 --scale full --queries 1 --threads 2").unwrap();
        assert_eq!(id, "fig7");
        assert_eq!(ctx.scale_factor, FULL_SCALE);
        assert_eq!((ctx.queries, ctx.threads), (1, 2));

        for id in ALL_EXPERIMENTS {
            let (parsed, ctx) = parse(&format!("{id} --threads 3 --scale 0.1")).unwrap();
            assert_eq!(parsed, id);
            assert_eq!((ctx.scale_factor, ctx.threads), (0.1, 3));
        }
    }
}
