//! End-to-end tests: every scheme must return optimal shortest-path costs
//! through the full PIR protocol, and every query must be indistinguishable
//! from every other (Theorem 1).

use privpath_core::audit::assert_indistinguishable;
use privpath_core::config::BuildConfig;
use privpath_core::engine::{Database, SchemeKind};
use privpath_graph::dijkstra::{distance, INFINITY};
use privpath_graph::gen::{road_like, RoadGenConfig};
use privpath_graph::network::RoadNetwork;
use privpath_pir::PirMode;
use std::sync::Arc;

fn test_net(nodes: usize, seed: u64) -> RoadNetwork {
    road_like(&RoadGenConfig {
        nodes,
        seed,
        extra_edge_frac: 0.15,
        ..Default::default()
    })
}

fn small_cfg() -> BuildConfig {
    let mut cfg = BuildConfig::default();
    // Small pages so a few-hundred-node network still yields many regions.
    cfg.spec.page_size = 512;
    cfg.plan_sample = 0; // exhaustive plan derivation (paper's method)
    cfg
}

fn query_pairs(net: &RoadNetwork, count: usize) -> Vec<(u32, u32)> {
    let n = net.num_nodes() as u32;
    (0..count as u32)
        .map(|k| ((k * 131 + 7) % n, (k * 277 + 83) % n))
        .collect()
}

fn check_scheme(kind: SchemeKind, cfg: &BuildConfig, nodes: usize, seed: u64, queries: usize) {
    let net = test_net(nodes, seed);
    let db = Database::build(&net, kind, cfg)
        .unwrap_or_else(|e| panic!("{} build failed: {e}", kind.name()));
    let mut session = Arc::new(db).session();
    let mut traces = Vec::new();
    for (s, t) in query_pairs(&net, queries) {
        let out = session
            .query_nodes(&net, s, t)
            .unwrap_or_else(|e| panic!("{} query {s}->{t} failed: {e}", kind.name()));
        assert!(
            !out.plan_violation,
            "{}: plan violation for {s}->{t}",
            kind.name()
        );
        let want = distance(&net, s, t);
        let got = out.answer.cost.unwrap_or(INFINITY);
        assert_eq!(got, want, "{}: wrong cost for {s}->{t}", kind.name());
        assert_eq!(
            out.answer.src_node,
            s,
            "{}: snapped to wrong source",
            kind.name()
        );
        assert_eq!(
            out.answer.dst_node,
            t,
            "{}: snapped to wrong target",
            kind.name()
        );
        traces.push(out.trace);
    }
    assert_indistinguishable(&traces)
        .unwrap_or_else(|e| panic!("{}: queries distinguishable: {e}", kind.name()));
}

#[test]
fn ci_returns_optimal_costs_and_uniform_traces() {
    check_scheme(SchemeKind::Ci, &small_cfg(), 350, 101, 25);
}

#[test]
fn pi_returns_optimal_costs_and_uniform_traces() {
    check_scheme(SchemeKind::Pi, &small_cfg(), 350, 102, 25);
}

#[test]
fn pistar_returns_optimal_costs_and_uniform_traces() {
    let mut cfg = small_cfg();
    cfg.cluster_pages = 3;
    check_scheme(SchemeKind::PiStar, &cfg, 350, 103, 25);
}

#[test]
fn hy_returns_optimal_costs_and_uniform_traces() {
    let mut cfg = small_cfg();
    cfg.hy_threshold = Some(4); // force a mix of sets and subgraphs
    check_scheme(SchemeKind::Hy, &cfg, 350, 104, 25);
}

#[test]
fn hy_auto_threshold_works() {
    let mut cfg = small_cfg();
    cfg.hy_threshold = None;
    check_scheme(SchemeKind::Hy, &cfg, 250, 105, 15);
}

#[test]
fn lm_returns_optimal_costs_and_uniform_traces() {
    let mut cfg = small_cfg();
    cfg.landmarks = 4;
    check_scheme(SchemeKind::Lm, &cfg, 250, 106, 20);
}

#[test]
fn af_returns_optimal_costs_and_uniform_traces() {
    let mut cfg = small_cfg();
    cfg.af_regions = 8;
    check_scheme(SchemeKind::Af, &cfg, 250, 107, 20);
}

#[test]
fn obf_returns_optimal_costs_via_unified_api() {
    // OBF has no PIR trace guarantee (its leakage is the candidate sets),
    // but it builds and queries through the same Database/QuerySession API
    // and must return optimal costs.
    let net = test_net(250, 114);
    let mut cfg = small_cfg();
    cfg.obf_decoys = 6;
    let mut session = Arc::new(Database::build(&net, SchemeKind::Obf, &cfg).unwrap()).session();
    for (s, t) in query_pairs(&net, 12) {
        let out = session.query_nodes(&net, s, t).unwrap();
        let want = distance(&net, s, t);
        assert_eq!(out.answer.cost.unwrap_or(INFINITY), want, "OBF {s}->{t}");
        assert_eq!(out.meter.total_fetches(), 0, "OBF performs no PIR fetches");
        assert!(out.meter.server_s > 0.0, "OBF charges server compute");
    }
}

#[test]
fn ci_without_compression_still_correct() {
    let mut cfg = small_cfg();
    cfg.compress_index = false;
    check_scheme(SchemeKind::Ci, &cfg, 300, 108, 15);
}

#[test]
fn ci_with_plain_partition_still_correct() {
    let mut cfg = small_cfg();
    cfg.packed_partition = false;
    check_scheme(SchemeKind::Ci, &cfg, 300, 109, 15);
}

#[test]
fn functional_pir_backends_agree_with_cost_only() {
    for mode in [PirMode::LinearScan, PirMode::Shuffled { seed: 5 }] {
        let mut cfg = small_cfg();
        cfg.pir_mode = mode;
        check_scheme(SchemeKind::Ci, &cfg, 200, 110, 8);
    }
}

#[test]
fn db_sizes_are_ordered_ci_smallest() {
    // Table 3 / Figure 7(b): PI's database dwarfs CI's.
    let net = test_net(400, 111);
    let cfg = small_cfg();
    let ci = Database::build(&net, SchemeKind::Ci, &cfg).unwrap();
    let pi = Database::build(&net, SchemeKind::Pi, &cfg).unwrap();
    assert!(
        pi.db_bytes() > ci.db_bytes(),
        "PI ({}) should outweigh CI ({})",
        pi.db_bytes(),
        ci.db_bytes()
    );
}

#[test]
fn pi_fetches_fewer_pages_than_ci() {
    // Table 3: CI incurs many more PIR accesses than PI.
    let net = test_net(400, 112);
    let cfg = small_cfg();
    let mut ci = Arc::new(Database::build(&net, SchemeKind::Ci, &cfg).unwrap()).session();
    let mut pi = Arc::new(Database::build(&net, SchemeKind::Pi, &cfg).unwrap()).session();
    let (s, t) = (0u32, (net.num_nodes() - 1) as u32);
    let ci_out = ci.query_nodes(&net, s, t).unwrap();
    let pi_out = pi.query_nodes(&net, s, t).unwrap();
    assert!(
        pi_out.meter.total_fetches() < ci_out.meter.total_fetches(),
        "PI fetched {} pages, CI fetched {}",
        pi_out.meter.total_fetches(),
        ci_out.meter.total_fetches()
    );
}

#[test]
fn same_query_twice_is_indistinguishable_and_consistent() {
    let net = test_net(300, 113);
    let mut session =
        Arc::new(Database::build(&net, SchemeKind::Ci, &small_cfg()).unwrap()).session();
    let a = session.query_nodes(&net, 3, 250).unwrap();
    let b = session.query_nodes(&net, 3, 250).unwrap();
    assert_eq!(a.answer.cost, b.answer.cost);
    assert_eq!(a.trace, b.trace);
}
