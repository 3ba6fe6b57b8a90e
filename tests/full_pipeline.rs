//! Cross-crate integration tests: the full pipeline from network generation
//! through partitioning, pre-computation, file formation, PIR protocol, and
//! client-side path computation.

use privpath::core::audit::assert_indistinguishable;
use privpath::core::config::BuildConfig;
use privpath::core::engine::{Database, QuerySession, SchemeKind};
use privpath::graph::dijkstra::{distance, INFINITY};
use privpath::graph::gen::{grid_network, road_like, GridGenConfig, RoadGenConfig};
use privpath::graph::network::RoadNetwork;
use std::sync::Arc;

fn cfg_small() -> BuildConfig {
    let mut cfg = BuildConfig::default();
    cfg.spec.page_size = 512;
    cfg.plan_sample = 0;
    cfg
}

fn all_schemes() -> [SchemeKind; 6] {
    [
        SchemeKind::Ci,
        SchemeKind::Pi,
        SchemeKind::Hy,
        SchemeKind::PiStar,
        SchemeKind::Lm,
        SchemeKind::Af,
    ]
}

fn verify_costs(
    net: &RoadNetwork,
    kind: SchemeKind,
    session: &mut QuerySession,
    pairs: &[(u32, u32)],
) {
    for &(s, t) in pairs {
        let out = session.query_nodes(net, s, t).expect("query");
        let want = distance(net, s, t);
        assert_eq!(
            out.answer.cost.unwrap_or(INFINITY),
            want,
            "{}: cost mismatch {s}->{t}",
            kind.name()
        );
        if out.answer.found() {
            // returned node path must chain from s to t
            assert_eq!(out.answer.path_nodes.first(), Some(&s));
            assert_eq!(out.answer.path_nodes.last(), Some(&t));
        }
    }
}

#[test]
fn every_scheme_on_a_grid_city() {
    // Grids have massive coordinate ties — the partition builders' boundary
    // handling gets exercised hard here.
    let net = grid_network(&GridGenConfig {
        nx: 15,
        ny: 15,
        ..Default::default()
    });
    let pairs: Vec<(u32, u32)> = (0..10u32)
        .map(|k| ((k * 17) % 225, (k * 101 + 60) % 225))
        .collect();
    for kind in all_schemes() {
        let db = Database::build(&net, kind, &cfg_small())
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        verify_costs(&net, kind, &mut Arc::new(db).session(), &pairs);
    }
}

#[test]
fn every_scheme_on_a_road_network() {
    let net = road_like(&RoadGenConfig {
        nodes: 280,
        seed: 2024,
        ..Default::default()
    });
    let n = net.num_nodes() as u32;
    let pairs: Vec<(u32, u32)> = (0..10u32)
        .map(|k| ((k * 37) % n, (k * 211 + 13) % n))
        .collect();
    for kind in all_schemes() {
        let db = Database::build(&net, kind, &cfg_small())
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        verify_costs(&net, kind, &mut Arc::new(db).session(), &pairs);
    }
}

#[test]
fn traces_uniform_across_schemes_and_extreme_queries() {
    // Adjacent nodes, identical regions, antipodal extremes — all must look
    // the same.
    let net = road_like(&RoadGenConfig {
        nodes: 300,
        seed: 77,
        ..Default::default()
    });
    let n = net.num_nodes() as u32;
    let pairs = [
        (0u32, 1u32),
        (5, 6),
        (0, n - 1),
        (n / 2, n / 2 + 1),
        (3, n / 3),
    ];
    for kind in all_schemes() {
        let mut session =
            Arc::new(Database::build(&net, kind, &cfg_small()).expect("build")).session();
        let mut traces = Vec::new();
        for &(s, t) in &pairs {
            let out = session.query_nodes(&net, s, t).expect("query");
            assert!(!out.plan_violation, "{}: plan violation", kind.name());
            traces.push(out.trace);
        }
        assert_indistinguishable(&traces).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
    }
}

#[test]
fn same_region_queries_work() {
    let net = road_like(&RoadGenConfig {
        nodes: 300,
        seed: 3,
        ..Default::default()
    });
    let db = Arc::new(Database::build(&net, SchemeKind::Ci, &cfg_small()).expect("build"));
    let mut session = db.session();
    // find two nodes in the same region by probing close ids
    let stats_regions = db.stats().regions;
    assert!(stats_regions > 1);
    for (s, t) in [(0u32, 1u32), (10, 11), (100, 101)] {
        let out = session.query_nodes(&net, s, t).expect("query");
        assert_eq!(out.answer.cost.unwrap_or(u64::MAX), distance(&net, s, t));
    }
}

#[test]
fn tampering_is_detected() {
    let net = road_like(&RoadGenConfig {
        nodes: 200,
        seed: 4,
        ..Default::default()
    });
    let mut cfg = cfg_small();
    cfg.pir_mode = privpath::pir::PirMode::Faulty {
        corrupt_fetches: vec![1],
    };
    let mut session =
        Arc::new(Database::build(&net, SchemeKind::Ci, &cfg).expect("build")).session();
    let err = session
        .query_nodes(&net, 0, 150)
        .expect_err("corruption must surface");
    let msg = err.to_string();
    assert!(msg.contains("checksum"), "unexpected error: {msg}");
}

#[test]
fn tampering_mid_batch_is_detected_identically_over_the_wire() {
    // The FaultyStore consumes one corruption sequence number per batched
    // page in issue order — and the wire transport serves a round through
    // the exact same store pass as the in-process path, so a fault
    // scheduled mid-batch (data-file fetch #5, deep inside CI's round-four
    // batch) must be detected by the client's page checksum at the same
    // logical fetch whether the round crossed a wire or not. Two separate
    // builds (identical nets and configs produce identical stores) keep
    // the two transports' fault schedules independent.
    let net = road_like(&RoadGenConfig {
        nodes: 200,
        seed: 4,
        ..Default::default()
    });
    let mut cfg = cfg_small();
    cfg.pir_mode = privpath::pir::PirMode::Faulty {
        corrupt_fetches: vec![5],
    };
    let probe = |wire: bool| -> String {
        let db = Arc::new(Database::build(&net, SchemeKind::Ci, &cfg).expect("build"));
        if wire {
            let front = db.serve_wire();
            let mut session = db.wire_session_with_seed(&front, 7).expect("connect");
            let err = session
                .query_nodes(&net, 0, 150)
                .expect_err("wire corruption must surface");
            err.to_string()
        } else {
            let mut session = db.session_with_seed(7);
            let err = session
                .query_nodes(&net, 0, 150)
                .expect_err("in-process corruption must surface");
            err.to_string()
        }
    };
    let inproc_msg = probe(false);
    let wire_msg = probe(true);
    assert!(inproc_msg.contains("checksum"), "in-proc: {inproc_msg}");
    assert!(wire_msg.contains("checksum"), "wire: {wire_msg}");
    assert_eq!(
        inproc_msg, wire_msg,
        "the same logical fetch must fail on both transports"
    );
}

#[test]
fn directed_one_way_roads() {
    // Take a road network and drop the reverse arcs of a fraction of
    // segments: costs must still be optimal (and possibly asymmetric).
    let base = road_like(&RoadGenConfig {
        nodes: 250,
        seed: 8,
        ..Default::default()
    });
    let mut b = privpath::graph::NetworkBuilder::new();
    for u in 0..base.num_nodes() as u32 {
        b.add_node(base.node_point(u));
    }
    for e in 0..base.num_arcs() as u32 {
        let (u, v) = base.edge_endpoints(e);
        // keep all forward arcs, drop reverse arcs where (u+v) % 5 == 0
        if u < v || (u + v) % 5 != 0 {
            b.add_arc(u, v, base.edge_weight(e));
        }
    }
    let net = b.build();
    let mut session =
        Arc::new(Database::build(&net, SchemeKind::Ci, &cfg_small()).expect("build")).session();
    let n = net.num_nodes() as u32;
    for k in 0..8u32 {
        let (s, t) = ((k * 31) % n, (k * 73 + 11) % n);
        if s == t {
            continue;
        }
        let out = session.query_nodes(&net, s, t).expect("query");
        assert_eq!(
            out.answer.cost.unwrap_or(INFINITY),
            distance(&net, s, t),
            "{s}->{t}"
        );
    }
}

#[test]
fn arbitrary_query_points_snap_to_host_regions() {
    let net = road_like(&RoadGenConfig {
        nodes: 300,
        seed: 12,
        ..Default::default()
    });
    let mut session =
        Arc::new(Database::build(&net, SchemeKind::Pi, &cfg_small()).expect("build")).session();
    // points that are NOT node coordinates
    let (min, max) = net.bounding_box().unwrap();
    let s = privpath::graph::Point::new(min.x + 37, min.y + 91);
    let t = privpath::graph::Point::new(max.x - 53, max.y - 17);
    let out = session.query(s, t).expect("query");
    assert!(out.answer.found());
    // the snapped endpoints must exist and the cost must match a direct
    // computation between them
    let want = distance(&net, out.answer.src_node, out.answer.dst_node);
    assert_eq!(out.answer.cost, Some(want));
}

/// PR 8 end-to-end hot swap over real sockets: a [`DbRegistry`] serves the
/// full pipeline through a TCP front while a background worker rebuilds
/// the database from reweighted edges. The pinned session drains on
/// generation 1 with optimal answers for the *old* weights, a stale reopen
/// is a typed retryable error, and a fresh session plans and answers
/// optimally against the *new* weights — the whole swap across a socket.
#[test]
fn tcp_hot_swap_serves_both_generations_end_to_end() {
    use privpath::core::DbRegistry;
    use privpath::pir::RetryPolicy;
    use std::time::Duration;

    let net = road_like(&RoadGenConfig {
        nodes: 200,
        seed: 61,
        ..Default::default()
    });
    let net2 = net.reweighted(0xBEE5);
    let n = net.num_nodes() as u32;
    let db = Arc::new(Database::build(&net, SchemeKind::Ci, &cfg_small()).expect("build gen 1"));
    let registry = DbRegistry::new(Arc::clone(&db));
    let front = registry.serve_tcp().expect("bind loopback front");

    let mut pinned = registry
        .tcp_session_with_seed(&front, 0x5eed)
        .expect("connect gen 1");
    let out = pinned
        .query_nodes(&net, 0, 150 % n)
        .expect("pre-swap query");
    assert_eq!(
        out.answer.cost.unwrap_or(INFINITY),
        distance(&net, 0, 150 % n)
    );

    // rebuild from the reweighted network on the worker thread
    let rebuilt = net2.clone();
    let handle = registry.rebuild_in_background(
        move || Database::build(&rebuilt, SchemeKind::Ci, &cfg_small()),
        RetryPolicy {
            max_attempts: 2,
            attempt_timeout: None,
            backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            deadline: Some(Duration::from_secs(60)),
        },
    );
    // ... while the pinned session keeps draining on generation 1
    for k in 1..4u32 {
        let (s, t) = ((k * 41) % n, (k * 97 + 23) % n);
        if s == t {
            continue;
        }
        let out = pinned
            .query_nodes(&net, s, t)
            .expect("serving must not hiccup during the rebuild");
        assert_eq!(
            out.answer.cost.unwrap_or(INFINITY),
            distance(&net, s, t),
            "pinned session must answer for the old weights: {s}->{t}"
        );
    }
    assert_eq!(
        handle.wait().expect("rebuild"),
        2,
        "publish as generation 2"
    );

    // the pinned session still drains on generation 1 after the cutover
    let out = pinned.query_nodes(&net, 5, 120 % n).expect("drain query");
    assert_eq!(
        out.answer.cost.unwrap_or(INFINITY),
        distance(&net, 5, 120 % n)
    );
    pinned.close().expect("drain close");

    // reopening with the stale generation is typed and retryable
    let stale = front.connect_expecting(RetryPolicy::none(), 1);
    match stale {
        Err(e) => assert!(e.is_retryable(), "staleness must invite a retry: {e}"),
        Ok(_) => panic!("stale expectation must fail after the swap"),
    }

    // a fresh session opens on generation 2 and answers for the new weights
    let mut fresh = registry
        .tcp_session_with_seed(&front, 0xfeed)
        .expect("connect gen 2");
    for k in 0..3u32 {
        let (s, t) = ((k * 53 + 7) % n, (k * 113 + 31) % n);
        if s == t {
            continue;
        }
        let out = fresh.query_nodes(&net2, s, t).expect("gen-2 query");
        assert_eq!(
            out.answer.cost.unwrap_or(INFINITY),
            distance(&net2, s, t),
            "fresh session must answer for the new weights: {s}->{t}"
        );
    }
    fresh.close().expect("close");
    front.shutdown();
}

#[test]
fn db_size_scaling_pi_vs_hy_vs_ci() {
    // Figure 10/12 structure: CI smallest, HY between, PI largest.
    let net = road_like(&RoadGenConfig {
        nodes: 500,
        seed: 21,
        ..Default::default()
    });
    let mut cfg = cfg_small();
    let ci = Database::build(&net, SchemeKind::Ci, &cfg).expect("ci");
    cfg.hy_threshold = Some(6);
    let hy = Database::build(&net, SchemeKind::Hy, &cfg).expect("hy");
    let pi = Database::build(&net, SchemeKind::Pi, &cfg).expect("pi");
    assert!(
        ci.db_bytes() < hy.db_bytes(),
        "CI {} < HY {}",
        ci.db_bytes(),
        hy.db_bytes()
    );
    assert!(
        hy.db_bytes() < pi.db_bytes(),
        "HY {} < PI {}",
        hy.db_bytes(),
        pi.db_bytes()
    );
}

#[test]
fn pir_file_limit_rejects_oversized_index() {
    // A tiny SCP makes PI inapplicable — the §7.5 regime.
    let net = road_like(&RoadGenConfig {
        nodes: 400,
        seed: 22,
        ..Default::default()
    });
    let mut cfg = cfg_small();
    cfg.spec.scp_memory_bytes = 48 << 10; // 48 KB SCP
    let err = Database::build(&net, SchemeKind::Pi, &cfg);
    assert!(err.is_err(), "PI should exceed the PIR file limit");
    // CI still fits
    let ci = Database::build(&net, SchemeKind::Ci, &cfg);
    assert!(
        ci.is_ok(),
        "CI should fit: {:?}",
        ci.err().map(|e| e.to_string())
    );
}
