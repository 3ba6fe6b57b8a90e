//! Property-based tests over randomized networks and query workloads: the
//! core invariants of the system must hold for *any* input, not just the
//! hand-picked ones.

use privpath::core::audit::assert_indistinguishable;
use privpath::core::config::BuildConfig;
use privpath::core::engine::{Database, SchemeKind};
use privpath::core::subgraph::ClientSubgraph;
use privpath::graph::dijkstra::{distance, INFINITY};
use privpath::graph::gen::{road_like, RoadGenConfig};
use privpath::graph::{NetworkBuilder, Point};
use proptest::prelude::*;
use std::sync::Arc;

fn cfg_small() -> BuildConfig {
    let mut cfg = BuildConfig::default();
    cfg.spec.page_size = 512;
    cfg.plan_sample = 32; // sampled plans for speed; violations asserted below
    cfg.plan_margin = 1.0;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// CI answers are optimal and traces uniform on random road networks
    /// with random queries.
    #[test]
    fn ci_optimal_on_random_networks(
        seed in 0u64..10_000,
        nodes in 120usize..350,
        queries in proptest::collection::vec((0u32..100_000, 0u32..100_000), 4..8),
    ) {
        let net = road_like(&RoadGenConfig { nodes, seed, ..Default::default() });
        let n = net.num_nodes() as u32;
        let mut session = Arc::new(Database::build(&net, SchemeKind::Ci, &cfg_small()).expect("build")).session();
        let mut traces = Vec::new();
        for (rs, rt) in queries {
            let (s, t) = (rs % n, rt % n);
            if s == t { continue; }
            let out = session.query_nodes(&net, s, t).expect("query");
            prop_assert_eq!(out.answer.cost.unwrap_or(INFINITY), distance(&net, s, t));
            traces.push(out.trace);
        }
        prop_assert!(assert_indistinguishable(&traces).is_ok());
    }

    /// PI agrees with CI (and with plain Dijkstra) on random inputs.
    #[test]
    fn pi_matches_ci_on_random_networks(
        seed in 0u64..10_000,
        nodes in 120usize..300,
    ) {
        let net = road_like(&RoadGenConfig { nodes, seed, ..Default::default() });
        let n = net.num_nodes() as u32;
        let mut ci = Arc::new(Database::build(&net, SchemeKind::Ci, &cfg_small()).expect("ci")).session();
        let mut pi = Arc::new(Database::build(&net, SchemeKind::Pi, &cfg_small()).expect("pi")).session();
        for k in 0..5u32 {
            let (s, t) = ((k * 41 + 1) % n, (k * 97 + 55) % n);
            if s == t { continue; }
            let a = ci.query_nodes(&net, s, t).expect("ci query");
            let b = pi.query_nodes(&net, s, t).expect("pi query");
            prop_assert_eq!(a.answer.cost, b.answer.cost);
            prop_assert_eq!(a.answer.cost.unwrap_or(INFINITY), distance(&net, s, t));
        }
    }

    /// The decoded-path cost always verifies against the edge weights the
    /// client received (internal consistency of file formats end to end).
    #[test]
    fn path_costs_internally_consistent(
        seed in 0u64..10_000,
        nodes in 100usize..250,
    ) {
        let net = road_like(&RoadGenConfig { nodes, seed, ..Default::default() });
        let n = net.num_nodes() as u32;
        let mut session = Arc::new(Database::build(&net, SchemeKind::Hy, &cfg_small()).expect("build")).session();
        for k in 0..4u32 {
            let (s, t) = ((k * 13) % n, (k * 89 + 31) % n);
            if s == t { continue; }
            let out = session.query_nodes(&net, s, t).expect("query");
            if let Some(cost) = out.answer.cost {
                // recompute the cost along the returned node path using the
                // true network weights
                let mut total = 0u64;
                for w in out.answer.path_nodes.windows(2) {
                    let arc = (0..net.num_arcs() as u32)
                        .find(|&e| net.edge_endpoints(e) == (w[0], w[1]))
                        .expect("path edge must exist in the network");
                    total += u64::from(net.edge_weight(arc));
                }
                prop_assert_eq!(total, cost);
            }
        }
    }

    /// The CSR client Dijkstra agrees with `graph::dijkstra::distance` over
    /// a `NetworkBuilder` network of the same triples (`INFINITY` read as
    /// unreachable) on arbitrary multigraph views (duplicate arcs,
    /// self-loops, disconnected nodes included). Self-loops are left out of
    /// the network: they never lie on a shortest path, and the builder
    /// rejects them.
    #[test]
    fn csr_dijkstra_matches_hashmap_reference(
        n in 2u32..60,
        edges in proptest::collection::vec((0u32..1000, 0u32..1000, 1u32..500), 1..150),
        ends in (0u32..1000, 0u32..1000),
    ) {
        let triples: Vec<(u32, u32, u32)> =
            edges.into_iter().map(|(u, v, w)| (u % n, v % n, w)).collect();
        let (s, t) = (ends.0 % n, ends.1 % n);
        if s == t { return Ok(()); }
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
        let got = csr.shortest_path(s, t);
        let want = Some(distance(&net, s, t)).filter(|&d| d != INFINITY);
        prop_assert_eq!(got.as_ref().map(|(c, _)| *c), want);
        // When a path exists, it must be cost-consistent with the triples.
        if let Some((cost, path)) = &got {
            prop_assert_eq!(path.first(), Some(&s));
            prop_assert_eq!(path.last(), Some(&t));
            let mut walked = 0u64;
            for w in path.windows(2) {
                let cheapest = triples
                    .iter()
                    .filter(|&&(a, b, _)| a == w[0] && b == w[1])
                    .map(|&(_, _, wt)| u64::from(wt))
                    .min();
                prop_assert!(cheapest.is_some(), "path uses a non-edge {:?}", w);
                walked += cheapest.unwrap();
            }
            prop_assert_eq!(walked, *cost);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// `RoadNetwork::reweighted` — the update feed for PR 8's generation
    /// rebuilds — must preserve topology exactly (same nodes, arcs and
    /// endpoints, so queries planned against the old network remain valid),
    /// keep every jittered weight within the documented ±20% envelope
    /// (clamped at 1), and be a pure function of `(network, seed)`.
    #[test]
    fn reweighted_preserves_topology_and_bounds_weights(
        seed in 0u64..10_000,
        reseed in 0u64..10_000,
        nodes in 80usize..250,
    ) {
        let net = road_like(&RoadGenConfig { nodes, seed, ..Default::default() });
        let jittered = net.reweighted(reseed);
        prop_assert_eq!(jittered.num_nodes(), net.num_nodes());
        prop_assert_eq!(jittered.num_arcs(), net.num_arcs());
        for e in 0..net.num_arcs() as u32 {
            prop_assert_eq!(jittered.edge_endpoints(e), net.edge_endpoints(e));
            let (w, j) = (u64::from(net.edge_weight(e)), u64::from(jittered.edge_weight(e)));
            prop_assert!(j >= ((w * 80) / 100).max(1), "arc {}: {} fell below -20% of {}", e, j, w);
            prop_assert!(j <= (w * 120 + 50) / 100, "arc {}: {} exceeds +20% of {}", e, j, w);
        }
        let again = net.reweighted(reseed);
        for e in 0..net.num_arcs() as u32 {
            prop_assert_eq!(again.edge_weight(e), jittered.edge_weight(e));
        }
    }

    /// The registry's generation counter under concurrent publishers: ids
    /// are handed out exactly once, strictly increasing, and every reader
    /// snapshot ([`DbRegistry::current`]) is internally consistent — an id
    /// never runs backwards between two observations.
    #[test]
    fn registry_generations_are_coherent_under_concurrent_publishes(
        seed in 0u64..10_000,
    ) {
        use privpath::core::DbRegistry;
        use std::sync::atomic::{AtomicBool, Ordering};

        let net = road_like(&RoadGenConfig { nodes: 60, seed, ..Default::default() });
        let db = Arc::new(Database::build(&net, SchemeKind::Ci, &cfg_small()).expect("build"));
        let registry = DbRegistry::new(Arc::clone(&db));
        const PUBLISHERS: usize = 4;
        const PER_THREAD: u64 = 8;
        let done = AtomicBool::new(false);
        let ids: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut last = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let (id, cur) = registry.current();
                    assert!(id >= last, "generation ran backwards: {last} -> {id}");
                    assert_eq!(cur.kind(), SchemeKind::Ci, "snapshot pair incoherent");
                    last = id;
                    std::hint::spin_loop();
                }
            });
            let handles: Vec<_> = (0..PUBLISHERS)
                .map(|_| {
                    let db = Arc::clone(&db);
                    let registry = &registry;
                    scope.spawn(move || {
                        (0..PER_THREAD)
                            .map(|_| registry.publish(Arc::clone(&db)).expect("publish"))
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            let ids = handles.into_iter().map(|h| h.join().expect("publisher")).collect();
            done.store(true, Ordering::Relaxed);
            reader.join().expect("reader");
            ids
        });
        // each thread's ids strictly increase (publishes are ordered)...
        for per_thread in &ids {
            prop_assert!(per_thread.windows(2).all(|w| w[0] < w[1]));
        }
        // ... and globally every id in 2..=N+1 was handed out exactly once
        let mut all: Vec<u64> = ids.into_iter().flatten().collect();
        all.sort_unstable();
        let want: Vec<u64> = (2..=(PUBLISHERS as u64 * PER_THREAD + 1)).collect();
        prop_assert_eq!(all, want);
        prop_assert_eq!(registry.generation(), PUBLISHERS as u64 * PER_THREAD + 1);
    }

    /// Every scheme's full protocol — all of which build into a `Database`
    /// and query through a `QuerySession`, solving on the CSR client arena —
    /// returns reference-optimal Dijkstra costs on seeded random networks,
    /// and every path it finds is a real path of the network: it runs from
    /// `s` to `t` over arcs of `net` whose cheapest weights sum to the
    /// returned cost. Includes the non-PIR OBF baseline.
    #[test]
    fn all_schemes_match_reference_dijkstra(
        seed in 0u64..10_000,
        nodes in 100usize..200,
    ) {
        let net = road_like(&RoadGenConfig { nodes, seed, ..Default::default() });
        let n = net.num_nodes() as u32;
        for kind in SchemeKind::ALL {
            let mut session = Arc::new(Database::build(&net, kind, &cfg_small()).expect("build")).session();
            for k in 0..3u32 {
                let (s, t) = ((k * 53 + seed as u32) % n, (k * 151 + 29) % n);
                if s == t { continue; }
                let out = session.query_nodes(&net, s, t).expect("query");
                prop_assert_eq!(
                    out.answer.cost.unwrap_or(INFINITY),
                    distance(&net, s, t),
                    "{} disagrees with reference Dijkstra for {}->{}",
                    kind.name(), s, t
                );
                let Some(cost) = out.answer.cost else { continue };
                let path = &out.answer.path_nodes;
                prop_assert_eq!(path.first(), Some(&s), "{} path does not start at s", kind.name());
                prop_assert_eq!(path.last(), Some(&t), "{} path does not end at t", kind.name());
                let mut walked = 0u64;
                for w in path.windows(2) {
                    let cheapest = net
                        .arcs_from(w[0])
                        .filter(|&(_, head, _)| head == w[1])
                        .map(|(_, _, weight)| u64::from(weight))
                        .min();
                    prop_assert!(cheapest.is_some(), "{} path uses a non-arc {:?}", kind.name(), w);
                    walked += cheapest.unwrap();
                }
                prop_assert_eq!(walked, cost, "{} path weights do not sum to its cost", kind.name());
            }
        }
    }
}
