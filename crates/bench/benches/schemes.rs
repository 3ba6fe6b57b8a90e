//! Criterion benchmarks for end-to-end private queries, one per scheme —
//! the wall-clock counterpart of the simulated response times the
//! `experiments` binary reports (per table/figure of the paper).

use criterion::{criterion_group, criterion_main, Criterion};
use privpath_core::config::BuildConfig;
use privpath_core::engine::{Database, SchemeKind};
use privpath_graph::gen::{road_like, RoadGenConfig};
use std::sync::Arc;

fn bench_net() -> privpath_graph::network::RoadNetwork {
    road_like(&RoadGenConfig {
        nodes: 2_000,
        seed: 17,
        ..Default::default()
    })
}

fn cfg() -> BuildConfig {
    let mut cfg = BuildConfig::default();
    cfg.spec.page_size = 1024; // more regions at bench scale
    cfg.plan_sample = 64;
    cfg
}

/// Query wall time per scheme (the real client+server computation; the
/// simulated PIR/communication seconds are what the experiments report).
fn bench_scheme_queries(c: &mut Criterion) {
    let net = bench_net();
    let mut g = c.benchmark_group("query");
    g.sample_size(20);
    for kind in [
        SchemeKind::Ci,
        SchemeKind::Pi,
        SchemeKind::Hy,
        SchemeKind::PiStar,
        SchemeKind::Lm,
        SchemeKind::Af,
    ] {
        let mut session = Arc::new(Database::build(&net, kind, &cfg()).expect("build")).session();
        let n = net.num_nodes() as u32;
        let mut k = 0u32;
        g.bench_function(kind.name(), |b| {
            b.iter(|| {
                k = k.wrapping_add(1);
                let s = (k * 997) % n;
                let t = (k * 331 + 13) % n;
                if s == t {
                    return;
                }
                session.query_nodes(&net, s, t).expect("query");
            });
        });
    }
    g.finish();
}

/// Scheme database build time (partition + borders + pre-computation +
/// file formation) — one per table/figure family.
fn bench_scheme_builds(c: &mut Criterion) {
    let net = bench_net();
    let mut g = c.benchmark_group("build");
    g.sample_size(10);
    for kind in [
        SchemeKind::Ci,
        SchemeKind::Pi,
        SchemeKind::Lm,
        SchemeKind::Af,
    ] {
        g.bench_function(kind.name(), |b| {
            b.iter(|| Database::build(&net, kind, &cfg()).expect("build"));
        });
    }
    g.finish();
}

/// OBF query cost growth with the decoy-set size (Figure 6's kernel) —
/// driven through the same `Database`/`QuerySession` API as every scheme.
fn bench_obf(c: &mut Criterion) {
    let net = bench_net();
    let mut g = c.benchmark_group("obf_query");
    g.sample_size(20);
    for decoys in [10usize, 40] {
        g.bench_function(format!("decoys_{decoys}"), |b| {
            let mut cfg = cfg();
            cfg.obf_decoys = decoys;
            let mut session =
                Arc::new(Database::build(&net, SchemeKind::Obf, &cfg).expect("build")).session();
            let n = net.num_nodes() as u32;
            let mut k = 0u32;
            b.iter(|| {
                k = k.wrapping_add(1);
                session
                    .query_nodes(&net, (k * 97) % n, (k * 31 + 7) % n)
                    .expect("query")
            });
        });
    }
    g.finish();
}

criterion_group!(
    schemes,
    bench_scheme_queries,
    bench_scheme_builds,
    bench_obf
);
criterion_main!(schemes);
