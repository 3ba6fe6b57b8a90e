//! Quickstart: build a private shortest-path database (Concise Index) over a
//! synthetic road network and answer one query without leaking anything to
//! the server.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use privpath::core::config::BuildConfig;
use privpath::core::engine::{Database, SchemeKind};
use privpath::graph::gen::{road_like, RoadGenConfig};
use std::sync::Arc;

fn main() {
    // A ~2,000-node road-like network (deterministic for the seed).
    let net = road_like(&RoadGenConfig {
        nodes: 2_000,
        seed: 7,
        ..Default::default()
    });
    println!(
        "network: {} nodes, {} road segments",
        net.num_nodes(),
        net.num_arcs() / 2
    );

    // Build the CI database: packed KD-tree partitioning, border-node
    // pre-computation, the four files Fh/Fl/Fi/Fd, and a fixed query plan.
    // The database is immutable once built; a session holds one client's
    // query state (share the `Arc` to open more, one per thread).
    let cfg = BuildConfig::default();
    let db = Arc::new(Database::build(&net, SchemeKind::Ci, &cfg).expect("build CI"));
    let mut session = db.session();
    println!(
        "database: {:.2} MB across regions={} (m = {})",
        db.db_bytes() as f64 / 1e6,
        db.stats().regions,
        db.stats().m
    );
    println!(
        "fixed plan: {} rounds, {} PIR fetches per query",
        db.plan().num_rounds(),
        db.plan().total_fetches()
    );

    // Query between two far-apart points. The client sends only PIR page
    // requests; the server learns nothing about s, t, or the path.
    let s = net.node_point(0);
    let t = net.node_point((net.num_nodes() - 1) as u32);
    let out = session.query(s, t).expect("query");

    println!(
        "\nanswer: cost = {:?}, {} hops",
        out.answer.cost,
        out.answer.path_nodes.len().saturating_sub(1)
    );
    println!(
        "simulated response time: {:.1} s (PIR {:.1} s + comm {:.1} s + client {:.3} s)",
        out.meter.response_time_s(),
        out.meter.pir.total_s(),
        out.meter.comm_s,
        out.meter.client_s
    );
    println!("adversary view: {}", out.trace.summary());
    println!("\nRun a second, different query and compare the view:");
    let out2 = session
        .query(net.node_point(17), net.node_point(18))
        .expect("query");
    println!("adversary view: {}", out2.trace.summary());
    assert_eq!(
        out.trace, out2.trace,
        "Theorem 1: queries must be indistinguishable"
    );
    println!("-> identical: the LBS cannot tell the two queries apart.");
}
