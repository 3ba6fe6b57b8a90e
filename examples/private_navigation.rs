//! Private navigation scenario — the paper's motivating workload.
//!
//! A client repeatedly asks for driving directions between sensitive places
//! (home, clinic, workplace). With a plain LBS every query reveals position
//! and destination; here the queries run over the PI scheme with a
//! *functional* oblivious backend, so even the physical page-access pattern
//! at the server is query-independent.
//!
//! ```text
//! cargo run --release --example private_navigation
//! ```

use privpath::core::audit::assert_indistinguishable;
use privpath::core::config::BuildConfig;
use privpath::core::engine::{Database, SchemeKind};
use privpath::graph::gen::{road_like, RoadGenConfig};
use privpath::graph::types::Point;
use privpath::pir::PirMode;
use std::sync::Arc;

fn main() {
    // The "city": a 1,500-node road network.
    let net = road_like(&RoadGenConfig {
        nodes: 1_500,
        seed: 99,
        ..Default::default()
    });
    let (min, max) = net.bounding_box().expect("non-empty");

    // Sensitive places, expressed as Euclidean coordinates (clients never
    // know node or region identifiers — §5.1 footnote 3).
    let home = Point::new(min.x + (max.x - min.x) / 10, min.y + (max.y - min.y) / 10);
    let clinic = Point::new(max.x - (max.x - min.x) / 8, max.y - (max.y - min.y) / 3);
    let office = Point::new((min.x + max.x) / 2, (min.y + max.y) / 2);
    let pharmacy = Point::new(min.x + (max.x - min.x) / 3, max.y - (max.y - min.y) / 12);

    // PI database with the square-root-ORAM-style functional backend: the
    // server's page reads are real *and* oblivious.
    let cfg = BuildConfig {
        pir_mode: PirMode::Shuffled { seed: 2024 },
        ..Default::default()
    };
    let db = Arc::new(Database::build(&net, SchemeKind::Pi, &cfg).expect("build PI"));
    let mut session = db.session();
    println!(
        "PI database ready: {:.1} MB, plan = {} PIR fetches/query\n",
        db.db_bytes() as f64 / 1e6,
        db.plan().total_fetches()
    );

    let trips = [
        ("home -> clinic", home, clinic),
        ("clinic -> pharmacy", clinic, pharmacy),
        ("pharmacy -> home", pharmacy, home),
        ("home -> office", home, office),
        ("office -> home (evening)", office, home),
    ];

    let mut traces = Vec::new();
    for (label, s, t) in trips {
        let out = session.query(s, t).expect("query");
        println!(
            "{label:<26} cost {:>8}  hops {:>4}  response {:>6.1} s  view {}",
            out.answer
                .cost
                .map(|c| c.to_string())
                .unwrap_or_else(|| "-".into()),
            out.answer.path_nodes.len().saturating_sub(1),
            out.meter.response_time_s(),
            out.trace.summary()
        );
        traces.push(out.trace);
    }

    assert_indistinguishable(&traces).expect("all trips must look identical to the LBS");
    println!("\nAll five trips are indistinguishable at the server — it learns only");
    println!("that five queries happened, not where from, where to, or how long.");
}
