//! Compare every scheme (and the OBF baseline) on one network: response
//! time, space, and PIR fetch counts — a miniature of the paper's Table 3.
//!
//! ```text
//! cargo run --release --example scheme_comparison
//! ```

use privpath::core::config::BuildConfig;
use privpath::core::engine::{Database, SchemeKind};
use privpath::graph::gen::{road_like, RoadGenConfig};
use privpath::pir::Meter;
use std::sync::Arc;

fn main() {
    let net = road_like(&RoadGenConfig {
        nodes: 3_000,
        seed: 5,
        ..Default::default()
    });
    let queries: Vec<(u32, u32)> = (0..25u32)
        .map(|k| ((k * 997) % 3_000, (k * 331 + 13) % 3_000))
        .filter(|(s, t)| s != t)
        .collect();

    println!(
        "{:<6} {:>12} {:>12} {:>10} {:>9} {:>8}",
        "scheme", "response (s)", "space (MB)", "fetches", "rounds", "regions"
    );
    for kind in [
        SchemeKind::Af,
        SchemeKind::Lm,
        SchemeKind::Ci,
        SchemeKind::Hy,
        SchemeKind::PiStar,
        SchemeKind::Pi,
    ] {
        let cfg = BuildConfig::default();
        let db = match Database::build(&net, kind, &cfg) {
            Ok(db) => Arc::new(db),
            Err(e) => {
                println!("{:<6} inapplicable: {e}", kind.name());
                continue;
            }
        };
        let mut session = db.session();
        let mut total = Meter::new();
        for &(s, t) in &queries {
            let out = session.query_nodes(&net, s, t).expect("query");
            total.add(&out.meter);
        }
        let avg = total.scale_down(queries.len() as u64);
        println!(
            "{:<6} {:>12.1} {:>12.2} {:>10} {:>9} {:>8}",
            kind.name(),
            avg.response_time_s(),
            db.db_bytes() as f64 / 1e6,
            avg.total_fetches(),
            avg.rounds,
            db.stats().regions
        );
    }

    // OBF for context: weak privacy (candidate sets leak), no PIR — but the
    // same unified build/query API as every other scheme.
    for decoys in [20usize, 60] {
        let cfg = BuildConfig {
            obf_decoys: decoys,
            ..Default::default()
        };
        let db = Arc::new(Database::build(&net, SchemeKind::Obf, &cfg).expect("build"));
        let mut session = db.session();
        let mut total = Meter::new();
        for &(s, t) in &queries {
            total.add(&session.query_nodes(&net, s, t).expect("query").meter);
        }
        let avg = total.scale_down(queries.len() as u64);
        println!(
            "{:<6} {:>12.1} {:>12} {:>10} {:>9} {:>8}",
            format!("OBF{decoys}"),
            avg.response_time_s(),
            "-",
            "-",
            avg.rounds,
            "-"
        );
    }
    println!("\n(OBF rows are the obfuscation baseline of §7.3 — it reveals the");
    println!(" candidate source/destination sets and is shown for context only.)");
}
