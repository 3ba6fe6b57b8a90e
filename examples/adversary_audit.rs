//! Adversary's-eye view: what does the LBS actually see, and what happens if
//! it misbehaves?
//!
//! Part 1 runs many different queries and audits the observable traces
//! (Theorem 1). Part 2 replaces the PIR backend with a tampering one and
//! shows the client detecting the corruption through page checksums — the
//! extension beyond the paper's honest-but-curious model
//! (`pir::fault::FaultyStore`).
//!
//! ```text
//! cargo run --release --example adversary_audit
//! ```

use privpath::core::audit::assert_indistinguishable;
use privpath::core::config::BuildConfig;
use privpath::core::engine::{Database, SchemeKind};
use privpath::core::CoreError;
use privpath::graph::gen::{road_like, RoadGenConfig};
use privpath::pir::PirMode;
use std::sync::Arc;

fn main() {
    let net = road_like(&RoadGenConfig {
        nodes: 1_000,
        seed: 31,
        ..Default::default()
    });

    // ---- Part 1: indistinguishability audit across many queries ----
    let db = Database::build(&net, SchemeKind::Ci, &BuildConfig::default()).expect("build CI");
    let mut session = Arc::new(db).session();
    let mut traces = Vec::new();
    let n = net.num_nodes() as u32;
    for k in 0..30u32 {
        let (s, t) = ((k * 131 + 3) % n, (k * 577 + 71) % n);
        if s == t {
            continue;
        }
        let out = session.query_nodes(&net, s, t).expect("query");
        traces.push(out.trace);
    }
    println!("adversary view of every query: {}", traces[0].summary());
    match assert_indistinguishable(&traces) {
        Ok(()) => println!(
            "audit: {} queries, all pairwise indistinguishable ✓\n",
            traces.len()
        ),
        Err(e) => panic!("PRIVACY BUG: {e}"),
    }

    // ---- Part 2: a tampering server is caught ----
    // Corrupt the 3rd PIR fetch the server performs.
    let cfg = BuildConfig {
        pir_mode: PirMode::Faulty {
            corrupt_fetches: vec![2],
        },
        ..Default::default()
    };
    let mut bad_session =
        Arc::new(Database::build(&net, SchemeKind::Ci, &cfg).expect("build")).session();
    match bad_session.query_nodes(&net, 1, n - 2) {
        Err(CoreError::Storage(privpath::storage::StorageError::ChecksumMismatch { .. })) => {
            println!("tampering server: client detected page corruption via CRC-32 ✓");
        }
        Err(e) => println!("tampering server: rejected with: {e}"),
        Ok(_) => panic!("corruption went UNDETECTED — checksum bug"),
    }
}
