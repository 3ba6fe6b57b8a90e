//! The OBF obfuscation baseline (§7.3), based on Lee et al. \[22\].
//!
//! "Instead of the query source s, this scheme sends to the LBS a set S that
//! includes s and a number of fake source locations. Similarly, it sends a
//! set of candidate destinations T ... The LBS computes the shortest path
//! from every location in S to every location in T." As in the paper's
//! evaluation, decoys are "randomly and uniformly chosen in the road
//! network". OBF provides only weak privacy (the LBS learns |S| candidate
//! sources and |T| candidate destinations) — it is measured for performance
//! context only.
//!
//! Unlike the PIR schemes, OBF stores the plaintext network at the LBS and
//! performs no PIR fetches, but it builds into the same
//! [`crate::engine::Database`] and queries through the same
//! [`crate::engine::QuerySession`] as every other scheme: the session's
//! [`privpath_pir::PirSession`] does the cost accounting (rounds,
//! communication, server compute) and its RNG draws the decoys.

use crate::config::BuildConfig;
use crate::engine::QueryOutput;
use crate::error::CoreError;
use crate::plan::QueryPlan;
use crate::schemes::index_scheme::BuildStats;
use crate::Result;
use privpath_graph::dijkstra::dijkstra;
use privpath_graph::network::RoadNetwork;
use privpath_graph::path::Path;
use privpath_graph::types::Point;
use privpath_pir::{PirServer, Transport};
use rand::Rng;

/// Built OBF "database": the plaintext network the LBS computes on (OBF has
/// no PIR files) plus the obfuscation parameter.
pub(crate) struct ObfScheme {
    /// The road network, as the LBS stores it.
    pub(crate) net: RoadNetwork,
    /// `|S| = |T|` — the real endpoint plus `decoys - 1` fakes (the x-axis
    /// of Figure 6).
    pub(crate) decoys: usize,
    /// Trivial fixed plan: one round, no PIR fetches. (OBF's leakage is in
    /// the uploaded candidate sets, which the trace abstraction — built for
    /// PIR access patterns — does not model.)
    pub(crate) plan: QueryPlan,
}

/// "Builds" the OBF database: the LBS just keeps the plaintext network.
pub(crate) fn build(
    net: &RoadNetwork,
    cfg: &BuildConfig,
    _server: &mut PirServer,
) -> Result<(ObfScheme, BuildStats)> {
    if cfg.obf_decoys < 1 {
        return Err(CoreError::Build(
            "obf_decoys must be >= 1 (the real source/destination)".into(),
        ));
    }
    if net.num_nodes() == 0 {
        return Err(CoreError::Build("OBF needs a non-empty network".into()));
    }
    Ok((
        ObfScheme {
            net: net.clone(),
            decoys: cfg.obf_decoys,
            plan: QueryPlan {
                rounds: vec![crate::plan::RoundSpec::default()],
            },
        },
        BuildStats::default(),
    ))
}

/// Executes one obfuscated query (client + LBS in one harness): uploads the
/// decoy sets, charges one `|S|·|T|` shortest-path evaluation to the server
/// bucket, and ships every candidate path back.
pub(crate) fn query(
    scheme: &ObfScheme,
    link: &mut dyn Transport,
    ctx: &mut crate::engine::QueryCtx,
    s: Point,
    t: Point,
) -> Result<QueryOutput> {
    use std::time::Instant;
    ctx.pir.reset_query();
    // One protocol round, no PIR fetches: an empty batch just opens the
    // round, so OBF rides the same round executor as the PIR schemes.
    ctx.pir.run_round(link, &[])?;

    let net = &scheme.net;
    let n = net.num_nodes() as u32;
    // `build` rejects an empty network, so there is always a nearest node
    let s_node = net.nearest_node(s).expect("non-empty network");
    let t_node = net.nearest_node(t).expect("non-empty network");

    // Client: build obfuscation sets (uniform random decoys; real pair first).
    let mut src_set = vec![s_node];
    let mut dst_set = vec![t_node];
    while src_set.len() < scheme.decoys {
        src_set.push(ctx.rng.gen_range(0..n));
    }
    while dst_set.len() < scheme.decoys {
        dst_set.push(ctx.rng.gen_range(0..n));
    }

    // Upload: the candidate coordinates.
    let upload = (src_set.len() + dst_set.len()) as u64 * 8;
    ctx.pir.add_transfer(link.spec(), upload);

    // LBS: one Dijkstra per candidate source (measured), paths for every
    // (s', t') pair shipped back.
    let t0 = Instant::now();
    let mut result_bytes = 0u64;
    let mut answer = None;
    for &sp in &src_set {
        let tree = dijkstra(net, sp);
        for &tp in &dst_set {
            let path = Path::from_tree(&tree, tp);
            if let Some(p) = &path {
                result_bytes += p.wire_bytes() as u64;
            }
            if sp == s_node && tp == t_node {
                answer = path;
            }
        }
    }
    ctx.pir.add_server_compute(t0.elapsed().as_secs_f64());
    ctx.pir.add_transfer(link.spec(), result_bytes);

    // the real pair is in S x T, so `answer` is its path unless none exists
    let (cost, nodes) = answer.map_or((None, Vec::new()), |p| (Some(p.cost), p.nodes));
    Ok(QueryOutput::new(
        &ctx.pir,
        cost,
        &nodes,
        (s_node, t_node),
        false,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Database, QuerySession, SchemeKind};
    use privpath_graph::dijkstra::distance;
    use privpath_graph::gen::{grid_network, GridGenConfig};
    use std::sync::Arc;

    fn session(net: &RoadNetwork, decoys: usize, seed: u64) -> QuerySession {
        let cfg = BuildConfig {
            obf_decoys: decoys,
            seed,
            ..Default::default()
        };
        Arc::new(Database::build(net, SchemeKind::Obf, &cfg).unwrap()).session()
    }

    #[test]
    fn returns_the_real_pair_answer() {
        let net = grid_network(&GridGenConfig {
            nx: 8,
            ny: 8,
            ..Default::default()
        });
        let out = session(&net, 5, 42).query_nodes(&net, 0, 63).unwrap();
        assert_eq!(out.answer.cost, Some(distance(&net, 0, 63)));
        assert_eq!(out.answer.path_nodes.first(), Some(&0));
        assert_eq!(out.answer.path_nodes.last(), Some(&63));
    }

    #[test]
    fn more_decoys_cost_more_communication() {
        let net = grid_network(&GridGenConfig {
            nx: 10,
            ny: 10,
            ..Default::default()
        });
        let small = session(&net, 5, 1).query_nodes(&net, 0, 99).unwrap();
        let big = session(&net, 20, 1).query_nodes(&net, 0, 99).unwrap();
        assert!(big.meter.bytes_transferred > small.meter.bytes_transferred);
        assert!(big.meter.comm_s > small.meter.comm_s);
        // |S|·|T| grows quadratically
        assert!(big.meter.bytes_transferred > small.meter.bytes_transferred * 8);
    }

    #[test]
    fn server_time_is_charged_and_no_pir_fetches_happen() {
        let net = grid_network(&GridGenConfig {
            nx: 12,
            ny: 12,
            ..Default::default()
        });
        let out = session(&net, 10, 2).query_nodes(&net, 5, 140).unwrap();
        assert!(out.meter.server_s > 0.0);
        assert!(out.meter.response_time_s() > out.meter.server_s);
        assert_eq!(out.meter.rounds, 1);
        assert_eq!(out.meter.total_fetches(), 0);
        assert_eq!(out.trace.total_fetches(), 0);
    }

    #[test]
    fn decoys_of_one_is_unobfuscated() {
        let net = grid_network(&GridGenConfig {
            nx: 6,
            ny: 6,
            ..Default::default()
        });
        let out = session(&net, 1, 3).query_nodes(&net, 0, 35).unwrap();
        assert_eq!(out.answer.cost, Some(distance(&net, 0, 35)));
    }

    #[test]
    fn zero_decoys_is_a_build_error() {
        let net = grid_network(&GridGenConfig {
            nx: 4,
            ny: 4,
            ..Default::default()
        });
        let cfg = BuildConfig {
            obf_decoys: 0,
            ..Default::default()
        };
        assert!(Database::build(&net, SchemeKind::Obf, &cfg).is_err());
    }
}
