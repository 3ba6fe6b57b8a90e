//! Workload execution: builds a scheme, runs a query workload, and averages
//! the per-query meters — the paper's methodology ("The average response
//! time of a method is measured by running a workload of 1,000 shortest path
//! queries", §7.1).

use privpath_core::config::BuildConfig;
use privpath_core::engine::{Database, SchemeKind};
use privpath_core::error::CoreError;
use privpath_core::schemes::index_scheme::BuildStats;
use privpath_core::Result;
use privpath_graph::network::RoadNetwork;
use privpath_pir::Meter;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Aggregated outcome of a workload run.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// The scheme that ran.
    pub kind: SchemeKind,
    /// Per-query average meter.
    pub avg: Meter,
    /// Queries executed.
    pub queries: usize,
    /// Database size in bytes.
    pub db_bytes: u64,
    /// Build statistics.
    pub stats: BuildStats,
    /// Build wall time (pre-computation + file formation), seconds.
    pub build_wall_s: f64,
    /// Plan violations observed (should be 0).
    pub violations: usize,
}

impl WorkloadResult {
    /// Average response time in seconds.
    pub fn response_s(&self) -> f64 {
        self.avg.response_time_s()
    }
}

/// Random query node pairs (uniform, seeded, `s ≠ t`). Errors on networks
/// with fewer than two nodes, where no such pair exists.
pub fn workload_pairs(net: &RoadNetwork, count: usize, seed: u64) -> Result<Vec<(u32, u32)>> {
    let n = net.num_nodes() as u32;
    if n < 2 {
        return Err(CoreError::Query(format!(
            "workload needs a network with >= 2 nodes to draw s != t pairs, got {n}"
        )));
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    Ok((0..count)
        .map(|_| loop {
            let s = rng.gen_range(0..n);
            let t = rng.gen_range(0..n);
            if s != t {
                return (s, t);
            }
        })
        .collect())
}

/// Builds `kind` over `net` and runs `queries` random queries sequentially,
/// returning the averaged meters. Prints the build's wall time and its five
/// [`BuildStats::stage_s`] stages on stderr.
pub fn run_workload(
    net: &RoadNetwork,
    kind: SchemeKind,
    cfg: &BuildConfig,
    queries: usize,
    seed: u64,
) -> Result<WorkloadResult> {
    let t0 = Instant::now();
    let db = Arc::new(Database::build(net, kind, cfg)?);
    let build_wall_s = t0.elapsed().as_secs_f64();
    // The offline build profile, one line per database built (stderr, so
    // the tables on stdout stay as they are): `experiments fig7 --scale
    // full` is the paper-scale reading of the five stages.
    let st = db.stats().stage_s;
    eprintln!(
        "[build {} @ {} nodes: {:.3} s = partition {:.3} + borders {:.3} + precompute {:.3} + files {:.3} + plan {:.3}]",
        kind.name(),
        net.num_nodes(),
        build_wall_s,
        st.partition_s,
        st.borders_s,
        st.precompute_s,
        st.files_s,
        st.plan_s
    );

    let mut total = Meter::new();
    let mut violations = 0usize;
    let pairs = workload_pairs(net, queries, seed)?;
    let mut session = db.session();
    for (s, t) in &pairs {
        let out = session.query_nodes(net, *s, *t)?;
        total.add(&out.meter);
        violations += usize::from(out.plan_violation);
    }
    Ok(WorkloadResult {
        kind,
        avg: total.scale_down(queries.max(1) as u64),
        queries,
        db_bytes: db.db_bytes(),
        stats: db.stats().clone(),
        build_wall_s,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use privpath_graph::gen::{road_like, RoadGenConfig};

    #[test]
    fn workload_runs_and_averages() {
        let net = road_like(&RoadGenConfig {
            nodes: 300,
            seed: 5,
            ..Default::default()
        });
        let mut cfg = BuildConfig::default();
        cfg.spec.page_size = 512;
        let r = run_workload(&net, SchemeKind::Ci, &cfg, 5, 9).unwrap();
        assert_eq!(r.queries, 5);
        assert!(r.response_s() > 0.0);
        assert!(r.db_bytes > 0);
        assert_eq!(r.violations, 0);
        assert!(r.build_wall_s > 0.0);
    }

    #[test]
    fn pairs_are_distinct_and_seeded() {
        let net = road_like(&RoadGenConfig {
            nodes: 100,
            seed: 6,
            ..Default::default()
        });
        let a = workload_pairs(&net, 50, 1).unwrap();
        let b = workload_pairs(&net, 50, 1).unwrap();
        let c = workload_pairs(&net, 50, 2).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|(s, t)| s != t));
    }

    #[test]
    fn single_node_network_is_an_error_not_a_hang() {
        use privpath_graph::network::NetworkBuilder;
        use privpath_graph::types::Point;
        let mut b = NetworkBuilder::new();
        b.add_node(Point::new(0, 0));
        let net = b.build();
        let err = workload_pairs(&net, 3, 1).unwrap_err();
        assert!(err.to_string().contains(">= 2 nodes"), "got: {err}");
    }
}
