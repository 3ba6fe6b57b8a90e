//! Workload execution: builds a scheme, runs a query workload, and averages
//! the per-query meters — the paper's methodology ("The average response
//! time of a method is measured by running a workload of 1,000 shortest path
//! queries", §7.1).
//!
//! Two drivers are provided:
//!
//! * [`run_workload`] — the classic sequential driver: build an engine, run
//!   the workload through its single session.
//! * [`run_shared_workload`] — the concurrent driver: N threads, each with
//!   its own [`QuerySession`], hammer one `Arc`-shared [`Database`]. This is
//!   the "many clients, one LBS" shape of the paper's Figure 1, and the
//!   workhorse behind the committed `BENCH_PR1.json` perf baseline.

use privpath_core::config::BuildConfig;
use privpath_core::engine::{Database, Engine, SchemeKind};
use privpath_core::error::CoreError;
use privpath_core::schemes::index_scheme::BuildStats;
use privpath_core::{DbRegistry, Result};
use privpath_graph::network::RoadNetwork;
use privpath_pir::{FaultPlan, Meter, RetryPolicy};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
/// returning the averaged meters.
pub fn run_workload(
    net: &RoadNetwork,
    kind: SchemeKind,
    cfg: &BuildConfig,
    queries: usize,
    seed: u64,
) -> Result<WorkloadResult> {
    let t0 = Instant::now();
    let mut engine = Engine::build(net, kind, cfg)?;
    let build_wall_s = t0.elapsed().as_secs_f64();

    let mut total = Meter::new();
    let mut violations = 0usize;
    let pairs = workload_pairs(net, queries, seed)?;
    for (s, t) in &pairs {
        let out = engine.query_nodes(net, *s, *t)?;
        total.add(&out.meter);
        violations += usize::from(out.plan_violation);
    }
    Ok(WorkloadResult {
        kind,
        avg: total.scale_down(queries.max(1) as u64),
        queries,
        db_bytes: engine.db_bytes(),
        stats: engine.stats().clone(),
        build_wall_s,
        violations,
    })
}

/// Which transport a shared workload's sessions used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Direct calls into the shared database (the zero-cost reference path).
    InProc,
    /// Frames over byte channels into a `ServerFront` loop thread — the
    /// real client/server boundary, measured to quantify its overhead.
    Wire,
    /// The wire transport behind a seeded lossy
    /// [`privpath_pir::ChaosLink`] with a resilient retry policy —
    /// measures the retry overhead of serving through faults. Simulated
    /// meters must equal the clean `Wire` run bit-for-bit; only wall
    /// times and [`SharedWorkloadResult::retransmits`] may differ.
    Chaos {
        /// Fault-plan seed (each worker derives its own stream from it).
        seed: u64,
    },
    /// Frames over real loopback TCP sockets into a
    /// [`privpath_pir::TcpFront`] accept loop — the network-real serving
    /// path, where concurrent linear-scan rounds of one file share the laps
    /// of its rotation. Simulated meters must equal the in-process run
    /// bit-for-bit; only wall times differ.
    Tcp,
}

impl TransportKind {
    /// Name as recorded in the perf-baseline JSON.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::InProc => "inproc",
            TransportKind::Wire => "wire",
            TransportKind::Chaos { .. } => "chaos",
            TransportKind::Tcp => "tcp",
        }
    }
}

/// Outcome of a concurrent shared-database workload.
#[derive(Debug, Clone)]
pub struct SharedWorkloadResult {
    /// The scheme that ran.
    pub kind: SchemeKind,
    /// Transport the sessions drove through.
    pub transport: TransportKind,
    /// Worker threads used (each with its own session).
    pub threads: usize,
    /// Queries executed across all threads.
    pub queries: usize,
    /// Whole-workload wall time, seconds (excludes the build).
    pub wall_s: f64,
    /// Real throughput: `queries / wall_s`.
    pub throughput_qps: f64,
    /// Median per-query client wall time, seconds.
    pub p50_query_s: f64,
    /// 95th-percentile per-query client wall time, seconds.
    pub p95_query_s: f64,
    /// Per-query average simulated meter (PIR / comm / server / client).
    pub avg: Meter,
    /// Plan violations observed (should be 0).
    pub violations: usize,
    /// Transport retransmissions across all sessions — 0 on a perfect
    /// link; under [`TransportKind::Chaos`] the recovery work the retry
    /// policies spent. Kept out of the meter (retries depend on the link,
    /// not the query).
    pub retransmits: u64,
    /// Database generation the sessions served from (PR 8). Plain
    /// single-database workloads serve generation 1; the swap driver
    /// ([`run_swap_workload`]) reports its generations separately.
    pub generation: u64,
    /// Storage driver the database's pages were served from (PR 9):
    /// `"mem"` for memory-resident files (a freshly built database or a
    /// `StorageBackend::Mem` snapshot), `"disk"` for a disk-backed
    /// `StorageBackend::Disk` snapshot read through the checksum layer.
    /// [`run_shared_workload_with`] cannot see which driver the database
    /// carries, so it defaults to `"mem"`; `perf_baseline --storage`
    /// overrides the tag on its disk-backed runs.
    pub storage: &'static str,
}

/// Runs `pairs` against one shared [`Database`] from `threads` concurrent
/// [`privpath_core::engine::QuerySession`]s (pairs are dealt round-robin)
/// over the in-process transport. Per-thread RNG streams derive from
/// `seed`, so results are deterministic in everything but wall-clock
/// measurements.
pub fn run_shared_workload(
    db: &Arc<Database>,
    net: &RoadNetwork,
    pairs: &[(u32, u32)],
    threads: usize,
    seed: u64,
) -> Result<SharedWorkloadResult> {
    run_shared_workload_with(db, net, pairs, threads, seed, TransportKind::InProc)
}

/// [`run_shared_workload`] with an explicit transport. `Wire` stands up one
/// [`privpath_pir::ServerFront`] for the database and connects every worker
/// session through its own `WireChannel` — N clients, one server loop —
/// then shuts the front down after the workload; that is the configuration
/// `perf_baseline --transport wire` measures against the in-process path.
/// `Tcp` fronts the same loop with a loopback accept loop and connects every
/// worker over its own real socket (`perf_baseline --transport tcp`).
pub fn run_shared_workload_with(
    db: &Arc<Database>,
    net: &RoadNetwork,
    pairs: &[(u32, u32)],
    threads: usize,
    seed: u64,
    transport: TransportKind,
) -> Result<SharedWorkloadResult> {
    let threads = threads.max(1).min(pairs.len().max(1));
    struct ThreadOutcome {
        total: Meter,
        wall_times: Vec<f64>,
        violations: usize,
        retransmits: u64,
    }
    let front = match transport {
        TransportKind::InProc | TransportKind::Tcp => None,
        TransportKind::Wire | TransportKind::Chaos { .. } => Some(db.serve_wire()),
    };
    let tcp = match transport {
        TransportKind::Tcp => Some(db.serve_tcp()?),
        _ => None,
    };
    let t0 = Instant::now();
    let outcomes: Vec<Result<ThreadOutcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|k| {
                let db = Arc::clone(db);
                let front = front.as_ref();
                let tcp = tcp.as_ref();
                scope.spawn(move || -> Result<ThreadOutcome> {
                    let thread_seed = seed ^ (k as u64 + 1).wrapping_mul(0x9e37_79b9);
                    let mut session = match (front, tcp, transport) {
                        (None, Some(tcp), _) => db.tcp_session_with_seed(tcp, thread_seed)?,
                        (None, None, _) => db.session_with_seed(thread_seed),
                        (Some(front), _, TransportKind::Chaos { seed: chaos_seed }) => db
                            .chaos_wire_session_with_seed(
                                front,
                                thread_seed,
                                FaultPlan::lossy(chaos_seed ^ (k as u64).wrapping_mul(0xD1B5)),
                                RetryPolicy::resilient(),
                            )?,
                        (Some(front), _, _) => db.wire_session_with_seed(front, thread_seed)?,
                    };
                    let mut out = ThreadOutcome {
                        total: Meter::new(),
                        wall_times: Vec::new(),
                        violations: 0,
                        retransmits: 0,
                    };
                    for (s, t) in pairs.iter().skip(k).step_by(threads) {
                        let q0 = Instant::now();
                        let q = session.query_nodes(net, *s, *t)?;
                        out.wall_times.push(q0.elapsed().as_secs_f64());
                        out.total.add(&q.meter);
                        out.violations += usize::from(q.plan_violation);
                    }
                    out.retransmits = session.transport_retries();
                    session.close()?;
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("workload thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    if let Some(front) = front {
        front.shutdown();
    }
    if let Some(tcp) = tcp {
        tcp.shutdown();
    }

    let mut total = Meter::new();
    let mut wall_times: Vec<f64> = Vec::with_capacity(pairs.len());
    let mut violations = 0usize;
    let mut retransmits = 0u64;
    for outcome in outcomes {
        let outcome = outcome?;
        total.add(&outcome.total);
        wall_times.extend(outcome.wall_times);
        violations += outcome.violations;
        retransmits += outcome.retransmits;
    }
    wall_times.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
    let pct = |p: f64| -> f64 {
        if wall_times.is_empty() {
            return 0.0;
        }
        let idx = ((wall_times.len() as f64 * p).floor() as usize).min(wall_times.len() - 1);
        wall_times[idx]
    };
    let queries = wall_times.len();
    Ok(SharedWorkloadResult {
        kind: db.kind(),
        transport,
        threads,
        queries,
        wall_s,
        throughput_qps: if wall_s > 0.0 {
            queries as f64 / wall_s
        } else {
            0.0
        },
        p50_query_s: pct(0.50),
        p95_query_s: pct(0.95),
        avg: total.scale_down(queries.max(1) as u64),
        violations,
        retransmits,
        generation: 1,
        storage: "mem",
    })
}

/// Outcome of a serve-during-rebuild measurement ([`run_swap_workload`]):
/// the PR 8 hot-swap subsystem under a live query load.
#[derive(Debug, Clone)]
pub struct SwapWorkloadResult {
    /// The scheme that ran.
    pub kind: SchemeKind,
    /// Queries the pinned generation-1 session completed while the
    /// background rebuild was running.
    pub queries_during_rebuild: usize,
    /// Wall time of the background rebuild (build + publish), seconds.
    pub rebuild_wall_s: f64,
    /// Serve throughput *during* the rebuild:
    /// `queries_during_rebuild / rebuild_wall_s`.
    pub serve_qps_during_rebuild: f64,
    /// Wall time from the publish landing to the first query answered by a
    /// session on the new generation, seconds — the client-visible cutover.
    pub cutover_latency_s: f64,
    /// Generation served before the swap (always 1 here).
    pub generation_before: u64,
    /// Generation published by the rebuild (2 on success).
    pub generation_after: u64,
    /// Plan violations observed across both generations (should be 0).
    pub violations: usize,
}

/// Measures the generation-swap subsystem under load: a [`DbRegistry`]
/// serves `db` over a wire front while a background worker rebuilds from
/// `net2` (the reweighted network); one pinned session queries generation 1
/// continuously until the rebuild publishes, then a fresh session opens on
/// generation 2 and answers against the new weights. Throughput during the
/// rebuild and the publish-to-first-answer cutover latency are the
/// committed numbers (`BENCH_PR8.json`, `swap` section).
pub fn run_swap_workload(
    db: &Arc<Database>,
    net: &RoadNetwork,
    net2: &RoadNetwork,
    cfg: &BuildConfig,
    pairs: &[(u32, u32)],
    seed: u64,
) -> Result<SwapWorkloadResult> {
    if pairs.is_empty() {
        return Err(CoreError::Query(
            "swap workload needs a non-empty pair set".into(),
        ));
    }
    let registry = DbRegistry::new(Arc::clone(db));
    let front = registry.serve_wire();
    let mut pinned = registry.wire_session_with_seed(&front, seed)?;
    let mut violations = 0usize;

    let kind = db.kind();
    let rebuild_net = net2.clone();
    let rebuild_cfg = cfg.clone();
    let t0 = Instant::now();
    let handle = registry.rebuild_in_background(
        move || Database::build(&rebuild_net, kind, &rebuild_cfg),
        RetryPolicy {
            max_attempts: 2,
            attempt_timeout: None,
            backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(8),
            deadline: Some(Duration::from_secs(600)),
        },
    );
    // Serve generation 1 for as long as the rebuild runs (at least one
    // query, so the measurement always exercises serve-during-rebuild).
    let mut queries_during_rebuild = 0usize;
    for &(s, t) in pairs.iter().cycle() {
        if queries_during_rebuild > 0 && handle.is_finished() {
            break;
        }
        let out = pinned.query_nodes(net, s, t)?;
        violations += usize::from(out.plan_violation);
        queries_during_rebuild += 1;
    }
    let generation_after = handle.wait()?;
    let rebuild_wall_s = t0.elapsed().as_secs_f64();

    // Client-visible cutover: publish has landed; how long until a fresh
    // session answers from the new generation?
    let t1 = Instant::now();
    let mut fresh = registry.wire_session_with_seed(&front, seed ^ 0xF00D)?;
    let out = fresh.query_nodes(net2, pairs[0].0, pairs[0].1)?;
    violations += usize::from(out.plan_violation);
    let cutover_latency_s = t1.elapsed().as_secs_f64();

    // The pinned session still drains on generation 1 after the cutover.
    let out = pinned.query_nodes(net, pairs[0].0, pairs[0].1)?;
    violations += usize::from(out.plan_violation);
    pinned.close()?;
    fresh.close()?;
    front.shutdown();

    Ok(SwapWorkloadResult {
        kind,
        queries_during_rebuild,
        rebuild_wall_s,
        serve_qps_during_rebuild: if rebuild_wall_s > 0.0 {
            queries_during_rebuild as f64 / rebuild_wall_s
        } else {
            0.0
        },
        cutover_latency_s,
        generation_before: 1,
        generation_after,
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

    #[test]
    fn wire_workload_matches_inproc_costs() {
        let net = road_like(&RoadGenConfig {
            nodes: 300,
            seed: 11,
            ..Default::default()
        });
        let mut cfg = BuildConfig::default();
        cfg.spec.page_size = 512;
        let db = Arc::new(Database::build(&net, SchemeKind::Ci, &cfg).unwrap());
        let pairs = workload_pairs(&net, 10, 5).unwrap();
        let inproc =
            run_shared_workload_with(&db, &net, &pairs, 3, 21, TransportKind::InProc).unwrap();
        let wire = run_shared_workload_with(&db, &net, &pairs, 3, 21, TransportKind::Wire).unwrap();
        assert_eq!(inproc.queries, wire.queries);
        assert_eq!(inproc.violations, 0);
        assert_eq!(wire.violations, 0);
        assert_eq!(wire.transport, TransportKind::Wire);
        // identical simulated traffic — only wall times may differ
        assert_eq!(inproc.avg.total_fetches(), wire.avg.total_fetches());
        assert_eq!(inproc.avg.rounds, wire.avg.rounds);
        assert_eq!(inproc.avg.exchanges, wire.avg.exchanges);
        assert_eq!(inproc.avg.bytes_transferred, wire.avg.bytes_transferred);
    }

    #[test]
    fn tcp_workload_matches_inproc_costs() {
        use privpath_pir::PirMode;
        let net = road_like(&RoadGenConfig {
            nodes: 200,
            seed: 17,
            ..Default::default()
        });
        let mut cfg = BuildConfig::default();
        cfg.spec.page_size = 512;
        // linear-scan stores: the one mode whose rounds share laps
        cfg.pir_mode = PirMode::LinearScan;
        let db = Arc::new(Database::build(&net, SchemeKind::Ci, &cfg).unwrap());
        let pairs = workload_pairs(&net, 6, 5).unwrap();
        let inproc =
            run_shared_workload_with(&db, &net, &pairs, 3, 21, TransportKind::InProc).unwrap();
        let tcp = run_shared_workload_with(&db, &net, &pairs, 3, 21, TransportKind::Tcp).unwrap();
        assert_eq!(tcp.transport.name(), "tcp");
        assert_eq!(inproc.queries, tcp.queries);
        assert_eq!(tcp.violations, 0);
        assert_eq!(tcp.retransmits, 0);
        // the socket (and any lap sharing) must not perturb the simulated
        // accounting
        assert_eq!(inproc.avg.total_fetches(), tcp.avg.total_fetches());
        assert_eq!(inproc.avg.rounds, tcp.avg.rounds);
        assert_eq!(inproc.avg.exchanges, tcp.avg.exchanges);
        assert_eq!(inproc.avg.bytes_transferred, tcp.avg.bytes_transferred);
    }

    #[test]
    fn chaos_workload_matches_wire_costs() {
        let net = road_like(&RoadGenConfig {
            nodes: 200,
            seed: 13,
            ..Default::default()
        });
        let mut cfg = BuildConfig::default();
        cfg.spec.page_size = 512;
        let db = Arc::new(Database::build(&net, SchemeKind::Ci, &cfg).unwrap());
        let pairs = workload_pairs(&net, 4, 5).unwrap();
        let wire = run_shared_workload_with(&db, &net, &pairs, 2, 21, TransportKind::Wire).unwrap();
        let chaos = run_shared_workload_with(
            &db,
            &net,
            &pairs,
            2,
            21,
            TransportKind::Chaos { seed: 0xFA11 },
        )
        .unwrap();
        assert_eq!(chaos.transport.name(), "chaos");
        assert_eq!(wire.retransmits, 0);
        // link faults must not perturb the simulated accounting; client_s
        // is measured wall time, the one meter component runs never share
        let mut w = wire.avg.clone();
        let mut c = chaos.avg.clone();
        w.client_s = 0.0;
        c.client_s = 0.0;
        assert_eq!(w, c);
        assert_eq!(chaos.violations, 0);
    }

    #[test]
    fn swap_workload_measures_rebuild_and_cutover() {
        let net = road_like(&RoadGenConfig {
            nodes: 150,
            seed: 23,
            ..Default::default()
        });
        let net2 = net.reweighted(0xCAFE);
        let mut cfg = BuildConfig::default();
        cfg.spec.page_size = 512;
        cfg.plan_sample = 0;
        let db = Arc::new(Database::build(&net, SchemeKind::Ci, &cfg).unwrap());
        let pairs = workload_pairs(&net, 8, 3).unwrap();
        let r = run_swap_workload(&db, &net, &net2, &cfg, &pairs, 0x5eed).unwrap();
        assert_eq!(r.kind, SchemeKind::Ci);
        assert!(r.queries_during_rebuild >= 1, "{r:?}");
        assert!(r.rebuild_wall_s > 0.0);
        assert!(r.serve_qps_during_rebuild > 0.0);
        assert!(r.cutover_latency_s >= 0.0);
        assert_eq!(r.generation_before, 1);
        assert_eq!(r.generation_after, 2);
        assert_eq!(r.violations, 0);
    }

    #[test]
    fn shared_workload_matches_sequential_costs() {
        let net = road_like(&RoadGenConfig {
            nodes: 300,
            seed: 7,
            ..Default::default()
        });
        let mut cfg = BuildConfig::default();
        cfg.spec.page_size = 512;
        let db = Arc::new(Database::build(&net, SchemeKind::Ci, &cfg).unwrap());
        let pairs = workload_pairs(&net, 12, 3).unwrap();
        let seq = run_shared_workload(&db, &net, &pairs, 1, 17).unwrap();
        let par = run_shared_workload(&db, &net, &pairs, 4, 17).unwrap();
        assert_eq!(seq.queries, 12);
        assert_eq!(par.queries, 12);
        assert_eq!(par.threads, 4);
        assert_eq!(seq.violations, 0);
        assert_eq!(par.violations, 0);
        // The fixed plan makes the simulated page traffic identical no
        // matter how the workload is scheduled across sessions.
        assert_eq!(seq.avg.total_fetches(), par.avg.total_fetches());
        assert_eq!(seq.avg.rounds, par.avg.rounds);
        assert!(par.throughput_qps > 0.0);
        assert!(par.p50_query_s <= par.p95_query_s);
    }
}
