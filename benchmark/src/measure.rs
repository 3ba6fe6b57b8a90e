//! The closed loop and the checks on what it returned: each client sends
//! its next query when the previous answer arrives.

use crate::stats;
use crate::trace::{query_span, SharedRecorder};
use privpath_core::QuerySession;
use privpath_graph::{dijkstra_to_target, Dist, Point, RoadNetwork, INFINITY};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Which of the pinned pairs a client takes: `first, first + stride, …`,
/// cycling. Client `k` of `c` has `first = k`, `stride = c`.
#[derive(Debug, Clone, Copy)]
pub struct ClientPlan {
    pub first: usize,
    pub stride: usize,
    /// Queries of this sequence the client has already run: the loop
    /// continues from there, and numbers its queries from there.
    pub done: usize,
}

impl ClientPlan {
    /// The plans of `clients` concurrent clients starting their sequences.
    pub fn for_clients(clients: usize) -> Vec<ClientPlan> {
        (0..clients)
            .map(|k| ClientPlan {
                first: k,
                stride: clients,
                done: 0,
            })
            .collect()
    }

    fn pair(&self, i: usize, pairs: usize) -> usize {
        (self.first + (self.done + i) * self.stride) % pairs
    }
}

/// A client stops once it has run for `min_time` *and* completed
/// `min_queries`; clients after the first also keep going until the first
/// has stopped, so it never runs without its contention.
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    pub min_time: Duration,
    pub min_queries: usize,
}

/// The publicly fixed shape of a query (Theorem 1): identical for every
/// query of a workload, or the plan leaked something.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub rounds: u32,
    pub exchanges: u32,
    pub pages: u64,
    /// Bytes the client-side meter charged to the link.
    pub bytes: u64,
}

#[derive(Debug, Clone)]
pub struct Sample {
    pub pair: u32,
    /// Completion time since the client's loop started.
    pub end: Duration,
    pub wall: Duration,
    pub cost: Option<Dist>,
    pub plan_violation: bool,
    pub shape: Shape,
}

#[derive(Debug, Default)]
pub struct ClientLog {
    pub samples: Vec<Sample>,
    /// The error that ended this client's loop early, if any. Its query
    /// counts as attempted and failed.
    pub error: Option<String>,
    pub retries: u64,
}

/// Runs one closed loop per session, all released together. With
/// `recorders`, each query runs inside a `query` span whose id is the
/// query's position in its client's sequence ([`ClientPlan::done`] on).
pub fn run_clients(
    sessions: &mut [QuerySession],
    points: &[(Point, Point)],
    plans: &[ClientPlan],
    stop: Stop,
    recorders: Option<&[SharedRecorder]>,
) -> Vec<ClientLog> {
    assert_eq!(sessions.len(), plans.len());
    let barrier = Barrier::new(sessions.len());
    let leader_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter_mut()
            .enumerate()
            .map(|(k, session)| {
                let (barrier, leader_done, plan) = (&barrier, &leader_done, plans[k]);
                let rec = recorders.map(|r| &r[k]);
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    barrier.wait();
                    let start = Instant::now();
                    loop {
                        let own_done = start.elapsed() >= stop.min_time
                            && log.samples.len() >= stop.min_queries;
                        if own_done && (k == 0 || leader_done.load(Ordering::SeqCst)) {
                            break;
                        }
                        let i = log.samples.len();
                        let pair = plan.pair(i, points.len());
                        let (s, t) = points[pair];
                        let t0 = Instant::now();
                        let result = {
                            let _span = rec.map(|r| query_span(r, (plan.done + i) as u32));
                            session.query(s, t)
                        };
                        let wall = t0.elapsed();
                        match result {
                            Ok(out) => log.samples.push(Sample {
                                pair: pair as u32,
                                end: start.elapsed(),
                                wall,
                                cost: out.answer.cost,
                                plan_violation: out.plan_violation,
                                shape: Shape {
                                    rounds: out.meter.rounds,
                                    exchanges: out.meter.exchanges,
                                    pages: out.meter.total_fetches(),
                                    bytes: out.meter.bytes_transferred,
                                },
                            }),
                            Err(e) => {
                                // the session may be unusable now: stop this client
                                log.error = Some(e.to_string());
                                break;
                            }
                        }
                    }
                    if k == 0 {
                        leader_done.store(true, Ordering::SeqCst);
                    }
                    log.retries = session.transport_retries();
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client loop does not panic"))
            .collect()
    })
}

/// Shortest-path costs by plain Dijkstra on the full network: the oracle
/// every measured answer is held to. Each pair is solved once per run.
pub struct Oracle<'a> {
    net: &'a RoadNetwork,
    pairs: &'a [(u32, u32)],
    costs: BTreeMap<u32, Option<Dist>>,
}

impl<'a> Oracle<'a> {
    pub fn new(net: &'a RoadNetwork, pairs: &'a [(u32, u32)]) -> Self {
        Oracle {
            net,
            pairs,
            costs: BTreeMap::new(),
        }
    }

    pub fn cost(&mut self, pair: u32) -> Option<Dist> {
        *self.costs.entry(pair).or_insert_with(|| {
            let (s, t) = self.pairs[pair as usize];
            let d = dijkstra_to_target(self.net, s, t).dist[t as usize];
            (d != INFINITY).then_some(d)
        })
    }
}

/// What the checks found over a set of client logs.
#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    /// Violations that fail the whole run (shape or retry findings), on top
    /// of per-query failures.
    pub findings: Vec<String>,
    pub shape: Option<Shape>,
}

impl Verdict {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.findings.is_empty()
    }
}

/// Holds every sample to the oracle and the logs to the Theorem 1 shape:
/// one (rounds, exchanges, pages, bytes) for all queries, no retransmits.
pub fn check(
    logs: &[ClientLog],
    oracle: &mut Oracle<'_>,
    counted: impl Fn(&Sample) -> bool,
) -> Verdict {
    let mut v = Verdict::default();
    for (k, log) in logs.iter().enumerate() {
        for s in log.samples.iter().filter(|s| counted(s)) {
            v.attempted += 1;
            let want = oracle.cost(s.pair);
            if s.cost != want || s.plan_violation {
                v.failed += 1;
                if v.findings.len() < 8 {
                    v.findings.push(format!(
                        "client {k} pair {}: cost {:?}, oracle {:?}, plan_violation {}",
                        s.pair, s.cost, want, s.plan_violation
                    ));
                }
            }
            match v.shape {
                None => v.shape = Some(s.shape),
                Some(first) if first != s.shape => v.findings.push(format!(
                    "client {k} pair {}: query shape {:?} differs from {:?}",
                    s.pair, s.shape, first
                )),
                Some(_) => {}
            }
        }
        if let Some(e) = &log.error {
            v.attempted += 1;
            v.failed += 1;
            v.findings.push(format!("client {k}: query error: {e}"));
        }
        if log.retries != 0 {
            v.findings.push(format!(
                "client {k}: {} transport retries on loopback",
                log.retries
            ));
        }
    }
    v
}

/// Latency and throughput of the samples completed inside the window.
pub struct WindowStats {
    pub samples: usize,
    pub p50_ms: f64,
    /// `None` below [`stats::P95_MIN_SAMPLES`] samples.
    pub p95_ms: Option<f64>,
}

pub fn window_stats(logs: &[ClientLog], counted: impl Fn(&Sample) -> bool) -> Option<WindowStats> {
    let mut ms: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.samples.iter().filter(|s| counted(s)))
        .map(|s| s.wall.as_secs_f64() * 1e3)
        .collect();
    if ms.is_empty() {
        return None;
    }
    ms.sort_by(f64::total_cmp);
    Some(WindowStats {
        samples: ms.len(),
        p50_ms: stats::percentile(&ms, 50.0),
        p95_ms: stats::p95(&ms),
    })
}

/// Peak resident set of this process (server and clients share it), MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_interleave_and_cycle() {
        let plans = ClientPlan::for_clients(2);
        let taken: Vec<usize> = (0..4).map(|i| plans[1].pair(i, 6)).collect();
        assert_eq!(taken, vec![1, 3, 5, 1]);
        // a client that has done 3 queries continues the same sequence
        let later = ClientPlan {
            done: 3,
            ..plans[1]
        };
        assert_eq!(later.pair(0, 100), plans[1].pair(3, 100));
        assert_eq!(later.pair(2, 100), plans[1].pair(5, 100));
    }

    fn sample(pair: u32, cost: Dist, pages: u64) -> Sample {
        Sample {
            pair,
            end: Duration::from_millis(1),
            wall: Duration::from_millis(1),
            cost: Some(cost),
            plan_violation: false,
            shape: Shape {
                rounds: 3,
                exchanges: 5,
                pages,
                bytes: 100,
            },
        }
    }

    #[test]
    fn check_catches_wrong_costs_shape_drift_and_errors() {
        use privpath_graph::gen::{grid_network, GridGenConfig};
        let net = grid_network(&GridGenConfig {
            nx: 3,
            ny: 3,
            ..Default::default()
        });
        let pairs = [(0u32, 8u32), (2, 6)];
        let mut oracle = Oracle::new(&net, &pairs);
        let (c0, c1) = (oracle.cost(0).unwrap(), oracle.cost(1).unwrap());

        let good = vec![ClientLog {
            samples: vec![sample(0, c0, 8), sample(1, c1, 8)],
            ..ClientLog::default()
        }];
        let v = check(&good, &mut oracle, |_| true);
        assert!(v.correct(), "{:?}", v.findings);
        assert_eq!((v.attempted, v.failed), (2, 0));

        let wrong_cost = vec![ClientLog {
            samples: vec![sample(0, c0 + 1, 8)],
            ..ClientLog::default()
        }];
        let v = check(&wrong_cost, &mut oracle, |_| true);
        assert_eq!((v.attempted, v.failed), (1, 1));

        let drift = vec![ClientLog {
            samples: vec![sample(0, c0, 8), sample(1, c1, 9)],
            ..ClientLog::default()
        }];
        let v = check(&drift, &mut oracle, |_| true);
        assert_eq!(v.failed, 0);
        assert!(!v.correct());

        let errored = vec![ClientLog {
            samples: vec![sample(0, c0, 8)],
            error: Some("link down".into()),
            retries: 2,
        }];
        let v = check(&errored, &mut oracle, |_| true);
        assert_eq!((v.attempted, v.failed), (2, 1));
        assert_eq!(v.findings.len(), 2);
    }
}
