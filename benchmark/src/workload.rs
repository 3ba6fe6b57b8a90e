//! What is pinned: the network, the query-pair rule, the four workloads and
//! the metric names with their bounds. `BENCHMARK.json` at the repo root
//! repeats the names and bounds for the driver; a unit test holds the two
//! in step.

use privpath_core::{SchemeKind, StorageBackend};
use privpath_graph::gen::{road_like, RoadGenConfig};
use privpath_graph::{Point, RoadNetwork};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// One network for every workload, so workloads differ only in what their
/// definition lists.
pub const NODES: usize = 10_000;
pub const NET_SEED: u64 = 42;

pub const PAIRS: usize = 4096;
pub const DEFAULT_SEED: u64 = 0x5eed;

/// Measured window of a full run; the `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;
pub const QUICK_SECONDS: u64 = 2;

pub const WARMUP: Duration = Duration::from_secs(1);
pub const WARMUP_MIN_QUERIES: usize = 20;

/// `setup_s` is the median of this many complete set-ups into fresh
/// directories: one sample of a 1–3 s sequence is too noisy to gate on.
pub const SETUP_REPEATS: usize = 3;

pub struct Workload {
    pub name: &'static str,
    pub scheme: SchemeKind,
    pub backend: StorageBackend,
    /// Pinned, not derived from the host, so results stay comparable.
    pub clients: usize,
    /// CPUs the whole process is confined to before anything runs (see
    /// [`crate::affinity`]); pinned like the client count.
    pub cpus: usize,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ci-client",
        scheme: SchemeKind::Ci,
        backend: StorageBackend::Disk,
        clients: 1,
        cpus: 1,
        why: "CI from disk, 1 client: tiny files and 58 pages per query, so client compute and the per-page codec dominate; a scan or CRC gain should barely move it",
    },
    Workload {
        name: "pi-scan",
        scheme: SchemeKind::Pi,
        backend: StorageBackend::Mmap,
        clients: 1,
        cpus: 2,
        why: "PI from mmap, 1 client: each query sweeps a 57 MB index file, so checksum, driver and scan kernel dominate; client and wire gains should not move it",
    },
    Workload {
        name: "lm-rounds",
        scheme: SchemeKind::Lm,
        backend: StorageBackend::Mem,
        clients: 1,
        cpus: 1,
        why: "LM from memory, 1 client: 119 exchanges per query and no per-read CRC, so per-exchange wire, socket and front cost dominates; a CRC change must leave it unmoved",
    },
    Workload {
        name: "pi-scan-x2",
        scheme: SchemeKind::Pi,
        backend: StorageBackend::Mmap,
        clients: 2,
        cpus: 2,
        why: "pi-scan with 2 clients on one front: shared demand for one file behind the store lock and the front loop; shows sharding or coalescing gains and what they cost pi-scan",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening that counts as a regression; `None` for a metric
    /// that is reported but gates nothing.
    pub bound: Option<f64>,
    /// Declared in `BENCHMARK.json` and carried on the driver's result line.
    pub declared: bool,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        declared: true,
    }
}

/// The end-to-end metrics, measured untraced; all are printed, written to
/// `--out` and compared. Two are not in `BENCHMARK.json`: `query_p95_ms`
/// spreads too widely between runs of one binary for any bound the driver
/// accepts (see README, Calibration) and is reported without one, and
/// `failed_share` reads 0, which a declared metric may not; it travels as
/// `attempted` / `failed`.
pub const END_TO_END: [Metric; 8] = [
    gated("setup_s", "s", Better::Lower, 0.25),
    gated("query_p50_ms", "ms", Better::Lower, 0.25),
    Metric {
        name: "query_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: None,
        declared: false,
    },
    gated("throughput_qps", "1/s", Better::Higher, 0.25),
    Metric {
        name: FAILED_SHARE,
        unit: "share",
        better: Better::Lower,
        bound: Some(0.0),
        declared: false,
    },
    gated("wire_bytes_per_query", "bytes", Better::Lower, 0.0),
    gated("snapshot_bytes", "bytes", Better::Lower, 0.0),
    gated("peak_rss_mb", "MB", Better::Lower, 0.20),
];

pub const FAILED_SHARE: &str = "failed_share";

pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The per-layer metrics of the traced run, in the order it prints them:
/// name, unit, better. Layers are the repo's module names. No bounds: these
/// explain a change in an end-to-end metric, they do not gate.
pub const PER_LAYER: [(&str, &str, Better); 34] = [
    ("trace.query_ms", "ms", Better::Lower),
    ("trace.overhead_share", "share", Better::Lower),
    ("core.client.self_ms", "ms", Better::Lower),
    ("core.client.rounds", "count", Better::Lower),
    ("core.client.exchanges", "count", Better::Lower),
    ("core.client.pages_fetched", "count", Better::Lower),
    ("pir.wire.client.self_ms", "ms", Better::Lower),
    ("pir.wire.client.frames_sent", "count", Better::Lower),
    ("pir.wire.client.retransmits", "count", Better::Lower),
    ("pir.wire.tcp.self_ms", "ms", Better::Lower),
    ("pir.wire.tcp.bytes_up", "bytes", Better::Lower),
    ("pir.wire.tcp.bytes_down", "bytes", Better::Lower),
    ("pir.wire.tcp.us_per_exchange", "us", Better::Lower),
    ("pir.wire.front.self_ms", "ms", Better::Lower),
    ("pir.wire.front.us_per_exchange", "us", Better::Lower),
    ("pir.wire.front.queue_ms", "ms", Better::Lower),
    ("pir.server.busy_ms", "ms", Better::Lower),
    ("pir.server.model_residual_share", "share", Better::Lower),
    ("pir.scan.sweeps", "count", Better::Lower),
    ("pir.scan.pages_swept", "count", Better::Lower),
    ("pir.scan.useful_ratio", "ratio", Better::Higher),
    ("pir.scan.kernel_gbps", "GB/s", Better::Higher),
    ("storage.driver.mem.read_gbps", "GB/s", Better::Higher),
    ("storage.driver.disk.read_gbps", "GB/s", Better::Higher),
    ("storage.driver.mmap.read_gbps", "GB/s", Better::Higher),
    ("storage.checksum.crc32_gbps", "GB/s", Better::Higher),
    ("storage.checksum.run_gbps", "GB/s", Better::Higher),
    ("storage.snapshot.persist_s", "s", Better::Lower),
    ("storage.snapshot.open_s", "s", Better::Lower),
    ("core.build.partition_s", "s", Better::Lower),
    ("core.build.borders_s", "s", Better::Lower),
    ("core.build.precompute_s", "s", Better::Lower),
    ("core.build.files_s", "s", Better::Lower),
    ("core.build.plan_s", "s", Better::Lower),
];

pub fn network() -> RoadNetwork {
    road_like(&RoadGenConfig {
        nodes: NODES,
        seed: NET_SEED,
        ..RoadGenConfig::default()
    })
}

/// `PAIRS` uniform `s != t` node pairs drawn from `seed`. Node ids only
/// depend on [`NODES`], so the pairs exist before any network does.
pub fn query_pairs(seed: u64) -> Vec<(u32, u32)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = NODES as u32;
    (0..PAIRS)
        .map(|_| loop {
            let (s, t) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if s != t {
                return (s, t);
            }
        })
        .collect()
}

pub fn pair_points(net: &RoadNetwork, pairs: &[(u32, u32)]) -> Vec<(Point, Point)> {
    pairs
        .iter()
        .map(|&(s, t)| (net.node_point(s), net.node_point(t)))
        .collect()
}

/// Session seed of client `k`: derived from the workload seed so the dummy
/// page choices repeat with it, distinct per client.
pub fn session_seed(seed: u64, client: usize) -> u64 {
    seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(client as u64 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_are_seeded_and_distinct_endpoints() {
        let a = query_pairs(7);
        assert_eq!(a.len(), PAIRS);
        assert_eq!(a, query_pairs(7));
        assert_ne!(a, query_pairs(8));
        assert!(a
            .iter()
            .all(|&(s, t)| s != t && (s as usize) < NODES && (t as usize) < NODES));
    }

    #[test]
    fn workload_names_resolve() {
        for w in &WORKLOADS {
            assert_eq!(workload(w.name).unwrap().name, w.name);
            assert!(w.clients >= 1 && w.clients <= 2);
            // fewer CPUs than clients would measure time-slicing
            assert!(w.cpus >= w.clients && w.cpus <= 2);
            assert!(
                w.why.len() <= 200,
                "{} why too long for BENCHMARK.json",
                w.name
            );
        }
        assert!(workload("nope").is_none());
        assert_ne!(session_seed(1, 0), session_seed(1, 1));
    }

    /// `BENCHMARK.json` is what the driver reads; this file is what the
    /// program does. They must say the same.
    #[test]
    fn benchmark_json_declares_exactly_these_names() {
        use crate::json::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let decl = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();
        let label = |b: Better| {
            if b == Better::Lower {
                "lower"
            } else {
                "higher"
            }
        };

        assert_eq!(
            decl.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );
        let declared: Vec<(String, String)> = decl
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(declared, ours);

        let declared: Vec<(String, String, String, Option<f64>)> = decl
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64);
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    bound,
                )
            })
            .collect();
        let ours: Vec<_> = END_TO_END
            .iter()
            .filter(|m| m.declared)
            .map(|m| {
                let better = label(m.better).to_string();
                (m.name.to_string(), m.unit.to_string(), better, m.bound)
            })
            .collect();
        assert_eq!(declared, ours);

        let declared: Vec<(String, String, String)> = decl
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), label(b).to_string()))
            .collect();
        assert_eq!(declared, ours);
    }
}
