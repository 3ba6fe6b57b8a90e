//! What a run reports: metric lines on standard output, the driver's
//! one-line result object, and the JSON result file `compare` reads back.

use crate::json::Json;
use crate::workload::{self, Workload};

#[derive(Debug, Clone, PartialEq)]
pub struct MetricValue {
    pub name: String,
    /// `None` when the run cannot support the number (a p95 of too few
    /// samples): reported as unavailable, never as a made-up value.
    pub value: Option<f64>,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: impl Into<Option<f64>>, unit: &'static str) -> MetricValue {
    MetricValue {
        name: name.to_string(),
        value: value.into(),
        unit,
    }
}

pub struct WorkloadResult {
    pub workload: &'static Workload,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// Latency samples behind the percentiles (untraced) or measured
    /// queries per replayed path (traced).
    pub samples: usize,
    pub metrics: Vec<MetricValue>,
    /// Findings a reader must see: failed checks, negative self times.
    pub flags: Vec<String>,
}

impl WorkloadResult {
    /// `workload metric value unit`, one line per metric.
    pub fn print(&self) {
        let w = self.workload;
        println!(
            "# {}: scheme {} from {}, {} client(s), process confined to {} cpu(s), closed loop over loopback, {} samples, {} attempted, {} failed",
            w.name,
            w.scheme.name(),
            w.backend.name(),
            w.clients,
            w.cpus,
            self.samples,
            self.attempted,
            self.failed
        );
        println!("# {}: {}", w.name, w.why);
        for m in &self.metrics {
            match m.value {
                Some(v) => println!("{} {} {} {}", w.name, m.name, Json::Num(v), m.unit),
                None => println!("{} {} unavailable {}", w.name, m.name, m.unit),
            }
        }
        for f in &self.flags {
            println!("# flag: {}: {f}", w.name);
        }
    }

    /// The object the driver reads off the last line of standard output:
    /// the metrics `BENCHMARK.json` declares. `failed_share` travels as
    /// `attempted` / `failed`; an unavailable metric is left out, which the
    /// driver treats as a refused run.
    pub fn driver_line(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .filter(|m| workload::end_to_end(&m.name).is_none_or(|e| e.declared))
            .filter_map(|m| {
                let entry =
                    Json::obj([("value", Json::Num(m.value?)), ("unit", Json::str(m.unit))]);
                Some((m.name.clone(), entry))
            });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    fn to_json(&self) -> Json {
        let w = self.workload;
        let metrics = self.metrics.iter().map(|m| {
            let entry = Json::obj([
                ("value", Json::opt_num(m.value)),
                ("unit", Json::str(m.unit)),
            ]);
            (m.name.clone(), entry)
        });
        Json::obj([
            ("name", Json::str(w.name)),
            ("scheme", Json::str(w.scheme.name())),
            ("backend", Json::str(w.backend.name())),
            ("clients", Json::Num(w.clients as f64)),
            ("cpus", Json::Num(w.cpus as f64)),
            ("samples", Json::Num(self.samples as f64)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("correct", Json::Bool(self.correct)),
            ("metrics", Json::obj(metrics)),
            (
                "flags",
                Json::Arr(self.flags.iter().map(Json::str).collect()),
            ),
        ])
    }
}

/// Where and how a result was taken. `compare` judges two results only
/// when window, seed, `traced`, `host_cpus` and each workload's pinned
/// client and CPU counts agree, and neither is a quick run.
pub struct Provenance {
    pub git_commit: String,
    pub rustc: String,
    pub host_cpus: usize,
    pub seed: u64,
    pub window_s: u64,
    pub quick: bool,
    pub traced: bool,
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl Provenance {
    /// `host_cpus` as counted before the process confined itself.
    pub fn collect(
        host_cpus: usize,
        seed: u64,
        window_s: u64,
        quick: bool,
        traced: bool,
    ) -> Provenance {
        Provenance {
            git_commit: command_line("git", &["rev-parse", "HEAD"]),
            rustc: command_line("rustc", &["--version"]),
            host_cpus,
            seed,
            window_s,
            quick,
            traced,
        }
    }
}

/// A run measures one workload, so a fresh result file holds one; those of
/// `--workload all` are merged with [`append_workloads`].
pub fn result_file(p: &Provenance, result: &WorkloadResult) -> Json {
    Json::obj([
        ("benchmark", Json::str("privpath-reference")),
        ("schema", Json::Num(1.0)),
        ("quick", Json::Bool(p.quick)),
        ("traced", Json::Bool(p.traced)),
        ("loop", Json::str("closed")),
        ("link", Json::str("loopback")),
        ("git_commit", Json::str(&p.git_commit)),
        ("rustc", Json::str(&p.rustc)),
        ("host_cpus", Json::Num(p.host_cpus as f64)),
        // a string: a u64 seed need not fit a JSON number exactly
        ("seed", Json::str(p.seed.to_string())),
        ("window_s", Json::Num(p.window_s as f64)),
        (
            "network",
            Json::obj([
                ("generator", Json::str("road_like")),
                ("nodes", Json::Num(workload::NODES as f64)),
                ("seed", Json::Num(workload::NET_SEED as f64)),
            ]),
        ),
        ("query_pairs", Json::Num(workload::PAIRS as f64)),
        ("workloads", Json::Arr(vec![result.to_json()])),
    ])
}

/// Appends the workloads of result file `other` to those of `first`: how the
/// one-workload files of `--workload all` become one.
pub fn append_workloads(first: &mut Json, other: &Json) {
    let more = other.get("workloads").and_then(Json::as_arr).unwrap_or(&[]);
    if let Json::Obj(fields) = first {
        if let Some((_, Json::Arr(items))) = fields.iter_mut().find(|(k, _)| k == "workloads") {
            items.extend_from_slice(more);
        }
    }
}
