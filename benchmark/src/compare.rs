//! `compare A.json B.json`: per workload × end-to-end metric, both values,
//! the relative change with its base, the bound, and a verdict.

use crate::json::Json;
use crate::workload::{Better, Metric, END_TO_END};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Status {
    Ok,
    /// B is worse than A by more than the metric's bound.
    Worse,
    /// No verdict possible: a value is unavailable on one side, or the two
    /// results were not taken the same way (see [`Comparison::notes`]).
    Unresolved,
    /// The metric has no bound: both values are shown, nothing is judged.
    Reported,
}

impl Status {
    pub fn label(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Worse => "worse",
            Status::Unresolved => "unresolved",
            Status::Reported => "reported",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: Option<f64>,
    pub b: Option<f64>,
    /// `(b − a) / a`; the base is always A.
    pub change: Option<f64>,
    pub bound: Option<f64>,
    pub status: Status,
}

pub struct Comparison {
    pub rows: Vec<Row>,
    /// Why rows are unresolved: each way in which A and B were not taken
    /// alike, and each workload one of them lacks.
    pub notes: Vec<String>,
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// better). With `a == 0` any worsening is infinite: a zero stays a zero.
fn worsening(m: &Metric, a: f64, b: f64) -> f64 {
    let delta = match m.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if delta == 0.0 {
        0.0
    } else if a == 0.0 {
        delta.signum() * f64::INFINITY
    } else {
        delta / a.abs()
    }
}

fn metric_value(workload: &Json, name: &str) -> Option<f64> {
    workload.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn workloads(file: &Json) -> Result<&[Json], String> {
    file.get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| "not a benchmark result file: no \"workloads\" array".to_string())
}

fn name_of(workload: &Json) -> Result<&str, String> {
    workload
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| "workload without a name".to_string())
}

fn flag(file: &Json, key: &str) -> bool {
    file.get(key).and_then(Json::as_bool).unwrap_or(false)
}

/// Notes every `keys` field on which `a` and `b` disagree (a missing field
/// disagrees with everything, itself included).
fn differing(what: &str, a: &Json, b: &Json, keys: &[&str], notes: &mut Vec<String>) {
    for key in keys {
        let (va, vb) = (a.get(key), b.get(key));
        if va.is_none() || va != vb {
            let show = |v: Option<&Json>| v.map_or("missing".to_string(), Json::to_string);
            notes.push(format!("{what}{key}: A {}, B {}", show(va), show(vb)));
        }
    }
}

/// One row per workload of either file × end-to-end metric. Rows get a
/// verdict only where A and B were taken alike: full runs of the same
/// window, seed and host CPU count, the workload present in both with the
/// same pinned client and CPU counts. A traced file has no end-to-end
/// metrics to compare and is an error.
pub fn compare(a: &Json, b: &Json) -> Result<Comparison, String> {
    for (label, file) in [("A", a), ("B", b)] {
        if flag(file, "traced") {
            return Err(format!(
                "{label} is a traced run: it has per-layer metrics only, and compare judges end-to-end ones"
            ));
        }
    }
    let (in_a, in_b) = (workloads(a)?, workloads(b)?);
    let mut notes = Vec::new();
    for (label, file) in [("A", a), ("B", b)] {
        if flag(file, "quick") {
            notes.push(format!("{label} is a --quick run"));
        }
    }
    differing("", a, b, &["window_s", "seed", "host_cpus"], &mut notes);
    let files_alike = notes.is_empty();

    let mut names = Vec::new();
    for w in in_a.iter().chain(in_b) {
        let name = name_of(w)?;
        if !names.contains(&name) {
            names.push(name);
        }
    }
    let mut rows = Vec::new();
    for name in names {
        let named = |w: &&Json| name_of(w) == Ok(name);
        let (wa, wb) = (in_a.iter().find(named), in_b.iter().find(named));
        let alike = match (wa, wb) {
            (Some(wa), Some(wb)) => {
                let before = notes.len();
                differing(
                    &format!("{name} "),
                    wa,
                    wb,
                    &["clients", "cpus"],
                    &mut notes,
                );
                files_alike && notes.len() == before
            }
            _ => {
                let lacking = if wa.is_none() { "A" } else { "B" };
                notes.push(format!("{name}: not in {lacking}"));
                false
            }
        };
        for m in &END_TO_END {
            let va = wa.and_then(|w| metric_value(w, m.name));
            let vb = wb.and_then(|w| metric_value(w, m.name));
            let (change, status) = match (va, vb, m.bound) {
                (Some(x), Some(y), bound) => {
                    let status = match bound {
                        None => Status::Reported,
                        Some(_) if !alike => Status::Unresolved,
                        Some(bound) if worsening(m, x, y) > bound => Status::Worse,
                        Some(_) => Status::Ok,
                    };
                    ((x != 0.0).then(|| (y - x) / x), status)
                }
                _ => (None, Status::Unresolved),
            };
            rows.push(Row {
                workload: name.to_string(),
                metric: m.name,
                unit: m.unit,
                a: va,
                b: vb,
                change,
                bound: m.bound,
                status,
            });
        }
    }
    Ok(Comparison { rows, notes })
}

fn cell(v: Option<f64>) -> String {
    v.map_or("unavailable".to_string(), |v| Json::Num(v).to_string())
}

/// One line saying where and how a result file was taken.
pub fn describe(label: &str, file: &Json) -> String {
    let text = |k: &str| {
        file.get(k)
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let num = |k: &str| {
        file.get(k)
            .and_then(Json::as_f64)
            .map_or("?".into(), |v| v.to_string())
    };
    format!(
        "# {label}: commit {}, {}, {} cpus, seed {}, {} s window, {} loop over {}{}",
        text("git_commit"),
        text("rustc"),
        num("host_cpus"),
        text("seed"),
        num("window_s"),
        text("loop"),
        text("link"),
        if flag(file, "quick") { ", QUICK" } else { "" }
    )
}

pub fn print(c: &Comparison) {
    for note in &c.notes {
        println!("# not comparable: {note}");
    }
    println!("workload metric A B unit change_vs_A bound verdict");
    for r in &c.rows {
        let change = r
            .change
            .map_or("-".to_string(), |c| format!("{:+.2}%", c * 100.0));
        let bound = r
            .bound
            .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0));
        println!(
            "{} {} {} {} {} {} {} {}",
            r.workload,
            r.metric,
            cell(r.a),
            cell(r.b),
            r.unit,
            change,
            bound,
            r.status.label()
        );
    }
    let count = |s: Status| c.rows.iter().filter(|r| r.status == s).count();
    println!(
        "# {} ok, {} worse, {} unresolved, {} reported without a bound",
        count(Status::Ok),
        count(Status::Worse),
        count(Status::Unresolved),
        count(Status::Reported)
    );
}

pub fn any_worse(c: &Comparison) -> bool {
    c.rows.iter().any(|r| r.status == Status::Worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{append_workloads, metric, result_file, Provenance, WorkloadResult};
    use crate::workload::{end_to_end, WORKLOADS};

    fn provenance() -> Provenance {
        Provenance {
            git_commit: "abc".into(),
            rustc: "rustc test".into(),
            host_cpus: 2,
            seed: 7,
            window_s: 20,
            quick: false,
            traced: false,
        }
    }

    fn result(p50: f64, p95: Option<f64>, qps: f64, wire: f64, failed: u64) -> WorkloadResult {
        WorkloadResult {
            workload: &WORKLOADS[1],
            attempted: 300,
            failed,
            correct: failed == 0,
            samples: 300,
            metrics: vec![
                metric("setup_s", 2.0, "s"),
                metric("query_p50_ms", p50, "ms"),
                metric("query_p95_ms", p95, "ms"),
                metric("throughput_qps", qps, "1/s"),
                metric("failed_share", failed as f64 / 300.0, "share"),
                metric("wire_bytes_per_query", wire, "bytes"),
                metric("snapshot_bytes", 60_000_000.0, "bytes"),
                metric("peak_rss_mb", 150.0, "MB"),
            ],
            flags: vec![],
        }
    }

    fn baseline() -> WorkloadResult {
        result(45.0, Some(47.0), 22.0, 37_000.0, 0)
    }

    /// Writes a result file, reads it back, and compares: the round trip
    /// the repeatability criterion relies on.
    fn through_file(p: &Provenance, r: WorkloadResult) -> Json {
        Json::parse(&result_file(p, &r).pretty()).expect("result files parse back")
    }

    fn row<'a>(c: &'a Comparison, metric: &str) -> &'a Row {
        c.rows.iter().find(|r| r.metric == metric).unwrap()
    }

    fn gated(c: &Comparison) -> impl Iterator<Item = &Row> {
        c.rows.iter().filter(|r| r.bound.is_some())
    }

    #[test]
    fn result_file_round_trips_through_compare() {
        let a = through_file(&provenance(), baseline());
        assert_eq!(a.get("loop").and_then(Json::as_str), Some("closed"));
        assert_eq!(a.get("link").and_then(Json::as_str), Some("loopback"));
        let c = compare(&a, &a).unwrap();
        assert_eq!(c.rows.len(), END_TO_END.len());
        assert!(c.notes.is_empty(), "{:?}", c.notes);
        assert!(gated(&c).all(|r| r.status == Status::Ok));
        // a zero base (failed_share) has no relative change to print
        assert!(c
            .rows
            .iter()
            .all(|r| r.change == (r.a != Some(0.0)).then_some(0.0)));
        assert_eq!(row(&c, "query_p50_ms").a, Some(45.0));
        assert!(!any_worse(&c));
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let p = provenance();
        let a = through_file(&p, baseline());
        // p50 worse by 0.8 of its bound (inside), throughput lower by 1.2 of
        // its bound (worse: higher is better), p95 doubled (no bound: never
        // worse), one more wire byte (bound 0), a failure
        let bound = |name: &str| end_to_end(name).unwrap().bound.unwrap();
        let b = through_file(
            &p,
            result(
                45.0 * (1.0 + 0.8 * bound("query_p50_ms")),
                Some(94.0),
                22.0 * (1.0 - 1.2 * bound("throughput_qps")),
                37_001.0,
                1,
            ),
        );
        let c = compare(&a, &b).unwrap();
        assert_eq!(row(&c, "query_p50_ms").status, Status::Ok);
        assert_eq!(row(&c, "query_p95_ms").status, Status::Reported);
        assert_eq!(row(&c, "query_p95_ms").change, Some(1.0));
        assert_eq!(row(&c, "throughput_qps").status, Status::Worse);
        let change = row(&c, "throughput_qps").change.unwrap();
        assert!((change + 1.2 * bound("throughput_qps")).abs() < 1e-12);
        assert_eq!(row(&c, "wire_bytes_per_query").status, Status::Worse);
        assert_eq!(row(&c, "failed_share").status, Status::Worse);
        assert_eq!(row(&c, "snapshot_bytes").status, Status::Ok);
        assert!(any_worse(&c));
        // improvements are never "worse"
        assert!(!any_worse(&compare(&b, &a).unwrap()));
    }

    #[test]
    fn an_unavailable_value_is_unresolved() {
        let p = provenance();
        let a = through_file(&p, baseline());
        let no_p95 = through_file(&p, result(45.0, None, 22.0, 37_000.0, 0));
        let c = compare(&a, &no_p95).unwrap();
        assert_eq!(row(&c, "query_p95_ms").status, Status::Unresolved);
        assert_eq!(row(&c, "query_p95_ms").b, None);
        assert_eq!(row(&c, "query_p50_ms").status, Status::Ok);
        assert!(compare(&Json::Null, &a).is_err());
    }

    /// Results taken differently get no verdict, however bad B looks.
    #[test]
    fn runs_taken_differently_are_unresolved() {
        let a = through_file(&provenance(), baseline());
        let bad = || result(99.0, Some(99.0), 1.0, 1.0, 0);
        let others = [
            Provenance {
                quick: true,
                ..provenance()
            },
            Provenance {
                window_s: 5,
                ..provenance()
            },
            Provenance {
                seed: 8,
                ..provenance()
            },
            Provenance {
                host_cpus: 4,
                ..provenance()
            },
        ];
        for p in &others {
            let c = compare(&a, &through_file(p, bad())).unwrap();
            assert_eq!(c.notes.len(), 1, "{:?}", c.notes);
            assert!(gated(&c).all(|r| r.status == Status::Unresolved));
            assert!(!any_worse(&c));
        }

        // the same workload pinned to another CPU count (an older harness)
        let mut moved = through_file(&provenance(), bad());
        let text = moved.pretty().replace("\"cpus\": 2", "\"cpus\": 1");
        moved = Json::parse(&text).unwrap();
        let c = compare(&a, &moved).unwrap();
        assert_eq!(c.notes, vec!["pi-scan cpus: A 2, B 1".to_string()]);
        assert!(gated(&c).all(|r| r.status == Status::Unresolved));

        let traced = Provenance {
            traced: true,
            ..provenance()
        };
        assert!(compare(&a, &through_file(&traced, bad())).is_err());
        assert!(compare(&through_file(&traced, bad()), &a).is_err());
    }

    #[test]
    fn a_workload_missing_on_either_side_is_listed_and_unresolved() {
        let p = provenance();
        let only_scan = through_file(&p, baseline());
        let mut both = through_file(
            &p,
            WorkloadResult {
                workload: &WORKLOADS[0],
                ..baseline()
            },
        );
        append_workloads(&mut both, &only_scan);
        for (a, b, lacking) in [(&both, &only_scan, "B"), (&only_scan, &both, "A")] {
            let c = compare(a, b).unwrap();
            assert_eq!(c.rows.len(), 2 * END_TO_END.len());
            assert_eq!(c.notes, vec![format!("ci-client: not in {lacking}")]);
            let of = |w: &'static str| c.rows.iter().filter(move |r| r.workload == w);
            assert!(of("ci-client").all(|r| r.status == Status::Unresolved));
            assert!(of("pi-scan")
                .filter(|r| r.bound.is_some())
                .all(|r| r.status == Status::Ok));
        }
    }
}
