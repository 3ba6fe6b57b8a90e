//! Machine-readable perf baselines: a dependency-free JSON writer/parser and
//! the schema of the committed `BENCH_PR<N>.json` files.
//!
//! Every PR that touches the hot path appends a baseline file so the repo
//! carries its own perf trajectory: network shape, scheme, single-thread vs
//! multi-thread throughput over one shared database, tail latencies, and the
//! per-stage simulated cost breakdown.

use crate::runner::SharedWorkloadResult;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value (enough of JSON for perf baselines: no `\u` escapes
/// beyond pass-through, numbers as `f64`).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object (sorted keys — deterministic output).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array value, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes with 2-space indentation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}]");
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}}}");
            }
        }
    }

    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

/// Convenience: builds a [`Json::Obj`] from `(key, value)` pairs.
pub fn obj(members: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}"))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(bytes, pos, "null").map(|_| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|_| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                members.insert(key, parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos).map(Json::Num),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, "\"")?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let escaped = bytes.get(*pos).ok_or("unterminated escape")?;
                out.push(match escaped {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b'r' => '\r',
                    b't' => '\t',
                    b'u' => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        *pos += 4;
                        char::from_u32(code).ok_or("bad \\u code point")?
                    }
                    other => return Err(format!("bad escape `\\{}`", *other as char)),
                });
                *pos += 1;
            }
            Some(_) => {
                let start = *pos;
                while *pos < bytes.len() && bytes[*pos] != b'"' && bytes[*pos] != b'\\' {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .map_err(|e| e.to_string())?
        .parse::<f64>()
        .map_err(|e| format!("bad number at byte {start}: {e}"))
}

/// The five offline build stages, in pipeline order — the keys of a
/// `build_breakdown_ms` object and the row order of the README table.
pub const BUILD_STAGES: [&str; 5] = ["partition", "borders", "precompute", "files", "plan"];

/// Serializes a per-stage build breakdown (seconds in, milliseconds out —
/// the committed baselines record `build_breakdown_ms`).
pub fn stage_breakdown_to_json(b: &privpath_core::schemes::index_scheme::StageBreakdown) -> Json {
    obj([
        ("partition", Json::Num(b.partition_s * 1e3)),
        ("borders", Json::Num(b.borders_s * 1e3)),
        ("precompute", Json::Num(b.precompute_s * 1e3)),
        ("files", Json::Num(b.files_s * 1e3)),
        ("plan", Json::Num(b.plan_s * 1e3)),
    ])
}

/// Serializes one workload run for the baseline's `runs` array. Chaos runs
/// additionally record the fault-plan seed (`chaos_seed`) so the run
/// reproduces; retry overhead is in `retransmits` for every transport
/// (0 on a perfect link). TCP runs record `coalesced: true`: the front has
/// concurrent linear-scan rounds share the laps of one rotation per file,
/// always (the key dates from when that was a switch; the committed
/// `BENCH_PR7`–`10.json` carry both values, and the validator still
/// requires it of every tcp run).
pub fn run_to_json(r: &SharedWorkloadResult) -> Json {
    let mut doc = obj([
        ("scheme", Json::Str(r.kind.name().to_string())),
        ("transport", Json::Str(r.transport.name().to_string())),
        ("threads", Json::Num(r.threads as f64)),
        ("queries", Json::Num(r.queries as f64)),
        ("wall_s", Json::Num(r.wall_s)),
        ("throughput_qps", Json::Num(r.throughput_qps)),
        ("p50_query_s", Json::Num(r.p50_query_s)),
        ("p95_query_s", Json::Num(r.p95_query_s)),
        ("violations", Json::Num(r.violations as f64)),
        (
            "stages_avg_s",
            obj([
                ("pir", Json::Num(r.avg.pir.total_s())),
                ("comm", Json::Num(r.avg.comm_s)),
                ("server", Json::Num(r.avg.server_s)),
                ("client", Json::Num(r.avg.client_s)),
            ]),
        ),
        ("avg_response_s", Json::Num(r.avg.response_time_s())),
        ("avg_fetches", Json::Num(r.avg.total_fetches() as f64)),
        ("retransmits", Json::Num(r.retransmits as f64)),
        ("generation", Json::Num(r.generation as f64)),
        ("storage", Json::Str(r.storage.to_string())),
    ]);
    if let crate::runner::TransportKind::Chaos { seed } = r.transport {
        if let Json::Obj(m) = &mut doc {
            m.insert("chaos_seed".into(), Json::Num(seed as f64));
        }
    }
    if r.transport == crate::runner::TransportKind::Tcp {
        if let Json::Obj(m) = &mut doc {
            m.insert("coalesced".into(), Json::Bool(true));
        }
    }
    doc
}

/// Serializes a serve-during-rebuild measurement for the baseline's `swap`
/// section (PR 8): throughput of the pinned generation while the background
/// rebuild ran, and the publish-to-first-answer cutover latency.
pub fn swap_to_json(r: &crate::runner::SwapWorkloadResult) -> Json {
    obj([
        ("scheme", Json::Str(r.kind.name().to_string())),
        (
            "queries_during_rebuild",
            Json::Num(r.queries_during_rebuild as f64),
        ),
        ("rebuild_wall_s", Json::Num(r.rebuild_wall_s)),
        (
            "serve_qps_during_rebuild",
            Json::Num(r.serve_qps_during_rebuild),
        ),
        ("cutover_latency_s", Json::Num(r.cutover_latency_s)),
        ("generation_before", Json::Num(r.generation_before as f64)),
        ("generation_after", Json::Num(r.generation_after as f64)),
        ("violations", Json::Num(r.violations as f64)),
    ])
}

/// Validates the schema of a perf-baseline document, returning a list of
/// human-readable problems (empty = valid).
///
/// Since PR 3 a baseline must also carry the host-parallelism provenance:
/// `host_cpus` (number) and the `single_cpu_host` warning flag (boolean).
/// The flag exists because the perf trajectory started on a 1-CPU container,
/// where a multi-thread wall speedup of ≈ 1.0 is the expected reading, not a
/// regression — the JSON says so itself rather than relying on a ROADMAP
/// footnote. A `builds` array (per-scheme build cost, optionally a
/// per-scheme `speedup`), when present, is checked per entry. Multi-scheme
/// documents set the top-level `speedup` to the *best* per-scheme ratio and
/// name the winner in `speedup_scheme` — unlike PR 1's single-scheme files,
/// where `speedup` is that scheme's own ratio.
///
/// Since PR 8 every run must say which database generation it served
/// (`generation`, a number — 1 for single-database workloads). Baselines
/// committed before PR 8 predate the hot-swap subsystem, so the requirement
/// is gated on `pr >= 8`. A `swap` section (the serve-during-rebuild
/// measurement of `perf_baseline --swap`), when present, is checked for its
/// full key set regardless of `pr`.
///
/// Since PR 9 every run must also say which storage driver it served from
/// (`storage`, `"mem"`, `"disk"` or — since PR 10 — `"mmap"`), gated on
/// `pr >= 9` the same way; an unknown `storage` value is rejected at any
/// `pr`. A `recovery` section (the cold-start measurement of
/// `perf_baseline --storage disk|both`), when present, is checked for its
/// full key set regardless of `pr`.
///
/// Since PR 10 a baseline must additionally carry the vectorized-scan
/// evidence: at least one run served from the `mmap` driver, and a
/// `scan_kernel` section (the lane kernel vs the PR 3 sorted-cursor copy
/// path, per backend) whose `backends[]` cover `mem`, `disk` and `mmap`
/// with numeric `pr3_scan_ms` / `lanes_scan_ms` / `ratio`, plus the
/// headline `disk_serving_ratio`. A `scan_kernel` section on an older
/// `pr` is validated structurally the same way.
pub fn validate_baseline(doc: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let runs_need_generation = doc
        .get("pr")
        .and_then(Json::as_f64)
        .is_some_and(|p| p >= 8.0);
    let runs_need_storage = doc
        .get("pr")
        .and_then(Json::as_f64)
        .is_some_and(|p| p >= 9.0);
    let needs_scan_kernel = doc
        .get("pr")
        .and_then(Json::as_f64)
        .is_some_and(|p| p >= 10.0);
    let mut need_num = |v: Option<&Json>, what: &str| {
        if v.and_then(Json::as_f64).is_none() {
            problems.push(format!("missing or non-numeric `{what}`"));
        }
    };
    need_num(doc.get("pr"), "pr");
    need_num(doc.get("host_cpus"), "host_cpus");
    match (
        doc.get("single_cpu_host").and_then(Json::as_bool),
        doc.get("host_cpus").and_then(Json::as_f64),
    ) {
        (None, _) => problems.push("missing or non-boolean `single_cpu_host`".into()),
        (Some(flag), Some(cpus)) if flag != (cpus == 1.0) => problems.push(format!(
            "`single_cpu_host` is {flag} but `host_cpus` is {cpus}"
        )),
        _ => {}
    }
    if let Some(builds) = doc.get("builds") {
        match builds.as_arr() {
            Some(entries) => {
                for (i, b) in entries.iter().enumerate() {
                    if b.get("scheme").and_then(Json::as_str).is_none() {
                        problems.push(format!("builds[{i}]: missing `scheme`"));
                    }
                    for key in ["build_wall_s", "db_bytes"] {
                        if b.get(key).and_then(Json::as_f64).is_none() {
                            problems.push(format!("builds[{i}]: missing or non-numeric `{key}`"));
                        }
                    }
                    // Per-stage breakdowns (PR 4's `--build-profile`) are
                    // optional, but when present every stage must be there.
                    if let Some(bd) = b.get("build_breakdown_ms") {
                        for key in BUILD_STAGES {
                            if bd.get(key).and_then(Json::as_f64).is_none() {
                                problems.push(format!(
                                    "builds[{i}]: `build_breakdown_ms` missing or \
                                     non-numeric `{key}`"
                                ));
                            }
                        }
                    }
                }
            }
            None => problems.push("`builds` is not an array".into()),
        }
    }
    // Optional pre-computation kernel measurement (PR 4): the pruned new
    // kernel vs its unpruned run and vs the retained PR 3 path; `ratio` is
    // the PR 3 / pruned headline.
    if let Some(kernel) = doc.get("precompute_kernel") {
        for key in [
            "nodes",
            "borders",
            "pruned_ms",
            "full_ms",
            "pr3_ms",
            "ratio",
        ] {
            if kernel.get(key).and_then(Json::as_f64).is_none() {
                problems.push(format!(
                    "`precompute_kernel`: missing or non-numeric `{key}`"
                ));
            }
        }
    }
    match doc.get("network") {
        Some(net) => {
            for key in ["nodes", "arcs", "seed"] {
                if net.get(key).and_then(Json::as_f64).is_none() {
                    problems.push(format!("missing or non-numeric `network.{key}`"));
                }
            }
            if net.get("generator").and_then(Json::as_str).is_none() {
                problems.push("missing `network.generator`".into());
            }
        }
        None => problems.push("missing `network`".into()),
    }
    if let Some(swap) = doc.get("swap") {
        if swap.get("scheme").and_then(Json::as_str).is_none() {
            problems.push("`swap`: missing `scheme`".into());
        }
        for key in [
            "queries_during_rebuild",
            "rebuild_wall_s",
            "serve_qps_during_rebuild",
            "cutover_latency_s",
            "generation_before",
            "generation_after",
        ] {
            if swap.get(key).and_then(Json::as_f64).is_none() {
                problems.push(format!("`swap`: missing or non-numeric `{key}`"));
            }
        }
    }
    // The vectorized-scan measurement (PR 10): per-backend lane kernel vs
    // the PR 3 copy path, required on `pr >= 10`, structurally checked
    // whenever present.
    match doc.get("scan_kernel") {
        Some(kernel) => {
            for key in ["pages", "page_size", "round", "disk_serving_ratio"] {
                if kernel.get(key).and_then(Json::as_f64).is_none() {
                    problems.push(format!("`scan_kernel`: missing or non-numeric `{key}`"));
                }
            }
            let backends = kernel.get("backends").and_then(Json::as_arr);
            match backends {
                Some(entries) => {
                    for want in ["mem", "disk", "mmap"] {
                        let found = entries
                            .iter()
                            .find(|b| b.get("storage").and_then(Json::as_str) == Some(want));
                        match found {
                            Some(b) => {
                                for key in ["pr3_scan_ms", "lanes_scan_ms", "ratio"] {
                                    if b.get(key).and_then(Json::as_f64).is_none() {
                                        problems.push(format!(
                                            "`scan_kernel`: backend `{want}` missing or \
                                             non-numeric `{key}`"
                                        ));
                                    }
                                }
                            }
                            None => problems.push(format!(
                                "`scan_kernel`: missing `backends[]` entry for `{want}`"
                            )),
                        }
                    }
                }
                None => problems.push("`scan_kernel`: missing `backends` array".into()),
            }
        }
        None if needs_scan_kernel => {
            problems.push("missing `scan_kernel` (required since PR 10)".into());
        }
        None => {}
    }
    if let Some(recovery) = doc.get("recovery") {
        if recovery.get("scheme").and_then(Json::as_str).is_none() {
            problems.push("`recovery`: missing `scheme`".into());
        }
        for key in ["persist_wall_s", "recover_wall_s", "snapshot_bytes"] {
            if recovery.get(key).and_then(Json::as_f64).is_none() {
                problems.push(format!("`recovery`: missing or non-numeric `{key}`"));
            }
        }
    }
    let runs = match doc.get("runs").and_then(Json::as_arr) {
        Some(runs) if !runs.is_empty() => runs,
        _ => {
            problems.push("missing or empty `runs`".into());
            return problems;
        }
    };
    if needs_scan_kernel
        && !runs
            .iter()
            .any(|r| r.get("storage").and_then(Json::as_str) == Some("mmap"))
    {
        problems.push("no run served from the `mmap` driver (required since PR 10)".into());
    }
    for (i, run) in runs.iter().enumerate() {
        if run.get("scheme").and_then(Json::as_str).is_none() {
            problems.push(format!("runs[{i}]: missing `scheme`"));
        }
        // `transport` arrived with the wire boundary (PR 5), gained the
        // chaos value with fault injection (PR 6) and the tcp value with
        // network-real serving (PR 7); older committed baselines predate
        // it, so it is optional — but when present it must name a known
        // transport, a chaos run must record its retry overhead, and a tcp
        // run must say whether rounds shared sweeps.
        if let Some(t) = run.get("transport") {
            match t.as_str() {
                Some("inproc") | Some("wire") => {}
                Some("chaos") => {
                    for key in ["retransmits", "chaos_seed"] {
                        if run.get(key).and_then(Json::as_f64).is_none() {
                            problems.push(format!(
                                "runs[{i}]: chaos transport requires numeric `{key}`"
                            ));
                        }
                    }
                }
                Some("tcp") => {
                    if run.get("coalesced").and_then(Json::as_bool).is_none() {
                        problems.push(format!(
                            "runs[{i}]: tcp transport requires boolean `coalesced`"
                        ));
                    }
                }
                _ => problems.push(format!(
                    "runs[{i}]: `transport` must be \"inproc\", \"wire\", \"chaos\" or \"tcp\""
                )),
            }
        }
        for key in [
            "threads",
            "queries",
            "wall_s",
            "throughput_qps",
            "p50_query_s",
            "p95_query_s",
        ] {
            if run.get(key).and_then(Json::as_f64).is_none() {
                problems.push(format!("runs[{i}]: missing or non-numeric `{key}`"));
            }
        }
        if runs_need_generation && run.get("generation").and_then(Json::as_f64).is_none() {
            problems.push(format!(
                "runs[{i}]: missing or non-numeric `generation` (required since PR 8)"
            ));
        }
        match run.get("storage").map(Json::as_str) {
            Some(Some("mem")) | Some(Some("disk")) | Some(Some("mmap")) => {}
            Some(_) => problems.push(format!(
                "runs[{i}]: `storage` must be \"mem\", \"disk\" or \"mmap\""
            )),
            None if runs_need_storage => problems.push(format!(
                "runs[{i}]: missing `storage` (required since PR 9)"
            )),
            None => {}
        }
        let stages = run.get("stages_avg_s");
        for key in ["pir", "comm", "server", "client"] {
            if stages
                .and_then(|s| s.get(key))
                .and_then(Json::as_f64)
                .is_none()
            {
                problems.push(format!("runs[{i}]: missing `stages_avg_s.{key}`"));
            }
        }
    }
    if doc.get("speedup").and_then(Json::as_f64).is_none() {
        problems.push("missing or non-numeric `speedup`".into());
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let doc = obj([
            ("pr", Json::Num(1.0)),
            ("name", Json::Str("he said \"hi\"\n".into())),
            (
                "xs",
                Json::Arr(vec![Json::Num(1.5), Json::Bool(true), Json::Null]),
            ),
            ("empty", Json::Arr(vec![])),
            ("nested", obj([("k", Json::Num(-3.0))])),
        ]);
        let text = doc.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(doc, back);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(42.0).render().trim(), "42");
        assert_eq!(Json::Num(1.25).render().trim(), "1.25");
    }

    #[test]
    fn validator_flags_missing_fields() {
        let doc = obj([("pr", Json::Num(1.0))]);
        let problems = validate_baseline(&doc);
        assert!(problems.iter().any(|p| p.contains("network")));
        assert!(problems.iter().any(|p| p.contains("runs")));
        assert!(problems.iter().any(|p| p.contains("host_cpus")));
        assert!(problems.iter().any(|p| p.contains("single_cpu_host")));
    }

    #[test]
    fn validator_requires_consistent_cpu_warning_flag() {
        // single_cpu_host must agree with host_cpus
        let doc = obj([
            ("pr", Json::Num(3.0)),
            ("host_cpus", Json::Num(1.0)),
            ("single_cpu_host", Json::Bool(false)),
        ]);
        let problems = validate_baseline(&doc);
        assert!(
            problems
                .iter()
                .any(|p| p.contains("single_cpu_host") && p.contains("host_cpus")),
            "{problems:?}"
        );
    }

    #[test]
    fn validator_checks_builds_entries() {
        let doc = obj([
            ("pr", Json::Num(3.0)),
            ("host_cpus", Json::Num(4.0)),
            ("single_cpu_host", Json::Bool(false)),
            (
                "builds",
                Json::Arr(vec![obj([("scheme", Json::Str("CI".into()))])]),
            ),
        ]);
        let problems = validate_baseline(&doc);
        assert!(
            problems.iter().any(|p| p.contains("builds[0]")),
            "{problems:?}"
        );
    }

    #[test]
    fn validator_checks_stage_breakdown_and_kernel_measure() {
        let doc = obj([
            ("pr", Json::Num(4.0)),
            ("host_cpus", Json::Num(1.0)),
            ("single_cpu_host", Json::Bool(true)),
            (
                "builds",
                Json::Arr(vec![obj([
                    ("scheme", Json::Str("CI".into())),
                    ("build_wall_s", Json::Num(1.0)),
                    ("db_bytes", Json::Num(1024.0)),
                    // incomplete breakdown: every stage must be present
                    ("build_breakdown_ms", obj([("partition", Json::Num(3.0))])),
                ])]),
            ),
            // incomplete kernel measurement
            ("precompute_kernel", obj([("nodes", Json::Num(2000.0))])),
        ]);
        let problems = validate_baseline(&doc);
        for stage in ["borders", "precompute", "files", "plan"] {
            assert!(
                problems
                    .iter()
                    .any(|p| p.contains("build_breakdown_ms") && p.contains(stage)),
                "stage `{stage}` not flagged: {problems:?}"
            );
        }
        assert!(
            problems
                .iter()
                .any(|p| p.contains("precompute_kernel") && p.contains("ratio")),
            "{problems:?}"
        );
    }

    #[test]
    fn validator_checks_chaos_runs() {
        let chaos_run = obj([
            ("scheme", Json::Str("CI".into())),
            ("transport", Json::Str("chaos".into())),
            ("threads", Json::Num(1.0)),
            ("queries", Json::Num(4.0)),
            ("wall_s", Json::Num(0.5)),
            ("throughput_qps", Json::Num(8.0)),
            ("p50_query_s", Json::Num(0.05)),
            ("p95_query_s", Json::Num(0.09)),
            (
                "stages_avg_s",
                obj([
                    ("pir", Json::Num(1.0)),
                    ("comm", Json::Num(1.0)),
                    ("server", Json::Num(0.0)),
                    ("client", Json::Num(0.1)),
                ]),
            ),
            // missing `retransmits` and `chaos_seed`
        ]);
        let doc = obj([
            ("pr", Json::Num(6.0)),
            ("host_cpus", Json::Num(4.0)),
            ("single_cpu_host", Json::Bool(false)),
            (
                "network",
                obj([
                    ("nodes", Json::Num(100.0)),
                    ("arcs", Json::Num(400.0)),
                    ("seed", Json::Num(7.0)),
                    ("generator", Json::Str("road_like".into())),
                ]),
            ),
            ("runs", Json::Arr(vec![chaos_run])),
            ("speedup", Json::Num(1.0)),
        ]);
        let problems = validate_baseline(&doc);
        assert!(
            problems.iter().any(|p| p.contains("retransmits")),
            "{problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("chaos_seed")),
            "{problems:?}"
        );
        // an unknown transport is still rejected
        let bad = obj([("transport", Json::Str("carrier-pigeon".into()))]);
        let doc2 = obj([("runs", Json::Arr(vec![bad]))]);
        assert!(validate_baseline(&doc2)
            .iter()
            .any(|p| p.contains("transport")));
    }

    #[test]
    fn validator_checks_tcp_runs() {
        // a tcp run without the `coalesced` flag is flagged...
        let bare = obj([("transport", Json::Str("tcp".into()))]);
        let doc = obj([("runs", Json::Arr(vec![bare]))]);
        assert!(validate_baseline(&doc)
            .iter()
            .any(|p| p.contains("coalesced")));
        // ...and with it, no tcp-specific problem remains
        let ok = obj([
            ("transport", Json::Str("tcp".into())),
            ("coalesced", Json::Bool(true)),
        ]);
        let doc = obj([("runs", Json::Arr(vec![ok]))]);
        assert!(!validate_baseline(&doc)
            .iter()
            .any(|p| p.contains("coalesced") || p.contains("transport")));
    }

    #[test]
    fn validator_requires_generation_tags_since_pr8() {
        let run = obj([
            ("scheme", Json::Str("CI".into())),
            ("threads", Json::Num(1.0)),
            ("queries", Json::Num(4.0)),
            ("wall_s", Json::Num(0.5)),
            ("throughput_qps", Json::Num(8.0)),
            ("p50_query_s", Json::Num(0.05)),
            ("p95_query_s", Json::Num(0.09)),
            (
                "stages_avg_s",
                obj([
                    ("pir", Json::Num(1.0)),
                    ("comm", Json::Num(1.0)),
                    ("server", Json::Num(0.0)),
                    ("client", Json::Num(0.1)),
                ]),
            ),
            // no `generation` tag
        ]);
        let doc_of = |pr: f64, run: Json| {
            obj([
                ("pr", Json::Num(pr)),
                ("host_cpus", Json::Num(1.0)),
                ("single_cpu_host", Json::Bool(true)),
                (
                    "network",
                    obj([
                        ("nodes", Json::Num(100.0)),
                        ("arcs", Json::Num(400.0)),
                        ("seed", Json::Num(7.0)),
                        ("generator", Json::Str("road_like".into())),
                    ]),
                ),
                ("runs", Json::Arr(vec![run])),
                ("speedup", Json::Num(1.0)),
            ])
        };
        // a PR 8 document without generation tags is rejected ...
        let problems = validate_baseline(&doc_of(8.0, run.clone()));
        assert!(
            problems.iter().any(|p| p.contains("generation")),
            "{problems:?}"
        );
        // ... a pre-PR 8 baseline is grandfathered in ...
        let problems = validate_baseline(&doc_of(7.0, run.clone()));
        assert!(
            !problems.iter().any(|p| p.contains("generation")),
            "{problems:?}"
        );
        // ... and tagging the run satisfies the requirement
        let mut tagged = run;
        if let Json::Obj(m) = &mut tagged {
            m.insert("generation".into(), Json::Num(1.0));
        }
        assert_eq!(
            validate_baseline(&doc_of(8.0, tagged)),
            Vec::<String>::new()
        );
    }

    #[test]
    fn validator_requires_storage_tags_since_pr9() {
        let run = obj([
            ("scheme", Json::Str("CI".into())),
            ("threads", Json::Num(1.0)),
            ("queries", Json::Num(4.0)),
            ("wall_s", Json::Num(0.5)),
            ("throughput_qps", Json::Num(8.0)),
            ("p50_query_s", Json::Num(0.05)),
            ("p95_query_s", Json::Num(0.09)),
            ("generation", Json::Num(1.0)),
            (
                "stages_avg_s",
                obj([
                    ("pir", Json::Num(1.0)),
                    ("comm", Json::Num(1.0)),
                    ("server", Json::Num(0.0)),
                    ("client", Json::Num(0.1)),
                ]),
            ),
            // no `storage` tag
        ]);
        let doc_of = |pr: f64, run: Json| {
            obj([
                ("pr", Json::Num(pr)),
                ("host_cpus", Json::Num(1.0)),
                ("single_cpu_host", Json::Bool(true)),
                (
                    "network",
                    obj([
                        ("nodes", Json::Num(100.0)),
                        ("arcs", Json::Num(400.0)),
                        ("seed", Json::Num(7.0)),
                        ("generator", Json::Str("road_like".into())),
                    ]),
                ),
                ("runs", Json::Arr(vec![run])),
                ("speedup", Json::Num(1.0)),
            ])
        };
        // a PR 9 document without storage tags is rejected ...
        let problems = validate_baseline(&doc_of(9.0, run.clone()));
        assert!(
            problems.iter().any(|p| p.contains("storage")),
            "{problems:?}"
        );
        // ... a pre-PR 9 baseline is grandfathered in ...
        let problems = validate_baseline(&doc_of(8.0, run.clone()));
        assert!(
            !problems.iter().any(|p| p.contains("storage")),
            "{problems:?}"
        );
        // ... an unknown driver is rejected at any pr ...
        let mut bad = run.clone();
        if let Json::Obj(m) = &mut bad {
            m.insert("storage".into(), Json::Str("tape".into()));
        }
        let problems = validate_baseline(&doc_of(8.0, bad));
        assert!(
            problems.iter().any(|p| p.contains("storage")),
            "{problems:?}"
        );
        // ... and a proper tag satisfies the requirement
        let mut tagged = run;
        if let Json::Obj(m) = &mut tagged {
            m.insert("storage".into(), Json::Str("disk".into()));
        }
        assert_eq!(
            validate_baseline(&doc_of(9.0, tagged)),
            Vec::<String>::new()
        );
    }

    #[test]
    fn validator_requires_mmap_and_scan_kernel_since_pr10() {
        let run_on = |storage: &str| {
            obj([
                ("scheme", Json::Str("CI".into())),
                ("threads", Json::Num(1.0)),
                ("queries", Json::Num(4.0)),
                ("wall_s", Json::Num(0.5)),
                ("throughput_qps", Json::Num(8.0)),
                ("p50_query_s", Json::Num(0.05)),
                ("p95_query_s", Json::Num(0.09)),
                ("generation", Json::Num(1.0)),
                ("storage", Json::Str(storage.into())),
                (
                    "stages_avg_s",
                    obj([
                        ("pir", Json::Num(1.0)),
                        ("comm", Json::Num(1.0)),
                        ("server", Json::Num(0.0)),
                        ("client", Json::Num(0.1)),
                    ]),
                ),
            ])
        };
        let backend = |storage: &str| {
            obj([
                ("storage", Json::Str(storage.into())),
                ("pr3_scan_ms", Json::Num(0.8)),
                ("lanes_scan_ms", Json::Num(0.2)),
                ("ratio", Json::Num(4.0)),
            ])
        };
        let scan_kernel = obj([
            ("pages", Json::Num(1024.0)),
            ("page_size", Json::Num(4096.0)),
            ("round", Json::Num(8.0)),
            ("disk_serving_ratio", Json::Num(4.0)),
            (
                "backends",
                Json::Arr(vec![backend("mem"), backend("disk"), backend("mmap")]),
            ),
        ]);
        let doc_of = |pr: f64, runs: Vec<Json>, kernel: Option<Json>| {
            let mut members = vec![
                ("pr", Json::Num(pr)),
                ("host_cpus", Json::Num(1.0)),
                ("single_cpu_host", Json::Bool(true)),
                (
                    "network",
                    obj([
                        ("nodes", Json::Num(100.0)),
                        ("arcs", Json::Num(400.0)),
                        ("seed", Json::Num(7.0)),
                        ("generator", Json::Str("road_like".into())),
                    ]),
                ),
                ("runs", Json::Arr(runs)),
                ("speedup", Json::Num(1.0)),
            ];
            if let Some(k) = kernel {
                members.push(("scan_kernel", k));
            }
            obj(members)
        };

        // a PR 10 document with neither an mmap run nor a scan_kernel
        // section is rejected on both counts ...
        let problems = validate_baseline(&doc_of(10.0, vec![run_on("disk")], None));
        assert!(problems.iter().any(|p| p.contains("mmap")), "{problems:?}");
        assert!(
            problems.iter().any(|p| p.contains("scan_kernel")),
            "{problems:?}"
        );
        // ... a PR 9 baseline is grandfathered in ...
        let problems = validate_baseline(&doc_of(9.0, vec![run_on("disk")], None));
        assert!(
            !problems
                .iter()
                .any(|p| p.contains("mmap") || p.contains("scan_kernel")),
            "{problems:?}"
        );
        // ... a scan_kernel section missing a backend is flagged at any pr ...
        let partial = obj([
            ("pages", Json::Num(1024.0)),
            ("page_size", Json::Num(4096.0)),
            ("round", Json::Num(8.0)),
            ("disk_serving_ratio", Json::Num(4.0)),
            ("backends", Json::Arr(vec![backend("mem"), backend("disk")])),
        ]);
        let problems = validate_baseline(&doc_of(9.0, vec![run_on("disk")], Some(partial)));
        assert!(
            problems
                .iter()
                .any(|p| p.contains("scan_kernel") && p.contains("mmap")),
            "{problems:?}"
        );
        // ... and the full PR 10 evidence validates clean, with the mmap
        // storage tag accepted as vocabulary.
        assert_eq!(
            validate_baseline(&doc_of(
                10.0,
                vec![run_on("mem"), run_on("disk"), run_on("mmap")],
                Some(scan_kernel)
            )),
            Vec::<String>::new()
        );
    }

    #[test]
    fn validator_checks_recovery_section() {
        let doc = obj([(
            "recovery",
            obj([("scheme", Json::Str("CI".into()))]), // everything else missing
        )]);
        let problems = validate_baseline(&doc);
        for key in ["persist_wall_s", "recover_wall_s", "snapshot_bytes"] {
            assert!(
                problems
                    .iter()
                    .any(|p| p.contains("recovery") && p.contains(key)),
                "`{key}` not flagged: {problems:?}"
            );
        }
    }

    #[test]
    fn validator_checks_swap_section() {
        let doc = obj([(
            "swap",
            obj([("scheme", Json::Str("CI".into()))]), // everything else missing
        )]);
        let problems = validate_baseline(&doc);
        for key in [
            "queries_during_rebuild",
            "rebuild_wall_s",
            "serve_qps_during_rebuild",
            "cutover_latency_s",
            "generation_before",
            "generation_after",
        ] {
            assert!(
                problems
                    .iter()
                    .any(|p| p.contains("swap") && p.contains(key)),
                "`{key}` not flagged: {problems:?}"
            );
        }
    }

    #[test]
    fn stage_breakdown_serializes_all_stages_in_ms() {
        let b = privpath_core::schemes::index_scheme::StageBreakdown {
            partition_s: 0.001,
            borders_s: 0.002,
            precompute_s: 0.5,
            files_s: 0.25,
            plan_s: 0.125,
        };
        let json = stage_breakdown_to_json(&b);
        for key in BUILD_STAGES {
            assert!(json.get(key).and_then(Json::as_f64).is_some(), "{key}");
        }
        assert!((json.get("precompute").unwrap().as_f64().unwrap() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn validator_accepts_complete_doc() {
        let run = obj([
            ("scheme", Json::Str("CI".into())),
            ("threads", Json::Num(1.0)),
            ("queries", Json::Num(8.0)),
            ("wall_s", Json::Num(0.5)),
            ("throughput_qps", Json::Num(16.0)),
            ("p50_query_s", Json::Num(0.05)),
            ("p95_query_s", Json::Num(0.09)),
            (
                "stages_avg_s",
                obj([
                    ("pir", Json::Num(1.0)),
                    ("comm", Json::Num(1.0)),
                    ("server", Json::Num(0.0)),
                    ("client", Json::Num(0.1)),
                ]),
            ),
        ]);
        let doc = obj([
            ("pr", Json::Num(1.0)),
            ("host_cpus", Json::Num(8.0)),
            ("single_cpu_host", Json::Bool(false)),
            (
                "network",
                obj([
                    ("nodes", Json::Num(100.0)),
                    ("arcs", Json::Num(400.0)),
                    ("seed", Json::Num(7.0)),
                    ("generator", Json::Str("road_like".into())),
                ]),
            ),
            (
                "builds",
                Json::Arr(vec![obj([
                    ("scheme", Json::Str("CI".into())),
                    ("build_wall_s", Json::Num(1.5)),
                    ("db_bytes", Json::Num(65536.0)),
                ])]),
            ),
            ("runs", Json::Arr(vec![run])),
            ("speedup", Json::Num(2.5)),
        ]);
        assert_eq!(validate_baseline(&doc), Vec::<String>::new());
    }
}
