//! The two kinds of run: the untraced one that yields the end-to-end
//! metrics, and the traced one that yields the per-layer metrics.

use crate::layers;
use crate::measure::{
    check, peak_rss_mb, run_clients, window_stats, ClientLog, ClientPlan, Oracle, Sample, Stop,
    Verdict,
};
use crate::report::{metric, MetricValue, WorkloadResult};
use crate::setup::{set_up, Instance, ScratchDir};
use crate::trace::{
    self, path_means, Decomposition, PathMeans, Recorder, SharedRecorder, TracedLink,
    TracedTransport,
};
use crate::workload::{self, Workload};
use crate::Res;
use privpath_core::{QuerySession, StorageBackend};
use privpath_pir::{FrameLink, InProc, RetryPolicy, ServerFront, TcpLink, Transport, WireChannel};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct RunConfig {
    pub seed: u64,
    pub seconds: u64,
    /// Smoke mode: one set-up instead of the median of several, and no
    /// minimum number of traced queries.
    pub quick: bool,
}

/// Bytes and queries the front has accounted so far, over all sessions.
fn front_totals(inst: &Instance) -> (u64, u64) {
    inst.front
        .session_stats()
        .values()
        .fold((0, 0), |(bytes, queries), s| {
            (bytes + s.bytes_in + s.bytes_out, queries + s.queries)
        })
}

/// Set-up, warm-up, one measured window, all checks; then the set-up again
/// into fresh directories, for the median `setup_s`.
pub fn untraced(w: &'static Workload, cfg: &RunConfig) -> Res<WorkloadResult> {
    let pairs = workload::query_pairs(cfg.seed);
    let scratch = ScratchDir::new()?;
    let first_dir = scratch.path().join("setup-0");
    let mut inst = set_up(w, &pairs, cfg.seed, &first_dir)?;

    // clients are idle here and again after `run_clients` returns, so the
    // two snapshots bracket whole queries only
    let window = Duration::from_secs(cfg.seconds);
    let (bytes0, queries0) = front_totals(&inst);
    let plans = ClientPlan::for_clients(w.clients);
    let stop = Stop {
        min_time: window,
        min_queries: 0,
    };
    let logs = run_clients(&mut inst.sessions, &inst.points, &plans, stop, None);
    // read before the repeated set-ups below: each further build in this
    // process leaves the allocator holding a varying few MB more
    let rss = peak_rss_mb();
    let (bytes1, queries1) = front_totals(&inst);

    let in_window = |s: &Sample| s.end <= window;
    let mut verdict = check(&logs, &mut Oracle::new(&inst.net, &pairs), in_window);
    let (d_bytes, d_queries) = (bytes1 - bytes0, queries1 - queries0);
    let wire_bytes = (d_queries > 0).then(|| d_bytes as f64 / d_queries as f64);
    if d_queries > 0 && d_bytes % d_queries != 0 {
        verdict.findings.push(format!(
            "wire bytes are not constant per query: {d_bytes} bytes over {d_queries} queries"
        ));
    }
    let Some(stats) = window_stats(&logs, in_window) else {
        return Err(format!("{}: no query completed inside the window", w.name).into());
    };
    let good = verdict.attempted - verdict.failed;
    let snapshot_bytes = inst.snapshot_bytes;
    let mut setup_times = vec![inst.setup_s];
    inst.tear_down()?;

    let repeats = if cfg.quick {
        1
    } else {
        workload::SETUP_REPEATS
    };
    for r in 1..repeats {
        let dir = scratch.path().join(format!("setup-{r}"));
        let again = set_up(w, &pairs, cfg.seed, &dir)?;
        setup_times.push(again.setup_s);
        again.tear_down()?;
    }
    let setup_s = crate::stats::median(&setup_times);

    let metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("query_p50_ms", stats.p50_ms, "ms"),
        metric("query_p95_ms", stats.p95_ms, "ms"),
        metric("throughput_qps", good as f64 / window.as_secs_f64(), "1/s"),
        metric(
            workload::FAILED_SHARE,
            verdict.failed as f64 / verdict.attempted as f64,
            "share",
        ),
        metric("wire_bytes_per_query", wire_bytes, "bytes"),
        metric("snapshot_bytes", snapshot_bytes as f64, "bytes"),
        metric("peak_rss_mb", rss, "MB"),
    ];
    Ok(WorkloadResult {
        workload: w,
        attempted: verdict.attempted,
        failed: verdict.failed,
        correct: verdict.correct(),
        samples: stats.samples,
        metrics,
        flags: verdict.findings,
    })
}

/// Queries each replayed path runs before the measured ones. Count-based,
/// so every path's session RNG is in the same state at the first measured
/// query and the paths replay identical requests.
const PATH_WARM_UP: usize = 20;

/// A full traced run goes on past its `seconds` until every path has this
/// many measured queries: the small layers are differences of path means,
/// and on `pi-scan*` each mean rides on a 45 ms sweep that varies by a
/// millisecond from query to query.
const PATH_MIN_MEASURED: usize = 100;

/// The paths take turns in slices of about this long, so that drift in the
/// host's speed over the run lands on all of them alike.
const SLICE: Duration = Duration::from_millis(250);

/// The three nested paths between a client session and the pages.
enum Route<'a> {
    /// A: direct calls into the server.
    InProc,
    /// B: the front loop over an in-process channel link.
    Channel(&'a ServerFront),
    /// C: the front loop over loopback TCP.
    Tcp,
}

fn open_session(
    inst: &Instance,
    route: &Route<'_>,
    seed: u64,
    rec: Option<&SharedRecorder>,
) -> Res<QuerySession> {
    let link = |raw: Box<dyn FrameLink>| -> Box<dyn FrameLink> {
        match rec {
            Some(r) => Box::new(TracedLink::new(raw, Arc::clone(r))),
            None => raw,
        }
    };
    let transport: Box<dyn Transport + Send> = match route {
        Route::InProc => Box::new(InProc::new(Arc::clone(&inst.db))),
        Route::Channel(front) => Box::new(WireChannel::handshake(
            link(Box::new(front.raw_link()?)),
            RetryPolicy::none(),
        )?),
        Route::Tcp => Box::new(WireChannel::handshake(
            link(Box::new(TcpLink::connect(inst.front.addr())?)),
            RetryPolicy::none(),
        )?),
    };
    let transport = match rec {
        Some(r) => Box::new(TracedTransport::new(transport, Arc::clone(r))),
        None => transport,
    };
    Ok(inst.db.session_over(seed, transport))
}

/// Fresh sessions, seeded like the workload's, replaying the pinned queries
/// over one path, a slice at a time.
struct Replay {
    name: &'static str,
    sessions: Vec<QuerySession>,
    /// `Some` when this replay is traced.
    recorders: Option<Vec<SharedRecorder>>,
    logs: Vec<ClientLog>,
    /// A 1-client replay of a 2-client workload keeps client 0's stride, so
    /// it replays client 0's queries.
    stride: usize,
}

impl Replay {
    fn open(
        name: &'static str,
        inst: &Instance,
        route: &Route<'_>,
        clients: usize,
        seed: u64,
        traced: bool,
    ) -> Res<Replay> {
        let recorders: Vec<SharedRecorder> = (0..clients).map(|_| Recorder::shared()).collect();
        let mut sessions = Vec::with_capacity(clients);
        for (k, rec) in recorders.iter().enumerate() {
            let seed = workload::session_seed(seed, k);
            sessions.push(open_session(inst, route, seed, traced.then_some(rec))?);
        }
        Ok(Replay {
            name,
            sessions,
            recorders: traced.then_some(recorders),
            logs: (0..clients).map(|_| ClientLog::default()).collect(),
            stride: inst.sessions.len(),
        })
    }

    /// Continues every client where it stopped; returns how many queries
    /// client 0 completed in this slice.
    fn run_slice(&mut self, inst: &Instance, stop: Stop) -> Res<usize> {
        let plans: Vec<ClientPlan> = self
            .logs
            .iter()
            .enumerate()
            .map(|(k, log)| ClientPlan {
                first: k,
                stride: self.stride,
                done: log.samples.len(),
            })
            .collect();
        let slice = run_clients(
            &mut self.sessions,
            &inst.points,
            &plans,
            stop,
            self.recorders.as_deref(),
        );
        let leader = slice[0].samples.len();
        for (log, part) in self.logs.iter_mut().zip(slice) {
            if let Some(e) = part.error {
                return Err(format!("path {}: query failed: {e}", self.name).into());
            }
            log.samples.extend(part.samples);
            log.retries = part.retries;
        }
        Ok(leader)
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Recorder> {
        let recorders = self.recorders.as_ref().expect("a traced replay");
        recorders[0].lock().expect("client threads have ended")
    }

    /// Client 0's measured spans reduced to per-query means.
    fn means(&self) -> PathMeans {
        path_means(&self.spans().spans, PATH_WARM_UP as u32)
    }

    /// Mean wall time of client 0's measured queries, as the loop timed them.
    fn mean_wall_ms(&self) -> f64 {
        let measured = &self.logs[0].samples[PATH_WARM_UP..];
        measured
            .iter()
            .map(|s| s.wall.as_secs_f64() * 1e3)
            .sum::<f64>()
            / measured.len() as f64
    }

    fn close(self) -> Res<()> {
        for s in self.sessions {
            s.close()?;
        }
        Ok(())
    }
}

/// The traced run: the same queries replayed over paths C, B and A (and C
/// untraced, for the tracing overhead) in interleaved slices for `seconds`
/// in total and at least [`PATH_MIN_MEASURED`] queries each, then direct
/// calls into the scan, driver and checksum layers.
pub fn traced(
    w: &'static Workload,
    cfg: &RunConfig,
    trace_out: Option<&Path>,
) -> Res<WorkloadResult> {
    let pairs = workload::query_pairs(cfg.seed);
    let scratch = ScratchDir::new()?;
    let first_dir = scratch.path().join("setup-0");
    let inst = set_up(w, &pairs, cfg.seed, &first_dir)?;

    let wire_front = inst.db.serve_wire();
    let channel = Route::Channel(&wire_front);
    let mut c = Replay::open("C", &inst, &Route::Tcp, w.clients, cfg.seed, true)?;
    // every other replay follows C's query count, slice by slice
    let mut followers = vec![
        Replay::open("B", &inst, &channel, 1, cfg.seed, true)?,
        Replay::open("A", &inst, &Route::InProc, 1, cfg.seed, true)?,
        Replay::open("C untraced", &inst, &Route::Tcp, w.clients, cfg.seed, false)?,
    ];
    if w.clients > 1 {
        followers.push(Replay::open(
            "C solo",
            &inst,
            &Route::Tcp,
            1,
            cfg.seed,
            true,
        )?);
    }
    let budget = Duration::from_secs(cfg.seconds);
    let enough = PATH_WARM_UP + if cfg.quick { 1 } else { PATH_MIN_MEASURED };
    let start = Instant::now();
    while start.elapsed() < budget || c.logs[0].samples.len() < enough {
        let timed = Stop {
            min_time: SLICE,
            min_queries: 1,
        };
        let n = c.run_slice(&inst, timed)?;
        for f in &mut followers {
            let counted = Stop {
                min_time: Duration::ZERO,
                min_queries: n,
            };
            f.run_slice(&inst, counted)?;
        }
    }

    // the replays share their pairs, so they share the oracle
    let mut oracle = Oracle::new(&inst.net, &pairs);
    let mut verdict = Verdict::default();
    for run in std::iter::once(&c).chain(&followers) {
        let from = check(&run.logs, &mut oracle, |_| true);
        verdict.attempted += from.attempted;
        verdict.failed += from.failed;
        verdict.shape = verdict.shape.or(from.shape);
        let named = from
            .findings
            .into_iter()
            .map(|f| format!("path {}: {f}", run.name));
        verdict.findings.extend(named);
    }
    let n = c.logs[0].samples.len() - PATH_WARM_UP;
    let [b, a, c_plain, ..] = &followers[..] else {
        unreachable!("three followers are always opened");
    };

    let (mc, mb, ma) = (c.means(), b.means(), a.means());
    let mc_solo = followers.get(3).map_or_else(|| mc.clone(), Replay::means);
    let d = Decomposition::from_paths(&mc, &mc_solo, &mb, &ma);
    let mut flags = Vec::new();
    for (name, v) in d.layers() {
        if v < 0.0 {
            flags.push(format!(
                "{name} is negative ({v:.4} ms): reported as measured"
            ));
        }
    }
    if (d.sum_ms() - mc.query_ms).abs() > 1e-6 {
        flags.push(format!(
            "layer self times sum to {} ms, traced query time is {} ms",
            d.sum_ms(),
            mc.query_ms
        ));
    }
    let overhead = (c.mean_wall_ms() - c_plain.mean_wall_ms()) / c_plain.mean_wall_ms();

    // sweeps from path A's request lists: per query they repeat exactly
    let (sweeps, pages_swept, round_sizes, a_queries) = {
        let r = a.spans();
        let queries = r.spans.iter().filter(|s| s.name == trace::QUERY).count() as u64;
        (
            r.sweeps,
            r.pages_swept,
            r.round_size.clone(),
            queries.max(1),
        )
    };
    if sweeps % a_queries != 0 || pages_swept % a_queries != 0 {
        flags.push(format!(
            "sweeps are not constant per query: {sweeps} sweeps of {pages_swept} pages over {a_queries} queries"
        ));
    }
    let (sweeps, pages_swept) = (
        sweeps as f64 / a_queries as f64,
        pages_swept as f64 / a_queries as f64,
    );

    let largest = layers::largest_file(&inst.db)?;
    let round_size = round_sizes.get(&largest.0).copied().unwrap_or(1);
    let rates = layers::measure(&inst.db, largest, round_size, scratch.path())?;
    // what one swept page should cost on this workload's backend
    let per_page_s = (rates.kernel_s
        + match w.backend {
            StorageBackend::Mem => 0.0,
            StorageBackend::Disk => rates.disk_read_s + rates.crc32_s,
            StorageBackend::Mmap => rates.checksum_run_s,
        })
        / f64::from(rates.file_pages);
    let model_ms = pages_swept * per_page_s * 1e3;

    if let Some(path) = trace_out {
        std::fs::write(path, trace::spans_json(&c.spans().spans))?;
    }

    let [partition_s, borders_s, precompute_s, files_s, plan_s] = inst.build_stage_s;
    let (persist_s, open_s) = (inst.persist_s, inst.open_s);
    let retransmits: u64 = c.logs.iter().map(|l| l.retries).sum();
    c.close()?;
    for f in followers {
        f.close()?;
    }
    wire_front.shutdown();
    inst.tear_down()?;

    let per_exchange_us = |ms: f64| ms * 1e3 / mc_solo.exchanges.max(1.0);
    let count = |name: &str, v: f64| metric(name, v, "count");
    let ms = |name: &str, v: f64| metric(name, v, "ms");
    let gbps = |name: &str, s: f64| metric(name, rates.gbps(s), "GB/s");
    let secs = |name: &str, v: f64| metric(name, v, "s");
    let metrics: Vec<MetricValue> = vec![
        ms("trace.query_ms", mc.query_ms),
        metric("trace.overhead_share", overhead, "share"),
        ms("core.client.self_ms", d.client_ms),
        count(
            "core.client.rounds",
            verdict.shape.map_or(0.0, |s| f64::from(s.rounds)),
        ),
        count("core.client.exchanges", mc.exchanges),
        count("core.client.pages_fetched", mc.pages_fetched),
        ms("pir.wire.client.self_ms", d.wire_client_ms),
        count("pir.wire.client.frames_sent", mc.frames_sent),
        count("pir.wire.client.retransmits", retransmits as f64),
        ms("pir.wire.tcp.self_ms", d.tcp_ms),
        metric("pir.wire.tcp.bytes_up", mc.bytes_up, "bytes"),
        metric("pir.wire.tcp.bytes_down", mc.bytes_down, "bytes"),
        metric(
            "pir.wire.tcp.us_per_exchange",
            per_exchange_us(d.tcp_ms),
            "us",
        ),
        ms("pir.wire.front.self_ms", d.front_ms),
        metric(
            "pir.wire.front.us_per_exchange",
            per_exchange_us(d.front_ms),
            "us",
        ),
        ms("pir.wire.front.queue_ms", d.queue_ms),
        ms("pir.server.busy_ms", d.server_ms),
        metric(
            "pir.server.model_residual_share",
            (d.server_ms - model_ms) / d.server_ms,
            "share",
        ),
        count("pir.scan.sweeps", sweeps),
        count("pir.scan.pages_swept", pages_swept),
        metric(
            "pir.scan.useful_ratio",
            ma.pages_fetched / pages_swept,
            "ratio",
        ),
        gbps("pir.scan.kernel_gbps", rates.kernel_s),
        gbps("storage.driver.mem.read_gbps", rates.mem_read_s),
        gbps("storage.driver.disk.read_gbps", rates.disk_read_s),
        gbps("storage.driver.mmap.read_gbps", rates.mmap_read_s),
        gbps("storage.checksum.crc32_gbps", rates.crc32_s),
        gbps("storage.checksum.run_gbps", rates.checksum_run_s),
        secs("storage.snapshot.persist_s", persist_s),
        secs("storage.snapshot.open_s", open_s),
        secs("core.build.partition_s", partition_s),
        secs("core.build.borders_s", borders_s),
        secs("core.build.precompute_s", precompute_s),
        secs("core.build.files_s", files_s),
        secs("core.build.plan_s", plan_s),
    ];
    debug_assert!(
        metrics
            .iter()
            .map(|m| (m.name.as_str(), m.unit))
            .eq(workload::PER_LAYER
                .iter()
                .map(|&(name, unit, _)| (name, unit))),
        "the traced run reports exactly the declared per-layer metrics"
    );
    flags.splice(0..0, verdict.findings.iter().cloned());
    println!(
        "# {}: direct calls on {} ({} pages, {} bytes), scan batches of {} pages",
        w.name, rates.file_name, rates.file_pages, rates.file_bytes, round_size
    );
    Ok(WorkloadResult {
        workload: w,
        attempted: verdict.attempted,
        failed: verdict.failed,
        correct: verdict.correct(),
        samples: n,
        metrics,
        flags,
    })
}
