//! Spans recorded from outside the program: a [`Transport`] decorator and
//! a [`FrameLink`] decorator wrap the calls into each layer, and the
//! harness opens the `query` span around `QuerySession::query`. Spans stay
//! in memory; self times and the three-path decomposition are computed
//! after the run.
//!
//! One recorder belongs to one client thread, so its spans nest strictly:
//! `query` > `transport.*` > `link.*`.

use crate::json::Json;
use privpath_pir::{FileId, FrameLink, PirError, SystemSpec, Transport};
use privpath_storage::PageBuf;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const NO_PARENT: u32 = u32::MAX;
/// Query id of spans outside any query (the session handshake).
pub const NO_QUERY: u32 = u32::MAX;

pub const QUERY: &str = "query";
pub const T_BEGIN: &str = "transport.begin_query";
pub const T_ROUND: &str = "transport.serve_round";
pub const T_DOWNLOAD: &str = "transport.download";
pub const L_SEND: &str = "link.send";
pub const L_RECV: &str = "link.recv";

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Spans of one query share its id.
    pub query: u32,
    /// Work counted at the boundary: frame bytes for `link.*`, pages
    /// requested for `transport.serve_round`, file bytes for a download.
    pub work: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    query: u32,
    /// Same-file request runs seen by `serve_round`: each is one sweep.
    pub sweeps: u64,
    pub pages_swept: u64,
    /// Longest same-file run per file id: the round size the scan serves.
    pub round_size: BTreeMap<u16, usize>,
}

pub type SharedRecorder = Arc<Mutex<Recorder>>;

impl Recorder {
    pub fn shared() -> SharedRecorder {
        Arc::new(Mutex::new(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            query: NO_QUERY,
            sweeps: 0,
            pages_swept: 0,
            round_size: BTreeMap::new(),
        }))
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str, work: u64) -> u32 {
        let idx = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            query: self.query,
            work,
        });
        self.open.push(idx);
        idx
    }

    fn exit(&mut self, idx: u32) {
        let now = self.now_ns();
        self.spans[idx as usize].end_ns = now;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans of one client close innermost first");
    }
}

fn lock(rec: &SharedRecorder) -> std::sync::MutexGuard<'_, Recorder> {
    rec.lock()
        .expect("a recorder is only locked around plain field updates")
}

/// Runs `call` inside a span; `work_of` reads the span's work off the result
/// when it is only known afterwards (received bytes).
fn spanned<T>(
    rec: &SharedRecorder,
    name: &'static str,
    work: u64,
    call: impl FnOnce() -> T,
    work_of: impl FnOnce(&T) -> Option<u64>,
) -> T {
    let idx = lock(rec).enter(name, work);
    let out = call();
    let mut r = lock(rec);
    if let Some(w) = work_of(&out) {
        r.spans[idx as usize].work = w;
    }
    r.exit(idx);
    out
}

/// Opens the `query` span of query `id`; the returned guard closes it.
pub fn query_span(rec: &SharedRecorder, id: u32) -> QueryGuard<'_> {
    let mut r = lock(rec);
    r.query = id;
    let idx = r.enter(QUERY, 0);
    QueryGuard { rec, idx }
}

pub struct QueryGuard<'a> {
    rec: &'a SharedRecorder,
    idx: u32,
}

impl Drop for QueryGuard<'_> {
    fn drop(&mut self) {
        let mut r = lock(self.rec);
        r.exit(self.idx);
        r.query = NO_QUERY;
    }
}

/// [`Transport`] decorator: one span per protocol operation, sweep counts
/// taken from the request lists.
pub struct TracedTransport {
    inner: Box<dyn Transport + Send>,
    rec: SharedRecorder,
}

impl TracedTransport {
    pub fn new(inner: Box<dyn Transport + Send>, rec: SharedRecorder) -> Self {
        TracedTransport { inner, rec }
    }
}

impl Transport for TracedTransport {
    fn spec(&self) -> &SystemSpec {
        self.inner.spec()
    }

    fn file_pages(&self, f: FileId) -> Result<u32, PirError> {
        self.inner.file_pages(f)
    }

    fn begin_query(&mut self) -> Result<(), PirError> {
        let inner = &mut self.inner;
        spanned(&self.rec, T_BEGIN, 0, || inner.begin_query(), |_| None)
    }

    fn serve_round(
        &mut self,
        round: u32,
        requests: &[(FileId, u32)],
        out: &mut [PageBuf],
    ) -> Result<(), PirError> {
        // the server sweeps a file once per run of consecutive same-file
        // requests (`PirServer::serve_requests`); the file sizes are public
        let mut runs: Vec<(FileId, usize)> = Vec::new();
        for &(f, _) in requests {
            match runs.last_mut() {
                Some((last, n)) if *last == f => *n += 1,
                _ => runs.push((f, 1)),
            }
        }
        {
            let mut r = lock(&self.rec);
            for &(f, n) in &runs {
                r.sweeps += 1;
                r.pages_swept += u64::from(self.inner.file_pages(f)?);
                let longest = r.round_size.entry(f.0).or_insert(0);
                *longest = (*longest).max(n);
            }
        }
        let inner = &mut self.inner;
        spanned(
            &self.rec,
            T_ROUND,
            requests.len() as u64,
            || inner.serve_round(round, requests, out),
            |_| None,
        )
    }

    fn download(&mut self, f: FileId) -> Result<Vec<u8>, PirError> {
        let inner = &mut self.inner;
        spanned(
            &self.rec,
            T_DOWNLOAD,
            0,
            || inner.download(f),
            |r| r.as_ref().ok().map(|b| b.len() as u64),
        )
    }

    fn close(&mut self) -> Result<(), PirError> {
        self.inner.close()
    }

    fn retries(&self) -> u64 {
        self.inner.retries()
    }
}

/// [`FrameLink`] decorator: one span per frame sent or awaited, carrying
/// the frame's bytes.
pub struct TracedLink {
    inner: Box<dyn FrameLink>,
    rec: SharedRecorder,
}

impl TracedLink {
    pub fn new(inner: Box<dyn FrameLink>, rec: SharedRecorder) -> Self {
        TracedLink { inner, rec }
    }
}

impl FrameLink for TracedLink {
    fn send(&mut self, frame: &[u8]) -> Result<(), PirError> {
        let inner = &mut self.inner;
        spanned(
            &self.rec,
            L_SEND,
            frame.len() as u64,
            || inner.send(frame),
            |_| None,
        )
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Result<Vec<u8>, PirError> {
        let inner = &mut self.inner;
        spanned(
            &self.rec,
            L_RECV,
            0,
            || inner.recv(timeout),
            |r| r.as_ref().ok().map(|b| b.len() as u64),
        )
    }
}

/// A span's self time: its duration minus the part its children cover.
/// Signed, because a negative value is a finding to flag, not to clamp.
pub fn self_times_ns(spans: &[Span]) -> Vec<i64> {
    let mut own: Vec<i64> = spans.iter().map(|s| s.duration_ns() as i64).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            own[s.parent as usize] -= s.duration_ns() as i64;
        }
    }
    own
}

/// Per-query means over the queries `first_query..`, from one client's
/// spans. Times in milliseconds, counts per query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PathMeans {
    pub queries: usize,
    /// Whole `query` spans.
    pub query_ms: f64,
    /// Self time of the `query` spans: client work outside the transport.
    pub query_self_ms: f64,
    /// Whole `transport.*` spans.
    pub transport_ms: f64,
    /// Self time of the `transport.*` spans: codec, copies, retry loop.
    pub transport_self_ms: f64,
    /// Whole `link.*` spans.
    pub link_ms: f64,
    pub exchanges: f64,
    pub pages_fetched: f64,
    pub frames_sent: f64,
    pub bytes_up: f64,
    pub bytes_down: f64,
}

pub fn path_means(spans: &[Span], first_query: u32) -> PathMeans {
    let own = self_times_ns(spans);
    let mut m = PathMeans::default();
    for (s, &own_ns) in spans.iter().zip(&own) {
        if s.query == NO_QUERY || s.query < first_query {
            continue;
        }
        let (whole, own_ms) = (s.duration_ns() as f64 / 1e6, own_ns as f64 / 1e6);
        match s.name {
            QUERY => {
                m.queries += 1;
                m.query_ms += whole;
                m.query_self_ms += own_ms;
            }
            T_BEGIN | T_ROUND | T_DOWNLOAD => {
                m.exchanges += 1.0;
                m.transport_ms += whole;
                m.transport_self_ms += own_ms;
                if s.name == T_ROUND {
                    m.pages_fetched += s.work as f64;
                }
            }
            L_SEND => {
                m.frames_sent += 1.0;
                m.bytes_up += s.work as f64;
                m.link_ms += whole;
            }
            L_RECV => {
                m.bytes_down += s.work as f64;
                m.link_ms += whole;
            }
            other => unreachable!("span name {other} is not recorded by this harness"),
        }
    }
    let n = m.queries.max(1) as f64;
    for v in [
        &mut m.query_ms,
        &mut m.query_self_ms,
        &mut m.transport_ms,
        &mut m.transport_self_ms,
        &mut m.link_ms,
        &mut m.exchanges,
        &mut m.pages_fetched,
        &mut m.frames_sent,
        &mut m.bytes_up,
        &mut m.bytes_down,
    ] {
        *v /= n;
    }
    m
}

/// The traced query time split into layer self times by differencing three
/// nested paths that replay the same queries: A in-process, B through the
/// front over a channel link, C through the front over TCP.
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposition {
    /// `core.client`: query − Σtransport on C.
    pub client_ms: f64,
    /// `pir.wire.client`: Σtransport − Σlink on C.
    pub wire_client_ms: f64,
    /// `pir.wire.front` queueing: Σlink on C at the workload's client count
    /// − Σlink on C with one client. Zero by definition with one client.
    pub queue_ms: f64,
    /// `pir.wire.tcp`: Σlink on C (one client) − Σlink on B.
    pub tcp_ms: f64,
    /// `pir.wire.front`: Σlink on B − Σtransport on A.
    pub front_ms: f64,
    /// `pir.server`: Σtransport on A.
    pub server_ms: f64,
}

impl Decomposition {
    /// `c` is path C at the workload's client count, `c_solo` path C with
    /// one client (the same run when the workload has one client).
    pub fn from_paths(c: &PathMeans, c_solo: &PathMeans, b: &PathMeans, a: &PathMeans) -> Self {
        Decomposition {
            client_ms: c.query_self_ms,
            wire_client_ms: c.transport_self_ms,
            queue_ms: c.link_ms - c_solo.link_ms,
            tcp_ms: c_solo.link_ms - b.link_ms,
            front_ms: b.link_ms - a.transport_ms,
            server_ms: a.transport_ms,
        }
    }

    pub fn layers(&self) -> [(&'static str, f64); 6] {
        [
            ("core.client.self_ms", self.client_ms),
            ("pir.wire.client.self_ms", self.wire_client_ms),
            ("pir.wire.front.queue_ms", self.queue_ms),
            ("pir.wire.tcp.self_ms", self.tcp_ms),
            ("pir.wire.front.self_ms", self.front_ms),
            ("pir.server.busy_ms", self.server_ms),
        ]
    }

    /// Telescopes to `c.query_ms` by construction.
    pub fn sum_ms(&self) -> f64 {
        self.layers().iter().map(|(_, v)| v).sum()
    }
}

/// The spans as a JSON array, one object per line: what `--trace-out` writes.
pub fn spans_json(spans: &[Span]) -> String {
    let items = spans.iter().enumerate().map(|(i, s)| {
        Json::obj([
            ("id", Json::Num(i as f64)),
            ("name", Json::str(s.name)),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            (
                "parent",
                if s.parent == NO_PARENT {
                    Json::Null
                } else {
                    Json::Num(f64::from(s.parent))
                },
            ),
            (
                "query",
                if s.query == NO_QUERY {
                    Json::Null
                } else {
                    Json::Num(f64::from(s.query))
                },
            ),
            ("work", Json::Num(s.work as f64)),
        ])
    });
    let mut out = String::from("[\n");
    for (i, item) in items.enumerate() {
        out.push_str(if i == 0 { "" } else { ",\n" });
        out.push_str(&item.to_string());
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32, query: u32, work: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            query,
            work,
        }
    }

    /// Two queries; the first is warm-up and must be skipped.
    fn tree() -> Vec<Span> {
        vec![
            span(L_SEND, 0, 5, NO_PARENT, NO_QUERY, 9), // handshake, outside any query
            span(QUERY, 10, 20, NO_PARENT, 0, 0),
            span(T_BEGIN, 11, 19, 1, 0, 0),
            // query 1: 0..10 ms
            span(QUERY, 1_000_000, 11_000_000, NO_PARENT, 1, 0),
            span(T_BEGIN, 1_500_000, 2_500_000, 3, 1, 0),
            span(L_SEND, 1_600_000, 1_700_000, 4, 1, 30),
            span(L_RECV, 1_700_000, 2_400_000, 4, 1, 20),
            span(T_ROUND, 3_000_000, 9_000_000, 3, 1, 8),
            span(L_SEND, 3_100_000, 3_300_000, 7, 1, 100),
            span(L_RECV, 3_300_000, 8_300_000, 7, 1, 32_000),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let own = self_times_ns(&tree());
        assert_eq!(own[3], 10_000_000 - 1_000_000 - 6_000_000); // query 1
        assert_eq!(own[4], 1_000_000 - 100_000 - 700_000); // begin_query
        assert_eq!(own[7], 6_000_000 - 200_000 - 5_000_000); // serve_round
        assert_eq!(own[9], 5_000_000); // a leaf keeps its duration
    }

    #[test]
    fn negative_self_time_is_kept_not_clamped() {
        // a child recorded longer than its parent (clock trouble) must show
        let spans = vec![
            span(QUERY, 0, 10, NO_PARENT, 0, 0),
            span(T_ROUND, 0, 15, 0, 0, 1),
        ];
        assert_eq!(self_times_ns(&spans)[0], -5);
    }

    #[test]
    fn path_means_skip_warm_up_and_handshake() {
        let m = path_means(&tree(), 1);
        assert_eq!(m.queries, 1);
        assert_eq!(m.query_ms, 10.0);
        assert_eq!(m.query_self_ms, 3.0);
        assert_eq!(m.transport_ms, 7.0);
        assert!((m.transport_self_ms - 1.0).abs() < 1e-12);
        assert!((m.link_ms - 6.0).abs() < 1e-12);
        assert_eq!(m.exchanges, 2.0);
        assert_eq!(m.pages_fetched, 8.0);
        assert_eq!(m.frames_sent, 2.0);
        assert_eq!(m.bytes_up, 130.0);
        assert_eq!(m.bytes_down, 32_020.0);
        // per span level, whole = self + children
        assert!((m.query_self_ms + m.transport_ms - m.query_ms).abs() < 1e-12);
        assert!((m.transport_self_ms + m.link_ms - m.transport_ms).abs() < 1e-12);
    }

    fn means(query: f64, transport: f64, link: f64) -> PathMeans {
        PathMeans {
            queries: 10,
            query_ms: query,
            query_self_ms: query - transport,
            transport_ms: transport,
            transport_self_ms: transport - link,
            link_ms: link,
            ..PathMeans::default()
        }
    }

    #[test]
    fn three_path_decomposition_telescopes() {
        let a = means(4.1, 2.5, 0.0);
        let b = means(9.0, 7.5, 6.25);
        let c1 = means(17.3, 15.9, 14.0);
        let d = Decomposition::from_paths(&c1, &c1, &b, &a);
        assert_eq!(d.queue_ms, 0.0);
        assert!((d.client_ms - 1.4).abs() < 1e-9);
        assert!((d.wire_client_ms - 1.9).abs() < 1e-9);
        assert!((d.tcp_ms - 7.75).abs() < 1e-9);
        assert!((d.front_ms - 3.75).abs() < 1e-9);
        assert_eq!(d.server_ms, 2.5);
        assert!((d.sum_ms() - c1.query_ms).abs() < 1e-9);

        // two clients: the extra link wait is the queue, the sum still holds
        let c2 = means(33.0, 31.5, 29.5);
        let d2 = Decomposition::from_paths(&c2, &c1, &b, &a);
        assert!((d2.queue_ms - 15.5).abs() < 1e-9);
        assert!((d2.sum_ms() - c2.query_ms).abs() < 1e-9);

        // a path that got *faster* with more layers shows as a negative layer
        let odd = Decomposition::from_paths(&c1, &c1, &means(20.0, 19.0, 18.0), &a);
        assert!(odd.tcp_ms < 0.0);
        assert!((odd.sum_ms() - c1.query_ms).abs() < 1e-9);
    }

    #[test]
    fn decorators_record_nested_spans_and_counts() {
        struct Loop(Vec<Vec<u8>>);
        impl FrameLink for Loop {
            fn send(&mut self, frame: &[u8]) -> Result<(), PirError> {
                self.0.push(frame.to_vec());
                Ok(())
            }
            fn recv(&mut self, _: Option<Duration>) -> Result<Vec<u8>, PirError> {
                Ok(self.0.pop().unwrap_or_default())
            }
        }
        let rec = Recorder::shared();
        let mut link = TracedLink::new(Box::new(Loop(Vec::new())), Arc::clone(&rec));
        {
            let _q = query_span(&rec, 3);
            link.send(&[1, 2, 3]).unwrap();
            assert_eq!(link.recv(None).unwrap(), vec![1, 2, 3]);
        }
        link.send(&[9]).unwrap();
        let r = rec.lock().unwrap();
        let names: Vec<_> = r
            .spans
            .iter()
            .map(|s| (s.name, s.parent, s.query, s.work))
            .collect();
        assert_eq!(
            names,
            vec![
                (QUERY, NO_PARENT, 3, 0),
                (L_SEND, 0, 3, 3),
                (L_RECV, 0, 3, 3),
                (L_SEND, NO_PARENT, NO_QUERY, 1),
            ]
        );
        assert!(r.spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
