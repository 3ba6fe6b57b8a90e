//! Concurrency tests: N `QuerySession`s over one `Arc`-shared `Database`
//! must return the same (optimal) answers as a lone session, keep their
//! accounting fully independent, and stay indistinguishable to the
//! adversary no matter how queries interleave across clients.

use privpath::core::audit::assert_indistinguishable;
use privpath::core::config::BuildConfig;
use privpath::core::engine::{Database, QueryOutput, SchemeKind};
use privpath::graph::dijkstra::{distance, INFINITY};
use privpath::graph::gen::{road_like, RoadGenConfig};
use privpath::graph::network::RoadNetwork;
use privpath::pir::PirMode;
use std::sync::Arc;

fn test_net(nodes: usize, seed: u64) -> RoadNetwork {
    road_like(&RoadGenConfig {
        nodes,
        seed,
        extra_edge_frac: 0.15,
        ..Default::default()
    })
}

fn small_cfg() -> BuildConfig {
    let mut cfg = BuildConfig::default();
    cfg.spec.page_size = 512;
    cfg.plan_sample = 64;
    cfg.plan_margin = 1.0;
    cfg
}

/// Runs `counts[k]` queries on thread `k`, all against one shared database.
/// Returns, per thread, the `(s, t, output)` of every query it ran.
fn run_parallel(
    db: &Arc<Database>,
    net: &RoadNetwork,
    counts: &[usize],
) -> Vec<Vec<(u32, u32, QueryOutput)>> {
    let n = net.num_nodes() as u32;
    std::thread::scope(|scope| {
        let handles: Vec<_> = counts
            .iter()
            .enumerate()
            .map(|(k, &count)| {
                let db = Arc::clone(db);
                scope.spawn(move || {
                    let mut session = db.session_with_seed(0xc0ffee + k as u64);
                    let mut outs = Vec::new();
                    let mut q = 0u32;
                    while outs.len() < count {
                        q += 1;
                        let s = (q * 131 + 7 + k as u32 * 37) % n;
                        let t = (q * 277 + 83 + k as u32 * 11) % n;
                        if s == t {
                            continue;
                        }
                        let out = session
                            .query_nodes(net, s, t)
                            .unwrap_or_else(|e| panic!("thread {k}: query {s}->{t}: {e}"));
                        outs.push((s, t, out));
                    }
                    outs
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query thread panicked"))
            .collect()
    })
}

#[test]
fn parallel_sessions_agree_and_account_independently() {
    let net = test_net(300, 7);
    let db = Arc::new(Database::build(&net, SchemeKind::Ci, &small_cfg()).expect("build"));
    // Deliberately unequal workloads: cross-session bleed of meters, rounds
    // or traces would show up as count mismatches below.
    let counts = [3usize, 5, 7, 9];
    let per_thread = run_parallel(&db, &net, &counts);

    let mut traces = Vec::new();
    let mut fetch_totals = Vec::new();
    for (k, outs) in per_thread.iter().enumerate() {
        assert_eq!(outs.len(), counts[k], "thread {k} ran a wrong query count");
        for (s, t, out) in outs {
            assert_eq!(
                out.answer.cost.unwrap_or(INFINITY),
                distance(&net, *s, *t),
                "thread {k}: wrong cost for {s}->{t}"
            );
            assert!(!out.plan_violation);
            // Per-query accounting must look like a lone session's: one
            // query's worth of rounds and fetches, regardless of what the
            // other three threads were doing at the time.
            fetch_totals.push(out.meter.total_fetches());
            assert_eq!(
                out.meter.rounds,
                db.plan().rounds.len() as u32,
                "thread {k}: rounds"
            );
            traces.push(out.trace.clone());
        }
    }
    // The fixed plan makes every query's fetch count identical.
    assert!(
        fetch_totals.windows(2).all(|w| w[0] == w[1]),
        "per-query fetch totals differ across sessions: {fetch_totals:?}"
    );
    // Theorem 1 must survive concurrency: any query, from any session, is
    // indistinguishable from any other.
    assert_indistinguishable(&traces).expect("concurrent traces distinguishable");
}

#[test]
fn parallel_sessions_match_sequential_session_results() {
    let net = test_net(250, 21);
    let db = Arc::new(Database::build(&net, SchemeKind::Hy, &small_cfg()).expect("build"));
    let counts = [4usize, 4];
    let per_thread = run_parallel(&db, &net, &counts);
    // A fresh lone session must reproduce each thread's answers exactly
    // (costs and snapped endpoints are deterministic; only wall times vary).
    let mut lone = db.session();
    for outs in &per_thread {
        for (s, t, out) in outs {
            let again = lone.query_nodes(&net, *s, *t).expect("sequential query");
            assert_eq!(again.answer.cost, out.answer.cost, "{s}->{t} cost diverged");
            assert_eq!(again.answer.src_node, out.answer.src_node);
            assert_eq!(again.answer.dst_node, out.answer.dst_node);
            assert_eq!(again.meter.total_fetches(), out.meter.total_fetches());
        }
    }
}

/// PR 5 wire stress: many wire clients hammer one `ServerFront` loop with
/// interleaved sessions and unequal workloads (so rounds of different
/// sessions complete out of order relative to each other), half the
/// clients close their sessions and half just drop them, answers stay
/// optimal, Theorem 1 survives, the server-side session table matches the
/// client-side plan arithmetic — and shutdown is clean even with sessions
/// still open.
#[test]
fn many_wire_clients_one_server_stress_and_graceful_shutdown() {
    let net = test_net(250, 9);
    let db = Arc::new(Database::build(&net, SchemeKind::Ci, &small_cfg()).expect("build"));
    let front = db.serve_wire();
    let n = net.num_nodes() as u32;
    let counts = [2usize, 5, 3, 6, 2, 4];
    let per_thread: Vec<Vec<(u32, u32, QueryOutput)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = counts
            .iter()
            .enumerate()
            .map(|(k, &count)| {
                let db = Arc::clone(&db);
                let net = &net;
                let front = &front;
                scope.spawn(move || {
                    let mut session = db
                        .wire_session_with_seed(front, 0xfade + k as u64)
                        .expect("connect");
                    let mut outs = Vec::new();
                    let mut q = 0u32;
                    while outs.len() < count {
                        q += 1;
                        let s = (q * 173 + 7 + k as u32 * 41) % n;
                        let t = (q * 311 + 83 + k as u32 * 13) % n;
                        if s == t {
                            continue;
                        }
                        let out = session
                            .query_nodes(net, s, t)
                            .unwrap_or_else(|e| panic!("wire thread {k}: query {s}->{t}: {e}"));
                        outs.push((s, t, out));
                    }
                    if k % 2 == 0 {
                        session.close().expect("clean session close");
                    } // odd threads just drop their session mid-flight
                    outs
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("wire thread panicked"))
            .collect()
    });

    let mut traces = Vec::new();
    for (k, outs) in per_thread.iter().enumerate() {
        assert_eq!(outs.len(), counts[k]);
        for (s, t, out) in outs {
            assert_eq!(
                out.answer.cost.unwrap_or(INFINITY),
                distance(&net, *s, *t),
                "wire thread {k}: wrong cost for {s}->{t}"
            );
            assert!(!out.plan_violation);
            traces.push(out.trace.clone());
        }
    }
    assert_indistinguishable(&traces).expect("wire traces distinguishable");

    // Server-side session table: one entry per client; per-session query
    // counts are the thread workloads (in some order — session ids are
    // assigned in connection order, which is racy); fetch and round counts
    // follow from the fixed plan.
    let stats = front.session_stats();
    assert_eq!(stats.len(), counts.len());
    let mut seen: Vec<usize> = stats.values().map(|s| s.queries as usize).collect();
    seen.sort_unstable();
    let mut want = counts.to_vec();
    want.sort_unstable();
    assert_eq!(seen, want, "per-session query counts");
    let plan_fetches = u64::from(db.plan().total_fetches());
    let plan_rounds = db.plan().rounds.len() as u64;
    for (sid, s) in &stats {
        assert_eq!(s.fetches, s.queries * plan_fetches, "session {sid} fetches");
        assert_eq!(s.rounds, s.queries * plan_rounds, "session {sid} rounds");
        assert_eq!(s.downloads, s.queries, "session {sid} header downloads");
        assert!(s.bytes_in > 0 && s.bytes_out > 0);
    }

    // Graceful shutdown with sessions open: connect two more clients, leave
    // their sessions live across the shutdown, then check they fail cleanly
    // (error, not hang or panic) instead of talking to a dead loop.
    let mut open_a = db.wire_session_with_seed(&front, 0x0af1).expect("connect");
    let mut open_b = db.wire_session_with_seed(&front, 0x0af2).expect("connect");
    open_a
        .query_nodes(&net, 1, 200)
        .expect("query before shutdown");
    let final_stats = front.shutdown();
    assert_eq!(final_stats.len(), counts.len() + 2);
    assert!(
        final_stats.values().all(|s| s.closed),
        "shutdown must close every session"
    );
    for session in [&mut open_a, &mut open_b] {
        let err = session
            .query_nodes(&net, 2, 100)
            .expect_err("post-shutdown queries must error");
        assert!(err.to_string().contains("disconnected"), "{err}");
    }
}

/// PR 7 network stress: the same many-clients shape as the wire stress,
/// but over real loopback TCP sockets into a [`privpath::pir::TcpFront`],
/// whose one loop thread accepts and serves them all — over linear-scan
/// stores, so interleaved rounds of one file ride the laps of its rotation
/// together. Half the clients close their sessions, half just drop them
/// (dropping a TCP session closes its socket, i.e. a mid-session
/// disconnect the front's poll loop must turn into a clean server-side
/// teardown). Then two more
/// clients stay live across `shutdown()`: the drain must flush their
/// buffered replies and close the sockets so post-shutdown queries fail
/// with a clean error, not a hang.
#[test]
fn many_tcp_clients_one_server_stress_and_graceful_shutdown() {
    let net = test_net(250, 9);
    let mut cfg = small_cfg();
    // linear-scan stores: the one mode whose rounds share laps
    cfg.pir_mode = PirMode::LinearScan;
    let db = Arc::new(Database::build(&net, SchemeKind::Ci, &cfg).expect("build"));
    let front = db.serve_tcp().expect("bind loopback front");
    let n = net.num_nodes() as u32;
    let counts = [2usize, 5, 3, 6, 2, 4];
    let per_thread: Vec<Vec<(u32, u32, QueryOutput)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = counts
            .iter()
            .enumerate()
            .map(|(k, &count)| {
                let db = Arc::clone(&db);
                let net = &net;
                let front = &front;
                scope.spawn(move || {
                    let mut session = db
                        .tcp_session_with_seed(front, 0xfade + k as u64)
                        .expect("connect");
                    let mut outs = Vec::new();
                    let mut q = 0u32;
                    while outs.len() < count {
                        q += 1;
                        let s = (q * 173 + 7 + k as u32 * 41) % n;
                        let t = (q * 311 + 83 + k as u32 * 13) % n;
                        if s == t {
                            continue;
                        }
                        let out = session
                            .query_nodes(net, s, t)
                            .unwrap_or_else(|e| panic!("tcp thread {k}: query {s}->{t}: {e}"));
                        outs.push((s, t, out));
                    }
                    if k % 2 == 0 {
                        session.close().expect("clean session close");
                    } // odd threads drop the session: a mid-session disconnect
                    outs
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tcp thread panicked"))
            .collect()
    });

    let mut traces = Vec::new();
    for (k, outs) in per_thread.iter().enumerate() {
        assert_eq!(outs.len(), counts[k]);
        for (s, t, out) in outs {
            assert_eq!(
                out.answer.cost.unwrap_or(INFINITY),
                distance(&net, *s, *t),
                "tcp thread {k}: wrong cost for {s}->{t}"
            );
            assert!(!out.plan_violation);
            traces.push(out.trace.clone());
        }
    }
    assert_indistinguishable(&traces).expect("tcp traces distinguishable");

    // Server-side table: exactly as over the in-process wire — the socket
    // (and any sweep sharing) must not change the accounting.
    let stats = front.session_stats();
    assert_eq!(stats.len(), counts.len());
    let mut seen: Vec<usize> = stats.values().map(|s| s.queries as usize).collect();
    seen.sort_unstable();
    let mut want = counts.to_vec();
    want.sort_unstable();
    assert_eq!(seen, want, "per-session query counts");
    let plan_fetches = u64::from(db.plan().total_fetches());
    let plan_rounds = db.plan().rounds.len() as u64;
    for (sid, s) in &stats {
        assert_eq!(s.fetches, s.queries * plan_fetches, "session {sid} fetches");
        assert_eq!(s.rounds, s.queries * plan_rounds, "session {sid} rounds");
        assert_eq!(s.downloads, s.queries, "session {sid} header downloads");
        assert!(s.bytes_in > 0 && s.bytes_out > 0);
    }

    // Graceful drain with live sockets: two more clients connect, one has
    // queried, both stay open across shutdown, then observe a severed
    // connection — an error, never a hang.
    let mut open_a = db.tcp_session_with_seed(&front, 0x0af1).expect("connect");
    let mut open_b = db.tcp_session_with_seed(&front, 0x0af2).expect("connect");
    open_a
        .query_nodes(&net, 1, 200)
        .expect("query before shutdown");
    let final_stats = front.shutdown();
    assert_eq!(final_stats.len(), counts.len() + 2);
    assert!(
        final_stats.values().all(|s| s.closed),
        "shutdown must close every session"
    );
    for session in [&mut open_a, &mut open_b] {
        let err = session
            .query_nodes(&net, 2, 100)
            .expect_err("post-shutdown queries must error");
        assert!(err.to_string().contains("disconnected"), "{err}");
    }
}

/// Drain regression: a graceful TCP shutdown must flush the whole of
/// a partially-written response before the front closes the socket. A
/// client that is slow to read requests a download far larger than the
/// loopback socket buffers (so most of its one frame is still buffered
/// server-side when the drain starts), the front shuts down the moment the
/// server loop has served the request, and the client must still receive
/// the complete, byte-correct file.
#[test]
fn tcp_shutdown_flushes_partially_written_chunk_trains() {
    use privpath::pir::{
        FileId, FrameLink, FrontConfig, PirServer, RetryPolicy, SystemSpec, TcpFront, TcpLink,
        Transport, WireChannel,
    };
    use privpath::storage::{MemFile, PageBuf, DEFAULT_PAGE_SIZE};
    use std::time::{Duration, Instant};

    /// A [`TcpLink`] whose `slow`-th receive (counting from 1) waits
    /// `delay` first, pinning the client far behind the front so the
    /// shutdown drain races a mostly-unwritten response.
    struct SlowLink {
        inner: TcpLink,
        recvs: u32,
        slow: u32,
        delay: Duration,
    }
    impl FrameLink for SlowLink {
        fn send(&mut self, frame: &[u8]) -> privpath::pir::Result<()> {
            self.inner.send(frame)
        }
        fn recv(&mut self, timeout: Option<Duration>) -> privpath::pir::Result<Vec<u8>> {
            self.recvs += 1;
            if self.recvs == self.slow {
                std::thread::sleep(self.delay);
            }
            self.inner.recv(timeout)
        }
    }

    // 2,048 tagged pages = 8 MiB in one frame: twice what a loopback socket
    // pair holds for a peer that does not read, so the front cannot have
    // flushed it when the drain begins.
    const PAGES: u32 = 2048;
    let mut srv = PirServer::new(SystemSpec::default());
    let mut f = MemFile::empty(DEFAULT_PAGE_SIZE);
    for p in 0..PAGES {
        let mut page = PageBuf::zeroed(DEFAULT_PAGE_SIZE);
        page.as_mut_slice()[..4].copy_from_slice(&p.to_le_bytes());
        f.push_page(page);
    }
    srv.add_file("Fd", f, PirMode::LinearScan).unwrap();
    let front = TcpFront::spawn_with(Arc::new(srv), FrontConfig::default()).unwrap();

    // receives 1 and 2 are the handshake's and the query's; 3 is the
    // download's
    let link = SlowLink {
        inner: TcpLink::connect(front.addr()).unwrap(),
        recvs: 0,
        slow: 3,
        delay: Duration::from_millis(500),
    };
    let mut chan = WireChannel::handshake(Box::new(link), RetryPolicy::none()).unwrap();
    let sid = chan.session_id();
    chan.begin_query().unwrap();
    let downloader = std::thread::spawn(move || chan.download(FileId(0)));

    // Shut down the instant the server loop has served the download — the
    // slow client has not begun to read it by then.
    let deadline = Instant::now() + Duration::from_secs(10);
    while front.session_stats().get(&sid).map_or(0, |s| s.downloads) == 0 {
        assert!(
            Instant::now() < deadline,
            "server never served the download"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
    front.shutdown();

    let bytes = downloader
        .join()
        .expect("downloader thread panicked")
        .expect("the drain must deliver the full reply, not a severed socket");
    assert_eq!(bytes.len(), PAGES as usize * DEFAULT_PAGE_SIZE);
    for p in 0..PAGES as usize {
        let tag = u32::from_le_bytes(
            bytes[p * DEFAULT_PAGE_SIZE..p * DEFAULT_PAGE_SIZE + 4]
                .try_into()
                .unwrap(),
        );
        assert_eq!(
            tag, p as u32,
            "page {p} corrupted or reordered in the drain"
        );
    }
}

/// PR 9 storage stress: N concurrent wire sessions hammer ONE shared
/// **disk-backed** database — every page any store serves crosses the
/// snapshot reader's checksum verification under contention — and each
/// answer is differentially compared against an in-memory session on the
/// same snapshot with the same seed and workload (bit-identical answers,
/// paths, traces). Half the clients close cleanly, half drop mid-session;
/// a final live client stays open across `shutdown()` to check the drain
/// flushes and then fails cleanly, never hangs.
#[test]
fn many_wire_clients_on_one_disk_backed_database() {
    use privpath::core::snapshot::StorageBackend;
    let net = test_net(220, 14);
    let mut cfg = small_cfg();
    cfg.pir_mode = PirMode::LinearScan;
    let built = Database::build(&net, SchemeKind::Ci, &cfg).expect("build");
    let dir = std::env::temp_dir().join(format!("privpath-conc-disk-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("ci.snap");
    built.persist(&path).expect("persist");
    drop(built);

    let disk = Arc::new(Database::open_snapshot(&path, StorageBackend::Disk).expect("open disk"));
    let mem = Arc::new(Database::open_snapshot(&path, StorageBackend::Mem).expect("open mem"));
    let front = disk.serve_wire();
    let n = net.num_nodes() as u32;
    let counts = [3usize, 4, 2, 5, 3];
    let per_thread: Vec<Vec<(u32, u32, QueryOutput)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = counts
            .iter()
            .enumerate()
            .map(|(k, &count)| {
                let disk = Arc::clone(&disk);
                let net = &net;
                let front = &front;
                scope.spawn(move || {
                    let mut session = disk
                        .wire_session_with_seed(front, 0xd15c + k as u64)
                        .expect("connect");
                    let mut outs = Vec::new();
                    let mut q = 0u32;
                    while outs.len() < count {
                        q += 1;
                        let s = (q * 179 + 3 + k as u32 * 43) % n;
                        let t = (q * 307 + 89 + k as u32 * 17) % n;
                        if s == t {
                            continue;
                        }
                        let out = session
                            .query_nodes(net, s, t)
                            .unwrap_or_else(|e| panic!("disk thread {k}: query {s}->{t}: {e}"));
                        outs.push((s, t, out));
                    }
                    if k % 2 == 0 {
                        session.close().expect("clean session close");
                    } // odd threads drop their session mid-flight
                    outs
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("disk-backed thread panicked"))
            .collect()
    });

    // differential: an in-memory session replays each thread's workload
    // with the same seed — answers, paths and traces must be bit-identical
    let mut traces = Vec::new();
    for (k, outs) in per_thread.iter().enumerate() {
        assert_eq!(outs.len(), counts[k]);
        let mut reference = mem.session_with_seed(0xd15c + k as u64);
        for (s, t, out) in outs {
            assert_eq!(
                out.answer.cost.unwrap_or(INFINITY),
                distance(&net, *s, *t),
                "disk thread {k}: wrong cost for {s}->{t}"
            );
            let want = reference
                .query_nodes(&net, *s, *t)
                .unwrap_or_else(|e| panic!("mem reference {s}->{t}: {e}"));
            assert_eq!(out.answer.cost, want.answer.cost);
            assert_eq!(out.answer.path_nodes, want.answer.path_nodes);
            assert_eq!(out.trace, want.trace, "disk vs mem trace for {s}->{t}");
            assert!(!out.plan_violation);
            traces.push(out.trace.clone());
        }
    }
    assert_indistinguishable(&traces).expect("disk-backed traces distinguishable");

    // graceful drain with a live client: its buffered work flushes, then
    // post-shutdown queries fail with a clean error
    let mut live = disk
        .wire_session_with_seed(&front, 0xd15f)
        .expect("connect");
    live.query_nodes(&net, 1, 100)
        .expect("query before shutdown");
    let stats = front.shutdown();
    assert_eq!(stats.len(), counts.len() + 1);
    assert!(
        stats.values().all(|s| s.closed),
        "shutdown must close every session"
    );
    let err = live
        .query_nodes(&net, 2, 50)
        .expect_err("post-shutdown queries must error");
    assert!(err.to_string().contains("disconnected"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn parallel_sessions_over_functional_oblivious_store() {
    // The shuffled store mutates on every fetch (epoch reshuffles) behind
    // the server's internal lock; answers must stay optimal under
    // concurrent sessions.
    let net = test_net(200, 33);
    let mut cfg = small_cfg();
    cfg.pir_mode = PirMode::Shuffled { seed: 5 };
    let db = Arc::new(Database::build(&net, SchemeKind::Ci, &cfg).expect("build"));
    let counts = [3usize, 3, 3];
    let per_thread = run_parallel(&db, &net, &counts);
    for outs in &per_thread {
        for (s, t, out) in outs {
            assert_eq!(
                out.answer.cost.unwrap_or(INFINITY),
                distance(&net, *s, *t),
                "wrong cost for {s}->{t} through the shuffled store"
            );
        }
    }
}
