//! Chaos suite: the wire boundary under byzantine links and sabotaged
//! stores.
//!
//! PR 5 made the wire boundary observably invisible on a perfect link; this
//! suite asserts it stays *safe* on an imperfect one. Three escalating
//! failure domains are exercised:
//!
//! * **Hostile bytes.** Arbitrary, truncated, and bit-flipped byte strings
//!   fed to the frame decoder and to a live [`ServerFront`] produce typed
//!   errors or clean session teardown — never a panic, and never collateral
//!   damage to other sessions (the CRC-guarded v2 framing is what makes
//!   corrupt-vs-malicious distinguishable).
//! * **Faulty links.** A seeded [`FaultPlan`] drops, corrupts, truncates,
//!   duplicates and delays frames, and severs the link mid-session; the
//!   client's [`RetryPolicy`] must recover exactly (idempotent per-sequence
//!   replay on the server) or fail with a *typed, final* error once the
//!   budget is exhausted — with the server loop and every other session
//!   still alive either way.
//! * **Sabotaged stores.** A store that panics mid-fetch costs exactly one
//!   session: the panic is caught, the offending client gets a typed
//!   internal error, the poisoned store surfaces as a typed serve error to
//!   later fetches, and sessions on healthy files never notice.
//!
//! PR 7 extends the faulty-link domain to real sockets: the same seeded
//! fault plan layered *above* a loopback TCP connection must recover to a
//! stream observably identical to a clean TCP session's.
//!
//! PR 8 adds a fourth domain: **generation swaps under fire**. A
//! [`privpath::core::DbRegistry`] publishes a rebuilt database while
//! sessions are mid-workload on a faulty link, and while sabotaged
//! background rebuilds panic on the worker thread — pinned sessions must
//! drain on their generation with exact answers, and a failed rebuild must
//! never interrupt serving.
//!
//! PR 9 adds a fifth domain: **faulty disks**. A seeded
//! [`privpath::pir::DiskFaultPlan`] injects transient read errors, bit
//! rot, and torn reads *below* the snapshot checksum layer; transient
//! faults must be absorbed by the client's retry budget with answers
//! bit-identical to a clean disk, while data corruption surfaces as a
//! typed, fatal `PageCorrupt` that costs exactly one session — bystanders
//! on healthy files never blink.
//!
//! The privacy half of fault tolerance — that retries leak nothing — lives
//! in `tests/leakage.rs` (the chaos and swap differentials), next to the
//! rest of Theorem 1.

use privpath::core::config::BuildConfig;
use privpath::core::engine::{Database, SchemeKind};
use privpath::core::{CoreError, DbRegistry};
use privpath::graph::gen::{road_like, RoadGenConfig};
use privpath::pir::wire::{parse_observed, split_frame};
use privpath::pir::{
    DiskFaultPlan, FaultPlan, FaultyDisk, FileId, FrontConfig, PanicStore, PirMode, PirServer,
    RetryPolicy, ServerFront, SystemSpec, Transport,
};
use privpath::storage::{crc32, ChecksumFile, MemFile, PageBuf, PagedFile, DEFAULT_PAGE_SIZE};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Frame kind 10 is `Error` (the kind constants are module-private; the
/// tests only ever need to recognize this one).
const KIND_ERROR: u8 = 10;

fn cfg_small() -> BuildConfig {
    let mut cfg = BuildConfig::default();
    cfg.spec.page_size = 512;
    cfg.plan_sample = 0;
    cfg
}

/// A tiny two-file PIR server: file 0 healthy, each page tagged with its
/// index so correctness is checkable end to end.
fn tagged_file(pages: u32) -> MemFile {
    tagged_pages(pages, DEFAULT_PAGE_SIZE)
}

fn tagged_pages(pages: u32, page_size: usize) -> MemFile {
    let mut f = MemFile::empty(page_size);
    for p in 0..pages {
        let mut page = PageBuf::zeroed(page_size);
        page.as_mut_slice()[..4].copy_from_slice(&p.to_le_bytes());
        f.push_page(page);
    }
    f
}

fn page_tag(buf: &PageBuf) -> u32 {
    u32::from_le_bytes(buf.as_slice()[..4].try_into().unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Arbitrary bytes into the frame decoder: a typed error or a parsed
    /// frame, never a panic. (A random string passing the CRC *and* magic
    /// *and* version checks is a ~2^-56 event, so in practice every case
    /// exercises an error path.)
    #[test]
    fn frame_decoder_survives_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let _ = split_frame(&bytes);
        let _ = parse_observed(&bytes);
    }

    /// Arbitrary garbage thrown at a *live* server: every reply is a
    /// well-formed typed `Error` frame, the garbage-sending channel itself
    /// stays usable for real work afterwards, and a neighbouring session is
    /// never disturbed.
    #[test]
    fn server_answers_garbage_with_typed_errors(
        garbage in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..120), 1..5),
    ) {
        let mut srv = PirServer::new(SystemSpec::default());
        srv.add_file("Fd", tagged_file(24), PirMode::LinearScan).unwrap();
        let srv = Arc::new(srv);
        let front = ServerFront::spawn(Arc::clone(&srv));
        let mut bystander = front.connect().unwrap();
        let mut chan = front.connect().unwrap();
        for bytes in &garbage {
            let reply = chan.raw_exchange(bytes).unwrap();
            let frame = split_frame(&reply).unwrap_or_else(|e| {
                panic!("server replied with an unparseable frame: {e}")
            });
            prop_assert_eq!(frame.kind, KIND_ERROR, "reply to garbage must be an Error frame");
        }
        // the garbage never advanced the sequence cursor: real protocol
        // work on the same channel still succeeds...
        chan.begin_query().unwrap();
        let mut out = vec![PageBuf::zeroed(DEFAULT_PAGE_SIZE); 2];
        chan.serve_round(2, &[(FileId(0), 3), (FileId(0), 17)], &mut out).unwrap();
        prop_assert_eq!(page_tag(&out[0]), 3);
        prop_assert_eq!(page_tag(&out[1]), 17);
        chan.close().unwrap();
        // ... and the bystander session was never touched
        bystander.begin_query().unwrap();
        let mut out = vec![PageBuf::zeroed(DEFAULT_PAGE_SIZE)];
        bystander.serve_round(2, &[(FileId(0), 9)], &mut out).unwrap();
        prop_assert_eq!(page_tag(&out[0]), 9);
        front.shutdown();
    }
}

/// Every truncation and every single-bit flip of a stream of genuine
/// protocol frames decodes to a typed error or a valid frame — never a
/// panic. The corpus is a real session's server-observed stream, so the
/// mutations hit live header layouts, not synthetic ones.
#[test]
fn truncations_and_bitflips_of_real_frames_decode_safely() {
    let mut srv = PirServer::new(SystemSpec::default());
    srv.add_file("Fd", tagged_file(16), PirMode::LinearScan)
        .unwrap();
    let srv = Arc::new(srv);
    let front = ServerFront::spawn(Arc::clone(&srv));
    let mut chan = front.connect().unwrap();
    chan.begin_query().unwrap();
    let mut out = vec![PageBuf::zeroed(DEFAULT_PAGE_SIZE); 2];
    chan.serve_round(2, &[(FileId(0), 1), (FileId(0), 14)], &mut out)
        .unwrap();
    chan.close().unwrap();
    let stream = front.observed_stream(1).expect("session recorded");
    assert!(parse_observed(&stream).is_ok(), "corpus must be valid");

    for cut in 0..stream.len() {
        let _ = split_frame(&stream[..cut]);
        let _ = parse_observed(&stream[..cut]);
    }
    for i in 0..stream.len() {
        for bit in [0x01u8, 0x80] {
            let mut mutated = stream.clone();
            mutated[i] ^= bit;
            let _ = split_frame(&mutated);
            let _ = parse_observed(&mutated);
        }
    }
    front.shutdown();
}

/// An unrecoverable link (a permanent outage window) exhausts the retry
/// budget and surfaces as a *typed* error — retryable cause, terminal
/// verdict — while the server loop and a parallel clean session keep
/// working untouched.
#[test]
fn exhausted_retries_are_typed_and_contained() {
    let net = road_like(&RoadGenConfig {
        nodes: 140,
        seed: 99,
        ..Default::default()
    });
    let n = net.num_nodes() as u32;
    let db = Arc::new(Database::build(&net, SchemeKind::Ci, &cfg_small()).expect("build"));
    let front = db.serve_wire();

    // The outage opens after the handshake and never closes.
    let plan = FaultPlan {
        outage_at_op: Some(8),
        outage_ops: u32::MAX,
        ..FaultPlan::clean(5)
    };
    let policy = RetryPolicy {
        max_attempts: 4,
        attempt_timeout: Some(Duration::from_millis(20)),
        backoff: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
        deadline: Some(Duration::from_secs(10)),
    };
    let mut doomed = db
        .chaos_wire_session_with_seed(&front, 0x0dd, plan, policy)
        .expect("handshake precedes the outage");
    let err = doomed
        .query_nodes(&net, 1 % n, 77 % n)
        .expect_err("a permanent outage must fail the query");
    assert!(
        err.is_retry_exhausted(),
        "want a typed retry-exhausted error, got: {err}"
    );
    assert!(
        !err.is_retryable(),
        "an exhausted budget is final, not retryable: {err}"
    );

    // The failure was the client's alone: the server still answers a clean
    // session correctly.
    let mut inproc = db.session_with_seed(0x5eed);
    let mut clean = db.wire_session_with_seed(&front, 0x5eed).expect("connect");
    let want = inproc.query_nodes(&net, 3 % n, 90 % n).expect("inproc");
    let got = clean.query_nodes(&net, 3 % n, 90 % n).expect("wire");
    assert_eq!(got.answer.cost, want.answer.cost);
    assert_eq!(got.answer.path_nodes, want.answer.path_nodes);
    assert_eq!(got.trace, want.trace);
    drop((doomed, clean));
    front.shutdown();
}

/// Chaos above a real socket (PR 7): a [`privpath::pir::ChaosLink`] layered
/// over a `TcpLink` injects drops, corruption, truncation, duplication and
/// delays *above* TCP, so the retry machinery — attempt timeouts, backoff,
/// idempotent server-side replay — is exercised end-to-end over the
/// network path. The chaos session must be observably identical to a clean
/// TCP session on the same front: answers, paths, traces, and every
/// deterministic meter component, with the recovery work visible only in
/// the retry counters.
#[test]
fn chaos_link_over_tcp_recovers_and_matches_clean_session() {
    let net = road_like(&RoadGenConfig {
        nodes: 140,
        seed: 77,
        ..Default::default()
    });
    let n = net.num_nodes() as u32;
    let db = Arc::new(Database::build(&net, SchemeKind::Ci, &cfg_small()).expect("build"));
    let front = db.serve_tcp().expect("bind loopback front");

    // same dummy-fetch RNG seed on both sides: any divergence is the chaos
    let mut clean = db.tcp_session_with_seed(&front, 0x5eed).expect("connect"); // session 1
    let mut chaos = db
        .chaos_tcp_session_with_seed(
            &front,
            0x5eed,
            FaultPlan::lossy(0x7C9),
            RetryPolicy::resilient(),
        )
        .expect("chaos connect"); // session 2
    for k in 0..4u32 {
        let (s, t) = ((k * 67 + 13) % n, (k * 149 + 101) % n);
        if s == t {
            continue;
        }
        let want = clean
            .query_nodes(&net, s, t)
            .unwrap_or_else(|e| panic!("clean tcp {s}->{t}: {e}"));
        let got = chaos
            .query_nodes(&net, s, t)
            .unwrap_or_else(|e| panic!("chaos tcp {s}->{t}: {e}"));
        assert_eq!(got.trace, want.trace, "trace {s}->{t}");
        assert_eq!(got.answer.cost, want.answer.cost);
        assert_eq!(got.answer.path_nodes, want.answer.path_nodes);
        assert!(!got.plan_violation && !want.plan_violation);
        let (mut got_m, mut want_m) = (got.meter.clone(), want.meter.clone());
        got_m.client_s = 0.0;
        want_m.client_s = 0.0;
        assert_eq!(got_m, want_m, "the meter must not see the weather");
    }
    let retries = chaos.transport_retries();
    assert!(retries > 0, "the lossy link never forced a retry");
    drop((clean, chaos));
    let stats = front.shutdown();
    assert_eq!(stats[&1].retransmits, 0, "clean session retransmitted");
    assert!(
        stats[&2].retransmits > 0,
        "server never replayed for the chaos session"
    );
}

/// A store that panics mid-fetch costs exactly one session. The panicking
/// client gets a typed internal error; a client on a healthy file of the
/// *same* server never notices; a later fetch of the sabotaged file hits
/// the poisoned store and gets a typed serve error — the loop survives all
/// of it.
#[test]
fn store_panic_tears_down_only_the_offending_session() {
    let mut srv = PirServer::new(SystemSpec::default());
    srv.add_file("Fgood", tagged_file(16), PirMode::LinearScan)
        .unwrap();
    srv.add_file_with_store(
        "Fbad",
        tagged_file(16),
        Box::new(PanicStore::new(tagged_file(16), 0)),
    )
    .unwrap();
    assert_serve_panic_costs_one_session(srv);
}

/// The containment both sabotage tests assert, on a server whose file 0 is
/// healthy (16 tagged pages) and whose file 1 panics when page 3 is served.
fn assert_serve_panic_costs_one_session(srv: PirServer) {
    let page_size = srv.spec().page_size;
    let front = ServerFront::spawn(Arc::new(srv));

    let mut victim = front.connect().unwrap(); // session 1
    let mut healthy = front.connect().unwrap(); // session 2
    healthy.begin_query().unwrap();
    let mut out = vec![PageBuf::zeroed(page_size)];
    healthy.serve_round(2, &[(FileId(0), 5)], &mut out).unwrap();
    assert_eq!(page_tag(&out[0]), 5);

    // First fetch of the sabotaged file panics inside the handler.
    victim.begin_query().unwrap();
    let err = victim
        .serve_round(2, &[(FileId(1), 3)], &mut out)
        .expect_err("sabotaged file must fail the round");
    assert!(!err.is_retryable(), "a handler panic is fatal: {err}");
    assert!(
        err.to_string().contains("server error 7"),
        "want ERR_INTERNAL from the caught panic, got: {err}"
    );

    // The healthy session keeps being served after the panic...
    healthy
        .serve_round(2, &[(FileId(0), 11)], &mut out)
        .unwrap();
    assert_eq!(page_tag(&out[0]), 11);

    // ... and a later client touching the poisoned store gets a typed
    // serve error, not a panic — and can still fetch healthy files on the
    // very same channel.
    let mut late = front.connect().unwrap(); // session 3
    late.begin_query().unwrap();
    let err = late
        .serve_round(2, &[(FileId(1), 3)], &mut out)
        .expect_err("poisoned store must fail the round");
    assert!(
        err.to_string().contains("server error 5"),
        "want ERR_SERVE from the poisoned store, got: {err}"
    );
    late.serve_round(2, &[(FileId(0), 7)], &mut out).unwrap();
    assert_eq!(page_tag(&out[0]), 7);

    healthy.close().unwrap();
    let stats = front.shutdown();
    assert_eq!(stats[&1].panics, 1, "victim session recorded the panic");
    assert!(stats[&1].closed, "victim session torn down");
    assert_eq!(stats[&2].panics, 0, "healthy session unaffected");
    assert_eq!(stats[&3].panics, 0, "late session survived the poison");
}

/// Wraps a tagged file in a seeded [`FaultyDisk`] under the same
/// [`ChecksumFile`] guard the snapshot loader installs over real disks,
/// returning both the guarded driver and a handle to the fault injector.
fn guarded_faulty_file(pages: u32, plan: DiskFaultPlan) -> (Arc<dyn PagedFile>, Arc<FaultyDisk>) {
    guard_faulty(tagged_file(pages), plan)
}

fn guard_faulty(clean: MemFile, plan: DiskFaultPlan) -> (Arc<dyn PagedFile>, Arc<FaultyDisk>) {
    let crcs: Vec<u32> = (0..clean.num_pages())
        .map(|p| crc32(clean.page(p).unwrap()))
        .collect();
    let faulty = Arc::new(FaultyDisk::new(Arc::new(clean), plan));
    let guarded: Arc<dyn PagedFile> = Arc::new(ChecksumFile::new(
        "Fbad",
        Arc::clone(&faulty) as Arc<dyn PagedFile>,
        crcs,
    ));
    (guarded, faulty)
}

/// PR 9 containment: bit rot on a disk-backed file costs exactly one
/// session. The victim's fetches ride a corrupting [`FaultyDisk`] whose
/// flipped bits surface through the [`ChecksumFile`] guard as a typed,
/// fatal `PageCorrupt` serve error — while a bystander session fetching a
/// healthy file on the same front is served between every victim round,
/// keeps being served after the victim dies, and a fresh session still
/// connects and works.
#[test]
fn corrupt_disk_read_tears_down_only_the_affected_session() {
    let pages = 24u32;
    let (guarded, faulty) = guarded_faulty_file(pages, DiskFaultPlan::corrupting(0xbad_d15c));

    let mut srv = PirServer::new(SystemSpec::default());
    srv.add_file("Fgood", tagged_file(16), PirMode::LinearScan)
        .unwrap();
    srv.add_file_with_driver("Fbad", guarded, PirMode::LinearScan)
        .unwrap();
    let front = ServerFront::spawn(Arc::new(srv));

    let mut victim = front.connect().unwrap(); // session 1
    let mut healthy = front.connect().unwrap(); // session 2
    victim.begin_query().unwrap();
    healthy.begin_query().unwrap();
    let mut out = vec![PageBuf::zeroed(DEFAULT_PAGE_SIZE)];

    // Hammer the faulty file until the seeded bit rot lands; every clean
    // read still answers the right page, and the bystander is served
    // between victim rounds.
    let mut fatal = None;
    for k in 0..400u32 {
        match victim.serve_round(2, &[(FileId(1), k % pages)], &mut out) {
            Ok(()) => assert_eq!(page_tag(&out[0]), k % pages),
            Err(e) => {
                fatal = Some(e);
                break;
            }
        }
        healthy
            .serve_round(2, &[(FileId(0), k % 16)], &mut out)
            .unwrap();
        assert_eq!(page_tag(&out[0]), k % 16);
    }
    let err = fatal.expect("the corrupting plan must fire within its budget");
    assert!(
        !err.is_retryable(),
        "bit rot is fatal, not retryable: {err}"
    );
    let msg = err.to_string();
    assert!(
        msg.contains("server error 5") && msg.contains("page corrupt"),
        "want a typed PageCorrupt serve error, got: {err}"
    );
    assert!(
        faulty.faults_injected() > 0,
        "the chaos plan actually fired"
    );

    // Blast radius is one session: the bystander keeps serving and a fresh
    // session on the healthy file connects and works.
    healthy.serve_round(2, &[(FileId(0), 7)], &mut out).unwrap();
    assert_eq!(page_tag(&out[0]), 7);
    let mut late = front.connect().unwrap(); // session 3
    late.begin_query().unwrap();
    late.serve_round(2, &[(FileId(0), 3)], &mut out).unwrap();
    assert_eq!(page_tag(&out[0]), 3);

    healthy.close().unwrap();
    late.close().unwrap();
    front.shutdown();
}

/// PR 9 recovery: transient disk read errors (`ErrorKind::Interrupted`)
/// are answered with the retryable `ERR_SERVE_TRANSIENT`, absorbed by the
/// client's retry budget, and every recovered answer is bit-identical to
/// the same workload against a clean in-memory file.
#[test]
fn flaky_disk_reads_are_retried_to_identical_answers() {
    let pages = 24u32;
    let (guarded, faulty) = guarded_faulty_file(pages, DiskFaultPlan::flaky(0xf1a_c0de));

    let mut srv = PirServer::new(SystemSpec::default());
    srv.add_file_with_driver("Fd", guarded, PirMode::LinearScan)
        .unwrap();
    let front = ServerFront::spawn(Arc::new(srv));

    let mut refsrv = PirServer::new(SystemSpec::default());
    refsrv
        .add_file("Fd", tagged_file(pages), PirMode::LinearScan)
        .unwrap();
    let reffront = ServerFront::spawn(Arc::new(refsrv));

    let mut chan = front.connect_with(RetryPolicy::resilient()).unwrap();
    let mut refchan = reffront.connect().unwrap();
    chan.begin_query().unwrap();
    refchan.begin_query().unwrap();
    let mut out = vec![PageBuf::zeroed(DEFAULT_PAGE_SIZE); 2];
    let mut refout = vec![PageBuf::zeroed(DEFAULT_PAGE_SIZE); 2];
    for round in 1..=40u32 {
        let reqs = [
            (FileId(0), (round * 7 + 1) % pages),
            (FileId(0), (round * 13 + 5) % pages),
        ];
        chan.serve_round(round, &reqs, &mut out)
            .expect("transient faults must be absorbed by the retry budget");
        refchan.serve_round(round, &reqs, &mut refout).unwrap();
        for (i, (got, want)) in out.iter().zip(&refout).enumerate() {
            assert_eq!(
                got.as_slice(),
                want.as_slice(),
                "round {round} fetch {i} differs from the clean-disk run"
            );
        }
    }
    assert!(
        faulty.faults_injected() > 0,
        "the flaky plan actually fired"
    );
    assert!(
        chan.retries() > 0,
        "recovery must have gone through the retry path"
    );
    assert_eq!(refchan.retries(), 0, "the clean link never retries");
    chan.close().unwrap();
    refchan.close().unwrap();
    front.shutdown();
    reffront.shutdown();
}

/// A file large enough for the store to shard its sweep where the process
/// may use two CPUs (`scan::shard_count`), in pages small enough to sweep
/// quickly unoptimized. On one CPU the same tests run the one-shard plan.
const SHARDED_PAGES: u32 = 2 * privpath::pir::scan::MIN_SHARD_PAGES as u32 + 100;
const SMALL_PAGE: usize = 64;

fn small_page_spec() -> SystemSpec {
    SystemSpec {
        page_size: SMALL_PAGE,
        ..SystemSpec::default()
    }
}

/// A panic inside one page-range pass of a sharded sweep — raised on a
/// scoped thread where the file is sharded — is re-raised on the front's
/// thread, so it costs what a [`PanicStore`] costs: the offending session,
/// with a typed internal error, and the file (its store lock is poisoned).
/// A bystander on another file of the same front is served before, between
/// and after.
#[test]
fn panic_in_a_sweep_shard_tears_down_only_the_offending_session() {
    /// Panics on any read of its last page: the last shard's last run.
    struct PanicDisk(MemFile);
    impl PagedFile for PanicDisk {
        fn num_pages(&self) -> u32 {
            self.0.num_pages()
        }
        fn page_size(&self) -> usize {
            self.0.page_size()
        }
        fn read_page(&self, page: u32) -> privpath::storage::Result<PageBuf> {
            assert_ne!(page + 1, self.0.num_pages(), "chaos: sabotaged page");
            self.0.read_page(page)
        }
    }
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        println!("note: 1 CPU available, the sweep under test is one shard");
    }

    let mut srv = PirServer::new(small_page_spec());
    srv.add_file("Fgood", tagged_pages(16, SMALL_PAGE), PirMode::LinearScan)
        .unwrap();
    srv.add_file_with_driver(
        "Fbad",
        Arc::new(PanicDisk(tagged_pages(SHARDED_PAGES, SMALL_PAGE))),
        PirMode::LinearScan,
    )
    .unwrap();
    assert_serve_panic_costs_one_session(srv);
}

/// A panic inside a pass of a *shared* lap costs the sessions aboard it and
/// nobody else. A and B ride the bad file together — A's lap held at its
/// first run until B's round is on the link, so B rides from segment 1 —
/// and the read that panics is in the file's last run, which both laps still
/// have ahead. Both get the typed internal error and are torn down; a
/// bystander on another file of the same front is served before and after;
/// a later round on the bad file meets its poisoned store as a typed serve
/// error.
#[test]
fn panic_in_a_shared_lap_tears_down_its_riders_only() {
    use privpath::pir::wire::FrameLink;
    use privpath::pir::{GateDisk, WireChannel};
    use std::sync::mpsc;

    /// Panics on any read of its last page.
    struct PanicDisk(MemFile);
    impl PagedFile for PanicDisk {
        fn num_pages(&self) -> u32 {
            self.0.num_pages()
        }
        fn page_size(&self) -> usize {
            self.0.page_size()
        }
        fn read_page(&self, page: u32) -> privpath::storage::Result<PageBuf> {
            assert_ne!(page + 1, self.0.num_pages(), "chaos: sabotaged page");
            self.0.read_page(page)
        }
    }
    /// Tells the test when the client has put a frame on the link.
    struct Announce<L>(L, mpsc::Sender<()>);
    impl<L: FrameLink> FrameLink for Announce<L> {
        fn send(&mut self, frame: &[u8]) -> privpath::pir::Result<()> {
            self.0.send(frame)?;
            let _ = self.1.send(());
            Ok(())
        }
        fn recv(&mut self, timeout: Option<Duration>) -> privpath::pir::Result<Vec<u8>> {
            self.0.recv(timeout)
        }
    }

    let gate = Arc::new(GateDisk::new(Arc::new(PanicDisk(tagged_pages(
        SHARDED_PAGES,
        SMALL_PAGE,
    )))));
    let mut srv = PirServer::new(small_page_spec());
    srv.add_file("Fgood", tagged_pages(16, SMALL_PAGE), PirMode::LinearScan)
        .unwrap();
    srv.add_file_with_driver("Fbad", gate.clone(), PirMode::LinearScan)
        .unwrap();
    let front = ServerFront::spawn(Arc::new(srv));

    let (sent, sends) = mpsc::channel();
    let rider = || {
        let link = Announce(front.raw_link().unwrap(), sent.clone());
        let mut chan = WireChannel::handshake(Box::new(link), RetryPolicy::none()).unwrap();
        chan.begin_query().unwrap();
        chan
    };
    let (mut a, mut b) = (rider(), rider()); // sessions 1 and 2
    let mut bystander = front.connect().unwrap(); // session 3
    bystander.begin_query().unwrap();
    let mut out = vec![PageBuf::zeroed(SMALL_PAGE)];
    bystander
        .serve_round(2, &[(FileId(0), 5)], &mut out)
        .unwrap();
    assert_eq!(page_tag(&out[0]), 5);
    while sends.try_recv().is_ok() {} // the riders' four frames so far

    let ride = |chan: &mut WireChannel, page: u32| {
        let mut out = vec![PageBuf::zeroed(SMALL_PAGE)];
        let err = chan
            .serve_round(2, &[(FileId(1), page)], &mut out)
            .expect_err("the lap panics under both riders");
        assert!(!err.is_retryable(), "a handler panic is fatal: {err}");
        assert!(
            err.to_string().contains("server error 7"),
            "want ERR_INTERNAL from the caught panic, got: {err}"
        );
    };
    gate.arm(0);
    std::thread::scope(|scope| {
        scope.spawn(|| ride(&mut a, 3));
        gate.wait_parked();
        scope.spawn(|| ride(&mut b, 4));
        sends.recv().unwrap(); // A's round
        sends.recv().unwrap(); // B's round is on the link
                               // the loop runs the held pass itself and finds the round queued
                               // after it
        gate.release();
    });

    bystander
        .serve_round(2, &[(FileId(0), 11)], &mut out)
        .unwrap();
    assert_eq!(page_tag(&out[0]), 11);
    let err = bystander
        .serve_round(3, &[(FileId(1), 3)], &mut out)
        .expect_err("poisoned store must fail the round");
    assert!(
        err.to_string().contains("server error 5"),
        "want ERR_SERVE from the poisoned store, got: {err}"
    );
    bystander
        .serve_round(3, &[(FileId(0), 7)], &mut out)
        .unwrap();
    assert_eq!(page_tag(&out[0]), 7);
    bystander.close().unwrap();
    let stats = front.shutdown();
    for sid in [1, 2] {
        assert_eq!(stats[&sid].panics, 1, "rider {sid} recorded the panic");
        assert!(stats[&sid].closed, "rider {sid} torn down");
        assert_eq!(stats[&sid].fetches, 0);
    }
    assert_eq!(stats[&3].panics, 0, "the bystander is unaffected");
    assert_eq!(stats[&3].fetches, 3);
}

/// Transient disk faults under a sharded sweep: whichever pass meets one,
/// the round fails retryably, nothing of it is cached, and the retransmit
/// re-runs the whole sweep, until the round is bit-identical to the clean
/// file. Which page a fault lands on is not asserted: the injector rolls by
/// call order, and concurrent passes interleave their calls.
#[test]
fn flaky_disk_under_a_sharded_sweep_is_retried_to_identical_answers() {
    let clean = tagged_pages(SHARDED_PAGES, SMALL_PAGE);
    // one fault per thousand page reads is about four a sweep, so nearly
    // every attempt fails until the budget is spent; every failed attempt
    // spends at least one fault, and the budget is below the 16 attempts a
    // round may take
    let plan = DiskFaultPlan {
        transient_per_mille: 1,
        max_faults: 10,
        ..DiskFaultPlan::clean(0xf1a_5a4d)
    };
    let (guarded, faulty) = guard_faulty(clean.clone(), plan);
    let mut srv = PirServer::new(small_page_spec());
    srv.add_file_with_driver("Fd", guarded, PirMode::LinearScan)
        .unwrap();
    let front = ServerFront::spawn(Arc::new(srv));
    let policy = RetryPolicy {
        attempt_timeout: Some(Duration::from_secs(5)),
        ..RetryPolicy::resilient()
    };
    let mut chan = front.connect_with(policy).unwrap();
    chan.begin_query().unwrap();

    let mut out = vec![PageBuf::zeroed(SMALL_PAGE); 2];
    for round in 1..=8u32 {
        let reqs = [
            (FileId(0), (round * 7 + 1) % SHARDED_PAGES),
            (FileId(0), SHARDED_PAGES - round),
        ];
        chan.serve_round(round, &reqs, &mut out)
            .expect("transient faults must be absorbed by the retry budget");
        for (buf, &(_, p)) in out.iter().zip(&reqs) {
            assert_eq!(buf.as_slice(), clean.page(p).unwrap(), "round {round}");
        }
    }
    assert!(
        faulty.faults_injected() > 0,
        "the flaky plan actually fired"
    );
    assert!(chan.retries() > 0, "faults must go through the retry path");
    chan.close().unwrap();
    front.shutdown();
}

/// Batched run reads must not create a bypass around chaos injection or
/// integrity checking. [`FaultyDisk`] only overrides per-page reads, so the
/// trait's default `read_run` fills the run page by page through the
/// injector and never lends it; the [`ChecksumFile`] guard verifies each
/// page of the run before returning any of it. Bit rot landing anywhere
/// inside a run therefore surfaces as the same typed, fatal `PageCorrupt`
/// the per-page path raises, transient faults stay transient and recover on
/// retry of the identical run, and every clean run serves bit-exact tagged
/// pages.
#[test]
fn run_reads_keep_per_page_fault_injection_and_verification() {
    use privpath::storage::StorageError;

    let pages = 24u32;
    let run_pages = 8usize;

    // Bit rot: the corrupting plan must fire *through the run path* and
    // surface as PageCorrupt with an in-run page identity.
    let (guarded, faulty) = guarded_faulty_file(pages, DiskFaultPlan::corrupting(0x5ca_bad));
    let ps = guarded.page_size();
    let mut run = vec![0u8; run_pages * ps];
    let mut fatal = None;
    for k in 0..400usize {
        let first = (k * 5 % (pages as usize - run_pages + 1)) as u32;
        match guarded.read_run(first, &mut run) {
            Ok(lent) => {
                assert!(
                    lent.is_none(),
                    "a run under the fault layer must be filled through its injector, never lent"
                );
                for (i, page) in run.chunks_exact(ps).enumerate() {
                    let tag = u32::from_le_bytes(page[..4].try_into().unwrap());
                    assert_eq!(tag, first + i as u32, "clean run served a wrong page");
                }
            }
            Err(e) => {
                fatal = Some((first, e));
                break;
            }
        }
    }
    let (first, err) = fatal.expect("the corrupting plan must fire within its budget");
    match err {
        StorageError::PageCorrupt { page, .. } => {
            assert!(
                page >= first && page < first + run_pages as u32,
                "corrupt page {page} must lie inside the failed run [{first}, {})",
                first + run_pages as u32
            );
        }
        other => panic!("want PageCorrupt through the run path, got: {other}"),
    }
    assert!(!err.is_transient(), "bit rot is fatal, not retryable");
    assert!(
        faulty.faults_injected() > 0,
        "the chaos plan actually fired"
    );

    // Transient faults: the same run errors retryably, and re-reading the
    // identical run recovers to bit-exact content.
    let (flaky, injector) = guarded_faulty_file(pages, DiskFaultPlan::flaky(0xf1a_2a11));
    let mut transient_seen = 0u32;
    for k in 0..200usize {
        let first = (k * 3 % (pages as usize - run_pages + 1)) as u32;
        let got = loop {
            match flaky.read_run_into(first, &mut run) {
                Ok(()) => break &run,
                Err(e) => {
                    assert!(
                        e.is_transient(),
                        "the flaky plan injects only retryable faults, got: {e}"
                    );
                    transient_seen += 1;
                }
            }
        };
        for (i, page) in got.chunks_exact(ps).enumerate() {
            let tag = u32::from_le_bytes(page[..4].try_into().unwrap());
            assert_eq!(tag, first + i as u32, "retried run must recover exactly");
        }
    }
    assert!(transient_seen > 0, "the flaky plan actually fired");
    assert_eq!(injector.faults_injected(), u64::from(transient_seen));
}

/// Idle sessions are evicted on the configured deadline while an active
/// session on the same front keeps querying; the evicted client observes a
/// severed channel, not a hang.
#[test]
fn idle_sessions_are_evicted_while_active_ones_survive() {
    let net = road_like(&RoadGenConfig {
        nodes: 120,
        seed: 21,
        ..Default::default()
    });
    let n = net.num_nodes() as u32;
    let db = Arc::new(Database::build(&net, SchemeKind::Ci, &cfg_small()).expect("build"));
    let front = db.serve_wire_with(FrontConfig {
        idle_timeout: Some(Duration::from_millis(120)),
    });
    let mut idle = db.wire_session_with_seed(&front, 1).expect("connect"); // session 1
    let mut active = db.wire_session_with_seed(&front, 2).expect("connect"); // session 2
    idle.query_nodes(&net, 0, 50 % n)
        .expect("query before idling");
    // Keep the active session warm well past the idle deadline.
    for k in 0..15u32 {
        active
            .query_nodes(&net, k % n, (k * 31 + 7) % n)
            .expect("active session must keep working");
        std::thread::sleep(Duration::from_millis(20));
    }
    let err = idle
        .query_nodes(&net, 0, 50 % n)
        .expect_err("evicted session must observe a severed channel");
    assert!(
        err.to_string().contains("disconnected"),
        "want a severed-channel error, got: {err}"
    );
    let stats = front.session_stats();
    assert!(stats[&1].evicted, "session 1 evicted for idleness");
    assert!(!stats[&2].evicted, "session 2 stayed warm");
    drop((idle, active));
    front.shutdown();
}

/// A generation swap lands while a chaos session is riding out a link
/// outage: the session must recover *and* keep draining on its pinned
/// generation — every post-swap answer bit-identical to an in-process
/// reference against the old network — while a fresh session opens on the
/// new generation and sees the reweighted answers.
#[test]
fn swap_during_outage_drains_on_pinned_generation() {
    let net = road_like(&RoadGenConfig {
        nodes: 140,
        seed: 4242,
        ..Default::default()
    });
    let net2 = net.reweighted(0xA11CE);
    let n = net.num_nodes() as u32;
    let db1 = Arc::new(Database::build(&net, SchemeKind::Ci, &cfg_small()).expect("build gen 1"));
    let db2 = Arc::new(Database::build(&net2, SchemeKind::Ci, &cfg_small()).expect("build gen 2"));
    let registry = DbRegistry::new(Arc::clone(&db1));
    let front = registry.serve_wire();

    let mut reference = db1.session_with_seed(0x5eed);
    let mut chaos = db1
        .chaos_wire_session_with_seed(
            &front,
            0x5eed,
            FaultPlan::with_outage(0xD00F, 30, 3),
            RetryPolicy::resilient(),
        )
        .expect("chaos connect");

    let pairs: Vec<(u32, u32)> = (0..5u32)
        .map(|k| ((k * 67 + 13) % n, (k * 149 + 101) % n))
        .filter(|(s, t)| s != t)
        .collect();
    for (qi, &(s, t)) in pairs.iter().enumerate() {
        if qi == 1 {
            // the swap lands mid-workload, while the fault plan is still
            // dropping and severing frames around the session
            let id = registry.publish(Arc::clone(&db2)).expect("publish gen 2");
            assert_eq!(id, 2);
        }
        let want = reference
            .query_nodes(&net, s, t)
            .unwrap_or_else(|e| panic!("inproc {s}->{t}: {e}"));
        let got = chaos
            .query_nodes(&net, s, t)
            .unwrap_or_else(|e| panic!("chaos {s}->{t}: {e}"));
        assert_eq!(got.answer.cost, want.answer.cost, "pinned answer {s}->{t}");
        assert_eq!(got.answer.path_nodes, want.answer.path_nodes);
        assert_eq!(got.trace, want.trace, "pinned trace {s}->{t}");
        assert!(!got.plan_violation);
    }
    assert!(
        chaos.transport_retries() > 0,
        "the outage plan never forced a retry — the swap was not under fire"
    );
    chaos.close().expect("drain close");

    // the drained generation is typed staleness on reopen...
    let err = match front.connect_expecting(RetryPolicy::none(), 1) {
        Err(e) => e,
        Ok(_) => panic!("stale expectation must fail after the swap"),
    };
    assert!(err.is_retryable(), "staleness is retryable: {err}");

    // ... and a fresh registry session plans against generation 2
    let mut reference2 = db2.session_with_seed(0xfeed);
    let mut fresh = registry
        .wire_session_with_seed(&front, 0xfeed)
        .expect("fresh session on gen 2");
    let (s, t) = pairs[0];
    let want = reference2.query_nodes(&net2, s, t).expect("inproc gen 2");
    let got = fresh.query_nodes(&net2, s, t).expect("wire gen 2");
    assert_eq!(got.answer.cost, want.answer.cost, "gen-2 answer {s}->{t}");
    assert_eq!(got.trace, want.trace);
    fresh.close().unwrap();
    front.shutdown();
}

/// A sabotaged rebuild — the build closure panics on every attempt — costs
/// nothing but the worker thread: the serving session never hiccups, the
/// failure surfaces as a typed [`CoreError::RebuildFailed`], and the
/// registry still swaps cleanly on the *next* (healthy) rebuild.
#[test]
fn sabotaged_rebuild_never_interrupts_serving() {
    let net = road_like(&RoadGenConfig {
        nodes: 120,
        seed: 31,
        ..Default::default()
    });
    let n = net.num_nodes() as u32;
    let db = Arc::new(Database::build(&net, SchemeKind::Ci, &cfg_small()).expect("build"));
    let registry = DbRegistry::new(Arc::clone(&db));
    let front = registry.serve_wire();
    let mut session = registry
        .wire_session_with_seed(&front, 0x5eed)
        .expect("connect");
    let policy = RetryPolicy {
        max_attempts: 3,
        attempt_timeout: None,
        backoff: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
        deadline: Some(Duration::from_secs(30)),
    };

    // the rebuild panics on the worker thread while the session queries
    let handle = registry.rebuild_in_background(|| panic!("sabotaged rebuild"), policy.clone());
    let mut reference = db.session_with_seed(0x5eed);
    for k in 0..4u32 {
        let (s, t) = ((k * 53 + 11) % n, (k * 131 + 97) % n);
        if s == t {
            continue;
        }
        let want = reference.query_nodes(&net, s, t).expect("inproc");
        let got = session
            .query_nodes(&net, s, t)
            .expect("serving must never hiccup during a failing rebuild");
        assert_eq!(got.answer.cost, want.answer.cost);
        assert_eq!(got.trace, want.trace);
    }
    let err = handle.wait().expect_err("sabotaged rebuild must fail");
    match err {
        CoreError::RebuildFailed {
            attempts,
            ref reason,
        } => {
            assert_eq!(attempts, 3, "retry budget honoured");
            assert!(reason.contains("sabotaged rebuild"), "{reason}");
        }
        ref other => panic!("expected RebuildFailed, got {other}"),
    }
    assert_eq!(
        registry.generation(),
        1,
        "containment: generation 1 serves on"
    );

    // a healthy rebuild afterwards still swaps: the failure left no scar
    let rebuilt = net.reweighted(77);
    let handle = registry.rebuild_in_background(
        move || Database::build(&rebuilt, SchemeKind::Ci, &cfg_small()),
        policy,
    );
    assert_eq!(handle.wait().expect("healthy rebuild"), 2);
    let stats = registry.stats();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.published, 1);

    // the pinned session still drains on generation 1 after the real swap
    let got = session.query_nodes(&net, 1 % n, 60 % n).expect("drain");
    let want = reference.query_nodes(&net, 1 % n, 60 % n).expect("inproc");
    assert_eq!(got.answer.cost, want.answer.cost);
    session.close().unwrap();
    front.shutdown();
}

/// The CI chaos-soak matrix (run with `--ignored`): every scheme, several
/// fault seeds, each run under a lossy link with a mid-session outage and a
/// resilient retry policy — answers must match the in-process reference
/// exactly and every query must stay inside the published plan. The
/// retransmission totals prove the chaos actually bit.
#[test]
#[ignore = "chaos soak: minutes-long fault matrix, run via the CI chaos-soak job (cargo test --test chaos -- --ignored)"]
fn chaos_soak_matrix() {
    let net = road_like(&RoadGenConfig {
        nodes: 150,
        seed: 777,
        ..Default::default()
    });
    let n = net.num_nodes() as u32;
    let pairs: Vec<(u32, u32)> = (0..4u32)
        .map(|k| ((k * 53 + 11) % n, (k * 131 + 97) % n))
        .filter(|(s, t)| s != t)
        .collect();
    let mut total_retries = 0u64;
    for kind in SchemeKind::ALL {
        let mut cfg = cfg_small();
        cfg.obf_decoys = 5;
        let db = Arc::new(
            Database::build(&net, kind, &cfg)
                .unwrap_or_else(|e| panic!("{} build failed: {e}", kind.name())),
        );
        let front = db.serve_wire();
        let mut reference = db.session_with_seed(0x5eed);
        for (round, chaos_seed) in [1u64, 0xBEEF, 0xC0FFEE].into_iter().enumerate() {
            let mut session = db
                .chaos_wire_session_with_seed(
                    &front,
                    0x5eed,
                    FaultPlan::with_outage(chaos_seed ^ u64::from(kind.byte()), 30, 3),
                    RetryPolicy::resilient(),
                )
                .unwrap_or_else(|e| panic!("{} chaos connect: {e}", kind.name()));
            for &(s, t) in &pairs {
                let want = reference
                    .query_nodes(&net, s, t)
                    .unwrap_or_else(|e| panic!("{} inproc {s}->{t}: {e}", kind.name()));
                let got = session.query_nodes(&net, s, t).unwrap_or_else(|e| {
                    panic!("{} chaos round {round} {s}->{t}: {e}", kind.name())
                });
                assert_eq!(got.answer.cost, want.answer.cost, "{}", kind.name());
                assert_eq!(
                    got.answer.path_nodes,
                    want.answer.path_nodes,
                    "{}",
                    kind.name()
                );
                assert!(!got.plan_violation, "{}: plan violation", kind.name());
            }
            total_retries += session.transport_retries();
        }
        front.shutdown();
    }
    assert!(
        total_retries > 0,
        "the soak matrix should have provoked at least one retransmission"
    );
}

/// The CI swap-soak matrix (run with `--ignored`): every scheme serves
/// through a [`DbRegistry`] front while a chaos session (lossy link plus a
/// mid-session outage) straddles a generation swap. The pinned session must
/// drain on generation 1 with answers exactly matching the in-process
/// reference, a stale reopen must be typed, and a fresh session must match
/// the generation-2 reference — per scheme, per fault seed.
#[test]
#[ignore = "swap soak: minutes-long swap-under-chaos matrix, run via the CI swap-soak job (cargo test --test chaos -- --ignored)"]
fn swap_soak_matrix() {
    let net = road_like(&RoadGenConfig {
        nodes: 150,
        seed: 888,
        ..Default::default()
    });
    let net2 = net.reweighted(0x50AB);
    let n = net.num_nodes() as u32;
    let pairs: Vec<(u32, u32)> = (0..4u32)
        .map(|k| ((k * 53 + 11) % n, (k * 131 + 97) % n))
        .filter(|(s, t)| s != t)
        .collect();
    let mut total_retries = 0u64;
    for kind in SchemeKind::ALL {
        let mut cfg = cfg_small();
        cfg.obf_decoys = 5;
        let db1 = Arc::new(
            Database::build(&net, kind, &cfg)
                .unwrap_or_else(|e| panic!("{} gen-1 build failed: {e}", kind.name())),
        );
        let db2 = Arc::new(
            Database::build(&net2, kind, &cfg)
                .unwrap_or_else(|e| panic!("{} gen-2 build failed: {e}", kind.name())),
        );
        for chaos_seed in [2u64, 0xFACE] {
            let registry = DbRegistry::new(Arc::clone(&db1));
            let front = registry.serve_wire();
            let mut reference = db1.session_with_seed(0x5eed);
            let mut session = db1
                .chaos_wire_session_with_seed(
                    &front,
                    0x5eed,
                    FaultPlan::with_outage(chaos_seed ^ u64::from(kind.byte()), 30, 3),
                    RetryPolicy::resilient(),
                )
                .unwrap_or_else(|e| panic!("{} chaos connect: {e}", kind.name()));
            for (qi, &(s, t)) in pairs.iter().enumerate() {
                if qi == 1 {
                    registry
                        .publish(Arc::clone(&db2))
                        .unwrap_or_else(|e| panic!("{} publish: {e}", kind.name()));
                }
                let want = reference
                    .query_nodes(&net, s, t)
                    .unwrap_or_else(|e| panic!("{} inproc {s}->{t}: {e}", kind.name()));
                let got = session
                    .query_nodes(&net, s, t)
                    .unwrap_or_else(|e| panic!("{} chaos swap {s}->{t}: {e}", kind.name()));
                assert_eq!(got.answer.cost, want.answer.cost, "{}", kind.name());
                assert_eq!(
                    got.answer.path_nodes,
                    want.answer.path_nodes,
                    "{}",
                    kind.name()
                );
                assert_eq!(got.trace, want.trace, "{}", kind.name());
                assert!(!got.plan_violation, "{}: plan violation", kind.name());
            }
            total_retries += session.transport_retries();
            session
                .close()
                .unwrap_or_else(|e| panic!("{} drain close: {e}", kind.name()));

            let stale = front.connect_expecting(RetryPolicy::none(), 1);
            assert!(stale.is_err(), "{}: stale reopen must fail", kind.name());

            let mut reference2 = db2.session_with_seed(0xfeed);
            let mut fresh = registry
                .wire_session_with_seed(&front, 0xfeed)
                .unwrap_or_else(|e| panic!("{} gen-2 connect: {e}", kind.name()));
            let (s, t) = pairs[0];
            let want = reference2
                .query_nodes(&net2, s, t)
                .unwrap_or_else(|e| panic!("{} inproc gen-2: {e}", kind.name()));
            let got = fresh
                .query_nodes(&net2, s, t)
                .unwrap_or_else(|e| panic!("{} wire gen-2: {e}", kind.name()));
            assert_eq!(got.answer.cost, want.answer.cost, "{}", kind.name());
            assert_eq!(got.trace, want.trace, "{}", kind.name());
            front.shutdown();
        }
    }
    assert!(
        total_retries > 0,
        "the swap-soak matrix should have provoked at least one retransmission"
    );
}
