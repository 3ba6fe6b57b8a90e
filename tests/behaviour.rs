//! Zero behavioural diff as a committed check.
//!
//! One canonical run per scheme, hashed component by component and pinned:
//! a refactor that claims to change nothing must leave every number below
//! where it is. `tests/leakage.rs` asserts *equality across modes* (in
//! process against wire, TCP against channel, clean against faulted);
//! this suite asserts *sameness across commits* for one fixed run.
//!
//! Per scheme — all seven, PI* at `cluster_pages = 2` — and per page size
//! — 4,096 bytes, and 512 bytes, where regions are many and AF's span
//! several pages each — over one `road_like` network (600 nodes, seed 77)
//! built with the functional `LinearScan` store and `threads = 2`, it
//! hashes (FNV-1a, 64 bits):
//!
//! * `files`: the bytes of every page of every file the server holds, with
//!   the file names;
//! * `plan`: the published plan and the build statistics up to (not
//!   including) the wall-clock `stage_s`;
//! * `snapshot`: the bytes of the snapshot container `Database::persist`
//!   writes (OBF has none and hashes a fixed marker);
//! * over `InProc`, for [`PAIRS`] fixed node pairs through one session:
//!   `answers` (cost, path, snapped nodes, plan violation), `traces`,
//!   `meters` with the wall-measured `client_s` zeroed (and OBF's
//!   `server_s`, which is measured too), and `requests` — every
//!   `(round, file, page)` a round asks for, dummies included, and every
//!   download;
//! * over loopback TCP with the default `FrontConfig`, the same pairs
//!   served alternately through two sessions of one front, both closed:
//!   `stats`, each session's final `session_stats()` counters, and
//!   `frames`, every frame the front recorded as observed, with its
//!   version byte and its CRC zeroed (a wire version bump is not a move).
//!
//! The front's own transition table is pinned beside its core, in
//! `privpath_pir`'s `wire::tests::stepper` (digest `0x60e4bb1723091429`
//! over 512 frame × channel × lap × generation cases).
//!
//! On a mismatch the test prints the whole table, pinned against computed,
//! so a change can see which component of which scheme moved. A change
//! that updates a pinned constant says in CHANGES.md which component moved
//! and why.

use privpath::core::config::BuildConfig;
use privpath::core::engine::{Database, QueryOutput, SchemeKind};
use privpath::graph::gen::{road_like, RoadGenConfig};
use privpath::graph::network::RoadNetwork;
use privpath::pir::{FileId, InProc, PirMode, SessionStats, SystemSpec, Transport};
use privpath::storage::PageBuf;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Fixed node pairs per session kind.
const PAIRS: u32 = 40;

/// Component names, in table order.
const COMPONENTS: [&str; 9] = [
    "files", "plan", "snapshot", "answers", "traces", "meters", "requests", "stats", "frames",
];

/// Page sizes each scheme is built at.
const PAGE_SIZES: [usize; 2] = [4096, 512];

/// The pinned digests, one row per scheme and page size (the order of
/// [`SCHEMES`] × [`PAGE_SIZES`]), columns as [`COMPONENTS`].
const PINNED: [(&str, usize, [u64; 9]); 14] = [
    (
        "CI",
        4096,
        [
            0xb78d39ee4610f111,
            0xc433fcb50136e0bf,
            0xc9f7d9c6b3e5ff76,
            0x25efa9f9a3576eb3,
            0x1f45176e237a969d,
            0xfd3f3ce03874e925,
            0x11ddfeddb17164a1,
            0xb4ce64dc43cffd5e,
            0x01b1cb711a04c275,
        ],
    ),
    (
        "CI",
        512,
        [
            0xa3b0fe3c727da31f,
            0xb362ec48b94001d0,
            0x9ea1ba7920415c2b,
            0x25efa9f9a3576eb3,
            0x973406152a937c6d,
            0x31ef5adb71f18625,
            0x4d362403d913decb,
            0x96c74f0c9897ee5a,
            0x681d6014dfaddf95,
        ],
    ),
    (
        "PI",
        4096,
        [
            0x3ea16ed3aa17b286,
            0x23b4aac15b2ccff5,
            0x8e04cad7dfa98fc0,
            0x25efa9f9a3576eb3,
            0x653bc0567a864865,
            0x5d5ef4ea323e0525,
            0xb47361a4475fb89d,
            0x84c310e167cc526a,
            0x4ee7660552eb4495,
        ],
    ),
    (
        "PI",
        512,
        [
            0x0666a28a8a17cb32,
            0x9756fbe62ee1d003,
            0x4b129b89a8dae1ef,
            0x25efa9f9a3576eb3,
            0x868dcddc7725bf95,
            0xdb459ff92a6a8245,
            0x1e1b3f08949bbc90,
            0x548e881e0d62e092,
            0xcaf1096a4641ca85,
        ],
    ),
    (
        "HY",
        4096,
        [
            0xadc227af25b0dfe0,
            0x4c5bcba53172a457,
            0xece2755147e64bb8,
            0x25efa9f9a3576eb3,
            0xa1885e8284d16a25,
            0xcd5b348d48d47ab5,
            0x47f1988f354651d9,
            0xeda271d6eb8e24da,
            0x19c1c2776f24dcb5,
        ],
    ),
    (
        "HY",
        512,
        [
            0x0a2453ffed5a8475,
            0x36c978707f5fa5bd,
            0x25057ba8cc9e75fb,
            0x25efa9f9a3576eb3,
            0xedce3a8985f5f6c5,
            0x8f57fa2924158575,
            0xe2ce3870108d2f4a,
            0x613ec680bc44671e,
            0xc1134298911254fd,
        ],
    ),
    (
        "PI*",
        4096,
        [
            0xca2a2b00a76db8a9,
            0x349000e8dfe240d8,
            0x98442981eee6ac6d,
            0x25efa9f9a3576eb3,
            0x245f20cbb3f238e5,
            0x21b289d746aa0245,
            0x7d75d4dbbd6da4b5,
            0x8472633fa30e6df2,
            0x1d9e89204243ea85,
        ],
    ),
    (
        "PI*",
        512,
        [
            0xa4c2f4ff9b9c3320,
            0x7ed381ceb3f9ad9f,
            0xe0c707d5ac3e5f97,
            0x25efa9f9a3576eb3,
            0xadb37e1db5f66eb5,
            0xf1650b9414318d25,
            0x96df22842474d77b,
            0x7eed77bcab898c82,
            0xe2af06fc2a154cf5,
        ],
    ),
    (
        "LM",
        4096,
        [
            0x2c5023b159fa53b0,
            0x9e437151b9f28a86,
            0x20f86484d98d72f8,
            0x25efa9f9a3576eb3,
            0xa7970d23f7ed97e5,
            0xed7bc4deef2aa01d,
            0xa436af164d596fcd,
            0xbbc7d46bbfe5045e,
            0xb6644790a29c6cf5,
        ],
    ),
    (
        "LM",
        512,
        [
            0x06144369bda71931,
            0x1234721063e2ff6e,
            0x38598c40b2dfd17b,
            0x25efa9f9a3576eb3,
            0xb69bad57170a0d85,
            0xe0fcdec56b83a885,
            0x5aeb4ee74463b8c3,
            0x40f682226d7ec690,
            0xa9d57557f6bd5551,
        ],
    ),
    (
        "AF",
        4096,
        [
            0x75d10a0e1c788d09,
            0xc6db8ea68b88fad9,
            0xea5c1a02b8e9dcce,
            0x25efa9f9a3576eb3,
            0xa7f54276153fee75,
            0x843080e91a2dd6c5,
            0xb4425de48326659d,
            0x9c932031562f1ade,
            0xc80980198f24448d,
        ],
    ),
    (
        "AF",
        512,
        [
            0xc1b642f410e6836b,
            0x91a4b6b9ed79c9c9,
            0xa2ccf5f4bede3079,
            0x25efa9f9a3576eb3,
            0xf4eb30d76d9448a5,
            0x5b93b9ce4071e7c5,
            0xf13e704c7606c947,
            0xa14995e5f048f4c6,
            0x86b95078cbbb1e2d,
        ],
    ),
    (
        "OBF",
        4096,
        [
            0xcbf29ce484222325,
            0x9728f86e5bd388f2,
            0x7f17b7d9ff95db81,
            0x25efa9f9a3576eb3,
            0x313ca95e428f038d,
            0x690eb0621b84cf87,
            0x56c9b323cae6db45,
            0xfdcd8cfa7b79f6b8,
            0xd306243e9e983b65,
        ],
    ),
    (
        "OBF",
        512,
        [
            0xcbf29ce484222325,
            0x9728f86e5bd388f2,
            0x7f17b7d9ff95db81,
            0x25efa9f9a3576eb3,
            0x313ca95e428f038d,
            0x690eb0621b84cf87,
            0x56c9b323cae6db45,
            0xfdcd8cfa7b79f6b8,
            0xd306243e9e983b65,
        ],
    ),
];

const SCHEMES: [SchemeKind; 7] = [
    SchemeKind::Ci,
    SchemeKind::Pi,
    SchemeKind::Hy,
    SchemeKind::PiStar,
    SchemeKind::Lm,
    SchemeKind::Af,
    SchemeKind::Obf,
];

/// FNV-1a, 64 bits.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(&(s.len() as u64).to_le_bytes())
            .bytes(s.as_bytes())
    }
}

/// An `InProc` link that logs every request a round makes and every
/// download, in order.
struct Logged {
    inner: InProc<Arc<Database>>,
    log: Arc<Mutex<Fnv>>,
}

impl Transport for Logged {
    fn spec(&self) -> &SystemSpec {
        self.inner.spec()
    }

    fn file_pages(&self, f: FileId) -> privpath::pir::Result<u32> {
        self.inner.file_pages(f)
    }

    fn begin_query(&mut self) -> privpath::pir::Result<()> {
        self.log.lock().unwrap().str("query");
        self.inner.begin_query()
    }

    fn serve_round(
        &mut self,
        round: u32,
        requests: &[(FileId, u32)],
        out: &mut [PageBuf],
    ) -> privpath::pir::Result<()> {
        {
            let mut log = self.log.lock().unwrap();
            log.str("round").bytes(&round.to_le_bytes());
            for &(f, page) in requests {
                log.bytes(&f.0.to_le_bytes()).bytes(&page.to_le_bytes());
            }
        }
        self.inner.serve_round(round, requests, out)
    }

    fn download(&mut self, f: FileId) -> privpath::pir::Result<Vec<u8>> {
        self.log
            .lock()
            .unwrap()
            .str("download")
            .bytes(&f.0.to_le_bytes());
        self.inner.download(f)
    }

    fn close(&mut self) -> privpath::pir::Result<()> {
        self.inner.close()
    }
}

fn pairs(n: u32) -> Vec<(u32, u32)> {
    (0..PAIRS)
        .map(|k| ((k * 131 + 17) % n, (k * 293 + 401) % n))
        .filter(|(s, t)| s != t)
        .collect()
}

/// Adds one query's answer, trace and meter to their three digests.
fn hash_output(kind: SchemeKind, out: &QueryOutput, digests: &mut [Fnv; 3]) {
    let a = &out.answer;
    digests[0].str(&format!(
        "{:?} {:?} {} {} {}",
        a.cost, a.path_nodes, a.src_node, a.dst_node, out.plan_violation
    ));
    digests[1].str(&format!("{:?}", out.trace));
    let mut meter = out.meter.clone();
    meter.client_s = 0.0;
    if kind == SchemeKind::Obf {
        meter.server_s = 0.0;
    }
    digests[2].str(&format!("{meter:?}"));
}

/// Every recorded frame of `stream` with its CRC (bytes 4..8) and version
/// byte (byte 10) zeroed.
fn hash_frames(stream: &[u8], h: &mut Fnv) {
    let mut rest = stream;
    while !rest.is_empty() {
        assert!(rest.len() >= 16, "truncated observed frame");
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize + 4;
        let mut frame = rest[..len].to_vec();
        frame[4..8].fill(0);
        frame[10] = 0;
        h.bytes(&frame);
        rest = &rest[len..];
    }
}

fn hash_stats(sid: u64, s: &SessionStats, h: &mut Fnv) {
    h.str(&format!(
        "{sid} {} {} {} {} {} {} {} {} {} {} {} {}",
        s.queries,
        s.rounds,
        s.fetches,
        s.downloads,
        s.bytes_in,
        s.bytes_out,
        s.retransmits,
        s.coalesced_rounds,
        s.panics,
        s.closed,
        s.evicted,
        s.observed_truncated
    ));
}

fn digest_scheme(net: &RoadNetwork, kind: SchemeKind, page_size: usize) -> [u64; 9] {
    let mut cfg = BuildConfig::default();
    cfg.spec.page_size = page_size;
    cfg.pir_mode = PirMode::LinearScan;
    cfg.threads = 2;
    if kind == SchemeKind::PiStar {
        cfg.cluster_pages = 2;
    }
    let db = Arc::new(
        Database::build(net, kind, &cfg).unwrap_or_else(|e| panic!("{} build: {e}", kind.name())),
    );

    let mut files = Fnv::new();
    let server = db.server();
    for i in 0..server.num_files() {
        let f = FileId(i as u16);
        files.str(server.file_name(f).unwrap());
        let driver = server.file_driver(f).unwrap();
        for p in 0..driver.num_pages() {
            files.bytes(driver.read_page(p).unwrap().as_slice());
        }
    }

    let stats = format!("{:?}", db.stats());
    let stats = &stats[..stats.find("stage_s").expect("BuildStats has stage_s")];
    let mut plan = Fnv::new();
    plan.str(&format!("{:?}", db.plan())).str(stats);

    let mut snapshot = Fnv::new();
    let dir = std::env::temp_dir().join(format!(
        "privpath-behaviour-{}-{}-{page_size}",
        std::process::id(),
        kind.name()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.snap");
    match db.persist(&path) {
        Ok(()) => {
            snapshot.bytes(&std::fs::read(&path).unwrap());
        }
        Err(_) => {
            snapshot.str("unpersistable");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let n = net.num_nodes() as u32;
    let pairs = pairs(n);
    let log = Arc::new(Mutex::new(Fnv::new()));
    let mut session = db.session_over(
        99,
        Box::new(Logged {
            inner: InProc::new(Arc::clone(&db)),
            log: Arc::clone(&log),
        }),
    );
    let mut outputs = [Fnv::new(); 3];
    for &(s, t) in &pairs {
        let out = session
            .query_nodes(net, s, t)
            .unwrap_or_else(|e| panic!("{} {s}->{t}: {e}", kind.name()));
        hash_output(kind, &out, &mut outputs);
    }
    drop(session);
    let requests = log.lock().unwrap().0;

    let front = db.serve_tcp().expect("bind loopback");
    let mut sessions = [
        db.tcp_session_with_seed(&front, 99).expect("connect"),
        db.tcp_session_with_seed(&front, 100).expect("connect"),
    ];
    for (i, &(s, t)) in pairs.iter().enumerate() {
        sessions[i % 2]
            .query_nodes(net, s, t)
            .unwrap_or_else(|e| panic!("{} tcp {s}->{t}: {e}", kind.name()));
    }
    for session in sessions {
        session.close().expect("close");
    }
    let served: BTreeMap<u64, SessionStats> = front.shutdown();
    let (mut stats, mut frames) = (Fnv::new(), Fnv::new());
    for (&sid, s) in &served {
        hash_stats(sid, s, &mut stats);
        hash_frames(&s.observed, &mut frames);
    }

    [
        files.0,
        plan.0,
        snapshot.0,
        outputs[0].0,
        outputs[1].0,
        outputs[2].0,
        requests,
        stats.0,
        frames.0,
    ]
}

#[test]
fn every_scheme_behaves_as_pinned() {
    let net = road_like(&RoadGenConfig {
        nodes: 600,
        seed: 77,
        ..Default::default()
    });
    let runs: Vec<(SchemeKind, usize)> = SCHEMES
        .iter()
        .flat_map(|&kind| PAGE_SIZES.map(|page_size| (kind, page_size)))
        .collect();
    let got: Vec<[u64; 9]> = std::thread::scope(|scope| {
        let handles: Vec<_> = runs
            .iter()
            .map(|&(kind, page_size)| {
                let net = &net;
                scope.spawn(move || digest_scheme(net, kind, page_size))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut table = String::new();
    let mut moved = Vec::new();
    for ((&(kind, page_size), row), (name, pinned_size, pinned)) in
        runs.iter().zip(&got).zip(PINNED)
    {
        assert_eq!(
            (kind.name(), page_size),
            (name, pinned_size),
            "PINNED rows follow SCHEMES x PAGE_SIZES"
        );
        for ((component, &g), &p) in COMPONENTS.iter().zip(row).zip(&pinned) {
            let mark = if g == p { "" } else { "  <- moved" };
            writeln!(
                table,
                "{name:>4} {page_size:>5} {component:>9} {g:#018x} pinned {p:#018x}{mark}"
            )
            .unwrap();
            if g != p {
                moved.push(format!("{name}/{page_size} {component}"));
            }
        }
    }
    println!("{table}");
    let rows: Vec<String> = runs
        .iter()
        .zip(&got)
        .map(|(&(kind, page_size), row)| {
            let row: Vec<String> = row.iter().map(|d| format!("{d:#018x}")).collect();
            format!("(\"{}\", {page_size}, [{}]),", kind.name(), row.join(", "))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "behaviour moved in {moved:?}; the whole table, computed against pinned:\n{table}\n\
         computed rows:\n{}",
        rows.join("\n")
    );
}
