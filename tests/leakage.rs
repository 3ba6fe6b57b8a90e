//! Theorem 1 as an executable, CI-enforced test suite.
//!
//! "Our methodology leaks no information to the adversary about the shortest
//! path query. Equivalently, every processed query is indistinguishable from
//! any other." The adversary's view is the [`AccessTrace`] — file identities
//! and round boundaries, never page numbers — so the theorem reduces to a
//! testable property: **every query against a built database produces the
//! same trace**, and that trace conforms to the published plan. This suite
//! asserts it over randomized networks and query workloads for every
//! PIR-based scheme, plus supporting invariants:
//!
//! * the meter's charged PIR fetch counts equal the `PirFetch` events in the
//!   recorded trace, per file, for every scheme (the two accounting views
//!   can never drift apart);
//! * the theorem survives bad weather: a session over a fault-injected link
//!   with retries is observably identical — answers, traces, meters, and
//!   the logical server-observed frame stream — to a clean-link session
//!   (the chaos differential at the bottom of this file);
//! * the theorem survives a real network: serving over loopback TCP is
//!   observably identical to serving an in-process link, one end of a
//!   socket pair.

use privpath::core::audit::{
    assert_indistinguishable, check_plan_conformance, check_wire_conformance,
};
use privpath::core::config::BuildConfig;
use privpath::core::engine::{Database, SchemeKind};
use privpath::core::plan::PlanFile;
use privpath::graph::gen::{road_like, RoadGenConfig};
use privpath::pir::{FileId, TraceEvent};
use proptest::prelude::*;
use std::sync::Arc;

/// The PIR-based schemes Theorem 1 covers. OBF is excluded by design: its
/// leakage is the uploaded candidate sets themselves, which the trace
/// abstraction (built for PIR access patterns) deliberately does not model.
const PIR_SCHEMES: [SchemeKind; 6] = [
    SchemeKind::Ci,
    SchemeKind::Pi,
    SchemeKind::Hy,
    SchemeKind::PiStar,
    SchemeKind::Lm,
    SchemeKind::Af,
];

fn cfg_small() -> BuildConfig {
    let mut cfg = BuildConfig::default();
    // Small pages so a couple-hundred-node network still yields many regions.
    cfg.spec.page_size = 512;
    // Exhaustive plan derivation (the paper's method): the derived budget is
    // a true maximum, so no query can violate the plan and every trace is
    // deterministic in length.
    cfg.plan_sample = 0;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    /// Executable Theorem 1: for every PIR-based scheme, arbitrary queries
    /// from arbitrary sessions over the same built database produce
    /// identical adversary-observable traces, and the trace conforms to the
    /// published plan.
    #[test]
    fn pir_schemes_produce_identical_traces(
        seed in 0u64..10_000,
        nodes in 100usize..180,
        queries in proptest::collection::vec((0u32..1_000_000, 0u32..1_000_000), 5..9),
    ) {
        let net = road_like(&RoadGenConfig { nodes, seed, ..Default::default() });
        let n = net.num_nodes() as u32;
        for kind in PIR_SCHEMES {
            let db = Arc::new(
                Database::build(&net, kind, &cfg_small())
                    .unwrap_or_else(|e| panic!("{} build failed: {e}", kind.name())),
            );
            // Two sessions with different dummy-fetch RNG streams: the
            // dummies hit different pages, but the *observable* sequence
            // must be identical across sessions too.
            let mut sessions = [db.session(), db.session_with_seed(seed ^ 0xdead)];
            let mut traces = Vec::new();
            for (i, &(a, b)) in queries.iter().enumerate() {
                let (s, t) = (a % n, b % n);
                if s == t {
                    continue;
                }
                let out = sessions[i % 2]
                    .query_nodes(&net, s, t)
                    .unwrap_or_else(|e| panic!("{} query {s}->{t} failed: {e}", kind.name()));
                prop_assert!(
                    !out.plan_violation,
                    "{}: plan violation for {s}->{t}", kind.name()
                );
                traces.push(out.trace);
            }
            let verdict = assert_indistinguishable(&traces);
            prop_assert!(
                verdict.is_ok(),
                "{}: queries distinguishable: {:?}", kind.name(), verdict
            );
            // The uniform trace also matches the plan the header publishes.
            let file_of = |f: PlanFile| db.file_of(f).expect("plan file registered");
            for (qi, trace) in traces.iter().enumerate() {
                let conform = check_plan_conformance(qi, trace, db.plan(), &file_of);
                prop_assert!(
                    conform.is_ok(),
                    "{}: trace violates plan: {:?}", kind.name(), conform
                );
            }
        }
    }
}

/// The meter's charged PIR fetch counts equal the `PirFetch` events in the
/// recorded trace — in total and per file — and the charged rounds equal the
/// `RoundStart` events, for every scheme (including OBF, where both are
/// zero fetches and one round).
#[test]
fn meter_fetches_equal_trace_fetches_for_every_scheme() {
    let net = road_like(&RoadGenConfig {
        nodes: 180,
        seed: 4242,
        ..Default::default()
    });
    let n = net.num_nodes() as u32;
    for kind in SchemeKind::ALL {
        let mut cfg = cfg_small();
        cfg.obf_decoys = 6;
        let db = Database::build(&net, kind, &cfg)
            .unwrap_or_else(|e| panic!("{} build failed: {e}", kind.name()));
        let mut session = Arc::new(db).session();
        for k in 0..6u32 {
            let (s, t) = ((k * 37 + 5) % n, (k * 151 + 89) % n);
            if s == t {
                continue;
            }
            let out = session
                .query_nodes(&net, s, t)
                .unwrap_or_else(|e| panic!("{} query {s}->{t} failed: {e}", kind.name()));
            assert_eq!(
                out.meter.total_fetches(),
                out.trace.total_fetches() as u64,
                "{}: meter vs trace fetch totals for {s}->{t}",
                kind.name()
            );
            for (idx, &charged) in out.meter.fetches_per_file.iter().enumerate() {
                assert_eq!(
                    charged,
                    out.trace.fetches_of(FileId(idx as u16)) as u64,
                    "{}: meter vs trace for file {idx}",
                    kind.name()
                );
            }
            let round_events = out
                .trace
                .events()
                .iter()
                .filter(|e| matches!(e, TraceEvent::RoundStart(_)))
                .count();
            assert_eq!(
                out.meter.rounds,
                round_events as u32,
                "{}: meter rounds vs trace RoundStart events",
                kind.name()
            );
        }
    }
}

/// The wire boundary is observably invisible (PR 5's decisive check), in
/// three parts, for every scheme:
///
/// 1. **Differential equality.** A session over a [`privpath::pir::WireChannel`]
///    produces exactly what the in-process session produces for the same
///    queries and RNG seed: identical answers, paths, traces, and simulated
///    meter charges (f64 accumulators bit-for-bit; wall-measured
///    `client_s`/`server_s` excluded). Serializing rounds into frames must
///    change *nothing* a client or adversary can see.
/// 2. **Server-observed frame uniformity.** The masked frame streams the
///    server records are byte-identical across sessions (different dummy
///    RNG streams!), and within a session every query's frame block is
///    identical — even HY's data-dependent continuation walk presents a
///    fixed number of fixed-size exchanges.
/// 3. **Plan conformance of the wire view.** The recorded streams parse and
///    re-aggregate to exactly the published plan.
#[test]
fn wire_execution_is_differentially_equal_and_frame_uniform() {
    let net = road_like(&RoadGenConfig {
        nodes: 160,
        seed: 1234,
        ..Default::default()
    });
    let n = net.num_nodes() as u32;
    let pairs: Vec<(u32, u32)> = (0..6u32)
        .map(|k| ((k * 53 + 11) % n, (k * 131 + 97) % n))
        .filter(|(s, t)| s != t)
        .collect();
    for kind in SchemeKind::ALL {
        let mut cfg = cfg_small();
        cfg.obf_decoys = 5;
        let db = Arc::new(
            Database::build(&net, kind, &cfg)
                .unwrap_or_else(|e| panic!("{} build failed: {e}", kind.name())),
        );
        let front = db.serve_wire();
        let mut inproc = db.session_with_seed(0x5eed);
        // connected sequentially, so the server assigns session ids 1 and 2
        let mut wire_a = db.wire_session_with_seed(&front, 0x5eed).expect("connect");
        let mut wire_b = db.wire_session_with_seed(&front, 0xbead).expect("connect");
        for &(s, t) in &pairs {
            let want = inproc
                .query_nodes(&net, s, t)
                .unwrap_or_else(|e| panic!("{} inproc {s}->{t}: {e}", kind.name()));
            let got = wire_a
                .query_nodes(&net, s, t)
                .unwrap_or_else(|e| panic!("{} wire {s}->{t}: {e}", kind.name()));
            let _ = wire_b
                .query_nodes(&net, s, t)
                .unwrap_or_else(|e| panic!("{} wire-b {s}->{t}: {e}", kind.name()));
            assert_eq!(got.trace, want.trace, "{}: trace {s}->{t}", kind.name());
            assert_eq!(got.answer.cost, want.answer.cost, "{}", kind.name());
            assert_eq!(got.answer.path_nodes, want.answer.path_nodes);
            assert_eq!(got.answer.src_node, want.answer.src_node);
            assert_eq!(got.answer.dst_node, want.answer.dst_node);
            assert!(!got.plan_violation && !want.plan_violation);
            assert_eq!(got.meter.rounds, want.meter.rounds);
            assert_eq!(got.meter.exchanges, want.meter.exchanges);
            assert_eq!(got.meter.fetches_per_file, want.meter.fetches_per_file);
            assert_eq!(got.meter.bytes_transferred, want.meter.bytes_transferred);
            // simulated f64 costs are computed from the same published
            // metadata on both sides: bit-for-bit equal
            assert_eq!(got.meter.pir.total_s(), want.meter.pir.total_s());
            assert_eq!(got.meter.comm_s, want.meter.comm_s);
            if kind.is_pir() {
                // OBF's server_s is measured wall time; every PIR scheme's
                // is the deterministic header-read cost
                assert_eq!(got.meter.server_s, want.meter.server_s);
            }
        }
        // server-observed frame streams: byte-identical across sessions
        // (the dummy page choices differ — the masked view must not)
        let stream_a = front.observed_stream(1).expect("session 1 recorded");
        let stream_b = front.observed_stream(2).expect("session 2 recorded");
        assert_eq!(
            stream_a,
            stream_b,
            "{}: server-observed streams differ between sessions",
            kind.name()
        );
        let events = privpath::pir::wire::parse_observed(&stream_a)
            .unwrap_or_else(|e| panic!("{}: unparseable stream: {e}", kind.name()));
        // ... uniform across queries within a session too: every query
        // block (split at QueryOpen) is event-identical
        let blocks: Vec<&[privpath::pir::ObservedEvent]> = {
            let starts: Vec<usize> = events
                .iter()
                .enumerate()
                .filter(|(_, e)| matches!(e, privpath::pir::ObservedEvent::QueryOpen))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(starts.len(), pairs.len(), "{}: query count", kind.name());
            starts
                .iter()
                .enumerate()
                .map(|(bi, &lo)| {
                    let hi = starts.get(bi + 1).copied().unwrap_or(events.len());
                    &events[lo..hi]
                })
                .collect()
        };
        for (bi, block) in blocks.iter().enumerate().skip(1) {
            assert_eq!(
                *block,
                blocks[0],
                "{}: query {bi}'s frame block differs from query 0's",
                kind.name()
            );
        }
        // ... and conformant to the published plan
        let file_of = |f: PlanFile| db.file_of(f).expect("plan file registered");
        let stats = front.session_stats();
        for session in [1usize, 2] {
            let stream = front.observed_stream(session as u64).expect("recorded");
            let events = privpath::pir::wire::parse_observed(&stream).expect("parse");
            check_wire_conformance(
                session,
                &events,
                stats[&(session as u64)].observed_truncated,
                pairs.len(),
                db.plan(),
                &file_of,
            )
            .unwrap_or_else(|e| panic!("{}: wire stream violates plan: {e}", kind.name()));
        }
        drop((wire_a, wire_b));
        front.shutdown();
    }
}

/// Theorem 1 over a real network: for every PIR scheme, the same queries
/// with the same dummy-RNG seed, served once through an in-process front
/// ([`Database::serve_wire`], whose links are one end of a socket pair) and
/// once over loopback TCP ([`Database::serve_tcp`]) — one poll loop reads
/// both kinds of socket and writes each reply itself, keeping what the
/// socket does not take until it is writable — give bit-identical answers,
/// traces and meters (the wall-measured
/// `client_s` excluded), and the server records byte-identical masked
/// observable streams, conformant to the published plan. How a reply leaves
/// the server must be invisible on both sides of the trust boundary.
#[test]
fn tcp_serving_is_observably_identical_to_channel_serving() {
    let net = road_like(&RoadGenConfig {
        nodes: 160,
        seed: 2468,
        ..Default::default()
    });
    let n = net.num_nodes() as u32;
    let pairs: Vec<(u32, u32)> = (0..6u32)
        .map(|k| ((k * 59 + 7) % n, (k * 127 + 89) % n))
        .filter(|(s, t)| s != t)
        .collect();
    for kind in PIR_SCHEMES {
        let db = Arc::new(
            Database::build(&net, kind, &cfg_small())
                .unwrap_or_else(|e| panic!("{} build failed: {e}", kind.name())),
        );
        let channel = db.serve_wire();
        let tcp = db.serve_tcp().expect("bind loopback");
        // each the first session of its front: both get session id 1
        let mut over_channel = db
            .wire_session_with_seed(&channel, 0x5eed)
            .expect("connect");
        let mut over_tcp = db.tcp_session_with_seed(&tcp, 0x5eed).expect("connect");
        for &(s, t) in &pairs {
            let want = over_channel
                .query_nodes(&net, s, t)
                .unwrap_or_else(|e| panic!("{} channel {s}->{t}: {e}", kind.name()));
            let got = over_tcp
                .query_nodes(&net, s, t)
                .unwrap_or_else(|e| panic!("{} tcp {s}->{t}: {e}", kind.name()));
            assert_eq!(got.trace, want.trace, "{}: trace {s}->{t}", kind.name());
            assert_eq!(got.answer.cost, want.answer.cost, "{}", kind.name());
            assert_eq!(got.answer.path_nodes, want.answer.path_nodes);
            assert_eq!(got.answer.src_node, want.answer.src_node);
            assert_eq!(got.answer.dst_node, want.answer.dst_node);
            assert!(!got.plan_violation && !want.plan_violation);
            let (mut got_m, mut want_m) = (got.meter.clone(), want.meter.clone());
            got_m.client_s = 0.0;
            want_m.client_s = 0.0;
            assert_eq!(got_m, want_m, "{}: meter {s}->{t}", kind.name());
        }
        drop((over_channel, over_tcp));
        let channel_stats = channel.shutdown();
        let tcp_stats = tcp.shutdown();
        let (via_channel, via_tcp) = (&channel_stats[&1], &tcp_stats[&1]);
        assert!(!via_channel.observed_truncated && !via_tcp.observed_truncated);
        assert_eq!(
            via_tcp.observed,
            via_channel.observed,
            "{}: masked streams differ between TCP and channel serving",
            kind.name()
        );
        assert_eq!(
            (via_tcp.bytes_in, via_tcp.bytes_out, via_tcp.retransmits),
            (via_channel.bytes_in, via_channel.bytes_out, 0),
            "{}",
            kind.name()
        );
        let events = privpath::pir::wire::parse_observed(&via_tcp.observed)
            .unwrap_or_else(|e| panic!("{}: unparseable stream: {e}", kind.name()));
        let file_of = |f: PlanFile| db.file_of(f).expect("plan file registered");
        check_wire_conformance(1, &events, false, pairs.len(), db.plan(), &file_of)
            .unwrap_or_else(|e| panic!("{}: tcp stream violates plan: {e}", kind.name()));
    }
}

/// Theorem 1 under faults: a lossy link with retries leaks nothing. For
/// every scheme, a session over a fault-injected [`privpath::pir::ChaosLink`]
/// (drops, corruption, truncation, duplication, delays, plus one
/// mid-session outage window) with a resilient [`privpath::pir::RetryPolicy`]
/// is compared against a clean-link session on the same server:
///
/// 1. **Client view.** Answers, paths, traces and every deterministic meter
///    component are bit-identical. Retransmissions are deliberately *not*
///    metered (the meter models the protocol, not the weather), so the
///    meters match exactly once the wall-measured `client_s` (and OBF's
///    wall-measured `server_s`) are excluded.
/// 2. **Adversary view.** The server records every frame it sees —
///    retransmissions included, the adversary sees those too. The *logical*
///    stream ([`privpath::pir::wire::parse_observed`], which verifies each
///    same-sequence duplicate is bit-identical to its original before
///    dropping it) equals the clean session's, and still conforms to the
///    published plan. A retransmission that differed from its original
///    would be new information flowing to the server; `parse_observed`
///    rejects the stream and this test fails.
///
/// The retransmission totals are asserted non-zero across the matrix, so a
/// regression that silently stops injecting faults cannot pass vacuously.
#[test]
fn chaos_link_with_retries_is_observably_identical_to_clean_link() {
    use privpath::pir::{FaultPlan, RetryPolicy};
    let net = road_like(&RoadGenConfig {
        nodes: 150,
        seed: 3456,
        ..Default::default()
    });
    let n = net.num_nodes() as u32;
    let pairs: Vec<(u32, u32)> = (0..5u32)
        .map(|k| ((k * 67 + 13) % n, (k * 149 + 101) % n))
        .filter(|(s, t)| s != t)
        .collect();
    let mut total_retries = 0u64;
    let mut total_retransmits = 0u64;
    for kind in SchemeKind::ALL {
        let mut cfg = cfg_small();
        cfg.obf_decoys = 5;
        let db = Arc::new(
            Database::build(&net, kind, &cfg)
                .unwrap_or_else(|e| panic!("{} build failed: {e}", kind.name())),
        );
        let front = db.serve_wire();
        // same dummy-fetch RNG seed on both sides: any divergence is the
        // chaos, not the randomness
        let mut clean = db.wire_session_with_seed(&front, 0x5eed).expect("connect"); // session 1
        let mut chaos = db
            .chaos_wire_session_with_seed(
                &front,
                0x5eed,
                FaultPlan::with_outage(0xFA_0713 ^ u64::from(kind.byte()), 25, 2),
                RetryPolicy::resilient(),
            )
            .expect("chaos connect"); // session 2
        for &(s, t) in &pairs {
            let want = clean
                .query_nodes(&net, s, t)
                .unwrap_or_else(|e| panic!("{} clean {s}->{t}: {e}", kind.name()));
            let got = chaos
                .query_nodes(&net, s, t)
                .unwrap_or_else(|e| panic!("{} chaos {s}->{t}: {e}", kind.name()));
            assert_eq!(got.trace, want.trace, "{}: trace {s}->{t}", kind.name());
            assert_eq!(got.answer.cost, want.answer.cost, "{}", kind.name());
            assert_eq!(got.answer.path_nodes, want.answer.path_nodes);
            assert_eq!(got.answer.src_node, want.answer.src_node);
            assert_eq!(got.answer.dst_node, want.answer.dst_node);
            assert!(!got.plan_violation && !want.plan_violation);
            // full meter equality modulo the wall-measured components:
            // client_s always, server_s for the non-PIR OBF baseline
            let (mut got_m, mut want_m) = (got.meter.clone(), want.meter.clone());
            got_m.client_s = 0.0;
            want_m.client_s = 0.0;
            if !kind.is_pir() {
                got_m.server_s = 0.0;
                want_m.server_s = 0.0;
            }
            assert_eq!(
                got_m,
                want_m,
                "{}: the meter must not see the weather for {s}->{t}",
                kind.name()
            );
        }
        total_retries += chaos.transport_retries();

        // adversary view: the chaos session's raw stream carries the
        // retransmissions (at least as many frames as logical events) ...
        let raw_clean = front.observed_stream(1).expect("session 1 recorded");
        let raw_chaos = front.observed_stream(2).expect("session 2 recorded");
        let logical_clean = privpath::pir::wire::parse_observed(&raw_clean)
            .unwrap_or_else(|e| panic!("{}: clean stream unparseable: {e}", kind.name()));
        let logical_chaos = privpath::pir::wire::parse_observed(&raw_chaos)
            .unwrap_or_else(|e| panic!("{}: chaos stream unparseable: {e}", kind.name()));
        let raw_events = privpath::pir::wire::parse_observed_raw(&raw_chaos)
            .unwrap_or_else(|e| panic!("{}: chaos raw stream unparseable: {e}", kind.name()));
        assert!(raw_events.len() >= logical_chaos.len());
        // ... but dedup-by-sequence reduces it to exactly the clean view
        assert_eq!(
            logical_chaos,
            logical_clean,
            "{}: logical observable streams differ under chaos",
            kind.name()
        );
        // ... which still conforms to the published plan
        let file_of = |f: PlanFile| db.file_of(f).expect("plan file registered");
        let stats = front.session_stats();
        check_wire_conformance(
            2,
            &logical_chaos,
            stats[&2].observed_truncated,
            pairs.len(),
            db.plan(),
            &file_of,
        )
        .unwrap_or_else(|e| panic!("{}: chaos wire stream violates plan: {e}", kind.name()));
        total_retransmits += stats[&2].retransmits;
        assert_eq!(
            stats[&1].retransmits,
            0,
            "{}: clean session retransmitted",
            kind.name()
        );
        drop((clean, chaos));
        front.shutdown();
    }
    // the matrix as a whole must have actually exercised the retry path
    assert!(
        total_retries > 0,
        "no client retries across the whole matrix"
    );
    assert!(
        total_retransmits > 0,
        "no server-side replay across the whole matrix"
    );
}

/// Theorem 1 under shared laps (PR 7's decisive check, re-pointed at the
/// rotation): whether or not a neighbour's concurrent round rode the same
/// lap of the server's linear-scan rotation must be invisible in everything
/// the client computes and everything the adversary observes. For every PIR
/// scheme, the same query sequence runs twice over the wire with the same
/// dummy-RNG seed:
///
/// 1. **Solo.** The only client of its front: every round a lap of its own —
///    the reference.
/// 2. **Shared.** The target client connecting first (session 1, as in the
///    solo run) while three neighbour sessions hammer the same workload
///    concurrently, so the target's rounds ride laps with theirs.
///
/// The target's answers, paths, traces and deterministic meter components
/// must be bit-identical between the runs, and its *masked observable
/// frame stream* must be byte-identical — sharing a lap is pure server-side
/// scheduling, invisible at the trust boundary. The stream must still
/// conform to the published plan. Sharing is asserted to have actually
/// happened (`coalesced_rounds > 0` summed over sessions, with the run
/// repeated a few times in case scheduling never overlapped), so the test
/// cannot pass vacuously.
#[test]
fn coalesced_serving_is_observably_identical_to_solo_serving() {
    use privpath::pir::PirMode;
    let net = road_like(&RoadGenConfig {
        nodes: 150,
        seed: 7777,
        ..Default::default()
    });
    let n = net.num_nodes() as u32;
    let pairs: Vec<(u32, u32)> = (0..4u32)
        .map(|k| ((k * 71 + 19) % n, (k * 137 + 91) % n))
        .filter(|(s, t)| s != t)
        .collect();
    for kind in PIR_SCHEMES {
        let mut cfg = cfg_small();
        // linear-scan stores: the one mode whose rounds share laps
        cfg.pir_mode = PirMode::LinearScan;
        let db = Arc::new(
            Database::build(&net, kind, &cfg)
                .unwrap_or_else(|e| panic!("{} build failed: {e}", kind.name())),
        );

        // solo reference: nobody to share a lap with
        let solo_front = db.serve_wire();
        let mut solo = db
            .wire_session_with_seed(&solo_front, 0x5eed)
            .expect("connect"); // session 1
        let solo_out: Vec<_> = pairs
            .iter()
            .map(|&(s, t)| {
                solo.query_nodes(&net, s, t)
                    .unwrap_or_else(|e| panic!("{} solo {s}->{t}: {e}", kind.name()))
            })
            .collect();
        let solo_stream = solo_front.observed_stream(1).expect("session 1 recorded");
        drop(solo);
        solo_front.shutdown();

        let mut attempt = 0;
        loop {
            attempt += 1;
            let front = db.serve_wire();
            // the target connects first, so it is session 1 — the same id
            // (and thus the same recorded stream slot) as the solo run
            let mut target = db.wire_session_with_seed(&front, 0x5eed).expect("connect");
            let outs: Vec<_> = std::thread::scope(|scope| {
                let neighbours: Vec<_> = (0..3u64)
                    .map(|k| {
                        let db = Arc::clone(&db);
                        let (front, net, pairs) = (&front, &net, &pairs);
                        scope.spawn(move || {
                            let mut s = db
                                .wire_session_with_seed(front, 0xbead ^ k)
                                .expect("neighbour connect");
                            for &(a, b) in pairs {
                                s.query_nodes(net, a, b).expect("neighbour query");
                            }
                            s.close().expect("neighbour close");
                        })
                    })
                    .collect();
                let outs = pairs
                    .iter()
                    .map(|&(s, t)| {
                        target
                            .query_nodes(&net, s, t)
                            .unwrap_or_else(|e| panic!("{} shared {s}->{t}: {e}", kind.name()))
                    })
                    .collect();
                for h in neighbours {
                    h.join().expect("neighbour thread");
                }
                outs
            });
            let stream = front.observed_stream(1).expect("session 1 recorded");
            drop(target);
            let stats = front.shutdown();
            let shared: u64 = stats.values().map(|s| s.coalesced_rounds).sum();
            if shared == 0 && attempt < 5 {
                continue; // scheduling never overlapped any rounds; rerun
            }
            assert!(
                shared > 0,
                "{}: no rounds ever shared a lap in {attempt} attempts",
                kind.name()
            );

            // 1. client view: bit-identical to the solo run
            for ((got, want), &(s, t)) in outs.iter().zip(&solo_out).zip(&pairs) {
                assert_eq!(got.trace, want.trace, "{}: trace {s}->{t}", kind.name());
                assert_eq!(got.answer.cost, want.answer.cost, "{}", kind.name());
                assert_eq!(got.answer.path_nodes, want.answer.path_nodes);
                assert_eq!(got.answer.src_node, want.answer.src_node);
                assert_eq!(got.answer.dst_node, want.answer.dst_node);
                assert!(!got.plan_violation && !want.plan_violation);
                // full meter equality modulo the wall-measured client_s
                let (mut got_m, mut want_m) = (got.meter.clone(), want.meter.clone());
                got_m.client_s = 0.0;
                want_m.client_s = 0.0;
                assert_eq!(
                    got_m,
                    want_m,
                    "{}: the meter must not see the rotation for {s}->{t}",
                    kind.name()
                );
            }
            // 2. adversary view: the masked frame stream the server recorded
            // for the target is byte-identical to the solo run's
            assert_eq!(
                stream,
                solo_stream,
                "{}: sharing laps changed the observable stream",
                kind.name()
            );
            // 3. ... and still conforms to the published plan
            let events = privpath::pir::wire::parse_observed(&stream)
                .unwrap_or_else(|e| panic!("{}: unparseable stream: {e}", kind.name()));
            let file_of = |f: PlanFile| db.file_of(f).expect("plan file registered");
            check_wire_conformance(
                1,
                &events,
                stats[&1].observed_truncated,
                pairs.len(),
                db.plan(),
                &file_of,
            )
            .unwrap_or_else(|e| {
                panic!("{}: shared-lap wire stream violates plan: {e}", kind.name())
            });
            break;
        }
    }
}

/// Theorem 1 across a generation hot swap (PR 8's decisive check): a client
/// whose workload straddles a swap sees — and shows the adversary — exactly
/// what two clients running the two halves against the two generations solo
/// would. For every PIR scheme:
///
/// 1. Generation 1 (original weights) and generation 2 (reweighted edges)
///    are built; a [`privpath::core::DbRegistry`] serves generation 1.
/// 2. The straddling client opens a session, runs part of the first half,
///    then the registry publishes generation 2 *mid-workload*. The session
///    is pinned: it finishes the first half draining on generation 1.
/// 3. Reopening while expecting generation 1 surfaces the typed, retryable
///    [`privpath::pir::PirError::StaleGeneration`]; the client re-resolves
///    and runs the second half on a generation-2 session.
/// 4. Each half's answers, traces, and deterministic meter components are
///    bit-identical to a solo run of that half against that generation on
///    its own (never-swapped) front, the masked server-observed streams are
///    byte-identical per half, and each generation's stream independently
///    conforms to that generation's published plan.
///
/// Shuffled-store epochs are deliberately in play (`PirMode::Shuffled`):
/// each generation owns its stores, so epoch state stays consistent within
/// a generation no matter when the swap lands.
#[test]
fn generation_swap_is_observably_lossless_mid_workload() {
    use privpath::core::DbRegistry;
    use privpath::pir::{PirError, PirMode, RetryPolicy};
    let net = road_like(&RoadGenConfig {
        nodes: 150,
        seed: 9911,
        ..Default::default()
    });
    let net2 = net.reweighted(42);
    let n = net.num_nodes() as u32;
    let pairs: Vec<(u32, u32)> = (0..6u32)
        .map(|k| ((k * 59 + 17) % n, (k * 139 + 83) % n))
        .filter(|(s, t)| s != t)
        .collect();
    let (half1, half2) = pairs.split_at(pairs.len() / 2);
    for kind in PIR_SCHEMES {
        let mut cfg = cfg_small();
        // functional shuffled stores: epoch state must stay per-generation
        cfg.pir_mode = PirMode::Shuffled { seed: 0x5107 };
        let db1 = Arc::new(
            Database::build(&net, kind, &cfg)
                .unwrap_or_else(|e| panic!("{} gen-1 build failed: {e}", kind.name())),
        );
        let db2 = Arc::new(
            Database::build(&net2, kind, &cfg)
                .unwrap_or_else(|e| panic!("{} gen-2 build failed: {e}", kind.name())),
        );

        // solo references: each half against its generation, no swap ever
        let run_solo = |db: &Arc<Database>,
                        net: &privpath::graph::network::RoadNetwork,
                        seed: u64,
                        half: &[(u32, u32)]| {
            let front = db.serve_wire();
            let mut s = db.wire_session_with_seed(&front, seed).expect("connect");
            let outs: Vec<_> = half
                .iter()
                .map(|&(a, b)| {
                    s.query_nodes(net, a, b)
                        .unwrap_or_else(|e| panic!("{} solo {a}->{b}: {e}", kind.name()))
                })
                .collect();
            s.close().expect("close");
            let stream = front.observed_stream(1).expect("session 1 recorded");
            let stats = front.shutdown();
            (outs, stream, stats[&1].observed_truncated)
        };
        let (solo1, stream1, trunc1) = run_solo(&db1, &net, 0x5eed, half1);
        let (solo2, stream2, trunc2) = run_solo(&db2, &net2, 0xfeed, half2);

        // the straddling client, against one registry-served front
        let registry = DbRegistry::new(Arc::clone(&db1));
        let front = registry.serve_wire();
        let mut sess = registry
            .wire_session_with_seed(&front, 0x5eed)
            .expect("connect"); // session 1, pinned to generation 1
        let mut straddle1 = Vec::new();
        for (qi, &(a, b)) in half1.iter().enumerate() {
            if qi == 1 {
                // the swap lands mid-workload, between two queries
                assert_eq!(
                    registry.publish(Arc::clone(&db2)).expect("publish"),
                    2,
                    "{}: publish",
                    kind.name()
                );
            }
            straddle1.push(
                sess.query_nodes(&net, a, b)
                    .unwrap_or_else(|e| panic!("{} straddle {a}->{b}: {e}", kind.name())),
            );
        }
        sess.close().expect("close");

        // reopening with the held (now drained) generation is typed staleness
        let Err(err) = front.connect_expecting(RetryPolicy::none(), 1) else {
            panic!("{}: stale reopen must fail", kind.name());
        };
        assert!(err.is_retryable(), "{}: {err}", kind.name());
        assert!(
            matches!(
                err,
                PirError::StaleGeneration {
                    held: 1,
                    current: 2
                }
            ),
            "{}: {err}",
            kind.name()
        );

        // the client re-resolves and runs the second half on generation 2
        let mut sess = registry
            .wire_session_with_seed(&front, 0xfeed)
            .expect("reconnect"); // session 3 (2 was the stale probe)
        let straddle2: Vec<_> = half2
            .iter()
            .map(|&(a, b)| {
                sess.query_nodes(&net2, a, b)
                    .unwrap_or_else(|e| panic!("{} straddle-2 {a}->{b}: {e}", kind.name()))
            })
            .collect();
        sess.close().expect("close");
        let straddle_stream1 = front.observed_stream(1).expect("session 1 recorded");
        let straddle_stream3 = front.observed_stream(3).expect("session 3 recorded");
        let probe_stream = front.observed_stream(2).expect("probe recorded");
        front.shutdown();

        // 1. client view: each half bit-identical to its solo run
        for (half_name, straddle, solo, half) in [
            ("first", &straddle1, &solo1, half1),
            ("second", &straddle2, &solo2, half2),
        ] {
            for ((got, want), &(s, t)) in straddle.iter().zip(solo.iter()).zip(half) {
                assert_eq!(
                    got.trace,
                    want.trace,
                    "{}: {half_name}-half trace {s}->{t}",
                    kind.name()
                );
                assert_eq!(got.answer.cost, want.answer.cost, "{}", kind.name());
                assert_eq!(got.answer.path_nodes, want.answer.path_nodes);
                assert_eq!(got.answer.src_node, want.answer.src_node);
                assert_eq!(got.answer.dst_node, want.answer.dst_node);
                assert!(!got.plan_violation && !want.plan_violation);
                // full meter equality modulo the wall-measured client_s
                let (mut got_m, mut want_m) = (got.meter.clone(), want.meter.clone());
                got_m.client_s = 0.0;
                want_m.client_s = 0.0;
                assert_eq!(
                    got_m,
                    want_m,
                    "{}: the meter must not see the swap for {s}->{t}",
                    kind.name()
                );
            }
        }

        // 2. adversary view: masked streams byte-identical per half (the
        // masked stream is session-id-blind, so cross-front comparison is
        // exact), regardless of when the swap landed
        assert_eq!(
            straddle_stream1,
            stream1,
            "{}: generation-1 observable stream changed under the swap",
            kind.name()
        );
        assert_eq!(
            straddle_stream3,
            stream2,
            "{}: generation-2 observable stream changed under the swap",
            kind.name()
        );

        // 3. each generation's stream independently conforms to *that*
        // generation's published plan
        for (session, stream, trunc, db, half) in [
            (1usize, &straddle_stream1, trunc1, &db1, half1),
            (3, &straddle_stream3, trunc2, &db2, half2),
        ] {
            let events = privpath::pir::wire::parse_observed(stream)
                .unwrap_or_else(|e| panic!("{}: unparseable stream: {e}", kind.name()));
            let file_of = |f: PlanFile| db.file_of(f).expect("plan file registered");
            check_wire_conformance(session, &events, trunc, half.len(), db.plan(), &file_of)
                .unwrap_or_else(|e| {
                    panic!("{}: generation stream violates its plan: {e}", kind.name())
                });
        }
        // the stale probe (session 2) opened a session and nothing else
        let probe = privpath::pir::wire::parse_observed(&probe_stream).expect("probe parses");
        assert_eq!(probe, vec![privpath::pir::ObservedEvent::SessionOpen]);
    }
}

/// Theorem 1 across the storage boundary (PR 9's decisive check): whether
/// the server reads pages from memory or from a disk snapshot must be
/// invisible in everything the client computes and everything the adversary
/// observes. For every PIR scheme (alternating linear-scan and shuffled
/// functional stores so both drive through the page-driver trait):
///
/// 1. The built database is persisted ([`Database::persist`]) and reopened
///    three ways — [`StorageBackend::Mem`] (pages loaded and
///    checksum-verified up front), [`StorageBackend::Disk`] (pages read
///    lazily through the checksum-verifying snapshot reader on every fetch)
///    and [`StorageBackend::Mmap`] (same checksum envelope, run reads out
///    of a memory mapping).
/// 2. The same wire workload with the same dummy-RNG seed runs against the
///    freshly built database and against every reopened one. Answers,
///    paths, traces and every deterministic meter component must be
///    bit-identical, and the masked server-observed frame stream must be
///    byte-identical — storage is pure server-side plumbing, invisible at
///    the trust boundary.
/// 3. Each run's stream still conforms to the published plan
///    ([`check_wire_conformance`]).
#[test]
fn disk_backed_serving_is_observably_identical_to_in_memory() {
    use privpath::core::snapshot::StorageBackend;
    use privpath::pir::PirMode;
    let net = road_like(&RoadGenConfig {
        nodes: 150,
        seed: 6161,
        ..Default::default()
    });
    let n = net.num_nodes() as u32;
    let pairs: Vec<(u32, u32)> = (0..5u32)
        .map(|k| ((k * 61 + 23) % n, (k * 127 + 79) % n))
        .filter(|(s, t)| s != t)
        .collect();
    let dir = std::env::temp_dir().join(format!("privpath-leakage-disk-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for kind in PIR_SCHEMES {
        let mut cfg = cfg_small();
        // alternate the functional store kind so both implementations are
        // exercised over both page drivers
        cfg.pir_mode = if kind.byte() % 2 == 0 {
            PirMode::LinearScan
        } else {
            PirMode::Shuffled { seed: 0x51ED }
        };
        let built = Arc::new(
            Database::build(&net, kind, &cfg)
                .unwrap_or_else(|e| panic!("{} build failed: {e}", kind.name())),
        );
        let path = dir.join(format!("{}.snap", kind.byte()));
        built.persist(&path).expect("persist");

        let run = |db: &Arc<Database>, tag: &str| {
            let front = db.serve_wire();
            let mut s = db.wire_session_with_seed(&front, 0x5eed).expect("connect");
            let outs: Vec<_> = pairs
                .iter()
                .map(|&(a, b)| {
                    s.query_nodes(&net, a, b)
                        .unwrap_or_else(|e| panic!("{} {tag} {a}->{b}: {e}", kind.name()))
                })
                .collect();
            s.close().expect("close");
            let stream = front.observed_stream(1).expect("session 1 recorded");
            let stats = front.shutdown();
            (outs, stream, stats[&1].observed_truncated)
        };
        let (want, want_stream, want_trunc) = run(&built, "built");

        for backend in [
            StorageBackend::Mem,
            StorageBackend::Disk,
            StorageBackend::Mmap,
        ] {
            let re = Arc::new(
                Database::open_snapshot(&path, backend)
                    .unwrap_or_else(|e| panic!("{} reopen {backend:?}: {e}", kind.name())),
            );
            assert_eq!(re.kind(), kind);
            assert_eq!(re.db_bytes(), built.db_bytes());
            assert_eq!(re.plan(), built.plan());
            let (got, got_stream, got_trunc) = run(&re, backend.name());
            for ((got, want), &(s, t)) in got.iter().zip(want.iter()).zip(&pairs) {
                assert_eq!(
                    got.trace,
                    want.trace,
                    "{} {}: trace {s}->{t}",
                    kind.name(),
                    backend.name()
                );
                assert_eq!(got.answer.cost, want.answer.cost);
                assert_eq!(got.answer.path_nodes, want.answer.path_nodes);
                assert_eq!(got.answer.src_node, want.answer.src_node);
                assert_eq!(got.answer.dst_node, want.answer.dst_node);
                assert!(!got.plan_violation && !want.plan_violation);
                // full meter equality modulo the wall-measured client_s
                let (mut got_m, mut want_m) = (got.meter.clone(), want.meter.clone());
                got_m.client_s = 0.0;
                want_m.client_s = 0.0;
                assert_eq!(
                    got_m,
                    want_m,
                    "{} {}: the meter must not see the storage driver for {s}->{t}",
                    kind.name(),
                    backend.name()
                );
            }
            assert_eq!(
                got_stream,
                want_stream,
                "{} {}: storage driver changed the observable stream",
                kind.name(),
                backend.name()
            );
            assert_eq!(got_trunc, want_trunc);
            let events = privpath::pir::wire::parse_observed(&got_stream)
                .unwrap_or_else(|e| panic!("{}: unparseable stream: {e}", kind.name()));
            let file_of = |f: PlanFile| re.file_of(f).expect("plan file registered");
            check_wire_conformance(1, &events, got_trunc, pairs.len(), re.plan(), &file_of)
                .unwrap_or_else(|e| {
                    panic!(
                        "{} {}: snapshot-served stream violates plan: {e}",
                        kind.name(),
                        backend.name()
                    )
                });
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The sharded sweep adds nothing to the adversary's view. How a sweep is
/// split — into which segments, each into how many page ranges, cut where —
/// is fixed when the store is built, from the file's page count and the CPUs
/// of the host, both of which the host knows anyway; what each range then
/// does is sweep all of its pages. So two request sets of one shape, as
/// unlike as they can be (every page in the first range and twice the same
/// page, against every page in the last), leave identical physical logs and
/// identical per-range page counts, on the plan this host gives a file large
/// enough to shard.
#[test]
fn sharded_sweeps_log_and_split_independently_of_the_requests() {
    use privpath::pir::scan::MIN_SHARD_PAGES;
    use privpath::pir::{LinearScanStore, ObliviousStore};
    use privpath::storage::{crc32, ChecksumFile, MemFile, PageBuf};

    let (pages, ps) = (2 * MIN_SHARD_PAGES as u32 + 77, 32usize);
    let bytes: Vec<u8> = (0..pages as usize * ps)
        .map(|i| (i * 29 % 253) as u8)
        .collect();
    let file = MemFile::from_bytes(&bytes, ps);
    let crcs: Vec<u32> = (0..pages).map(|p| crc32(file.page(p).unwrap())).collect();
    let store = || {
        let guarded = ChecksumFile::new("Fi", Arc::new(file.clone()), crcs.clone());
        LinearScanStore::from_driver(Arc::new(guarded))
    };
    let (mut low, mut high) = (store(), store());
    let plan = |s: &LinearScanStore| -> Vec<Vec<std::ops::Range<u32>>> {
        (0..s.sweep().segments().count())
            .map(|seg| s.sweep().shard_ranges(seg).to_vec())
            .collect()
    };
    let ranges = plan(&low);
    assert_eq!(ranges.len(), 3, "two whole segments and a partial one");
    if ranges[0].len() < 2 {
        println!("note: 1 CPU available, the sweep under test is one shard");
    }
    assert_eq!(ranges, plan(&high));

    let rounds_low = [[0u32, 1, 1, 63, 64], [5, 5, 5, 5, 5]];
    let rounds_high = [
        [pages - 1, pages - 2, pages - 70, pages - 71, pages - 5],
        [pages - 1, pages - 3, pages - 9, pages - 27, pages - 81],
    ];
    let mut out = vec![PageBuf::zeroed(ps); 5];
    for (a, b) in rounds_low.iter().zip(&rounds_high) {
        low.fetch_batch(a, &mut out).unwrap();
        for (buf, &p) in out.iter().zip(a) {
            assert_eq!(buf.as_slice(), file.page(p).unwrap());
        }
        high.fetch_batch(b, &mut out).unwrap();
        for (buf, &p) in out.iter().zip(b) {
            assert_eq!(buf.as_slice(), file.page(p).unwrap());
        }
    }
    assert_eq!(low.physical_log(), high.physical_log());
    assert_eq!(low.physical_log().len(), 2 * pages as usize);
    let swept: Vec<u64> = low.sweep().shard_pages_swept().collect();
    assert_eq!(swept, high.sweep().shard_pages_swept().collect::<Vec<_>>());
    let whole: Vec<u64> = (0..swept.len())
        .map(|lane| {
            let per_lap: usize = ranges
                .iter()
                .filter_map(|seg| seg.get(lane))
                .map(|r| r.len())
                .sum();
            2 * per_lap as u64
        })
        .collect();
    assert_eq!(
        swept, whole,
        "every range sweeps all of its pages, every round"
    );
}

/// A shared rotation adds nothing to the adversary's view either. What the
/// host sees of it — which segments were swept in which order, hence where
/// every round joined and that it left one lap later, and how many pages
/// each range swept — is fixed by *when* rounds arrived, never by what they
/// asked for. Under one arrival schedule, pinned by a gate on the file's
/// reads (the second round arrives while the first one's lap is in segment
/// 0, and rides from segment 1), two pairs of request sets of one shape, as
/// unlike as they can be, leave identical plans, join points, physical logs,
/// per-range page counts, masked streams and counters — through a front, and
/// on the rotation as a plain structure.
#[test]
fn shared_laps_are_scheduled_independently_of_the_requests() {
    use privpath::pir::scan::{Rotation, Sweep, SEGMENT_PAGES};
    use privpath::pir::wire::FrameLink;
    use privpath::pir::{
        GateDisk, ObliviousStore, PirMode, PirServer, RetryPolicy, ServerFront, SystemSpec,
        Transport, WireChannel,
    };
    use privpath::storage::{crc32, ChecksumFile, MemFile, PageBuf, PagedFile};
    use std::sync::mpsc;

    let (pages, ps) = (3 * SEGMENT_PAGES as u32 - 50, 64usize);
    let seg = SEGMENT_PAGES as u32;
    let bytes: Vec<u8> = (0..pages as usize * ps)
        .map(|i| (i * 31 % 251) as u8)
        .collect();
    let file = MemFile::from_bytes(&bytes, ps);
    let crcs: Vec<u32> = (0..pages).map(|p| crc32(file.page(p).unwrap())).collect();
    // the first round's pages, the second round's: all in the first runs of
    // the file and repeated, against all in its last runs and distinct
    let low = [[0u32, 1, 1, 63], [5, 5, 5, 5]];
    let high = [
        [pages - 1, pages - 2, pages - 70, pages - 71],
        [pages - 3, pages - 9, pages - 27, pages - 81],
    ];

    /// Tells the test when the client has put a frame on the link.
    struct Announce<L>(L, mpsc::Sender<()>);
    impl<L: FrameLink> FrameLink for Announce<L> {
        fn send(&mut self, frame: &[u8]) -> privpath::pir::Result<()> {
            self.0.send(frame)?;
            let _ = self.1.send(());
            Ok(())
        }
        fn recv(&mut self, timeout: Option<std::time::Duration>) -> privpath::pir::Result<Vec<u8>> {
            self.0.recv(timeout)
        }
    }

    // what the host saw of one schedule: plan, log, per-range counts, and of
    // each session its masked stream and its counters
    type Seen = (
        Vec<Vec<std::ops::Range<u32>>>,
        Vec<u32>,
        Vec<u64>,
        Vec<(Vec<u8>, u64, u64, u64)>,
    );
    let through_a_front = |sets: &[[u32; 4]; 2]| -> Seen {
        let guarded = ChecksumFile::new("Fi", Arc::new(file.clone()), crcs.clone());
        let gate = Arc::new(GateDisk::new(Arc::new(guarded)));
        let mut srv = PirServer::new(SystemSpec {
            page_size: ps,
            ..SystemSpec::default()
        });
        let fi = srv
            .add_file_with_driver("Fi", gate.clone(), PirMode::LinearScan)
            .unwrap();
        let srv = Arc::new(srv);
        let front = ServerFront::spawn(Arc::clone(&srv));
        let (sent, sends) = mpsc::channel();
        let connect = || {
            let link = Announce(front.raw_link().unwrap(), sent.clone());
            let mut chan = WireChannel::handshake(Box::new(link), RetryPolicy::none()).unwrap();
            chan.begin_query().unwrap();
            chan
        };
        let (mut a, mut b) = (connect(), connect());
        while sends.try_recv().is_ok() {} // the four frames so far
        let ask = |chan: &mut WireChannel, set: [u32; 4]| {
            let mut out = vec![PageBuf::zeroed(ps); 4];
            chan.serve_round(2, &set.map(|p| (fi, p)), &mut out)
                .unwrap();
            for (buf, p) in out.iter().zip(set) {
                assert_eq!(buf.as_slice(), file.page(p).unwrap());
            }
        };
        gate.arm(0);
        std::thread::scope(|scope| {
            scope.spawn(|| ask(&mut a, sets[0]));
            gate.wait_parked(); // A's lap is held at its first run
            scope.spawn(|| ask(&mut b, sets[1]));
            sends.recv().unwrap(); // A's round
            sends.recv().unwrap(); // B's round is on the link
                                   // the loop runs the held pass itself and finds the round
                                   // queued after it
            gate.release();
        });
        let (sid_a, sid_b) = (a.session_id(), b.session_id());
        drop((a, b));
        let stats = front.shutdown();
        let sessions = [sid_a, sid_b]
            .map(|sid| {
                let s = &stats[&sid];
                (s.observed.clone(), s.fetches, s.rounds, s.coalesced_rounds)
            })
            .to_vec();
        srv.audit_scan(fi, |store| {
            let plan = (0..store.sweep().segments().count())
                .map(|seg| store.sweep().shard_ranges(seg).to_vec())
                .collect();
            let counts = store.sweep().shard_pages_swept().collect();
            (plan, store.physical_log().to_vec(), counts, sessions)
        })
        .unwrap()
    };
    let (seen_low, seen_high) = (through_a_front(&low), through_a_front(&high));
    assert_eq!(seen_low, seen_high);
    let (plan, log, counts, sessions) = seen_low;
    assert_eq!(plan.len(), 3);
    // segments 0 1 2 0: the second round joined at segment 1, and both rode
    // exactly one lap
    let want: Vec<u32> = (0..pages).chain(0..seg).collect();
    assert_eq!(log, want);
    assert_eq!(counts.iter().sum::<u64>(), want.len() as u64);
    for (_, fetches, rounds, shared) in &sessions {
        assert_eq!((*fetches, *rounds, *shared), (4, 2, 1));
    }
    assert_eq!(
        sessions[0].0, sessions[1].0,
        "the masked streams are page-blind"
    );

    // the same schedule on the plain structure, under plans of 1-3 ranges
    for shards in 1..=3usize {
        let guarded: Arc<dyn PagedFile> = Arc::new(ChecksumFile::new(
            "Fi",
            Arc::new(file.clone()),
            crcs.clone(),
        ));
        let on_the_structure = |sets: &[[u32; 4]; 2]| {
            let mut sweep = Sweep::new(pages, ps, shards);
            let mut crew = sweep.crew(&guarded);
            let mut rotation = Rotation::over(&sweep);
            let (mut run, mut joined, mut done) = (Vec::new(), Vec::new(), Vec::new());
            rotation.join(0, &sets[0]);
            while !rotation.is_idle() {
                if run.len() == 1 {
                    rotation.join(1, &sets[1]);
                }
                rotation
                    .step(
                        |seg, wanted, slots| {
                            run.push(seg);
                            sweep.pass(&mut crew, &*guarded, seg, wanted, slots)
                        },
                        &mut done,
                    )
                    .unwrap();
                for ride in done.drain(..) {
                    for (i, &p) in sets[ride.id() as usize].iter().enumerate() {
                        assert_eq!(ride.page(i), file.page(p).unwrap());
                    }
                    joined.push((ride.id(), ride.joined_at(), run.len(), ride.shared()));
                    rotation.recycle(ride);
                }
            }
            let counts: Vec<u64> = sweep.shard_pages_swept().collect();
            (run, joined, counts)
        };
        let (seen_low, seen_high) = (on_the_structure(&low), on_the_structure(&high));
        assert_eq!(seen_low, seen_high, "x{shards}");
        let (run, joined, counts) = seen_low;
        assert_eq!(run, [0, 1, 2, 0]);
        assert_eq!(joined, [(0, 0, 3, true), (1, 1, 4, true)]);
        assert_eq!(counts.len(), shards);
        assert_eq!(counts.iter().sum::<u64>(), u64::from(pages + seg));
    }
}

/// The scheme-kind predicate and the trace shape agree: PIR schemes fetch
/// through PIR, OBF never does.
#[test]
fn obf_is_the_only_non_pir_scheme() {
    assert!(SchemeKind::Obf.byte() == 7 && !SchemeKind::Obf.is_pir());
    for kind in PIR_SCHEMES {
        assert!(kind.is_pir(), "{} should be PIR-based", kind.name());
    }
    // PIR_SCHEMES is exactly the canonical list minus the non-PIR kinds, so
    // an eighth SchemeKind cannot silently escape this suite.
    let pir_from_all: Vec<SchemeKind> =
        SchemeKind::ALL.into_iter().filter(|k| k.is_pir()).collect();
    assert_eq!(pir_from_all, PIR_SCHEMES.to_vec());
}
