//! The front core stepped by hand: no thread, no socket, a virtual clock.
//! A [`Stepper`] owns a [`Front`], the replies its outbox held for each
//! client and the `now` it hands the core, and runs the lap's segment
//! passes itself, so every case below is one deterministic schedule.

use super::*;
use std::collections::BTreeMap;

/// A file of two segments, the second a short one.
const TWO_SEGMENTS: u32 = SEG + 8;

/// The stepper's servers, 64-byte pages tagged `page + marker`: file 0
/// ("Fh") a cost-only header, files 1 ("Fd") and 3 ("Fy") two-segment
/// linear-scan files, file 2 ("Fx") a one-segment one.
fn step_server(marker: u32) -> Arc<PirServer> {
    let mut srv = PirServer::new(SystemSpec {
        page_size: SMALL,
        ..SystemSpec::default()
    });
    srv.add_file("Fh", small_file(2, marker), PirMode::CostOnly)
        .unwrap();
    srv.add_file("Fd", small_file(TWO_SEGMENTS, marker), PirMode::LinearScan)
        .unwrap();
    srv.add_file("Fx", small_file(16, marker), PirMode::LinearScan)
        .unwrap();
    srv.add_file("Fy", small_file(TWO_SEGMENTS, marker), PirMode::LinearScan)
        .unwrap();
    Arc::new(srv)
}

/// The front core and its clients, driven one call at a time.
struct Stepper {
    front: Front,
    replies: BTreeMap<u64, Vec<Vec<u8>>>,
    now: Instant,
}

impl Stepper {
    fn new(source: Arc<dyn GenerationSource>, cfg: FrontConfig, now: Instant) -> Stepper {
        Stepper {
            front: Front::new(source, cfg),
            replies: BTreeMap::new(),
            now,
        }
    }

    fn connect(&mut self, client: u64) {
        self.front.connect(client, self.now);
    }

    fn send(&mut self, client: u64, frame: &[u8]) {
        self.front.on_frame(client, frame.to_vec(), self.now);
    }

    /// Every reply sent to `client` since the last look.
    fn take(&mut self, client: u64) -> Vec<Vec<u8>> {
        for (to, reply) in self.front.outbox.drain(..) {
            self.replies.entry(to).or_default().push(reply);
        }
        self.replies.remove(&client).unwrap_or_default()
    }

    /// Runs the lap to its end the way the driver does: the frames that
    /// waited behind a ride first, then one segment pass, until nobody
    /// rides.
    fn settle(&mut self) {
        loop {
            self.front.take_backlog(self.now);
            if !self.front.pass() {
                break;
            }
        }
    }
}

/// `(kind, seq, error code)` of a reply; the code is 0 for a non-error.
fn outcome(reply: &[u8]) -> (u8, u32, u16) {
    let f = split_frame(reply).unwrap();
    let code = if f.kind == K_ERROR {
        ByteReader::new(f.payload).u16().unwrap()
    } else {
        0
    };
    (f.kind, f.seq, code)
}

/// What the subject's channel holds when the frame under test arrives.
#[derive(Debug, Clone, Copy)]
enum Channel {
    NoSession,
    Open,
    /// A round over "Fd" is aboard the lap (or, where it could not board,
    /// already served).
    Riding,
}

/// What a neighbour has the lap doing before the subject's setup.
#[derive(Debug, Clone, Copy)]
enum LapBy {
    Idle,
    SameFile,
    OtherFile,
    OneSegment,
}

const SUBJECT: u64 = 1;
const NEIGHBOUR: u64 = 2;

/// The session id carried by `Accept` reply `accept`.
fn accepted_sid(accept: &[u8]) -> u64 {
    let f = split_frame(accept).unwrap();
    assert_eq!(f.kind, K_SESSION_ACCEPT);
    ByteReader::new(f.payload).u64().unwrap()
}

/// Opens a session and its first query on `client` (seqs 1 and 2).
fn open_on(st: &mut Stepper, client: u64) -> u64 {
    st.send(client, &encode_session_open(1));
    let sid = accepted_sid(&st.take(client)[0]);
    st.send(client, &encode_query_open(2, sid));
    assert_eq!(outcome(&st.take(client)[0]).0, K_ACK);
    sid
}

/// The subject's state after setup: its session id (or a stand-in), the
/// last sequence and round it had accepted, its accepted frames, and
/// whether a reply is still owed to it.
struct Subject {
    sid: u64,
    seq: u32,
    round: u32,
    frames: Vec<Vec<u8>>,
    owed: bool,
}

/// The frames the subject may send next: each request kind with a fresh
/// sequence number, then retransmitted, stale, misdirected and broken ones.
fn frames_for(s: &Subject) -> Vec<(&'static str, Vec<u8>)> {
    let fresh = advance_seq(s.seq);
    let fd = [(FileId(1), 5), (FileId(1), SEG + 3)];
    let round = |k: u32, fetches: &[(FileId, u32)]| {
        encode_round_request(fresh, s.sid, s.round + k, fetches)
    };
    let mut frames = vec![
        ("open", encode_session_open(fresh)),
        ("query", encode_query_open(fresh, s.sid)),
        ("round+0", round(0, &fd)),
        ("round+1", round(1, &fd)),
        ("round+2", round(2, &fd)),
        ("round+1 one-segment", round(1, &[(FileId(2), 7)])),
        ("round+1 cost-only", round(1, &[(FileId(0), 1)])),
        (
            "round+1 two files",
            round(1, &[(FileId(1), 4), (FileId(3), 4)]),
        ),
        ("round+1 out of range", round(1, &[(FileId(1), 1 << 30)])),
        (
            "download",
            Request::Download {
                session: s.sid,
                file: FileId(0),
            }
            .encode(fresh, &[], false),
        ),
        ("close", encode_session_close(fresh, s.sid)),
        ("wrong session", encode_query_open(fresh, s.sid + 100)),
        ("seq 0", encode_query_open(0, s.sid)),
        ("seq unparsed", encode_query_open(SEQ_UNPARSED, s.sid)),
        ("seq ahead", encode_query_open(advance_seq(fresh), s.sid)),
        ("unknown kind", finish_frame(begin_frame(11, fresh))),
    ];
    let mut bad_crc = encode_query_open(fresh, s.sid);
    bad_crc[20] ^= 1;
    frames.push(("bad crc", bad_crc));
    frames.push(("truncated", round(1, &fd)[..10].to_vec()));
    let mut trailing = encode_query_open(fresh, s.sid);
    trailing.extend_from_slice(&[0; 3]);
    frames.push(("trailing", trailing));
    let mut big = begin_frame(K_ROUND_REQ, fresh);
    big.bytes(&vec![0u8; MAX_REQUEST_BYTES]);
    frames.push(("oversized", finish_frame(big)));
    if let Some(last) = s.frames.last() {
        frames.push(("retransmit", last.clone()));
    }
    if let Some(first) = s.frames.first().filter(|_| s.frames.len() > 1) {
        frames.push(("stale", first.clone()));
    }
    frames
}

/// Puts the subject's channel and the lap in the states asked for, the
/// neighbour's round aboard per `lap`, and publishes generation 2 if
/// `swapped`. Returns the subject, and the pages the neighbour asked for.
fn setup(
    st: &mut Stepper,
    source: &SwapSource,
    gen2: &Arc<PirServer>,
    channel: Channel,
    lap: LapBy,
    swapped: bool,
) -> (Subject, Vec<u32>) {
    st.connect(SUBJECT);
    st.connect(NEIGHBOUR);
    let mut s = Subject {
        sid: 99,
        seq: 0,
        round: 0,
        frames: Vec::new(),
        owed: false,
    };
    if let Channel::Open | Channel::Riding = channel {
        s.sid = open_on(st, SUBJECT);
        s.frames = vec![encode_session_open(1), encode_query_open(2, s.sid)];
        (s.seq, s.round) = (2, 1);
    }
    let n_sid = open_on(st, NEIGHBOUR);
    let n_pages = match lap {
        LapBy::Idle => Vec::new(),
        LapBy::SameFile => vec![(FileId(1), 9), (FileId(1), SEG + 1)],
        LapBy::OtherFile => vec![(FileId(3), 9)],
        LapBy::OneSegment => vec![(FileId(2), 9)],
    };
    if !n_pages.is_empty() {
        st.send(NEIGHBOUR, &encode_round_request(3, n_sid, 2, &n_pages));
        assert!(st.take(NEIGHBOUR).is_empty(), "the neighbour rides");
    }
    if let Channel::Riding = channel {
        let ride = encode_round_request(3, s.sid, 2, &[(FileId(1), 6), (FileId(1), SEG)]);
        st.send(SUBJECT, &ride);
        s.owed = st.take(SUBJECT).is_empty();
        s.frames.push(ride);
        (s.seq, s.round) = (3, 2);
    }
    if swapped {
        source.publish(2, Arc::clone(gen2));
    }
    (s, n_pages.iter().map(|&(_, p)| p).collect())
}

/// A stepper over a fresh front whose source serves generation 1 until
/// published otherwise.
fn fresh(gen1: &Arc<PirServer>) -> (Stepper, Arc<SwapSource>) {
    let source = SwapSource::starting_at(1, Arc::clone(gen1));
    let st = Stepper::new(
        source.clone() as Arc<dyn GenerationSource>,
        FrontConfig::default(),
        Instant::now(),
    );
    (st, source)
}

/// Runs one case: `frame` arrives on the subject's channel in the states
/// asked for. Checks the core's promises and returns the `(kind, seq,
/// code)` of every reply the subject got for it and what it waited behind.
fn step_case(
    (gen1, gen2): (&Arc<PirServer>, &Arc<PirServer>),
    (channel, lap, swapped): (Channel, LapBy, bool),
    name: &str,
    frame: &[u8],
) -> (String, Vec<(u8, u32, u16)>) {
    let (mut st, source) = fresh(gen1);
    let (s, n_pages) = setup(&mut st, &source, gen2, channel, lap, swapped);
    let case = format!("{channel:?} / {lap:?} / swapped {swapped} / {name}");

    st.send(SUBJECT, frame);
    let early = st.take(SUBJECT);
    assert!(early.len() <= 1, "{case}: one reply per frame");
    if s.owed {
        assert!(early.is_empty(), "{case}: nothing overtakes a riding round");
    }
    st.settle();
    let mut replies = early;
    replies.extend(st.take(SUBJECT));

    // One reply per frame, a retransmission of the riding round being the
    // same frame; the deferred ones in arrival order.
    let absorbed = s.owed && s.frames.last().map(Vec::as_slice) == Some(frame);
    let want = usize::from(s.owed) + 1 - usize::from(absorbed);
    assert_eq!(replies.len(), want, "{case}: replies");
    let outcomes: Vec<_> = replies.iter().map(|r| outcome(r)).collect();
    if s.owed {
        assert_eq!(outcomes[0].1, 3, "{case}: the ride's reply comes first");
    }
    let frame_seq = split_frame(frame).map_or(SEQ_UNPARSED, |f| f.seq);
    let last = outcomes.last().unwrap();
    assert!(
        last.1 == frame_seq || last.1 == SEQ_UNPARSED,
        "{case}: reply seq {} to frame seq {frame_seq}",
        last.1
    );

    // The frame again, once all is settled: a retransmission of what was
    // accepted replays its reply byte for byte, and a refusal that moved
    // nothing refuses the same way.
    st.send(SUBJECT, frame);
    st.settle();
    assert_eq!(
        st.take(SUBJECT),
        [replies.last().unwrap().clone()],
        "{case}: the resend's reply"
    );

    // The neighbour's round, whatever happened beside it, got its pages,
    // once.
    let n_replies = st.take(NEIGHBOUR);
    if n_pages.is_empty() {
        assert!(n_replies.is_empty(), "{case}");
    } else {
        assert_eq!(n_replies.len(), 1, "{case}: the neighbour's reply");
        assert_eq!(reply_tags(&n_replies[0]), n_pages, "{case}");
    }
    (case, outcomes)
}

/// FNV-1a, 64-bit: a digest of the transition table below.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The digest of every case's `(kind, seq, code)` table, pinned: a change
/// to any transition of the front shows here first.
const TRANSITIONS: u64 = 0x60e4_bb17_2309_1429;

#[test]
fn every_frame_in_every_state_gets_one_reply_in_order() {
    let (gen1, gen2) = (step_server(0), step_server(1000));
    let mut table = String::new();
    let mut cases = 0;
    for channel in [Channel::NoSession, Channel::Open, Channel::Riding] {
        for lap in [
            LapBy::Idle,
            LapBy::SameFile,
            LapBy::OtherFile,
            LapBy::OneSegment,
        ] {
            for swapped in [false, true] {
                let state = (channel, lap, swapped);
                let (mut st, source) = fresh(&gen1);
                let subject = setup(&mut st, &source, &gen2, channel, lap, swapped).0;
                for (name, frame) in frames_for(&subject) {
                    let (case, outcomes) = step_case((&gen1, &gen2), state, name, &frame);
                    table.push_str(&format!("{case}: {outcomes:?}\n"));
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 3 * 4 * 2 * 20 + 2 * 4 * 2 * 2);
    assert_eq!(fnv1a(table.as_bytes()), TRANSITIONS, "\n{table}");
}

// ------------------------------------------------ eviction on a virtual clock

const IDLE: Duration = Duration::from_millis(40);

/// A stepper over [`step_server`] whose front evicts after [`IDLE`].
fn idle_stepper(t0: Instant) -> Stepper {
    let source = Arc::new(StaticSource::new(step_server(0)));
    let cfg = FrontConfig {
        idle_timeout: Some(IDLE),
    };
    Stepper::new(source, cfg, t0)
}

#[test]
fn a_client_is_evicted_at_exactly_its_idle_deadline() {
    let t0 = Instant::now();
    let mut st = idle_stepper(t0);
    st.connect(SUBJECT);
    let sid = open_on(&mut st, SUBJECT);
    let due = t0 + IDLE;
    assert_eq!(
        st.front.evict_idle(due - Duration::from_nanos(1)),
        Some(due)
    );
    assert!(st.front.clients.contains_key(&SUBJECT), "1 ns early");
    assert_eq!(st.front.evict_idle(due), None, "nobody left");
    assert!(!st.front.clients.contains_key(&SUBJECT));
    assert_eq!(st.front.hangups, [SUBJECT], "its connection is hung up");
    let stats = &st.front.sessions[&sid];
    assert!(stats.evicted && stats.closed);
}

/// A client that connects at `t0` and never sends a frame.
const LURKER: u64 = 3;

/// What [`idle_beside_a_rider`] saw: before each pass, the clients still
/// connected and the next deadline (from `t0`); the neighbour's page tags;
/// and whether each session was evicted.
type EvictionRun = (Vec<(Vec<u64>, Option<Duration>)>, Vec<u32>, [bool; 2]);

/// The subject opens a session at `t0` and goes quiet; the lurker never
/// says a word. The neighbour, `IDLE / 2` later, sends a round that rides
/// a two-segment lap, which the stepper runs one pass per `IDLE / 4` of
/// virtual time, checking eviction before each pass as the driver does.
fn idle_beside_a_rider(t0: Instant) -> EvictionRun {
    let mut st = idle_stepper(t0);
    for client in [SUBJECT, NEIGHBOUR, LURKER] {
        st.connect(client);
    }
    let s_sid = open_on(&mut st, SUBJECT);
    st.now = t0 + IDLE / 2;
    let n_sid = open_on(&mut st, NEIGHBOUR);
    let round = [(FileId(1), SEG + 2), (FileId(1), 4)];
    st.send(NEIGHBOUR, &encode_round_request(3, n_sid, 2, &round));
    let mut turns = Vec::new();
    loop {
        st.now += IDLE / 4;
        let next = st.front.evict_idle(st.now);
        let present = st.front.clients.keys().copied().collect();
        turns.push((present, next.map(|at| at - t0)));
        st.front.take_backlog(st.now);
        if !st.front.pass() {
            break;
        }
    }
    let replies = st.take(NEIGHBOUR);
    assert_eq!(replies.len(), 1);
    let evicted = [s_sid, n_sid].map(|sid| st.front.sessions[&sid].evicted);
    (turns, reply_tags(&replies[0]), evicted)
}

#[test]
fn a_busy_rider_keeps_no_idle_neighbour_alive_on_any_clock() {
    let now = Instant::now();
    let run = idle_beside_a_rider(now);
    let (half, due) = (IDLE * 3 / 2, IDLE);
    assert_eq!(
        run.0,
        [
            (vec![SUBJECT, NEIGHBOUR, LURKER], Some(due)),
            (vec![NEIGHBOUR], Some(half)),
            (vec![NEIGHBOUR], Some(half)),
        ],
        "evicted at their deadline, between the lap's two passes"
    );
    assert_eq!(run.1, [SEG + 2, 4], "the rider gets its pages");
    assert_eq!(run.2, [true, false]);
    // An hour ahead of the wall clock, the same schedule: the core reads
    // no clock of its own.
    assert_eq!(idle_beside_a_rider(now + Duration::from_secs(3600)), run);
}
