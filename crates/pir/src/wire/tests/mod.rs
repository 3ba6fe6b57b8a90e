use super::client::*;
use super::codec::*;
use super::front::*;
use super::tcp::SocketLink;
use crate::error::PirError;
use crate::server::{FileId, PirMode, PirServer};
use crate::spec::SystemSpec;
use crate::transport::{GenerationSource, ServeHost, StaticSource, Transport};
use crate::{PirSession, Result};
use privpath_storage::{crc32, ByteReader, ByteWriter, MemFile, PageBuf, DEFAULT_PAGE_SIZE};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn encode_session_open(seq: u32) -> Vec<u8> {
    Request::SessionOpen.encode(seq, &[], false)
}

fn encode_query_open(seq: u32, session: u64) -> Vec<u8> {
    Request::QueryOpen { session }.encode(seq, &[], false)
}

fn encode_round_request(seq: u32, session: u64, round: u32, fetches: &[(FileId, u32)]) -> Vec<u8> {
    Request::Round { session, round }.encode(seq, fetches, false)
}

fn encode_session_close(seq: u32, session: u64) -> Vec<u8> {
    Request::SessionClose { session }.encode(seq, &[], false)
}

fn file(pages: u32) -> MemFile {
    let mut f = MemFile::empty(DEFAULT_PAGE_SIZE);
    for p in 0..pages {
        let mut page = PageBuf::zeroed(DEFAULT_PAGE_SIZE);
        page.as_mut_slice()[..4].copy_from_slice(&p.to_le_bytes());
        f.push_page(page);
    }
    f
}

fn server() -> Arc<PirServer> {
    let mut srv = PirServer::new(SystemSpec::default());
    srv.add_file("Fh", file(2), PirMode::CostOnly).unwrap();
    srv.add_file("Fd", file(16), PirMode::LinearScan).unwrap();
    Arc::new(srv)
}

#[test]
fn server_info_round_trips() {
    let srv = server();
    let info = ServerInfo::of_generation(&srv, 1);
    let mut w = ByteWriter::new();
    info.serialize(&mut w);
    let buf = w.into_vec();
    let back = ServerInfo::deserialize(&mut ByteReader::new(&buf)).unwrap();
    assert_eq!(back, info);
    assert_eq!(back.generation, 1);
    assert_eq!(back.files.len(), 2);
    assert_eq!(back.files[1].pages, 16);
    assert_eq!(back.files[0].name, "Fh");

    let stamped = ServerInfo::of_generation(&srv, 42);
    let mut w = ByteWriter::new();
    stamped.serialize(&mut w);
    let buf = w.into_vec();
    let back = ServerInfo::deserialize(&mut ByteReader::new(&buf)).unwrap();
    assert_eq!(back.generation, 42);
    assert_eq!(back.files, stamped.files);
}

#[test]
fn frames_round_trip_and_reject_bad_versions() {
    let frame = encode_round_request(11, 7, 3, &[(FileId(1), 9), (FileId(1), 2)]);
    let f = split_frame(&frame).unwrap();
    assert_eq!(f.kind, K_ROUND_REQ);
    assert_eq!(f.seq, 11);
    assert!(f.rest.is_empty());
    let mut r = ByteReader::new(f.payload);
    assert_eq!(r.u64().unwrap(), 7);
    assert_eq!(r.u32().unwrap(), 3);
    assert_eq!(r.u32().unwrap(), 2);

    // a frame legitimately claiming another version (crc re-patched)
    let mut bad = frame.clone();
    bad[10] = WIRE_VERSION + 1;
    let crc = crc32(&bad[8..]);
    bad[4..8].copy_from_slice(&crc.to_le_bytes());
    let err = split_frame(&bad).unwrap_err();
    assert!(err.to_string().contains("version"), "{err}");
    assert!(!err.is_retryable(), "version mismatch is fatal");
    assert_eq!(refusal_code(&bad, &err), ERR_VERSION);

    // corruption (crc now wrong) is retryable, never a version error
    let mut flipped = frame.clone();
    flipped[10] ^= 0x40;
    let err = split_frame(&flipped).unwrap_err();
    assert!(err.to_string().contains("crc"), "{err}");
    assert!(err.is_retryable());
    assert_eq!(refusal_code(&flipped, &err), ERR_MALFORMED);

    let mut bad_magic = frame;
    bad_magic[8] = 0;
    assert!(split_frame(&bad_magic).is_err());
}

#[test]
fn split_frame_never_panics_on_truncation() {
    let frame = encode_round_request(1, 7, 2, &[(FileId(1), 9)]);
    for n in 0..frame.len() {
        let err = split_frame(&frame[..n]).unwrap_err();
        assert!(err.is_retryable(), "truncated at {n}: {err}");
    }
    assert!(split_frame(&frame).is_ok());
}

#[test]
fn wire_channel_serves_rounds_downloads_and_closes() {
    let front = ServerFront::spawn(server());
    let mut chan = front.connect().unwrap();
    assert_eq!(chan.file_pages(FileId(1)).unwrap(), 16);
    assert_eq!(chan.spec().page_size, DEFAULT_PAGE_SIZE);

    chan.begin_query().unwrap();
    let mut out = vec![PageBuf::zeroed(DEFAULT_PAGE_SIZE); 3];
    chan.serve_round(
        2,
        &[(FileId(1), 4), (FileId(1), 0), (FileId(1), 15)],
        &mut out,
    )
    .unwrap();
    for (buf, want) in out.iter().zip([4u32, 0, 15]) {
        assert_eq!(
            u32::from_le_bytes(buf.as_slice()[..4].try_into().unwrap()),
            want
        );
    }
    let header = chan.download(FileId(0)).unwrap();
    assert_eq!(header.len(), 2 * DEFAULT_PAGE_SIZE);
    chan.close().unwrap();

    let stats = front.shutdown();
    let s = stats.get(&chan.session_id()).expect("session recorded");
    assert_eq!(s.queries, 1);
    assert_eq!(s.fetches, 3);
    assert_eq!(s.downloads, 1);
    assert_eq!(s.rounds, 2); // query open (round 1) + round 2
    assert_eq!(s.retransmits, 0);
    assert!(s.closed);
    assert!(s.bytes_in > 0 && s.bytes_out > 0);
}

/// A driver whose first `failures` reads fail with a transient
/// (`Interrupted`) I/O error, then serve cleanly — the deterministic
/// analog of a disk hiccup.
struct FlakyReads {
    inner: MemFile,
    failures: std::sync::atomic::AtomicU32,
}

impl privpath_storage::PagedFile for FlakyReads {
    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn read_page(&self, page: u32) -> privpath_storage::Result<PageBuf> {
        use std::sync::atomic::Ordering;
        let drew = self
            .failures
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok();
        if drew {
            return Err(privpath_storage::StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                format!("flaky read of page {page}"),
            )));
        }
        self.inner.read_page(page)
    }
}

#[test]
fn transient_serve_error_is_retried_not_cached() {
    // Fd's driver fails its first read; the sweep errors, the front
    // answers ERR_SERVE_TRANSIENT without caching it, and the client's
    // retransmission re-executes the serve successfully.
    let mut srv = PirServer::new(SystemSpec::default());
    srv.add_file("Fh", file(2), PirMode::CostOnly).unwrap();
    srv.add_file_with_driver(
        "Fd",
        Arc::new(FlakyReads {
            inner: file(16),
            failures: std::sync::atomic::AtomicU32::new(1),
        }),
        PirMode::LinearScan,
    )
    .unwrap();
    let front = ServerFront::spawn(Arc::new(srv));
    let mut chan = front.connect_with(RetryPolicy::resilient()).unwrap();
    chan.begin_query().unwrap();
    let mut out = vec![PageBuf::zeroed(DEFAULT_PAGE_SIZE); 2];
    chan.serve_round(2, &[(FileId(1), 5), (FileId(1), 9)], &mut out)
        .unwrap();
    for (buf, want) in out.iter().zip([5u32, 9]) {
        assert_eq!(
            u32::from_le_bytes(buf.as_slice()[..4].try_into().unwrap()),
            want
        );
    }
    // A later round proves the round cursor rolled back cleanly.
    chan.serve_round(3, &[(FileId(1), 0)], &mut out[..1])
        .unwrap();
    chan.close().unwrap();
    let stats = front.shutdown();
    let s = stats.get(&chan.session_id()).expect("session recorded");
    // fetches counted once per *successful* serve — the failed attempt
    // contributed nothing; and the retry was a fresh serve, not a
    // replay-cache hit.
    assert_eq!(s.fetches, 3);
    assert_eq!(s.rounds, 3);
    assert_eq!(s.retransmits, 0, "retry re-executed, did not replay");
    assert!(s.closed);
}

#[test]
fn transient_serve_error_without_retries_is_typed_and_retryable() {
    let mut srv = PirServer::new(SystemSpec::default());
    srv.add_file("Fh", file(2), PirMode::CostOnly).unwrap();
    srv.add_file_with_driver(
        "Fd",
        Arc::new(FlakyReads {
            inner: file(8),
            failures: std::sync::atomic::AtomicU32::new(1),
        }),
        PirMode::LinearScan,
    )
    .unwrap();
    let front = ServerFront::spawn(Arc::new(srv));
    let mut chan = front.connect().unwrap(); // RetryPolicy::none()
    chan.begin_query().unwrap();
    let mut out = vec![PageBuf::zeroed(DEFAULT_PAGE_SIZE); 1];
    let err = chan
        .serve_round(2, &[(FileId(1), 3)], &mut out)
        .unwrap_err();
    assert!(
        matches!(err, PirError::TransientIo(_)),
        "expected TransientIo, got {err}"
    );
    assert!(err.is_retryable());
    front.shutdown();
}

#[test]
fn observed_stream_masks_pages_but_keeps_structure() {
    let front = ServerFront::spawn(server());
    let mut chan = front.connect().unwrap();
    chan.begin_query().unwrap();
    let mut out = vec![PageBuf::zeroed(DEFAULT_PAGE_SIZE); 2];
    chan.serve_round(2, &[(FileId(1), 7), (FileId(1), 3)], &mut out)
        .unwrap();
    let stream = front.observed_stream(chan.session_id()).unwrap();
    let events = parse_observed(&stream).unwrap();
    assert_eq!(events[0], ObservedEvent::SessionOpen);
    assert_eq!(events[1], ObservedEvent::QueryOpen);
    assert_eq!(
        events[2],
        ObservedEvent::Round {
            round: 2,
            fetches: vec![FileId(1), FileId(1)],
        }
    );
    // the raw stream must not contain the page indices anywhere: two
    // sessions fetching different pages record identical bytes
    let mut chan2 = front.connect().unwrap();
    chan2.begin_query().unwrap();
    chan2
        .serve_round(2, &[(FileId(1), 12), (FileId(1), 1)], &mut out)
        .unwrap();
    let stream2 = front.observed_stream(chan2.session_id()).unwrap();
    assert_eq!(stream, stream2, "observed streams must be page-blind");
}

#[test]
fn round_order_violations_are_rejected() {
    let front = ServerFront::spawn(server());
    let mut chan = front.connect().unwrap();
    chan.begin_query().unwrap();
    let mut out = vec![PageBuf::zeroed(DEFAULT_PAGE_SIZE); 1];
    // skipping ahead (round 4 after round 1) is a protocol violation
    let err = chan
        .serve_round(4, &[(FileId(1), 0)], &mut out)
        .unwrap_err();
    assert!(err.to_string().contains("round"), "{err}");
    assert!(!err.is_retryable());
    // round 2 is fine, and a repeat of round 2 is a sub-round exchange
    chan.serve_round(2, &[(FileId(1), 0)], &mut out).unwrap();
    chan.serve_round(2, &[(FileId(1), 1)], &mut out).unwrap();
}

#[test]
fn wire_session_accounting_matches_client_meter() {
    let srv = server();
    let front = ServerFront::spawn(Arc::clone(&srv));
    let mut chan = front.connect().unwrap();
    let mut sess = PirSession::new();
    sess.begin_round(&mut chan).unwrap();
    let _hdr = sess.download_full(&mut chan, FileId(0)).unwrap();
    sess.run_round(&mut chan, &[(FileId(1), 5), (FileId(1), 9)])
        .unwrap();
    let sid = chan.session_id();
    let stats = front.shutdown();
    let s = stats.get(&sid).unwrap();
    assert_eq!(s.fetches, sess.meter.total_fetches());
    assert_eq!(s.rounds, u64::from(sess.meter.rounds));
    assert_eq!(s.queries, 1);
    assert_eq!(s.downloads, 1);
}

#[test]
fn requests_after_shutdown_error_cleanly() {
    let front = ServerFront::spawn(server());
    let mut chan = front.connect().unwrap();
    chan.begin_query().unwrap();
    drop(front);
    let mut out = vec![PageBuf::zeroed(DEFAULT_PAGE_SIZE); 1];
    let err = chan
        .serve_round(2, &[(FileId(1), 0)], &mut out)
        .unwrap_err();
    assert!(err.to_string().contains("disconnected"), "{err}");
}

#[test]
fn duplicate_requests_replay_cached_reply_without_reserving() {
    // Drive the protocol by hand over a raw link so we can retransmit.
    let srv = server();
    let front = ServerFront::spawn(Arc::clone(&srv));
    let mut link = front.raw_link().unwrap();
    let open = encode_session_open(1);
    link.send(&open).unwrap();
    let accept = link.recv(None).unwrap();
    let f = split_frame(&accept).unwrap();
    assert_eq!(f.kind, K_SESSION_ACCEPT);
    assert_eq!(f.seq, 1);
    let sid = ByteReader::new(f.payload).u64().unwrap();

    let query = encode_query_open(2, sid);
    link.send(&query).unwrap();
    let ack = link.recv(None).unwrap();

    let round = encode_round_request(3, sid, 2, &[(FileId(1), 6)]);
    link.send(&round).unwrap();
    let resp1 = link.recv(None).unwrap();
    // retransmit: bit-identical reply, no extra fetch served
    link.send(&round).unwrap();
    let resp2 = link.recv(None).unwrap();
    assert_eq!(resp1, resp2, "replay must be bit-identical");
    // a duplicate of an *older* seq is out of window → ERR_SEQ
    link.send(&query).unwrap();
    let stale = link.recv(None).unwrap();
    let f = split_frame(&stale).unwrap();
    assert_eq!(f.kind, K_ERROR);
    let err = decode_error_frame(f.payload);
    assert!(err.to_string().contains("sequence"), "{err}");
    drop(ack);

    let stats = front.shutdown();
    let s = stats.get(&sid).unwrap();
    assert_eq!(s.fetches, 1, "replay must not re-serve the store");
    assert_eq!(s.retransmits, 1);
    // the observed stream logically dedups, raw keeps the duplicate
    let raw = parse_observed_raw(&s.observed).unwrap();
    assert_eq!(raw.len(), 4); // open, query, round, round(retransmit)
    assert_eq!(raw[2].0, raw[3].0, "retransmit shares the seq");
    let logical = parse_observed(&s.observed).unwrap();
    assert_eq!(logical.len(), 3);
}

#[test]
fn malformed_and_oversized_frames_get_typed_errors_not_panics() {
    let front = ServerFront::spawn(server());
    let mut chan = front.connect().unwrap();
    // garbage bytes
    let reply = chan.raw_exchange(&[0xAB; 40]).unwrap();
    let f = split_frame(&reply).unwrap();
    assert_eq!(f.kind, K_ERROR);
    // truncated but valid-prefix frame
    let valid = encode_query_open(99, 1);
    let reply = chan.raw_exchange(&valid[..10]).unwrap();
    let f = split_frame(&reply).unwrap();
    assert_eq!(f.kind, K_ERROR);
    // oversized frame
    let mut w = begin_frame(K_ROUND_REQ, 2);
    w.bytes(&vec![0u8; MAX_REQUEST_BYTES]);
    let reply = chan.raw_exchange(&finish_frame(w)).unwrap();
    let f = split_frame(&reply).unwrap();
    assert_eq!(f.kind, K_ERROR);
    // the channel still serves a fresh client afterwards
    let mut chan2 = front.connect().unwrap();
    chan2.begin_query().unwrap();
}

#[test]
fn shutdown_drains_queued_frames() {
    let srv = server();
    let front = ServerFront::spawn(Arc::clone(&srv));
    let mut link = front.raw_link().unwrap();
    link.send(&encode_session_open(1)).unwrap();
    let accept = link.recv(None).unwrap();
    let sid = ByteReader::new(split_frame(&accept).unwrap().payload)
        .u64()
        .unwrap();
    // Send a frame and immediately shut down: the frame is in the socket
    // before the shutdown is asked for, so the drain must still serve it.
    link.send(&encode_query_open(2, sid)).unwrap();
    let stats = front.shutdown();
    let reply = link.recv(Some(Duration::from_secs(5))).unwrap();
    assert_eq!(split_frame(&reply).unwrap().kind, K_ACK);
    assert_eq!(stats.get(&sid).unwrap().queries, 1);
}

#[test]
fn idle_sessions_are_evicted() {
    let front = ServerFront::spawn_with(
        server(),
        FrontConfig {
            idle_timeout: Some(Duration::from_millis(40)),
        },
    );
    let mut chan = front.connect().unwrap();
    chan.begin_query().unwrap();
    let sid = chan.session_id();
    std::thread::sleep(Duration::from_millis(250));
    let mut out = vec![PageBuf::zeroed(DEFAULT_PAGE_SIZE); 1];
    let err = chan
        .serve_round(2, &[(FileId(1), 0)], &mut out)
        .unwrap_err();
    assert!(err.to_string().contains("disconnected"), "{err}");
    let stats = front.shutdown();
    let s = stats.get(&sid).unwrap();
    assert!(s.evicted && s.closed);
}

#[test]
fn retry_policy_recovers_from_a_lost_response() {
    // A link that drops the first response of every exchange: the retry
    // path must resend and accept the server's cached replay.
    struct FlakyLink {
        inner: SocketLink,
        drop_next_recv: bool,
    }
    impl FrameLink for FlakyLink {
        fn send(&mut self, frame: &[u8]) -> Result<()> {
            self.inner.send(frame)
        }
        fn recv(&mut self, timeout: Option<Duration>) -> Result<Vec<u8>> {
            let r = self.inner.recv(timeout)?;
            if self.drop_next_recv {
                self.drop_next_recv = false;
                return Err(PirError::Timeout("chaos: response dropped".into()));
            }
            self.drop_next_recv = true;
            Ok(r)
        }
    }
    let front = ServerFront::spawn(server());
    let link = FlakyLink {
        inner: front.raw_link().unwrap(),
        drop_next_recv: true,
    };
    let policy = RetryPolicy {
        max_attempts: 4,
        attempt_timeout: Some(Duration::from_millis(100)),
        backoff: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
        deadline: Some(Duration::from_secs(10)),
    };
    let mut chan = WireChannel::handshake(Box::new(link), policy).unwrap();
    assert!(chan.retries() >= 1);
    chan.begin_query().unwrap();
    let mut out = vec![PageBuf::zeroed(DEFAULT_PAGE_SIZE); 1];
    chan.serve_round(2, &[(FileId(1), 9)], &mut out).unwrap();
    assert_eq!(
        u32::from_le_bytes(out[0].as_slice()[..4].try_into().unwrap()),
        9
    );
    let sid = chan.session_id();
    drop(chan);
    let stats = front.shutdown();
    let s = stats.get(&sid).unwrap();
    assert!(s.retransmits >= 1, "server must have replayed from cache");
    assert_eq!(s.fetches, 1, "the replay must not re-fetch");
}

#[test]
fn sequence_numbers_survive_wraparound() {
    assert_eq!(advance_seq(5), 6);
    assert_eq!(advance_seq(u32::MAX - 2), u32::MAX - 1);
    // u32::MAX is SEQ_UNPARSED and 0 is the pre-handshake state: the
    // walk skips both, landing on 1
    assert_eq!(advance_seq(u32::MAX - 1), 1);
    assert_eq!(advance_seq(u32::MAX), 1);
    assert_eq!(advance_seq(0), 1);

    // Server side: a channel sitting one step below the sentinel. File 0 is
    // cost-only, so every round is served on the spot.
    let source = Arc::new(StaticSource::new(server()));
    let mut front = Front::new(source, FrontConfig::default());
    let now = Instant::now();
    front.connect(7, now);
    front.on_frame(7, encode_session_open(1), now);
    let accept = front.outbox.remove(0).1;
    let sid = ByteReader::new(split_frame(&accept).unwrap().payload)
        .u64()
        .unwrap();
    front.on_frame(7, encode_query_open(2, sid), now);
    front.outbox.remove(0);
    front.clients.get_mut(&7).unwrap().last_seq = u32::MAX - 1;
    let mut drive = |seq: u32| {
        front.on_frame(7, encode_round_request(seq, sid, 2, &[(FileId(0), 1)]), now);
        let reply = front.outbox.remove(0).1;
        let f = split_frame(&reply).unwrap();
        (f.kind, f.seq, front.clients[&7].last_seq)
    };
    // the sentinel itself stays reserved and does not advance the cache
    assert_eq!(drive(SEQ_UNPARSED), (K_ERROR, SEQ_UNPARSED, u32::MAX - 1));
    // ...as does the wrapped-to-zero value
    assert_eq!(drive(0), (K_ERROR, 0, u32::MAX - 1));
    // the successor skipping both reserved values is the fresh request
    assert_eq!(drive(1), (K_ROUND_RESP, 1, 1));

    // Client side: next_seq takes the identical walk, so both ends of a
    // wrapped channel stay in sync.
    struct NullLink;
    impl FrameLink for NullLink {
        fn send(&mut self, _f: &[u8]) -> Result<()> {
            Ok(())
        }
        fn recv(&mut self, _t: Option<Duration>) -> Result<Vec<u8>> {
            Err(PirError::Timeout("never".into()))
        }
    }
    let mut chan = WireChannel {
        link: Box::new(NullLink),
        session: 7,
        info: None,
        seq: u32::MAX - 1,
        policy: RetryPolicy::none(),
        retries: 0,
    };
    assert_eq!(chan.next_seq(), 1);
    assert_eq!(chan.next_seq(), 2);
}

#[test]
fn expired_attempt_deadline_times_out_without_spinning() {
    // A link whose recv is always instantly ready: a zero-duration
    // timeout bug would happily spin on it instead of failing the
    // attempt. The fix means recv is never even called.
    struct CountingLink(Arc<AtomicU64>);
    impl FrameLink for CountingLink {
        fn send(&mut self, _f: &[u8]) -> Result<()> {
            Ok(())
        }
        fn recv(&mut self, _t: Option<Duration>) -> Result<Vec<u8>> {
            self.0.fetch_add(1, Ordering::SeqCst);
            Ok(vec![0u8; 3])
        }
    }
    let recvs = Arc::new(AtomicU64::new(0));
    let mut chan = WireChannel {
        link: Box::new(CountingLink(Arc::clone(&recvs))),
        session: 1,
        info: None,
        seq: 0,
        policy: RetryPolicy {
            max_attempts: 3,
            attempt_timeout: Some(Duration::ZERO),
            backoff: Duration::from_micros(10),
            backoff_cap: Duration::from_micros(10),
            deadline: Some(Duration::from_secs(5)),
        },
        retries: 0,
    };
    let seq = chan.next_seq();
    let err = chan.exchange(encode_query_open(seq, 1)).unwrap_err();
    assert!(err.is_retry_exhausted(), "{err}");
    match err {
        PirError::Exhausted { last, .. } => {
            assert!(matches!(*last, PirError::Timeout(_)), "{last}")
        }
        other => panic!("expected Exhausted, got {other}"),
    }
    assert_eq!(
        recvs.load(Ordering::SeqCst),
        0,
        "an expired deadline must fail before recv, not spin through it"
    );
}

#[test]
fn exhausted_retries_surface_typed_error() {
    struct DeadLink;
    impl FrameLink for DeadLink {
        fn send(&mut self, _frame: &[u8]) -> Result<()> {
            Err(PirError::LinkDown("chaos: permanent outage".into()))
        }
        fn recv(&mut self, _timeout: Option<Duration>) -> Result<Vec<u8>> {
            Err(PirError::Timeout("never".into()))
        }
    }
    let policy = RetryPolicy {
        max_attempts: 3,
        attempt_timeout: Some(Duration::from_millis(5)),
        backoff: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(2),
        deadline: Some(Duration::from_secs(5)),
    };
    let Err(err) = WireChannel::handshake(Box::new(DeadLink), policy) else {
        panic!("handshake over a dead link must fail");
    };
    assert!(err.is_retry_exhausted(), "{err}");
    assert!(!err.is_retryable());
    match err {
        PirError::Exhausted { attempts, last } => {
            assert_eq!(attempts, 3);
            assert!(last.is_retryable());
        }
        other => panic!("expected Exhausted, got {other}"),
    }
}

/// A server whose linear-scan pages carry `page_index + marker`, so
/// tests can tell which generation served a fetch.
fn marked_server(marker: u32) -> Arc<PirServer> {
    let mut f = MemFile::empty(DEFAULT_PAGE_SIZE);
    for p in 0..16u32 {
        let mut page = PageBuf::zeroed(DEFAULT_PAGE_SIZE);
        page.as_mut_slice()[..4].copy_from_slice(&(p + marker).to_le_bytes());
        f.push_page(page);
    }
    let mut srv = PirServer::new(SystemSpec::default());
    srv.add_file("Fh", file(2), PirMode::CostOnly).unwrap();
    srv.add_file("Fd", f, PirMode::LinearScan).unwrap();
    Arc::new(srv)
}

fn page_marker(buf: &PageBuf) -> u32 {
    u32::from_le_bytes(buf.as_slice()[..4].try_into().unwrap())
}

/// Test double for the core crate's registry: a swappable
/// `(generation, server)` pair.
struct SwapSource(Mutex<(u64, Arc<PirServer>)>);

impl SwapSource {
    fn starting_at(id: u64, srv: Arc<PirServer>) -> Arc<SwapSource> {
        Arc::new(SwapSource(Mutex::new((id, srv))))
    }
    fn publish(&self, id: u64, srv: Arc<PirServer>) {
        *self.0.lock().unwrap() = (id, srv);
    }
}

impl GenerationSource for SwapSource {
    fn current_generation(&self) -> (u64, Arc<dyn ServeHost + Send + Sync>) {
        let g = self.0.lock().unwrap();
        (g.0, g.1.clone() as Arc<dyn ServeHost + Send + Sync>)
    }
}

#[test]
fn sessions_pin_their_generation_across_a_swap() {
    let source = SwapSource::starting_at(1, marked_server(0));
    let front = ServerFront::spawn_swappable(
        source.clone() as Arc<dyn GenerationSource>,
        FrontConfig::default(),
    );
    let mut a = front.connect().unwrap();
    assert_eq!(a.generation(), 1);
    a.begin_query().unwrap();
    let mut out = vec![PageBuf::zeroed(DEFAULT_PAGE_SIZE); 1];
    a.serve_round(2, &[(FileId(1), 3)], &mut out).unwrap();
    assert_eq!(page_marker(&out[0]), 3);

    source.publish(2, marked_server(1000));

    // A is pinned: mid-session rounds keep draining on generation 1
    a.serve_round(2, &[(FileId(1), 4)], &mut out).unwrap();
    assert_eq!(
        page_marker(&out[0]),
        4,
        "a live session must drain on its pinned generation"
    );

    // a fresh session opens on (and reads from) generation 2
    let mut b = front.connect().unwrap();
    assert_eq!(b.generation(), 2);
    b.begin_query().unwrap();
    b.serve_round(2, &[(FileId(1), 4)], &mut out).unwrap();
    assert_eq!(page_marker(&out[0]), 1004);

    // reopening while expecting the drained generation is typed,
    // retryable staleness naming both ids
    let Err(err) = front.connect_expecting(RetryPolicy::none(), 1) else {
        panic!("reopening with a stale expectation must fail");
    };
    assert!(err.is_retryable(), "{err}");
    match err {
        PirError::StaleGeneration { held, current } => {
            assert_eq!(held, 1);
            assert_eq!(current, 2);
        }
        other => panic!("expected StaleGeneration, got {other}"),
    }

    // expecting the current generation succeeds
    let mut c = front.connect_expecting(RetryPolicy::none(), 2).unwrap();
    assert_eq!(c.generation(), 2);
    c.begin_query().unwrap();
    c.serve_round(2, &[(FileId(1), 7)], &mut out).unwrap();
    assert_eq!(page_marker(&out[0]), 1007);

    // the pinned session keeps its generation to the very end
    a.serve_round(2, &[(FileId(1), 9)], &mut out).unwrap();
    assert_eq!(page_marker(&out[0]), 9);
    a.close().unwrap();
    b.close().unwrap();
    c.close().unwrap();
    front.shutdown();
}

// ---------------------------------------------------------- shared laps

use crate::backend::ObliviousStore;
use crate::chaos::GateDisk;
use crate::scan::SEGMENT_PAGES;

/// Page size of the lap files: small, so that a file of several
/// segments is a few hundred KiB.
const SMALL: usize = 64;
/// Three segments, the last one partial.
const LAP_PAGES: u32 = 3 * SEGMENT_PAGES as u32 - 100;
const SEG: u32 = SEGMENT_PAGES as u32;
const WAIT: Option<Duration> = Some(Duration::from_secs(20));

fn small_file(pages: u32, marker: u32) -> MemFile {
    let mut f = MemFile::empty(SMALL);
    for p in 0..pages {
        let mut page = PageBuf::zeroed(SMALL);
        page.as_mut_slice()[..4].copy_from_slice(&(p + marker).to_le_bytes());
        f.push_page(page);
    }
    f
}

/// A server of 64-byte pages: file 0 a cost-only header, file 1 ("Fd")
/// `LAP_PAGES` linear-scan pages served through `driver(pages)`, file 2
/// ("Fx") sixteen linear-scan pages. Page `p` is tagged `p + marker`.
fn lap_server(
    marker: u32,
    driver: impl FnOnce(MemFile) -> Arc<dyn privpath_storage::PagedFile>,
) -> Arc<PirServer> {
    let mut srv = PirServer::new(SystemSpec {
        page_size: SMALL,
        ..SystemSpec::default()
    });
    srv.add_file("Fh", small_file(2, marker), PirMode::CostOnly)
        .unwrap();
    srv.add_file_with_driver(
        "Fd",
        driver(small_file(LAP_PAGES, marker)),
        PirMode::LinearScan,
    )
    .unwrap();
    srv.add_file("Fx", small_file(16, marker), PirMode::LinearScan)
        .unwrap();
    Arc::new(srv)
}

/// [`lap_server`] with "Fd" behind a gate.
fn gated_server(marker: u32) -> (Arc<PirServer>, Arc<GateDisk>) {
    let mut gate = None;
    let srv = lap_server(marker, |file| {
        let gated = Arc::new(GateDisk::new(Arc::new(file)));
        gate = Some(Arc::clone(&gated));
        gated
    });
    (srv, gate.expect("the driver was built"))
}

/// A front over `srv`. Its loop thread drives every lap itself, so a frame
/// sent while a pass is held at a gate is queued when the pass ends.
fn front_on(srv: &Arc<PirServer>, cfg: FrontConfig) -> ServerFront {
    ServerFront::spawn_with(Arc::clone(srv), cfg)
}

/// Opens a session and its first query on a raw link; returns the
/// session id and the generation it is pinned to. The next request is
/// seq 3, round 2.
fn open_query(link: &mut SocketLink) -> (u64, u64) {
    link.send(&encode_session_open(1)).unwrap();
    let accept = link.recv(WAIT).unwrap();
    let f = split_frame(&accept).unwrap();
    assert_eq!(f.kind, K_SESSION_ACCEPT);
    let mut r = ByteReader::new(f.payload);
    let sid = r.u64().unwrap();
    let generation = ServerInfo::deserialize(&mut r).unwrap().generation;
    link.send(&encode_query_open(2, sid)).unwrap();
    let ack = link.recv(WAIT).unwrap();
    assert_eq!(split_frame(&ack).unwrap().kind, K_ACK);
    (sid, generation)
}

fn fd_round(sid: u64, pages: &[u32]) -> Vec<u8> {
    let reqs: Vec<_> = pages.iter().map(|&p| (FileId(1), p)).collect();
    encode_round_request(3, sid, 2, &reqs)
}

/// The page tags of the `RoundResponse` to request 3.
fn reply_tags(reply: &[u8]) -> Vec<u32> {
    let f = split_frame(reply).unwrap();
    assert_eq!(f.kind, K_ROUND_RESP, "{:?}", decode_error_frame(f.payload));
    assert_eq!(f.seq, 3);
    let mut r = ByteReader::new(f.payload);
    let k = r.u32().unwrap();
    let page_size = r.u32().unwrap() as usize;
    (0..k)
        .map(|_| u32::from_le_bytes(r.bytes(page_size).unwrap()[..4].try_into().unwrap()))
        .collect()
}

fn scan_log(srv: &PirServer, f: FileId) -> Vec<u32> {
    srv.audit_scan(f, |s| s.physical_log().to_vec()).unwrap()
}

#[test]
fn coalesced_rounds_merge_into_one_sweep_with_correct_replies() {
    let (srv, gate) = gated_server(0);
    let front = front_on(&srv, FrontConfig::default());
    let mut a = front.raw_link().unwrap();
    let mut b = front.raw_link().unwrap();
    let (sid_a, _) = open_query(&mut a);
    let (sid_b, _) = open_query(&mut b);
    // A's lap is held at its first run; B's round arrives meanwhile
    // and rides from the boundary after segment 0
    gate.arm(0);
    a.send(&fd_round(sid_a, &[5, LAP_PAGES - 1])).unwrap();
    gate.wait_parked();
    b.send(&fd_round(sid_b, &[9, 2 * SEG, 9])).unwrap();
    gate.release();
    assert_eq!(reply_tags(&a.recv(WAIT).unwrap()), [5, LAP_PAGES - 1]);
    // page 9 lies behind B's join: its lap wraps round to it
    assert_eq!(reply_tags(&b.recv(WAIT).unwrap()), [9, 2 * SEG, 9]);
    drop((a, b));
    let stats = front.shutdown();
    let (sa, sb) = (&stats[&sid_a], &stats[&sid_b]);
    assert_eq!((sa.fetches, sb.fetches), (2, 3));
    assert_eq!((sa.rounds, sb.rounds), (2, 2));
    assert_eq!(sa.coalesced_rounds, 1, "A shared segments 1 and 2");
    assert_eq!(sb.coalesced_rounds, 1);
    // the host swept segments 0 1 2 0: four passes for two rounds
    let want: Vec<u32> = (0..LAP_PAGES).chain(0..SEG).collect();
    assert_eq!(scan_log(&srv, FileId(1)), want);
    // the observable stream is exactly what a solo run records
    let events = parse_observed(&sa.observed).unwrap();
    assert_eq!(events.len(), 3);
    assert_eq!(
        events[2],
        ObservedEvent::Round {
            round: 2,
            fetches: vec![FileId(1); 2],
        }
    );
}

#[test]
fn a_lone_round_rides_from_segment_zero_and_shares_nothing() {
    let (srv, _gate) = gated_server(0);
    let front = front_on(&srv, FrontConfig::default());
    let mut chan = front.connect().unwrap();
    chan.begin_query().unwrap();
    let mut out = vec![PageBuf::zeroed(SMALL); 2];
    for (round, pages) in [(2u32, [2 * SEG + 1, 3]), (3, [0, LAP_PAGES - 1])] {
        let reqs = pages.map(|p| (FileId(1), p));
        chan.serve_round(round, &reqs, &mut out).unwrap();
        assert_eq!([page_marker(&out[0]), page_marker(&out[1])], pages);
    }
    let sid = chan.session_id();
    drop(chan);
    let stats = front.shutdown();
    assert_eq!(stats[&sid].fetches, 4);
    assert_eq!(stats[&sid].coalesced_rounds, 0, "a lone lap is not shared");
    let want: Vec<u32> = (0..LAP_PAGES).chain(0..LAP_PAGES).collect();
    assert_eq!(scan_log(&srv, FileId(1)), want, "two laps, 0..N each");
}

#[test]
fn non_coalescable_rounds_bypass_the_rotation() {
    let (srv, gate) = gated_server(0);
    let front = front_on(&srv, FrontConfig::default());
    let mut a = front.raw_link().unwrap();
    let (sid_a, _) = open_query(&mut a);
    let mut b = front.connect().unwrap();
    b.begin_query().unwrap();
    gate.arm(0);
    a.send(&fd_round(sid_a, &[7])).unwrap();
    gate.wait_parked();
    // "Fd"'s lap is held at its first run while B sends its rounds; the
    // loop drives the lap, so they wait for that pass to end. Then none of
    // them rides: a cost-only file has no sweep to share, a round over
    // another file is served on the spot between the passes of "Fd"'s lap
    // (or rides alone once it is over), and so is a round over several files
    std::thread::scope(|scope| {
        let rounds = scope.spawn(|| {
            let mut out = vec![PageBuf::zeroed(SMALL); 2];
            b.serve_round(2, &[(FileId(0), 1), (FileId(0), 0)], &mut out)
                .unwrap();
            assert_eq!([page_marker(&out[0]), page_marker(&out[1])], [1, 0]);
            b.serve_round(3, &[(FileId(2), 15), (FileId(2), 4)], &mut out)
                .unwrap();
            assert_eq!([page_marker(&out[0]), page_marker(&out[1])], [15, 4]);
            b.serve_round(4, &[(FileId(2), 2), (FileId(0), 1)], &mut out)
                .unwrap();
            assert_eq!([page_marker(&out[0]), page_marker(&out[1])], [2, 1]);
        });
        gate.release();
        rounds.join().unwrap();
    });
    assert_eq!(reply_tags(&a.recv(WAIT).unwrap()), [7]);
    assert_eq!(scan_log(&srv, FileId(1)).len(), LAP_PAGES as usize);
    assert_eq!(
        scan_log(&srv, FileId(2)).len(),
        2 * 16,
        "two lone laps of Fx for B"
    );
    let sid_b = b.session_id();
    drop((a, b));
    let stats = front.shutdown();
    assert_eq!(stats[&sid_b].fetches, 6);
    assert_eq!(stats[&sid_b].coalesced_rounds, 0);
    assert_eq!(stats[&sid_a].coalesced_rounds, 0);
}

#[test]
fn retransmit_of_a_riding_round_is_absorbed_once() {
    let (srv, gate) = gated_server(0);
    let front = front_on(&srv, FrontConfig::default());
    let mut link = front.raw_link().unwrap();
    let (sid, _) = open_query(&mut link);
    let round = fd_round(sid, &[4]);
    gate.arm(0);
    link.send(&round).unwrap();
    gate.wait_parked();
    link.send(&round).unwrap(); // retransmit mid-lap: absorbed
                                // shutdown finishes the ride before the loop stops
    gate.arm(SEG);
    gate.release();
    gate.wait_parked(); // segment 1: the duplicate has been absorbed
    let stats = std::thread::scope(|scope| {
        let stopping = scope.spawn(|| front.shutdown());
        gate.release();
        stopping.join().unwrap()
    });
    assert_eq!(reply_tags(&link.recv(WAIT).unwrap()), [4]);
    assert_eq!(stats[&sid].fetches, 1, "the round is served exactly once");
    assert_eq!(stats[&sid].retransmits, 1);
    // exactly one reply: the duplicate was absorbed, not double-served
    assert!(link.recv(Some(Duration::from_millis(200))).is_err());
    assert_eq!(scan_log(&srv, FileId(1)).len(), LAP_PAGES as usize);
}

#[test]
fn a_frame_behind_a_riding_round_waits_for_its_reply() {
    let (srv, gate) = gated_server(0);
    let front = front_on(&srv, FrontConfig::default());
    let mut link = front.raw_link().unwrap();
    let (sid, _) = open_query(&mut link);
    gate.arm(0);
    link.send(&fd_round(sid, &[4])).unwrap();
    gate.wait_parked();
    // the client does not wait for its reply: the close must not
    // overtake the round it follows
    link.send(&encode_session_close(4, sid)).unwrap();
    gate.release();
    assert_eq!(reply_tags(&link.recv(WAIT).unwrap()), [4]);
    let ack = link.recv(WAIT).unwrap();
    let f = split_frame(&ack).unwrap();
    assert_eq!((f.kind, f.seq), (K_ACK, 4));
    let stats = front.shutdown();
    assert!(stats[&sid].closed);
    assert_eq!(stats[&sid].fetches, 1);
}

#[test]
fn a_rotation_never_mixes_generations() {
    let (old, gate) = gated_server(0);
    let (new, _) = gated_server(1000);
    let source = SwapSource::starting_at(1, Arc::clone(&old));
    let front = ServerFront::spawn_swappable(
        source.clone() as Arc<dyn GenerationSource>,
        FrontConfig::default(),
    );
    let mut a = front.raw_link().unwrap();
    let (sid_a, gen_a) = open_query(&mut a);
    source.publish(2, Arc::clone(&new));
    let mut b = front.raw_link().unwrap();
    let (sid_b, gen_b) = open_query(&mut b);
    assert_eq!((gen_a, gen_b), (1, 2));
    // generation 1's lap is held at its first run when a round for
    // the same file id of generation 2 arrives: it must not ride it
    gate.arm(0);
    a.send(&fd_round(sid_a, &[5])).unwrap();
    gate.wait_parked();
    b.send(&fd_round(sid_b, &[9])).unwrap();
    gate.release();
    assert_eq!(
        reply_tags(&a.recv(WAIT).unwrap()),
        [5],
        "A drains on generation 1"
    );
    assert_eq!(
        reply_tags(&b.recv(WAIT).unwrap()),
        [1009],
        "B reads generation 2"
    );
    drop((a, b));
    let stats = front.shutdown();
    // neither round shared a segment: the generations were kept apart,
    // each swept by a lap of its own
    assert_eq!(stats[&sid_a].coalesced_rounds, 0);
    assert_eq!(stats[&sid_b].coalesced_rounds, 0);
    let lap: Vec<u32> = (0..LAP_PAGES).collect();
    assert_eq!(scan_log(&old, FileId(1)), lap);
    assert_eq!(scan_log(&new, FileId(1)), lap);
}

#[test]
fn a_small_files_lap_gives_way_to_rounds_that_can_share_another() {
    // file 0: sixteen pages behind a gate, swept by the loop thread
    // itself, which is how the test holds the loop while frames queue
    let gate = Arc::new(GateDisk::new(Arc::new(small_file(16, 0))));
    let mut srv = PirServer::new(SystemSpec {
        page_size: SMALL,
        ..SystemSpec::default()
    });
    srv.add_file_with_driver("Fg", gate.clone(), PirMode::LinearScan)
        .unwrap();
    srv.add_file("Fd", small_file(LAP_PAGES, 0), PirMode::LinearScan)
        .unwrap();
    srv.add_file("Fx", small_file(16, 0), PirMode::LinearScan)
        .unwrap();
    let srv = Arc::new(srv);
    let front = front_on(&srv, FrontConfig::default());
    let mut links: Vec<SocketLink> = (0..4).map(|_| front.raw_link().unwrap()).collect();
    let sids: Vec<u64> = links.iter_mut().map(|l| open_query(l).0).collect();
    let round =
        |sid: u64, file: u16, page: u32| encode_round_request(3, sid, 2, &[(FileId(file), page)]);
    gate.arm(0);
    links[0].send(&round(sids[0], 0, 3)).unwrap();
    gate.wait_parked();
    // queued behind the held pass: a round over little "Fx", whose lap
    // the loop drives itself, then two over "Fd". Serving the first of
    // those on the spot because "Fx"'s lap is not over yet would leave
    // the second nobody to share with.
    links[1].send(&round(sids[1], 2, 7)).unwrap();
    links[2].send(&round(sids[2], 1, 5)).unwrap();
    links[3].send(&round(sids[3], 1, 2 * SEG)).unwrap();
    gate.release(); // the loop runs this pass itself: it finds them queued
    for (link, want) in links.iter_mut().zip([3, 7, 5, 2 * SEG]) {
        assert_eq!(reply_tags(&link.recv(WAIT).unwrap()), [want]);
    }
    drop(links);
    let stats = front.shutdown();
    assert_eq!(stats[&sids[1]].coalesced_rounds, 0);
    assert_eq!(
        stats[&sids[2]].coalesced_rounds, 1,
        "the two Fd rounds rode together"
    );
    assert_eq!(stats[&sids[3]].coalesced_rounds, 1);
    assert_eq!(
        scan_log(&srv, FileId(1)).len(),
        LAP_PAGES as usize,
        "in one lap"
    );
}

/// How a rider is lost mid-lap.
enum Lost {
    Disconnects,
    IdlesOut,
}

/// A and B ride "Fd" together; A is lost while the lap is held in
/// segment 1. B must come out of its lap with its pages, one segment
/// pass after the other, and the host must have swept 0 1 2 0.
fn rider_lost_mid_lap(lost: Lost) {
    let deadline = Duration::from_millis(400);
    let cfg = FrontConfig {
        idle_timeout: matches!(lost, Lost::IdlesOut).then_some(deadline),
    };
    let (srv, gate) = gated_server(0);
    let front = front_on(&srv, cfg);
    let mut a = front.raw_link().unwrap();
    let mut b = front.raw_link().unwrap();
    let (sid_a, _) = open_query(&mut a);
    let (sid_b, _) = open_query(&mut b);
    gate.arm(0);
    a.send(&fd_round(sid_a, &[5])).unwrap();
    gate.wait_parked();
    if let Lost::IdlesOut = lost {
        // B's round is the frame that keeps B warm past A's deadline
        std::thread::sleep(deadline * 5 / 8);
    }
    b.send(&fd_round(sid_b, &[2 * SEG + 3, 1])).unwrap();
    gate.arm(SEG);
    gate.release();
    gate.wait_parked(); // segment 1, A and B aboard
    match lost {
        Lost::Disconnects => drop(a),
        Lost::IdlesOut => {
            // A has been silent since its round, B only since its own
            std::thread::sleep(deadline * 5 / 8);
            gate.release();
            let err = a.recv(WAIT).unwrap_err();
            assert!(err.to_string().contains("disconnected"), "{err}");
        }
    }
    gate.release();
    assert_eq!(reply_tags(&b.recv(WAIT).unwrap()), [2 * SEG + 3, 1]);
    drop(b);
    let stats = front.shutdown();
    let (sa, sb) = (&stats[&sid_a], &stats[&sid_b]);
    assert!(sa.closed);
    assert_eq!(sa.evicted, matches!(lost, Lost::IdlesOut));
    assert_eq!(sa.fetches, 0, "A's round was dropped, not served");
    assert_eq!((sb.fetches, sb.coalesced_rounds), (2, 1));
    let want: Vec<u32> = (0..LAP_PAGES).chain(0..SEG).collect();
    assert_eq!(scan_log(&srv, FileId(1)), want, "B's lap ran on undelayed");
}

#[test]
fn idle_evicted_rider_is_dropped_at_the_next_boundary() {
    // the eviction tick runs between the passes of a lap in progress
    rider_lost_mid_lap(Lost::IdlesOut);
}

#[test]
fn disconnected_rider_is_dropped_at_the_next_boundary() {
    rider_lost_mid_lap(Lost::Disconnects);
}

/// Serves `inner`, except that the first read of page `at` after
/// [`FailAt::arm`] fails with a transient (`Interrupted`) I/O error.
struct FailAt {
    inner: MemFile,
    at: u32,
    armed: std::sync::atomic::AtomicBool,
}

impl privpath_storage::PagedFile for FailAt {
    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn read_page(&self, page: u32) -> privpath_storage::Result<PageBuf> {
        if page == self.at && self.armed.swap(false, Ordering::SeqCst) {
            return Err(privpath_storage::StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                format!("flaky read of page {page}"),
            )));
        }
        self.inner.read_page(page)
    }
}

fn error_code(reply: &[u8]) -> u16 {
    let f = split_frame(reply).unwrap();
    assert_eq!((f.kind, f.seq), (K_ERROR, 3));
    ByteReader::new(f.payload).u16().unwrap()
}

#[test]
fn a_failed_segment_fails_every_rider_and_the_rotation_rides_on() {
    // transient: a read in segment 1 is interrupted once, with A and
    // B aboard
    let mut handles = None;
    let srv = lap_server(0, |file| {
        let flaky = Arc::new(FailAt {
            inner: file,
            at: SEG + 70,
            armed: false.into(),
        });
        let gated = Arc::new(GateDisk::new(flaky.clone()));
        handles = Some((flaky, Arc::clone(&gated)));
        gated
    });
    let (flaky, gate) = handles.unwrap();
    let front = front_on(&srv, FrontConfig::default());
    let mut a = front.raw_link().unwrap();
    let mut b = front.raw_link().unwrap();
    let (sid_a, _) = open_query(&mut a);
    let (sid_b, _) = open_query(&mut b);
    let (round_a, round_b) = (
        fd_round(sid_a, &[5, SEG]),
        fd_round(sid_b, &[LAP_PAGES - 1]),
    );
    gate.arm(0);
    a.send(&round_a).unwrap();
    gate.wait_parked();
    b.send(&round_b).unwrap();
    flaky.armed.store(true, Ordering::SeqCst);
    gate.release();
    // one typed, retryable error for both; nothing cached
    assert_eq!(error_code(&a.recv(WAIT).unwrap()), ERR_SERVE_TRANSIENT);
    assert_eq!(error_code(&b.recv(WAIT).unwrap()), ERR_SERVE_TRANSIENT);
    // the retransmits ride again — the rotation is idle and reusable,
    // the round cursors were rolled back — to bit-exact answers
    a.send(&round_a).unwrap();
    b.send(&round_b).unwrap();
    assert_eq!(reply_tags(&a.recv(WAIT).unwrap()), [5, SEG]);
    assert_eq!(reply_tags(&b.recv(WAIT).unwrap()), [LAP_PAGES - 1]);
    drop((a, b));
    let stats = front.shutdown();
    for (sid, fetches) in [(sid_a, 2), (sid_b, 1)] {
        let s = &stats[&sid];
        assert_eq!(s.fetches, fetches, "the failed lap served nothing");
        assert_eq!(s.rounds, 2);
        assert_eq!(s.retransmits, 0, "re-ridden, not replayed");
    }
    // the failed lap stopped on the run of the bad page
    let log = scan_log(&srv, FileId(1));
    assert_eq!(
        &log[..(SEG + 64) as usize],
        &(0..SEG + 64).collect::<Vec<_>>()[..]
    );
    assert_eq!(
        log[(SEG + 64) as usize],
        0,
        "the next lap starts at segment 0"
    );

    // fatal: a page of segment 2 fails its checksum on every lap
    let mut bad_gate = None;
    let srv = lap_server(0, |file| {
        let mut crcs: Vec<u32> = (0..LAP_PAGES)
            .map(|p| crc32(file.page(p).unwrap()))
            .collect();
        crcs[(2 * SEG + 9) as usize] ^= 1;
        let guarded = privpath_storage::ChecksumFile::new("Fd", Arc::new(file), crcs);
        let gated = Arc::new(GateDisk::new(Arc::new(guarded)));
        bad_gate = Some(Arc::clone(&gated));
        gated
    });
    let gate = bad_gate.unwrap();
    let front = front_on(&srv, FrontConfig::default());
    let mut a = front.raw_link().unwrap();
    let mut b = front.raw_link().unwrap();
    let (sid_a, _) = open_query(&mut a);
    let (sid_b, _) = open_query(&mut b);
    let round_a = fd_round(sid_a, &[5]);
    gate.arm(0);
    a.send(&round_a).unwrap();
    gate.wait_parked();
    b.send(&fd_round(sid_b, &[6])).unwrap();
    gate.release();
    let (fail_a, fail_b) = (a.recv(WAIT).unwrap(), b.recv(WAIT).unwrap());
    assert_eq!(error_code(&fail_a), ERR_SERVE);
    assert_eq!(error_code(&fail_b), ERR_SERVE);
    let f = split_frame(&fail_a).unwrap();
    let msg = decode_error_frame(f.payload).to_string();
    assert!(msg.contains("page corrupt"), "{msg}");
    // fatal errors are the sequence's cached reply
    a.send(&round_a).unwrap();
    assert_eq!(a.recv(WAIT).unwrap(), fail_a);
    // and the front still serves: another file, and the same one again
    let mut c = front.connect().unwrap();
    c.begin_query().unwrap();
    let mut out = vec![PageBuf::zeroed(SMALL)];
    c.serve_round(2, &[(FileId(2), 3)], &mut out).unwrap();
    assert_eq!(page_marker(&out[0]), 3);
    let err = c.serve_round(3, &[(FileId(1), 3)], &mut out).unwrap_err();
    assert!(err.to_string().contains("page corrupt"), "{err}");
    drop((a, b, c));
    let stats = front.shutdown();
    assert_eq!(stats[&sid_a].retransmits, 1);
    assert_eq!((stats[&sid_a].fetches, stats[&sid_b].fetches), (0, 0));
}

/// What one differential run feeds the front.
#[derive(Debug, Clone, Copy)]
enum Input {
    Clean,
    /// The round is sent twice, bit-identical, the second time while the
    /// first is still being served.
    Retransmit,
    /// The first read of page 5 is interrupted; the retransmission re-serves.
    Transient,
    /// Page 5 fails its checksum; the retransmission replays the failure.
    Fatal,
}

/// One session's script over file 1, whose driver misbehaves as `input`
/// says behind a [`GateDisk`]: a `LinearScan` file rides a lap the gate
/// holds, a `CostOnly` one is served on the spot. Returns every frame the
/// client received after the handshake, and the session's record.
fn scripted(mode: PirMode, input: Input) -> (Vec<Vec<u8>>, SessionStats) {
    let rides = matches!(mode, PirMode::LinearScan);
    let pages = small_file(LAP_PAGES, 0);
    let driver: Arc<dyn privpath_storage::PagedFile> = match input {
        Input::Clean | Input::Retransmit => Arc::new(pages),
        Input::Transient => Arc::new(FailAt {
            inner: pages,
            at: 5,
            armed: true.into(),
        }),
        Input::Fatal => {
            let mut crcs: Vec<u32> = (0..LAP_PAGES)
                .map(|p| crc32(pages.page(p).unwrap()))
                .collect();
            crcs[5] ^= 1;
            Arc::new(privpath_storage::ChecksumFile::new(
                "Fd",
                Arc::new(pages),
                crcs,
            ))
        }
    };
    let gate = Arc::new(GateDisk::new(driver));
    let mut srv = PirServer::new(SystemSpec {
        page_size: SMALL,
        ..SystemSpec::default()
    });
    srv.add_file("Fh", small_file(2, 0), PirMode::CostOnly)
        .unwrap();
    srv.add_file_with_driver("Fd", gate.clone(), mode).unwrap();
    let front = front_on(&Arc::new(srv), FrontConfig::default());
    let mut link = front.raw_link().unwrap();
    let (sid, _) = open_query(&mut link);
    let round = fd_round(sid, &[5, SEG + 7]);
    if rides {
        gate.arm(0);
    }
    link.send(&round).unwrap();
    if rides {
        gate.wait_parked();
    }
    if let Input::Retransmit = input {
        link.send(&round).unwrap();
    }
    if rides {
        gate.release();
    }
    let mut replies = vec![link.recv(WAIT).unwrap()];
    if let Input::Transient | Input::Fatal = input {
        link.send(&round).unwrap();
    }
    link.send(&encode_session_close(4, sid)).unwrap();
    while split_frame(replies.last().unwrap()).unwrap().kind != K_ACK {
        replies.push(link.recv(WAIT).unwrap());
    }
    drop(link);
    let mut stats = front.shutdown();
    (replies, stats.remove(&sid).unwrap())
}

#[test]
fn a_riding_round_settles_exactly_as_one_served_on_the_spot() {
    for input in [
        Input::Clean,
        Input::Retransmit,
        Input::Transient,
        Input::Fatal,
    ] {
        let ridden = scripted(PirMode::LinearScan, input);
        let (mut replies, mut stats) = scripted(PirMode::CostOnly, input);
        if let Input::Retransmit = input {
            // The one difference the paths show: the ride's reply
            // answers a retransmission that arrives while it rides, and
            // an answer sent on the spot before the retransmission
            // arrived can only be replayed to it, bit-identical.
            let replay = replies.remove(1);
            assert_eq!(replay, replies[0]);
            stats.bytes_out -= replay.len() as u64;
        }
        assert_eq!(ridden, (replies, stats), "{input:?}");
    }
}

mod stepper;
