//! Frames on sockets: both ends of every connection a front serves, and
//! the TCP front.
//!
//! A front serves accepted TCP sockets ([`TcpFront`]) and the front's ends
//! of in-process `UnixStream` pairs ([`ServerFront::raw_link`]) alike: its
//! loop holds each as a [`Peer`]. [`SocketLink`] ([`TcpLink`] is its TCP
//! name) is the client half of either kind: a [`FrameLink`] over one
//! persistent connection, one write per frame, so [`WireChannel`]'s
//! retries and any [`crate::chaos::ChaosLink`] compose over a real socket.
//!
//! Each frame travels under an outer `u32 len` prefix that the link writes
//! itself, so a message a fault injector truncated or mangled arrives as
//! one mangled message and draws a typed error frame, instead of desyncing
//! the stream; a recv that times out mid-message keeps what it read, and a
//! length no frame can have (a desynced or hostile peer) ends the
//! connection rather than risking an unbounded buffer.

use super::codec::transport_err;
use super::{FrameLink, FrontConfig, RetryPolicy, ServerFront, SessionStats, WireChannel};
use crate::chaos::{ChaosLink, FaultPlan};
use crate::error::PirError;
use crate::transport::{GenerationSource, ServeHost, StaticSource};
use crate::Result;
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sysmap::{PollFd, POLLIN, POLLOUT};

/// Hard cap on one frame read off a socket. Generous — a full-database
/// download fits — but bounded, so a desynced or hostile length prefix
/// cannot demand an unbounded buffer.
const MAX_TCP_FRAME_BYTES: usize = 1 << 30;

/// What one read off a socket may add to its buffer.
const READ_CHUNK: usize = 16 * 1024;

pub(super) fn io_err(e: std::io::Error) -> PirError {
    PirError::Transport(format!("tcp: {e}"))
}

/// Writes what is left of `frame` under its `u32` length prefix, `sent`
/// bytes of the two being on the wire already: all of it in one `writev`
/// when the socket takes it.
fn write_frame(stream: &mut dyn Write, frame: &[u8], mut sent: usize) -> std::io::Result<()> {
    let prefix = (frame.len() as u32).to_le_bytes();
    while sent < prefix.len() {
        match stream.write_vectored(&[IoSlice::new(&prefix[sent..]), IoSlice::new(frame)]) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.write_all(&frame[sent - prefix.len()..])
}

/// A connected stream socket of either kind.
pub(super) trait Stream: Read + Write + AsRawFd + Send {}

impl<T: Read + Write + AsRawFd + Send> Stream for T {}

/// The read side of a connection: the bytes read off its socket, cut into
/// whole prefixed frames. The buffer is reused, and zeroed only as it grows.
#[derive(Default)]
struct Frames {
    buf: Vec<u8>,
    /// `buf[start..end]` is read and not yet taken.
    start: usize,
    end: usize,
}

impl Frames {
    /// Reads once from `stream`; `Ok(0)` at the end of the stream.
    fn fill(&mut self, stream: &mut dyn Read) -> std::io::Result<usize> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
        }
        if self.buf.len() < self.end + READ_CHUNK {
            self.buf.resize(self.end + READ_CHUNK, 0);
        }
        let n = stream.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// The next whole frame read, if any — even a short or empty message;
    /// `Err` with the length when the prefix is one no frame can have.
    fn next(&mut self) -> std::result::Result<Option<Vec<u8>>, usize> {
        let rest = &self.buf[self.start..self.end];
        let Some(prefix) = rest.get(..4) else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(prefix.try_into().expect("4 bytes")) as usize;
        if len > MAX_TCP_FRAME_BYTES {
            return Err(len);
        }
        let Some(frame) = rest.get(4..4 + len) else {
            return Ok(None);
        };
        let frame = frame.to_vec();
        self.start += 4 + len;
        Ok(Some(frame))
    }
}

// ---------------------------------------------------------------- server

/// One connection as the front's loop holds it: its non-blocking socket,
/// the frames read and not yet handed to the core, the replies not yet on
/// the wire.
pub(super) struct Peer {
    pub(super) stream: Box<dyn Stream>,
    input: Frames,
    /// Replies not yet on the wire, oldest first, `sent` bytes of the
    /// first's prefix and frame already written.
    out: VecDeque<Vec<u8>>,
    sent: usize,
    /// The peer sent its last byte: EOF, a read error, or a length prefix
    /// no frame can have. Nothing more is read.
    pub(super) eof: bool,
    /// The core forgot the client: nothing more is read, and the socket
    /// closes once `out` is written.
    pub(super) closing: bool,
}

impl Peer {
    pub(super) fn new(stream: Box<dyn Stream>) -> Peer {
        Peer {
            stream,
            input: Frames::default(),
            out: VecDeque::new(),
            sent: 0,
            eof: false,
            closing: false,
        }
    }

    /// True when every reply is on the wire.
    pub(super) fn is_idle(&self) -> bool {
        self.out.is_empty()
    }

    /// What the loop polls the socket for: writability while a reply is
    /// unsent; otherwise readability while `reading` and the client is
    /// served.
    pub(super) fn events(&self, reading: bool) -> i16 {
        if !self.out.is_empty() {
            POLLOUT
        } else if reading && !self.eof && !self.closing {
            POLLIN
        } else {
            0
        }
    }

    /// Reads, once, what the socket holds.
    pub(super) fn read(&mut self) {
        match self.input.fill(&mut self.stream) {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            read => self.eof |= read.map_or(true, |n| n == 0),
        }
    }

    /// The next whole frame read, if any. The core owns malformed-frame
    /// policy (a typed error frame), so a chaos-truncated request is
    /// answered and retried instead of costing the connection; only a
    /// length no frame can have ends the input.
    pub(super) fn next_frame(&mut self) -> Option<Vec<u8>> {
        self.input.next().unwrap_or_else(|_| {
            self.end_input();
            None
        })
    }

    /// Reads nothing more, and drops what was read and not handed on.
    fn end_input(&mut self) {
        (self.eof, self.input) = (true, Frames::default());
    }

    /// Queues `reply` and writes the unsent replies, in order, as far as
    /// the socket takes them without blocking. Once the peer is gone, the
    /// error comes back, the replies are dropped and the input ends.
    pub(super) fn send(&mut self, reply: Option<Vec<u8>>) -> std::io::Result<()> {
        self.out.extend(reply);
        while let Some(frame) = self.out.front() {
            let prefix = (frame.len() as u32).to_le_bytes();
            let (head, body) = match self.sent.checked_sub(prefix.len()) {
                None => (&prefix[self.sent..], &frame[..]),
                Some(at) => (&[][..], &frame[at..]),
            };
            match sysmap::send_nowait(&*self.stream, head, body) {
                Ok(n) if n == head.len() + body.len() => {
                    self.out.pop_front();
                    self.sent = 0;
                }
                Ok(n) => {
                    self.sent += n;
                    break;
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    break
                }
                Err(e) => {
                    self.out.clear();
                    self.end_input();
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Reads and drops what the peer sent and nobody will serve, so that
    /// closing the socket ends the peer's stream cleanly (a TCP close over
    /// unread bytes resets the connection, losing what is in flight).
    pub(super) fn discard_input(&mut self) {
        while matches!(self.stream.read(&mut [0; 4096]), Ok(n) if n > 0) {}
    }
}

/// A loopback TCP front end: a [`ServerFront`] whose loop also accepts on a
/// listener and serves each connection as it serves an in-process one.
pub struct TcpFront {
    front: ServerFront,
    addr: SocketAddr,
}

impl TcpFront {
    /// Binds and spawns with an explicit [`FrontConfig`] (idle eviction).
    pub fn spawn_with<H: ServeHost + Send + Sync + 'static>(
        host: H,
        cfg: FrontConfig,
    ) -> Result<TcpFront> {
        Self::spawn_swappable(Arc::new(StaticSource::new(host)), cfg)
    }

    /// Binds and spawns over a hot-swappable [`GenerationSource`]: sessions
    /// opened after the source publishes a new generation serve from it,
    /// while open sessions drain on their pinned one (see
    /// [`ServerFront::spawn_swappable`]).
    pub fn spawn_swappable(
        source: Arc<dyn GenerationSource>,
        cfg: FrontConfig,
    ) -> Result<TcpFront> {
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(io_err)?;
        listener.set_nonblocking(true).map_err(io_err)?;
        let addr = listener.local_addr().map_err(io_err)?;
        let front = ServerFront::launch(source, cfg, Some(listener));
        Ok(TcpFront { front, addr })
    }

    /// The bound loopback address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connects a new client over TCP and performs the session handshake.
    /// No retries ([`RetryPolicy::none`]).
    pub fn connect(&self) -> Result<WireChannel> {
        WireChannel::handshake(Box::new(TcpLink::connect(self.addr)?), RetryPolicy::none())
    }

    /// Connects while holding a generation expectation: a handshake whose
    /// accept carries a different generation id fails with the typed
    /// retryable [`PirError::StaleGeneration`] (see
    /// [`super::ServerFront::connect_expecting`]).
    pub fn connect_expecting(&self, policy: RetryPolicy, expected: u64) -> Result<WireChannel> {
        WireChannel::handshake_expecting(
            Box::new(TcpLink::connect(self.addr)?),
            policy,
            Some(expected),
        )
    }

    /// Connects through a [`ChaosLink`] fault injector layered over the
    /// real socket: faults are injected client-side, above TCP, so the
    /// retry machinery is exercised end-to-end over the network path.
    pub fn connect_chaos(&self, plan: FaultPlan, policy: RetryPolicy) -> Result<WireChannel> {
        let link = ChaosLink::new(TcpLink::connect(self.addr)?, plan);
        WireChannel::handshake(Box::new(link), policy)
    }

    /// Snapshot of the per-session accounting table.
    pub fn session_stats(&self) -> BTreeMap<u64, SessionStats> {
        self.front.session_stats()
    }

    /// Graceful drain ([`ServerFront::shutdown`]): stop accepting, serve
    /// every frame already sent, write every unsent reply, close the
    /// sockets, and return the final session table. Live clients observe a
    /// clean disconnect on their next request instead of a hang.
    pub fn shutdown(self) -> BTreeMap<u64, SessionStats> {
        self.front.shutdown()
    }
}

// ---------------------------------------------------------------- client

/// The client half of a connection of either kind: a [`FrameLink`] over one
/// persistent socket — TCP ([`SocketLink::connect`]), or an in-process pair
/// ([`ServerFront::raw_link`]).
pub struct SocketLink {
    /// Blocking; a recv with a timeout polls it first.
    stream: Box<dyn Stream>,
    /// Bytes read and not yet returned as a frame: a recv that times out
    /// mid-frame keeps them, and the next resumes where the stream left off.
    pending: Frames,
}

/// [`SocketLink`] under the name TCP callers know it by.
pub type TcpLink = SocketLink;

impl SocketLink {
    pub(super) fn new(stream: Box<dyn Stream>) -> SocketLink {
        SocketLink {
            stream,
            pending: Frames::default(),
        }
    }

    /// Connects to a [`TcpFront`]'s listener.
    pub fn connect(addr: SocketAddr) -> Result<SocketLink> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| PirError::Transport(format!("tcp connect to {addr} failed: {e}")))?;
        let _ = stream.set_nodelay(true);
        Ok(SocketLink::new(Box::new(stream)))
    }
}

impl FrameLink for SocketLink {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        write_frame(&mut self.stream, frame, 0)
            .map_err(|e| PirError::Transport(format!("server disconnected: {e}")))
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Result<Vec<u8>> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            match self.pending.next() {
                Ok(Some(frame)) => return Ok(frame),
                Ok(None) => {}
                Err(len) => {
                    return transport_err(format!("impossible length {len}: stream desynced"))
                }
            }
            if let Some(at) = deadline {
                let mut fds = [PollFd::new(&*self.stream, POLLIN)];
                let left = at.saturating_duration_since(Instant::now());
                if sysmap::poll(&mut fds, Some(left)).map_err(io_err)? == 0 {
                    return Err(PirError::Timeout("tcp recv timed out".into()));
                }
            }
            match self.pending.fill(&mut self.stream) {
                Ok(0) => return Err(PirError::Transport("server disconnected".into())),
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(PirError::Transport(format!("server disconnected: {e}"))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::codec::{split_frame, Request, K_DOWNLOAD_RESP, K_ERROR};
    use super::*;
    use crate::server::{FileId, PirMode, PirServer};
    use crate::spec::SystemSpec;
    use crate::transport::Transport;
    use privpath_storage::{ByteReader, MemFile, PageBuf, DEFAULT_PAGE_SIZE};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;

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

    /// 8 MiB: twice what a loopback socket pair holds for a peer that
    /// never reads (send buffer grown to Linux's default 4 MiB cap, plus the
    /// peer's receive window), so its reply cannot leave in one go.
    const BIG_PAGES: u32 = 2048;

    /// [`server`] plus a file whose download, one frame, outgrows the
    /// socket buffers.
    fn big_front() -> TcpFront {
        let mut srv = PirServer::new(SystemSpec::default());
        srv.add_file("Fh", file(2), PirMode::CostOnly).unwrap();
        srv.add_file("Fd", file(16), PirMode::LinearScan).unwrap();
        srv.add_file("Fbig", file(BIG_PAGES), PirMode::CostOnly)
            .unwrap();
        TcpFront::spawn_with(Arc::new(srv), FrontConfig::default()).unwrap()
    }

    /// Session `sid`'s downloads served so far, by the front's table.
    fn downloads(front: &TcpFront, sid: u64) -> u64 {
        front.session_stats().get(&sid).map_or(0, |s| s.downloads)
    }

    /// Waits until the front has served `sid` its first download: a reply
    /// the peer is not reading, whose tail the front holds.
    fn await_download(front: &TcpFront, sid: u64) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while downloads(front, sid) == 0 {
            assert!(Instant::now() < deadline, "the download was never served");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A connected socket pair as the front holds one: our end a
    /// non-blocking [`Peer`], and the client's end.
    fn peer_pair() -> (Peer, TcpStream) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (ours, _) = listener.accept().unwrap();
        ours.set_nonblocking(true).unwrap();
        (Peer::new(Box::new(ours)), client)
    }

    fn assert_tagged(bytes: &[u8], pages: u32) {
        assert_eq!(bytes.len(), pages as usize * DEFAULT_PAGE_SIZE);
        for (p, page) in bytes.chunks_exact(DEFAULT_PAGE_SIZE).enumerate() {
            let tag = u32::from_le_bytes(page[..4].try_into().unwrap());
            assert_eq!(tag, p as u32, "page {p} corrupted or reordered");
            assert!(page[4..].iter().all(|&b| b == 0), "page {p} corrupted");
        }
    }

    /// A raw link with a session open on it, and the session's id.
    fn open_raw(front: &TcpFront) -> (TcpLink, u64) {
        let mut link = TcpLink::connect(front.addr()).unwrap();
        link.send(&Request::SessionOpen.encode(1, &[], false))
            .unwrap();
        let accept = link.recv(Some(Duration::from_secs(5))).unwrap();
        let payload = split_frame(&accept).unwrap().payload;
        (link, u64::from_le_bytes(payload[..8].try_into().unwrap()))
    }

    /// Asks for the big file's download as request `seq`.
    fn request_big(link: &mut TcpLink, session: u64, seq: u32) {
        let download = Request::Download {
            session,
            file: FileId(2),
        };
        link.send(&download.encode(seq, &[], false)).unwrap();
    }

    /// Serves one round of three pages on `chan` and checks what came back.
    fn exchange(chan: &mut WireChannel, round: u32) {
        let mut out = vec![PageBuf::zeroed(DEFAULT_PAGE_SIZE); 3];
        let pages = [round % 16, 0, 15];
        let reqs: Vec<_> = pages.iter().map(|&p| (FileId(1), p)).collect();
        chan.serve_round(round, &reqs, &mut out).unwrap();
        for (buf, want) in out.iter().zip(pages) {
            assert_eq!(
                u32::from_le_bytes(buf.as_slice()[..4].try_into().unwrap()),
                want
            );
        }
    }

    #[test]
    fn a_reading_clients_replies_all_leave_from_the_loop_thread() {
        // the loop's one send takes each reply whole while the client reads
        let (mut peer, mut client) = peer_pair();
        for k in 0..100usize {
            let reply: Vec<u8> = (0..k * 97).map(|i| (i % 251) as u8).collect();
            peer.send(Some(reply.clone())).unwrap();
            assert!(peer.is_idle(), "reply {k} left a tail");
            let mut got = vec![0u8; 4 + reply.len()];
            client.read_exact(&mut got).unwrap();
            assert_eq!(got[..4], (reply.len() as u32).to_le_bytes());
            assert_eq!(got[4..], reply[..], "reply {k}");
        }
        assert_eq!(peer.events(true), sysmap::POLLIN, "idle: read, not written");
    }

    #[test]
    fn a_stalled_clients_chunk_train_falls_back_mid_frame_then_goes_direct_again() {
        /// A [`TcpLink`] whose recv, once `stall` is set, says so on
        /// `stalled` and reads nothing until `go`.
        struct StallLink {
            inner: TcpLink,
            stall: Arc<AtomicBool>,
            stalled: mpsc::Sender<()>,
            go: mpsc::Receiver<()>,
        }
        impl FrameLink for StallLink {
            fn send(&mut self, frame: &[u8]) -> Result<()> {
                self.inner.send(frame)
            }
            fn recv(&mut self, timeout: Option<Duration>) -> Result<Vec<u8>> {
                if self.stall.swap(false, Ordering::SeqCst) {
                    self.stalled.send(()).unwrap();
                    self.go.recv().unwrap();
                }
                self.inner.recv(timeout)
            }
        }
        let front = big_front();
        let stall = Arc::new(AtomicBool::new(false));
        let (stalled, on_stall) = mpsc::channel();
        let (go, on_go) = mpsc::channel();
        let link = StallLink {
            inner: TcpLink::connect(front.addr()).unwrap(),
            stall: Arc::clone(&stall),
            stalled,
            go: on_go,
        };
        let mut chan = WireChannel::handshake(Box::new(link), RetryPolicy::none()).unwrap();
        chan.begin_query().unwrap();
        exchange(&mut chan, 2);
        // The socket takes the head of the download's one frame and fills
        // up: the front holds its tail until the client reads again.
        let sid = chan.session_id();
        stall.store(true, Ordering::SeqCst);
        let downloader = std::thread::spawn(move || {
            let bytes = chan.download(FileId(2));
            (chan, bytes)
        });
        on_stall.recv().unwrap();
        await_download(&front, sid);
        go.send(()).unwrap();
        let (mut chan, bytes) = downloader.join().unwrap();
        assert_tagged(&bytes.unwrap(), BIG_PAGES);
        for round in 3..13 {
            exchange(&mut chan, round);
        }
        chan.close().unwrap();
        let stats = front.shutdown();
        let s = &stats[&sid];
        assert_eq!((s.rounds, s.fetches), (12, 33));
        assert!(s.downloads >= 1 && s.closed);
    }

    #[test]
    fn a_peer_that_resets_mid_reply_is_dropped_and_the_rest_are_served() {
        let front = big_front();
        let mut neighbour = front.connect().unwrap();
        neighbour.begin_query().unwrap();
        exchange(&mut neighbour, 2);

        // A raw peer asks for the big download and reads none of it. Once
        // the front has served it, holding its tail, the peer closes with
        // the reply unread, which resets the connection mid-reply.
        let (mut peer, session) = open_raw(&front);
        request_big(&mut peer, session, 2);
        await_download(&front, session);
        exchange(&mut neighbour, 3);
        drop(peer);

        // The connection is torn down like any dead channel, its session
        // closed; the neighbour is served before, during and after.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !front.session_stats()[&session].closed {
            assert!(
                Instant::now() < deadline,
                "the reset peer was never dropped"
            );
            exchange(&mut neighbour, 3);
        }
        for round in 4..8 {
            exchange(&mut neighbour, round);
        }

        // A peer that hangs up right behind its request: the loop thread's
        // own send is the one that finds it gone.
        let (mut quitter, session) = open_raw(&front);
        request_big(&mut quitter, session, 2);
        drop(quitter);
        for round in 8..12 {
            exchange(&mut neighbour, round);
        }
        neighbour.close().unwrap();
        let stats = front.shutdown();
        assert!(stats[&neighbour.session_id()].closed);
        assert_eq!(stats[&neighbour.session_id()].rounds, 11);
    }

    #[test]
    fn the_loop_thread_finds_a_reset_peer_gone_without_handing_off() {
        let (mut peer, client) = peer_pair();
        peer.send(Some(vec![7u8; 100])).unwrap();
        assert!(peer.is_idle(), "a live peer takes a frame");
        drop(client); // closed with the frame unread: the connection resets
        let deadline = Instant::now() + Duration::from_secs(5);
        while peer.send(Some(vec![7u8; 100])).is_ok() {
            assert!(Instant::now() < deadline, "sends to a reset peer succeed");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_client_that_does_not_read_holds_one_reply_and_stalls_nobody() {
        const PIPELINED: u32 = 4;
        let front = big_front();
        let mut bystander = front.connect().unwrap();
        bystander.begin_query().unwrap();
        // A raw client pipelines four 8 MiB downloads and reads nothing.
        let (mut stalled, sid) = open_raw(&front);
        for seq in 2..2 + PIPELINED {
            request_big(&mut stalled, sid, seq);
        }
        // The first reply fills the socket; the front holds its tail and
        // serves no further frame of that connection meanwhile. (At most
        // about half of one reply fits in the socket buffers.)
        await_download(&front, sid);
        for round in 2..22 {
            exchange(&mut bystander, round);
            assert_eq!(downloads(&front, sid), 1, "a second reply was queued");
        }
        // Once the client reads, every reply arrives, whole and in order.
        for seq in 2..2 + PIPELINED {
            let reply = stalled.recv(Some(Duration::from_secs(20))).unwrap();
            let f = split_frame(&reply).unwrap();
            assert_eq!((f.kind, f.seq), (K_DOWNLOAD_RESP, seq));
            assert_tagged(ByteReader::new(f.payload).len_bytes().unwrap(), BIG_PAGES);
        }
        bystander.close().unwrap();
        let stats = front.shutdown();
        assert_eq!(stats[&sid].downloads, u64::from(PIPELINED));
        assert_eq!(stats[&bystander.session_id()].rounds, 21);
    }

    #[test]
    fn write_frame_resumes_from_any_offset_of_prefix_and_frame() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut ours = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        let frame: Vec<u8> = (0..600u32).map(|i| (i % 253) as u8).collect();
        let mut whole = (frame.len() as u32).to_le_bytes().to_vec();
        whole.extend_from_slice(&frame);
        for sent in [0, 1, 3, 4, 5, 300, whole.len() - 1, whole.len()] {
            write_frame(&mut ours, &frame, sent).unwrap();
            let mut got = vec![0u8; whole.len() - sent];
            peer.read_exact(&mut got).unwrap();
            assert_eq!(got, whole[sent..], "resumed at {sent}");
        }
    }

    #[test]
    fn tcp_channel_serves_rounds_downloads_and_closes() {
        let front = TcpFront::spawn_with(server(), FrontConfig::default()).unwrap();
        let mut chan = front.connect().unwrap();
        assert_eq!(chan.file_pages(FileId(1)).unwrap(), 16);
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
        assert!(s.closed);
    }

    #[test]
    fn shutdown_drains_live_connections_then_disconnects() {
        let front = TcpFront::spawn_with(server(), FrontConfig::default()).unwrap();
        let mut chan = front.connect().unwrap();
        chan.begin_query().unwrap();
        let stats = front.shutdown();
        assert!(stats.get(&chan.session_id()).unwrap().closed);
        // the socket is gone: the next request fails cleanly, no hang
        let mut out = vec![PageBuf::zeroed(DEFAULT_PAGE_SIZE); 1];
        let err = chan
            .serve_round(2, &[(FileId(1), 0)], &mut out)
            .unwrap_err();
        assert!(err.to_string().contains("disconnected"), "{err}");
    }

    #[test]
    fn desynced_length_prefix_drops_the_connection() {
        let front = TcpFront::spawn_with(server(), FrontConfig::default()).unwrap();
        // a raw peer writing an outer length no message can have: the
        // reader drops the connection instead of allocating for it
        let mut raw = TcpStream::connect(front.addr()).unwrap();
        raw.write_all(&0xFFFF_FFF0u32.to_le_bytes()).unwrap();
        raw.flush().unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(raw.read(&mut buf).unwrap_or(0), 0, "expected EOF");
        // the front still serves fresh connections
        let mut chan = front.connect().unwrap();
        chan.begin_query().unwrap();
        front.shutdown();
    }

    #[test]
    fn truncated_message_gets_an_error_frame_not_a_dead_stream() {
        // what ChaosLink's send-side truncation produces over TCP: a short
        // message under a correct outer prefix. The connection must survive
        // it with a typed error frame, and the next well-formed request on
        // the same socket must still be served.
        let front = TcpFront::spawn_with(server(), FrontConfig::default()).unwrap();
        let mut raw = TcpLink::connect(front.addr()).unwrap();
        raw.send(&[0x10, 0x00]).unwrap(); // 2-byte stump of a frame
        let reply = raw.recv(Some(Duration::from_secs(5))).unwrap();
        let f = split_frame(&reply).unwrap();
        assert_eq!(f.kind, K_ERROR);
        // the same socket still serves a full session afterwards
        let mut chan = WireChannel::handshake(Box::new(raw), RetryPolicy::none()).unwrap();
        chan.begin_query().unwrap();
        front.shutdown();
    }

    #[test]
    fn garbage_inside_a_valid_length_prefix_gets_a_typed_error() {
        let front = TcpFront::spawn_with(server(), FrontConfig::default()).unwrap();
        let mut raw = TcpLink::connect(front.addr()).unwrap();
        // plausible length, garbage payload: forwarded to the server loop,
        // answered with an ERR frame rather than dropped
        let mut junk = vec![0u8; 4 + 32];
        junk[..4].copy_from_slice(&32u32.to_le_bytes());
        junk[4..].iter_mut().for_each(|b| *b = 0xAB);
        raw.send(&junk).unwrap();
        let reply = raw.recv(Some(Duration::from_secs(5))).unwrap();
        let f = split_frame(&reply).unwrap();
        assert_eq!(f.kind, K_ERROR);
        front.shutdown();
    }
}
