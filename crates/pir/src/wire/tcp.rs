//! Network-real serving: the wire protocol's frames over loopback TCP.
//!
//! [`TcpFront`] puts a [`std::net::TcpListener`] accept loop in front of a
//! [`ServerFront`]. Every accepted connection gets a reader thread (length-
//! prefix framing off the socket, frames forwarded into the server loop);
//! replies go back the other way with one hop: the loop thread writes each
//! one straight onto the socket, prefix and frame in one non-blocking
//! `sendmsg` ([`sysmap::send_nowait`]). Only what the socket does not take
//! at once — a slow reader, a reply larger than the send buffer — goes to
//! the connection's writer thread: the unsent tail of that frame,
//! and every reply after it until the writer has drained, so replies keep
//! their order and the server loop never blocks on a slow peer.
//! [`TcpLink`] is the client half: a [`FrameLink`] over a persistent
//! connection, one write per frame, so the whole retry/timeout/idempotent-
//! replay machinery of [`WireChannel`] — and any
//! [`crate::chaos::ChaosLink`] fault injector — composes over a real socket
//! unchanged.
//!
//! Framing on the socket is an outer `u32 len` transport prefix around
//! each frame's bytes. The prefix looks redundant — a well-formed frame
//! already leads with its own length — but the [`FrameLink`] contract is
//! *message*-oriented, and fault injectors layered above the link
//! ([`crate::chaos::ChaosLink`]) legitimately hand it truncated or mangled
//! messages. Because the delimiter is written by the link itself, a
//! mangled message arrives intact as one mangled message, gets a typed
//! error frame, and is retried — instead of desyncing the byte stream and
//! killing the connection for good. A recv that times out mid-message
//! keeps the partial prefix buffered (`TcpLink::pending`) so the stream
//! never desyncs; an outer length that cannot be real (desync or hostile
//! peer) still kills the connection rather than risking an unbounded
//! allocation.
//!
//! Shutdown is a drain, not an abort: stop accepting, flush the server
//! loop's queued frames ([`ServerFront::shutdown`]), let each writer drain
//! the replies still handed to it for its connection, then close the
//! sockets — live clients get their in-flight responses and observe a
//! clean disconnect on their *next* request.

use super::front::{Replies, ToServer};
use super::{FrameLink, FrontConfig, RetryPolicy, ServerFront, SessionStats, WireChannel};
use crate::chaos::{ChaosLink, FaultPlan};
use crate::error::PirError;
use crate::transport::ServeHost;
use crate::Result;
use std::collections::BTreeMap;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hard cap on one frame read off a socket. Generous — a full-database
/// download fits — but bounded, so a desynced or hostile length prefix
/// cannot demand an unbounded allocation.
const MAX_TCP_FRAME_BYTES: usize = 1 << 30;

fn io_err(e: std::io::Error) -> PirError {
    PirError::Transport(format!("tcp: {e}"))
}

/// Writes what is left of `frame` under its `u32` length prefix, `sent`
/// bytes of the two being on the wire already: all of it in one `writev`
/// when the socket takes it.
fn write_frame(stream: &mut TcpStream, frame: &[u8], mut sent: usize) -> std::io::Result<()> {
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

// ---------------------------------------------------------------- server

/// One bridged connection's handles, kept for the shutdown join.
struct Conn {
    stream: TcpStream,
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
}

/// How a front's replies reached their sockets, counted per frame, so that
/// a test can tell each path was taken (or not) without a knob to pick it.
#[derive(Default)]
struct ReplyPaths {
    /// Written whole by the loop thread.
    direct: AtomicU64,
    /// Begun by the loop thread, finished by a writer thread.
    split: AtomicU64,
    /// Written whole by a writer thread.
    queued: AtomicU64,
}

/// The loop thread's end of one connection's replies ([`Replies::Socket`]).
/// A frame goes straight onto the socket when nothing is queued ahead of it
/// and the send buffer takes it; otherwise what is left of it goes to the
/// connection's writer thread, and so does every frame after it until the
/// writer has drained.
pub(crate) struct SocketReplies {
    /// The loop's own handle on the connection.
    stream: TcpStream,
    writer: mpsc::Sender<Unsent>,
    /// Frames handed to the writer thread and not yet written to their last
    /// byte. Only the loop thread raises it and only the writer lowers it,
    /// once its write has returned: while it is above zero the writer owns
    /// the socket, and a direct write would jump its queue. The writer's
    /// `Release` decrement pairs with the loop's `Acquire` load, so a zero
    /// the loop reads comes after the writer's last write.
    held: Arc<AtomicUsize>,
    paths: Arc<ReplyPaths>,
}

/// A frame handed to a writer thread, with how many bytes of its prefix and
/// frame the loop thread already sent.
struct Unsent {
    frame: Vec<u8>,
    sent: usize,
}

impl SocketReplies {
    /// Sends one reply frame; false when the peer is gone.
    pub(super) fn send(&self, frame: Vec<u8>) -> bool {
        let mut sent = 0;
        if self.held.load(Ordering::Acquire) == 0 {
            let prefix = (frame.len() as u32).to_le_bytes();
            match sysmap::send_nowait(&self.stream, &prefix, &frame) {
                Ok(n) if n == prefix.len() + frame.len() => {
                    self.paths.direct.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                Ok(n) => sent = n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                Err(_) => return false,
            }
        }
        let path = if sent > 0 {
            &self.paths.split
        } else {
            &self.paths.queued
        };
        path.fetch_add(1, Ordering::Relaxed);
        self.held.fetch_add(1, Ordering::Relaxed);
        self.writer.send(Unsent { frame, sent }).is_ok()
    }
}

/// A loopback TCP front end over a [`ServerFront`]: an accept loop, a
/// reader thread per connection, and replies written onto each socket by
/// the server loop itself, with a per-connection writer thread taking over
/// whatever a socket does not accept at once. See the module docs.
pub struct TcpFront {
    front: Option<Arc<ServerFront>>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<Vec<Conn>>>,
    /// Read by the tests alone.
    #[cfg_attr(not(test), allow(dead_code))]
    paths: Arc<ReplyPaths>,
}

impl TcpFront {
    /// Binds and spawns with an explicit [`FrontConfig`] (idle eviction).
    pub fn spawn_with<H: ServeHost + Send + Sync + 'static>(
        host: H,
        cfg: FrontConfig,
    ) -> Result<TcpFront> {
        Self::over(ServerFront::spawn_with(host, cfg))
    }

    /// Binds and spawns over a hot-swappable
    /// [`crate::transport::GenerationSource`]: sessions opened after the
    /// source publishes a new generation serve from it, while open sessions
    /// drain on their pinned one
    /// (see [`ServerFront::spawn_swappable`]).
    pub fn spawn_swappable(
        source: Arc<dyn crate::transport::GenerationSource>,
        cfg: FrontConfig,
    ) -> Result<TcpFront> {
        Self::over(ServerFront::spawn_swappable(source, cfg))
    }

    /// Puts a TCP accept loop in front of an already-spawned [`ServerFront`].
    pub(crate) fn over(front: ServerFront) -> Result<TcpFront> {
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(io_err)?;
        let addr = listener.local_addr().map_err(io_err)?;
        let front = Arc::new(front);
        let stop = Arc::new(AtomicBool::new(false));
        let paths = Arc::new(ReplyPaths::default());
        let accept = {
            let front = Arc::clone(&front);
            let stop = Arc::clone(&stop);
            let paths = Arc::clone(&paths);
            std::thread::spawn(move || accept_loop(listener, front, stop, paths))
        };
        Ok(TcpFront {
            front: Some(front),
            addr,
            stop,
            accept: Some(accept),
            paths,
        })
    }

    /// The bound loopback address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The fronted [`ServerFront`] (accounting, observable streams).
    pub(crate) fn front(&self) -> &ServerFront {
        self.front.as_ref().expect("front present until shutdown")
    }

    /// Connects a new client over TCP and performs the session handshake.
    /// No retries ([`RetryPolicy::none`]).
    pub fn connect(&self) -> Result<WireChannel> {
        self.connect_with(RetryPolicy::none())
    }

    /// Connects with an explicit retry policy.
    pub(crate) fn connect_with(&self, policy: RetryPolicy) -> Result<WireChannel> {
        WireChannel::handshake(Box::new(TcpLink::connect(self.addr)?), policy)
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
        self.front().session_stats()
    }

    /// Graceful drain: stop accepting, serve every frame already queued,
    /// flush each connection's buffered replies, close the sockets, and
    /// return the final session table. Live clients observe a clean
    /// disconnect on their next request instead of a hang.
    pub fn shutdown(mut self) -> BTreeMap<u64, SessionStats> {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> BTreeMap<u64, SessionStats> {
        self.stop.store(true, Ordering::SeqCst);
        // wake the blocking accept with a throwaway connection
        let _ = TcpStream::connect(self.addr);
        let conns = self
            .accept
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default();
        let stats = match self.front.take() {
            Some(front) => match Arc::try_unwrap(front) {
                Ok(front) => front.shutdown(),
                // unreachable once the accept thread (the only other owner)
                // has been joined, but never panic in a shutdown path
                Err(front) => front.session_stats(),
            },
            None => BTreeMap::new(),
        };
        // The front's loop has exited, dropping every connection's reply
        // end: each writer drains what was still handed to it and shuts its
        // socket down, which EOFs the matching reader.
        for c in conns {
            let _ = c.writer.join();
            let _ = c.stream.shutdown(Shutdown::Both);
            let _ = c.reader.join();
        }
        stats
    }
}

impl Drop for TcpFront {
    fn drop(&mut self) {
        if self.front.is_some() || self.accept.is_some() {
            let _ = self.shutdown_inner();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    front: Arc<ServerFront>,
    stop: Arc<AtomicBool>,
    paths: Arc<ReplyPaths>,
) -> Vec<Conn> {
    let mut conns = Vec::new();
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => break,
        };
        if stop.load(Ordering::SeqCst) {
            break; // the shutdown wake-up (or a raced late client)
        }
        if let Ok(conn) = bridge(stream, &front, &paths) {
            conns.push(conn);
        }
    }
    conns
}

/// Registers the connection as one front client, its replies going onto
/// the socket ([`SocketReplies`]), and spawns its reader and its writer
/// thread. Disconnect notification belongs to the reader: it alone knows
/// when the peer really went away.
fn bridge(stream: TcpStream, front: &ServerFront, paths: &Arc<ReplyPaths>) -> Result<Conn> {
    let _ = stream.set_nodelay(true);
    let read_half = stream.try_clone().map_err(io_err)?;
    let write_half = stream.try_clone().map_err(io_err)?;
    let (writer, unsent) = mpsc::channel();
    let held = Arc::new(AtomicUsize::new(0));
    let replies = SocketReplies {
        stream: stream.try_clone().map_err(io_err)?,
        writer,
        held: Arc::clone(&held),
        paths: Arc::clone(paths),
    };
    let (to_server, client) = front.register(Replies::Socket(replies))?;
    let reader = std::thread::spawn(move || reader_loop(read_half, to_server, client));
    let writer = std::thread::spawn(move || writer_loop(write_half, unsent, held));
    Ok(Conn {
        stream,
        reader,
        writer,
    })
}

fn reader_loop(mut stream: TcpStream, to_server: mpsc::Sender<ToServer>, client: u64) {
    loop {
        let mut len_buf = [0u8; 4];
        if stream.read_exact(&mut len_buf).is_err() {
            break; // EOF or socket error: the peer is gone
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        if len > MAX_TCP_FRAME_BYTES {
            break; // not a possible message: the stream is desynced, drop it
        }
        // Forward whatever arrived — even a short or empty message. The
        // server loop owns malformed-frame policy (a typed error frame),
        // so a chaos-truncated request is answered and retried instead of
        // silently costing the whole connection.
        let mut frame = vec![0u8; len];
        if stream.read_exact(&mut frame).is_err() {
            break;
        }
        if to_server
            .send(ToServer::Frame {
                client,
                bytes: frame,
            })
            .is_err()
        {
            break; // server loop gone
        }
    }
    let _ = to_server.send(ToServer::Disconnect { client });
    let _ = stream.shutdown(Shutdown::Read);
}

/// Writes, blocking, what the loop thread handed over, then releases the
/// socket back to it frame by frame.
fn writer_loop(mut stream: TcpStream, unsent: mpsc::Receiver<Unsent>, held: Arc<AtomicUsize>) {
    // recv() keeps returning frames buffered in the channel even after the
    // sender side drops, so a graceful server shutdown flushes everything
    // still in flight before the socket closes.
    while let Ok(Unsent { frame, sent }) = unsent.recv() {
        if write_frame(&mut stream, &frame, sent).is_err() {
            break;
        }
        held.fetch_sub(1, Ordering::Release);
    }
    let _ = stream.shutdown(Shutdown::Both);
}

// ---------------------------------------------------------------- client

/// The client half: a [`FrameLink`] over one persistent TCP connection.
pub struct TcpLink {
    stream: TcpStream,
    /// Bytes read off the socket that do not yet form a complete frame. A
    /// recv that times out mid-frame keeps the prefix here, so the next
    /// recv resumes exactly where the stream left off instead of desyncing.
    pending: Vec<u8>,
    /// The read timeout the socket has now, so that a recv with the same
    /// window as the last one costs no `setsockopt`.
    read_timeout: Option<Duration>,
}

impl TcpLink {
    /// Connects to a [`TcpFront`]'s listener.
    pub fn connect(addr: SocketAddr) -> Result<TcpLink> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| PirError::Transport(format!("tcp connect to {addr} failed: {e}")))?;
        let _ = stream.set_nodelay(true);
        Ok(TcpLink {
            stream,
            pending: Vec::new(),
            read_timeout: None,
        })
    }
}

impl FrameLink for TcpLink {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        write_frame(&mut self.stream, frame, 0)
            .map_err(|e| PirError::Transport(format!("server disconnected: {e}")))
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Result<Vec<u8>> {
        let deadline = timeout.map(|t| Instant::now() + t);
        // The first read may wait the whole window, the same one a recv
        // usually asks for as the last did; a read after a partial frame
        // waits only for what is left of it.
        let mut window = timeout;
        loop {
            if self.pending.len() >= 4 {
                let len =
                    u32::from_le_bytes(self.pending[..4].try_into().expect("4 bytes")) as usize;
                if len > MAX_TCP_FRAME_BYTES {
                    return Err(PirError::Transport(format!(
                        "impossible message length {len} on tcp link: stream desynced"
                    )));
                }
                if self.pending.len() >= 4 + len {
                    let frame = self.pending[4..4 + len].to_vec();
                    self.pending.drain(..4 + len);
                    return Ok(frame);
                }
            }
            if window == Some(Duration::ZERO) {
                // set_read_timeout rejects zero, and the window is over
                return Err(PirError::Timeout("tcp recv timed out".into()));
            }
            if window != self.read_timeout {
                self.stream.set_read_timeout(window).map_err(io_err)?;
                self.read_timeout = window;
            }
            let mut buf = [0u8; 16 * 1024];
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(PirError::Transport("server disconnected".into())),
                Ok(n) => {
                    self.pending.extend_from_slice(&buf[..n]);
                    window = deadline.map(|dl| dl.saturating_duration_since(Instant::now()));
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Err(PirError::Timeout("tcp recv timed out".into()));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    return Err(PirError::Transport(format!("server disconnected: {e}")));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::codec::{split_frame, Request, K_ERROR};
    use super::*;
    use crate::server::{FileId, PirMode, PirServer};
    use crate::spec::SystemSpec;
    use crate::transport::Transport;
    use privpath_storage::{MemFile, PageBuf, DEFAULT_PAGE_SIZE};

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

    /// Frames the front handed to a writer thread so far.
    fn handed(paths: &ReplyPaths) -> u64 {
        paths.split.load(Ordering::SeqCst) + paths.queued.load(Ordering::SeqCst)
    }

    /// Waits until the front has handed more than `floor` frames to a writer
    /// thread: a reply is stuck behind a peer that does not read.
    fn await_fallback(paths: &ReplyPaths, floor: u64) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while handed(paths) <= floor {
            assert!(
                Instant::now() < deadline,
                "the socket took the whole reply: no fallback to the writer"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
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

    /// Asks for the big file's download as the request after the open.
    fn request_big(link: &mut TcpLink, session: u64) {
        let download = Request::Download {
            session,
            file: FileId(2),
        };
        link.send(&download.encode(2, &[], false)).unwrap();
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
        let front = TcpFront::spawn_with(server(), FrontConfig::default()).unwrap();
        let paths = Arc::clone(&front.paths);
        let mut chan = front.connect().unwrap(); // exchange 1
        chan.begin_query().unwrap(); // exchange 2
        for round in 2..100 {
            exchange(&mut chan, round); // exchanges 3..=100
        }
        front.shutdown(); // joins the loop: every count is in
        assert_eq!(paths.direct.load(Ordering::SeqCst), 100);
        assert_eq!(paths.split.load(Ordering::SeqCst), 0);
        assert_eq!(paths.queued.load(Ordering::SeqCst), 0, "the writer wrote");
    }

    #[test]
    fn a_stalled_clients_chunk_train_falls_back_mid_frame_then_goes_direct_again() {
        /// A [`TcpLink`] that reads nothing, once `stall` is set, until the
        /// front has handed a frame to the writer thread.
        struct StallLink {
            inner: TcpLink,
            paths: Arc<ReplyPaths>,
            stall: Arc<AtomicBool>,
        }
        impl FrameLink for StallLink {
            fn send(&mut self, frame: &[u8]) -> Result<()> {
                self.inner.send(frame)
            }
            fn recv(&mut self, timeout: Option<Duration>) -> Result<Vec<u8>> {
                if self.stall.swap(false, Ordering::SeqCst) {
                    await_fallback(&self.paths, handed(&self.paths));
                }
                self.inner.recv(timeout)
            }
        }
        let front = big_front();
        let paths = Arc::clone(&front.paths);
        let stall = Arc::new(AtomicBool::new(false));
        let link = StallLink {
            inner: TcpLink::connect(front.addr()).unwrap(),
            paths: Arc::clone(&paths),
            stall: Arc::clone(&stall),
        };
        let mut chan = WireChannel::handshake(Box::new(link), RetryPolicy::none()).unwrap();
        chan.begin_query().unwrap();
        exchange(&mut chan, 2);
        assert_eq!(handed(&paths), 0, "a reading client's replies went direct");
        // The socket, drained by the client so far, takes the head of the
        // download's one frame and fills up: the writer gets its tail.
        stall.store(true, Ordering::SeqCst);
        assert_tagged(&chan.download(FileId(2)).unwrap(), BIG_PAGES);
        assert!(paths.split.load(Ordering::SeqCst) > 0, "no frame split");
        let direct = paths.direct.load(Ordering::SeqCst);
        for round in 3..13 {
            exchange(&mut chan, round);
        }
        chan.close().unwrap();
        let stats = front.shutdown();
        assert!(
            paths.direct.load(Ordering::SeqCst) > direct,
            "replies after the drain never went direct again"
        );
        let s = &stats[&chan.session_id()];
        assert_eq!((s.rounds, s.fetches), (12, 33));
        assert!(s.downloads >= 1 && s.closed);
    }

    #[test]
    fn a_peer_that_resets_mid_reply_is_dropped_and_the_rest_are_served() {
        let front = big_front();
        let paths = Arc::clone(&front.paths);
        let mut neighbour = front.connect().unwrap();
        neighbour.begin_query().unwrap();
        exchange(&mut neighbour, 2);

        // A raw peer asks for the big download and reads none of it. Once
        // the front has handed the rest to the writer thread, the peer
        // closes with the reply unread, which resets the connection
        // mid-reply.
        let (mut peer, session) = open_raw(&front);
        let floor = handed(&paths);
        request_big(&mut peer, session);
        await_fallback(&paths, floor);
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
        request_big(&mut quitter, session);
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
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (ours, _) = listener.accept().unwrap();
        let (writer, unsent) = mpsc::channel();
        let replies = SocketReplies {
            stream: ours,
            writer,
            held: Arc::default(),
            paths: Arc::default(),
        };
        assert!(replies.send(vec![7u8; 100]), "a live peer takes a frame");
        drop(peer); // closed with the frame unread: the connection resets
        let deadline = Instant::now() + Duration::from_secs(5);
        while replies.send(vec![7u8; 100]) {
            assert!(Instant::now() < deadline, "sends to a reset peer succeed");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(replies.held.load(Ordering::SeqCst), 0);
        assert!(unsent.try_recv().is_err(), "a frame was handed off");
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
