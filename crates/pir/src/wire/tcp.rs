//! Network-real serving: the wire protocol's frames over loopback TCP.
//!
//! [`TcpFront`] puts a [`std::net::TcpListener`] accept loop in front of a
//! [`ServerFront`]: every accepted connection gets a reader thread (length-
//! prefix framing off the socket, frames forwarded into the server loop)
//! and a writer thread (replies pumped back onto the socket), so the server
//! loop itself never blocks on a slow peer. [`TcpLink`] is the client half:
//! a [`FrameLink`] over a persistent connection, so the whole
//! retry/timeout/idempotent-replay machinery of [`WireChannel`] — and any
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
//! the replies still buffered for its connection, then close the sockets —
//! live clients get their in-flight responses and observe a clean
//! disconnect on their *next* request.

use super::front::ToServer;
use super::{FrameLink, FrontConfig, RetryPolicy, ServerFront, SessionStats, WireChannel};
use crate::chaos::{ChaosLink, FaultPlan};
use crate::error::PirError;
use crate::transport::ServeHost;
use crate::Result;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
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

// ---------------------------------------------------------------- server

/// One bridged connection's handles, kept for the shutdown join.
struct Conn {
    stream: TcpStream,
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
}

/// A loopback TCP front end over a [`ServerFront`]: accept loop plus
/// per-connection reader/writer threads. See the module docs.
pub struct TcpFront {
    front: Option<Arc<ServerFront>>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<Vec<Conn>>>,
}

impl TcpFront {
    /// Binds and spawns with explicit front-end knobs (chunked responses,
    /// idle eviction).
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
        let accept = {
            let front = Arc::clone(&front);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(listener, front, stop))
        };
        Ok(TcpFront {
            front: Some(front),
            addr,
            stop,
            accept: Some(accept),
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
        // The front's loop has exited, dropping every response sender: each
        // writer drains what was still buffered, flushes, and shuts its
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

fn accept_loop(listener: TcpListener, front: Arc<ServerFront>, stop: Arc<AtomicBool>) -> Vec<Conn> {
    let mut conns = Vec::new();
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => break,
        };
        if stop.load(Ordering::SeqCst) {
            break; // the shutdown wake-up (or a raced late client)
        }
        if let Ok(conn) = bridge(stream, &front) {
            conns.push(conn);
        }
    }
    conns
}

/// Registers the connection as one front client and spawns its two pump
/// threads. The raw channel halves are used directly (not a
/// [`super::ChannelLink`]) because the two directions live on different
/// threads and disconnect notification belongs to the reader: it alone
/// knows when the peer really went away.
fn bridge(stream: TcpStream, front: &ServerFront) -> Result<Conn> {
    let (to_server, client, resp_rx) = front.raw_parts()?;
    let _ = stream.set_nodelay(true);
    let read_half = stream.try_clone().map_err(io_err)?;
    let write_half = stream.try_clone().map_err(io_err)?;
    let reader = std::thread::spawn(move || reader_loop(read_half, to_server, client));
    let writer = std::thread::spawn(move || writer_loop(write_half, resp_rx));
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

fn writer_loop(mut stream: TcpStream, resp: mpsc::Receiver<Vec<u8>>) {
    // recv() keeps returning replies buffered in the channel even after the
    // sender side drops, so a graceful server shutdown flushes everything
    // still in flight before the socket closes.
    while let Ok(frame) = resp.recv() {
        let prefix = (frame.len() as u32).to_le_bytes();
        if stream.write_all(&prefix).is_err()
            || stream.write_all(&frame).is_err()
            || stream.flush().is_err()
        {
            break;
        }
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
        })
    }
}

impl FrameLink for TcpLink {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        let prefix = (frame.len() as u32).to_le_bytes();
        self.stream
            .write_all(&prefix)
            .and_then(|()| self.stream.write_all(frame))
            .and_then(|()| self.stream.flush())
            .map_err(|e| PirError::Transport(format!("server disconnected: {e}")))
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Result<Vec<u8>> {
        let deadline = timeout.map(|t| Instant::now() + t);
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
            let per_read = match deadline {
                None => None,
                Some(dl) => {
                    let now = Instant::now();
                    if now >= dl {
                        return Err(PirError::Timeout("tcp recv timed out".into()));
                    }
                    Some(dl - now) // strictly positive: set_read_timeout rejects zero
                }
            };
            self.stream.set_read_timeout(per_read).map_err(io_err)?;
            let mut buf = [0u8; 16 * 1024];
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(PirError::Transport("server disconnected".into())),
                Ok(n) => self.pending.extend_from_slice(&buf[..n]),
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
    use super::super::codec::{split_frame, K_ERROR};
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
    fn chunked_replies_reassemble_over_tcp() {
        // chunk size far below one page: every response crosses many chunks
        let front = TcpFront::spawn_with(
            server(),
            FrontConfig {
                chunk_bytes: Some(512),
                ..FrontConfig::default()
            },
        )
        .unwrap();
        let mut chan = front.connect().unwrap();
        chan.begin_query().unwrap();
        let mut out = vec![PageBuf::zeroed(DEFAULT_PAGE_SIZE); 2];
        chan.serve_round(2, &[(FileId(1), 7), (FileId(1), 11)], &mut out)
            .unwrap();
        for (buf, want) in out.iter().zip([7u32, 11]) {
            assert_eq!(
                u32::from_le_bytes(buf.as_slice()[..4].try_into().unwrap()),
                want
            );
        }
        let header = chan.download(FileId(0)).unwrap();
        assert_eq!(header.len(), 2 * DEFAULT_PAGE_SIZE);
        chan.close().unwrap();
        front.shutdown();
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
