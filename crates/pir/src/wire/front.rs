//! The server front: the [`ServerFront`] handle and the loop thread behind it
//! ([`Front`]), which owns the session table, the replay caches, generation
//! pinning, idle eviction, panic containment, the shared lap and every
//! client's socket.
//!
//! Every client frame takes one path through the loop. [`Front::admit`]
//! decodes and validates it, once, and answers what is not a fresh request
//! its session accepts: rejections, and retransmissions replayed from the
//! cache. An accepted round whose shape lets it share a sweep rides the lap
//! ([`Front::try_join`]); everything else is served on the spot
//! ([`Front::serve`]). However it was served, [`Front::settle`] completes it:
//! the observation recorded, then each retransmission absorbed while it
//! rode; the counters advanced; the reply cached — or withheld after a
//! transient fault, the round cursor rolled back — sent as one frame; and
//! the frames that queued behind it handed on.
//!
//! The core writes nowhere: replies go to [`Front::outbox`], clients it
//! forgets (evicted, torn down, disconnected) to [`Front::hangups`].
//!
//! # The driver
//!
//! [`Front::run`] is the one driver, the only code of the loop that reads
//! the clock or waits; the rest takes `now` from it, so a test steps the
//! core on a virtual clock (`wire::tests::stepper`). It is one `poll(2)`
//! loop ([`sysmap::poll`]) over the handle's wake-up socket, a
//! [`super::tcp::TcpFront`]'s listener, and every connection, TCP or the
//! front's end of an in-process socket pair ([`super::tcp::Peer`]). Each
//! turn hands the core the frames that waited behind a ride, checks
//! eviction, writes what the core answered, and polls: until the next
//! eviction deadline, or not at all while a lap is ridden or the handle
//! waits. It writes what writable sockets take, hands the core every whole
//! frame the readable ones hold, answers the handle's requests taken before
//! that poll — so [`ServerFront::session_stats`] reflects every frame and
//! disconnect a client completed before asking — takes new requests and
//! connections, and, once a turn takes no frame, runs one segment pass of
//! the lap if anybody rides it: every frame that is ready, then one pass.
//!
//! **Backpressure.** A reply goes out with one non-blocking send
//! ([`sysmap::send_nowait`]); what the socket does not take waits in the
//! connection until the poll finds it writable, and meanwhile the loop
//! neither reads that connection nor hands the core its frames. A client
//! that does not read holds the one reply it is not reading, plus any owed
//! to frames it sent behind a riding round, which were taken before.
//!
//! **Shutdown** ([`ServerFront::shutdown`]) is a drain: one more turn reads
//! the frames already sent; then the loop stops reading and accepting,
//! serves what it has read, rides every lap to its end, writes every
//! unsent reply, marks the open sessions closed and closes the sockets.

use super::client::{RetryPolicy, WireChannel};
use super::codec::{
    advance_seq, encode_ack, encode_download_response, encode_error, encode_round_response,
    encode_session_accept, refusal_code, split_frame, Request, ServerInfo, ERR_INTERNAL,
    ERR_MALFORMED, ERR_ROUND_ORDER, ERR_SEQ, ERR_SERVE, ERR_SERVE_TRANSIENT, ERR_SESSION,
    MAX_REQUEST_BYTES, SEQ_UNPARSED,
};
use super::lap::{Lap, Turn};
use super::tcp::{io_err, Peer, SocketLink, Stream};
use crate::error::PirError;
use crate::scan::Ride;
use crate::server::FileId;
use crate::transport::{GenerationSource, ServeHost, StaticSource};
use crate::Result;
use privpath_storage::PageBuf;
use std::collections::{BTreeMap, VecDeque};
use std::io::Read;
use std::net::TcpListener;
use std::os::unix::net::UnixStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use sysmap::{PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};

// ------------------------------------------------------------ server front

/// Per-session accounting the server keeps on its side of the wire (the
/// client keeps its own meter; the two views must agree, and tests check
/// they do).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionStats {
    /// Queries observed (QueryOpen frames).
    pub queries: u64,
    /// Protocol rounds served (round-number advances; the query-open counts
    /// as round 1).
    pub rounds: u64,
    /// PIR page fetches served.
    pub fetches: u64,
    /// Full-file downloads served.
    pub downloads: u64,
    /// Frame bytes received from the client.
    pub bytes_in: u64,
    /// Frame bytes sent back to the client.
    pub bytes_out: u64,
    /// Retransmitted requests answered from the reply cache (no store
    /// access, no epoch advance).
    pub retransmits: u64,
    /// Rounds of this session that shared at least one segment pass of
    /// their sweep with another session's round: both were aboard the same
    /// lap of the file's rotation (see the module docs, "Shared laps").
    /// Purely server-side accounting: the reply and the observable stream
    /// are unaffected.
    pub coalesced_rounds: u64,
    /// Frames that failed structural validation (crc mismatch, truncation).
    pub(crate) malformed: u64,
    /// Handler panics absorbed on this session (each one tears the session
    /// down; the loop survives).
    pub panics: u64,
    /// True once the session closed (explicitly or at shutdown).
    pub closed: bool,
    /// True if the front evicted the session for idling past the
    /// [`FrontConfig::idle_timeout`] deadline.
    pub evicted: bool,
    /// The recorded observable projection of every client→server frame, in
    /// order — retransmissions included, since the adversary sees those too
    /// (see the module docs for what is masked). Bounded by
    /// [`OBSERVED_CAP_BYTES`] (1 MiB) so that a long-lived session on an
    /// always-recording front stays small; `observed_truncated` reports when
    /// the cap was hit (recording stops at a frame boundary, the counters
    /// above keep counting).
    pub observed: Vec<u8>,
    /// True if `observed` stopped recording at the cap.
    pub observed_truncated: bool,
}

/// Per-session cap on the recorded observable stream: 1 MiB, more than any
/// session the audits certify records. Every session of every front
/// records (a few kilobytes per query: an LM query is 119 frames), so the
/// cap is what bounds the server's memory for a session that lives on.
pub const OBSERVED_CAP_BYTES: usize = 1 << 20;

impl SessionStats {
    fn record_observed(&mut self, masked: &[u8]) {
        if self.observed_truncated || self.observed.len() + masked.len() > OBSERVED_CAP_BYTES {
            self.observed_truncated = true;
            return;
        }
        self.observed.extend_from_slice(masked);
    }
}

/// The per-session accounting table, keyed by session id.
type Sessions = BTreeMap<u64, SessionStats>;

/// What the handle asks of the loop, each message followed by a byte on
/// the wake-up socket.
enum ToServer {
    /// Serve the front's end of an in-process socket pair.
    Attach(UnixStream),
    /// Send back a copy of the session table.
    Stats(mpsc::Sender<Sessions>),
    Shutdown,
}

/// The degradation knob of a [`ServerFront`].
#[derive(Debug, Clone, Default)]
pub struct FrontConfig {
    /// Evict sessions that have not sent a frame for this long: the session
    /// is marked closed + evicted and the client observes a severed channel
    /// on its next request. `None` (the default) disables eviction.
    pub idle_timeout: Option<Duration>,
}

/// The multi-client server front end: one loop thread owns the database
/// host and serves every connected [`WireChannel`] over its socket, with a
/// per-session table of server-side accounting (see the module docs).
///
/// The loop degrades gracefully rather than dying: a panicking handler
/// tears down only the offending session (the panic is caught, the client
/// gets [`ERR_INTERNAL`], everyone else keeps being served), idle sessions
/// can be evicted on a deadline ([`FrontConfig::idle_timeout`]), and
/// [`ServerFront::shutdown`] drains, so in-flight rounds complete.
pub struct ServerFront {
    to_server: mpsc::Sender<ToServer>,
    /// The handle's end of the loop's wake-up socket pair.
    wake: UnixStream,
    /// The loop thread, which hands back the final session table.
    handle: Option<JoinHandle<Sessions>>,
}

impl ServerFront {
    /// Spawns the server loop over `host` (anything that can reach a
    /// [`crate::PirServer`] — the core crate's `Database` implements
    /// [`ServeHost`], so a whole built database can be fronted).
    pub fn spawn<H: ServeHost + Send + Sync + 'static>(host: H) -> ServerFront {
        Self::spawn_with(host, FrontConfig::default())
    }

    /// Spawns the server loop with explicit degradation knobs. The host is
    /// wrapped as a never-swapping generation-1 `StaticSource`.
    pub fn spawn_with<H: ServeHost + Send + Sync + 'static>(
        host: H,
        cfg: FrontConfig,
    ) -> ServerFront {
        Self::spawn_swappable(Arc::new(StaticSource::new(host)), cfg)
    }

    /// Spawns the server loop over a hot-swappable [`GenerationSource`]:
    /// each session is pinned to the generation current at its
    /// `SessionOpen` and drains on it; sessions opened after the source
    /// publishes a new generation serve from the new one. See the module
    /// docs ("Generations and hot swap"). The loop thread is the only
    /// thread the front starts: it also drives every shared lap, one segment
    /// pass between the frames it takes, whatever the host's CPU count.
    pub fn spawn_swappable(source: Arc<dyn GenerationSource>, cfg: FrontConfig) -> ServerFront {
        Self::launch(source, cfg, None)
    }

    /// Spawns the loop thread, which also accepts `listener`'s connections
    /// when there is one. Panics, as spawning the thread does, if the
    /// process has no descriptor left for the wake-up socket pair.
    pub(super) fn launch(
        source: Arc<dyn GenerationSource>,
        cfg: FrontConfig,
        listener: Option<TcpListener>,
    ) -> ServerFront {
        let (to_server, rx) = mpsc::channel();
        let (wake, woken) = UnixStream::pair().expect("a socket pair for the front's wake-up");
        let front = Front::new(source, cfg);
        let io = Io {
            rx,
            woken,
            listener,
            peers: BTreeMap::new(),
            next_client: 0,
            asked: Vec::new(),
            stopping: false,
            fds: Vec::new(),
            ids: Vec::new(),
        };
        let handle = std::thread::spawn(move || front.run(io));
        ServerFront {
            to_server,
            wake,
            handle: Some(handle),
        }
    }

    /// Hands the loop `msg` and wakes it; false once the loop is gone.
    fn tell(&self, msg: ToServer) -> bool {
        if self.to_server.send(msg).is_err() {
            return false;
        }
        // a full wake-up socket already holds a wake-up
        let _ = sysmap::send_nowait(&self.wake, &[], &[1]);
        true
    }

    /// Connects a new in-process client and returns its raw frame link (no
    /// handshake performed): one end of a socket pair whose other end the
    /// loop serves like a TCP connection. Chaos wrappers interpose here,
    /// below [`WireChannel::handshake`].
    pub fn raw_link(&self) -> Result<SocketLink> {
        let (ours, theirs) = UnixStream::pair().map_err(io_err)?;
        theirs.set_nonblocking(true).map_err(io_err)?;
        if !self.tell(ToServer::Attach(theirs)) {
            return Err(PirError::Transport("server front is shut down".into()));
        }
        Ok(SocketLink::new(Box::new(ours)))
    }

    /// Connects a new in-process client and performs the handshake. No
    /// retries — the perfect-link behavior ([`RetryPolicy::none`]).
    pub fn connect(&self) -> Result<WireChannel> {
        self.connect_with(RetryPolicy::none())
    }

    /// Connects with an explicit retry policy (applies to the handshake and
    /// every subsequent request on the channel).
    pub fn connect_with(&self, policy: RetryPolicy) -> Result<WireChannel> {
        WireChannel::handshake(Box::new(self.raw_link()?), policy)
    }

    /// Connects while holding a generation expectation: if the server's
    /// accept carries a different generation id than `expected`, the
    /// handshake fails with the typed retryable
    /// [`PirError::StaleGeneration`] — the caller refreshes its expectation
    /// (re-plans against the new generation) and reconnects.
    pub fn connect_expecting(&self, policy: RetryPolicy, expected: u64) -> Result<WireChannel> {
        WireChannel::handshake_expecting(Box::new(self.raw_link()?), policy, Some(expected))
    }

    /// Snapshot of the per-session accounting table, keyed by session id:
    /// the loop's copy once it has taken every message sent before this
    /// call (empty if the loop is gone).
    pub fn session_stats(&self) -> BTreeMap<u64, SessionStats> {
        let (tx, rx) = mpsc::channel();
        self.tell(ToServer::Stats(tx));
        rx.recv().unwrap_or_default()
    }

    /// The recorded observable frame stream of one session (None if the
    /// session id was never opened).
    pub fn observed_stream(&self, session: u64) -> Option<Vec<u8>> {
        self.session_stats().remove(&session).map(|s| s.observed)
    }

    /// Stops the loop thread gracefully and returns the final session
    /// table. Frames clients sent before the call are served, rounds riding
    /// a shared lap ride it to its end, and every reply is written out (a
    /// client slow to read holds the drain); sessions still open are then
    /// marked closed and their sockets closed, so their clients get a
    /// transport error on their next request instead of a hang.
    pub fn shutdown(mut self) -> BTreeMap<u64, SessionStats> {
        self.stop()
    }

    /// Stops the loop, once, and takes the final table from it.
    fn stop(&mut self) -> Sessions {
        self.tell(ToServer::Shutdown);
        let handle = self.handle.take();
        handle.and_then(|h| h.join().ok()).unwrap_or_default()
    }
}

impl Drop for ServerFront {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One resolved generation as the loop serves it: the id, the host pinned
/// alive for as long as any session still drains on it, and the metadata
/// derived from it once (not per frame). Sessions hold an `Arc<GenEntry>`,
/// so an old generation's stores stay allocated exactly until the last
/// pinned session is gone.
pub(super) struct GenEntry {
    id: u64,
    host: Arc<dyn ServeHost + Send + Sync>,
    info: ServerInfo,
    page_size: usize,
}

impl GenEntry {
    fn new(id: u64, host: Arc<dyn ServeHost + Send + Sync>) -> GenEntry {
        let (info, page_size) = {
            let server = host.pir_server();
            (
                ServerInfo::of_generation(server, id),
                server.spec().page_size,
            )
        };
        GenEntry {
            id,
            host,
            info,
            page_size,
        }
    }

    pub(super) fn server(&self) -> &crate::server::PirServer {
        self.host.pir_server()
    }
}

/// One client channel as the loop sees it.
pub(super) struct ClientState {
    session: Option<u64>,
    /// The generation this channel is pinned to: resolved at connect and
    /// re-resolved at each `SessionOpen` on a channel with no open session,
    /// never mid-session — a swap must not mix generations inside one
    /// session.
    gen: Arc<GenEntry>,
    last_round: u32,
    /// Sequence of the last accepted request (0 = none yet) and the exact
    /// reply bytes produced for it — the replay cache answering
    /// retransmissions without touching any store.
    pub(super) last_seq: u32,
    last_reply: Vec<u8>,
    /// The session the last accepted request was charged to and its masked
    /// observation, when it had one, so that a retransmission is observed
    /// again (the adversary sees it) on the right session's stream.
    last_observed: Option<(u64, Vec<u8>)>,
    /// When the client last sent a frame, as the driver told the core.
    last_active: Instant,
    /// The client's round aboard the lap, while it rides: its one record.
    riding: Option<Pending>,
}

/// A fresh request its session accepted, on its way to a reply: served on
/// the spot, or riding the lap in [`ClientState::riding`].
struct Pending {
    sid: u64,
    seq: u32,
    request: Request,
    /// The frame, moved in: a bit-identical frame that arrives while the
    /// round rides is its retransmission.
    bytes: Vec<u8>,
    /// The observable projection, recorded when the request settles.
    masked: Vec<u8>,
    /// The round's fetch count (0 for the other kinds).
    fetches: usize,
    /// The round cursor before this request, restored after a transient
    /// fault so that the retransmission passes the round-order check again.
    prev_round: u32,
    /// Retransmissions absorbed while the round rode.
    dups: u32,
    /// Frames the client sent while the round rode: handling them before
    /// its reply would reorder the channel, so they wait for it.
    after: Vec<Vec<u8>>,
}

/// What serving an accepted request came to.
enum Served {
    /// Its reply, and whether the round shared a pass of its lap with
    /// another session's round.
    Done { reply: Vec<u8>, shared: bool },
    /// The store failed. A transient fault's error is not the sequence's
    /// reply: the retransmission is served afresh.
    Failed { reply: Vec<u8>, transient: bool },
    /// The store panicked: the session is torn down.
    Panicked,
}

impl Served {
    fn failed(seq: u32, error: &PirError) -> Served {
        let transient = error.is_transient_storage();
        let code = if transient {
            ERR_SERVE_TRANSIENT
        } else {
            ERR_SERVE
        };
        Served::Failed {
            reply: encode_error(seq, code, &error.to_string()),
            transient,
        }
    }
}

/// The loop thread's state: the sessions, the serving scratch and the lap
/// rounds share.
pub(super) struct Front {
    source: Arc<dyn GenerationSource>,
    pub(super) sessions: Sessions,
    cfg: FrontConfig,
    latest: Arc<GenEntry>,
    pub(super) clients: BTreeMap<u64, ClientState>,
    next_session: u64,
    /// The fetch list of the last round admitted, served from here on the
    /// spot; with the rest of the serving scratch, reused across clients
    /// and frames.
    reqs: Vec<(FileId, u32)>,
    run_pages: Vec<u32>,
    arena: Vec<PageBuf>,
    /// The rotation in progress, or the last one.
    lap: Option<Lap>,
    /// Settled rides, kept for their buffers: the next round to join any lap
    /// rides in one, so that rounds that alternate between files allocate
    /// no page buffers either.
    spare: Vec<Ride>,
    /// Frames that waited behind a round that rode, handed on when it
    /// settled. The loop takes them before anything new, and nothing else
    /// re-enters the frame path.
    backlog: VecDeque<(u64, Vec<u8>)>,
    /// Every reply made and not yet handed to its client's connection,
    /// tagged with the client, in the order made.
    pub(super) outbox: Vec<(u64, Vec<u8>)>,
    /// Clients forgotten since the driver last looked: their connections
    /// close once the replies owed to them are written.
    pub(super) hangups: Vec<u64>,
    /// Shutdown received: serve what is read and owed, then stop.
    draining: bool,
}

impl Front {
    pub(super) fn new(source: Arc<dyn GenerationSource>, cfg: FrontConfig) -> Front {
        let (id, host) = source.current_generation();
        Front {
            latest: Arc::new(GenEntry::new(id, host)),
            source,
            sessions: Sessions::new(),
            cfg,
            clients: BTreeMap::new(),
            next_session: 1,
            reqs: Vec::new(),
            run_pages: Vec::new(),
            arena: Vec::new(),
            lap: None,
            spare: Vec::new(),
            backlog: VecDeque::new(),
            outbox: Vec::new(),
            hangups: Vec::new(),
            draining: false,
        }
    }

    /// Serves the frames that waited behind a ride, in arrival order.
    pub(super) fn take_backlog(&mut self, now: Instant) {
        while let Some((client, bytes)) = self.backlog.pop_front() {
            self.on_frame(client, bytes, now);
        }
    }

    /// Runs one segment pass of the lap, if anybody rides it, and settles
    /// the rounds whose lap it ended. False when nobody rides.
    pub(super) fn pass(&mut self) -> bool {
        let Some(turn) = self.lap.as_mut().and_then(Lap::turn) else {
            return false;
        };
        self.on_turn(turn);
        true
    }

    /// Registers a client, pinned to the latest generation.
    pub(super) fn connect(&mut self, client: u64, now: Instant) {
        let state = ClientState {
            session: None,
            gen: Arc::clone(&self.latest),
            last_round: 0,
            last_seq: 0,
            last_reply: Vec::new(),
            last_observed: None,
            last_active: now,
            riding: None,
        };
        self.clients.insert(client, state);
    }

    /// Forgets `client`: its channel is gone or must go. Its round, if it
    /// rides the lap, is dropped before the next pass and delays nobody; its
    /// session, if open, is marked by `mark`.
    fn drop_client(&mut self, client: u64, mark: impl FnOnce(&mut SessionStats)) {
        if let Some(lap) = &mut self.lap {
            lap.leave(client);
        }
        let Some(state) = self.clients.remove(&client) else {
            return;
        };
        self.hangups.push(client);
        let Some(sid) = state.session else {
            return;
        };
        if let Some(stats) = self.sessions.get_mut(&sid) {
            mark(stats);
        }
    }

    /// Drops the clients whose deadline, `last_active + idle_timeout`, is
    /// `now` or earlier: their sessions are marked closed + evicted and
    /// their connections hung up, so the client observes a severed channel
    /// on its next request. Returns the next deadline, if any.
    pub(super) fn evict_idle(&mut self, now: Instant) -> Option<Instant> {
        let timeout = self.cfg.idle_timeout?;
        let due = |state: &ClientState| state.last_active.checked_add(timeout);
        let idle: Vec<u64> = self
            .clients
            .iter()
            .filter(|(_, state)| due(state).is_some_and(|at| at <= now))
            .map(|(&client, _)| client)
            .collect();
        for client in idle {
            self.drop_client(client, |stats| {
                stats.closed = true;
                stats.evicted = true;
            });
        }
        self.clients.values().filter_map(due).min()
    }

    /// Puts `reply` to a frame of `bytes_in` bytes in the outbox, and
    /// charges both — with whatever `charge` adds — to session `sid`. Every
    /// reply the front makes leaves here.
    fn answer(
        &mut self,
        client: u64,
        sid: Option<u64>,
        bytes_in: usize,
        reply: Vec<u8>,
        charge: impl FnOnce(&mut SessionStats),
    ) {
        if let Some(sid) = sid {
            let stats = self.sessions.entry(sid).or_default();
            stats.bytes_in += bytes_in as u64;
            stats.bytes_out += reply.len() as u64;
            charge(stats);
        }
        if self.clients.contains_key(&client) {
            self.outbox.push((client, reply));
        }
    }

    /// Every client frame's one path: the frames behind a riding round wait
    /// for its reply; the rest are admitted, and what is accepted rides the
    /// lap or is served on the spot, then settled.
    pub(super) fn on_frame(&mut self, client: u64, bytes: Vec<u8>, now: Instant) {
        let Some(state) = self.clients.get_mut(&client) else {
            return; // unknown client: nowhere to reply
        };
        state.last_active = now;
        if let Some(riding) = &mut state.riding {
            // A bit-identical copy of the riding request is its
            // retransmission (the client's attempt window elapsed mid-lap):
            // the reply at the end of the ride answers it, and serving it
            // now would serve the round twice.
            if riding.bytes == bytes {
                riding.dups += 1;
            } else {
                riding.after.push(bytes);
            }
            return;
        }
        let Some(pending) = self.admit(client, bytes) else {
            return;
        };
        let Some(pending) = self.try_join(client, pending) else {
            return;
        };
        let served = self.serve(client, &pending);
        self.settle(client, pending, served);
    }

    /// Decodes and validates a frame, once, in this order: structure, size,
    /// reserved seq, replay, seq order, payload, session, round order.
    /// Answers here every frame that is not a fresh request its session
    /// accepts — rejections, and retransmissions replayed from the cache —
    /// and returns the accepted ones, with the channel's session, pinning
    /// and round cursor moved on and a round's fetches in `self.reqs`.
    fn admit(&mut self, client: u64, bytes: Vec<u8>) -> Option<Pending> {
        let state = self.clients.get_mut(&client)?;
        let session = state.session;
        let frame = match split_frame(&bytes) {
            Ok(frame) => frame,
            Err(e) => {
                let code = refusal_code(&bytes, &e);
                let reply = encode_error(SEQ_UNPARSED, code, &e.to_string());
                self.answer(client, session, bytes.len(), reply, |stats| {
                    stats.malformed += 1;
                });
                return None;
            }
        };
        let seq = frame.seq;
        let refused = if !frame.rest.is_empty() {
            Some((ERR_MALFORMED, "trailing bytes after frame".to_string()))
        } else if bytes.len() > MAX_REQUEST_BYTES {
            Some((ERR_MALFORMED, "oversized request frame".to_string()))
        } else if seq == 0 || seq == SEQ_UNPARSED {
            Some((ERR_SEQ, format!("reserved sequence number {seq}")))
        } else if seq != state.last_seq && seq != advance_seq(state.last_seq) {
            // Not the cached request and not the next fresh one: the channel
            // lost sync (or a stale duplicate outlived its window). Fatal —
            // do not advance the cache. The expected successor skips the
            // reserved values, so a channel that wraps past `u32::MAX` stays
            // in sync with a client advancing by the same rule.
            Some((ERR_SEQ, format!("sequence {seq} after {}", state.last_seq)))
        } else {
            None
        };
        if let Some((code, message)) = refused {
            let reply = encode_error(seq, code, &message);
            self.answer(client, session, bytes.len(), reply, |_| {});
            return None;
        }
        if seq == state.last_seq {
            // Retransmission: the reply (or the request) was lost in flight.
            // Replay the cached reply bytes verbatim — no store access, no
            // epoch advance — and record the duplicate observation (the
            // adversary saw the resend too).
            let observed = state.last_observed.clone();
            let reply = state.last_reply.clone();
            let sid = observed.as_ref().map(|&(sid, _)| sid).or(session);
            self.answer(client, sid, bytes.len(), reply, |stats| {
                stats.retransmits += 1;
                if let Some((_, masked)) = &observed {
                    stats.record_observed(masked);
                }
            });
            return None;
        }
        // A fresh request: whatever it is answered with is its sequence
        // number's reply, cached for the retransmission to replay.
        let checked = match Request::decode(frame.kind, frame.payload, &mut self.reqs) {
            Err(message) => Err((ERR_MALFORMED, message)),
            Ok(request) if request.session() != session => Err((
                ERR_SESSION,
                match request {
                    Request::SessionOpen => "session already open on this channel",
                    _ => "frame for a session not open on this channel",
                }
                .to_string(),
            )),
            // A round either continues (same number — a sub-round exchange,
            // e.g. the HY continuation walk) or advances by exactly one.
            Ok(Request::Round { round, .. }) if round.wrapping_sub(state.last_round) > 1 => Err((
                ERR_ROUND_ORDER,
                format!("round {round} after round {}", state.last_round),
            )),
            Ok(request) => Ok(request),
        };
        let request = match checked {
            Ok(request) => request,
            Err((code, message)) => {
                let reply = encode_error(seq, code, &message);
                state.last_seq = seq;
                state.last_reply.clone_from(&reply);
                state.last_observed = None;
                self.answer(client, session, bytes.len(), reply, |_| {});
                return None;
            }
        };
        let prev_round = state.last_round;
        let sid = request.session().unwrap_or(self.next_session);
        match request {
            Request::SessionOpen => {
                // The cutover point: a SessionOpen on a channel with no open
                // session re-resolves the source and re-pins the channel, so
                // sessions opened after a swap serve the new generation.
                let (id, host) = self.source.current_generation();
                if id != self.latest.id {
                    self.latest = Arc::new(GenEntry::new(id, host));
                }
                state.gen = Arc::clone(&self.latest);
                self.next_session += 1;
                state.session = Some(sid);
                state.last_round = 0;
            }
            // Round 1 is the query-open exchange itself.
            Request::QueryOpen { .. } => state.last_round = 1,
            Request::Round { round, .. } => state.last_round = round,
            Request::Download { .. } => {}
            Request::SessionClose { .. } => state.session = None,
        }
        Some(Pending {
            sid,
            seq,
            request,
            masked: request.encode(seq, &self.reqs, true),
            fetches: self.reqs.len(),
            prev_round,
            bytes,
            dups: 0,
            after: Vec::new(),
        })
    }

    /// Takes an accepted round aboard the lap when its shape lets it share
    /// one: every fetch an in-range page of one file that shares laps — the
    /// file and generation of the lap in progress, or any while nobody rides
    /// it. Everything else comes back, to be served on the spot: other
    /// requests, rounds over several files, pages out of range (one
    /// client's bad fetch must never fail a neighbour's lap), stateful
    /// stores (a shuffled store's epoch must advance per client, in order),
    /// and rounds that arrive after a shutdown.
    fn try_join(&mut self, client: u64, pending: Pending) -> Option<Pending> {
        let gen = match (&pending.request, self.clients.get(&client)) {
            (Request::Round { .. }, Some(state)) if !self.draining => Arc::clone(&state.gen),
            _ => return Some(pending),
        };
        let Some(&(file, _)) = self.reqs.first() else {
            return Some(pending);
        };
        let Ok(pages) = gen.server().file_pages(file) else {
            return Some(pending);
        };
        if self
            .reqs
            .iter()
            .any(|&(f, page)| f != file || page >= pages)
        {
            return Some(pending);
        }
        let fits = |lap: &Lap| lap.file == file && lap.gen.id == gen.id;
        // A lap over another one-segment file is one pass from its end.
        // Serving this round on the spot instead — a whole sweep with the
        // loop blocked, and nobody able to join it — would cost more than
        // finishing that lap first. Its riders settle meanwhile; the frames
        // behind them wait in the backlog, so `self.reqs` is still this
        // round's.
        while let Some(turn) = self
            .lap
            .as_mut()
            .filter(|l| !fits(l) && l.is_one_segment())
            .and_then(Lap::turn)
        {
            self.on_turn(turn);
        }
        match &mut self.lap {
            Some(lap) if fits(lap) => {}
            // a lap is over one file of one generation: while somebody rides
            // one of several segments, rounds for any other are served on
            // the spot, between its passes
            Some(lap) if lap.is_ridden() => return Some(pending),
            stale => {
                let Some(next) = Lap::new(&gen, file) else {
                    return Some(pending);
                };
                *stale = Some(next);
            }
        }
        let lap = self
            .lap
            .as_mut()
            .expect("the lap to join was just found or made");
        if let Some(ride) = self.spare.pop() {
            lap.recycle(ride);
        }
        self.run_pages.clear();
        self.run_pages
            .extend(self.reqs.iter().map(|&(_, page)| page));
        lap.join(client, &self.run_pages);
        if let Some(state) = self.clients.get_mut(&client) {
            state.riding = Some(pending);
        }
        None
    }

    /// Serves an accepted request on the spot, from the generation its
    /// channel is pinned to. A panicking store (a buggy or sabotaged one)
    /// must not kill the loop: the panic is caught and costs this session
    /// only. The scratch is safe to reuse after one — every serve sizes it
    /// first.
    fn serve(&mut self, client: u64, p: &Pending) -> Served {
        let gen = &self.clients.get(&client).expect("an admitted client").gen;
        let (reqs, run_pages, arena) = (&self.reqs, &mut self.run_pages, &mut self.arena);
        let served =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| -> Result<Vec<u8>> {
                Ok(match p.request {
                    Request::SessionOpen => encode_session_accept(p.seq, p.sid, &gen.info),
                    Request::QueryOpen { .. } | Request::SessionClose { .. } => encode_ack(p.seq),
                    Request::Round { .. } => {
                        let page_size = gen.page_size;
                        while arena.len() < reqs.len() {
                            arena.push(PageBuf::zeroed(page_size));
                        }
                        let bufs = &mut arena[..reqs.len()];
                        for buf in bufs.iter_mut().filter(|b| b.len() != page_size) {
                            *buf = PageBuf::zeroed(page_size);
                        }
                        gen.server().serve_requests(reqs, run_pages, bufs)?;
                        encode_round_response(p.seq, page_size, bufs.iter().map(PageBuf::as_slice))
                    }
                    Request::Download { file, .. } => {
                        encode_download_response(p.seq, &gen.server().read_full(file)?)
                    }
                })
            }));
        match served {
            Ok(Ok(reply)) => Served::Done {
                reply,
                shared: false,
            },
            Ok(Err(e)) => Served::failed(p.seq, &e),
            Err(_) => Served::Panicked,
        }
    }

    /// Settles what one pass of the lap came to: every round whose lap it
    /// ended, in the order they joined.
    fn on_turn(&mut self, turn: Turn) {
        let Some(page_size) = self.lap.as_ref().map(|lap| lap.gen.page_size) else {
            return;
        };
        let (riders, error) = match turn {
            Turn::Done(rides) => {
                for ride in &rides {
                    if let Some(p) = self.land(ride.id()) {
                        let pages = ride.pages().chunks_exact(page_size);
                        let reply = encode_round_response(p.seq, page_size, pages);
                        let shared = ride.shared();
                        self.settle(ride.id(), p, Served::Done { reply, shared });
                    }
                }
                self.spare.extend(rides);
                return;
            }
            // A failed pass is store-wide (a disk fault, a poisoned lock) —
            // bad requests never get aboard — so every rider sees the one
            // error; a pass that panicked costs every rider its session.
            Turn::Failed { riders, error } => (riders, Some(error)),
            Turn::Panicked { riders } => (riders, None),
        };
        for client in riders {
            if let Some(p) = self.land(client) {
                let served = error
                    .as_ref()
                    .map_or(Served::Panicked, |e| Served::failed(p.seq, e));
                self.settle(client, p, served);
            }
        }
    }

    /// Takes `client`'s round off the lap, if it still rides it.
    fn land(&mut self, client: u64) -> Option<Pending> {
        self.clients.get_mut(&client)?.riding.take()
    }

    /// Settles an accepted request, however it was served — on the spot or
    /// at the end of its ride: records its observation and then each
    /// retransmission absorbed while it rode, advances the counters,
    /// installs the reply as its sequence number's replay-cache entry (or
    /// withholds it after a transient fault and rolls the round cursor back,
    /// so that the retransmission is served afresh), sends it, and hands on
    /// the frames that queued behind it. A store that panicked tears the
    /// session down instead: the client gets [`ERR_INTERNAL`] and is
    /// forgotten, and everyone else keeps being served.
    fn settle(&mut self, client: u64, p: Pending, served: Served) {
        let panicked = matches!(served, Served::Panicked);
        let (reply, shared, cached) = match served {
            Served::Done { reply, shared } => (reply, Some(shared), true),
            Served::Failed { reply, transient } => (reply, None, !transient),
            Served::Panicked => {
                let message = "handler panicked; session torn down";
                (
                    encode_error(SEQ_UNPARSED, ERR_INTERNAL, message),
                    None,
                    false,
                )
            }
        };
        if let Some(state) = self.clients.get_mut(&client) {
            if cached {
                state.last_seq = p.seq;
                state.last_reply.clone_from(&reply);
            } else {
                state.last_round = p.prev_round;
            }
        }
        let bytes_in = p.bytes.len() * (1 + p.dups as usize);
        self.answer(client, Some(p.sid), bytes_in, reply, |stats| {
            for _ in 0..=p.dups {
                stats.record_observed(&p.masked);
            }
            stats.retransmits += u64::from(p.dups);
            if panicked {
                stats.panics += 1;
                stats.closed = true;
            }
            let Some(shared) = shared else {
                return;
            };
            match p.request {
                Request::SessionOpen => {}
                Request::QueryOpen { .. } => {
                    stats.queries += 1;
                    stats.rounds += 1;
                }
                Request::Round { round, .. } => {
                    stats.fetches += p.fetches as u64;
                    stats.rounds += u64::from(round != p.prev_round);
                    stats.coalesced_rounds += u64::from(shared);
                }
                Request::Download { .. } => stats.downloads += 1,
                Request::SessionClose { .. } => stats.closed = true,
            }
        });
        if panicked {
            self.drop_client(client, |_| {});
        } else if let Some(state) = self.clients.get_mut(&client) {
            if cached {
                state.last_observed = Some((p.sid, p.masked));
            }
            let after = p.after.into_iter().map(|bytes| (client, bytes));
            self.backlog.extend(after);
        }
    }
}

// ------------------------------------------------------------------ driver

/// Everything [`Front::run`] waits on: sockets and the handle's messages.
struct Io {
    rx: mpsc::Receiver<ToServer>,
    /// The loop's end of the wake-up pair.
    woken: UnixStream,
    /// A TCP front's, dropped when the drain begins.
    listener: Option<TcpListener>,
    peers: BTreeMap<u64, Peer>,
    next_client: u64,
    /// Stats requests taken before this turn's poll, answered after its
    /// reads; a shutdown taken, begun after them.
    asked: Vec<mpsc::Sender<Sessions>>,
    stopping: bool,
    /// The turn's poll set — the wake-up, the listener while accepting,
    /// then each connection waited on — and the connections' clients.
    fds: Vec<PollFd>,
    ids: Vec<u64>,
}

impl Io {
    /// Polls the wake-up, the listener while `reading`, and every connection
    /// for what it waits on ([`Peer::events`]).
    fn poll(&mut self, reading: bool, timeout: Option<Duration>) -> std::io::Result<usize> {
        self.fds.clear();
        self.ids.clear();
        self.fds.push(PollFd::new(&self.woken, POLLIN));
        if !reading {
            self.listener = None;
        }
        if let Some(listener) = &self.listener {
            self.fds.push(PollFd::new(listener, POLLIN));
        }
        for (&client, peer) in &self.peers {
            let events = peer.events(reading);
            if events != 0 {
                self.fds.push(PollFd::new(&*peer.stream, events));
                self.ids.push(client);
            }
        }
        sysmap::poll(&mut self.fds, timeout)
    }

    /// Accepts every TCP connection waiting on the listener.
    fn accept(&mut self, front: &mut Front, now: Instant) {
        while let Some(Ok((stream, _))) = self.listener.as_ref().map(TcpListener::accept) {
            if stream.set_nonblocking(true).is_ok() {
                let _ = stream.set_nodelay(true);
                self.attach(front, Box::new(stream), now);
            }
        }
    }

    /// Takes a new connection: a client of the core from now on.
    fn attach(&mut self, front: &mut Front, stream: Box<dyn Stream>, now: Instant) {
        self.next_client += 1;
        self.peers.insert(self.next_client, Peer::new(stream));
        front.connect(self.next_client, now);
    }
}

impl Front {
    /// The driver: the readiness loop the module docs describe, until the
    /// drain is over. Returns the final session table.
    fn run(mut self, mut io: Io) -> Sessions {
        loop {
            let (now, mut took) = (Instant::now(), false);
            self.take_backlog(now);
            let deadline = (!self.draining).then(|| self.evict_idle(now)).flatten();
            self.deliver(&mut io);
            io.ids.clear();
            io.ids.extend(io.peers.keys());
            for k in 0..io.ids.len() {
                let client = io.ids[k];
                took |= self.pump(&mut io, client, now);
            }
            let riding = self.lap.as_ref().is_some_and(Lap::is_ridden);
            let idle = !riding && self.backlog.is_empty() && io.peers.values().all(Peer::is_idle);
            if self.draining && idle {
                break;
            }
            let busy = riding || io.stopping || !io.asked.is_empty();
            let timeout = busy
                .then_some(Duration::ZERO)
                .or_else(|| deadline.map(|at| at.saturating_duration_since(now)));
            if io.poll(!self.draining, timeout).is_err() {
                // no poll(2) on this target (or no memory for the set): the
                // sockets close, and every link sees a transport error
                break;
            }
            let now = Instant::now();
            let first = io.fds.len() - io.ids.len();
            for k in 0..io.ids.len() {
                let (revents, client) = (io.fds[first + k].revents, io.ids[k]);
                let Some(peer) = io.peers.get_mut(&client).filter(|_| revents != 0) else {
                    continue;
                };
                if revents & (POLLOUT | POLLERR | POLLHUP) != 0 {
                    let _ = peer.send(None);
                }
                if revents & (POLLIN | POLLERR | POLLHUP) != 0 && peer.events(true) == POLLIN {
                    peer.read();
                }
                took |= self.pump(&mut io, client, now);
            }
            for tx in io.asked.drain(..) {
                let _ = tx.send(self.sessions.clone());
            }
            self.draining |= std::mem::take(&mut io.stopping);
            if io.fds[0].revents != 0 {
                self.take_messages(&mut io, now);
            }
            if first == 2 && io.fds[1].revents != 0 {
                io.accept(&mut self, now);
            }
            if !took {
                self.pass();
            }
        }
        // graceful shutdown: mark every open session closed
        for sid in self.clients.values().filter_map(|state| state.session) {
            if let Some(stats) = self.sessions.get_mut(&sid) {
                stats.closed = true;
            }
        }
        io.peers.values_mut().for_each(Peer::discard_input);
        self.sessions
    }

    /// Takes the handle's messages (a wake-up byte left unread is harmless).
    fn take_messages(&mut self, io: &mut Io, now: Instant) {
        let _ = (&io.woken).read(&mut [0; 256]);
        while let Ok(msg) = io.rx.try_recv() {
            match msg {
                ToServer::Attach(stream) => io.attach(self, Box::new(stream), now),
                ToServer::Stats(tx) => io.asked.push(tx),
                ToServer::Shutdown => io.stopping = true,
            }
        }
    }

    /// Hands the core `client`'s whole frames, one at a time, while its
    /// connection holds no unsent reply; once the client has sent its last
    /// frame, forgets it as disconnected. True if it took anything.
    fn pump(&mut self, io: &mut Io, client: u64, now: Instant) -> bool {
        let mut took = false;
        while let Some(peer) = io
            .peers
            .get_mut(&client)
            .filter(|p| !p.closing && p.is_idle())
        {
            match peer.next_frame() {
                Some(frame) => self.on_frame(client, frame, now),
                None if peer.eof => self.drop_client(client, |stats| stats.closed = true),
                None => break,
            }
            took = true;
            self.deliver(io);
        }
        took
    }

    /// Moves the outbox onto the connections, each reply written as far as
    /// its socket takes it, and hangs up the clients the core forgot once
    /// they are owed nothing. A dead connection ends its input: see `pump`.
    fn deliver(&mut self, io: &mut Io) {
        for (client, reply) in self.outbox.drain(..) {
            if let Some(peer) = io.peers.get_mut(&client) {
                let _ = peer.send(Some(reply));
            }
        }
        for client in self.hangups.drain(..) {
            io.peers
                .entry(client)
                .and_modify(|peer| peer.closing = true);
        }
        io.peers.retain(|_, peer| !(peer.closing && peer.is_idle()));
    }
}
