//! The server front: the [`ServerFront`] handle and the loop thread behind it
//! ([`Front`]), which owns the session table, the replay caches, generation
//! pinning, idle eviction, panic containment and the shared lap.
//!
//! Every client frame takes one path through the loop. [`Front::admit`]
//! decodes and validates it, once, and answers what is not a fresh request
//! its session accepts: rejections, and retransmissions replayed from the
//! cache. An accepted round whose shape lets it share a sweep rides the lap
//! ([`Front::try_join`]); everything else is served on the spot
//! ([`Front::serve`]). However it was served, [`Front::settle`] completes it:
//! the observation recorded, then each retransmission absorbed while it
//! rode; the counters advanced; the reply cached — or withheld after a
//! transient fault, the round cursor rolled back — chunked and sent; and
//! the frames that queued behind it handed on.

use super::client::{ChannelLink, RetryPolicy, WireChannel};
use super::codec::{
    advance_seq, chunk_reply, encode_ack, encode_download_response, encode_error,
    encode_round_response, encode_session_accept, refusal_code, split_frame, Request, ServerInfo,
    ERR_INTERNAL, ERR_MALFORMED, ERR_ROUND_ORDER, ERR_SEQ, ERR_SERVE, ERR_SERVE_TRANSIENT,
    ERR_SESSION, MAX_REQUEST_BYTES, SEQ_UNPARSED,
};
use super::lap::{Lap, Turn};
use crate::error::PirError;
use crate::scan::Ride;
use crate::server::FileId;
use crate::transport::{GenerationSource, ServeHost, StaticSource};
use crate::Result;
use privpath_storage::PageBuf;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
    pub malformed: u64,
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
    /// [`OBSERVED_CAP_BYTES`] so long-running fronts don't grow without
    /// limit; `observed_truncated` reports when the cap was hit (recording
    /// stops at a frame boundary, the counters above keep counting).
    pub observed: Vec<u8>,
    /// True if `observed` stopped recording at the cap.
    pub observed_truncated: bool,
}

/// Per-session cap on the recorded observable stream (the leakage audits
/// read a few kilobytes; this only exists to bound server memory on
/// long-running fronts).
pub const OBSERVED_CAP_BYTES: usize = 16 << 20;

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

/// Poison-recovering lock: a panicking session handler must not take the
/// accounting table (and with it the whole front) down, so a poisoned
/// mutex's data is recovered and used as-is — the table holds only
/// monotonic counters and append-only streams, all valid at any
/// interleaving point.
fn lock_shared(shared: &Mutex<Sessions>) -> MutexGuard<'_, Sessions> {
    shared
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

pub(crate) enum ToServer {
    Connect {
        client: u64,
        resp: mpsc::Sender<Vec<u8>>,
    },
    Frame {
        client: u64,
        bytes: Vec<u8>,
    },
    Disconnect {
        client: u64,
    },
    Shutdown,
    /// What a pass of the lap's driver thread came to.
    Lap(Turn),
}

/// Degradation and throughput knobs for a [`ServerFront`].
#[derive(Debug, Clone, Default)]
pub struct FrontConfig {
    /// Evict sessions that have not sent a frame for this long: the session
    /// is marked closed + evicted and the client observes a severed channel
    /// on its next request. `None` (the default) disables eviction.
    pub idle_timeout: Option<Duration>,
    /// Stream server replies larger than this as `Chunk`-framed slices
    /// (each with its own crc), bounding the peak bytes a transport buffers
    /// per reply. `None` (the default) sends every reply as one frame.
    pub chunk_bytes: Option<usize>,
}

/// The multi-client server front end: one loop thread owns the database
/// host and serves every connected [`WireChannel`], multiplexing frames
/// over byte channels. Sessions are tracked in a per-client session table
/// with server-side accounting.
///
/// The loop degrades gracefully rather than dying: a panicking handler
/// tears down only the offending session (the panic is caught, the client
/// gets [`ERR_INTERNAL`], everyone else keeps being served), poisoned locks
/// are recovered instead of cascading, idle sessions can be evicted on a
/// deadline ([`FrontConfig::idle_timeout`]), and
/// [`ServerFront::shutdown`] finishes every ride of the lap in progress and
/// drains every frame already queued before the loop exits, so in-flight
/// rounds complete.
pub struct ServerFront {
    to_server: mpsc::Sender<ToServer>,
    shared: Arc<Mutex<Sessions>>,
    next_client: AtomicU64,
    handle: Option<JoinHandle<()>>,
}

impl ServerFront {
    /// Spawns the server loop over `host` (anything that can reach a
    /// [`crate::PirServer`] — the core crate's `Database` implements
    /// [`ServeHost`], so a whole built database can be fronted).
    pub fn spawn<H: ServeHost + Send + Sync + 'static>(host: H) -> ServerFront {
        Self::spawn_with(host, FrontConfig::default())
    }

    /// Spawns the server loop with explicit degradation knobs. The host is
    /// wrapped as a never-swapping generation-1 [`StaticSource`].
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
    /// docs ("Generations and hot swap").
    pub fn spawn_swappable(source: Arc<dyn GenerationSource>, cfg: FrontConfig) -> ServerFront {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::spawn_on(source, cfg, cpus)
    }

    /// [`ServerFront::spawn_swappable`] with the CPU count given instead of
    /// asked of the host: with one, the loop thread drives every shared lap
    /// itself; with more, laps of several segments get a driver thread.
    pub(super) fn spawn_on(
        source: Arc<dyn GenerationSource>,
        cfg: FrontConfig,
        cpus: usize,
    ) -> ServerFront {
        let (tx, rx) = mpsc::channel();
        let shared = Arc::default();
        let front = Front::new(source, Arc::clone(&shared), cfg, cpus, tx.clone());
        let handle = std::thread::spawn(move || front.run(rx));
        ServerFront {
            to_server: tx,
            shared,
            next_client: AtomicU64::new(1),
            handle: Some(handle),
        }
    }

    /// Registers a new client with the loop and returns its raw frame link
    /// (no handshake performed). Chaos wrappers interpose here, between the
    /// link and the [`WireChannel`] built by [`WireChannel::handshake`].
    pub fn raw_link(&self) -> Result<ChannelLink> {
        let (to_server, client, resp) = self.raw_parts()?;
        Ok(ChannelLink {
            to_server,
            resp,
            client,
        })
    }

    /// Registers a new client and returns the raw channel halves, for
    /// transports (the TCP bridge) that pump the two directions from
    /// separate threads and manage disconnect notification themselves —
    /// unlike [`ChannelLink`], whose `Drop` sends the disconnect.
    pub(crate) fn raw_parts(
        &self,
    ) -> Result<(mpsc::Sender<ToServer>, u64, mpsc::Receiver<Vec<u8>>)> {
        let client = self.next_client.fetch_add(1, Ordering::Relaxed);
        let (resp_tx, resp_rx) = mpsc::channel();
        self.to_server
            .send(ToServer::Connect {
                client,
                resp: resp_tx,
            })
            .map_err(|_| PirError::Transport("server front is shut down".into()))?;
        Ok((self.to_server.clone(), client, resp_rx))
    }

    /// Connects a new client: registers its response channel and performs
    /// the `SessionOpen`/`SessionAccept` handshake. No retries — the legacy
    /// perfect-link behavior ([`RetryPolicy::none`]).
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

    /// Snapshot of the per-session accounting table, keyed by session id.
    pub fn session_stats(&self) -> BTreeMap<u64, SessionStats> {
        lock_shared(&self.shared).clone()
    }

    /// The recorded observable frame stream of one session (None if the
    /// session id was never opened).
    pub fn observed_stream(&self, session: u64) -> Option<Vec<u8>> {
        lock_shared(&self.shared)
            .get(&session)
            .map(|s| s.observed.clone())
    }

    /// Stops the loop thread gracefully and returns the final session
    /// table. Frames already queued when the shutdown lands are drained and
    /// served first, and rounds riding a shared lap ride it to its end
    /// (in-flight rounds complete); sessions still open are
    /// then marked closed and their clients get a transport error on their
    /// next request instead of a hang.
    pub fn shutdown(mut self) -> BTreeMap<u64, SessionStats> {
        let _ = self.to_server.send(ToServer::Shutdown);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        lock_shared(&self.shared).clone()
    }
}

impl Drop for ServerFront {
    fn drop(&mut self) {
        let _ = self.to_server.send(ToServer::Shutdown);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
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
    resp: mpsc::Sender<Vec<u8>>,
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
    /// When the client last sent a frame (idle-eviction clock).
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
    shared: Arc<Mutex<Sessions>>,
    cfg: FrontConfig,
    /// CPUs the process may use. With one, no lap gets a driver thread: the
    /// loop thread runs every pass itself.
    cpus: usize,
    /// The loop's own queue, for a lap's driver thread to report to.
    events: mpsc::Sender<ToServer>,
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
    /// Shutdown received: serve what is queued and owed, then stop.
    draining: bool,
}

impl Front {
    pub(super) fn new(
        source: Arc<dyn GenerationSource>,
        shared: Arc<Mutex<Sessions>>,
        cfg: FrontConfig,
        cpus: usize,
        events: mpsc::Sender<ToServer>,
    ) -> Front {
        let (id, host) = source.current_generation();
        Front {
            latest: Arc::new(GenEntry::new(id, host)),
            source,
            shared,
            cfg,
            cpus,
            events,
            clients: BTreeMap::new(),
            next_session: 1,
            reqs: Vec::new(),
            run_pages: Vec::new(),
            arena: Vec::new(),
            lap: None,
            spare: Vec::new(),
            backlog: VecDeque::new(),
            draining: false,
        }
    }

    fn run(mut self, rx: mpsc::Receiver<ToServer>) {
        // Eviction needs the loop to wake even when no frames arrive — and
        // it must also run while frames *do* arrive and while a lap is being
        // ridden (a busy neighbour must not keep an idle session alive), so
        // the deadline is rechecked on every turn of the loop, rate-limited
        // to one sweep per tick.
        let tick = self
            .cfg
            .idle_timeout
            .map(|t| (t / 4).clamp(Duration::from_millis(5), Duration::from_millis(250)));
        let mut last_sweep = Instant::now();
        loop {
            while let Some((client, bytes)) = self.backlog.pop_front() {
                self.on_frame(client, bytes);
            }
            if let Some(tick) = tick {
                if !self.draining && last_sweep.elapsed() >= tick {
                    self.evict_idle();
                    last_sweep = Instant::now();
                }
            }
            let ridden = self.lap.as_ref().is_some_and(Lap::is_ridden);
            let msg = if self.lap.as_ref().is_some_and(Lap::wants_turn) {
                // The loop thread drives the lap: every queued frame first —
                // rounds among them ride from this boundary on — then one
                // segment pass.
                match rx.try_recv() {
                    Ok(m) => m,
                    Err(_) => {
                        if let Some(turn) = self.lap.as_mut().and_then(Lap::turn) {
                            self.on_turn(turn);
                        }
                        continue;
                    }
                }
            } else if self.draining && !ridden {
                match rx.try_recv() {
                    Ok(m) => m,
                    Err(_) => break,
                }
            } else {
                // Sleep until the next frame (or the next report of the
                // lap's driver thread), capped by the eviction tick.
                let received = match tick {
                    Some(t) if !self.draining => rx.recv_timeout(t),
                    _ => rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected),
                };
                match received {
                    Ok(m) => m,
                    Err(mpsc::RecvTimeoutError::Timeout) => continue,
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            };
            match msg {
                ToServer::Connect { client, resp } => self.connect(client, resp),
                ToServer::Disconnect { client } => self.drop_client(client, |stats| {
                    stats.closed = true;
                }),
                // every ride is finished before the loop stops: `ridden`
                // keeps it from breaking, and the queue is served meanwhile
                ToServer::Shutdown => self.draining = true,
                ToServer::Frame { client, bytes } => self.on_frame(client, bytes),
                ToServer::Lap(turn) => self.on_turn(turn),
            }
        }
        if let Some(lap) = &mut self.lap {
            lap.retire();
        }
        // graceful shutdown: mark every open session closed
        let mut lock = lock_shared(&self.shared);
        for state in self.clients.values() {
            if let Some(sid) = state.session {
                if let Some(stats) = lock.get_mut(&sid) {
                    stats.closed = true;
                }
            }
        }
    }

    /// Registers a client's reply channel, pinned to the latest generation.
    pub(super) fn connect(&mut self, client: u64, resp: mpsc::Sender<Vec<u8>>) {
        let state = ClientState {
            resp,
            session: None,
            gen: Arc::clone(&self.latest),
            last_round: 0,
            last_seq: 0,
            last_reply: Vec::new(),
            last_observed: None,
            last_active: Instant::now(),
            riding: None,
        };
        self.clients.insert(client, state);
    }

    /// Forgets `client`: its channel is gone or must go. Its round, if it
    /// rides the lap, is dropped at the next boundary and delays nobody; its
    /// session, if open, is marked by `mark`.
    fn drop_client(&mut self, client: u64, mark: impl FnOnce(&mut SessionStats)) {
        if let Some(lap) = &mut self.lap {
            lap.leave(client);
        }
        let Some(sid) = self.clients.remove(&client).and_then(|s| s.session) else {
            return;
        };
        if let Some(stats) = lock_shared(&self.shared).get_mut(&sid) {
            mark(stats);
        }
    }

    /// Drops clients idle past the deadline: their sessions are marked
    /// closed + evicted and their response senders are dropped, so the
    /// client observes a severed channel on its next request.
    fn evict_idle(&mut self) {
        let Some(deadline) = self.cfg.idle_timeout else {
            return;
        };
        let now = Instant::now();
        let idle: Vec<u64> = self
            .clients
            .iter()
            .filter(|(_, state)| now.duration_since(state.last_active) >= deadline)
            .map(|(&client, _)| client)
            .collect();
        for client in idle {
            self.drop_client(client, |stats| {
                stats.closed = true;
                stats.evicted = true;
            });
        }
    }

    /// Sends `reply` (chunked if configured) for a frame of `bytes_in`
    /// bytes, and charges both — with whatever `charge` adds — to session
    /// `sid`. A dead channel forgets the client.
    fn answer(
        &mut self,
        client: u64,
        sid: Option<u64>,
        bytes_in: usize,
        reply: Vec<u8>,
        charge: impl FnOnce(&mut SessionStats),
    ) {
        let frames = chunk_reply(reply, self.cfg.chunk_bytes);
        if let Some(sid) = sid {
            let mut lock = lock_shared(&self.shared);
            let stats = lock.entry(sid).or_default();
            stats.bytes_in += bytes_in as u64;
            stats.bytes_out += frames.iter().map(|f| f.len() as u64).sum::<u64>();
            charge(stats);
        }
        let Some(state) = self.clients.get(&client) else {
            return;
        };
        if frames.into_iter().any(|f| state.resp.send(f).is_err()) {
            self.drop_client(client, |_| {});
        }
    }

    /// Every client frame's one path: the frames behind a riding round wait
    /// for its reply; the rest are admitted, and what is accepted rides the
    /// lap or is served on the spot, then settled.
    pub(super) fn on_frame(&mut self, client: u64, bytes: Vec<u8>) {
        let Some(state) = self.clients.get_mut(&client) else {
            return; // unknown client: nowhere to reply
        };
        state.last_active = Instant::now();
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
        // A lap over another file that the loop thread drives itself is a
        // pass or so from its end (a small file's only one, typically,
        // waiting for the queue to empty). Serving this round on the spot
        // instead — a whole sweep with the loop blocked, and nobody able to
        // join it — would cost more than finishing that lap first. Its riders
        // settle meanwhile; the frames behind them wait in the backlog, so
        // `self.reqs` is still this round's.
        while let Some(turn) = self
            .lap
            .as_mut()
            .filter(|l| !fits(l) && l.wants_turn())
            .and_then(Lap::turn)
        {
            self.on_turn(turn);
        }
        match &mut self.lap {
            Some(lap) if fits(lap) => {}
            // a lap is over one file of one generation: while somebody rides
            // it, rounds for any other are served on the spot
            Some(lap) if lap.is_ridden() => return Some(pending),
            stale => {
                let Some(next) = Lap::new(&gen, file, self.cpus) else {
                    return Some(pending);
                };
                if let Some(old) = stale {
                    old.retire();
                }
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
        lap.join(
            client,
            self.reqs.iter().map(|&(_, page)| page).collect(),
            &self.events,
        );
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
        if !self.lap.as_mut()?.landed(client) {
            return None;
        }
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
