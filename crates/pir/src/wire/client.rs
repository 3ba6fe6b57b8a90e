//! The client half of the wire: the [`FrameLink`] byte channel, the
//! in-process [`ChannelLink`], the [`RetryPolicy`] and the [`WireChannel`]
//! transport that drives every exchange through them.

use super::codec::{
    advance_seq, decode_error_frame, split_frame, transport_err, Request, ServerInfo, HEADER_BYTES,
    K_ACK, K_DOWNLOAD_RESP, K_ERROR, K_ROUND_RESP, K_SESSION_ACCEPT, SEQ_UNPARSED,
};
use super::front::ToServer;
use crate::error::PirError;
use crate::server::FileId;
use crate::spec::SystemSpec;
use crate::transport::Transport;
use crate::Result;
use privpath_storage::{ByteReader, PageBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

// -------------------------------------------------------------- frame link

/// A byte channel that carries whole frames between a client and a server
/// front. The production implementation is [`ChannelLink`]; chaos testing
/// wraps any link in a fault injector ([`crate::chaos::ChaosLink`]).
pub trait FrameLink: Send {
    /// Sends one frame. A retryable error ([`PirError::LinkDown`]) means
    /// the link refused the frame but may recover; a fatal error means the
    /// peer is gone.
    fn send(&mut self, frame: &[u8]) -> Result<()>;

    /// Receives one frame, waiting at most `timeout` (forever if `None`).
    /// [`PirError::Timeout`] if the window elapses; a fatal error if the
    /// peer is gone.
    fn recv(&mut self, timeout: Option<Duration>) -> Result<Vec<u8>>;
}

/// The in-process production link: an mpsc pair into the
/// [`ServerFront`](super::ServerFront) loop thread. Dropping it disconnects
/// the client from the loop.
pub struct ChannelLink {
    pub(super) to_server: mpsc::Sender<ToServer>,
    pub(super) resp: mpsc::Receiver<Vec<u8>>,
    pub(super) client: u64,
}

impl FrameLink for ChannelLink {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        self.to_server
            .send(ToServer::Frame {
                client: self.client,
                bytes: frame.to_vec(),
            })
            .map_err(|_| PirError::Transport("server disconnected".into()))
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Result<Vec<u8>> {
        match timeout {
            None => self
                .resp
                .recv()
                .map_err(|_| PirError::Transport("server disconnected".into())),
            Some(t) => match self.resp.recv_timeout(t) {
                Ok(r) => Ok(r),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    Err(PirError::Timeout(format!("no response within {t:?}")))
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    Err(PirError::Transport("server disconnected".into()))
                }
            },
        }
    }
}

impl Drop for ChannelLink {
    fn drop(&mut self) {
        let _ = self.to_server.send(ToServer::Disconnect {
            client: self.client,
        });
    }
}

// ------------------------------------------------------------ retry policy

/// How a [`WireChannel`] recovers from retryable link faults: up to
/// `max_attempts` sends of the *same* frame bytes, waiting `attempt_timeout`
/// for each response, sleeping a capped exponential backoff between
/// attempts, all bounded by an optional total `deadline`.
///
/// The default ([`RetryPolicy::none`]) is one attempt with an unbounded
/// wait — exactly the pre-retry perfect-link behavior, so existing callers
/// pay nothing.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (first try included). Minimum 1.
    pub max_attempts: u32,
    /// Per-attempt response window; `None` waits forever (only sensible
    /// with `max_attempts == 1`).
    pub attempt_timeout: Option<Duration>,
    /// Backoff before the second attempt; doubles each retry.
    pub backoff: Duration,
    /// Cap on the doubling backoff.
    pub backoff_cap: Duration,
    /// Total budget across all attempts and backoffs.
    pub deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

impl RetryPolicy {
    /// One attempt, unbounded wait: the legacy perfect-link behavior.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            attempt_timeout: None,
            backoff: Duration::ZERO,
            backoff_cap: Duration::ZERO,
            deadline: None,
        }
    }

    /// A policy tuned for the in-process chaos links used in tests: short
    /// attempt windows, millisecond backoffs, a generous overall deadline.
    /// Real network deployments would scale these to their RTT.
    pub fn resilient() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 16,
            attempt_timeout: Some(Duration::from_millis(40)),
            backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(16),
            deadline: Some(Duration::from_secs(30)),
        }
    }
}

// ------------------------------------------------------------ wire channel

enum AttemptOutcome {
    Reply(Vec<u8>),
    Retry(PirError),
}

/// A failed attempt: retried if the error is retryable, else the exchange's.
fn retry_or_fail(e: PirError) -> Result<AttemptOutcome> {
    if e.is_retryable() {
        Ok(AttemptOutcome::Retry(e))
    } else {
        Err(e)
    }
}

/// One client's end of the wire: a [`Transport`] whose every operation is a
/// frame exchange with the [`ServerFront`](super::ServerFront) loop thread over a pluggable
/// [`FrameLink`], recovered per its [`RetryPolicy`].
pub struct WireChannel {
    pub(super) link: Box<dyn FrameLink>,
    pub(super) session: u64,
    pub(super) info: Option<ServerInfo>,
    /// Sequence of the last request issued (0 before the handshake).
    pub(super) seq: u32,
    pub(super) policy: RetryPolicy,
    /// Retransmissions performed over the channel's lifetime.
    pub(super) retries: u64,
}

impl WireChannel {
    /// Performs the `SessionOpen`/`SessionAccept` handshake over `link` and
    /// returns the connected channel. The policy governs the handshake too.
    pub fn handshake(link: Box<dyn FrameLink>, policy: RetryPolicy) -> Result<WireChannel> {
        Self::handshake_expecting(link, policy, None)
    }

    /// [`WireChannel::handshake`] with an optional generation expectation:
    /// when `expected` is `Some(held)` and the server's accept carries a
    /// different generation id, the handshake fails with the typed
    /// retryable [`PirError::StaleGeneration`]. The exchange itself
    /// completed — staleness is judged on the *accepted* reply, never
    /// inside the retry loop — so the caller can refresh its expectation
    /// and reconnect without any protocol cleanup.
    pub(crate) fn handshake_expecting(
        link: Box<dyn FrameLink>,
        policy: RetryPolicy,
        expected: Option<u64>,
    ) -> Result<WireChannel> {
        let mut chan = WireChannel {
            link,
            session: 0,
            info: None,
            seq: 0,
            policy,
            retries: 0,
        };
        let reply = chan.request(Request::SessionOpen, &[], K_SESSION_ACCEPT)?;
        let mut r = ByteReader::new(&reply[HEADER_BYTES..]);
        chan.session = r.u64().map_err(PirError::from)?;
        chan.info = Some(ServerInfo::deserialize(&mut r)?);
        if let Some(held) = expected {
            let current = chan.generation();
            if current != held {
                return Err(PirError::StaleGeneration { held, current });
            }
        }
        Ok(chan)
    }

    /// The session id the server assigned at accept.
    pub fn session_id(&self) -> u64 {
        self.session
    }

    /// The database generation the server stamped on this channel's accept.
    /// Sessions are pinned: this never changes over the channel's lifetime,
    /// whatever the server swaps to afterwards.
    pub(crate) fn generation(&self) -> u64 {
        self.info().generation
    }

    pub(super) fn next_seq(&mut self) -> u32 {
        self.seq = advance_seq(self.seq);
        self.seq
    }

    /// Sends `request` as the next sequence number and returns its reply:
    /// a whole, verified frame of kind `want`, whose payload starts at
    /// [`HEADER_BYTES`].
    fn request(
        &mut self,
        request: Request,
        fetches: &[(FileId, u32)],
        want: u8,
    ) -> Result<Vec<u8>> {
        let seq = self.next_seq();
        let reply = self.exchange(request.encode(seq, fetches, false))?;
        // `exchange` verified the whole frame: byte 11 is its kind
        match reply[11] {
            kind if kind == want => Ok(reply),
            kind => transport_err(format!("expected frame kind {want}, got {kind}")),
        }
    }

    /// One logical request/response exchange, retried per the policy. The
    /// retransmitted bytes are always identical to the original frame — the
    /// server dedups by `seq` and replays its cached reply. The reply is a
    /// whole frame, verified once, that answers this `seq` and is no error.
    pub(super) fn exchange(&mut self, frame: Vec<u8>) -> Result<Vec<u8>> {
        let attempts = self.policy.max_attempts.max(1);
        let deadline = self.policy.deadline.map(|d| Instant::now() + d);
        let mut backoff = self.policy.backoff;
        let mut last_err: Option<PirError> = None;
        let mut attempts_done = 0u32;
        for attempt in 1..=attempts {
            if attempt > 1 {
                self.retries += 1;
                if let Some(dl) = deadline {
                    let now = Instant::now();
                    if now >= dl {
                        break;
                    }
                    std::thread::sleep(backoff.min(dl - now));
                } else {
                    std::thread::sleep(backoff);
                }
                backoff = (backoff * 2).min(self.policy.backoff_cap.max(self.policy.backoff));
            }
            attempts_done = attempt;
            match self.attempt_once(&frame, deadline)? {
                AttemptOutcome::Reply(reply) => return Ok(reply),
                AttemptOutcome::Retry(e) => last_err = Some(e),
            }
        }
        let last = last_err
            .unwrap_or_else(|| PirError::Timeout("deadline exceeded before first attempt".into()));
        if attempts == 1 {
            // Single-attempt policies surface the raw failure.
            return Err(last);
        }
        Err(PirError::Exhausted {
            attempts: attempts_done,
            last: Box::new(last),
        })
    }

    /// One send + matching-response wait. Stale frames (a `seq` that is not
    /// the current request's) are duplicates from an earlier exchange and
    /// are discarded without consuming the attempt.
    fn attempt_once(&mut self, frame: &[u8], deadline: Option<Instant>) -> Result<AttemptOutcome> {
        if let Err(e) = self.link.send(frame) {
            return retry_or_fail(e);
        }
        let attempt_deadline = match (self.policy.attempt_timeout, deadline) {
            (None, None) => None,
            (Some(t), None) => Some(Instant::now() + t),
            (None, Some(d)) => Some(d),
            (Some(t), Some(d)) => Some((Instant::now() + t).min(d)),
        };
        loop {
            let timeout = match attempt_deadline {
                None => None,
                Some(ad) => {
                    let now = Instant::now();
                    if now >= ad {
                        // An already-expired deadline must fail the attempt,
                        // not turn into a zero-duration recv that a link
                        // could satisfy instantly forever (or, for a real
                        // socket, an invalid zero read-timeout).
                        return Ok(AttemptOutcome::Retry(PirError::Timeout(
                            "attempt deadline expired before recv".into(),
                        )));
                    }
                    Some(ad - now)
                }
            };
            let reply = match self.link.recv(timeout) {
                Ok(r) => r,
                Err(e) => return retry_or_fail(e),
            };
            let f = match split_frame(&reply) {
                Ok(f) => f,
                Err(e) => return retry_or_fail(e),
            };
            if !f.rest.is_empty() {
                return Ok(AttemptOutcome::Retry(PirError::CorruptFrame(
                    "trailing bytes after response frame".into(),
                )));
            }
            if f.kind == K_ERROR && (f.seq == self.seq || f.seq == SEQ_UNPARSED) {
                return retry_or_fail(decode_error_frame(f.payload));
            }
            if f.kind != K_ERROR && f.seq == self.seq {
                return Ok(AttemptOutcome::Reply(reply));
            }
            // stale duplicate from an earlier exchange: discard, keep waiting
        }
    }

    /// Sends raw bytes (no seq stamping, no retries) and returns the raw
    /// reply. Robustness tests use this to feed the server arbitrary
    /// garbage; it deliberately bypasses every client-side protection.
    #[doc(hidden)]
    pub fn raw_exchange(&mut self, frame: &[u8]) -> Result<Vec<u8>> {
        self.link.send(frame)?;
        self.link.recv(None)
    }

    fn info(&self) -> &ServerInfo {
        self.info.as_ref().expect("handshake completed at connect")
    }
}

impl Transport for WireChannel {
    fn spec(&self) -> &SystemSpec {
        &self.info().spec
    }

    fn file_pages(&self, f: FileId) -> Result<u32> {
        self.info()
            .files
            .get(f.0 as usize)
            .map(|fi| fi.pages)
            .ok_or(PirError::UnknownFile(f.0))
    }

    fn begin_query(&mut self) -> Result<()> {
        let session = self.session;
        self.request(Request::QueryOpen { session }, &[], K_ACK)
            .map(drop)
    }

    fn serve_round(
        &mut self,
        round: u32,
        requests: &[(FileId, u32)],
        out: &mut [PageBuf],
    ) -> Result<()> {
        debug_assert_eq!(requests.len(), out.len());
        let session = self.session;
        let reply = self.request(Request::Round { session, round }, requests, K_ROUND_RESP)?;
        let mut r = ByteReader::new(&reply[HEADER_BYTES..]);
        let k = r.u32().map_err(PirError::from)? as usize;
        let page_size = r.u32().map_err(PirError::from)? as usize;
        if k != out.len() {
            return transport_err(format!("expected {} pages, got {k}", out.len()));
        }
        for buf in out.iter_mut() {
            let bytes = r.bytes(page_size).map_err(PirError::from)?;
            if buf.len() != page_size {
                *buf = PageBuf::zeroed(page_size);
            }
            buf.as_mut_slice().copy_from_slice(bytes);
        }
        Ok(())
    }

    fn download(&mut self, file: FileId) -> Result<Vec<u8>> {
        let session = self.session;
        let reply = self.request(Request::Download { session, file }, &[], K_DOWNLOAD_RESP)?;
        let mut r = ByteReader::new(&reply[HEADER_BYTES..]);
        Ok(r.len_bytes().map_err(PirError::from)?.to_vec())
    }

    fn close(&mut self) -> Result<()> {
        let session = self.session;
        self.request(Request::SessionClose { session }, &[], K_ACK)
            .map(drop)
    }

    fn retries(&self) -> u64 {
        self.retries
    }
}
