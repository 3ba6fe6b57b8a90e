//! The wire protocol: a versioned, length-prefixed binary frame codec and a
//! multi-client server front end serving frames from a loop thread.
//!
//! # Frame layout (version 4)
//!
//! Every frame is self-delimiting, versioned and integrity-checked (all
//! integers little-endian, hand-rolled through the same
//! [`ByteWriter`]/[`ByteReader`] codecs as the on-disk file formats):
//!
//! ```text
//! [ u32 len ][ u32 crc ][ u16 magic = 0x5057 "PW" ][ u8 version = 4 ]
//! [ u8 kind ][ u32 seq ][ payload ... ]
//! ```
//!
//! `len` counts every byte after the length field itself; `crc` is the
//! CRC-32 (IEEE) of every byte after the crc field, so any bit flip on the
//! link is detected structurally instead of being served as wrong data.
//! `seq` is a per-channel sequence number: the client stamps every request
//! with the next value (starting at 1 with `SessionOpen`) and every server
//! reply echoes the request's `seq`, so duplicated or late frames are
//! recognized on both sides. The frame kinds:
//!
//! | kind | frame              | dir | payload                                        |
//! |------|--------------------|-----|------------------------------------------------|
//! | 1    | `SessionOpen`      | c→s | —                                              |
//! | 2    | `SessionAccept`    | s→c | `u64 session`, [`ServerInfo`] (leads with the `u64` generation id) |
//! | 3    | `QueryOpen`        | c→s | `u64 session`                                  |
//! | 4    | `Ack`              | s→c | —                                              |
//! | 5    | `RoundRequest`     | c→s | `u64 session`, `u32 round`, `u32 k`, k × (`u16 file`, `u32 page`) |
//! | 6    | `RoundResponse`    | s→c | `u32 k`, `u32 page_size`, k × page bytes       |
//! | 7    | `DownloadRequest`  | c→s | `u64 session`, `u16 file`                      |
//! | 8    | `DownloadResponse` | s→c | `u32 n`, n bytes                               |
//! | 9    | `SessionClose`     | c→s | `u64 session`                                  |
//! | 10   | `Error`            | s→c | `u16 code`, `u32 n`, n message bytes           |
//! | 11   | `Chunk`            | s→c | `u32 index`, `u32 total`, `u32 n`, n bytes     |
//!
//! A `Chunk` frame carries one slice of a large server reply when the front
//! is configured with [`FrontConfig::chunk_bytes`]: the concatenated chunk
//! payloads (in index order, all echoing the request's `seq`) reassemble
//! into one complete inner frame — a full `RoundResponse` or
//! `DownloadResponse` with its own header and crc — so each chunk is
//! integrity-checked on the link by the outer crc and the whole reply is
//! checked once more by the inner one. Chunking bounds the peak bytes the
//! transport must buffer per reply; it never applies to client→server
//! frames, so the adversary-observable stream is unaffected.
//!
//! # Retransmission and idempotent replay
//!
//! The server keeps, per channel, the last accepted `seq` and the reply
//! bytes it produced for it. A request whose `seq` equals the last accepted
//! one is a retransmission (the response — or the request itself — was lost
//! in flight): the server re-sends the **cached reply verbatim**, touching
//! no store, so a shuffled store's epoch state never re-advances and the
//! page list re-served is bit-identical. A fresh request must carry exactly
//! `last + 1`; anything else is [`ERR_SEQ`]. The client side drives this
//! with a [`RetryPolicy`]: capped exponential backoff over a pluggable
//! [`FrameLink`] byte channel, resending the *same* frame bytes, so a
//! retransmission is indistinguishable (by content) from the original.
//!
//! # Versioning rules
//!
//! The version byte covers the whole frame set: any change to a payload
//! layout, a new frame kind, or a semantic change to an existing kind bumps
//! [`WIRE_VERSION`]. Version 2 added the crc and seq header fields plus the
//! replay semantics above; version 3 added the `Chunk` frame kind (chunked
//! response streaming); version 4 prefixed [`ServerInfo`] with the database
//! generation id (hot-swap staleness detection — see
//! [`crate::transport::GenerationSource`]). A server receiving a frame with an unknown
//! version (or bad magic) replies [`ERR_VERSION`]/[`ERR_MALFORMED`] and
//! serves nothing — there is no negotiation, by design: client and server
//! ship from one workspace, so a mismatch is a deployment bug to surface,
//! not paper over. A frame whose crc does not match is classified as
//! malformed (link corruption), never as a version mismatch — only a frame
//! with a *valid* crc and an unknown version byte earns [`ERR_VERSION`].
//!
//! # Generations and hot swap
//!
//! A front serves from a [`crate::transport::GenerationSource`]: a provider
//! of the *current* `(generation id, host)` pair. Static hosts are a
//! degenerate source that always answers generation 1, so the legacy
//! [`ServerFront::spawn`] path pays nothing. Each channel is **pinned** to
//! the generation current at its `SessionOpen`: every round, download and
//! replay of that session is served from the pinned host, so a mid-workload
//! swap never mixes generations inside one session (and a shuffled store's
//! epoch walk stays consistent — each generation owns its own stores). A
//! `SessionOpen` on a channel with no open session re-resolves the source,
//! which is the entire cutover: new sessions land on the new generation
//! while old sessions drain on the old one. The `SessionAccept` payload
//! leads with the generation id, so a client that held an expectation from
//! an earlier session detects staleness as a typed
//! [`PirError::StaleGeneration`] ([`WireChannel::handshake_expecting`])
//! instead of silently re-planning against changed data.
//!
//! # Shared laps
//!
//! The paper charges the server one pass over the file per round. Rounds of
//! *different* sessions over one linear-scan file need not each pay it: the
//! front keeps one rotating, segment-wise sweep per file in use
//! ([`crate::scan::Rotation`]), and a round that may share it — fresh, in
//! order, every fetch an in-range page of that one file, same generation —
//! **joins at the next segment boundary and leaves after exactly one lap**.
//! A round that finds nobody aboard is a lap from segment 0: the same
//! answers, the same `0..N` physical log and the same cost as serving it on
//! the spot, which is what every other round gets (several files in one
//! round, a stateful store, another file or generation than the lap in
//! progress). There is no window and nothing to tune: nobody waits for
//! company, and company that turns up mid-lap waits for one segment pass at
//! most. The riders' replies, masked streams, counters and replay caches are
//! settled by the loop thread in arrival order, exactly as the immediate
//! path would have — [`SessionStats::coalesced_rounds`] is the only trace a
//! shared lap leaves, and it is server-side accounting. What the *host*
//! observes is laps: which segments were swept in which order, a function of
//! when rounds arrived and never of what they asked for (`tests/leakage.rs`
//! pins both differentials). The passes run on a driver thread that lives
//! as long as somebody is aboard, so the loop keeps answering small
//! exchanges meanwhile; where the process has one CPU, or the file one
//! segment, the loop thread runs them itself, between frames (see the `lap`
//! submodule).
//!
//! # The adversary's view of the wire
//!
//! In the real protocol the page index inside a PIR request is hidden by the
//! PIR encoding itself; this simulation carries it in plaintext because the
//! server must actually serve the page. The *observable* projection of a
//! frame — what a curious server legitimately sees — is therefore the frame
//! bytes with the session id and every page index masked to zero (file ids,
//! fetch counts, round numbers, sequence numbers and frame kinds remain).
//! The server loop records exactly this projection per session — including
//! retransmissions, which the adversary also sees. Theorem 1 at the wire
//! level says the *logical* streams (deduplicated by `seq`, with every
//! retransmitted frame verified bit-identical to its original) are
//! byte-identical across sessions and queries, which `tests/leakage.rs`
//! enforces; retransmission is leakage-safe precisely because a resend
//! carries no new bytes and its timing depends only on the link, not the
//! query.

mod lap;
pub mod tcp;

use self::lap::{Lap, Riding, Turn};
use crate::error::PirError;
use crate::scan::Ride;
use crate::server::FileId;
use crate::spec::SystemSpec;
use crate::transport::{GenerationSource, ServeHost, StaticSource, Transport};
use crate::Result;
use privpath_storage::{crc32, ByteReader, ByteWriter, PageBuf};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Frame magic: "PW" little-endian.
pub const WIRE_MAGIC: u16 = 0x5057;
/// Current protocol version. Bump on any frame-layout or semantic change.
/// v2: per-frame CRC-32 + sequence numbers with idempotent server replay.
/// v3: `Chunk` frames — large server replies streamed as crc'd slices.
/// v4: `ServerInfo` leads with the database generation id (hot swap).
pub const WIRE_VERSION: u8 = 4;

/// Full header size: len + crc + magic + version + kind + seq.
const HEADER_BYTES: usize = 16;
/// Sentinel `seq` in an `Error` reply to a frame whose own seq could not be
/// parsed. Clients treat errors carrying it as applying to their current
/// outstanding request. Never generated as a request seq.
pub const SEQ_UNPARSED: u32 = u32::MAX;
/// Upper bound on a client→server frame the server will process. Request
/// frames are small (a round request is 6 bytes per fetch); anything larger
/// is garbage and is rejected before allocation-heavy parsing.
const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Advances a sequence number, skipping the two reserved values: 0 (the
/// pre-handshake state) and [`SEQ_UNPARSED`] (the error sentinel). Both
/// sides must agree on this walk — the client stamps requests with it and
/// the server computes the expected fresh seq with it — otherwise a channel
/// that wraps past `u32::MAX` desyncs: the client's `u32::MAX` request would
/// be indistinguishable from an unparseable-frame error echo, and the
/// `wrapping_add(1)` successor 0 is likewise reserved.
fn advance_seq(seq: u32) -> u32 {
    let mut next = seq.wrapping_add(1);
    while next == 0 || next == SEQ_UNPARSED {
        next = next.wrapping_add(1);
    }
    next
}

const K_SESSION_OPEN: u8 = 1;
const K_SESSION_ACCEPT: u8 = 2;
const K_QUERY_OPEN: u8 = 3;
const K_ACK: u8 = 4;
const K_ROUND_REQ: u8 = 5;
const K_ROUND_RESP: u8 = 6;
const K_DOWNLOAD_REQ: u8 = 7;
const K_DOWNLOAD_RESP: u8 = 8;
const K_SESSION_CLOSE: u8 = 9;
const K_ERROR: u8 = 10;
const K_CHUNK: u8 = 11;

/// Error frame codes.
pub const ERR_VERSION: u16 = 1;
/// Malformed frame (bad magic, crc mismatch, truncated payload, unknown
/// kind). The one *retryable* server error: the client sent a well-formed
/// frame, so malformed-at-server means the link corrupted it in flight.
pub const ERR_MALFORMED: u16 = 2;
/// Frame names a session the server does not have open for this client.
pub const ERR_SESSION: u16 = 3;
/// Round number went backwards or skipped ahead.
pub const ERR_ROUND_ORDER: u16 = 4;
/// Serving failed (unknown file, storage error, poisoned store).
pub const ERR_SERVE: u16 = 5;
/// Sequence number is neither the last accepted one (a retransmission) nor
/// the next fresh one.
pub const ERR_SEQ: u16 = 6;
/// The session's handler panicked; the server tore the session down and
/// stayed live for everyone else.
pub const ERR_INTERNAL: u16 = 7;
/// Serving failed with a *transient* storage fault (an interrupted disk
/// read). Retryable: the server deliberately did **not** cache this reply
/// as the request's sequence number, so the client's retransmission of the
/// same frame bytes re-executes the serve instead of replaying the failure.
pub const ERR_SERVE_TRANSIENT: u16 = 8;

/// What the server publishes to every client at session accept: the Table 2
/// system constants and the file table (name + page count per file). All of
/// it is public by construction — the client prices its fetches from the
/// spec and the header already names every file — so shipping it at open
/// leaks nothing and lets the client compute bit-identical simulated costs
/// on either side of the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerInfo {
    /// The database generation this server is serving (1 for a static host;
    /// a hot-swappable front stamps the generation current at session
    /// accept). Clients compare it against a held expectation to detect a
    /// swap ([`PirError::StaleGeneration`]).
    pub generation: u64,
    /// The server's system spec.
    pub spec: SystemSpec,
    /// Per-file metadata, indexed by `FileId.0`.
    pub files: Vec<FileInfo>,
}

/// One served file's public metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct FileInfo {
    /// Diagnostic name ("Fh", "Fl", "Fi", "Fd", "Fi|Fd").
    pub name: String,
    /// Page count.
    pub pages: u32,
}

impl ServerInfo {
    /// Snapshot of a server's public metadata, as generation 1 (the static
    /// single-generation case).
    pub fn of(server: &crate::server::PirServer) -> ServerInfo {
        Self::of_generation(server, 1)
    }

    /// Snapshot of a server's public metadata, stamped with an explicit
    /// generation id (hot-swappable fronts stamp each generation's entry).
    pub fn of_generation(server: &crate::server::PirServer, generation: u64) -> ServerInfo {
        let files = (0..server.num_files() as u16)
            .map(|i| FileInfo {
                name: server
                    .file_name(FileId(i))
                    .expect("file exists")
                    .to_string(),
                pages: server.file_pages(FileId(i)).expect("file exists"),
            })
            .collect();
        ServerInfo {
            generation,
            spec: server.spec().clone(),
            files,
        }
    }

    fn serialize(&self, w: &mut ByteWriter) {
        w.u64(self.generation);
        let s = &self.spec;
        w.u64(s.page_size as u64);
        w.f64(s.disk_seek_s);
        w.f64(s.disk_rate_bps);
        w.f64(s.scp_io_rate_bps);
        w.f64(s.crypto_rate_bps);
        w.f64(s.comm_rtt_s);
        w.f64(s.comm_rate_bps);
        w.u64(s.scp_memory_bytes);
        w.f64(s.scp_mem_factor);
        w.f64(s.pir_fixed_ops);
        w.f64(s.pir_ops_per_log2sq);
        w.u16(self.files.len() as u16);
        for f in &self.files {
            w.len_bytes(f.name.as_bytes());
            w.u32(f.pages);
        }
    }

    fn deserialize(r: &mut ByteReader<'_>) -> Result<ServerInfo> {
        let generation = r.u64()?;
        let spec = SystemSpec {
            page_size: r.u64()? as usize,
            disk_seek_s: r.f64()?,
            disk_rate_bps: r.f64()?,
            scp_io_rate_bps: r.f64()?,
            crypto_rate_bps: r.f64()?,
            comm_rtt_s: r.f64()?,
            comm_rate_bps: r.f64()?,
            scp_memory_bytes: r.u64()?,
            scp_mem_factor: r.f64()?,
            pir_fixed_ops: r.f64()?,
            pir_ops_per_log2sq: r.f64()?,
        };
        let n = r.u16()? as usize;
        let mut files = Vec::with_capacity(n);
        for _ in 0..n {
            let name = String::from_utf8_lossy(r.len_bytes()?).into_owned();
            let pages = r.u32()?;
            files.push(FileInfo { name, pages });
        }
        Ok(ServerInfo {
            generation,
            spec,
            files,
        })
    }
}

// ---------------------------------------------------------------- encoding

fn begin_frame(kind: u8, seq: u32) -> ByteWriter {
    let mut w = ByteWriter::new();
    w.u32(0); // length placeholder
    w.u32(0); // crc placeholder
    w.u16(WIRE_MAGIC);
    w.u8(WIRE_VERSION);
    w.u8(kind);
    w.u32(seq);
    w
}

fn finish_frame(mut w: ByteWriter) -> Vec<u8> {
    let len = (w.len() - 4) as u32;
    w.patch_u32(0, len);
    let crc = crc32(&w.as_slice()[8..]);
    w.patch_u32(4, crc);
    w.into_vec()
}

fn encode_session_open(seq: u32) -> Vec<u8> {
    finish_frame(begin_frame(K_SESSION_OPEN, seq))
}

fn encode_session_accept(seq: u32, session: u64, info: &ServerInfo) -> Vec<u8> {
    let mut w = begin_frame(K_SESSION_ACCEPT, seq);
    w.u64(session);
    info.serialize(&mut w);
    finish_frame(w)
}

fn encode_query_open(seq: u32, session: u64) -> Vec<u8> {
    let mut w = begin_frame(K_QUERY_OPEN, seq);
    w.u64(session);
    finish_frame(w)
}

fn encode_ack(seq: u32) -> Vec<u8> {
    finish_frame(begin_frame(K_ACK, seq))
}

/// Encodes a round request. `mask_pages` replaces every page index with 0 —
/// the observable projection the server records (the PIR encoding hides the
/// page index from a real server; see the module docs).
fn encode_round_request(
    seq: u32,
    session: u64,
    round: u32,
    fetches: &[(FileId, u32)],
    mask_pages: bool,
) -> Vec<u8> {
    let mut w = begin_frame(K_ROUND_REQ, seq);
    w.u64(session);
    w.u32(round);
    w.u32(fetches.len() as u32);
    for &(f, page) in fetches {
        w.u16(f.0);
        w.u32(if mask_pages { 0 } else { page });
    }
    finish_frame(w)
}

fn encode_round_response<'a>(
    seq: u32,
    page_size: usize,
    pages: impl ExactSizeIterator<Item = &'a [u8]>,
) -> Vec<u8> {
    let mut w = begin_frame(K_ROUND_RESP, seq);
    w.u32(pages.len() as u32);
    w.u32(page_size as u32);
    for p in pages {
        w.bytes(p);
    }
    finish_frame(w)
}

fn encode_download_request(seq: u32, session: u64, file: FileId) -> Vec<u8> {
    let mut w = begin_frame(K_DOWNLOAD_REQ, seq);
    w.u64(session);
    w.u16(file.0);
    finish_frame(w)
}

fn encode_download_response(seq: u32, bytes: &[u8]) -> Vec<u8> {
    let mut w = begin_frame(K_DOWNLOAD_RESP, seq);
    w.len_bytes(bytes);
    finish_frame(w)
}

fn encode_session_close(seq: u32, session: u64) -> Vec<u8> {
    let mut w = begin_frame(K_SESSION_CLOSE, seq);
    w.u64(session);
    finish_frame(w)
}

fn encode_error(seq: u32, code: u16, message: &str) -> Vec<u8> {
    let mut w = begin_frame(K_ERROR, seq);
    w.u16(code);
    w.len_bytes(message.as_bytes());
    finish_frame(w)
}

/// Splits one server reply into the frames actually put on the link: the
/// reply itself when it fits `chunk_bytes` (or chunking is off), else a run
/// of `Chunk` frames whose concatenated payload slices reassemble into the
/// complete reply frame. Deterministic, so a retransmitted reply re-chunks
/// into bit-identical frames.
fn chunk_reply(reply: Vec<u8>, chunk_bytes: Option<usize>) -> Vec<Vec<u8>> {
    let cap = match chunk_bytes {
        Some(cap) if cap > 0 && reply.len() > cap => cap,
        _ => return vec![reply],
    };
    let seq = u32::from_le_bytes([reply[12], reply[13], reply[14], reply[15]]);
    let total = reply.len().div_ceil(cap) as u32;
    reply
        .chunks(cap)
        .enumerate()
        .map(|(i, part)| {
            let mut w = begin_frame(K_CHUNK, seq);
            w.u32(i as u32);
            w.u32(total);
            w.len_bytes(part);
            finish_frame(w)
        })
        .collect()
}

// ---------------------------------------------------------------- decoding

fn transport_err<T>(msg: impl Into<String>) -> Result<T> {
    Err(PirError::Transport(msg.into()))
}

fn corrupt_err<T>(msg: impl Into<String>) -> Result<T> {
    Err(PirError::CorruptFrame(msg.into()))
}

/// One frame parsed off a byte stream.
#[derive(Debug)]
pub struct Frame<'a> {
    /// Frame kind byte.
    pub kind: u8,
    /// Sequence number (request seq, or the echoed seq in a reply).
    pub seq: u32,
    /// Payload after the header.
    pub payload: &'a [u8],
    /// Bytes after this frame (for concatenated streams).
    pub rest: &'a [u8],
}

/// Splits one frame off `bytes`: validates length, crc, magic and version,
/// and returns the parsed [`Frame`]. Structural failures (truncation, crc
/// mismatch, bad magic) are [`PirError::CorruptFrame`] — retryable, because
/// re-requesting makes the peer resend intact bytes — while a *valid* frame
/// claiming an unknown version is a fatal [`PirError::Transport`]
/// deployment error. Never panics, whatever the input.
pub fn split_frame(bytes: &[u8]) -> Result<Frame<'_>> {
    if bytes.len() < HEADER_BYTES {
        return corrupt_err("truncated frame header");
    }
    let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    if len < HEADER_BYTES - 4 || bytes.len() - 4 < len {
        return corrupt_err(format!(
            "frame length {len} does not fit buffer of {}",
            bytes.len()
        ));
    }
    let crc = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if crc32(&bytes[8..4 + len]) != crc {
        return corrupt_err("frame crc mismatch");
    }
    let magic = u16::from_le_bytes([bytes[8], bytes[9]]);
    if magic != WIRE_MAGIC {
        return corrupt_err(format!("bad frame magic {magic:#06x}"));
    }
    let version = bytes[10];
    if version != WIRE_VERSION {
        return Err(PirError::Transport(format!(
            "unsupported wire version {version} (supported: {WIRE_VERSION})"
        )));
    }
    let kind = bytes[11];
    let seq = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
    Ok(Frame {
        kind,
        seq,
        payload: &bytes[HEADER_BYTES..4 + len],
        rest: &bytes[4 + len..],
    })
}

/// True if `bytes` is best explained as a well-formed frame from a
/// different protocol version (a deployment bug), as opposed to link
/// corruption: either a pre-v2 layout (magic at offset 4) or a v2-layout
/// frame whose crc *validates* but whose version byte is unknown. A crc
/// mismatch always classifies as corruption, so a bit flip on the version
/// byte stays retryable.
fn looks_like_version_mismatch(bytes: &[u8]) -> bool {
    if bytes.len() >= HEADER_BYTES && bytes[8..10] == WIRE_MAGIC.to_le_bytes() {
        if bytes[10] == WIRE_VERSION {
            return false;
        }
        let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        let crc = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        return len >= HEADER_BYTES - 4
            && bytes.len() - 4 >= len
            && crc32(&bytes[8..4 + len]) == crc;
    }
    // pre-v2 layout: [len][magic][version][kind]
    bytes.len() >= 7 && bytes[4..6] == WIRE_MAGIC.to_le_bytes() && bytes[6] != WIRE_VERSION
}

// ------------------------------------------------------- observable stream

/// One adversary-observable wire event, parsed back from a recorded
/// (masked) frame stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObservedEvent {
    /// A client opened a session.
    SessionOpen,
    /// A client announced a new query (the round-1 connection exchange).
    QueryOpen,
    /// One round exchange: the round number and the *files* fetched, in
    /// order. Page indices are not part of the view (masked to zero in the
    /// recorded stream) — that is the PIR guarantee.
    Round {
        /// Protocol round this exchange belongs to (several exchanges may
        /// share a round — sub-round batches).
        round: u32,
        /// File of each fetch, in issue order.
        fetches: Vec<FileId>,
    },
    /// A full-file download (the header).
    Download(FileId),
    /// The client closed the session.
    SessionClose,
}

fn decode_observed_event(kind: u8, payload: &[u8]) -> Result<ObservedEvent> {
    let mut r = ByteReader::new(payload);
    Ok(match kind {
        K_SESSION_OPEN => ObservedEvent::SessionOpen,
        K_QUERY_OPEN => ObservedEvent::QueryOpen,
        K_ROUND_REQ => {
            let _session = r.u64().map_err(PirError::from)?;
            let round = r.u32().map_err(PirError::from)?;
            let k = r.u32().map_err(PirError::from)? as usize;
            let mut fetches = Vec::with_capacity(k.min(payload.len() / 6 + 1));
            for _ in 0..k {
                let f = r.u16().map_err(PirError::from)?;
                let _page = r.u32().map_err(PirError::from)?;
                fetches.push(FileId(f));
            }
            ObservedEvent::Round { round, fetches }
        }
        K_DOWNLOAD_REQ => {
            let _session = r.u64().map_err(PirError::from)?;
            ObservedEvent::Download(FileId(r.u16().map_err(PirError::from)?))
        }
        K_SESSION_CLOSE => ObservedEvent::SessionClose,
        k => return transport_err(format!("unexpected kind {k} in observed stream")),
    })
}

/// Parses a recorded observable stream (concatenated masked frames) back
/// into the **logical** event sequence for audits: retransmissions — frames
/// carrying the same `seq` as their predecessor — are deduplicated after
/// verifying they are *bit-identical* to the original (a "retransmission"
/// that differs would be new information flowing to the server, i.e. a
/// leak, and is reported as an error). Sequence numbers may skip forward
/// (rejected frames are not recorded) but never move backwards.
pub fn parse_observed(mut stream: &[u8]) -> Result<Vec<ObservedEvent>> {
    let mut events = Vec::new();
    let mut last: Option<(u32, Vec<u8>)> = None;
    while !stream.is_empty() {
        let f = split_frame(stream)?;
        let frame_bytes = &stream[..stream.len() - f.rest.len()];
        let rest = f.rest;
        if let Some((last_seq, last_bytes)) = &last {
            if f.seq == *last_seq {
                if frame_bytes != last_bytes.as_slice() {
                    return transport_err(format!(
                        "retransmission of seq {} differs from the original frame (leak)",
                        f.seq
                    ));
                }
                stream = rest;
                continue;
            }
            if f.seq < *last_seq {
                return transport_err(format!(
                    "observed seq went backwards: {} after {last_seq}",
                    f.seq
                ));
            }
        }
        let event = decode_observed_event(f.kind, f.payload)?;
        last = Some((f.seq, frame_bytes.to_vec()));
        events.push(event);
        stream = rest;
    }
    Ok(events)
}

/// Parses a recorded observable stream *without* deduplication: one
/// `(seq, event)` per recorded frame, retransmissions included. Used by
/// tests asserting on raw retransmission structure.
pub fn parse_observed_raw(mut stream: &[u8]) -> Result<Vec<(u32, ObservedEvent)>> {
    let mut events = Vec::new();
    while !stream.is_empty() {
        let f = split_frame(stream)?;
        events.push((f.seq, decode_observed_event(f.kind, f.payload)?));
        stream = f.rest;
    }
    Ok(events)
}

// ------------------------------------------------------------ server front

/// Per-session accounting the server keeps on its side of the wire (the
/// client keeps its own meter; the two views must agree, and tests check
/// they do).
#[derive(Debug, Clone, Default)]
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

#[derive(Default)]
struct FrontShared {
    sessions: BTreeMap<u64, SessionStats>,
}

/// Poison-recovering lock: a panicking session handler must not take the
/// accounting table (and with it the whole front) down, so a poisoned
/// mutex's data is recovered and used as-is — the table holds only
/// monotonic counters and append-only streams, all valid at any
/// interleaving point.
fn lock_shared(shared: &Mutex<FrontShared>) -> MutexGuard<'_, FrontShared> {
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
    /// Stream server replies larger than this as [`K_CHUNK`]-framed slices
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
    shared: Arc<Mutex<FrontShared>>,
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
    fn spawn_on(source: Arc<dyn GenerationSource>, cfg: FrontConfig, cpus: usize) -> ServerFront {
        let (tx, rx) = mpsc::channel();
        let shared = Arc::new(Mutex::new(FrontShared::default()));
        let front = Front {
            latest: GenEntry::resolve(&*source),
            source,
            shared: Arc::clone(&shared),
            cfg,
            cpus,
            events: tx.clone(),
            clients: BTreeMap::new(),
            next_session: 1,
            reqs: Vec::new(),
            run_pages: Vec::new(),
            arena: Vec::new(),
            lap: None,
            spare: Vec::new(),
            next_ride: 0,
            draining: false,
        };
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
        lock_shared(&self.shared).sessions.clone()
    }

    /// The recorded observable frame stream of one session (None if the
    /// session id was never opened).
    pub fn observed_stream(&self, session: u64) -> Option<Vec<u8>> {
        lock_shared(&self.shared)
            .sessions
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
        lock_shared(&self.shared).sessions.clone()
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

fn decode_unexpected<T>(kind: u8, payload: &[u8], wanted: &str) -> Result<T> {
    if kind == K_ERROR {
        return Err(decode_error_frame(payload));
    }
    transport_err(format!("expected {wanted}, got frame kind {kind}"))
}

/// Decodes an `Error` frame payload into the typed error it stands for:
/// [`ERR_MALFORMED`] means the link corrupted our well-formed request
/// (retryable [`PirError::CorruptFrame`]); [`ERR_SERVE_TRANSIENT`] means a
/// transient storage fault the server did not cache (retryable
/// [`PirError::TransientIo`] — the retransmission re-executes the serve);
/// every other code is a fatal [`PirError::Transport`].
fn decode_error_frame(payload: &[u8]) -> PirError {
    let mut r = ByteReader::new(payload);
    let Ok(code) = r.u16() else {
        return PirError::CorruptFrame("truncated error frame".into());
    };
    let msg = r
        .len_bytes()
        .map(|b| String::from_utf8_lossy(b).into_owned())
        .unwrap_or_default();
    match code {
        ERR_MALFORMED => PirError::CorruptFrame(format!("server error {code}: {msg}")),
        ERR_SERVE_TRANSIENT => PirError::TransientIo(format!("server error {code}: {msg}")),
        _ => PirError::Transport(format!("server error {code}: {msg}")),
    }
}

/// One resolved generation as the loop serves it: the id, the host pinned
/// alive for as long as any session still drains on it, and the metadata
/// derived from it once (not per frame). Sessions hold an `Arc<GenEntry>`,
/// so an old generation's stores stay allocated exactly until the last
/// pinned session is gone.
struct GenEntry {
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

    fn resolve(source: &dyn GenerationSource) -> Arc<GenEntry> {
        let (id, host) = source.current_generation();
        Arc::new(GenEntry::new(id, host))
    }

    fn server(&self) -> &crate::server::PirServer {
        self.host.pir_server()
    }
}

struct ClientState {
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
    last_seq: u32,
    last_reply: Vec<u8>,
    /// The masked observation recorded for the last accepted request, if it
    /// was recorded, so a retransmission is observed again (the adversary
    /// sees it) on the right session's stream.
    last_observed: Option<(u64, Vec<u8>)>,
    /// When the client last sent a frame (idle-eviction clock).
    last_active: Instant,
}

/// The loop thread's state: the sessions, the serving scratch and the lap
/// rounds share.
struct Front {
    source: Arc<dyn GenerationSource>,
    shared: Arc<Mutex<FrontShared>>,
    cfg: FrontConfig,
    /// CPUs the process may use. With one, no lap gets a driver thread: the
    /// loop thread runs every pass itself.
    cpus: usize,
    /// The loop's own queue, for a lap's driver thread to report to.
    events: mpsc::Sender<ToServer>,
    latest: Arc<GenEntry>,
    clients: BTreeMap<u64, ClientState>,
    next_session: u64,
    // serving scratch of the immediate path, reused across clients and frames
    reqs: Vec<(FileId, u32)>,
    run_pages: Vec<u32>,
    arena: Vec<PageBuf>,
    /// The rotation in progress, or the last one.
    lap: Option<Lap>,
    /// Settled rides, kept for their buffers: the next round to join any lap
    /// rides in one, so that rounds that alternate between files allocate
    /// no page buffers either.
    spare: Vec<Ride>,
    /// The id the last round rode under. One numbering for every lap, so
    /// that a late report of a lap since replaced names nobody.
    next_ride: u64,
    /// Shutdown received: serve what is queued and owed, then stop.
    draining: bool,
}

impl Front {
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
            if let Some(tick) = tick {
                if !self.draining && last_sweep.elapsed() >= tick {
                    self.evict_idle();
                    last_sweep = Instant::now();
                }
            }
            let riding = self.lap.as_ref().is_some_and(|l| !l.riding.is_empty());
            let msg = if self.lap.as_ref().is_some_and(Lap::wants_turn) {
                // The loop thread drives the lap: every queued frame first —
                // rounds among them ride from this boundary on — then one
                // segment pass.
                match rx.try_recv() {
                    Ok(m) => m,
                    Err(_) => {
                        let lap = self.lap.as_mut().expect("a lap wants its turn");
                        if let Some(turn) = lap.turn() {
                            self.settle(turn);
                        }
                        continue;
                    }
                }
            } else if self.draining && !riding {
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
                ToServer::Connect { client, resp } => {
                    self.clients.insert(
                        client,
                        ClientState {
                            resp,
                            session: None,
                            gen: Arc::clone(&self.latest),
                            last_round: 0,
                            last_seq: 0,
                            last_reply: Vec::new(),
                            last_observed: None,
                            last_active: Instant::now(),
                        },
                    );
                }
                ToServer::Disconnect { client } => self.drop_client(client, |stats| {
                    stats.closed = true;
                }),
                // every ride is finished before the loop stops: `riding`
                // keeps it from breaking, and the queue is served meanwhile
                ToServer::Shutdown => self.draining = true,
                ToServer::Frame { client, bytes } => self.on_frame(client, bytes),
                ToServer::Lap(turn) => self.settle(turn),
            }
        }
        if let Some(lap) = &mut self.lap {
            lap.retire();
        }
        // graceful shutdown: mark every open session closed
        let mut lock = lock_shared(&self.shared);
        for state in self.clients.values() {
            if let Some(sid) = state.session {
                if let Some(stats) = lock.sessions.get_mut(&sid) {
                    stats.closed = true;
                }
            }
        }
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
        if let Some(stats) = lock_shared(&self.shared).sessions.get_mut(&sid) {
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

    /// Sends a reply's frames; a dead channel forgets the client.
    fn send(&mut self, client: u64, frames: Vec<Vec<u8>>) {
        let Some(state) = self.clients.get(&client) else {
            return;
        };
        if frames.into_iter().any(|f| state.resp.send(f).is_err()) {
            self.drop_client(client, |_| {});
        }
    }

    /// Tears down the session a panic was caught on: the client gets
    /// [`ERR_INTERNAL`] and is forgotten; everyone else keeps being served.
    fn tear_down(&mut self, client: u64, sid: Option<u64>) {
        if let Some(sid) = sid {
            if let Some(stats) = lock_shared(&self.shared).sessions.get_mut(&sid) {
                stats.panics += 1;
                stats.closed = true;
            }
        }
        if let Some(state) = self.clients.get(&client) {
            let _ = state.resp.send(encode_error(
                SEQ_UNPARSED,
                ERR_INTERNAL,
                "handler panicked; session torn down",
            ));
        }
        self.drop_client(client, |_| {});
    }

    fn on_frame(&mut self, client: u64, bytes: Vec<u8>) {
        let Some(state) = self.clients.get_mut(&client) else {
            return; // unknown client: nowhere to reply
        };
        state.last_active = Instant::now();
        if let Some(lap) = &mut self.lap {
            if let Some(riding) = lap.riding.iter_mut().find(|r| r.client == client) {
                if riding.bytes == bytes {
                    // Retransmission of the riding request (the client's
                    // attempt window elapsed mid-lap): the end of the ride
                    // will answer it; serving it now would serve the round
                    // twice.
                    if let Some(stats) = lock_shared(&self.shared).sessions.get_mut(&riding.sid) {
                        stats.retransmits += 1;
                    }
                } else {
                    riding.after.push(bytes);
                }
                return;
            }
        }
        // The cutover point: a SessionOpen on a channel with no open session
        // re-resolves the source and re-pins the channel, so sessions opened
        // after a swap serve the new generation. The open-session guard
        // keeps a *retransmitted* SessionOpen from re-pinning a live
        // session; the unvalidated kind-byte peek is only a hint — worst
        // case a malformed frame re-pins a sessionless channel, which
        // changes nothing.
        if bytes.len() >= HEADER_BYTES && bytes[11] == K_SESSION_OPEN && state.session.is_none() {
            let (cur_id, cur_host) = self.source.current_generation();
            if cur_id != self.latest.id {
                self.latest = Arc::new(GenEntry::new(cur_id, cur_host));
            }
            state.gen = Arc::clone(&self.latest);
        }
        let bytes = match self.try_join(client, bytes) {
            Ok(()) => return,
            Err(bytes) => bytes,
        };
        let Some(state) = self.clients.get_mut(&client) else {
            return;
        };
        let session_before = state.session;
        let gen = Arc::clone(&state.gen);
        // A panicking handler (a buggy or sabotaged store) must not kill the
        // loop: catch it, tear down this session only, and keep serving
        // everyone else. The scratch vectors are safe to reuse — every
        // handler clears them before use.
        let reply = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_frame(
                &gen,
                &self.shared,
                state,
                &mut self.next_session,
                &bytes,
                &mut self.reqs,
                &mut self.run_pages,
                &mut self.arena,
            )
        }));
        // attribute the frame to its session: the one open before it (covers
        // SessionClose, which clears it) or the one it just opened
        let sid = session_before.or(state.session);
        match reply {
            Ok(reply) => {
                let frames = chunk_reply(reply, self.cfg.chunk_bytes);
                let out_len: usize = frames.iter().map(|f| f.len()).sum();
                if let Some(sid) = sid {
                    if let Some(stats) = lock_shared(&self.shared).sessions.get_mut(&sid) {
                        stats.bytes_in += bytes.len() as u64;
                        stats.bytes_out += out_len as u64;
                    }
                }
                self.send(client, frames);
            }
            Err(_) => self.tear_down(client, sid),
        }
    }

    /// Takes a round aboard the lap instead of serving it on the spot, when
    /// it can share one: a fresh, well-formed `RoundRequest` for this
    /// channel's open session, in round order, whose every fetch is an
    /// in-range page of one file that shares laps — the file and generation
    /// the lap in progress is over, or any while nobody rides. Anything else
    /// — retransmissions, protocol errors, stateful stores (a shuffled
    /// store's epoch must advance per-client, in order), rounds over several
    /// files, pages out of range (one client's bad fetch must never fail a
    /// neighbour's lap) — gets its frame back and takes the immediate path,
    /// which produces the authoritative reply. On success the round-order
    /// cursor advances; every other side effect happens when the ride ends.
    fn try_join(&mut self, client: u64, bytes: Vec<u8>) -> std::result::Result<(), Vec<u8>> {
        let mut joinable = self.joinable(client, &bytes);
        if let Some(Err(InTheWay)) = joinable {
            // A lap over another file that the loop thread drives itself is a
            // pass or so from its end (a small file's only one, typically,
            // waiting for the queue to empty). Serving this round on the spot
            // instead — a whole sweep with the loop blocked, and nobody able
            // to join it — would cost more than finishing that lap first.
            let own = |lap: &mut Lap| lap.wants_turn().then(|| lap.turn()).flatten();
            while let Some(turn) = self.lap.as_mut().and_then(own) {
                self.settle(turn);
            }
            joinable = self.joinable(client, &bytes);
        }
        let Some(Ok((mut riding, pages))) = joinable else {
            return Err(bytes);
        };
        riding.bytes = bytes;
        let lap = self.lap.as_mut().expect("a joinable round has its lap");
        if let Some(ride) = self.spare.pop() {
            lap.recycle(ride);
        }
        lap.join(riding, pages, &self.events);
        Ok(())
    }

    /// The checks of [`Front::try_join`]: `None` for a round that may not
    /// share a lap, `InTheWay` for one that could if the loop thread's own
    /// lap over another file were over. On success the lap is the one to
    /// join and the round cursor has advanced.
    fn joinable(
        &mut self,
        client: u64,
        bytes: &[u8],
    ) -> Option<std::result::Result<(Riding, Vec<u32>), InTheWay>> {
        if self.draining || bytes.len() > MAX_REQUEST_BYTES {
            return None;
        }
        let state = self.clients.get_mut(&client)?;
        let frame = split_frame(bytes).ok()?;
        if frame.kind != K_ROUND_REQ || !frame.rest.is_empty() {
            return None;
        }
        let seq = frame.seq;
        if seq == 0 || seq == SEQ_UNPARSED || seq != advance_seq(state.last_seq) {
            return None;
        }
        let mut r = ByteReader::new(frame.payload);
        let (sid, round, k) = (r.u64().ok()?, r.u32().ok()?, r.u32().ok()? as usize);
        if state.session != Some(sid) {
            return None;
        }
        if round != state.last_round && round != state.last_round + 1 {
            return None;
        }
        let server = state.gen.server();
        let mut pages = Vec::with_capacity(k.min(bytes.len() / 6 + 1));
        self.reqs.clear();
        for _ in 0..k {
            let (f, page) = (FileId(r.u16().ok()?), r.u32().ok()?);
            if page >= server.file_pages(f).ok()? {
                return None;
            }
            self.reqs.push((f, page));
            pages.push(page);
        }
        let file = self.reqs.first()?.0;
        if self.reqs.iter().any(|&(f, _)| f != file) {
            return None;
        }
        // a lap is over one file of one generation: while somebody rides it,
        // rounds for any other are served on the spot
        let fits = |lap: &Lap| lap.file == file && lap.gen.id == state.gen.id;
        match &mut self.lap {
            Some(lap) if fits(lap) => {}
            Some(lap) if lap.wants_turn() => return Some(Err(InTheWay)),
            Some(lap) if !lap.riding.is_empty() => return None,
            stale => {
                let next = Lap::new(&state.gen, file, self.cpus)?;
                if let Some(old) = stale {
                    old.retire();
                }
                *stale = Some(next);
            }
        }
        let new_round = round == state.last_round + 1;
        state.last_round = round;
        self.next_ride += 1;
        let riding = Riding {
            ride: self.next_ride,
            client,
            sid,
            seq,
            bytes: Vec::new(),
            new_round,
            fetches: k,
            masked: encode_round_request(seq, 0, round, &self.reqs, true),
            after: Vec::new(),
        };
        Some(Ok((riding, pages)))
    }

    /// Settles what one pass of the lap came to, every round in arrival
    /// order and exactly as the immediate path would have: observation
    /// recorded, stats advanced, replay cache updated, reply (chunked if
    /// configured) sent — then the frames the client sent meanwhile.
    fn settle(&mut self, turn: Turn) {
        let Some(lap) = &mut self.lap else { return };
        let page_size = lap.gen.page_size;
        // every round of the turn comes off the lap before any is settled:
        // settling hands the client's waiting frames on, which must find the
        // lap as the turn left it
        let mut landed: Vec<Landed> = Vec::new();
        match turn {
            Turn::Done(rides) => {
                for ride in &rides {
                    if let Some(riding) = lap.landed(ride.id()) {
                        let reply = encode_round_response(
                            riding.seq,
                            page_size,
                            ride.pages().chunks_exact(page_size),
                        );
                        landed.push(Landed {
                            riding,
                            reply,
                            shared: Some(ride.shared()),
                            transient: false,
                        });
                    }
                }
                self.spare.extend(rides);
            }
            // A failed pass is store-wide (a disk fault, a poisoned lock) —
            // bad requests never get aboard — so every rider sees the one
            // error. A *transient* storage fault is answered with the
            // retryable ERR_SERVE_TRANSIENT and deliberately NOT cached: the
            // round cursor is rolled back so each rider's retransmission
            // rides again against the recovered disk.
            Turn::Failed { riders, error } => {
                let transient = error.is_transient_storage();
                let code = if transient {
                    ERR_SERVE_TRANSIENT
                } else {
                    ERR_SERVE
                };
                let message = error.to_string();
                for id in riders {
                    if let Some(riding) = lap.landed(id) {
                        let reply = encode_error(riding.seq, code, &message);
                        landed.push(Landed {
                            riding,
                            reply,
                            shared: None,
                            transient,
                        });
                    }
                }
            }
            // a panicking pass tears down every rider's session — the same
            // degradation the immediate path applies to one
            Turn::Panicked { riders } => {
                let lost: Vec<Riding> =
                    riders.into_iter().filter_map(|id| lap.landed(id)).collect();
                for riding in lost {
                    self.tear_down(riding.client, Some(riding.sid));
                }
                return;
            }
        }
        for Landed {
            riding,
            reply,
            shared,
            transient,
        } in landed
        {
            let frames = chunk_reply(reply.clone(), self.cfg.chunk_bytes);
            let out_len: usize = frames.iter().map(|f| f.len()).sum();
            if let Some(stats) = lock_shared(&self.shared).sessions.get_mut(&riding.sid) {
                stats.record_observed(&riding.masked);
                stats.bytes_in += riding.bytes.len() as u64;
                stats.bytes_out += out_len as u64;
                if let Some(shared) = shared {
                    stats.fetches += riding.fetches as u64;
                    stats.rounds += u64::from(riding.new_round);
                    stats.coalesced_rounds += u64::from(shared);
                }
            }
            let Some(state) = self.clients.get_mut(&riding.client) else {
                continue;
            };
            if transient {
                // not cached: the retransmit must re-execute, not replay the
                // failure; it passes the round-order check from where the
                // join advanced the cursor
                if riding.new_round {
                    state.last_round -= 1;
                }
            } else {
                state.last_seq = riding.seq;
                state.last_reply = reply;
                state.last_observed = Some((riding.sid, riding.masked));
            }
            self.send(riding.client, frames);
            for bytes in riding.after {
                self.on_frame(riding.client, bytes);
            }
        }
    }
}

/// Why a round that could share a lap cannot join one yet: the lap in
/// progress is over another file and the loop thread has passes of it to run.
struct InTheWay;

/// A round off the lap, with what it is owed.
struct Landed {
    riding: Riding,
    reply: Vec<u8>,
    /// `Some` when the ride ended with its pages: whether another round was
    /// aboard for a segment of it. `None` when its pass failed.
    shared: Option<bool>,
    /// The pass failed with a fault a retransmission may not meet again.
    transient: bool,
}

/// Serves one client frame and produces the reply frame. Never panics on
/// malformed input — every failure becomes an `Error` frame. Duplicate
/// sequence numbers are answered from the per-client reply cache without
/// touching any store (idempotent replay).
#[allow(clippy::too_many_arguments)]
fn handle_frame(
    gen: &GenEntry,
    shared: &Arc<Mutex<FrontShared>>,
    state: &mut ClientState,
    next_session: &mut u64,
    bytes: &[u8],
    reqs: &mut Vec<(FileId, u32)>,
    run_pages: &mut Vec<u32>,
    arena: &mut Vec<PageBuf>,
) -> Vec<u8> {
    let frame = match split_frame(bytes) {
        Ok(f) => f,
        Err(e) => {
            let code = if looks_like_version_mismatch(bytes) {
                ERR_VERSION
            } else {
                ERR_MALFORMED
            };
            if let Some(sid) = state.session {
                if let Some(stats) = lock_shared(shared).sessions.get_mut(&sid) {
                    stats.malformed += 1;
                }
            }
            return encode_error(SEQ_UNPARSED, code, &format!("{e}"));
        }
    };
    if !frame.rest.is_empty() {
        return encode_error(frame.seq, ERR_MALFORMED, "trailing bytes after frame");
    }
    if bytes.len() > MAX_REQUEST_BYTES {
        return encode_error(frame.seq, ERR_MALFORMED, "oversized request frame");
    }
    let seq = frame.seq;
    if seq == 0 || seq == SEQ_UNPARSED {
        return encode_error(seq, ERR_SEQ, &format!("reserved sequence number {seq}"));
    }
    if seq == state.last_seq {
        // Retransmission: the reply (or the request) was lost in flight.
        // Replay the cached reply bytes verbatim — no store access, no
        // epoch advance — and record the duplicate observation (the
        // adversary saw the resend too).
        if let Some((sid, masked)) = &state.last_observed {
            if let Some(stats) = lock_shared(shared).sessions.get_mut(sid) {
                stats.retransmits += 1;
                let masked = masked.clone();
                stats.record_observed(&masked);
            }
        } else if let Some(sid) = state.session {
            if let Some(stats) = lock_shared(shared).sessions.get_mut(&sid) {
                stats.retransmits += 1;
            }
        }
        return state.last_reply.clone();
    }
    if seq != advance_seq(state.last_seq) {
        // Not the cached request and not the next fresh one: the channel
        // lost sync (or a stale duplicate outlived its window). Fatal —
        // do not advance the cache. The expected successor skips the
        // reserved values, so a channel that wraps past `u32::MAX` stays
        // in sync with a client advancing by the same rule.
        return encode_error(
            seq,
            ERR_SEQ,
            &format!("sequence {seq} after {}", state.last_seq),
        );
    }
    state.last_observed = None;
    let mut cache_reply = true;
    let reply = serve_fresh(
        gen,
        shared,
        state,
        next_session,
        frame.kind,
        seq,
        frame.payload,
        reqs,
        run_pages,
        arena,
        &mut cache_reply,
    );
    if cache_reply {
        state.last_seq = seq;
        state.last_reply = reply.clone();
    }
    reply
}

/// The fresh-request body of [`handle_frame`]: every path through here is
/// reached exactly once per accepted sequence number — except a transient
/// storage fault, which clears `cache_reply` so the caller does not install
/// the error as the sequence's reply and the client's retransmission
/// re-executes the serve.
#[allow(clippy::too_many_arguments)]
fn serve_fresh(
    gen: &GenEntry,
    shared: &Arc<Mutex<FrontShared>>,
    state: &mut ClientState,
    next_session: &mut u64,
    kind: u8,
    seq: u32,
    payload: &[u8],
    reqs: &mut Vec<(FileId, u32)>,
    run_pages: &mut Vec<u32>,
    arena: &mut Vec<PageBuf>,
    cache_reply: &mut bool,
) -> Vec<u8> {
    let server = gen.server();
    let info = &gen.info;
    let page_size = gen.page_size;
    let mut r = ByteReader::new(payload);
    match kind {
        K_SESSION_OPEN => {
            if state.session.is_some() {
                return encode_error(seq, ERR_SESSION, "session already open on this channel");
            }
            let sid = *next_session;
            *next_session += 1;
            state.session = Some(sid);
            state.last_round = 0;
            let masked = encode_session_open(seq);
            {
                let mut lock = lock_shared(shared);
                let stats = lock.sessions.entry(sid).or_default();
                stats.record_observed(&masked);
            }
            state.last_observed = Some((sid, masked));
            encode_session_accept(seq, sid, info)
        }
        K_QUERY_OPEN => {
            let Ok(sid) = r.u64() else {
                return encode_error(seq, ERR_MALFORMED, "truncated QueryOpen");
            };
            if state.session != Some(sid) {
                return encode_error(seq, ERR_SESSION, "QueryOpen for a session not open here");
            }
            // Round 1 is the query-open exchange itself.
            state.last_round = 1;
            let masked = encode_query_open(seq, 0);
            {
                let mut lock = lock_shared(shared);
                if let Some(stats) = lock.sessions.get_mut(&sid) {
                    stats.queries += 1;
                    stats.rounds += 1;
                    stats.record_observed(&masked);
                }
            }
            state.last_observed = Some((sid, masked));
            encode_ack(seq)
        }
        K_ROUND_REQ => {
            let (sid, round, k) = match (r.u64(), r.u32(), r.u32()) {
                (Ok(s), Ok(ro), Ok(k)) => (s, ro, k as usize),
                _ => return encode_error(seq, ERR_MALFORMED, "truncated RoundRequest"),
            };
            if state.session != Some(sid) {
                return encode_error(seq, ERR_SESSION, "RoundRequest for a session not open here");
            }
            reqs.clear();
            for _ in 0..k {
                match (r.u16(), r.u32()) {
                    (Ok(f), Ok(p)) => reqs.push((FileId(f), p)),
                    _ => return encode_error(seq, ERR_MALFORMED, "truncated fetch list"),
                }
            }
            // A round either continues (same number — a sub-round exchange,
            // e.g. the HY continuation walk) or advances by exactly one.
            if round != state.last_round && round != state.last_round + 1 {
                return encode_error(
                    seq,
                    ERR_ROUND_ORDER,
                    &format!("round {round} after round {}", state.last_round),
                );
            }
            let new_round = round == state.last_round + 1;
            let prev_round = state.last_round;
            state.last_round = round;
            let masked = encode_round_request(seq, 0, round, reqs, true);
            if let Some(stats) = lock_shared(shared).sessions.get_mut(&sid) {
                stats.record_observed(&masked);
            }
            state.last_observed = Some((sid, masked));
            while arena.len() < reqs.len() {
                arena.push(PageBuf::zeroed(page_size));
            }
            for buf in arena.iter_mut().take(reqs.len()) {
                if buf.len() != page_size {
                    *buf = PageBuf::zeroed(page_size);
                }
            }
            if let Err(e) = server.serve_requests(reqs, run_pages, &mut arena[..reqs.len()]) {
                if e.is_transient_storage() {
                    // Retryable: un-advance the round cursor and leave the
                    // replay cache untouched so the retransmit re-serves.
                    state.last_round = prev_round;
                    *cache_reply = false;
                    return encode_error(seq, ERR_SERVE_TRANSIENT, &format!("{e}"));
                }
                return encode_error(seq, ERR_SERVE, &format!("{e}"));
            }
            {
                let mut lock = lock_shared(shared);
                if let Some(stats) = lock.sessions.get_mut(&sid) {
                    stats.fetches += reqs.len() as u64;
                    if new_round {
                        stats.rounds += 1;
                    }
                }
            }
            let pages = arena[..reqs.len()].iter().map(PageBuf::as_slice);
            encode_round_response(seq, page_size, pages)
        }
        K_DOWNLOAD_REQ => {
            let (sid, file) = match (r.u64(), r.u16()) {
                (Ok(s), Ok(f)) => (s, FileId(f)),
                _ => return encode_error(seq, ERR_MALFORMED, "truncated DownloadRequest"),
            };
            if state.session != Some(sid) {
                return encode_error(
                    seq,
                    ERR_SESSION,
                    "DownloadRequest for a session not open here",
                );
            }
            let masked = encode_download_request(seq, 0, file);
            if let Some(stats) = lock_shared(shared).sessions.get_mut(&sid) {
                stats.record_observed(&masked);
            }
            state.last_observed = Some((sid, masked));
            let bytes = match server.read_full(file) {
                Ok(b) => b,
                Err(e) => {
                    if e.is_transient_storage() {
                        *cache_reply = false;
                        return encode_error(seq, ERR_SERVE_TRANSIENT, &format!("{e}"));
                    }
                    return encode_error(seq, ERR_SERVE, &format!("{e}"));
                }
            };
            {
                let mut lock = lock_shared(shared);
                if let Some(stats) = lock.sessions.get_mut(&sid) {
                    stats.downloads += 1;
                }
            }
            encode_download_response(seq, &bytes)
        }
        K_SESSION_CLOSE => {
            let Ok(sid) = r.u64() else {
                return encode_error(seq, ERR_MALFORMED, "truncated SessionClose");
            };
            if state.session != Some(sid) {
                return encode_error(seq, ERR_SESSION, "SessionClose for a session not open here");
            }
            state.session = None;
            let masked = encode_session_close(seq, 0);
            {
                let mut lock = lock_shared(shared);
                if let Some(stats) = lock.sessions.get_mut(&sid) {
                    stats.closed = true;
                    stats.record_observed(&masked);
                }
            }
            state.last_observed = Some((sid, masked));
            encode_ack(seq)
        }
        k => encode_error(seq, ERR_MALFORMED, &format!("unknown frame kind {k}")),
    }
}

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

/// The in-process production link: an mpsc pair into the [`ServerFront`]
/// loop thread. Dropping it disconnects the client from the loop.
pub struct ChannelLink {
    to_server: mpsc::Sender<ToServer>,
    resp: mpsc::Receiver<Vec<u8>>,
    client: u64,
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

enum ChunkStep {
    /// Chunk absorbed (or ignored as stale); keep waiting for more frames.
    Wait,
    /// All chunks seen: the reassembled inner reply frame.
    Done(Vec<u8>),
    /// Structurally broken chunk; fail the attempt so the request is
    /// retransmitted and the server re-chunks its cached reply.
    Bad(PirError),
}

/// Folds one structurally-valid `Chunk` frame into the per-attempt
/// reassembly buffer. Chunks echoing a stale seq are ignored. Inconsistent
/// indexing (a gap, or a total that changed mid-stream) drops the partial
/// buffer: a retransmitted reply restarts cleanly at index 0.
fn absorb_chunk(
    frame: &[u8],
    want_seq: u32,
    buf: &mut Vec<u8>,
    next: &mut u32,
    total: &mut u32,
) -> ChunkStep {
    let f = split_frame(frame).expect("caller validated the frame");
    if f.seq != want_seq {
        return ChunkStep::Wait; // stale chunk from an earlier exchange
    }
    if !f.rest.is_empty() {
        return ChunkStep::Bad(PirError::CorruptFrame(
            "trailing bytes after chunk frame".into(),
        ));
    }
    let mut r = ByteReader::new(f.payload);
    let ((Ok(index), Ok(t)), Ok(part)) = ((r.u32(), r.u32()), r.len_bytes()) else {
        return ChunkStep::Bad(PirError::CorruptFrame("truncated chunk frame".into()));
    };
    if index == 0 {
        buf.clear();
        *next = 0;
        *total = t;
    }
    if t == 0 || index != *next || t != *total {
        buf.clear();
        *next = 0;
        *total = 0;
        return ChunkStep::Wait;
    }
    buf.extend_from_slice(part);
    *next += 1;
    if *next < *total {
        return ChunkStep::Wait;
    }
    ChunkStep::Done(std::mem::take(buf))
}

/// One client's end of the wire: a [`Transport`] whose every operation is a
/// frame exchange with the [`ServerFront`] loop thread over a pluggable
/// [`FrameLink`], recovered per its [`RetryPolicy`].
pub struct WireChannel {
    link: Box<dyn FrameLink>,
    session: u64,
    info: Option<ServerInfo>,
    /// Sequence of the last request issued (0 before the handshake).
    seq: u32,
    policy: RetryPolicy,
    /// Retransmissions performed over the channel's lifetime.
    retries: u64,
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
    pub fn handshake_expecting(
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
        let seq = chan.next_seq();
        let reply = chan.exchange(encode_session_open(seq))?;
        let f = split_frame(&reply)?;
        if f.kind != K_SESSION_ACCEPT {
            return decode_unexpected(f.kind, f.payload, "SessionAccept");
        }
        let mut r = ByteReader::new(f.payload);
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
    pub fn generation(&self) -> u64 {
        self.info().generation
    }

    /// Replaces the retry policy (applies to subsequent requests).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
    }

    /// Retransmissions performed so far on this channel.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    fn next_seq(&mut self) -> u32 {
        self.seq = advance_seq(self.seq);
        self.seq
    }

    /// One logical request/response exchange, retried per the policy. The
    /// retransmitted bytes are always identical to the original frame — the
    /// server dedups by `seq` and replays its cached reply.
    fn exchange(&mut self, frame: Vec<u8>) -> Result<Vec<u8>> {
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
        match self.link.send(frame) {
            Ok(()) => {}
            Err(e) if e.is_retryable() => return Ok(AttemptOutcome::Retry(e)),
            Err(e) => return Err(e),
        }
        let attempt_deadline = match (self.policy.attempt_timeout, deadline) {
            (None, None) => None,
            (Some(t), None) => Some(Instant::now() + t),
            (None, Some(d)) => Some(d),
            (Some(t), Some(d)) => Some((Instant::now() + t).min(d)),
        };
        // Chunk reassembly state, scoped to this attempt: a retried request
        // makes the server re-chunk its cached reply from index 0, so a
        // partial reassembly never survives into the next attempt.
        let mut chunk_buf: Vec<u8> = Vec::new();
        let mut chunk_next: u32 = 0;
        let mut chunk_total: u32 = 0;
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
            let raw = match self.link.recv(timeout) {
                Ok(r) => r,
                Err(e) if e.is_retryable() => return Ok(AttemptOutcome::Retry(e)),
                Err(e) => return Err(e),
            };
            let first_kind = match split_frame(&raw) {
                Ok(f) => f.kind,
                Err(e) if e.is_retryable() => {
                    // A corrupted response: re-request and the server will
                    // replay its cached reply bytes.
                    return Ok(AttemptOutcome::Retry(e));
                }
                Err(e) => return Err(e),
            };
            let reply = if first_kind == K_CHUNK {
                match absorb_chunk(
                    &raw,
                    self.seq,
                    &mut chunk_buf,
                    &mut chunk_next,
                    &mut chunk_total,
                ) {
                    ChunkStep::Wait => continue,
                    ChunkStep::Bad(e) => return Ok(AttemptOutcome::Retry(e)),
                    ChunkStep::Done(inner) => inner,
                }
            } else {
                raw
            };
            let (kind, seq, trailing) = match split_frame(&reply) {
                Ok(f) => (f.kind, f.seq, !f.rest.is_empty()),
                Err(e) if e.is_retryable() => return Ok(AttemptOutcome::Retry(e)),
                Err(e) => return Err(e),
            };
            if trailing {
                return Ok(AttemptOutcome::Retry(PirError::CorruptFrame(
                    "trailing bytes after response frame".into(),
                )));
            }
            if kind == K_ERROR && (seq == self.seq || seq == SEQ_UNPARSED) {
                let f = split_frame(&reply).expect("validated above");
                let e = decode_error_frame(f.payload);
                return if e.is_retryable() {
                    Ok(AttemptOutcome::Retry(e))
                } else {
                    Err(e)
                };
            }
            if kind != K_ERROR && seq == self.seq {
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

    /// Sends `frame`, expecting an `Ack`.
    fn request_ack(&mut self, frame: Vec<u8>) -> Result<()> {
        let reply = self.exchange(frame)?;
        let f = split_frame(&reply)?;
        if f.kind != K_ACK {
            return decode_unexpected(f.kind, f.payload, "Ack");
        }
        Ok(())
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
        let seq = self.next_seq();
        let frame = encode_query_open(seq, self.session);
        self.request_ack(frame)
    }

    fn serve_round(
        &mut self,
        round: u32,
        requests: &[(FileId, u32)],
        out: &mut [PageBuf],
    ) -> Result<()> {
        debug_assert_eq!(requests.len(), out.len());
        let seq = self.next_seq();
        let frame = encode_round_request(seq, self.session, round, requests, false);
        let reply = self.exchange(frame)?;
        let f = split_frame(&reply)?;
        if f.kind != K_ROUND_RESP {
            return decode_unexpected(f.kind, f.payload, "RoundResponse");
        }
        let mut r = ByteReader::new(f.payload);
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

    fn download(&mut self, f: FileId) -> Result<Vec<u8>> {
        let seq = self.next_seq();
        let frame = encode_download_request(seq, self.session, f);
        let reply = self.exchange(frame)?;
        let fr = split_frame(&reply)?;
        if fr.kind != K_DOWNLOAD_RESP {
            return decode_unexpected(fr.kind, fr.payload, "DownloadResponse");
        }
        let mut r = ByteReader::new(fr.payload);
        Ok(r.len_bytes().map_err(PirError::from)?.to_vec())
    }

    fn close(&mut self) -> Result<()> {
        let seq = self.next_seq();
        let frame = encode_session_close(seq, self.session);
        self.request_ack(frame)
    }

    fn retries(&self) -> u64 {
        self.retries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{PirMode, PirServer};
    use crate::PirSession;
    use privpath_storage::{MemFile, DEFAULT_PAGE_SIZE};
    use std::sync::Arc;

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
        let info = ServerInfo::of(&srv);
        assert_eq!(
            info.generation, 1,
            "ServerInfo::of is the static generation"
        );
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
        let frame = encode_round_request(11, 7, 3, &[(FileId(1), 9), (FileId(1), 2)], false);
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
        assert!(looks_like_version_mismatch(&bad));

        // corruption (crc now wrong) is retryable, never a version error
        let mut flipped = frame.clone();
        flipped[10] ^= 0x40;
        let err = split_frame(&flipped).unwrap_err();
        assert!(err.to_string().contains("crc"), "{err}");
        assert!(err.is_retryable());
        assert!(!looks_like_version_mismatch(&flipped));

        let mut bad_magic = frame;
        bad_magic[8] = 0;
        assert!(split_frame(&bad_magic).is_err());
    }

    #[test]
    fn split_frame_never_panics_on_truncation() {
        let frame = encode_round_request(1, 7, 2, &[(FileId(1), 9)], false);
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

        let round = encode_round_request(3, sid, 2, &[(FileId(1), 6)], false);
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
        // Queue a frame and immediately shut down: the mpsc queue preserves
        // send order per thread, so the frame is ahead of the shutdown and
        // must still be served by the drain.
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
                ..FrontConfig::default()
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
            inner: ChannelLink,
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

        // Server side: a channel sitting one step below the sentinel.
        let srv = server();
        let gen = Arc::new(GenEntry::new(
            1,
            srv.clone() as Arc<dyn ServeHost + Send + Sync>,
        ));
        let shared = Arc::new(Mutex::new(FrontShared::default()));
        lock_shared(&shared).sessions.entry(7).or_default();
        let (resp_tx, _resp_rx) = mpsc::channel();
        let mut state = ClientState {
            resp: resp_tx,
            session: Some(7),
            gen: Arc::clone(&gen),
            last_round: 2,
            last_seq: u32::MAX - 1,
            last_reply: Vec::new(),
            last_observed: None,
            last_active: Instant::now(),
        };
        let mut next_session = 8u64;
        let (mut reqs, mut run_pages, mut arena) = (Vec::new(), Vec::new(), Vec::new());
        let mut drive = |state: &mut ClientState, frame: Vec<u8>| {
            handle_frame(
                &gen,
                &shared,
                state,
                &mut next_session,
                &frame,
                &mut reqs,
                &mut run_pages,
                &mut arena,
            )
        };
        // the sentinel itself stays reserved and does not advance the cache
        let reply = drive(
            &mut state,
            encode_round_request(SEQ_UNPARSED, 7, 2, &[(FileId(1), 3)], false),
        );
        assert_eq!(split_frame(&reply).unwrap().kind, K_ERROR);
        assert_eq!(state.last_seq, u32::MAX - 1);
        // ...as does the wrapped-to-zero value
        let reply = drive(
            &mut state,
            encode_round_request(0, 7, 2, &[(FileId(1), 3)], false),
        );
        assert_eq!(split_frame(&reply).unwrap().kind, K_ERROR);
        assert_eq!(state.last_seq, u32::MAX - 1);
        // the successor skipping both reserved values is the fresh request
        let reply = drive(
            &mut state,
            encode_round_request(1, 7, 2, &[(FileId(1), 3)], false),
        );
        let f = split_frame(&reply).unwrap();
        assert_eq!(f.kind, K_ROUND_RESP);
        assert_eq!(f.seq, 1);
        assert_eq!(state.last_seq, 1);

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
    fn chunked_replies_work_over_the_inproc_link() {
        // 100-byte chunks: even the handshake's SessionAccept is chunked
        let front = ServerFront::spawn_with(
            server(),
            FrontConfig {
                chunk_bytes: Some(100),
                ..FrontConfig::default()
            },
        );
        let mut chan = front.connect().unwrap();
        chan.begin_query().unwrap();
        let mut out = vec![PageBuf::zeroed(DEFAULT_PAGE_SIZE); 1];
        chan.serve_round(2, &[(FileId(1), 13)], &mut out).unwrap();
        assert_eq!(
            u32::from_le_bytes(out[0].as_slice()[..4].try_into().unwrap()),
            13
        );
        chan.close().unwrap();
        front.shutdown();
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

    #[test]
    fn degenerate_front_configs_serve_without_hanging() {
        let serve_one = |front: &ServerFront| {
            let mut chan = front.connect().unwrap();
            chan.begin_query().unwrap();
            let mut out = vec![PageBuf::zeroed(DEFAULT_PAGE_SIZE); 1];
            let t0 = Instant::now();
            chan.serve_round(2, &[(FileId(1), 13)], &mut out).unwrap();
            assert!(t0.elapsed() < Duration::from_secs(5), "round must not hang");
            assert_eq!(
                u32::from_le_bytes(out[0].as_slice()[..4].try_into().unwrap()),
                13
            );
            chan.close().unwrap();
        };
        // one-byte chunks (far smaller than any header): every reply is a
        // maximal chunk train and must still reassemble
        let front = ServerFront::spawn_with(
            server(),
            FrontConfig {
                chunk_bytes: Some(1),
                ..FrontConfig::default()
            },
        );
        serve_one(&front);
        front.shutdown();
        // chunk cap zero is the documented "chunking off" degenerate
        let front = ServerFront::spawn_with(
            server(),
            FrontConfig {
                chunk_bytes: Some(0),
                ..FrontConfig::default()
            },
        );
        serve_one(&front);
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

    /// A front whose loop believes the process has `cpus` CPUs: with one it
    /// drives every lap itself, with two "Fd"'s laps get a driver thread.
    /// Every lap test runs both ways, whatever the host has.
    fn front_on(srv: &Arc<PirServer>, cfg: FrontConfig, cpus: usize) -> ServerFront {
        ServerFront::spawn_on(Arc::new(StaticSource::new(Arc::clone(srv))), cfg, cpus)
    }

    /// Opens the gate a lap of "Fd" is held at, once the loop has seen every
    /// frame sent so far. A loop that runs the held pass itself (one CPU)
    /// finds them queued when the pass ends; one that left the pass to a
    /// driver thread is free to take them, and is asked something and waited
    /// for first — its queue is first in, first out.
    fn release(gate: &GateDisk, front: &ServerFront, cpus: usize) {
        if cpus > 1 {
            let mut probe = front.raw_link().unwrap();
            probe.send(&[0u8; 4]).unwrap();
            probe
                .recv(WAIT)
                .expect("a malformed frame earns a typed error");
        }
        gate.release();
    }

    /// Opens a session and its first query on a raw link; returns the
    /// session id and the generation it is pinned to. The next request is
    /// seq 3, round 2.
    fn open_query(link: &mut ChannelLink) -> (u64, u64) {
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
        encode_round_request(3, sid, 2, &reqs, false)
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
        for cpus in [1usize, 2] {
            let (srv, gate) = gated_server(0);
            let front = front_on(&srv, FrontConfig::default(), cpus);
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
            release(&gate, &front, cpus);
            assert_eq!(reply_tags(&a.recv(WAIT).unwrap()), [5, LAP_PAGES - 1]);
            // page 9 lies behind B's join: its lap wraps round to it
            assert_eq!(reply_tags(&b.recv(WAIT).unwrap()), [9, 2 * SEG, 9]);
            drop((a, b));
            let stats = front.shutdown();
            let (sa, sb) = (&stats[&sid_a], &stats[&sid_b]);
            assert_eq!((sa.fetches, sb.fetches), (2, 3), "x{cpus}");
            assert_eq!((sa.rounds, sb.rounds), (2, 2));
            assert_eq!(sa.coalesced_rounds, 1, "A shared segments 1 and 2");
            assert_eq!(sb.coalesced_rounds, 1);
            // the host swept segments 0 1 2 0: four passes for two rounds
            let want: Vec<u32> = (0..LAP_PAGES).chain(0..SEG).collect();
            assert_eq!(scan_log(&srv, FileId(1)), want, "x{cpus}");
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
    }

    #[test]
    fn a_lone_round_rides_from_segment_zero_and_shares_nothing() {
        for cpus in [1usize, 2] {
            let (srv, _gate) = gated_server(0);
            let front = front_on(&srv, FrontConfig::default(), cpus);
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
            assert_eq!(
                scan_log(&srv, FileId(1)),
                want,
                "x{cpus}: two laps, 0..N each"
            );
        }
    }

    #[test]
    fn non_coalescable_rounds_bypass_the_rotation() {
        // a driver thread sweeps, so the loop is free while the lap is held
        let (srv, gate) = gated_server(0);
        let front = front_on(&srv, FrontConfig::default(), 2);
        let mut a = front.raw_link().unwrap();
        let (sid_a, _) = open_query(&mut a);
        let mut b = front.connect().unwrap();
        b.begin_query().unwrap();
        gate.arm(0);
        a.send(&fd_round(sid_a, &[7])).unwrap();
        gate.wait_parked();
        // "Fd"'s lap is held at its first run, and B is answered meanwhile:
        // a cost-only file has no sweep to share, another file's round is
        // served on the spot, and so is a round over several files
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
        release(&gate, &front, 2);
        assert_eq!(reply_tags(&a.recv(WAIT).unwrap()), [7]);
        assert_eq!(scan_log(&srv, FileId(1)).len(), LAP_PAGES as usize);
        assert_eq!(
            scan_log(&srv, FileId(2)).len(),
            2 * 16,
            "two laps of Fx for B"
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
        for cpus in [1usize, 2] {
            let (srv, gate) = gated_server(0);
            let front = front_on(&srv, FrontConfig::default(), cpus);
            let mut link = front.raw_link().unwrap();
            let (sid, _) = open_query(&mut link);
            let round = fd_round(sid, &[4]);
            gate.arm(0);
            link.send(&round).unwrap();
            gate.wait_parked();
            link.send(&round).unwrap(); // retransmit mid-lap: absorbed
                                        // shutdown finishes the ride before the loop stops
            gate.arm(SEG);
            release(&gate, &front, cpus);
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
            assert_eq!(
                scan_log(&srv, FileId(1)).len(),
                LAP_PAGES as usize,
                "x{cpus}"
            );
        }
    }

    #[test]
    fn a_frame_behind_a_riding_round_waits_for_its_reply() {
        for cpus in [1usize, 2] {
            let (srv, gate) = gated_server(0);
            let front = front_on(&srv, FrontConfig::default(), cpus);
            let mut link = front.raw_link().unwrap();
            let (sid, _) = open_query(&mut link);
            gate.arm(0);
            link.send(&fd_round(sid, &[4])).unwrap();
            gate.wait_parked();
            // the client does not wait for its reply: the close must not
            // overtake the round it follows
            link.send(&encode_session_close(4, sid)).unwrap();
            release(&gate, &front, cpus);
            assert_eq!(reply_tags(&link.recv(WAIT).unwrap()), [4]);
            let ack = link.recv(WAIT).unwrap();
            let f = split_frame(&ack).unwrap();
            assert_eq!((f.kind, f.seq), (K_ACK, 4), "x{cpus}");
            let stats = front.shutdown();
            assert!(stats[&sid].closed);
            assert_eq!(stats[&sid].fetches, 1);
        }
    }

    #[test]
    fn a_rotation_never_mixes_generations() {
        for cpus in [1usize, 2] {
            let (old, gate) = gated_server(0);
            let (new, _) = gated_server(1000);
            let source = SwapSource::starting_at(1, Arc::clone(&old));
            let front = ServerFront::spawn_on(
                source.clone() as Arc<dyn GenerationSource>,
                FrontConfig::default(),
                cpus,
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
            release(&gate, &front, cpus);
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
            assert_eq!(scan_log(&old, FileId(1)), lap, "x{cpus}");
            assert_eq!(scan_log(&new, FileId(1)), lap, "x{cpus}");
        }
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
        let front = front_on(&srv, FrontConfig::default(), 2);
        let mut links: Vec<ChannelLink> = (0..4).map(|_| front.raw_link().unwrap()).collect();
        let sids: Vec<u64> = links.iter_mut().map(|l| open_query(l).0).collect();
        let round = |sid: u64, file: u16, page: u32| {
            encode_round_request(3, sid, 2, &[(FileId(file), page)], false)
        };
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
    fn rider_lost_mid_lap(cpus: usize, lost: Lost) {
        let deadline = Duration::from_millis(400);
        let cfg = FrontConfig {
            idle_timeout: matches!(lost, Lost::IdlesOut).then_some(deadline),
            ..FrontConfig::default()
        };
        let (srv, gate) = gated_server(0);
        let front = front_on(&srv, cfg, cpus);
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
        release(&gate, &front, cpus);
        gate.wait_parked(); // segment 1, A and B aboard
        match lost {
            Lost::Disconnects => drop(a),
            Lost::IdlesOut => {
                // A has been silent since its round, B only since its own
                std::thread::sleep(deadline * 5 / 8);
                release(&gate, &front, cpus);
                let err = a.recv(WAIT).unwrap_err();
                assert!(err.to_string().contains("disconnected"), "{err}");
            }
        }
        release(&gate, &front, cpus);
        assert_eq!(reply_tags(&b.recv(WAIT).unwrap()), [2 * SEG + 3, 1]);
        drop(b);
        let stats = front.shutdown();
        let (sa, sb) = (&stats[&sid_a], &stats[&sid_b]);
        assert!(sa.closed, "x{cpus}");
        assert_eq!(sa.evicted, matches!(lost, Lost::IdlesOut), "x{cpus}");
        assert_eq!(sa.fetches, 0, "A's round was dropped, not served");
        assert_eq!((sb.fetches, sb.coalesced_rounds), (2, 1));
        let want: Vec<u32> = (0..LAP_PAGES).chain(0..SEG).collect();
        assert_eq!(
            scan_log(&srv, FileId(1)),
            want,
            "x{cpus}: B's lap ran on undelayed"
        );
    }

    #[test]
    fn idle_evicted_rider_is_dropped_at_the_next_boundary() {
        // the eviction tick runs between the passes of a lap in progress
        rider_lost_mid_lap(1, Lost::IdlesOut);
        rider_lost_mid_lap(2, Lost::IdlesOut);
    }

    #[test]
    fn disconnected_rider_is_dropped_at_the_next_boundary() {
        rider_lost_mid_lap(1, Lost::Disconnects);
        rider_lost_mid_lap(2, Lost::Disconnects);
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
        for cpus in [1usize, 2] {
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
            let front = front_on(&srv, FrontConfig::default(), cpus);
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
            release(&gate, &front, cpus);
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
                assert_eq!(s.retransmits, 0, "x{cpus}: re-ridden, not replayed");
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
            let front = front_on(&srv, FrontConfig::default(), cpus);
            let mut a = front.raw_link().unwrap();
            let mut b = front.raw_link().unwrap();
            let (sid_a, _) = open_query(&mut a);
            let (sid_b, _) = open_query(&mut b);
            let round_a = fd_round(sid_a, &[5]);
            gate.arm(0);
            a.send(&round_a).unwrap();
            gate.wait_parked();
            b.send(&fd_round(sid_b, &[6])).unwrap();
            release(&gate, &front, cpus);
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
            assert_eq!(stats[&sid_a].retransmits, 1, "x{cpus}");
            assert_eq!((stats[&sid_a].fetches, stats[&sid_b].fetches), (0, 0));
        }
    }
}
