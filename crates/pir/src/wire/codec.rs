//! The frame codec: the protocol's constants, [`ServerInfo`], the frame
//! encoders, [`split_frame`], error-frame decoding and the parsing of
//! recorded observable streams back into events.

use crate::error::PirError;
use crate::server::FileId;
use crate::spec::SystemSpec;
use crate::Result;
use privpath_storage::{crc32, ByteReader, ByteWriter};

/// Frame magic: "PW" little-endian.
pub const WIRE_MAGIC: u16 = 0x5057;
/// Current protocol version. Bump on any frame-layout or semantic change.
/// v2: per-frame CRC-32 + sequence numbers with idempotent server replay.
/// v3: `Chunk` frames — large server replies streamed as crc'd slices.
/// v4: `ServerInfo` leads with the database generation id (hot swap).
/// v5: kind 11 (`Chunk`) retired — every reply is one frame.
pub const WIRE_VERSION: u8 = 5;

/// Full header size: len + crc + magic + version + kind + seq.
pub(super) const HEADER_BYTES: usize = 16;
/// Sentinel `seq` in an `Error` reply to a frame whose own seq could not be
/// parsed. Clients treat errors carrying it as applying to their current
/// outstanding request. Never generated as a request seq.
pub const SEQ_UNPARSED: u32 = u32::MAX;
/// Upper bound on a client→server frame the server will process. Request
/// frames are small (a round request is 6 bytes per fetch); anything larger
/// is garbage and is rejected before allocation-heavy parsing.
pub(super) const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Advances a sequence number, skipping the two reserved values: 0 (the
/// pre-handshake state) and [`SEQ_UNPARSED`] (the error sentinel). Both
/// sides must agree on this walk — the client stamps requests with it and
/// the server computes the expected fresh seq with it — otherwise a channel
/// that wraps past `u32::MAX` desyncs: the client's `u32::MAX` request would
/// be indistinguishable from an unparseable-frame error echo, and the
/// `wrapping_add(1)` successor 0 is likewise reserved.
pub(super) fn advance_seq(seq: u32) -> u32 {
    let mut next = seq.wrapping_add(1);
    while next == 0 || next == SEQ_UNPARSED {
        next = next.wrapping_add(1);
    }
    next
}

pub(super) const K_SESSION_OPEN: u8 = 1;
pub(super) const K_SESSION_ACCEPT: u8 = 2;
pub(super) const K_QUERY_OPEN: u8 = 3;
pub(super) const K_ACK: u8 = 4;
pub(super) const K_ROUND_REQ: u8 = 5;
pub(super) const K_ROUND_RESP: u8 = 6;
pub(super) const K_DOWNLOAD_REQ: u8 = 7;
pub(super) const K_DOWNLOAD_RESP: u8 = 8;
pub(super) const K_SESSION_CLOSE: u8 = 9;
pub(super) const K_ERROR: u8 = 10;

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
pub(crate) struct ServerInfo {
    /// The database generation this server is serving (1 for a static host;
    /// a hot-swappable front stamps the generation current at session
    /// accept). Clients compare it against a held expectation to detect a
    /// swap ([`PirError::StaleGeneration`]).
    pub(crate) generation: u64,
    /// The server's system spec.
    pub(crate) spec: SystemSpec,
    /// Per-file metadata, indexed by `FileId.0`.
    pub(crate) files: Vec<FileInfo>,
}

/// One served file's public metadata.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FileInfo {
    /// Diagnostic name ("Fh", "Fl", "Fi", "Fd", "Fi|Fd").
    pub(crate) name: String,
    /// Page count.
    pub(crate) pages: u32,
}

impl ServerInfo {
    /// Snapshot of a server's public metadata, stamped with an explicit
    /// generation id (hot-swappable fronts stamp each generation's entry).
    pub(crate) fn of_generation(server: &crate::server::PirServer, generation: u64) -> ServerInfo {
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

    pub(super) fn serialize(&self, w: &mut ByteWriter) {
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

    pub(super) fn deserialize(r: &mut ByteReader<'_>) -> Result<ServerInfo> {
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

pub(super) fn begin_frame(kind: u8, seq: u32) -> ByteWriter {
    let mut w = ByteWriter::new();
    w.u32(0); // length placeholder
    w.u32(0); // crc placeholder
    w.u16(WIRE_MAGIC);
    w.u8(WIRE_VERSION);
    w.u8(kind);
    w.u32(seq);
    w
}

pub(super) fn finish_frame(mut w: ByteWriter) -> Vec<u8> {
    let len = (w.len() - 4) as u32;
    w.patch_u32(0, len);
    let crc = crc32(&w.as_slice()[8..]);
    w.patch_u32(4, crc);
    w.into_vec()
}

/// A client→server request: the one place its frame is encoded and its
/// payload decoded, for the client that sends it, the front that serves it
/// and the audits that parse the recorded stream.
#[derive(Debug, Clone, Copy)]
pub(super) enum Request {
    SessionOpen,
    QueryOpen { session: u64 },
    Round { session: u64, round: u32 },
    Download { session: u64, file: FileId },
    SessionClose { session: u64 },
}

impl Request {
    /// The request as frame `seq`; a round asks for `fetches`. `masked`
    /// writes the session id and every page index as 0: the observable
    /// projection the server records (a real PIR encoding hides the page
    /// index; see the module docs, "The adversary's view of the wire").
    pub(super) fn encode(self, seq: u32, fetches: &[(FileId, u32)], masked: bool) -> Vec<u8> {
        let kind = match self {
            Request::SessionOpen => K_SESSION_OPEN,
            Request::QueryOpen { .. } => K_QUERY_OPEN,
            Request::Round { .. } => K_ROUND_REQ,
            Request::Download { .. } => K_DOWNLOAD_REQ,
            Request::SessionClose { .. } => K_SESSION_CLOSE,
        };
        let mut w = begin_frame(kind, seq);
        if let Some(session) = self.session() {
            w.u64(if masked { 0 } else { session });
        }
        match self {
            Request::Round { round, .. } => {
                w.u32(round);
                w.u32(fetches.len() as u32);
                for &(file, page) in fetches {
                    w.u16(file.0);
                    w.u32(if masked { 0 } else { page });
                }
            }
            Request::Download { file, .. } => {
                w.u16(file.0);
            }
            _ => {}
        }
        finish_frame(w)
    }

    /// Decodes the payload of a frame of `kind`. `fetches` is cleared, then
    /// holds a round's fetch list. A payload that does not decode is the
    /// returned [`ERR_MALFORMED`] message; bytes after a complete payload
    /// are ignored.
    pub(super) fn decode(
        kind: u8,
        payload: &[u8],
        fetches: &mut Vec<(FileId, u32)>,
    ) -> std::result::Result<Request, String> {
        fetches.clear();
        let mut r = ByteReader::new(payload);
        let truncated = |what: &str| format!("truncated {what}");
        match kind {
            K_SESSION_OPEN => Ok(Request::SessionOpen),
            K_QUERY_OPEN => r
                .u64()
                .map(|session| Request::QueryOpen { session })
                .map_err(|_| truncated("QueryOpen")),
            K_ROUND_REQ => {
                let (Ok(session), Ok(round), Ok(k)) = (r.u64(), r.u32(), r.u32()) else {
                    return Err(truncated("RoundRequest"));
                };
                for _ in 0..k {
                    let (Ok(file), Ok(page)) = (r.u16(), r.u32()) else {
                        return Err(truncated("fetch list"));
                    };
                    fetches.push((FileId(file), page));
                }
                Ok(Request::Round { session, round })
            }
            K_DOWNLOAD_REQ => match (r.u64(), r.u16()) {
                (Ok(session), Ok(file)) => Ok(Request::Download {
                    session,
                    file: FileId(file),
                }),
                _ => Err(truncated("DownloadRequest")),
            },
            K_SESSION_CLOSE => r
                .u64()
                .map(|session| Request::SessionClose { session })
                .map_err(|_| truncated("SessionClose")),
            k => Err(format!("unknown frame kind {k}")),
        }
    }

    /// The session the request names; `None` for the `SessionOpen` that
    /// asks for one.
    pub(super) fn session(self) -> Option<u64> {
        match self {
            Request::SessionOpen => None,
            Request::QueryOpen { session }
            | Request::Round { session, .. }
            | Request::Download { session, .. }
            | Request::SessionClose { session } => Some(session),
        }
    }
}

pub(super) fn encode_session_accept(seq: u32, session: u64, info: &ServerInfo) -> Vec<u8> {
    let mut w = begin_frame(K_SESSION_ACCEPT, seq);
    w.u64(session);
    info.serialize(&mut w);
    finish_frame(w)
}

pub(super) fn encode_ack(seq: u32) -> Vec<u8> {
    finish_frame(begin_frame(K_ACK, seq))
}

pub(super) fn encode_round_response<'a>(
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

pub(super) fn encode_download_response(seq: u32, bytes: &[u8]) -> Vec<u8> {
    let mut w = begin_frame(K_DOWNLOAD_RESP, seq);
    w.len_bytes(bytes);
    finish_frame(w)
}

pub(super) fn encode_error(seq: u32, code: u16, message: &str) -> Vec<u8> {
    let mut w = begin_frame(K_ERROR, seq);
    w.u16(code);
    w.len_bytes(message.as_bytes());
    finish_frame(w)
}

// ---------------------------------------------------------------- decoding

pub(super) fn transport_err<T>(msg: impl Into<String>) -> Result<T> {
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
    pub(crate) seq: u32,
    /// Payload after the header.
    pub(crate) payload: &'a [u8],
    /// Bytes after this frame (for concatenated streams).
    pub(crate) rest: &'a [u8],
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

/// The error code for `bytes`, which [`split_frame`] refused with `error`:
/// [`ERR_VERSION`] when they are best explained as a well-formed frame of
/// another protocol version (a deployment bug) — a frame whose crc
/// *validates* but whose version byte is unknown, the one refusal that is
/// not retryable, or a pre-v2 layout (magic at offset 4) — and
/// [`ERR_MALFORMED`] (link corruption) otherwise. A crc mismatch always
/// classifies as corruption, so a bit flip on the version byte stays
/// retryable.
pub(super) fn refusal_code(bytes: &[u8], error: &PirError) -> u16 {
    let v2 = bytes.len() >= HEADER_BYTES && bytes[8..10] == WIRE_MAGIC.to_le_bytes();
    // pre-v2 layout: [len][magic][version][kind]
    let pre_v2 =
        bytes.len() >= 7 && bytes[4..6] == WIRE_MAGIC.to_le_bytes() && bytes[6] != WIRE_VERSION;
    if !error.is_retryable() || (!v2 && pre_v2) {
        ERR_VERSION
    } else {
        ERR_MALFORMED
    }
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
    let mut fetches = Vec::new();
    let request = Request::decode(kind, payload, &mut fetches).map_err(PirError::Transport)?;
    Ok(match request {
        Request::SessionOpen => ObservedEvent::SessionOpen,
        Request::QueryOpen { .. } => ObservedEvent::QueryOpen,
        Request::Round { round, .. } => ObservedEvent::Round {
            round,
            fetches: fetches.into_iter().map(|(file, _)| file).collect(),
        },
        Request::Download { file, .. } => ObservedEvent::Download(file),
        Request::SessionClose { .. } => ObservedEvent::SessionClose,
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

/// Decodes an `Error` frame payload into the typed error it stands for:
/// [`ERR_MALFORMED`] means the link corrupted our well-formed request
/// (retryable [`PirError::CorruptFrame`]); [`ERR_SERVE_TRANSIENT`] means a
/// transient storage fault the server did not cache (retryable
/// [`PirError::TransientIo`] — the retransmission re-executes the serve);
/// every other code is a fatal [`PirError::Transport`].
pub(super) fn decode_error_frame(payload: &[u8]) -> PirError {
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
