//! The wire protocol: a versioned, length-prefixed binary frame codec
//! (`codec`), a multi-client server front end serving frames from one loop
//! thread (`front`, with the shared lap in `lap`), the client channel that
//! drives it (`client`), and the sockets both ends speak through (`tcp`).
//!
//! # Frame layout (version 5)
//!
//! Every frame is self-delimiting, versioned and integrity-checked (all
//! integers little-endian, hand-rolled through the same
//! [`ByteWriter`](privpath_storage::ByteWriter)/[`ByteReader`](privpath_storage::ByteReader)
//! codecs as the on-disk file formats):
//!
//! ```text
//! [ u32 len ][ u32 crc ][ u16 magic = 0x5057 "PW" ][ u8 version = 5 ]
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
//! | 2    | `SessionAccept`    | s→c | `u64 session`, `ServerInfo` (leads with the `u64` generation id) |
//! | 3    | `QueryOpen`        | c→s | `u64 session`                                  |
//! | 4    | `Ack`              | s→c | —                                              |
//! | 5    | `RoundRequest`     | c→s | `u64 session`, `u32 round`, `u32 k`, k × (`u16 file`, `u32 page`) |
//! | 6    | `RoundResponse`    | s→c | `u32 k`, `u32 page_size`, k × page bytes       |
//! | 7    | `DownloadRequest`  | c→s | `u64 session`, `u16 file`                      |
//! | 8    | `DownloadResponse` | s→c | `u32 n`, n bytes                               |
//! | 9    | `SessionClose`     | c→s | `u64 session`                                  |
//! | 10   | `Error`            | s→c | `u16 code`, `u32 n`, n message bytes           |
//!
//! Every request gets exactly one reply frame, however large: a download
//! of a whole file is one `DownloadResponse`. Kind 11 is retired (it was
//! `Chunk`, versions 3 and 4: a reply cut into slices that the client
//! reassembled); a frame of that kind is refused like any unknown kind.
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
//! response streaming); version 4 prefixed `ServerInfo` with the database
//! generation id (hot-swap staleness detection — see
//! [`crate::transport::GenerationSource`]); version 5 retired `Chunk`: every
//! reply is one frame. A retired kind number is never reused. A server
//! receiving a frame with an unknown version (or bad magic) replies
//! [`ERR_VERSION`]/[`ERR_MALFORMED`] and serves nothing — there is no
//! negotiation, by design: client and server ship from one workspace, so a
//! mismatch is a deployment bug to surface, not paper over. A frame whose crc does not match is classified as
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
//! [`PirError::StaleGeneration`](crate::PirError::StaleGeneration)
//! (`WireChannel::handshake_expecting`)
//! instead of silently re-planning against changed data.
//!
//! # Shared laps
//!
//! The paper charges the server one pass over the file per round. Rounds of
//! *different* sessions over one linear-scan file need not each pay it: a
//! round whose every fetch is an in-range page of one such file, of the
//! generation and file of the lap in progress, **joins the rotating sweep
//! ([`crate::scan::Rotation`]) at the next segment boundary and leaves after
//! exactly one lap**; every other request is served on the spot. A ridden
//! round and one served on the spot then settle through the same code, so
//! nothing a session observes tells them apart —
//! [`SessionStats::coalesced_rounds`] is the only trace a shared lap leaves,
//! and it is server-side accounting. What the *host* observes is laps: which
//! segments were swept in which order, a function of when rounds arrived and
//! never of what they asked for (`tests/leakage.rs` pins both
//! differentials). The front's loop thread runs every pass, between the
//! frames it takes (the `lap` submodule).
//!
//! # The loop
//!
//! A front is one thread, whatever its client count: a `poll(2)` readiness
//! loop over TCP and in-process sockets alike, the front's one driver and
//! only reader of the clock. The core it drives never reads a clock, so a
//! test steps it on a virtual one, without threads (`wire::tests::stepper`).
//! The `front` submodule documents the turn, backpressure and the drain.
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

mod client;
mod codec;
mod front;
mod lap;
pub(crate) mod tcp;

pub use self::client::{FrameLink, RetryPolicy, WireChannel};
pub use self::codec::{
    parse_observed, parse_observed_raw, split_frame, Frame, ObservedEvent, ERR_INTERNAL,
    ERR_MALFORMED, ERR_ROUND_ORDER, ERR_SEQ, ERR_SERVE, ERR_SERVE_TRANSIENT, ERR_SESSION,
    ERR_VERSION, SEQ_UNPARSED, WIRE_MAGIC, WIRE_VERSION,
};
pub use self::front::{FrontConfig, ServerFront, SessionStats, OBSERVED_CAP_BYTES};
pub use self::tcp::SocketLink;

#[cfg(test)]
mod tests;
