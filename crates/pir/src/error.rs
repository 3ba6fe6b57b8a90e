//! PIR-layer errors.

use std::fmt;

/// Errors raised by the PIR substrate.
///
/// The wire layer splits failures into two classes: **retryable** link
/// faults ([`PirError::Timeout`], [`PirError::LinkDown`],
/// [`PirError::CorruptFrame`], and server-reported transient serve
/// failures) that a [`crate::wire::RetryPolicy`] may re-issue, and
/// **fatal** faults (protocol violations, severed channels, poisoned
/// state) that no retry can fix. [`PirError::is_retryable`] is the
/// classifier; when a retry budget runs out the last retryable error is
/// wrapped in [`PirError::Exhausted`] so callers can distinguish "the
/// link never recovered" from "the protocol was violated".
#[derive(Debug)]
pub enum PirError {
    /// The file exceeds what the SCP's memory can support
    /// (`N > (mem_pages / c)²`, §3.2).
    FileTooLarge {
        /// Pages in the offending file.
        pages: u64,
        /// Maximum supported page count.
        max_pages: u64,
    },
    /// Unknown file id.
    UnknownFile(u16),
    /// Underlying storage failure.
    Storage(privpath_storage::StorageError),
    /// Wire-transport failure: a malformed / unsupported frame, a protocol
    /// violation reported by the server, or a severed channel. Fatal.
    Transport(String),
    /// No response arrived within the attempt timeout. Retryable — the
    /// request (or its response) was lost in flight.
    Timeout(String),
    /// The link refused to carry the frame (an outage window, a dead
    /// interface). Retryable — distinct from a severed channel, which is
    /// [`PirError::Transport`] and fatal.
    LinkDown(String),
    /// A frame arrived but failed its CRC / structural validation.
    /// Retryable — re-issuing the request makes the server re-serve its
    /// cached reply bytes.
    CorruptFrame(String),
    /// The server reported a *transient* storage failure (an interrupted
    /// disk read) while serving the request. Retryable — the server did not
    /// cache the failure as this sequence number's reply, so a retransmit
    /// re-executes the serve against the (possibly recovered) disk.
    TransientIo(String),
    /// Server-side state (an oblivious store lock) was poisoned by an
    /// earlier panic; the file can no longer be served. Fatal for this
    /// file, but the server loop and other files stay live.
    Poisoned(String),
    /// A retry budget ran out. Wraps the last retryable error observed;
    /// fatal (the caller's policy already spent every allowed attempt).
    Exhausted {
        /// Attempts performed (including the first).
        attempts: u32,
        /// The final retryable failure.
        last: Box<PirError>,
    },
    /// The server swapped database generations between the client's last
    /// session and this handshake: the client expected to reconnect to
    /// generation `held` but the server now serves `current`. Retryable in
    /// the hot-swap sense — the request itself was served correctly, the
    /// client just has to refresh its expectation (re-plan against the new
    /// generation) and open a fresh session. Never produced inside the
    /// attempt loop, so classifying it retryable cannot spin a
    /// [`crate::wire::RetryPolicy`].
    StaleGeneration {
        /// The generation id the client was pinned to.
        held: u64,
        /// The generation id the server is now publishing.
        current: u64,
    },
}

impl PirError {
    /// True if re-issuing the failed request may succeed: the failure was a
    /// transient link fault, not a protocol violation or severed channel.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            PirError::Timeout(_)
                | PirError::LinkDown(_)
                | PirError::CorruptFrame(_)
                | PirError::TransientIo(_)
                | PirError::StaleGeneration { .. }
        )
    }

    /// True when this failure is a transient storage fault — the serve may
    /// be re-executed against the same store and plausibly succeed. The
    /// server front uses this to decide between the retryable
    /// `ERR_SERVE_TRANSIENT` wire code (serve not cached, retransmit
    /// re-executes) and the fatal `ERR_SERVE`.
    pub(crate) fn is_transient_storage(&self) -> bool {
        matches!(self, PirError::Storage(se) if se.is_transient())
    }

    /// True if this failure is a spent retry budget (the typed outcome a
    /// resilient client reports after its policy gives up).
    pub fn is_retry_exhausted(&self) -> bool {
        matches!(self, PirError::Exhausted { .. })
    }
}

impl fmt::Display for PirError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PirError::FileTooLarge { pages, max_pages } => write!(
                f,
                "file of {pages} pages exceeds PIR limit of {max_pages} pages (SCP memory bound)"
            ),
            PirError::UnknownFile(id) => write!(f, "unknown PIR file id {id}"),
            PirError::Storage(e) => write!(f, "storage error: {e}"),
            PirError::Transport(msg) => write!(f, "transport error: {msg}"),
            PirError::Timeout(msg) => write!(f, "timeout: {msg}"),
            PirError::LinkDown(msg) => write!(f, "link down: {msg}"),
            PirError::CorruptFrame(msg) => write!(f, "corrupt frame: {msg}"),
            PirError::TransientIo(msg) => write!(f, "transient i/o: {msg}"),
            PirError::Poisoned(msg) => write!(f, "poisoned server state: {msg}"),
            PirError::Exhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempts: {last}")
            }
            PirError::StaleGeneration { held, current } => write!(
                f,
                "stale generation: client pinned to generation {held} but server now serves {current}"
            ),
        }
    }
}

impl std::error::Error for PirError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PirError::Storage(e) => Some(e),
            PirError::Exhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<privpath_storage::StorageError> for PirError {
    fn from(e: privpath_storage::StorageError) -> Self {
        PirError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = PirError::FileTooLarge {
            pages: 10,
            max_pages: 5,
        };
        assert!(e.to_string().contains("10 pages"));
        assert!(PirError::UnknownFile(3).to_string().contains('3'));
    }

    #[test]
    fn retryable_taxonomy() {
        assert!(PirError::Timeout("t".into()).is_retryable());
        assert!(PirError::LinkDown("d".into()).is_retryable());
        assert!(PirError::CorruptFrame("c".into()).is_retryable());
        assert!(PirError::TransientIo("i".into()).is_retryable());
        assert!(!PirError::Transport("x".into()).is_retryable());
        // storage transience classifier
        let transient = PirError::Storage(privpath_storage::StorageError::Io(std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            "flaky",
        )));
        assert!(transient.is_transient_storage());
        assert!(
            !transient.is_retryable(),
            "server-side only — the client retries via ERR_SERVE_TRANSIENT"
        );
        let fatal = PirError::Storage(privpath_storage::StorageError::PageCorrupt {
            file: "Fd".into(),
            page: 1,
            expected: 1,
            actual: 2,
        });
        assert!(!fatal.is_transient_storage());
        assert!(!PirError::Poisoned("p".into()).is_retryable());
        let e = PirError::Exhausted {
            attempts: 3,
            last: Box::new(PirError::Timeout("t".into())),
        };
        assert!(!e.is_retryable());
        assert!(e.is_retry_exhausted());
        assert!(e.to_string().contains("3 attempts"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn stale_generation_is_retryable_and_names_both_generations() {
        let e = PirError::StaleGeneration {
            held: 2,
            current: 5,
        };
        assert!(e.is_retryable());
        assert!(!e.is_retry_exhausted());
        let msg = e.to_string();
        assert!(msg.contains("generation 2"));
        assert!(msg.contains('5'));
    }

    #[test]
    fn storage_conversion() {
        let s = privpath_storage::StorageError::PageOutOfRange { page: 1, pages: 1 };
        let e: PirError = s.into();
        assert!(matches!(e, PirError::Storage(_)));
    }
}
