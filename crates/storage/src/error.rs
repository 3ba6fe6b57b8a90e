//! Error type shared by the storage layer.

use std::fmt;

/// Errors raised by the page/codec/file layer.
#[derive(Debug)]
pub enum StorageError {
    /// A read ran past the end of the buffer being decoded.
    UnexpectedEof {
        /// Bytes requested by the failed read.
        wanted: usize,
        /// Bytes remaining in the buffer.
        remaining: usize,
    },
    /// A record was too large to fit in a single page where the format
    /// requires it to.
    RecordTooLarge {
        /// Size of the offending record in bytes.
        record: usize,
        /// Page capacity in bytes.
        capacity: usize,
    },
    /// A page index was out of range for the file.
    PageOutOfRange {
        /// Requested page number.
        page: u32,
        /// Number of pages in the file.
        pages: u32,
    },
    /// The decoded bytes violated the expected format.
    Corrupt(String),
    /// Checksum mismatch — the page content was tampered with or damaged.
    ChecksumMismatch {
        /// Checksum stored with the page.
        expected: u32,
        /// Checksum recomputed over the payload.
        actual: u32,
    },
    /// A page read returned bytes whose checksum disagrees with the
    /// snapshot manifest — bit rot or tampering, with file/page identity so
    /// the operator knows exactly what to restore. Always fatal: re-reading
    /// damaged media does not help.
    PageCorrupt {
        /// Name of the paged file the bad read came from.
        file: String,
        /// Zero-based page index within that file.
        page: u32,
        /// Checksum recorded in the snapshot manifest.
        expected: u32,
        /// Checksum recomputed over the bytes actually read.
        actual: u32,
    },
    /// A versioned format this build does not read — written by an older
    /// or newer layout. Refused whole, so nothing is misread.
    UnsupportedVersion {
        /// What carries the version.
        what: &'static str,
        /// The version found.
        found: u32,
        /// The one version this build reads.
        supported: u32,
    },
    /// Underlying I/O failure (disk-backed files only).
    Io(std::io::Error),
}

impl StorageError {
    /// True for failures where retrying the same read can plausibly succeed
    /// (interrupted syscalls, timeouts). Corruption and structural errors
    /// are fatal: the bytes on disk will not improve on a second look.
    pub fn is_transient(&self) -> bool {
        match self {
            StorageError::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::Interrupted
                    | std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::WouldBlock
            ),
            _ => false,
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnexpectedEof { wanted, remaining } => {
                write!(
                    f,
                    "unexpected EOF: wanted {wanted} bytes, {remaining} remaining"
                )
            }
            StorageError::RecordTooLarge { record, capacity } => {
                write!(
                    f,
                    "record of {record} bytes exceeds page capacity {capacity}"
                )
            }
            StorageError::PageOutOfRange { page, pages } => {
                write!(f, "page {page} out of range (file has {pages} pages)")
            }
            StorageError::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
            StorageError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: stored {expected:#010x}, computed {actual:#010x}"
                )
            }
            StorageError::PageCorrupt {
                file,
                page,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "page corrupt: {file} page {page}: manifest crc {expected:#010x}, read {actual:#010x}"
                )
            }
            StorageError::UnsupportedVersion {
                what,
                found,
                supported,
            } => write!(
                f,
                "{what} version {found} is not supported (this build reads {supported})"
            ),
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StorageError::UnexpectedEof {
            wanted: 8,
            remaining: 3,
        };
        assert!(e.to_string().contains("wanted 8"));
        let e = StorageError::RecordTooLarge {
            record: 5000,
            capacity: 4096,
        };
        assert!(e.to_string().contains("5000"));
        let e = StorageError::PageOutOfRange { page: 9, pages: 4 };
        assert!(e.to_string().contains("page 9"));
        let e = StorageError::ChecksumMismatch {
            expected: 1,
            actual: 2,
        };
        assert!(e.to_string().contains("checksum"));
    }

    #[test]
    fn page_corrupt_names_the_page() {
        let e = StorageError::PageCorrupt {
            file: "Fd".into(),
            page: 17,
            expected: 0xdead_beef,
            actual: 0x1234_5678,
        };
        let s = e.to_string();
        assert!(s.contains("Fd"));
        assert!(s.contains("page 17"));
        assert!(s.contains("0xdeadbeef"));
        assert!(!e.is_transient());
    }

    #[test]
    fn transient_taxonomy() {
        for kind in [
            std::io::ErrorKind::Interrupted,
            std::io::ErrorKind::TimedOut,
            std::io::ErrorKind::WouldBlock,
        ] {
            let e = StorageError::Io(std::io::Error::new(kind, "flaky"));
            assert!(e.is_transient(), "{kind:?} should be transient");
        }
        let e = StorageError::Io(std::io::Error::other("dead disk"));
        assert!(!e.is_transient());
        assert!(!StorageError::Corrupt("x".into()).is_transient());
        assert!(!StorageError::ChecksumMismatch {
            expected: 1,
            actual: 2
        }
        .is_transient());
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::other("boom");
        let e: StorageError = io.into();
        assert!(matches!(e, StorageError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
