//! Disk-page substrate for the privpath workspace.
//!
//! The paper's LBS stores every database file in equal-sized pages (4 KByte in
//! the evaluation, Table 2) and the PIR interface retrieves exactly one page
//! per request. This crate provides:
//!
//! * `page` — page-size constants and the [`PageBuf`] fixed-size buffer;
//! * `codec` — the little-endian [`ByteReader`]/[`ByteWriter`] every file
//!   format in the system is written through;
//! * `pagefile` — the [`PagedFile`] abstraction with in-memory and on-disk
//!   backends (the paper's framework "applies to storage in main memory or a
//!   solid state drive" as well, §3.1);
//! * `mmapfile` — the memory-mapped [`MmapFile`] driver behind the same trait
//!   (raw syscalls via the vendored `sysmap` shim, buffered fallback
//!   elsewhere);
//! * `checksum` — [`crc32`], used to detect tampering when running against
//!   the fault-injecting PIR backend (extension beyond the paper's
//!   honest-but-curious adversary), and [`crc32_select`], the linear
//!   sweep's verify-and-select pass over a page;
//! * `snapshot` — the atomic-rename, CRC-guarded snapshot container
//!   ([`SnapshotWriter`], [`SnapshotReader`]).

#![warn(unreachable_pub)]

mod checksum;
mod codec;
mod error;
mod mmapfile;
mod page;
mod pagefile;
mod snapshot;

pub use checksum::{crc32, crc32_select};
pub use codec::{ByteReader, ByteWriter};
pub use error::StorageError;
pub use mmapfile::MmapFile;
pub use page::{PageBuf, DEFAULT_PAGE_SIZE};
pub use pagefile::{atomic_write, ChecksumFile, DiskFile, MemFile, PagedFile, RunSink};
pub use snapshot::{SnapshotEntry, SnapshotReader, SnapshotWriter};

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, StorageError>;
