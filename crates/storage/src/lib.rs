//! Disk-page substrate for the privpath workspace.
//!
//! The paper's LBS stores every database file in equal-sized pages (4 KByte in
//! the evaluation, Table 2) and the PIR interface retrieves exactly one page
//! per request. This crate provides:
//!
//! * [`page`] — page-size constants and the [`page::PageBuf`] fixed-size buffer;
//! * [`codec`] — the little-endian byte readers/writers every file format in
//!   the system is written through;
//! * [`pagefile`] — the [`pagefile::PagedFile`] abstraction with in-memory and
//!   on-disk backends (the paper's framework "applies to storage in main
//!   memory or a solid state drive" as well, §3.1);
//! * [`mmapfile`] — the memory-mapped driver behind the same trait (raw
//!   syscalls via the vendored `sysmap` shim, buffered fallback elsewhere);
//! * [`checksum`] — CRC-32 used to detect tampering when running against the
//!   fault-injecting PIR backend (extension beyond the paper's
//!   honest-but-curious adversary).

pub mod checksum;
pub mod codec;
pub mod error;
pub mod mmapfile;
pub mod page;
pub mod pagefile;
pub mod snapshot;

pub use checksum::crc32;
pub use codec::{ByteReader, ByteWriter};
pub use error::StorageError;
pub use mmapfile::MmapFile;
pub use page::{PageBuf, DEFAULT_PAGE_SIZE};
pub use pagefile::{atomic_write, ChecksumFile, DiskFile, MemFile, PagedFile};
pub use snapshot::{SnapshotEntry, SnapshotReader, SnapshotWriter};

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, StorageError>;
