//! Versioned on-disk snapshot container for a whole built database.
//!
//! A snapshot embeds every paged file of a built database in one container,
//! with enough manifest to reopen it cold: a magic/version preamble, a
//! CRC-guarded header carrying an opaque caller meta blob plus a per-file
//! manifest (name, opaque mode blob, page geometry, byte offset, per-page
//! CRC-32 table), then the raw page data. Layout:
//!
//! ```text
//! [magic u32 "PPSN"][version u16][header_len u32][header_crc u32]
//! [header: meta | file_count | file entries...]
//! [page data, one contiguous run per file]
//! ```
//!
//! File data offsets in the manifest are relative to the end of the header
//! (`data_start`), so the header can be built in one pass without patching.
//!
//! Snapshots are written through [`crate::pagefile::atomic_write`]: a crash
//! mid-write leaves either the previous snapshot or none — a partially
//! written snapshot is never observable at the final path. The reader
//! validates everything it touches and returns typed [`StorageError`]s;
//! arbitrary bytes, truncations, and bit flips must never panic it.

use crate::checksum::crc32;
use crate::codec::{ByteReader, ByteWriter};
use crate::error::StorageError;
use crate::mmapfile::MmapFile;
use crate::pagefile::{atomic_write, ChecksumFile, DiskFile, MemFile, PagedFile};
use crate::Result;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic prefix, `b"PPSN"` on disk (little-endian u32).
pub(crate) const SNAPSHOT_MAGIC: u32 = 0x4E53_5050;
/// Current container format version.
pub(crate) const SNAPSHOT_VERSION: u16 = 1;
/// Fixed preamble size: magic + version + header_len + header_crc.
const PREAMBLE_BYTES: u64 = 4 + 2 + 4 + 4;

/// One file recorded in a snapshot manifest.
pub struct SnapshotEntry {
    /// File name as registered with the server (e.g. `"Fh"`, `"Fi|Fd"`).
    pub name: String,
    /// Opaque per-file blob (the serving layer stores the PIR mode here).
    pub mode_blob: Vec<u8>,
    /// Page size in bytes.
    pub(crate) page_size: usize,
    /// Number of pages.
    pub(crate) num_pages: u32,
    /// Byte offset of the file's pages, relative to `data_start`.
    rel_offset: u64,
    /// Per-page CRC-32 table, one entry per page.
    crcs: Vec<u32>,
}

/// Builds and writes a snapshot container.
pub struct SnapshotWriter {
    meta: Vec<u8>,
    files: Vec<(String, Vec<u8>, Arc<dyn PagedFile>)>,
}

impl SnapshotWriter {
    /// Starts a snapshot carrying an opaque caller `meta` blob (the serving
    /// layer records scheme kind, seed, spec, and build stats there).
    pub fn new(meta: Vec<u8>) -> Self {
        SnapshotWriter {
            meta,
            files: Vec::new(),
        }
    }

    /// Appends a file. Files are laid out in the order added; the reader
    /// reports them in the same order, which the serving layer relies on to
    /// reproduce deterministic file ids.
    pub fn add_file(
        &mut self,
        name: impl Into<String>,
        mode_blob: Vec<u8>,
        file: Arc<dyn PagedFile>,
    ) {
        self.files.push((name.into(), mode_blob, file));
    }

    /// Writes the snapshot to `path` atomically (temp + fsync + rename).
    /// Reads every page of every file twice: once for the manifest CRCs,
    /// once to stream the data.
    pub fn write(&self, path: &Path) -> Result<()> {
        let mut header = ByteWriter::new();
        header.len_bytes(&self.meta);
        header.u16(self.files.len() as u16);
        let mut rel = 0u64;
        for (name, mode_blob, file) in &self.files {
            header.len_bytes(name.as_bytes());
            header.len_bytes(mode_blob);
            header.u32(file.page_size() as u32);
            header.u32(file.num_pages());
            header.u64(rel);
            for p in 0..file.num_pages() {
                header.u32(crc32(file.read_page(p)?.as_slice()));
            }
            rel += file.size_bytes();
        }
        let header = header.into_vec();
        let header_crc = crc32(&header);

        atomic_write(path, |f| {
            let mut preamble = ByteWriter::with_capacity(PREAMBLE_BYTES as usize);
            preamble
                .u32(SNAPSHOT_MAGIC)
                .u16(SNAPSHOT_VERSION)
                .u32(header.len() as u32)
                .u32(header_crc);
            f.write_all(preamble.as_slice())?;
            f.write_all(&header)?;
            for (_, _, file) in &self.files {
                for p in 0..file.num_pages() {
                    f.write_all(file.read_page(p)?.as_slice())?;
                }
            }
            Ok(())
        })
    }
}

/// Opens and validates a snapshot container; hands out page drivers for the
/// embedded files.
pub struct SnapshotReader {
    path: PathBuf,
    meta: Vec<u8>,
    entries: Vec<SnapshotEntry>,
    data_start: u64,
}

impl SnapshotReader {
    /// Opens `path`, validating magic, version, header CRC, and every
    /// manifest entry's bounds against the actual container length. Any
    /// malformed input — truncation, bit flip, garbage — yields a typed
    /// [`StorageError`], never a panic.
    pub fn open(path: &Path) -> Result<Self> {
        let bytes = std::fs::read(path)?;
        if bytes.len() < PREAMBLE_BYTES as usize {
            return Err(StorageError::UnexpectedEof {
                wanted: PREAMBLE_BYTES as usize,
                remaining: bytes.len(),
            });
        }
        let mut r = ByteReader::new(&bytes);
        let magic = r.u32()?;
        if magic != SNAPSHOT_MAGIC {
            return Err(StorageError::Corrupt(format!(
                "bad snapshot magic {magic:#010x}"
            )));
        }
        let version = r.u16()?;
        if version != SNAPSHOT_VERSION {
            return Err(StorageError::Corrupt(format!(
                "unsupported snapshot version {version}"
            )));
        }
        let header_len = r.u32()? as usize;
        let header_crc = r.u32()?;
        let header = r.bytes(header_len)?;
        let actual = crc32(header);
        if actual != header_crc {
            return Err(StorageError::ChecksumMismatch {
                expected: header_crc,
                actual,
            });
        }
        let data_start = PREAMBLE_BYTES + header_len as u64;
        let data_len = bytes.len() as u64 - data_start;

        let mut h = ByteReader::new(header);
        let meta = h.len_bytes()?.to_vec();
        let file_count = h.u16()?;
        let mut entries = Vec::with_capacity(file_count as usize);
        for i in 0..file_count {
            let name = std::str::from_utf8(h.len_bytes()?)
                .map_err(|_| StorageError::Corrupt(format!("file {i}: name is not UTF-8")))?
                .to_string();
            let mode_blob = h.len_bytes()?.to_vec();
            let page_size = h.u32()? as usize;
            let num_pages = h.u32()?;
            let rel_offset = h.u64()?;
            if page_size == 0 && num_pages > 0 {
                return Err(StorageError::Corrupt(format!(
                    "file {name}: zero page size with {num_pages} pages"
                )));
            }
            let span = num_pages as u64 * page_size as u64;
            let end = rel_offset.checked_add(span).ok_or_else(|| {
                StorageError::Corrupt(format!("file {name}: data window overflows"))
            })?;
            if end > data_len {
                return Err(StorageError::UnexpectedEof {
                    wanted: end as usize,
                    remaining: data_len as usize,
                });
            }
            let mut crcs = Vec::with_capacity(num_pages as usize);
            for _ in 0..num_pages {
                crcs.push(h.u32()?);
            }
            entries.push(SnapshotEntry {
                name,
                mode_blob,
                page_size,
                num_pages,
                rel_offset,
                crcs,
            });
        }
        if h.remaining() != 0 {
            return Err(StorageError::Corrupt(format!(
                "{} trailing bytes after snapshot manifest",
                h.remaining()
            )));
        }
        Ok(SnapshotReader {
            path: path.to_path_buf(),
            meta,
            entries,
            data_start,
        })
    }

    /// The opaque caller meta blob.
    pub fn meta(&self) -> &[u8] {
        &self.meta
    }

    /// Manifest entries, in the order the files were added at write time.
    pub fn entries(&self) -> &[SnapshotEntry] {
        &self.entries
    }

    /// Opens file `i` as a disk-backed driver with per-read checksum
    /// verification — a damaged page surfaces as
    /// [`StorageError::PageCorrupt`] at read time, never a wrong answer.
    pub fn open_disk(&self, i: usize) -> Result<ChecksumFile> {
        let e = self.entry(i)?;
        let disk = DiskFile::open_at(
            &self.path,
            e.page_size,
            self.data_start + e.rel_offset,
            e.num_pages,
        )?;
        Ok(ChecksumFile::new(
            e.name.clone(),
            Arc::new(disk),
            e.crcs.clone(),
        ))
    }

    /// Opens file `i` as a memory-mapped driver with per-read checksum
    /// verification — the same integrity envelope as
    /// [`SnapshotReader::open_disk`], but the underlying run reads come
    /// straight out of the mapping (or its buffered fallback) instead of
    /// positioned syscalls.
    pub fn open_mmap(&self, i: usize) -> Result<ChecksumFile> {
        let e = self.entry(i)?;
        let mapped = MmapFile::open_at(
            &self.path,
            e.page_size,
            self.data_start + e.rel_offset,
            e.num_pages,
        )?;
        Ok(ChecksumFile::new(
            e.name.clone(),
            Arc::new(mapped),
            e.crcs.clone(),
        ))
    }

    /// Loads file `i` fully into memory, verifying every page checksum.
    pub fn load_mem(&self, i: usize) -> Result<MemFile> {
        let e = self.entry(i)?;
        let disk = self.open_disk(i)?;
        let mut pages = Vec::with_capacity(e.num_pages as usize);
        for p in 0..e.num_pages {
            pages.push(disk.read_page(p)?);
        }
        Ok(MemFile::from_pages(pages, e.page_size))
    }

    fn entry(&self, i: usize) -> Result<&SnapshotEntry> {
        self.entries.get(i).ok_or(StorageError::PageOutOfRange {
            page: i as u32,
            pages: self.entries.len() as u32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("privpath-snap-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_files() -> Vec<(String, Vec<u8>, MemFile)> {
        let a: Vec<u8> = (0..3 * 64).map(|i| (i % 251) as u8).collect();
        let b: Vec<u8> = (0..5 * 64).map(|i| (i * 3 % 241) as u8).collect();
        vec![
            ("Fh".into(), vec![0], MemFile::from_bytes(&a, 64)),
            ("Fd".into(), vec![1, 9], MemFile::from_bytes(&b, 64)),
            ("empty".into(), vec![], MemFile::empty(64)),
        ]
    }

    fn write_sample(path: &Path) {
        let mut w = SnapshotWriter::new(b"meta-blob".to_vec());
        for (name, blob, file) in sample_files() {
            w.add_file(name, blob, Arc::new(file));
        }
        w.write(path).unwrap();
    }

    #[test]
    fn round_trip_disk_and_mem() {
        let dir = temp_dir("rt");
        let path = dir.join("db.snap");
        write_sample(&path);

        let r = SnapshotReader::open(&path).unwrap();
        assert_eq!(r.meta(), b"meta-blob");
        let originals = sample_files();
        assert_eq!(r.entries().len(), originals.len());
        for (i, (name, blob, mem)) in originals.iter().enumerate() {
            let e = &r.entries()[i];
            assert_eq!(&e.name, name);
            assert_eq!(&e.mode_blob, blob);
            assert_eq!(e.num_pages, mem.num_pages());
            assert_eq!(e.page_size, 64);
            let disk = r.open_disk(i).unwrap();
            let loaded = r.load_mem(i).unwrap();
            assert_eq!(loaded.num_pages(), mem.num_pages());
            for p in 0..mem.num_pages() {
                assert_eq!(disk.read_page(p).unwrap(), mem.read_page(p).unwrap());
                assert_eq!(loaded.read_page(p).unwrap(), mem.read_page(p).unwrap());
            }
        }
        assert!(r.open_disk(3).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn page_bit_flip_is_page_corrupt_with_identity() {
        let dir = temp_dir("flip");
        let path = dir.join("db.snap");
        write_sample(&path);

        // Flip one bit in the SECOND file's page 2 (data region).
        let mut bytes = std::fs::read(&path).unwrap();
        let data_start = bytes.len() - 8 * 64; // 3 + 5 + 0 pages of 64B
        bytes[data_start + 3 * 64 + 2 * 64 + 10] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();

        let r = SnapshotReader::open(&path).unwrap(); // header intact
        let disk = r.open_disk(1).unwrap();
        assert!(disk.read_page(0).is_ok());
        match disk.read_page(2) {
            Err(StorageError::PageCorrupt { file, page, .. }) => {
                assert_eq!(file, "Fd");
                assert_eq!(page, 2);
            }
            other => panic!("expected PageCorrupt, got {other:?}"),
        }
        assert!(matches!(
            r.load_mem(1),
            Err(StorageError::PageCorrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn structural_damage_is_typed() {
        let dir = temp_dir("struct");
        let path = dir.join("db.snap");
        write_sample(&path);
        let good = std::fs::read(&path).unwrap();

        // Bad magic.
        let mut b = good.clone();
        b[0] ^= 0xFF;
        std::fs::write(&path, &b).unwrap();
        assert!(matches!(
            SnapshotReader::open(&path),
            Err(StorageError::Corrupt(_))
        ));

        // Unsupported version.
        let mut b = good.clone();
        b[4] = 99;
        std::fs::write(&path, &b).unwrap();
        assert!(matches!(
            SnapshotReader::open(&path),
            Err(StorageError::Corrupt(_))
        ));

        // Header bit flip -> header checksum mismatch.
        let mut b = good.clone();
        b[PREAMBLE_BYTES as usize + 3] ^= 0x01;
        std::fs::write(&path, &b).unwrap();
        assert!(matches!(
            SnapshotReader::open(&path),
            Err(StorageError::ChecksumMismatch { .. })
        ));

        // Truncations at every prefix of the preamble+header.
        for cut in [0usize, 3, 7, 13, PREAMBLE_BYTES as usize + 5] {
            std::fs::write(&path, &good[..cut]).unwrap();
            assert!(
                SnapshotReader::open(&path).is_err(),
                "truncation to {cut} bytes must fail typed"
            );
        }

        // Truncated data region: open succeeds only if every window still
        // fits; cutting the last page must fail at open.
        std::fs::write(&path, &good[..good.len() - 1]).unwrap();
        assert!(matches!(
            SnapshotReader::open(&path),
            Err(StorageError::UnexpectedEof { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    proptest! {
        // Satellite: arbitrary bytes, truncations, and single-bit flips fed
        // to the snapshot open path always produce a typed StorageError —
        // never a panic, never a silently short file.
        #[test]
        fn fuzz_arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let dir = temp_dir("fuzz-arb");
            let path = dir.join("junk.snap");
            std::fs::write(&path, &bytes).unwrap();
            let _ = SnapshotReader::open(&path); // Ok or typed Err, no panic
            let _ = DiskFile::open(&path, 64);
            std::fs::remove_dir_all(&dir).ok();
        }

        #[test]
        fn fuzz_mutated_valid_snapshot_never_panics(
            flip_bit in 0usize..4096,
            trunc_permille in 0u32..1000,
        ) {
            let dir = temp_dir("fuzz-mut");
            let path = dir.join("db.snap");
            write_sample(&path);
            let good = std::fs::read(&path).unwrap();

            // Single-bit flip anywhere in the container.
            let mut flipped = good.clone();
            let bit = flip_bit % (good.len() * 8);
            flipped[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&path, &flipped).unwrap();
            if let Ok(r) = SnapshotReader::open(&path) {
                // Header survived (flip landed in data): every page read is
                // Ok or typed PageCorrupt, never a panic or a wrong answer
                // passed off as clean.
                for i in 0..r.entries().len() {
                    if let Ok(d) = r.open_disk(i) {
                        for p in 0..d.num_pages() {
                            let _ = d.read_page(p);
                        }
                    }
                    let _ = r.load_mem(i);
                }
            }

            // Truncation at an arbitrary point.
            let cut = good.len() * trunc_permille as usize / 1000;
            std::fs::write(&path, &good[..cut.min(good.len())]).unwrap();
            if let Ok(r) = SnapshotReader::open(&path) {
                for i in 0..r.entries().len() {
                    let _ = r.load_mem(i);
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
