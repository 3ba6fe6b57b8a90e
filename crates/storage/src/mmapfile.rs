//! Memory-mapped paged files.
//!
//! [`MmapFile`] serves the same read-only page windows as
//! [`crate::pagefile::DiskFile`], but through a [`sysmap::Mapping`] so a
//! linear scan runs at memory bandwidth with zero syscalls and zero copies
//! ([`PagedFile::read_run`] lends each run straight from the mapping, and a
//! [`crate::ChecksumFile`] above verifies it there). On targets without
//! raw-syscall mappings the driver transparently falls back to reading the
//! window into an owned buffer at open time — the observable behavior (pages
//! served, errors, determinism) is identical either way, which the driver
//! differential suite pins.

use crate::error::StorageError;
use crate::page::{AlignedBytes, PageBuf};
use crate::pagefile::{check_run, lend_run, PagedFile};
use crate::Result;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

enum Backing {
    Map(sysmap::Mapping),
    Buf(AlignedBytes),
}

/// Read-only memory-mapped (or buffered-fallback) paged file window.
pub struct MmapFile {
    backing: Backing,
    num_pages: u32,
    page_size: usize,
}

impl MmapFile {
    /// Opens a flat page stream written by [`crate::pagefile::MemFile::persist`].
    pub fn open(path: &Path, page_size: usize) -> Result<Self> {
        if page_size == 0 {
            return Err(StorageError::Corrupt("page size must be non-zero".into()));
        }
        let len = std::fs::metadata(path)?.len();
        if len % page_size as u64 != 0 {
            return Err(StorageError::Corrupt(format!(
                "file length {len} is not a multiple of page size {page_size}"
            )));
        }
        Self::open_at(path, page_size, 0, (len / page_size as u64) as u32)
    }

    /// Opens a window of `num_pages` pages starting `byte_offset` bytes into
    /// `path` — the mapped twin of [`crate::pagefile::DiskFile::open_at`],
    /// with the same typed error when the window runs past the container.
    pub(crate) fn open_at(
        path: &Path,
        page_size: usize,
        byte_offset: u64,
        num_pages: u32,
    ) -> Result<Self> {
        if page_size == 0 {
            return Err(StorageError::Corrupt("page size must be non-zero".into()));
        }
        let mut file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        let span = num_pages as u64 * page_size as u64;
        let end = byte_offset.checked_add(span).ok_or_else(|| {
            StorageError::Corrupt(format!(
                "file window overflows: offset {byte_offset} + {span} bytes"
            ))
        })?;
        if end > len {
            return Err(StorageError::UnexpectedEof {
                wanted: end as usize,
                remaining: len as usize,
            });
        }
        let backing = match sysmap::Mapping::map(&file, byte_offset, span as usize) {
            Some(map) => Backing::Map(map),
            None => {
                // Buffered fallback: one read of the whole window up front,
                // into a buffer on a cache line like the mapping's pages.
                let mut buf = AlignedBytes::zeroed(span as usize);
                file.seek(SeekFrom::Start(byte_offset))?;
                file.read_exact(&mut buf)?;
                Backing::Buf(buf)
            }
        };
        Ok(MmapFile {
            backing,
            num_pages,
            page_size,
        })
    }

    /// True when the window is served by a real kernel mapping (false on the
    /// buffered fallback path).
    pub fn is_mapped(&self) -> bool {
        matches!(self.backing, Backing::Map(_))
    }

    fn bytes(&self) -> &[u8] {
        match &self.backing {
            Backing::Map(m) => m.as_slice(),
            Backing::Buf(b) => b,
        }
    }
}

impl PagedFile for MmapFile {
    fn num_pages(&self) -> u32 {
        self.num_pages
    }

    fn page_size(&self) -> usize {
        self.page_size
    }

    fn read_page(&self, page: u32) -> Result<PageBuf> {
        check_run(page, 1, self.num_pages)?;
        let start = page as usize * self.page_size;
        Ok(PageBuf::from_bytes(
            &self.bytes()[start..start + self.page_size],
            self.page_size,
        ))
    }

    fn read_page_into(&self, page: u32, out: &mut PageBuf) -> Result<()> {
        assert_eq!(out.len(), self.page_size, "page buffer size mismatch");
        check_run(page, 1, self.num_pages)?;
        let start = page as usize * self.page_size;
        out.as_mut_slice()
            .copy_from_slice(&self.bytes()[start..start + self.page_size]);
        Ok(())
    }

    /// Lends the run from the mapping (or the fallback buffer).
    fn read_run(&self, first: u32, scratch: &mut [u8]) -> Result<Option<&[u8]>> {
        lend_run(self.bytes(), self.page_size, first, scratch.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagefile::{DiskFile, MemFile};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("privpath-mmap-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn mmap_serves_the_same_pages_as_disk() {
        let dir = temp_dir("pages");
        let path = dir.join("pages.bin");
        let bytes: Vec<u8> = (0..9 * 256).map(|i| (i * 17 % 251) as u8).collect();
        MemFile::from_bytes(&bytes, 256).persist(&path).unwrap();

        let mapped = MmapFile::open(&path, 256).unwrap();
        let disk = DiskFile::open(&path, 256).unwrap();
        assert_eq!(mapped.num_pages(), 9);
        let mut a = PageBuf::zeroed(256);
        let mut b = PageBuf::zeroed(256);
        for p in 0..9u32 {
            assert_eq!(mapped.read_page(p).unwrap(), disk.read_page(p).unwrap());
            mapped.read_page_into(p, &mut a).unwrap();
            disk.read_page_into(p, &mut b).unwrap();
            assert_eq!(a, b);
        }
        assert!(matches!(
            mapped.read_page(9),
            Err(StorageError::PageOutOfRange { .. })
        ));
        let mut scratch = vec![0u8; 9 * 256];
        assert_eq!(mapped.read_run(0, &mut scratch).unwrap(), Some(&bytes[..]));
        // On Linux this is a real mapping; elsewhere the fallback buffer
        // must behave identically (the assertions above already checked it).
        assert_eq!(mapped.is_mapped(), sysmap::supported());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mmap_window_matches_disk_window() {
        let dir = temp_dir("window");
        let path = dir.join("container.bin");
        let mut bytes = vec![0x5Au8; 777]; // unaligned preamble
        let payload: Vec<u8> = (0..6 * 128).map(|i| (i * 7 % 250) as u8).collect();
        bytes.extend_from_slice(&payload);
        std::fs::write(&path, &bytes).unwrap();

        let mapped = MmapFile::open_at(&path, 128, 777, 6).unwrap();
        let disk = DiskFile::open_at(&path, 128, 777, 6).unwrap();
        for p in 0..6u32 {
            assert_eq!(mapped.read_page(p).unwrap(), disk.read_page(p).unwrap());
        }
        let mut run = vec![0u8; 3 * 128];
        mapped.read_run_into(2, &mut run).unwrap();
        assert_eq!(&run[..], &payload[2 * 128..5 * 128]);
        assert!(mapped.read_run_into(5, &mut run).is_err());
        // Window past EOF is the same typed error as the disk driver's.
        assert!(matches!(
            MmapFile::open_at(&path, 128, 777, 7),
            Err(StorageError::UnexpectedEof { .. })
        ));
        assert!(MmapFile::open_at(&path, 0, 0, 1).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mmap_rejects_misaligned_flat_file() {
        let dir = temp_dir("misaligned");
        let path = dir.join("bad.bin");
        std::fs::write(&path, [0u8; 100]).unwrap();
        assert!(matches!(
            MmapFile::open(&path, 64),
            Err(StorageError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
