//! Paged files: the unit of storage the PIR interface operates on.
//!
//! Each database file (`Fh`, `Fl`, `Fi`, `Fd` — or the concatenated `Fi|Fd`
//! of the HY scheme) is a sequence of equal-sized pages. The PIR protocol of
//! Williams & Sion fetches one page at a time and its cost grows with the
//! total number of pages in the file, so the file abstraction exposes exactly
//! `num_pages`, `page_size`, and `read_page`.

use crate::checksum::{crc32, crc32_select, lane_select};
use crate::error::StorageError;
use crate::page::{AlignedBytes, PageBuf};
use crate::Result;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// Writes a file crash-safely: `fill` streams the content into a temp file
/// in the destination directory, the temp file is fsynced, then atomically
/// renamed over `path` (and the directory fsynced, best-effort). A crash at
/// any point leaves either the old content or the new content at `path` —
/// never a torn half-write. If `fill` fails the temp file is removed and
/// `path` is untouched.
pub fn atomic_write(
    path: &Path,
    fill: impl FnOnce(&mut std::fs::File) -> Result<()>,
) -> Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| StorageError::Corrupt(format!("not a file path: {}", path.display())))?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(file_name);
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        fill(&mut f)?;
        f.sync_all()?;
        Ok(())
    })();
    if let Err(e) = result {
        std::fs::remove_file(&tmp).ok();
        return Err(e);
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        std::fs::remove_file(&tmp).ok();
        return Err(e.into());
    }
    // Durability of the rename itself: fsync the directory. Best-effort —
    // some filesystems refuse to sync a directory handle.
    if let Some(d) = dir {
        if let Ok(dh) = std::fs::File::open(d) {
            dh.sync_all().ok();
        }
    }
    Ok(())
}

/// A read-only file of equal-sized pages.
///
/// Implementations must be **immutable and deterministic once served**:
/// every read of the same page returns the same bytes, concurrently from
/// any thread. Sessions across threads share one file behind an `Arc`, the
/// leakage suite's differential equalities compare page bytes bit for bit,
/// and the generation hot-swap path (PR 8) relies on a published
/// `Database` — files included — never changing after the registry hands
/// it out; a "rebuild" is always a new file set under a new generation,
/// never an in-place edit. Page counts are `u32` by protocol: a file holds
/// at most `u32::MAX` pages (the wire's `RoundRequest`/`FileInfo` carry
/// page indices as `u32`).
pub trait PagedFile: Send + Sync {
    /// Number of pages in the file.
    fn num_pages(&self) -> u32;
    /// Page size in bytes (uniform across the file).
    fn page_size(&self) -> usize;
    /// Reads page `page` (zero-based). Fails with
    /// [`StorageError::PageOutOfRange`] for invalid indices.
    fn read_page(&self, page: u32) -> Result<PageBuf>;

    /// Reads page `page` into an existing buffer of the file's page size —
    /// the allocation-free read the batched PIR round path is built on.
    /// The default goes through [`PagedFile::read_page`]; in-memory backends
    /// override it with a straight copy.
    ///
    /// # Panics
    /// Panics if `out.len() != self.page_size()`.
    fn read_page_into(&self, page: u32, out: &mut PageBuf) -> Result<()> {
        assert_eq!(out.len(), self.page_size(), "page buffer size mismatch");
        let buf = self.read_page(page)?;
        out.as_mut_slice().copy_from_slice(buf.as_slice());
        Ok(())
    }

    /// Reads the contiguous run of as many pages as `scratch` holds, starting
    /// at `first` (`scratch.len()` a multiple of [`PagedFile::page_size`]; a
    /// zero-length run is a no-op). This is the batch primitive the
    /// linear-scan PIR kernel streams the file through. A driver either
    /// fills `scratch` and returns `None`, or leaves it alone and lends the
    /// run's bytes it already holds — `Some`, exactly `scratch.len()` of
    /// them: flat in-memory files and mappings lend, so a sweep over them
    /// copies nothing. [`DiskFile`] fills with one positioned read per run
    /// instead of one syscall per page.
    ///
    /// The default fills page by page through [`PagedFile::read_page`],
    /// which keeps per-page wrappers (fault injection) faithful without an
    /// override of their own. A wrapper that overrides it must apply itself
    /// to lent bytes as well as filled ones: [`ChecksumFile`] verifies every
    /// page of the run, whichever way its inner driver returned it.
    ///
    /// # Panics
    /// Panics if `scratch.len()` is not a multiple of the page size.
    fn read_run(&self, first: u32, scratch: &mut [u8]) -> Result<Option<&[u8]>> {
        let ps = self.page_size();
        assert_eq!(scratch.len() % ps, 0, "run buffer must hold whole pages");
        let count = (scratch.len() / ps) as u32;
        if count == 0 {
            return Ok(None);
        }
        check_run(first, count, self.num_pages())?;
        for (i, chunk) in scratch.chunks_exact_mut(ps).enumerate() {
            let buf = self.read_page(first + i as u32)?;
            chunk.copy_from_slice(buf.as_slice());
        }
        Ok(None)
    }

    /// [`PagedFile::read_run`] into `out`, whichever way the driver serves
    /// the run: lent bytes are copied out.
    ///
    /// # Panics
    /// Panics if `out.len()` is not a multiple of the page size.
    fn read_run_into(&self, first: u32, out: &mut [u8]) -> Result<()> {
        if let Some(lent) = self.read_run(first, out)? {
            out.copy_from_slice(lent);
        }
        Ok(())
    }

    /// Selects the run [`PagedFile::read_run`] would return into `sink`,
    /// page by page in file order: each page is OR-ed under the mask
    /// [`RunSink::slot`] gives into the accumulator it gives, and
    /// [`RunSink::selected`] is told once the page is done — the linear
    /// sweep's one pass over the bytes of a run. On an error the pages from
    /// the failing one on are not reported selected.
    ///
    /// The default reads the run and selects each page with the lane kernel.
    /// [`ChecksumFile`] verifies each page in the same pass instead.
    ///
    /// # Panics
    /// Panics if `scratch.len()` is not a multiple of the page size, or if
    /// an accumulator is not page-sized.
    fn select_run(&self, first: u32, scratch: &mut [u8], sink: &mut dyn RunSink) -> Result<()> {
        let ps = self.page_size();
        let lent = self.read_run(first, scratch)?;
        for (i, page) in lent.unwrap_or(scratch).chunks_exact(ps).enumerate() {
            let p = first + i as u32;
            let (mask, acc) = sink.slot(p);
            assert_eq!(acc.len(), ps, "accumulator size mismatch");
            lane_select(page, mask, acc);
            sink.selected(p);
        }
        Ok(())
    }

    /// Total file size in bytes.
    fn size_bytes(&self) -> u64 {
        self.num_pages() as u64 * self.page_size() as u64
    }
}

/// Where [`PagedFile::select_run`] puts the pages of a run.
pub trait RunSink {
    /// The mask (all-ones or all-zeros) page `page` is selected under and
    /// the page-sized accumulator it is OR-ed into.
    fn slot(&mut self, page: u32) -> (u64, &mut [u8]);
    /// Page `page` is in its slot, verified if the file verifies.
    fn selected(&mut self, page: u32);
}

/// Validates that the run `first .. first + count` lies inside a file of
/// `pages` pages, surfacing the first out-of-range page like a single-page
/// read would.
pub(crate) fn check_run(first: u32, count: u32, pages: u32) -> Result<()> {
    let beyond = first.checked_add(count).is_none_or(|end| end > pages);
    if beyond {
        return Err(StorageError::PageOutOfRange {
            page: first.max(pages),
            pages,
        });
    }
    Ok(())
}

/// In-memory paged file. The default backend: the paper notes the framework
/// "applies to storage in main memory or a solid state drive" (§3.1), and the
/// in-memory form keeps experiments deterministic and fast while the *cost*
/// of disk access is charged by the PIR cost model.
///
/// Pages are stored as one flat byte buffer, so [`PagedFile::read_run`]
/// lends each run to the linear-scan kernel instead of copying it. The
/// buffer starts on a cache line (`AlignedBytes`; every page does too when
/// the page size is a multiple of 64, as 4 KiB is), so the runs it lends —
/// the sweep's source — are as aligned as the slots they are selected into;
/// clones, and growth by [`MemFile::push_page`] and [`MemFile::concat`],
/// keep it so.
#[derive(Clone)]
pub struct MemFile {
    bytes: AlignedBytes,
    page_size: usize,
}

impl MemFile {
    /// Builds a file from pre-cut pages.
    ///
    /// # Panics
    /// Panics if pages disagree on size.
    pub fn from_pages(pages: Vec<PageBuf>, page_size: usize) -> Self {
        let mut bytes = AlignedBytes::with_capacity(pages.len() * page_size);
        for p in &pages {
            assert_eq!(p.len(), page_size, "all pages must have the declared size");
            bytes.extend_from_slice(p.as_slice());
        }
        MemFile { bytes, page_size }
    }

    /// Builds a file by slicing a flat byte buffer into pages (last page
    /// zero-padded).
    pub fn from_bytes(bytes: &[u8], page_size: usize) -> Self {
        let mut padded = AlignedBytes::zeroed(bytes.len().next_multiple_of(page_size));
        padded[..bytes.len()].copy_from_slice(bytes);
        MemFile {
            bytes: padded,
            page_size,
        }
    }

    /// Empty file.
    pub fn empty(page_size: usize) -> Self {
        MemFile {
            bytes: AlignedBytes::with_capacity(0),
            page_size,
        }
    }

    /// Appends a page; returns its page number.
    pub fn push_page(&mut self, page: PageBuf) -> u32 {
        assert_eq!(page.len(), self.page_size);
        self.bytes.extend_from_slice(page.as_slice());
        self.num_pages() - 1
    }

    /// Concatenates another file of the same page size onto this one,
    /// returning the page offset at which it starts. Used by the HY scheme,
    /// which stores `Fi` and `Fd` "into a single physical file" so the
    /// adversary cannot tell region-set queries from subgraph queries.
    ///
    /// The returned offset is part of the *published* file layout: HY bakes
    /// it into the query plan, so concatenation order must be fixed at
    /// build time — concatenating in a different order produces a
    /// different (still valid) generation, not an equivalent one.
    pub fn concat(&mut self, other: &MemFile) -> u32 {
        assert_eq!(self.page_size, other.page_size);
        let off = self.num_pages();
        self.bytes.extend_from_slice(&other.bytes);
        off
    }

    /// Borrows page `page` without copying — the in-memory fast path for
    /// callers that only need to look at a page (CRC computation, tests).
    pub fn page(&self, page: u32) -> Result<&[u8]> {
        let pages = self.num_pages();
        if page >= pages {
            return Err(StorageError::PageOutOfRange { page, pages });
        }
        let start = page as usize * self.page_size;
        Ok(&self.bytes[start..start + self.page_size])
    }

    /// Writes the file to disk (one flat stream of pages), crash-safely:
    /// the pages stream into a temp file which is fsynced and atomically
    /// renamed into place, so a crash mid-write never leaves a torn file at
    /// `path`.
    pub fn persist(&self, path: &Path) -> Result<()> {
        self.persist_with(path, |_| Ok(()))
    }

    /// [`MemFile::persist`] with a fault hook called after each page write —
    /// the injection point the crash-safety regression test uses to fail the
    /// write mid-stream and observe that `path` is untouched.
    pub(crate) fn persist_with(
        &self,
        path: &Path,
        mut after_page: impl FnMut(u32) -> Result<()>,
    ) -> Result<()> {
        atomic_write(path, |f| {
            for (i, p) in self.bytes.chunks(self.page_size).enumerate() {
                f.write_all(p)?;
                after_page(i as u32)?;
            }
            Ok(())
        })
    }
}

impl PagedFile for MemFile {
    fn num_pages(&self) -> u32 {
        self.bytes.len().checked_div(self.page_size).unwrap_or(0) as u32
    }

    fn page_size(&self) -> usize {
        self.page_size
    }

    fn read_page(&self, page: u32) -> Result<PageBuf> {
        Ok(PageBuf::from_bytes(self.page(page)?, self.page_size))
    }

    fn read_page_into(&self, page: u32, out: &mut PageBuf) -> Result<()> {
        assert_eq!(out.len(), self.page_size, "page buffer size mismatch");
        out.as_mut_slice().copy_from_slice(self.page(page)?);
        Ok(())
    }

    /// Lends the run from the file's own buffer.
    fn read_run(&self, first: u32, scratch: &mut [u8]) -> Result<Option<&[u8]>> {
        lend_run(&self.bytes, self.page_size, first, scratch.len())
    }
}

/// The `len`-byte run from page `first` of `all`, a whole file of
/// `page_size`-byte pages held in memory: how the drivers that hold one
/// serve [`PagedFile::read_run`], lending instead of filling.
///
/// # Panics
/// Panics if `len` is not a multiple of the page size.
pub(crate) fn lend_run(
    all: &[u8],
    page_size: usize,
    first: u32,
    len: usize,
) -> Result<Option<&[u8]>> {
    let ps = page_size.max(1);
    assert_eq!(len % ps, 0, "run buffer must hold whole pages");
    if len == 0 {
        return Ok(None);
    }
    check_run(first, (len / ps) as u32, (all.len() / ps) as u32)?;
    let start = first as usize * ps;
    Ok(Some(&all[start..start + len]))
}

/// Disk-backed paged file (read-only), for databases persisted with
/// [`MemFile::persist`] or embedded in a snapshot (a page window at a byte
/// offset inside a larger container file).
///
/// On Unix every read is one positioned `pread`: no shared cursor, so the
/// concurrent page-range passes of a sharded sweep do not serialize on the
/// handle. Elsewhere reads seek and read under a lock.
pub struct DiskFile {
    #[cfg(unix)]
    file: std::fs::File,
    #[cfg(not(unix))]
    file: std::sync::Mutex<std::fs::File>,
    byte_offset: u64,
    num_pages: u32,
    page_size: usize,
}

impl DiskFile {
    /// Opens a flat page stream written by [`MemFile::persist`].
    pub fn open(path: &Path, page_size: usize) -> Result<Self> {
        if page_size == 0 {
            return Err(StorageError::Corrupt("page size must be non-zero".into()));
        }
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        if len % page_size as u64 != 0 {
            return Err(StorageError::Corrupt(format!(
                "file length {len} is not a multiple of page size {page_size}"
            )));
        }
        let num_pages = (len / page_size as u64) as u32;
        Ok(Self::window(file, 0, num_pages, page_size))
    }

    /// Opens a window of `num_pages` pages starting `byte_offset` bytes into
    /// `path` — how snapshot files serve each embedded database file without
    /// extracting it. Fails with a typed error if the window runs past the
    /// end of the container.
    pub(crate) fn open_at(
        path: &Path,
        page_size: usize,
        byte_offset: u64,
        num_pages: u32,
    ) -> Result<Self> {
        if page_size == 0 {
            return Err(StorageError::Corrupt("page size must be non-zero".into()));
        }
        let file = std::fs::File::open(path)?;
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
        Ok(Self::window(file, byte_offset, num_pages, page_size))
    }

    fn window(file: std::fs::File, byte_offset: u64, num_pages: u32, page_size: usize) -> Self {
        DiskFile {
            #[cfg(unix)]
            file,
            #[cfg(not(unix))]
            file: std::sync::Mutex::new(file),
            byte_offset,
            num_pages,
            page_size,
        }
    }

    /// Fills `out` from the window, starting at page `first`.
    #[cfg(unix)]
    fn read_at(&self, first: u32, out: &mut [u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        let at = self.byte_offset + first as u64 * self.page_size as u64;
        Ok(self.file.read_exact_at(out, at)?)
    }

    /// Fills `out` from the window, starting at page `first`.
    #[cfg(not(unix))]
    fn read_at(&self, first: u32, out: &mut [u8]) -> Result<()> {
        use std::io::{Read, Seek, SeekFrom};
        let at = self.byte_offset + first as u64 * self.page_size as u64;
        // a reader that panicked mid-read leaves only a stale cursor, which
        // the seek below replaces
        let mut f = self.file.lock().unwrap_or_else(|e| e.into_inner());
        f.seek(SeekFrom::Start(at))?;
        Ok(f.read_exact(out)?)
    }
}

impl PagedFile for DiskFile {
    fn num_pages(&self) -> u32 {
        self.num_pages
    }

    fn page_size(&self) -> usize {
        self.page_size
    }

    fn read_page(&self, page: u32) -> Result<PageBuf> {
        let mut buf = PageBuf::zeroed(self.page_size);
        self.read_page_into(page, &mut buf)?;
        Ok(buf)
    }

    fn read_page_into(&self, page: u32, out: &mut PageBuf) -> Result<()> {
        assert_eq!(out.len(), self.page_size, "page buffer size mismatch");
        check_run(page, 1, self.num_pages)?;
        self.read_at(page, out.as_mut_slice())
    }

    /// One positioned read fills the whole run — the syscall batching the
    /// linear-scan kernel's streaming pass is built on (one read per 64-page
    /// run instead of one per page).
    fn read_run(&self, first: u32, scratch: &mut [u8]) -> Result<Option<&[u8]>> {
        assert_eq!(
            scratch.len() % self.page_size,
            0,
            "run buffer must hold whole pages"
        );
        if !scratch.is_empty() {
            let count = (scratch.len() / self.page_size) as u32;
            check_run(first, count, self.num_pages)?;
            self.read_at(first, scratch)?;
        }
        Ok(None)
    }
}

/// Integrity layer over any [`PagedFile`]: verifies every read against a
/// per-page CRC-32 table (from the snapshot manifest) and surfaces a
/// mismatch as [`StorageError::PageCorrupt`] with file/page identity. Layered
/// *outside* any fault-injecting wrapper, it turns injected bit-flips and
/// short reads into typed corruption errors instead of wrong answers.
///
/// Runs an inner driver lends ([`PagedFile::read_run`]: in-memory files,
/// mappings) are verified in place and lent on, not copied first. That is
/// sound because the bytes verified are the bytes the caller then reads:
/// a [`PagedFile`] is immutable once served, and a snapshot is only ever
/// replaced by writing a new file and renaming it over the old path
/// ([`atomic_write`]) — a new inode, which leaves the pages an existing
/// mapping shows untouched.
///
/// [`PagedFile::select_run`] verifies and selects each page in one pass
/// ([`crc32_select`]) and checks the page's CRC before it touches the next
/// page, so a page's bytes are OR-ed into its slot *before* they are known
/// good. That is the one way unverified bytes leave this wrapper: into the
/// slot of a page whose run then fails with [`StorageError::PageCorrupt`],
/// never reported [selected](RunSink::selected) — and a failed pass serves
/// nothing (the linear-scan store leaves its output untouched, a shared
/// lap fails every round aboard). Copies for duplicate requests of a page
/// are the sink's to make once the page is reported selected, that is
/// verified.
pub struct ChecksumFile {
    inner: Arc<dyn PagedFile>,
    crcs: Vec<u32>,
    name: String,
}

impl ChecksumFile {
    /// Wraps `inner`, checking each page read against `crcs`.
    ///
    /// # Panics
    /// Panics if `crcs.len() != inner.num_pages()` — the manifest and the
    /// driver must agree on the page count before serving starts (the
    /// snapshot loader validates this with a typed error).
    pub fn new(name: impl Into<String>, inner: Arc<dyn PagedFile>, crcs: Vec<u32>) -> Self {
        assert_eq!(
            crcs.len(),
            inner.num_pages() as usize,
            "checksum table must cover every page"
        );
        ChecksumFile {
            inner,
            crcs,
            name: name.into(),
        }
    }

    /// Checks `actual`, the CRC of page `page` as read, against the table.
    fn verify(&self, page: u32, actual: u32) -> Result<()> {
        let expected = self.crcs[page as usize];
        if actual != expected {
            return Err(StorageError::PageCorrupt {
                file: self.name.clone(),
                page,
                expected,
                actual,
            });
        }
        Ok(())
    }
}

impl PagedFile for ChecksumFile {
    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }

    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn read_page(&self, page: u32) -> Result<PageBuf> {
        let buf = self.inner.read_page(page)?;
        self.verify(page, crc32(buf.as_slice()))?;
        Ok(buf)
    }

    fn read_page_into(&self, page: u32, out: &mut PageBuf) -> Result<()> {
        self.inner.read_page_into(page, out)?;
        self.verify(page, crc32(out.as_slice()))
    }

    /// The run read is delegated to the inner driver (so its batching, and
    /// its lending, are kept), then every page of the run is verified
    /// individually before any of it is returned — a run is never cheaper to
    /// corrupt than a page, and lent bytes are verified in place.
    fn read_run(&self, first: u32, scratch: &mut [u8]) -> Result<Option<&[u8]>> {
        let ps = self.page_size();
        let lent = self.inner.read_run(first, scratch)?;
        let run = lent.unwrap_or(scratch);
        for (i, page) in run.chunks_exact(ps).enumerate() {
            self.verify(first + i as u32, crc32(page))?;
        }
        Ok(lent)
    }

    /// The inner driver's run, lent or filled (so per-page wrappers below
    /// still see each read), verified and selected one page at a time in
    /// one pass: a page's CRC is checked before the next page is touched,
    /// and a page that fails it fails the run and is never reported
    /// selected.
    fn select_run(&self, first: u32, scratch: &mut [u8], sink: &mut dyn RunSink) -> Result<()> {
        let ps = self.page_size();
        let lent = self.inner.read_run(first, scratch)?;
        for (i, page) in lent.unwrap_or(scratch).chunks_exact(ps).enumerate() {
            let p = first + i as u32;
            let (mask, acc) = sink.slot(p);
            self.verify(p, crc32_select(page, mask, acc))?;
            sink.selected(p);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::DEFAULT_PAGE_SIZE;

    #[test]
    fn memfile_round_trip() {
        let bytes: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        let f = MemFile::from_bytes(&bytes, DEFAULT_PAGE_SIZE);
        assert_eq!(f.num_pages(), 3);
        assert_eq!(f.size_bytes(), 3 * 4096);
        let p0 = f.read_page(0).unwrap();
        assert_eq!(&p0.as_slice()[..16], &bytes[..16]);
        let p2 = f.read_page(2).unwrap();
        // tail is zero padded
        assert_eq!(
            p2.as_slice()[10_000 - 2 * 4096..],
            vec![0u8; 3 * 4096 - 10_000][..]
        );
        assert!(f.read_page(3).is_err());
    }

    #[test]
    fn read_page_into_reuses_the_buffer() {
        let bytes: Vec<u8> = (0..6000).map(|i| (i % 250) as u8).collect();
        let mem = MemFile::from_bytes(&bytes, DEFAULT_PAGE_SIZE);
        let mut buf = PageBuf::zeroed(DEFAULT_PAGE_SIZE);
        for p in (0..mem.num_pages()).rev() {
            mem.read_page_into(p, &mut buf).unwrap();
            assert_eq!(buf, mem.read_page(p).unwrap());
            assert_eq!(buf.as_slice(), mem.page(p).unwrap());
        }
        assert!(mem.read_page_into(99, &mut buf).is_err());
    }

    #[test]
    fn memfile_push_and_concat() {
        let mut a = MemFile::empty(64);
        a.push_page(PageBuf::from_bytes(&[1], 64));
        let mut b = MemFile::empty(64);
        b.push_page(PageBuf::from_bytes(&[2], 64));
        b.push_page(PageBuf::from_bytes(&[3], 64));
        let off = a.concat(&b);
        assert_eq!(off, 1);
        assert_eq!(a.num_pages(), 3);
        assert_eq!(a.read_page(1).unwrap().as_slice()[0], 2);
        assert_eq!(a.read_page(2).unwrap().as_slice()[0], 3);
    }

    #[test]
    fn diskfile_round_trip() {
        let dir = std::env::temp_dir().join(format!("privpath-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.bin");
        let bytes: Vec<u8> = (0..9000).map(|i| (i % 253) as u8).collect();
        let mem = MemFile::from_bytes(&bytes, DEFAULT_PAGE_SIZE);
        mem.persist(&path).unwrap();

        let disk = DiskFile::open(&path, DEFAULT_PAGE_SIZE).unwrap();
        assert_eq!(disk.num_pages(), mem.num_pages());
        let mut buf = PageBuf::zeroed(DEFAULT_PAGE_SIZE);
        for p in 0..mem.num_pages() {
            assert_eq!(disk.read_page(p).unwrap(), mem.read_page(p).unwrap());
            // default trait impl of read_page_into (DiskFile does not override)
            disk.read_page_into(p, &mut buf).unwrap();
            assert_eq!(buf, mem.read_page(p).unwrap());
        }
        assert!(disk.read_page(99).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("privpath-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn persist_failure_leaves_no_partial_file() {
        let dir = temp_dir("atomic");
        let path = dir.join("out.bin");
        let bytes: Vec<u8> = (0..3 * 4096).map(|i| (i % 255) as u8).collect();
        let mem = MemFile::from_bytes(&bytes, DEFAULT_PAGE_SIZE);

        // Fault injected after the second page: the write dies mid-stream.
        let err = mem
            .persist_with(&path, |page| {
                if page == 1 {
                    Err(StorageError::Io(std::io::Error::other("disk died")))
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        assert!(matches!(err, StorageError::Io(_)));
        // No partial file at the destination, no temp litter in the dir.
        assert!(!path.exists(), "failed persist must not leave a torn file");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);

        // Now overwrite semantics: an existing good file survives a failed
        // re-persist untouched.
        mem.persist(&path).unwrap();
        let before = std::fs::read(&path).unwrap();
        let other = MemFile::from_bytes(&vec![7u8; 2 * 4096], DEFAULT_PAGE_SIZE);
        other
            .persist_with(&path, |_| {
                Err(StorageError::Io(std::io::Error::other("boom")))
            })
            .unwrap_err();
        assert_eq!(std::fs::read(&path).unwrap(), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_rejects_bare_root() {
        assert!(atomic_write(Path::new("/"), |_| Ok(())).is_err());
    }

    #[test]
    fn diskfile_open_at_window() {
        let dir = temp_dir("window");
        let path = dir.join("container.bin");
        let mut bytes = vec![0xEEu8; 100]; // preamble the window must skip
        let payload: Vec<u8> = (0..4 * 64).map(|i| (i % 200) as u8).collect();
        bytes.extend_from_slice(&payload);
        std::fs::write(&path, &bytes).unwrap();

        let disk = DiskFile::open_at(&path, 64, 100, 4).unwrap();
        assert_eq!(disk.num_pages(), 4);
        for p in 0..4u32 {
            let got = disk.read_page(p).unwrap();
            assert_eq!(
                got.as_slice(),
                &payload[p as usize * 64..(p as usize + 1) * 64]
            );
        }
        assert!(matches!(
            disk.read_page(4),
            Err(StorageError::PageOutOfRange { .. })
        ));
        // Window past EOF is a typed error at open time.
        assert!(matches!(
            DiskFile::open_at(&path, 64, 100, 5),
            Err(StorageError::UnexpectedEof { .. })
        ));
        assert!(DiskFile::open_at(&path, 0, 0, 1).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksum_file_passes_clean_and_catches_corruption() {
        let bytes: Vec<u8> = (0..3 * 64).map(|i| (i * 7 % 251) as u8).collect();
        let mem = MemFile::from_bytes(&bytes, 64);
        let crcs: Vec<u32> = (0..mem.num_pages())
            .map(|p| crc32(mem.page(p).unwrap()))
            .collect();

        let clean = ChecksumFile::new("Fd", Arc::new(mem.clone()), crcs.clone());
        let mut buf = PageBuf::zeroed(64);
        for p in 0..clean.num_pages() {
            assert_eq!(clean.read_page(p).unwrap(), mem.read_page(p).unwrap());
            clean.read_page_into(p, &mut buf).unwrap();
            assert_eq!(buf.as_slice(), mem.page(p).unwrap());
        }

        // Flip one bit in the backing file: the read surfaces PageCorrupt
        // naming the file and page.
        let tampered = mem.clone();
        let mut page1 = tampered.read_page(1).unwrap();
        page1.as_mut_slice()[5] ^= 0x10;
        let pages: Vec<PageBuf> = (0..3)
            .map(|p| {
                if p == 1 {
                    page1.clone()
                } else {
                    tampered.read_page(p).unwrap()
                }
            })
            .collect();
        let tampered = MemFile::from_pages(pages, 64);
        let bad = ChecksumFile::new("Fd", Arc::new(tampered), crcs);
        assert!(bad.read_page(0).is_ok());
        match bad.read_page(1) {
            Err(StorageError::PageCorrupt { file, page, .. }) => {
                assert_eq!(file, "Fd");
                assert_eq!(page, 1);
            }
            other => panic!("expected PageCorrupt, got {other:?}"),
        }
        assert!(matches!(
            bad.read_page_into(1, &mut buf),
            Err(StorageError::PageCorrupt { .. })
        ));
    }

    #[test]
    fn run_reads_match_page_reads_across_drivers() {
        let dir = temp_dir("runs");
        let path = dir.join("runs.bin");
        let bytes: Vec<u8> = (0..7 * 64).map(|i| (i * 11 % 241) as u8).collect();
        let mem = MemFile::from_bytes(&bytes, 64);
        mem.persist(&path).unwrap();
        let disk = DiskFile::open(&path, 64).unwrap();
        let crcs: Vec<u32> = (0..mem.num_pages())
            .map(|p| crc32(mem.page(p).unwrap()))
            .collect();
        let guarded = ChecksumFile::new("F", Arc::new(mem.clone()), crcs);

        let drivers: [&dyn PagedFile; 3] = [&mem, &disk, &guarded];
        for f in drivers {
            // every (first, count) window, including the empty run and the
            // partial run that ends exactly at the last page
            for first in 0..=7u32 {
                for count in 0..=(7 - first) {
                    let mut run = vec![0u8; count as usize * 64];
                    f.read_run_into(first, &mut run).unwrap();
                    for i in 0..count {
                        assert_eq!(
                            &run[i as usize * 64..(i as usize + 1) * 64],
                            mem.page(first + i).unwrap(),
                        );
                    }
                }
            }
            // a run poking past the end is a typed error, like a page read
            let mut run = vec![0u8; 2 * 64];
            assert!(matches!(
                f.read_run_into(6, &mut run),
                Err(StorageError::PageOutOfRange { .. })
            ));
            assert!(matches!(
                f.read_run_into(7, &mut run),
                Err(StorageError::PageOutOfRange { .. })
            ));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn default_run_read_loops_page_reads() {
        // A driver that only implements read_page still serves runs.
        struct Minimal(MemFile);
        impl PagedFile for Minimal {
            fn num_pages(&self) -> u32 {
                self.0.num_pages()
            }
            fn page_size(&self) -> usize {
                self.0.page_size()
            }
            fn read_page(&self, page: u32) -> Result<PageBuf> {
                self.0.read_page(page)
            }
        }
        let bytes: Vec<u8> = (0..5 * 64).map(|i| (i % 199) as u8).collect();
        let f = Minimal(MemFile::from_bytes(&bytes, 64));
        let mut run = vec![0u8; 3 * 64];
        f.read_run_into(1, &mut run).unwrap();
        assert_eq!(&run[..], &bytes[64..4 * 64]);
        assert!(f.read_run_into(3, &mut run).is_err());
        run.fill(0);
        assert!(
            f.read_run(1, &mut run).unwrap().is_none(),
            "the default fills, it never lends"
        );
        assert_eq!(&run[..], &bytes[64..4 * 64]);
    }

    #[test]
    fn contiguous_is_exposed_only_where_verification_allows() {
        let bytes: Vec<u8> = (0..3 * 64).map(|i| (i % 97) as u8).collect();
        let mem = MemFile::from_bytes(&bytes, 64);
        let mut scratch = vec![0u8; 2 * 64];
        assert_eq!(mem.read_run(1, &mut scratch).unwrap(), Some(&bytes[64..]));
        assert_eq!(
            scratch,
            [0u8; 2 * 64],
            "a lent run leaves the scratch alone"
        );
        let crcs: Vec<u32> = (0..3).map(|p| crc32(mem.page(p).unwrap())).collect();

        // the integrity wrapper lends what it has verified
        let guarded = ChecksumFile::new("F", Arc::new(mem), crcs.clone());
        assert_eq!(
            guarded.read_run(1, &mut scratch).unwrap(),
            Some(&bytes[64..])
        );

        // and lends nothing it has not: a lent page that fails its CRC is an
        // error, not a run
        let mut rotten = bytes.clone();
        rotten[2 * 64 + 5] ^= 0x10;
        let bad = ChecksumFile::new("F", Arc::new(MemFile::from_bytes(&rotten, 64)), crcs);
        match bad.read_run(1, &mut scratch) {
            Err(StorageError::PageCorrupt { page, .. }) => assert_eq!(page, 2),
            other => panic!("expected PageCorrupt, got {other:?}"),
        }
        assert!(bad.read_run(0, &mut scratch).unwrap().is_some());
    }

    #[test]
    fn checksum_run_read_catches_corruption_anywhere_in_the_run() {
        let bytes: Vec<u8> = (0..4 * 64).map(|i| (i * 3 % 251) as u8).collect();
        let mem = MemFile::from_bytes(&bytes, 64);
        let mut crcs: Vec<u32> = (0..4).map(|p| crc32(mem.page(p).unwrap())).collect();
        crcs[2] ^= 1; // manifest disagrees with page 2
        let bad = ChecksumFile::new("Fd", Arc::new(mem), crcs);
        let mut run = vec![0u8; 4 * 64];
        match bad.read_run_into(0, &mut run) {
            Err(StorageError::PageCorrupt { page, .. }) => assert_eq!(page, 2),
            other => panic!("expected PageCorrupt, got {other:?}"),
        }
        // runs before the bad page stay clean
        let mut run = vec![0u8; 2 * 64];
        bad.read_run_into(0, &mut run).unwrap();
    }

    #[test]
    fn diskfile_rejects_misaligned() {
        let dir = std::env::temp_dir().join(format!("privpath-test2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.bin");
        std::fs::write(&path, [0u8; 100]).unwrap();
        assert!(matches!(
            DiskFile::open(&path, 64),
            Err(StorageError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
