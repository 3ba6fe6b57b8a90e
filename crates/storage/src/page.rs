//! Fixed-size page buffers, and the cache-line-aligned bytes behind them.
//!
//! Table 2 of the paper fixes the disk page size at 4 KByte; every database
//! file (`Fh`, `Fl`, `Fi`, `Fd`) is organized in equal-sized pages and the PIR
//! interface transfers exactly one page per request.

use std::ops::{Deref, DerefMut};

/// Default page size used throughout the evaluation (Table 2).
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// The boundary [`AlignedBytes`] start on: one cache line, and one 512-bit
/// register.
const LINE: usize = 64;

/// Bytes from `p` to the next multiple of [`LINE`].
fn pad_to_line(p: *const u8) -> usize {
    p.addr().wrapping_neg() % LINE
}

/// A byte buffer whose first byte sits on a 64-byte boundary: what every
/// buffer the linear sweep reads or accumulates into is made of — page
/// buffers ([`PageBuf`]: output slots, the scan's dummy sink and run
/// arena, client pages) and [`crate::MemFile`]'s flat bytes, the runs it
/// lends. The allocator only promises 16 bytes, so a buffer of its own
/// lands anywhere mod 64 and the kernel's 32- and 64-byte loads and
/// read-modify-write stores straddle cache lines; on an aligned source and
/// accumulator none do, and a page selected into its slot and one masked
/// into the dummy sink cost the same per byte wherever the allocator put
/// them.
///
/// Safe form, no cast: the allocation is `LINE − 1` bytes longer than
/// asked and the buffer starts at its first boundary. Growth that moves
/// the allocation realigns the bytes, and so does `clone`. Equality (and
/// [`PageBuf`]'s `Debug`) sees the buffer's bytes only, never the padding
/// before them.
pub(crate) struct AlignedBytes {
    /// `start` bytes of padding, then the buffer: `raw.len() == start +
    /// len`, and `raw[start..]` begins on a boundary.
    raw: Vec<u8>,
    start: usize,
}

impl AlignedBytes {
    /// `len` zero bytes.
    pub(crate) fn zeroed(len: usize) -> Self {
        let mut raw = vec![0u8; len + LINE - 1];
        let start = pad_to_line(raw.as_ptr());
        raw.truncate(start + len);
        AlignedBytes { raw, start }
    }

    /// An empty buffer with room for `cap` bytes before it reallocates.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        let mut raw = Vec::with_capacity(cap + LINE - 1);
        let start = pad_to_line(raw.as_ptr());
        raw.resize(start, 0);
        AlignedBytes { raw, start }
    }

    /// Appends `data`. When the allocation has to grow and the new one
    /// starts elsewhere mod 64, the bytes move to its first boundary.
    pub(crate) fn extend_from_slice(&mut self, data: &[u8]) {
        let len = self.len();
        let room = LINE - 1 + len + data.len();
        if self.raw.capacity() < room {
            self.raw.reserve(room - self.raw.len());
            let start = pad_to_line(self.raw.as_ptr());
            if start != self.start {
                self.raw.resize(self.start.max(start) + len, 0);
                self.raw.copy_within(self.start..self.start + len, start);
                self.raw.truncate(start + len);
                self.start = start;
            }
        }
        self.raw.extend_from_slice(data);
    }
}

impl Deref for AlignedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.raw[self.start..]
    }
}

impl DerefMut for AlignedBytes {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.raw[self.start..]
    }
}

impl Clone for AlignedBytes {
    /// A copy on a boundary of its own: the allocation is new, so the
    /// original's offset into it means nothing.
    fn clone(&self) -> Self {
        let mut copy = Self::with_capacity(self.len());
        copy.extend_from_slice(self);
        copy
    }
}

impl PartialEq for AlignedBytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for AlignedBytes {}

/// A single fixed-size page.
///
/// Pages are always exactly `page_size` bytes; partially-filled pages are
/// zero-padded (the trailing unused space is the "striped space" of Figure 4).
/// The bytes start on a cache line (`AlignedBytes`), clones included:
/// a page is what the linear sweep selects into, as an output slot or as
/// its dummy sink.
#[derive(Clone, PartialEq, Eq)]
pub struct PageBuf {
    bytes: AlignedBytes,
}

impl PageBuf {
    /// Creates a zero-filled page of `page_size` bytes.
    pub fn zeroed(page_size: usize) -> Self {
        PageBuf {
            bytes: AlignedBytes::zeroed(page_size),
        }
    }

    /// Creates a page from `data`, zero-padding it to `page_size`.
    ///
    /// # Panics
    /// Panics if `data.len() > page_size`; callers are expected to have
    /// enforced the page capacity via [`crate::error::StorageError::RecordTooLarge`]
    /// before reaching this point.
    pub fn from_bytes(data: &[u8], page_size: usize) -> Self {
        assert!(
            data.len() <= page_size,
            "page payload of {} bytes exceeds page size {}",
            data.len(),
            page_size
        );
        let mut bytes = AlignedBytes::zeroed(page_size);
        bytes[..data.len()].copy_from_slice(data);
        PageBuf { bytes }
    }

    /// Page contents (always `page_size` bytes).
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable page contents.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// Size of the page in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if the page size is zero (never the case for real files).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

impl std::fmt::Debug for PageBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let used = self
            .bytes
            .iter()
            .rposition(|&b| b != 0)
            .map_or(0, |p| p + 1);
        write!(f, "PageBuf({} bytes, ~{} used)", self.bytes.len(), used)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_page_has_right_size() {
        let p = PageBuf::zeroed(DEFAULT_PAGE_SIZE);
        assert_eq!(p.len(), 4096);
        assert!(p.as_slice().iter().all(|&b| b == 0));
    }

    #[test]
    fn from_bytes_pads() {
        let p = PageBuf::from_bytes(&[1, 2, 3], 8);
        assert_eq!(p.as_slice(), &[1, 2, 3, 0, 0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "exceeds page size")]
    fn from_bytes_rejects_oversized() {
        let _ = PageBuf::from_bytes(&[0; 9], 8);
    }

    #[test]
    fn debug_reports_used_bytes() {
        let p = PageBuf::from_bytes(&[1, 0, 7], 16);
        let s = format!("{p:?}");
        assert!(s.contains("16 bytes"));
        assert!(s.contains("~3 used"));
    }

    #[test]
    fn mutation_round_trips() {
        let mut p = PageBuf::zeroed(4);
        p.as_mut_slice()[2] = 42;
        assert_eq!(p.as_slice(), [0, 0, 42, 0]);
    }

    fn on_a_line(bytes: &[u8]) -> bool {
        bytes.as_ptr().addr().is_multiple_of(LINE)
    }

    #[test]
    fn buffers_start_on_a_cache_line() {
        use crate::{MemFile, PagedFile};
        for ps in [32usize, 300, 4096] {
            let data: Vec<u8> = (0..ps).map(|i| (i * 7 % 251) as u8).collect();
            let pages = [
                PageBuf::zeroed(ps),
                PageBuf::from_bytes(&data[..ps / 2], ps),
            ];
            // clones kept alive side by side, so that each lands on an
            // allocation of its own, wherever the allocator puts it mod 64
            let clones: Vec<PageBuf> = (0..8).flat_map(|_| pages.clone()).collect();
            for (i, p) in pages.iter().chain(&clones).enumerate() {
                assert!(on_a_line(p.as_slice()), "page {i} of {ps} bytes");
            }

            // the run a `MemFile` lends from its first page, however it was
            // built or grown, and from each of its clones
            let lent = |f: &MemFile| {
                let mut scratch = vec![0u8; f.page_size()];
                on_a_line(f.read_run(0, &mut scratch).unwrap().unwrap())
            };
            let mut grown = MemFile::empty(ps);
            let mut joined = MemFile::from_pages(vec![PageBuf::from_bytes(&data, ps)], ps);
            for n in 0..40 {
                grown.push_page(PageBuf::from_bytes(&data, ps));
                assert!(lent(&grown), "{ps}-byte pages, push {n}");
                joined.concat(&grown);
                assert!(lent(&joined), "{ps}-byte pages, concat {n}");
            }
            assert_eq!(joined.page(40).unwrap(), &data[..]);
            let files = [
                MemFile::from_pages(pages.to_vec(), ps),
                MemFile::from_bytes(&data[..ps - 1], ps),
                grown,
                joined,
            ];
            let copies: Vec<MemFile> = (0..8).flat_map(|_| files.clone()).collect();
            for (i, f) in files.iter().chain(&copies).enumerate() {
                assert!(lent(f), "file {i} of {ps}-byte pages");
            }
        }
    }

    #[test]
    fn equality_and_debug_ignore_the_padding() {
        let data = [9u8, 0, 4, 0];
        // the same bytes behind a whole line of nonzero padding
        let mut raw = vec![0xAAu8; 2 * LINE + data.len()];
        let start = pad_to_line(raw.as_ptr()) + LINE;
        raw.truncate(start + data.len());
        raw[start..].copy_from_slice(&data);
        let padded = PageBuf {
            bytes: AlignedBytes { raw, start },
        };
        let plain = PageBuf::from_bytes(&data, data.len());
        assert_eq!(padded.as_slice(), data);
        assert_eq!(padded, plain);
        assert_eq!(format!("{padded:?}"), "PageBuf(4 bytes, ~3 used)");
        assert_ne!(padded, PageBuf::from_bytes(&data[..2], data.len()));
    }
}
