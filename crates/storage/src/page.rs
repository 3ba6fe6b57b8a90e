//! Fixed-size page buffers.
//!
//! Table 2 of the paper fixes the disk page size at 4 KByte; every database
//! file (`Fh`, `Fl`, `Fi`, `Fd`) is organized in equal-sized pages and the PIR
//! interface transfers exactly one page per request.

/// Default page size used throughout the evaluation (Table 2).
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// A single fixed-size page.
///
/// Pages are always exactly `page_size` bytes; partially-filled pages are
/// zero-padded (the trailing unused space is the "striped space" of Figure 4).
#[derive(Clone, PartialEq, Eq)]
pub struct PageBuf {
    bytes: Box<[u8]>,
}

impl PageBuf {
    /// Creates a zero-filled page of `page_size` bytes.
    pub fn zeroed(page_size: usize) -> Self {
        PageBuf {
            bytes: vec![0u8; page_size].into_boxed_slice(),
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
        let mut bytes = vec![0u8; page_size];
        bytes[..data.len()].copy_from_slice(data);
        PageBuf {
            bytes: bytes.into_boxed_slice(),
        }
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
}
