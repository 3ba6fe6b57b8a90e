//! The database files of §5.3: header `Fh`, look-up `Fl`, network index
//! `Fi`, region data `Fd`.
//!
//! Every page carries a leading CRC-32 over its payload. The paper's
//! honest-but-curious server never corrupts data, so the checksum costs 4
//! bytes of capacity and buys detection when the fault-injection extension
//! (`pir::fault::FaultyStore`) or a failing disk (README, "Failure
//! containment on the disk path") breaks that assumption.

pub mod fd;
pub(crate) mod fh;
pub(crate) mod fi;
pub(crate) mod fl;

use crate::error::CoreError;
use crate::Result;
#[cfg(test)]
use privpath_storage::PagedFile;
use privpath_storage::{crc32, MemFile, PageBuf};

/// Bytes reserved at the start of each page for the CRC-32 trailer.
pub(crate) const PAGE_CRC_BYTES: usize = 4;

/// Seals a payload into a page: `[crc32(padded payload)][payload][zeros]`.
///
/// Sealing is a pure function of `(payload, page_size)` — identical
/// payloads always produce identical page bytes. The leakage suite's
/// bit-identity differentials (in-process vs wire vs chaos vs shared-lap,
/// and PR 8's straddling-swap vs solo-halves) depend on this: any
/// nondeterminism here (timestamps, randomized padding) would make equal
/// logical content observably distinguishable.
///
/// # Panics
/// Panics if the payload exceeds `page_size - 4`.
pub(crate) fn seal_page(payload: &[u8], page_size: usize) -> PageBuf {
    assert!(
        payload.len() + PAGE_CRC_BYTES <= page_size,
        "payload of {} bytes exceeds page capacity {}",
        payload.len(),
        page_size - PAGE_CRC_BYTES
    );
    let mut body = vec![0u8; page_size - PAGE_CRC_BYTES];
    body[..payload.len()].copy_from_slice(payload);
    let mut page = vec![0u8; page_size];
    page[..4].copy_from_slice(&crc32(&body).to_le_bytes());
    page[4..].copy_from_slice(&body);
    PageBuf::from_bytes(&page, page_size)
}

/// Verifies a sealed page and returns its padded payload
/// (`page_size - 4` bytes).
pub fn unseal_page(page: &PageBuf) -> Result<&[u8]> {
    let bytes = page.as_slice();
    if bytes.len() <= PAGE_CRC_BYTES {
        return Err(CoreError::Query("page too small to unseal".into()));
    }
    let stored = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
    let body = &bytes[4..];
    let actual = crc32(body);
    if stored != actual {
        return Err(CoreError::Storage(
            privpath_storage::StorageError::ChecksumMismatch {
                expected: stored,
                actual,
            },
        ));
    }
    Ok(body)
}

/// Builds a sealed [`MemFile`] from per-page payloads.
pub(crate) fn seal_file(payloads: &[Vec<u8>], page_size: usize) -> MemFile {
    let pages = payloads.iter().map(|p| seal_page(p, page_size)).collect();
    MemFile::from_pages(pages, page_size)
}

/// Unseals a full-file download (byte concatenation of sealed pages) back
/// into the concatenated payload stream.
///
/// `bytes` must be exactly the file's sealed pages in order — the
/// `DownloadResponse` of one file from one generation. Mixing pages from two generations fails here only if a page
/// happens to be corrupt; the cross-generation guard is upstream, in the
/// session's generation pinning, not in this codec.
pub(crate) fn unseal_download(bytes: &[u8], page_size: usize) -> Result<Vec<u8>> {
    if !bytes.len().is_multiple_of(page_size) {
        return Err(CoreError::Query(format!(
            "download of {} bytes is not page aligned",
            bytes.len()
        )));
    }
    let mut out = Vec::with_capacity(bytes.len());
    for chunk in bytes.chunks(page_size) {
        let page = PageBuf::from_bytes(chunk, page_size);
        out.extend_from_slice(unseal_page(&page)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_unseal_round_trip() {
        let page = seal_page(b"hello", 64);
        let body = unseal_page(&page).unwrap();
        assert_eq!(&body[..5], b"hello");
        assert_eq!(body.len(), 60);
    }

    #[test]
    fn tamper_detected() {
        let mut page = seal_page(b"data", 64);
        page.as_mut_slice()[10] ^= 1;
        assert!(matches!(
            unseal_page(&page),
            Err(CoreError::Storage(
                privpath_storage::StorageError::ChecksumMismatch { .. }
            ))
        ));
    }

    #[test]
    fn crc_tamper_detected_too() {
        let mut page = seal_page(b"data", 64);
        page.as_mut_slice()[0] ^= 1;
        assert!(unseal_page(&page).is_err());
    }

    #[test]
    fn file_download_round_trip() {
        let payloads = vec![b"page-one".to_vec(), b"page-two".to_vec()];
        let f = seal_file(&payloads, 64);
        assert_eq!(f.num_pages(), 2);
        let mut raw = Vec::new();
        for p in 0..2 {
            raw.extend_from_slice(f.read_page(p).unwrap().as_slice());
        }
        let body = unseal_download(&raw, 64).unwrap();
        assert_eq!(&body[..8], b"page-one");
        assert_eq!(&body[60..68], b"page-two");
    }

    #[test]
    #[should_panic(expected = "exceeds page capacity")]
    fn oversized_payload_panics() {
        seal_page(&[0u8; 61], 64);
    }
}
