//! Fault injection — an extension beyond the paper's trust model.
//!
//! The paper's adversary is "curious, but not malicious" (§3.1): it executes
//! page access routines correctly. [`FaultyStore`] deliberately violates that
//! assumption by corrupting selected fetches, letting integration tests show
//! that page checksums catch a server that breaks the honest-but-curious
//! contract instead of silently producing a wrong path.

use crate::backend::ObliviousStore;
use crate::Result;
use privpath_storage::PageBuf;
use std::collections::HashSet;

/// Wraps a store and corrupts the payload of chosen fetches.
pub(crate) struct FaultyStore<S: ObliviousStore> {
    inner: S,
    /// 0-based indices of fetches (across the store's lifetime) to corrupt.
    corrupt_fetches: HashSet<u64>,
    fetch_count: u64,
}

impl<S: ObliviousStore> FaultyStore<S> {
    /// Corrupts the fetches whose 0-based sequence numbers appear in
    /// `corrupt_fetches`.
    pub(crate) fn new(inner: S, corrupt_fetches: impl IntoIterator<Item = u64>) -> Self {
        FaultyStore {
            inner,
            corrupt_fetches: corrupt_fetches.into_iter().collect(),
            fetch_count: 0,
        }
    }

    /// Consumes the next fetch sequence number and applies the corruption,
    /// if scheduled. Shared by the per-fetch and batched paths so a batch of
    /// `k` pages consumes exactly `k` sequence numbers in issue order — a
    /// fault scheduled at index `i` hits the same logical fetch whether the
    /// round was executed page by page or as one batch.
    fn tamper(&mut self, buf: &mut PageBuf) {
        let seq = self.fetch_count;
        self.fetch_count += 1;
        if self.corrupt_fetches.contains(&seq) {
            // Flip one byte somewhere in the payload.
            let idx = (seq as usize * 131) % buf.len().max(1);
            buf.as_mut_slice()[idx] ^= 0xA5;
        }
    }
}

impl<S: ObliviousStore> ObliviousStore for FaultyStore<S> {
    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }

    fn fetch(&mut self, page: u32) -> Result<PageBuf> {
        let mut buf = self.inner.fetch(page)?;
        self.tamper(&mut buf);
        Ok(buf)
    }

    fn fetch_batch(&mut self, pages: &[u32], out: &mut [PageBuf]) -> Result<()> {
        self.inner.fetch_batch(pages, out)?;
        for buf in out.iter_mut() {
            self.tamper(buf);
        }
        Ok(())
    }

    fn physical_log(&self) -> &[u32] {
        self.inner.physical_log()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::LinearScanStore;
    use privpath_storage::{MemFile, DEFAULT_PAGE_SIZE};

    fn file() -> MemFile {
        let mut f = MemFile::empty(DEFAULT_PAGE_SIZE);
        for p in 0..4u32 {
            let mut page = PageBuf::zeroed(DEFAULT_PAGE_SIZE);
            page.as_mut_slice()[..4].copy_from_slice(&p.to_le_bytes());
            f.push_page(page);
        }
        f
    }

    /// Page `p` as an untampered store serves it.
    fn clean(p: u32) -> PageBuf {
        LinearScanStore::new(file()).fetch(p).unwrap()
    }

    #[test]
    fn corrupts_only_selected_fetches() {
        let mut s = FaultyStore::new(LinearScanStore::new(file()), [1u64]);
        let clean = s.fetch(2).unwrap();
        let dirty = s.fetch(2).unwrap();
        let clean2 = s.fetch(2).unwrap();
        assert_eq!(clean, clean2);
        assert_ne!(clean, dirty);
    }

    #[test]
    fn batch_consumes_sequence_numbers_in_issue_order() {
        // Fault at sequence number 2: whether the four fetches run one by
        // one or as a single batch, the third page issued is the corrupted
        // one and everything else is clean.
        let pages = [3u32, 0, 2, 1];
        let mut seq_store = FaultyStore::new(LinearScanStore::new(file()), [2u64]);
        let sequential: Vec<PageBuf> = pages.iter().map(|&p| seq_store.fetch(p).unwrap()).collect();

        let mut batch_store = FaultyStore::new(LinearScanStore::new(file()), [2u64]);
        let mut batched = vec![PageBuf::zeroed(DEFAULT_PAGE_SIZE); pages.len()];
        batch_store.fetch_batch(&pages, &mut batched).unwrap();

        assert_eq!(sequential, batched);
        // and the one corruption really landed mid-batch, on pages[2]
        for (i, &p) in pages.iter().enumerate() {
            assert_eq!(batched[i] == clean(p), i != 2, "page {i} of the batch");
        }
    }

    #[test]
    fn sequence_numbers_span_batches() {
        // Two batches of two: fault index 3 hits the second page of the
        // second batch.
        let mut s = FaultyStore::new(LinearScanStore::new(file()), [3u64]);
        let mut out = vec![PageBuf::zeroed(DEFAULT_PAGE_SIZE); 2];
        s.fetch_batch(&[0, 1], &mut out).unwrap();
        assert_eq!(out, [clean(0), clean(1)]);
        s.fetch_batch(&[2, 3], &mut out).unwrap();
        assert_eq!(out[0], clean(2));
        assert_ne!(out[1], clean(3), "second page of second batch is corrupt");
    }

    #[test]
    fn passthrough_when_no_faults() {
        let mut s = FaultyStore::new(LinearScanStore::new(file()), []);
        for p in 0..4u32 {
            let buf = s.fetch(p).unwrap();
            assert_eq!(
                u32::from_le_bytes(buf.as_slice()[..4].try_into().unwrap()),
                p
            );
        }
        assert_eq!(s.num_pages(), 4);
        assert!(!s.physical_log().is_empty());
    }
}
