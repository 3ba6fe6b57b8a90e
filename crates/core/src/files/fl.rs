//! The look-up file `Fl`: "a dense index over Fi ... for every (i, j) pair,
//! Fl stores a look-up entry that indicates the page number in Fi that holds
//! region set S_ij. ... The pages in Fl are packed ... for any pair (i, j), a
//! division by that number indicates the Fl page that holds the corresponding
//! look-up entry" (§5.3). Entry keys are implicit in the (i, j) ordering.

use super::{seal_file, PAGE_CRC_BYTES};
use crate::error::CoreError;
use crate::Result;
use privpath_storage::MemFile;

/// Fixed-width look-up entries: the `Fi` page number holding the record.
pub(crate) const FL_ENTRY_BYTES: usize = 4;

/// Entries per `Fl` page for the given page size.
pub(crate) fn entries_per_page(page_size: usize) -> usize {
    (page_size - PAGE_CRC_BYTES) / FL_ENTRY_BYTES
}

/// Entry index of pair `(i, j)` with `R` regions.
pub(crate) fn entry_index(i: u16, j: u16, num_regions: u16) -> usize {
    i as usize * num_regions as usize + j as usize
}

/// `Fl` page that holds entry `idx`.
pub(crate) fn page_of_entry(idx: usize, page_size: usize) -> u32 {
    (idx / entries_per_page(page_size)) as u32
}

/// Builds `Fl` from the dense entry array (indexed by
/// [`entry_index`]).
pub(crate) fn build_fl(entries: &[u32], page_size: usize) -> MemFile {
    let per_page = entries_per_page(page_size);
    let mut payloads = Vec::new();
    for chunk in entries.chunks(per_page) {
        let mut payload = Vec::with_capacity(chunk.len() * FL_ENTRY_BYTES);
        for &e in chunk {
            payload.extend_from_slice(&e.to_le_bytes());
        }
        payloads.push(payload);
    }
    if payloads.is_empty() {
        payloads.push(Vec::new()); // at least one page so the plan's 1 fetch is valid
    }
    seal_file(&payloads, page_size)
}

/// Reads entry `idx` from the unsealed payload of its page.
pub(crate) fn read_entry(page_payload: &[u8], idx: usize, page_size: usize) -> Result<u32> {
    let per_page = entries_per_page(page_size);
    let slot = idx % per_page;
    let off = slot * FL_ENTRY_BYTES;
    if off + FL_ENTRY_BYTES > page_payload.len() {
        return Err(CoreError::Query(format!(
            "look-up slot {slot} beyond page payload"
        )));
    }
    Ok(u32::from_le_bytes(
        page_payload[off..off + 4].try_into().expect("4 bytes"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::files::unseal_page;
    use privpath_storage::PagedFile;

    #[test]
    fn dense_index_round_trip() {
        let r = 37u16;
        let entries: Vec<u32> = (0..u32::from(r) * u32::from(r))
            .map(|k| k.wrapping_mul(2654435761))
            .collect();
        let fl = build_fl(&entries, 4096);
        let per_page = entries_per_page(4096);
        assert_eq!(fl.num_pages() as usize, entries.len().div_ceil(per_page));
        for i in (0..r).step_by(5) {
            for j in (0..r).step_by(7) {
                let idx = entry_index(i, j, r);
                let page = page_of_entry(idx, 4096);
                let payload = unseal_page(&fl.read_page(page).unwrap()).unwrap().to_vec();
                assert_eq!(read_entry(&payload, idx, 4096).unwrap(), entries[idx]);
            }
        }
    }

    #[test]
    fn empty_network_still_has_one_page() {
        let fl = build_fl(&[], 4096);
        assert_eq!(fl.num_pages(), 1);
    }

    #[test]
    fn per_page_math() {
        assert_eq!(entries_per_page(4096), 1023);
        assert_eq!(page_of_entry(0, 4096), 0);
        assert_eq!(page_of_entry(1022, 4096), 0);
        assert_eq!(page_of_entry(1023, 4096), 1);
    }

    #[test]
    fn out_of_page_slot_rejected() {
        let fl = build_fl(&[1, 2, 3], 4096);
        let payload = unseal_page(&fl.read_page(0).unwrap()).unwrap().to_vec();
        // slot 3 exists physically (padding) but reading beyond is fine as
        // long as within payload; slot beyond payload length fails
        assert!(read_entry(&payload[..8], 2, 4096).is_err());
    }
}
