//! The network index file `Fi` (§5.3).
//!
//! Records are placed contiguously in ascending `(i, j)` order under the
//! paper's placement rules: a record that fits in a page never straddles
//! into the next one; a record larger than a page starts on a fresh page and
//! spans the minimum number of pages. In-page delta compression (§5.5) is
//! applied as records are added.
//!
//! Page layout (payload, after the CRC): records grow from the front,
//! an 8-byte-per-entry directory grows from the back, and the final two
//! bytes hold the entry count — a classic slotted page:
//!
//! ```text
//! [record 0][record 1]...    ...[dir 1][dir 0][n_entries u16]
//! ```
//!
//! Continuation pages of spanning records are raw payload bytes.

use super::PAGE_CRC_BYTES;
use crate::error::CoreError;
use crate::records::{encode_literal, try_delta, IndexPayload};
use crate::Result;
use privpath_storage::{ByteReader, ByteWriter, MemFile};

const DIR_ENTRY_BYTES: usize = 8; // i u16 + j u16 + offset u32
const COUNT_BYTES: usize = 2;

/// Where a record landed: starting page and number of pages spanned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RecordLocation {
    /// First page of the record (the page with its directory entry).
    pub(crate) page: u32,
    /// Pages spanned (1 for in-page records).
    pub(crate) span: u32,
}

/// Builds `Fi` by appending records in `(i, j)` order.
pub(crate) struct FiBuilder {
    page_size: usize,
    m: usize,
    compress: bool,
    finished: Vec<Vec<u8>>,
    cur_records: Vec<u8>,
    cur_dir: Vec<(u16, u16, u32)>,
    cur_decoded: Vec<IndexPayload>,
    max_span: u32,
    /// Bytes a record may occupy in a page that holds only it.
    single_entry_room: usize,
}

impl FiBuilder {
    /// New builder. `m` is the CI plan bound for decoded region sets;
    /// `compress` enables §5.5.
    pub(crate) fn new(page_size: usize, m: usize, compress: bool) -> Self {
        let payload = page_size - PAGE_CRC_BYTES;
        FiBuilder {
            page_size,
            m,
            compress,
            finished: Vec::new(),
            cur_records: Vec::new(),
            cur_dir: Vec::new(),
            cur_decoded: Vec::new(),
            max_span: 0,
            single_entry_room: payload - COUNT_BYTES - DIR_ENTRY_BYTES,
        }
    }

    fn payload_cap(&self) -> usize {
        self.page_size - PAGE_CRC_BYTES
    }

    fn cur_free(&self) -> usize {
        self.payload_cap()
            - COUNT_BYTES
            - self.cur_records.len()
            - DIR_ENTRY_BYTES * self.cur_dir.len()
    }

    fn close_page(&mut self) {
        let cap = self.payload_cap();
        let mut payload = vec![0u8; cap];
        payload[..self.cur_records.len()].copy_from_slice(&self.cur_records);
        let n = self.cur_dir.len();
        // directory: slot s at cap - COUNT - (n - s) * DIR_ENTRY_BYTES
        for (s, &(i, j, off)) in self.cur_dir.iter().enumerate() {
            let pos = cap - COUNT_BYTES - (n - s) * DIR_ENTRY_BYTES;
            payload[pos..pos + 2].copy_from_slice(&i.to_le_bytes());
            payload[pos + 2..pos + 4].copy_from_slice(&j.to_le_bytes());
            payload[pos + 4..pos + 8].copy_from_slice(&off.to_le_bytes());
        }
        payload[cap - 2..].copy_from_slice(&(n as u16).to_le_bytes());
        self.finished.push(payload);
        self.cur_records.clear();
        self.cur_dir.clear();
        self.cur_decoded.clear();
    }

    /// Appends the record for pair `(i, j)`.
    pub(crate) fn add(&mut self, i: u16, j: u16, payload: IndexPayload) -> RecordLocation {
        // Try compression against records already in the current page.
        let delta = if self.compress {
            try_delta(&payload, &self.cur_decoded, self.m)
        } else {
            None
        };
        let (bytes, decoded) = match delta {
            Some(d) => (d.bytes, d.decoded),
            None => {
                let mut w = ByteWriter::new();
                encode_literal(&payload, &mut w);
                (w.into_vec(), payload)
            }
        };

        if bytes.len() + DIR_ENTRY_BYTES <= self.cur_free() {
            // fits in the current page
            let off = self.cur_records.len() as u32;
            self.cur_records.extend_from_slice(&bytes);
            self.cur_dir.push((i, j, off));
            self.cur_decoded.push(decoded);
            self.max_span = self.max_span.max(1);
            return RecordLocation {
                page: (self.finished.len()) as u32,
                span: 1,
            };
        }

        if !self.cur_dir.is_empty() {
            self.close_page();
        }

        // A fresh page has no reference candidates, so encode literally.
        // `decoded` is a valid superset of the true payload (it equals the
        // payload when no delta was taken), so storing it keeps correctness.
        let mut w = ByteWriter::new();
        encode_literal(&decoded, &mut w);
        let bytes = w.into_vec();

        if bytes.len() + DIR_ENTRY_BYTES + COUNT_BYTES <= self.payload_cap() {
            // fits alone in a fresh page
            let off = self.cur_records.len() as u32;
            self.cur_records.extend_from_slice(&bytes);
            self.cur_dir.push((i, j, off));
            self.cur_decoded.push(decoded);
            self.max_span = self.max_span.max(1);
            return RecordLocation {
                page: self.finished.len() as u32,
                span: 1,
            };
        }

        // Spanning record: fresh page with a single directory entry, raw
        // continuation pages afterwards.
        let start_page = self.finished.len() as u32;
        let first_chunk = self.single_entry_room.min(bytes.len());
        self.cur_records.extend_from_slice(&bytes[..first_chunk]);
        self.cur_dir.push((i, j, 0));
        self.close_page();
        let mut pos = first_chunk;
        let mut span = 1u32;
        while pos < bytes.len() {
            let chunk = (bytes.len() - pos).min(self.payload_cap());
            self.finished.push(bytes[pos..pos + chunk].to_vec());
            pos += chunk;
            span += 1;
        }
        self.max_span = self.max_span.max(span);
        RecordLocation {
            page: start_page,
            span,
        }
    }

    /// Finishes the file: seals pages and returns `(file, max_span)`.
    pub(crate) fn finish(mut self) -> (MemFile, u32) {
        if !self.cur_dir.is_empty() || self.finished.is_empty() {
            self.close_page();
        }
        let span = self.max_span.max(1);
        (super::seal_file(&self.finished, self.page_size), span)
    }
}

/// Parses the directory of an `Fi` page payload: `(i, j, offset)` per slot.
fn parse_directory(payload: &[u8]) -> Result<Vec<(u16, u16, u32)>> {
    if payload.len() < COUNT_BYTES {
        return Err(CoreError::Query("index page too small".into()));
    }
    let n = u16::from_le_bytes(payload[payload.len() - 2..].try_into().expect("2 bytes")) as usize;
    let dir_bytes = n * DIR_ENTRY_BYTES + COUNT_BYTES;
    if dir_bytes > payload.len() {
        return Err(CoreError::Query(format!(
            "index directory of {n} entries overflows page"
        )));
    }
    let mut dir = Vec::with_capacity(n);
    for s in 0..n {
        let pos = payload.len() - COUNT_BYTES - (n - s) * DIR_ENTRY_BYTES;
        let i = u16::from_le_bytes(payload[pos..pos + 2].try_into().expect("2"));
        let j = u16::from_le_bytes(payload[pos + 2..pos + 4].try_into().expect("2"));
        let off = u32::from_le_bytes(payload[pos + 4..pos + 8].try_into().expect("4"));
        dir.push((i, j, off));
    }
    Ok(dir)
}

/// Decodes the record of pair `(i, j)` starting at `start_page`.
///
/// `get_payload(p)` returns the unsealed payload of fetched page `p` (the
/// client's page window); continuation pages are consumed as needed.
pub(crate) fn decode_entry(
    get_payload: &dyn Fn(u32) -> Result<Vec<u8>>,
    start_page: u32,
    i: u16,
    j: u16,
) -> Result<IndexPayload> {
    let payload = get_payload(start_page)?;
    let dir = parse_directory(&payload)?;
    let slot = dir
        .iter()
        .position(|&(di, dj, _)| di == i && dj == j)
        .ok_or_else(|| {
            CoreError::Query(format!("pair ({i},{j}) not in index page {start_page}"))
        })?;
    decode_slot(get_payload, start_page, &payload, &dir, slot, 0)
}

fn decode_slot(
    get_payload: &dyn Fn(u32) -> Result<Vec<u8>>,
    start_page: u32,
    payload: &[u8],
    dir: &[(u16, u16, u32)],
    slot: usize,
    depth: usize,
) -> Result<IndexPayload> {
    if depth > dir.len() {
        return Err(CoreError::Query("index reference cycle".into()));
    }
    let (_, _, off) = dir[slot];
    // Assemble the record bytes: rest of this page's record area, plus
    // continuation pages if the record spans (only possible for the sole
    // record of its page, by construction).
    let record_area_end = payload.len() - COUNT_BYTES - dir.len() * DIR_ENTRY_BYTES;
    let mut buf: Vec<u8> = payload[off as usize..record_area_end].to_vec();
    // A reader may need continuation pages; append lazily up to a sane cap.
    let mut next = start_page + 1;
    let mut result;
    loop {
        let mut r = ByteReader::new(&buf);
        result = crate::records::decode_record(&mut r, &|ref_slot| {
            if ref_slot as usize >= dir.len() {
                return Err(CoreError::Query(format!("bad reference slot {ref_slot}")));
            }
            decode_slot(
                get_payload,
                start_page,
                payload,
                dir,
                ref_slot as usize,
                depth + 1,
            )
        });
        match &result {
            Err(CoreError::Storage(privpath_storage::StorageError::UnexpectedEof { .. }))
                if next < start_page + 64 =>
            {
                // record continues on the next page
                match get_payload(next) {
                    Ok(more) => {
                        buf.extend_from_slice(&more);
                        next += 1;
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            }
            _ => break,
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::files::unseal_page;
    use privpath_storage::PagedFile;

    fn getter(file: &MemFile) -> impl Fn(u32) -> Result<Vec<u8>> + '_ {
        move |p| Ok(unseal_page(&file.read_page(p)?)?.to_vec())
    }

    #[test]
    fn small_records_share_pages() {
        let mut b = FiBuilder::new(4096, 100, false);
        let mut locs = Vec::new();
        for k in 0..50u16 {
            let payload = IndexPayload::Regions((0..k % 7).map(|x| x * 3).collect());
            locs.push((k, b.add(0, k, payload)));
        }
        let (file, span) = b.finish();
        assert_eq!(span, 1);
        assert_eq!(file.num_pages(), 1, "50 tiny records fit one page");
        let get = getter(&file);
        for (k, loc) in locs {
            let got = decode_entry(&get, loc.page, 0, k).unwrap();
            assert_eq!(
                got,
                IndexPayload::Regions((0..k % 7).map(|x| x * 3).collect())
            );
        }
    }

    #[test]
    fn records_do_not_straddle() {
        // Each record ~1000 bytes, page payload 4092: 4 per page, 5th opens
        // a new page (the §5.3 rule).
        let mut b = FiBuilder::new(4096, 1000, false);
        let payload = |k: u16| IndexPayload::Regions((0..498).map(|x| x + k).collect()); // 1+2+996 bytes
        let mut pages = Vec::new();
        for k in 0..8u16 {
            pages.push(b.add(k, 0, payload(k)).page);
        }
        let (file, span) = b.finish();
        assert_eq!(span, 1);
        assert_eq!(pages[..4], [0, 0, 0, 0]);
        assert_eq!(pages[4..], [1, 1, 1, 1]);
        let get = getter(&file);
        for k in 0..8u16 {
            assert_eq!(
                decode_entry(&get, pages[k as usize], k, 0).unwrap(),
                payload(k)
            );
        }
    }

    #[test]
    fn spanning_record_round_trip() {
        let mut b = FiBuilder::new(512, 10_000, false);
        let big = IndexPayload::Edges((0..200).map(|k| (k, k + 1, 10 * k + 7)).collect()); // 2405 bytes
        let small = IndexPayload::Regions(vec![1, 2, 3]);
        let l1 = b.add(0, 0, small.clone());
        let l2 = b.add(0, 1, big.clone());
        let l3 = b.add(0, 2, small.clone());
        let (file, span) = b.finish();
        assert!(l2.span > 1, "record should span pages");
        assert_eq!(span, l2.span);
        assert!(
            l3.page > l2.page,
            "next record starts after the spanning group"
        );
        let get = getter(&file);
        assert_eq!(decode_entry(&get, l1.page, 0, 0).unwrap(), small);
        assert_eq!(decode_entry(&get, l2.page, 0, 1).unwrap(), big);
        assert_eq!(decode_entry(&get, l3.page, 0, 2).unwrap(), small);
        let _ = file.num_pages();
    }

    #[test]
    fn compression_shrinks_similar_sets() {
        let base: Vec<u16> = (0..300).collect();
        let make = |k: u16| {
            let mut v = base.clone();
            v.push(300 + k);
            IndexPayload::Regions(v)
        };
        let mut comp = FiBuilder::new(4096, 400, true);
        let mut plain = FiBuilder::new(4096, 400, false);
        let mut locs = Vec::new();
        for k in 0..20u16 {
            locs.push(comp.add(1, k, make(k)));
            plain.add(1, k, make(k));
        }
        let (cfile, _) = comp.finish();
        let (pfile, _) = plain.finish();
        assert!(
            cfile.num_pages() < pfile.num_pages(),
            "compressed {} pages vs plain {}",
            cfile.num_pages(),
            pfile.num_pages()
        );
        // decoded sets are supersets of the true sets, within m
        let get = getter(&cfile);
        for (k, loc) in locs.iter().enumerate() {
            let got = decode_entry(&get, loc.page, 1, k as u16).unwrap();
            if let (IndexPayload::Regions(d), IndexPayload::Regions(t)) = (&got, &make(k as u16)) {
                assert!(d.len() <= 400);
                for r in t {
                    assert!(d.contains(r), "decoded set must cover true set");
                }
            } else {
                panic!("wrong type");
            }
        }
    }

    #[test]
    fn compression_of_subgraphs() {
        let base: Vec<(u32, u32, u32)> = (0..100).map(|k| (k, k + 1, 5)).collect();
        let make = |k: u32| {
            let mut v = base.clone();
            v.push((1000 + k, 2000 + k, 9));
            IndexPayload::Edges(v)
        };
        let mut comp = FiBuilder::new(4096, 0, true);
        let mut locs = Vec::new();
        for k in 0..10u32 {
            locs.push(comp.add(2, k as u16, make(k)));
        }
        let (cfile, _) = comp.finish();
        let get = getter(&cfile);
        for (k, loc) in locs.iter().enumerate() {
            let got = decode_entry(&get, loc.page, 2, k as u16).unwrap();
            if let (IndexPayload::Edges(d), IndexPayload::Edges(t)) = (&got, &make(k as u32)) {
                for e in t {
                    assert!(d.contains(e));
                }
            } else {
                panic!("wrong type");
            }
        }
    }

    #[test]
    fn missing_pair_is_an_error() {
        let mut b = FiBuilder::new(4096, 10, false);
        b.add(0, 0, IndexPayload::Regions(vec![]));
        let (file, _) = b.finish();
        let get = getter(&file);
        assert!(decode_entry(&get, 0, 5, 5).is_err());
    }

    #[test]
    fn empty_builder_yields_one_page() {
        let (file, span) = FiBuilder::new(4096, 0, true).finish();
        assert_eq!(file.num_pages(), 1);
        assert_eq!(span, 1);
    }
}
