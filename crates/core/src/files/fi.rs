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
//! [record 0][record 1]...    ...[dir 0][dir 1][n_entries u16]
//! ```
//!
//! Continuation pages of spanning records are raw payload bytes.
//!
//! A reader takes a record's length from its head: a literal's kind and
//! count give its bytes, and a delta — written only where it fits its page
//! — never spans. So a record's first page says how many pages it spans
//! ([`record_pages`]): one, or for a literal longer than the rest of its
//! page's record area, enough whole continuation payloads to hold the
//! remainder. [`decode_entry`] then reads it in one pass from the payloads
//! it is handed.

use super::PAGE_CRC_BYTES;
use crate::error::CoreError;
use crate::records::{
    apply_delta, decode_literal, encode_literal, read_head, try_delta, IndexPayload, RecordHead,
};
use crate::Result;
use privpath_storage::{ByteWriter, MemFile};

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

/// The slotted directory of one `Fi` page payload, read in place.
struct Directory<'a> {
    payload: &'a [u8],
    entries: usize,
}

impl<'a> Directory<'a> {
    fn of(payload: &'a [u8]) -> Result<Self> {
        let [.., lo, hi] = *payload else {
            return Err(CoreError::Query("index page too small".into()));
        };
        let entries = usize::from(u16::from_le_bytes([lo, hi]));
        if entries * DIR_ENTRY_BYTES + COUNT_BYTES > payload.len() {
            return Err(CoreError::Query(format!(
                "index directory of {entries} entries overflows page"
            )));
        }
        Ok(Directory { payload, entries })
    }

    /// Where the record area ends and the directory starts.
    fn area_end(&self) -> usize {
        self.payload.len() - COUNT_BYTES - self.entries * DIR_ENTRY_BYTES
    }

    /// The slot holding pair `(i, j)`.
    fn slot_of(&self, i: u16, j: u16) -> Result<usize> {
        let key = (u32::from(j) << 16 | u32::from(i)).to_le_bytes();
        let dir = &self.payload[self.area_end()..self.payload.len() - COUNT_BYTES];
        dir.chunks_exact(DIR_ENTRY_BYTES)
            .position(|entry| entry[..4] == key)
            .ok_or_else(|| CoreError::Query(format!("pair ({i},{j}) not in its index page")))
    }

    /// The bytes from `slot`'s record to the end of the record area.
    fn record(&self, slot: usize) -> Result<&'a [u8]> {
        let at = self.area_end() + slot * DIR_ENTRY_BYTES + 4;
        let off = u32::from_le_bytes(self.payload[at..at + 4].try_into().expect("4 bytes"));
        self.payload
            .get(off as usize..self.area_end())
            .ok_or_else(|| {
                CoreError::Query(format!(
                    "index slot {slot} starts at byte {off}, past the record area's {}",
                    self.area_end()
                ))
            })
    }
}

/// Pages the record of pair `(i, j)` spans, read from `page`, the payload
/// of its first page: one, unless its head declares a literal longer than
/// the rest of the page's record area (the sole record of a fresh page),
/// which then runs on through as many whole continuation payloads as its
/// length needs.
pub(crate) fn record_pages(page: &[u8], i: u16, j: u16) -> Result<u32> {
    let dir = Directory::of(page)?;
    let rec = dir.record(dir.slot_of(i, j)?)?;
    match read_head(rec)? {
        RecordHead::Literal(len) if len > rec.len() => {
            u32::try_from(1 + (len - rec.len()).div_ceil(page.len()))
                .map_err(|_| CoreError::Query(format!("index record of {len} bytes")))
        }
        _ => Ok(1),
    }
}

/// Decodes the record of pair `(i, j)` in one pass from `pages`: the
/// payload of its first page, then those of the continuation pages
/// [`record_pages`] counts, `page_len` bytes each.
///
/// A literal is read by the length its head declares; a delta's reference
/// — always an earlier slot of the same page, so chains end — is walked
/// down to its literal and the deltas are applied back up. Forged bytes
/// (short pages, bad offsets, counts past the bytes, references to the
/// same or a later slot) are a [`CoreError::Query`] or a storage error,
/// never a panic.
pub(crate) fn decode_entry(pages: &[u8], page_len: usize, i: u16, j: u16) -> Result<IndexPayload> {
    let (page, rest) = pages
        .split_at_checked(page_len)
        .ok_or_else(|| CoreError::Query("index window ends before the record's page".into()))?;
    let dir = Directory::of(page)?;
    let mut slot = dir.slot_of(i, j)?;
    let mut deltas = Vec::new();
    let mut payload = loop {
        let rec = dir.record(slot)?;
        match read_head(rec)? {
            RecordHead::Literal(_) => break decode_literal(rec, rest)?,
            RecordHead::Delta(r) if usize::from(r) < slot => {
                deltas.push(rec);
                slot = usize::from(r);
            }
            RecordHead::Delta(r) => {
                return Err(CoreError::Query(format!(
                    "index slot {slot} references slot {r}, not an earlier one"
                )))
            }
        }
    };
    for rec in deltas.iter().rev() {
        apply_delta(rec, &mut payload)?;
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::files::unseal_page;
    use privpath_storage::PagedFile;

    /// The payloads of `file` from `page` to its end, as a window holds
    /// them.
    fn window(file: &MemFile, page: u32) -> Vec<u8> {
        (page..file.num_pages())
            .flat_map(|p| unseal_page(&file.read_page(p).unwrap()).unwrap().to_vec())
            .collect()
    }

    fn decode(file: &MemFile, page: u32, i: u16, j: u16) -> Result<IndexPayload> {
        decode_entry(&window(file, page), file.page_size() - PAGE_CRC_BYTES, i, j)
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
        for (k, loc) in locs {
            let got = decode(&file, loc.page, 0, k).unwrap();
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
        for k in 0..8u16 {
            assert_eq!(decode(&file, pages[k as usize], k, 0).unwrap(), payload(k));
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
        assert_eq!(decode(&file, l1.page, 0, 0).unwrap(), small);
        assert_eq!(decode(&file, l2.page, 0, 1).unwrap(), big);
        assert_eq!(decode(&file, l3.page, 0, 2).unwrap(), small);
        // the head says how many pages each record spans, as the builder
        // placed it
        for (loc, j) in [(l1, 0), (l2, 1), (l3, 2)] {
            let page = &window(&file, loc.page)[..512 - PAGE_CRC_BYTES];
            assert_eq!(record_pages(page, 0, j).unwrap(), loc.span);
        }
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
        for (k, loc) in locs.iter().enumerate() {
            let got = decode(&cfile, loc.page, 1, k as u16).unwrap();
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
        for (k, loc) in locs.iter().enumerate() {
            let got = decode(&cfile, loc.page, 2, k as u16).unwrap();
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
        assert!(decode(&file, 0, 5, 5).is_err());
    }

    #[test]
    fn empty_builder_yields_one_page() {
        let (file, span) = FiBuilder::new(4096, 0, true).finish();
        assert_eq!(file.num_pages(), 1);
        assert_eq!(span, 1);
    }

    /// Byte `at` of a page payload's directory entry for `slot`: 0 is the
    /// pair, 4 the record offset.
    fn entry(payload: &[u8], slot: usize, at: usize) -> usize {
        let n = u16::from_le_bytes([payload[payload.len() - 2], payload[payload.len() - 1]]);
        payload.len() - COUNT_BYTES - (usize::from(n) - slot) * DIR_ENTRY_BYTES + at
    }

    fn record_offset(payload: &[u8], slot: usize) -> usize {
        let at = entry(payload, slot, 4);
        u32::from_le_bytes(payload[at..at + 4].try_into().unwrap()) as usize
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 256, ..Default::default() })]

        /// Forged index pages decode to an error, never a panic: random
        /// bytes (which may also happen to be well formed), windows cut
        /// short, record offsets past the record area, literal and delta
        /// counts past the bytes the pages hold, references to the same or
        /// a later slot, directories larger than their page and unknown
        /// record kinds.
        #[test]
        fn forged_records_are_errors_not_panics(
            noise in proptest::collection::vec(0u8..=255, 0..1200),
            forgery in 0u8..8,
            pick in 0usize..100_000,
        ) {
            let _ = decode_entry(&noise, 1 + pick % 600, 0, 0);
            let _ = record_pages(&noise, 0, 0);

            // Page 0: a literal, a delta against it and a delta against
            // that; pages 1–2: one literal spanning both.
            let base: Vec<u16> = (0..40).collect();
            let with = |extra: &[u16]| IndexPayload::Regions([&base[..], extra].concat());
            let big = IndexPayload::Edges((0..80).map(|k| (k, k + 1, k)).collect());
            let mut b = FiBuilder::new(512, 100, true);
            b.add(0, 0, with(&[]));
            b.add(0, 1, with(&[60]));
            b.add(0, 2, with(&[60, 61]));
            let spanning = b.add(0, 3, big.clone());
            let (file, _) = b.finish();
            let len = 512 - PAGE_CRC_BYTES;
            let honest = window(&file, 0);
            proptest::prop_assert_eq!(spanning, RecordLocation { page: 1, span: 2 });
            proptest::prop_assert_eq!(decode_entry(&honest, len, 0, 2).unwrap(), with(&[60, 61]));
            proptest::prop_assert_eq!(decode_entry(&honest[len..], len, 0, 3).unwrap(), big);
            proptest::prop_assert_eq!(honest[record_offset(&honest[..len], 1)], 1, "slot 1 is a delta");

            let mut w = honest.clone();
            let page0 = &mut w[..len];
            let (pages, pair) = match forgery {
                // cut anywhere before the spanning record's last byte
                0 => {
                    let end = len + 5 + 12 * 80 - (len - COUNT_BYTES - DIR_ENTRY_BYTES);
                    (&w[len..len + pick % end], 3)
                }
                1 => {
                    let area_end = entry(page0, 0, 0);
                    let at = entry(page0, pick % 3, 4);
                    page0[at..at + 4].copy_from_slice(&((area_end + pick % 600) as u32).to_le_bytes());
                    (&w[..len], 2)
                }
                // a literal count past its page, and past the window
                2 => {
                    let n = (len / 2 + pick % 60_000) as u16;
                    page0[1..3].copy_from_slice(&n.to_le_bytes());
                    (&w[..len], 0)
                }
                3 => {
                    let n = (2 * len / 12 + pick) as u32 * 977;
                    w[len + 1..len + 5].copy_from_slice(&n.to_le_bytes());
                    (&w[len..], 3)
                }
                // a delta's include count past its page
                4 => {
                    let at = record_offset(page0, 1) + 3;
                    page0[at..at + 2].copy_from_slice(&((len / 2 + pick % 60_000) as u16).to_le_bytes());
                    (&w[..len], 1)
                }
                // a reference to itself or a later slot, in or out of range
                5 => {
                    let at = record_offset(page0, 1) + 1;
                    page0[at..at + 2].copy_from_slice(&((1 + pick % 65_535) as u16).to_le_bytes());
                    (&w[..len], 2)
                }
                6 => {
                    let n = (len / DIR_ENTRY_BYTES + pick % 60_000) as u16;
                    page0[len - 2..].copy_from_slice(&n.to_le_bytes());
                    (&w[..len], 0)
                }
                _ => {
                    page0[0] = 4 + (pick % 252) as u8;
                    (&w[..len], 2)
                }
            };
            let got = decode_entry(pages, len, 0, pair);
            proptest::prop_assert!(got.is_err(), "forgery {}: {:?}", forgery, got);
        }
    }
}
