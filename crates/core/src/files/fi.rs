//! The network index file `Fi` (§5.3).
//!
//! Records are placed in ascending `(i, j)` order, and in-page delta
//! compression (§5.5) is applied as they are added.
//!
//! Every page has one layout (payload, after the CRC): records grow from
//! the front, an 8-byte-per-entry directory grows from the back, and the
//! final two bytes hold the entry count — a classic slotted page:
//!
//! ```text
//! [carry][record 0][record 1]...    ...[dir 0][dir 1][n_entries u16]
//! ```
//!
//! A record longer than the free area it starts in fills that area up to
//! the directory and continues at the front of the next page's record
//! area: the *carry*. A page the carry fills whole has `n_entries = 0` and
//! `payload − 2` bytes of record area, all carry; in the carry's last page
//! the records that begin there follow it, and their directory offsets
//! point past it. Records are encoded by [`crate::records`]: an edge
//! record is varints, about five bytes a triple.
//!
//! Placement, where a record does not fit the free area of the current
//! page:
//!
//! * a region-set record (CI, and HY's sets) starts a fresh page, as §5.3
//!   has it, and spans only when it is longer than a fresh page holds;
//! * an edge record (PI, PI*, HY's subgraphs) starts in that free area and
//!   carries into the pages after, unless from there it would touch more
//!   than `H` pages, or the area cannot hold its directory entry and its
//!   head; then it starts a fresh page. `H` is the most pages any
//!   edge record of the file needs from a fresh page
//!   ([`pages_from_fresh`]), taken by the builder's caller from a pre-pass
//!   over the records' encoded lengths. So no edge record touches more than
//!   `H` pages, the widest touches exactly `H`, and the plan's window over
//!   the index stays `H` pages while the page tails fill.
//!
//! A delta is written only where it fits its page, so it never spans, and a
//! literal's head always lies in its first page.
//!
//! A reader takes a record's length from its head, so a record's first
//! page says how many pages it spans ([`record_pages`]): one, or for a
//! literal longer than the rest of its page's record area, enough carry
//! areas of `payload − 2` bytes to hold the remainder. [`decode_entry`]
//! then reads it in one pass from the payloads it is handed.

use super::PAGE_CRC_BYTES;
use crate::error::CoreError;
use crate::records::{
    apply_delta, decode_literal, encode_literal, read_head, try_delta, IndexPayload, RecordHead,
    MAX_HEAD_BYTES,
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

/// Pages a record of `len` bytes touches when `first` of them go in the
/// page it starts in and the rest carry on `room` bytes a page.
fn pages_touched(len: usize, first: usize, room: usize) -> u32 {
    1 + len.saturating_sub(first).div_ceil(room) as u32
}

/// Pages a literal of `len` bytes touches from a fresh `Fi` page of
/// `page_size` bytes — the `H` of a file whose widest edge record has
/// `len` bytes.
pub(crate) fn pages_from_fresh(len: usize, page_size: usize) -> u32 {
    let room = page_size - PAGE_CRC_BYTES - COUNT_BYTES;
    pages_touched(len, room - DIR_ENTRY_BYTES, room)
}

/// Builds `Fi` by appending records in `(i, j)` order.
pub(crate) struct FiBuilder {
    page_size: usize,
    m: usize,
    compress: bool,
    /// `H`: the most pages an edge record may touch.
    edge_span: u32,
    finished: Vec<Vec<u8>>,
    /// The current page's record area so far: a carry, whole records, and
    /// the first part of a record that carries on.
    cur_records: Vec<u8>,
    cur_dir: Vec<(u16, u16, u32)>,
    cur_decoded: Vec<IndexPayload>,
    max_span: u32,
}

impl FiBuilder {
    /// New builder. `m` is the CI plan bound for decoded region sets;
    /// `compress` enables §5.5; `edge_span` is `H`, at least the
    /// [`pages_from_fresh`] of every edge record to be added.
    pub(crate) fn new(page_size: usize, m: usize, compress: bool, edge_span: u32) -> Self {
        FiBuilder {
            page_size,
            m,
            compress,
            edge_span,
            finished: Vec::new(),
            cur_records: Vec::new(),
            cur_dir: Vec::new(),
            cur_decoded: Vec::new(),
            max_span: 0,
        }
    }

    fn payload_cap(&self) -> usize {
        self.page_size - PAGE_CRC_BYTES
    }

    /// The record area of a page with no directory entries.
    fn carry_room(&self) -> usize {
        self.payload_cap() - COUNT_BYTES
    }

    fn cur_free(&self) -> usize {
        self.carry_room() - self.cur_records.len() - DIR_ENTRY_BYTES * self.cur_dir.len()
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
    pub(crate) fn add(&mut self, i: u16, j: u16, mut payload: IndexPayload) -> RecordLocation {
        let edges = matches!(payload, IndexPayload::Edges(_));
        // Try compression against records already in the current page.
        if self.compress {
            if let Some(d) = try_delta(&payload, &self.cur_decoded, self.m) {
                if d.bytes.len() + DIR_ENTRY_BYTES <= self.cur_free() {
                    return self.place(i, j, &d.bytes, d.decoded);
                }
                // A region set goes to a fresh page, which has no reference
                // candidates, so it is encoded literally: as the delta's
                // decoded superset, which is as valid as the true set.
                if !edges {
                    payload = d.decoded;
                }
            }
        }
        let mut w = ByteWriter::new();
        encode_literal(&payload, &mut w);
        let bytes = w.into_vec();

        let free = self.cur_free();
        let starts_here = bytes.len() + DIR_ENTRY_BYTES <= free
            || (edges
                && free >= DIR_ENTRY_BYTES + MAX_HEAD_BYTES
                && pages_touched(bytes.len(), free - DIR_ENTRY_BYTES, self.carry_room())
                    <= self.edge_span);
        if !starts_here && !self.cur_records.is_empty() {
            self.close_page();
        }
        let loc = self.place(i, j, &bytes, payload);
        debug_assert!(!edges || loc.span <= self.edge_span, "edge record past H");
        loc
    }

    /// Writes `bytes`, the record of `(i, j)`, from the current page's free
    /// area on: whole, or up to the directory with the rest carried into
    /// the pages after, the last of which stays open.
    fn place(&mut self, i: u16, j: u16, bytes: &[u8], decoded: IndexPayload) -> RecordLocation {
        let page = self.finished.len() as u32;
        let first = bytes.len().min(self.cur_free() - DIR_ENTRY_BYTES);
        let room = self.carry_room();
        self.cur_dir.push((i, j, self.cur_records.len() as u32));
        self.cur_records.extend_from_slice(&bytes[..first]);
        self.cur_decoded.push(decoded);
        for carry in bytes[first..].chunks(room) {
            self.close_page();
            self.cur_records.extend_from_slice(carry);
        }
        let span = pages_touched(bytes.len(), first, room);
        self.max_span = self.max_span.max(span);
        RecordLocation { page, span }
    }

    /// Finishes the file: seals pages and returns `(file, max_span)`.
    pub(crate) fn finish(mut self) -> (MemFile, u32) {
        if !self.cur_records.is_empty() || self.finished.is_empty() {
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

/// The carry of a record that runs on past its first page: from each page
/// of `pages` in turn, the front of its record area, until `left` bytes
/// are taken. A carry longer than a page's record area must fill the page
/// whole (`n_entries = 0`); one that overruns the record area of a page
/// with entries, or runs past `pages`, is an error.
struct Carry<'a> {
    pages: &'a [u8],
    page_len: usize,
    left: usize,
}

impl<'a> Carry<'a> {
    fn take(&mut self) -> Result<&'a [u8]> {
        let (page, rest) = self
            .pages
            .split_at_checked(self.page_len)
            .ok_or_else(|| CoreError::Query("index window ends inside a record's carry".into()))?;
        let dir = Directory::of(page)?;
        let area = dir.area_end();
        if self.left > area && dir.entries > 0 {
            return Err(CoreError::Query(format!(
                "index carry of {} bytes overruns the {area}-byte record area of a page with \
                 {} entries",
                self.left, dir.entries
            )));
        }
        let take = self.left.min(area);
        self.pages = rest;
        self.left -= take;
        Ok(&page[..take])
    }
}

impl<'a> Iterator for Carry<'a> {
    type Item = Result<&'a [u8]>;

    fn next(&mut self) -> Option<Self::Item> {
        (self.left > 0).then(|| {
            let taken = self.take();
            if taken.is_err() {
                self.left = 0;
            }
            taken
        })
    }
}

/// Pages the record of pair `(i, j)` spans, read from `page`, the payload
/// of its first page: one, unless its head declares a literal longer than
/// the rest of the page's record area, which then carries on through as
/// many record areas of `payload − 2` bytes as its length needs.
pub(crate) fn record_pages(page: &[u8], i: u16, j: u16) -> Result<u32> {
    let dir = Directory::of(page)?;
    let rec = dir.record(dir.slot_of(i, j)?)?;
    match read_head(rec)? {
        // the page has an entry, so its carry room holds at least one
        // entry's bytes, and a head declares under 2^33 bytes: the count
        // fits a `u32`
        RecordHead::Literal(len) => Ok(pages_touched(len, rec.len(), page.len() - COUNT_BYTES)),
        RecordHead::Delta(_) => Ok(1),
    }
}

/// Decodes the record of pair `(i, j)` in one pass from `pages`: the
/// payload of its first page, then those of the pages its carry runs
/// through, `page_len` bytes each.
///
/// A literal is read by the length its head declares, which must fit the
/// pages handed in; a delta's reference — always an earlier slot of the
/// same page, so chains end — is walked down to its literal and the deltas
/// are applied back up. Forged bytes (short pages, bad offsets, counts and
/// lengths past the bytes, overlong varints, carries that overrun a page's
/// record area, references to the same or a later slot) are a
/// [`CoreError::Query`] or a storage error, never a panic.
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
            RecordHead::Literal(len) => {
                let left = len.saturating_sub(rec.len());
                let room = (rest.len() / page_len) * page_len.saturating_sub(COUNT_BYTES);
                if left > room {
                    return Err(CoreError::Query(format!(
                        "index record of {len} bytes overruns the {} its window holds",
                        rec.len() + room
                    )));
                }
                let carry = Carry {
                    pages: rest,
                    page_len,
                    left,
                };
                break decode_literal(rec, carry)?;
            }
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
    use crate::records::{edges_literal_size, literal_size, EdgeTriple};
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

    /// The count of `payload`'s directory entries.
    fn entries(payload: &[u8]) -> u16 {
        u16::from_le_bytes([payload[payload.len() - 2], payload[payload.len() - 1]])
    }

    /// `n` triples `(base + k, base + k + 1, 7)`: three bytes each.
    fn edges(n: u32, base: u32) -> IndexPayload {
        IndexPayload::Edges((0..n).map(|k| (base + k, base + k + 1, 7)).collect())
    }

    #[test]
    fn small_records_share_pages() {
        let mut b = FiBuilder::new(4096, 100, false, 1);
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

    /// Set records never straddle: each ~1000 bytes, page payload 4092, 4
    /// per page, and the 5th opens a new page (the §5.3 rule), whatever
    /// `H` is. Edge records straddle within `H` pages: at 512-byte pages
    /// (506 bytes of record area), one starts in the tail another left and
    /// carries into the next page, a record following that carry decodes,
    /// and one that would touch `H + 1` pages from the tail starts a fresh
    /// page instead. A set after it skips the tail an edge record would
    /// take.
    #[test]
    fn set_records_never_straddle_and_edge_records_straddle_within_h() {
        let mut b = FiBuilder::new(4096, 1000, false, 3);
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

        let records = [
            edges(100, 0),   // 304 bytes
            edges(100, 200), // 305
            edges(250, 0),   // 755: two pages from a fresh one, so H = 2
            edges(10, 0),    // 33
            edges(250, 0),
            IndexPayload::Regions((0..200).collect()), // 403
        ];
        let lens: Vec<usize> = records.iter().map(literal_size).collect();
        assert_eq!(lens[..4], [304, 305, 755, 33]);
        let h = lens[..5]
            .iter()
            .map(|&len| pages_from_fresh(len, 512))
            .max()
            .unwrap();
        assert_eq!(h, 2);
        let mut b = FiBuilder::new(512, 1000, false, h);
        let locs: Vec<RecordLocation> = records
            .iter()
            .zip(0..)
            .map(|(p, j)| b.add(0, j, p.clone()))
            .collect();
        let (file, span) = b.finish();
        assert_eq!(span, h);
        let at = |page, span| RecordLocation { page, span };
        // page 0: 304 bytes, then 186 of 305 (free 194 less its entry) in
        // the tail, 119 carried; page 1: the carry, then 380 of 755; page
        // 2: 375 carried, then the 33-byte record; the second 755 would
        // touch 3 pages from page 2's 90 free bytes, so it opens page 3 and
        // carries into page 4; the set opens page 5
        assert_eq!(
            locs,
            [at(0, 1), at(0, 2), at(1, 2), at(2, 1), at(3, 2), at(5, 1)]
        );
        assert_eq!(file.num_pages(), 6);
        let page = |p: u32| unseal_page(&file.read_page(p).unwrap()).unwrap().to_vec();
        assert_eq!(
            (0..6).map(|p| entries(&page(p))).collect::<Vec<_>>(),
            [2, 1, 1, 1, 0, 1]
        );
        for ((record, loc), j) in records.iter().zip(&locs).zip(0..) {
            assert_eq!(
                &decode(&file, loc.page, 0, j).unwrap(),
                record,
                "record {j}"
            );
            let first = &window(&file, loc.page)[..512 - PAGE_CRC_BYTES];
            assert_eq!(record_pages(first, 0, j).unwrap(), loc.span, "record {j}");
        }
        // the windows the query reads: `H` pages from the record's page
        for (loc, j) in locs.iter().zip(0..) {
            let w = window(&file, loc.page);
            let held = &w[..w.len().min(h as usize * (512 - PAGE_CRC_BYTES))];
            assert_eq!(
                decode_entry(held, 512 - PAGE_CRC_BYTES, 0, j).unwrap(),
                records[j as usize]
            );
        }
    }

    #[test]
    fn spanning_record_round_trip() {
        let big = IndexPayload::Edges((0..200).map(|k| (k, k + 1, 10 * k + 7)).collect());
        let h = pages_from_fresh(literal_size(&big), 512);
        assert!(h > 1, "the record spans from a fresh page");
        let mut b = FiBuilder::new(512, 10_000, false, h);
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
        let mut comp = FiBuilder::new(4096, 400, true, 1);
        let mut plain = FiBuilder::new(4096, 400, false, 1);
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
        let mut comp = FiBuilder::new(4096, 0, true, 1);
        let mut locs = Vec::new();
        for k in 0..10u32 {
            locs.push(comp.add(2, k as u16, make(k)));
        }
        let (cfile, _) = comp.finish();
        assert_eq!(cfile.num_pages(), 1);
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
        let mut b = FiBuilder::new(4096, 10, false, 1);
        b.add(0, 0, IndexPayload::Regions(vec![]));
        let (file, _) = b.finish();
        assert!(decode(&file, 0, 5, 5).is_err());
    }

    #[test]
    fn empty_builder_yields_one_page() {
        let (file, span) = FiBuilder::new(4096, 0, true, 1).finish();
        assert_eq!(file.num_pages(), 1);
        assert_eq!(span, 1);
    }

    /// Byte `at` of a page payload's directory entry for `slot`: 0 is the
    /// pair, 4 the record offset.
    fn entry(payload: &[u8], slot: usize, at: usize) -> usize {
        payload.len() - COUNT_BYTES - (usize::from(entries(payload)) - slot) * DIR_ENTRY_BYTES + at
    }

    fn record_offset(payload: &[u8], slot: usize) -> usize {
        let at = entry(payload, slot, 4);
        u32::from_le_bytes(payload[at..at + 4].try_into().unwrap()) as usize
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 64, ..Default::default() })]

        /// Any run of set and edge records, with and without §5.5, at any
        /// page size, decodes from the window a query reads — `H` pages
        /// from the record's page, or to the file's end — to a superset of
        /// what was added (the record itself without compression). Set
        /// records start on a fresh page whenever they do not fit where the
        /// last one ended, so they span only when longer than a fresh page
        /// holds; edge records never touch more than `H` pages.
        #[test]
        fn packed_files_round_trip(
            sizes in proptest::collection::vec((0u32..400, 0u32..1_000_000, 0u8..4), 1..40),
            page_size in 128usize..1100,
            compress in proptest::any::<bool>(),
        ) {
            let records: Vec<IndexPayload> = sizes
                .iter()
                .map(|&(n, seed, kind)| if kind == 0 {
                    IndexPayload::Regions((0..n as u16 / 2).map(|k| k * 3 + (seed % 5) as u16).collect())
                } else {
                    let mut v: Vec<EdgeTriple> = (0..n)
                        .map(|k| (seed / 7 + k * (seed % 3), seed % 997 + k, (seed ^ k) % 70_000))
                        .collect();
                    v.sort_unstable();
                    IndexPayload::Edges(v)
                })
                .collect();
            let h = records
                .iter()
                .filter_map(|p| match p {
                    IndexPayload::Edges(v) => Some(pages_from_fresh(edges_literal_size(v), page_size)),
                    IndexPayload::Regions(_) => None,
                })
                .max()
                .unwrap_or(1);
            let mut b = FiBuilder::new(page_size, 1000, compress, h);
            let locs: Vec<RecordLocation> = records
                .iter()
                .zip(0..)
                .map(|(p, j)| b.add(1, j, p.clone()))
                .collect();
            let (file, _) = b.finish();
            let len = page_size - PAGE_CRC_BYTES;
            for ((record, loc), j) in records.iter().zip(&locs).zip(0..) {
                let w = window(&file, loc.page);
                let first = &w[..len];
                proptest::prop_assert_eq!(record_pages(first, 1, j).unwrap(), loc.span);
                let held = &w[..w.len().min(loc.span.max(h) as usize * len)];
                let got = decode_entry(held, len, 1, j).unwrap();
                match (record, &got) {
                    (IndexPayload::Edges(want), IndexPayload::Edges(got)) => {
                        proptest::prop_assert!(loc.span <= h);
                        proptest::prop_assert!(want.iter().all(|e| got.binary_search(e).is_ok() || got.contains(e)));
                    }
                    (IndexPayload::Regions(want), IndexPayload::Regions(got)) => {
                        let fresh = pages_from_fresh(literal_size(record), page_size);
                        proptest::prop_assert!(loc.span == 1 || loc.span <= fresh);
                        proptest::prop_assert!(want.iter().all(|r| got.contains(r)));
                    }
                    _ => proptest::prop_assert!(false, "record {} decoded to the other kind", j),
                }
                if !compress {
                    proptest::prop_assert_eq!(&got, record);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 256, ..Default::default() })]

        /// Forged index pages decode to an error, never a panic: random
        /// bytes (which may also happen to be well formed), windows cut
        /// short inside a carry, record offsets past the record area,
        /// literal counts past the bytes the pages hold, an edge body
        /// length past the window, delta counts past their page,
        /// references to the same or a later slot, directories larger than
        /// their page, unknown record kinds, overlong and unterminated
        /// varints, triple counts past the body, a carry that overruns the
        /// record area of the page it ends in, and a page the carry fills
        /// whose entry count is forged.
        #[test]
        fn forged_records_are_errors_not_panics(
            noise in proptest::collection::vec(0u8..=255, 0..1200),
            forgery in 0u8..13,
            pick in 0usize..100_000,
        ) {
            let _ = decode_entry(&noise, 1 + pick % 600, 0, 0);
            let _ = record_pages(&noise, 0, 0);

            // Page 0: a literal set, a delta against it and a delta
            // against that, a 10-triple edge literal, and the head of a
            // 380-triple edge literal that carries through page 1 (all
            // carry, no entries) into page 2, where a 10-triple literal
            // follows the carry.
            let base: Vec<u16> = (0..40).collect();
            let with = |extra: &[u16]| IndexPayload::Regions([&base[..], extra].concat());
            let big = edges(380, 1000);
            let h = pages_from_fresh(literal_size(&big), 512);
            let mut b = FiBuilder::new(512, 100, true, h);
            b.add(0, 0, with(&[]));
            b.add(0, 1, with(&[60]));
            b.add(0, 2, with(&[60, 61]));
            b.add(0, 3, edges(10, 5));
            let spanning = b.add(0, 4, big.clone());
            let follower = b.add(0, 5, edges(10, 9));
            let (file, _) = b.finish();
            let len = 512 - PAGE_CRC_BYTES;
            let honest = window(&file, 0);
            proptest::prop_assert_eq!(spanning, RecordLocation { page: 0, span: 3 });
            proptest::prop_assert_eq!(follower, RecordLocation { page: 2, span: 1 });
            proptest::prop_assert_eq!(entries(&honest[len..2 * len]), 0);
            proptest::prop_assert_eq!(decode_entry(&honest, len, 0, 2).unwrap(), with(&[60, 61]));
            proptest::prop_assert_eq!(decode_entry(&honest, len, 0, 4).unwrap(), big.clone());
            proptest::prop_assert_eq!(decode_entry(&honest[2 * len..], len, 0, 5).unwrap(), edges(10, 9));
            proptest::prop_assert_eq!(honest[record_offset(&honest[..len], 1)], 1, "slot 1 is a delta");
            let small = record_offset(&honest[..len], 3); // the 10-triple literal: [2][31][10]...
            proptest::prop_assert_eq!(&honest[small..small + 3], &[2u8, 31, 10][..]);
            let big_at = record_offset(&honest[..len], 4);
            let carry_end = literal_size(&big) - (entry(&honest[..len], 0, 0) - big_at) - (len - 2);

            let mut w = honest.clone();
            let page0 = &mut w[..len];
            let (pages, pair) = match forgery {
                // cut anywhere before the spanning record's last byte
                0 => (&w[..2 * len + pick % carry_end], 4),
                1 => {
                    let area_end = entry(page0, 0, 0);
                    let at = entry(page0, pick % 3, 4);
                    page0[at..at + 4].copy_from_slice(&((area_end + pick % 600) as u32).to_le_bytes());
                    (&w[..len], 2)
                }
                // a set literal's count past its page, and past the window
                2 => {
                    let n = (len / 2 + pick % 60_000) as u16;
                    page0[1..3].copy_from_slice(&n.to_le_bytes());
                    (&w[..len], 0)
                }
                // an edge body length past the window, in its two bytes
                3 => {
                    let n = 3 * len + pick % (16_384 - 3 * len);
                    page0[big_at + 1..big_at + 3].copy_from_slice(&[n as u8 | 0x80, (n >> 7) as u8]);
                    (&w[..], 4)
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
                7 => {
                    page0[0] = 4 + (pick % 252) as u8;
                    (&w[..len], 2)
                }
                // the triple count as an overlong varint
                8 => {
                    page0[small + 2..small + 4].copy_from_slice(&[0x80 | 10, 0]);
                    (&w[..len], 3)
                }
                // five bytes with the continuation bit anywhere in a body
                9 => {
                    let at = small + 2 + pick % 27;
                    page0[at..at + 5].fill(0x80 | (pick % 128) as u8);
                    (&w[..len], 3)
                }
                // a triple count past the body: 31 bytes hold 10 triples
                10 => {
                    page0[small + 2] = 11 + (pick % 117) as u8;
                    (&w[..len], 3)
                }
                // the page the carry ends in, with room for fewer bytes
                11 => {
                    let page2 = &mut w[2 * len..3 * len];
                    let fit = (len - 2 - carry_end) / DIR_ENTRY_BYTES + 1;
                    let n = fit + pick % (len / DIR_ENTRY_BYTES - fit);
                    page2[len - 2..].copy_from_slice(&(n as u16).to_le_bytes());
                    (&w[..], 4)
                }
                // the page the carry fills, with entries
                _ => {
                    let page1 = &mut w[len..2 * len];
                    page1[len - 2..].copy_from_slice(&((1 + pick % 65_535) as u16).to_le_bytes());
                    (&w[..], 4)
                }
            };
            let got = decode_entry(pages, len, 0, pair);
            proptest::prop_assert!(got.is_err(), "forgery {}: {:?}", forgery, got);
            if forgery >= 11 {
                // refused at the page the carry meets, not read on past it
                let why = format!("{got:?}");
                proptest::prop_assert!(
                    why.contains("record area of a page with") || why.contains("overflows page"),
                    "forgery {}: {}", forgery, why
                );
                proptest::prop_assert!(record_pages(&pages[..len], 0, pair).is_ok());
            }
        }
    }
}
