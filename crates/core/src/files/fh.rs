//! The header file `Fh` (§5.3): the KD-tree partitioning information, the
//! region → data-page directory, the query plan, and file metadata. `Fh` is
//! public — every client downloads it in full, so it discloses nothing about
//! any individual query.

use super::fd::RecordFormat;
use super::seal_file;
use crate::error::CoreError;
use crate::plan::QueryPlan;
use crate::Result;
use privpath_partition::KdTree;
use privpath_storage::{ByteReader, ByteWriter, MemFile};

const MAGIC: u32 = 0x5050_4831; // "PPH1"

/// Everything a client needs to run the fixed query plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Header {
    /// Scheme discriminator (mirrors `engine::SchemeKind`).
    pub(crate) scheme: u8,
    /// Disk page size.
    pub(crate) page_size: u32,
    /// Number of regions.
    pub(crate) num_regions: u16,
    /// Pages per region in the data file (1 except PI*).
    pub cluster_pages: u16,
    /// Region-data record layout.
    pub record_format: RecordFormat,
    /// CI/HY: the plan bound `m` — max regions in any decoded `S_ij`.
    pub(crate) m_regions: u16,
    /// Max pages any index record spans (CI `span`, PI `h`, HY `r`).
    pub(crate) index_span: u16,
    /// HY: total pages fetched in round 4.
    pub(crate) hy_round4: u32,
    /// HY: page offset of the region-data section inside the combined file.
    pub(crate) combined_fd_offset: u32,
    /// Page counts of the PIR-served files (for dummy-request ranges and
    /// window clamping).
    pub(crate) fl_pages: u32,
    /// Network index page count (or combined-file page count for HY).
    pub(crate) fi_pages: u32,
    /// Region data page count.
    pub(crate) fd_pages: u32,
    /// The partitioning tree.
    pub tree: KdTree,
    /// Starting data page of each region (within `Fd`, or within the
    /// combined file for HY).
    pub region_page: Vec<u32>,
    /// The fixed query plan.
    pub(crate) plan: QueryPlan,
}

impl Header {
    /// Serializes into sealed header pages.
    pub(crate) fn to_file(&self, page_size: usize) -> MemFile {
        let bytes = self.to_bytes();
        let payload_cap = page_size - super::PAGE_CRC_BYTES;
        let payloads: Vec<Vec<u8>> = bytes.chunks(payload_cap).map(|c| c.to_vec()).collect();
        seal_file(
            &if payloads.is_empty() {
                vec![Vec::new()]
            } else {
                payloads
            },
            page_size,
        )
    }

    /// The unsealed payload [`parse`](Self::parse) reads.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u32(MAGIC);
        w.u8(self.scheme);
        w.u32(self.page_size);
        w.u16(self.num_regions);
        w.u16(self.cluster_pages);
        w.u16(self.record_format.lm_count);
        w.u8(u8::from(self.record_format.with_regions));
        w.u16(self.record_format.flag_bytes);
        w.u16(self.m_regions);
        w.u16(self.index_span);
        w.u32(self.hy_round4);
        w.u32(self.combined_fd_offset);
        w.u32(self.fl_pages);
        w.u32(self.fi_pages);
        w.u32(self.fd_pages);
        self.tree.serialize(&mut w);
        w.u32(self.region_page.len() as u32);
        for &p in &self.region_page {
            w.u32(p);
        }
        self.plan.serialize(&mut w);
        w.into_vec()
    }

    /// The bound every node id the region data can name stays below
    /// ([`RecordFormat::id_bound`] of `fd_pages` pages of `page_size`
    /// bytes), once the header's page counts are checked against
    /// `data_file_pages`, the page count the session learned at accept for
    /// the file holding `Fd`. For HY (`combined`) that file is `Fi|Fd`,
    /// `fi_pages` of index followed by `fd_pages` of region data.
    pub(crate) fn node_id_bound(
        &self,
        data_file_pages: u32,
        combined: bool,
        page_size: usize,
    ) -> Result<u32> {
        let index = if combined { self.fi_pages } else { 0 };
        if u64::from(index) + u64::from(self.fd_pages) != u64::from(data_file_pages) {
            return Err(CoreError::Query(format!(
                "header counts {index} + {} pages where the region file has {data_file_pages}",
                self.fd_pages
            )));
        }
        Ok(self.record_format.id_bound(self.fd_pages, page_size))
    }

    /// Decodes a header from the unsealed download payload.
    pub(crate) fn parse(payload: &[u8]) -> Result<Header> {
        let mut r = ByteReader::new(payload);
        let magic = r.u32()?;
        if magic != MAGIC {
            return Err(CoreError::Query(format!("bad header magic {magic:#010x}")));
        }
        let scheme = r.u8()?;
        let page_size = r.u32()?;
        let num_regions = r.u16()?;
        let cluster_pages = r.u16()?;
        let record_format = RecordFormat {
            lm_count: r.u16()?,
            with_regions: r.u8()? != 0,
            flag_bytes: r.u16()?,
        };
        let m_regions = r.u16()?;
        let index_span = r.u16()?;
        let hy_round4 = r.u32()?;
        let combined_fd_offset = r.u32()?;
        let fl_pages = r.u32()?;
        let fi_pages = r.u32()?;
        let fd_pages = r.u32()?;
        let tree = KdTree::deserialize(&mut r)?;
        let n = r.u32()? as usize;
        // a forged count reserves no more than the bytes can hold
        let mut region_page = Vec::with_capacity(n.min(r.remaining() / 4));
        for _ in 0..n {
            region_page.push(r.u32()?);
        }
        let plan = QueryPlan::deserialize(&mut r)?;
        Ok(Header {
            scheme,
            page_size,
            num_regions,
            cluster_pages,
            record_format,
            m_regions,
            index_span,
            hy_round4,
            combined_fd_offset,
            fl_pages,
            fi_pages,
            fd_pages,
            tree,
            region_page,
            plan,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::files::unseal_download;
    use crate::plan::{PlanFile, RoundSpec};
    use privpath_partition::KdNode;
    use privpath_storage::PagedFile;

    fn sample() -> Header {
        Header {
            scheme: 1,
            page_size: 4096,
            num_regions: 4,
            cluster_pages: 1,
            record_format: RecordFormat {
                lm_count: 5,
                with_regions: true,
                flag_bytes: 2,
            },
            m_regions: 17,
            index_span: 3,
            hy_round4: 0,
            combined_fd_offset: 0,
            fl_pages: 2,
            fi_pages: 9,
            fd_pages: 4,
            tree: KdTree::single_region(),
            region_page: vec![0, 1, 2, 3],
            plan: QueryPlan {
                rounds: vec![
                    RoundSpec::one(PlanFile::Header, 0),
                    RoundSpec::one(PlanFile::Lookup, 1),
                    RoundSpec::one(PlanFile::Index, 3),
                    RoundSpec::one(PlanFile::Data, 19),
                ],
            },
        }
    }

    #[test]
    fn round_trip() {
        let h = sample();
        let file = h.to_file(4096);
        let mut raw = Vec::new();
        for p in 0..file.num_pages() {
            raw.extend_from_slice(file.read_page(p).unwrap().as_slice());
        }
        let payload = unseal_download(&raw, 4096).unwrap();
        let parsed = Header::parse(&payload).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn multi_page_header() {
        let mut h = sample();
        h.num_regions = 3000;
        h.region_page = (0..3000u32).collect();
        let file = h.to_file(4096);
        assert!(file.num_pages() > 1);
        let mut raw = Vec::new();
        for p in 0..file.num_pages() {
            raw.extend_from_slice(file.read_page(p).unwrap().as_slice());
        }
        let payload = unseal_download(&raw, 4096).unwrap();
        assert_eq!(Header::parse(&payload).unwrap(), h);
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(Header::parse(&[0u8; 64]).is_err());
    }

    /// Bytes before the tree: the magic and the fixed-width fields.
    const FIXED_BYTES: usize = 42;

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 64, ..Default::default() })]

        /// Forged header payloads parse to an error, never a panic or an
        /// abort: random bytes behind the magic, truncations, tree node
        /// counts and `region_page` counts anywhere up to `u32::MAX` (each
        /// once reserved that many entries before reading one), and a chain
        /// of splits nested thousands deep.
        #[test]
        fn forged_headers_are_errors_not_panics(
            noise in proptest::collection::vec(0u8..=255, 0..400),
            forgery in 0u8..5,
            wide in 0u32..=u32::MAX,
            narrow in 0u32..12,
            cut in 0usize..10_000,
            depth in 1usize..100_000,
        ) {
            let mut h = sample();
            h.tree = KdTree::from_nodes(vec![
                KdNode::Split { axis: 0, coord2: 19, left: 1, right: 2 },
                KdNode::Leaf { region: 0 },
                KdNode::Split { axis: 1, coord2: 7, left: 3, right: 4 },
                KdNode::Leaf { region: 1 },
                KdNode::Leaf { region: 2 },
            ]);
            let honest = h.to_bytes();
            proptest::prop_assert_eq!(Header::parse(&honest).unwrap(), h.clone());
            // the tree: its count, two splits of ten bytes, three leaves
            let pages_at = FIXED_BYTES + 4 + 2 * 10 + 3;
            proptest::prop_assert_eq!(&honest[pages_at..pages_at + 4], &4u32.to_le_bytes()[..]);
            let count = if cut % 2 == 0 { wide } else { narrow };
            let with_count = |at: usize| {
                let mut b = honest.clone();
                b[at..at + 4].copy_from_slice(&count.to_le_bytes());
                b
            };

            let (forged, must_fail) = match forgery {
                0 => ([&honest[..4], &noise[..]].concat(), false),
                1 => (honest[..cut % honest.len()].to_vec(), true),
                // the parse is held to the stored tree count exactly
                2 => (with_count(FIXED_BYTES), count != 5),
                // a count the bytes cannot hold fails; a nearby one may
                // read the plan from other bytes
                3 => {
                    let room = (honest.len() - pages_at - 4) / 4;
                    (with_count(pages_at), count as usize > room)
                }
                _ => {
                    let mut b = honest[..FIXED_BYTES].to_vec();
                    b.extend_from_slice(&u32::MAX.to_le_bytes());
                    for _ in 0..depth {
                        b.extend_from_slice(&[0, 0, 1, 0, 0, 0, 0, 0, 0, 0]);
                    }
                    b.extend_from_slice(&noise);
                    (b, true)
                }
            };
            let parsed = Header::parse(&forged);
            if (forgery == 2 && count == 5) || (forgery == 3 && count == 4) {
                proptest::prop_assert_eq!(parsed.unwrap(), h);
            } else if must_fail {
                proptest::prop_assert!(parsed.is_err(), "forgery {} with count {} parsed", forgery, count);
            }
        }
    }
}
