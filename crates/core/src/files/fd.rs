//! The region data file `Fd`: "exactly one page for every region ... node
//! identifiers, their adjacency lists and incident edge weights" (§5.3).
//! PI* allocates a fixed cluster of pages per region instead (§6), and the
//! LM/AF baselines extend the node records with landmark vectors / arc
//! flags (§4).

use super::{seal_file, PAGE_CRC_BYTES};
use crate::error::CoreError;
use crate::Result;
use privpath_graph::network::RoadNetwork;
use privpath_partition::Partition;
use privpath_storage::{ByteWriter, MemFile};

/// Record layout options (fixed per database, stored in the header).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecordFormat {
    /// Landmark vector length per node (LM baseline; 0 otherwise).
    pub(crate) lm_count: u16,
    /// Store each adjacency entry's head-node region (LM/AF baselines need
    /// it to know which page to fetch when the search frontier leaves the
    /// fetched area).
    pub(crate) with_regions: bool,
    /// Arc-flag bytes per adjacency entry (AF baseline; 0 otherwise).
    pub(crate) flag_bytes: u16,
}

impl RecordFormat {
    /// Serialized bytes of one node record with the given degree.
    pub(crate) fn node_bytes(&self, degree: usize) -> usize {
        14 + 4 * self.lm_count as usize
            + degree * (8 + usize::from(self.with_regions) * 2 + self.flag_bytes as usize)
    }

    /// A bound every node id of a region file of `fd_pages` pages of
    /// `page_size` bytes stays below: every node has exactly one record in
    /// `Fd`, and a record is at least [`node_bytes(0)`](Self::node_bytes)
    /// bytes of some page's payload.
    pub(crate) fn id_bound(&self, fd_pages: u32, page_size: usize) -> u32 {
        let payload = (page_size.saturating_sub(PAGE_CRC_BYTES)) as u64;
        (u64::from(fd_pages) * payload / self.node_bytes(0) as u64).min(u64::from(u32::MAX)) as u32
    }
}

/// Per-node / per-edge extras supplied by baseline builders.
pub(crate) trait NodeExtra {
    /// Landmark vector of `node` (`lm_count` entries).
    fn lm_vec(&self, _node: u32) -> Vec<u32> {
        Vec::new()
    }
    /// Arc-flag bytes of `edge` (`flag_bytes` bytes).
    fn edge_flags(&self, _edge: u32) -> Vec<u8> {
        Vec::new()
    }
}

/// No extras (CI/PI/HY/PI*).
pub(crate) struct NoExtra;
impl NodeExtra for NoExtra {}

/// Builds `Fd`: `cluster_pages` sealed pages per region, in region order.
/// Region `r`'s pages are `r * cluster_pages ..`.
pub(crate) fn build_fd(
    net: &RoadNetwork,
    partition: &Partition,
    fmt: &RecordFormat,
    extra: &dyn NodeExtra,
    cluster_pages: u16,
    page_size: usize,
) -> Result<MemFile> {
    let payload_cap = page_size - PAGE_CRC_BYTES;
    let cluster = cluster_pages.max(1) as usize;
    let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(partition.num_regions() as usize * cluster);
    for (r, nodes) in partition.region_nodes.iter().enumerate() {
        let mut w = ByteWriter::new();
        w.u16(r as u16);
        w.u16(nodes.len() as u16);
        for &u in nodes {
            let p = net.node_point(u);
            w.u32(u).i32(p.x).i32(p.y);
            let lm = extra.lm_vec(u);
            if lm.len() != fmt.lm_count as usize {
                return Err(CoreError::Build(format!(
                    "node {u}: landmark vector has {} entries, format says {}",
                    lm.len(),
                    fmt.lm_count
                )));
            }
            for v in lm {
                w.u32(v);
            }
            w.u16(net.degree(u) as u16);
            for (e, v, wt) in net.arcs_from(u) {
                w.u32(v).u32(wt);
                if fmt.with_regions {
                    w.u16(partition.region_of_node[v as usize]);
                }
                if fmt.flag_bytes > 0 {
                    let flags = extra.edge_flags(e);
                    if flags.len() != fmt.flag_bytes as usize {
                        return Err(CoreError::Build(format!(
                            "edge {e}: {} flag bytes, format says {}",
                            flags.len(),
                            fmt.flag_bytes
                        )));
                    }
                    w.bytes(&flags);
                }
            }
        }
        let stream = w.into_vec();
        if stream.len() > cluster * payload_cap {
            return Err(CoreError::Build(format!(
                "region {r}: {} bytes exceed {} page(s) of capacity {}",
                stream.len(),
                cluster,
                payload_cap
            )));
        }
        for c in 0..cluster {
            let lo = (c * payload_cap).min(stream.len());
            let hi = ((c + 1) * payload_cap).min(stream.len());
            payloads.push(stream[lo..hi].to_vec());
        }
    }
    Ok(seal_file(&payloads, page_size))
}

/// The region decoder of the retained `HashMap` reference searches
/// (`schemes::{lm, af}::reference`): test code, like them.
#[cfg(test)]
pub(crate) use decoder::{decode_region, LoadedRecords, RegionData};

#[cfg(test)]
mod decoder {
    use super::*;
    use privpath_graph::types::{NodeId, Point};
    use privpath_partition::RegionId;
    use privpath_storage::ByteReader;
    use std::collections::HashMap;

    /// A decoded adjacency entry.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) struct AdjEntry {
        /// Head node.
        pub(crate) to: u32,
        /// Weight.
        pub(crate) w: u32,
        /// Head node's region (`u16::MAX` when not stored).
        pub(crate) to_region: u16,
    }

    /// The fixed part of a decoded node record.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct NodeHead {
        /// Node id.
        id: NodeId,
        /// Coordinates.
        pos: Point,
        /// End of its entries in [`RegionData::adj`]; they start where the
        /// previous record's end.
        adj_end: u32,
    }

    /// A decoded region page group, flat: one array of node heads, one of
    /// landmark entries (`lm_count` per node), one of adjacency entries and
    /// one of arc-flag bytes (`flag_bytes` per entry). Read a record through
    /// `node` or `nodes`.
    ///
    /// The decoder of the retained reference searches
    /// (`schemes::{lm, af}::reference`), independent of the client's query
    /// path, which folds region bytes straight into its arena
    /// (`ClientSubgraph`).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) struct RegionData {
        /// The region id.
        pub(crate) region: RegionId,
        /// The record layout.
        fmt: RecordFormat,
        heads: Vec<NodeHead>,
        lm: Vec<u32>,
        adj: Vec<AdjEntry>,
        flags: Vec<u8>,
    }

    /// One node record of a [`RegionData`], borrowed from its arrays.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct NodeRecord<'a> {
        /// Node id.
        pub(crate) id: NodeId,
        /// Coordinates.
        pub(crate) pos: Point,
        /// Landmark vector (empty unless LM).
        pub(crate) lm_vec: &'a [u32],
        /// Outgoing adjacency.
        pub(crate) adj: &'a [AdjEntry],
        /// Arc-flag bytes of `adj`, `flag_bytes` per entry.
        flags: &'a [u8],
        flag_bytes: usize,
    }

    impl<'a> NodeRecord<'a> {
        /// Arc-flag bytes of adjacency entry `k` (empty when not stored).
        pub(crate) fn flags(&self, k: usize) -> &'a [u8] {
            &self.flags[k * self.flag_bytes..(k + 1) * self.flag_bytes]
        }
    }

    impl RegionData {
        /// Node record `i`, in page order.
        pub(crate) fn node(&self, i: usize) -> NodeRecord<'_> {
            let (lm_count, flag_bytes) = (self.fmt.lm_count as usize, self.fmt.flag_bytes as usize);
            let head = self.heads[i];
            let lo = if i == 0 {
                0
            } else {
                self.heads[i - 1].adj_end as usize
            };
            let hi = head.adj_end as usize;
            NodeRecord {
                id: head.id,
                pos: head.pos,
                lm_vec: &self.lm[i * lm_count..(i + 1) * lm_count],
                adj: &self.adj[lo..hi],
                flags: &self.flags[lo * flag_bytes..hi * flag_bytes],
                flag_bytes,
            }
        }

        /// Every node record, in page order.
        pub(crate) fn nodes(&self) -> impl ExactSizeIterator<Item = NodeRecord<'_>> {
            (0..self.heads.len()).map(|i| self.node(i))
        }
    }

    /// The records of every region loaded so far, by node id: the view the
    /// `HashMap` reference searches (`schemes::{lm, af}::reference`) keep.
    #[derive(Debug, Default)]
    pub(crate) struct LoadedRecords {
        regions: Vec<RegionData>,
        /// Node id → (index into `regions`, record index in that region).
        at: HashMap<NodeId, (usize, usize)>,
    }

    impl LoadedRecords {
        /// Takes in a region's records (a later record of the same id wins).
        pub(crate) fn insert(&mut self, data: RegionData) {
            for (i, n) in data.nodes().enumerate() {
                self.at.insert(n.id, (self.regions.len(), i));
            }
            self.regions.push(data);
        }

        /// The record of node `id`, if its region is loaded.
        pub(crate) fn get(&self, id: NodeId) -> Option<NodeRecord<'_>> {
            self.at.get(&id).map(|&(r, i)| self.regions[r].node(i))
        }

        /// The record of node `id`.
        ///
        /// # Panics
        /// Panics if its region is not loaded.
        pub(crate) fn record(&self, id: NodeId) -> NodeRecord<'_> {
            self.get(id).expect("node record loaded")
        }
    }

    /// Decodes a region from its concatenated (unsealed) page payloads into
    /// one flat [`RegionData`]. Each array is sized up front from what the
    /// payload can hold — records of no arcs, then arcs in the bytes the
    /// records leave — never from the stored count alone, so a decode
    /// allocates four times at most (the four arrays), never grows a buffer,
    /// and allocates no more than a few times the payload's size whatever the
    /// page claims.
    pub(crate) fn decode_region(payloads: &[u8], fmt: &RecordFormat) -> Result<RegionData> {
        let mut r = ByteReader::new(payloads);
        let region = r.u16()?;
        let count = r.u16()? as usize;
        let lm_count = fmt.lm_count as usize;
        let flag_bytes = fmt.flag_bytes as usize;
        let arc_bytes = fmt.node_bytes(1) - fmt.node_bytes(0);
        let max_nodes = count.min(r.remaining() / fmt.node_bytes(0));
        let max_arcs = r.remaining().saturating_sub(count * fmt.node_bytes(0)) / arc_bytes;
        let mut data = RegionData {
            region,
            fmt: *fmt,
            heads: Vec::with_capacity(max_nodes),
            lm: Vec::with_capacity(max_nodes * lm_count),
            adj: Vec::with_capacity(max_arcs),
            flags: Vec::with_capacity(max_arcs * flag_bytes),
        };
        for _ in 0..count {
            let id = r.u32()?;
            let x = r.i32()?;
            let y = r.i32()?;
            for _ in 0..lm_count {
                data.lm.push(r.u32()?);
            }
            let deg = r.u16()? as usize;
            for _ in 0..deg {
                let to = r.u32()?;
                let w = r.u32()?;
                let to_region = if fmt.with_regions { r.u16()? } else { u16::MAX };
                data.adj.push(AdjEntry { to, w, to_region });
                if flag_bytes > 0 {
                    data.flags.extend_from_slice(r.bytes(flag_bytes)?);
                }
            }
            data.heads.push(NodeHead {
                id,
                pos: Point::new(x, y),
                adj_end: data.adj.len() as u32,
            });
        }
        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::files::unseal_page;
    use privpath_graph::gen::{grid_network, GridGenConfig};
    use privpath_partition::partition_packed;
    use privpath_storage::PagedFile;

    fn read_region(fd: &MemFile, region: u16, cluster: u16) -> Vec<u8> {
        let mut buf = Vec::new();
        for c in 0..cluster {
            let page = fd
                .read_page(u32::from(region) * u32::from(cluster) + u32::from(c))
                .unwrap();
            buf.extend_from_slice(unseal_page(&page).unwrap());
        }
        buf
    }

    #[test]
    fn round_trip_plain_format() {
        let net = grid_network(&GridGenConfig {
            nx: 10,
            ny: 10,
            ..Default::default()
        });
        let fmt = RecordFormat::default();
        let p = partition_packed(&net, 4092 - 4, &|u| fmt.node_bytes(net.degree(u)));
        let fd = build_fd(&net, &p, &fmt, &NoExtra, 1, 4096).unwrap();
        assert_eq!(fd.num_pages(), u32::from(p.num_regions()));
        let mut seen_nodes = 0usize;
        for r in 0..p.num_regions() {
            let data = decode_region(&read_region(&fd, r, 1), &fmt).unwrap();
            assert_eq!(data.region, r);
            for n in data.nodes() {
                assert_eq!(p.region_of_node[n.id as usize], r);
                assert_eq!(n.pos, net.node_point(n.id));
                assert_eq!(n.adj.len(), net.degree(n.id));
                for (k, (_, v, w)) in net.arcs_from(n.id).enumerate() {
                    assert_eq!(n.adj[k].to, v);
                    assert_eq!(n.adj[k].w, w);
                }
            }
            seen_nodes += data.nodes().len();
        }
        assert_eq!(seen_nodes, net.num_nodes());
    }

    #[test]
    fn clustered_regions_span_pages() {
        let net = grid_network(&GridGenConfig {
            nx: 12,
            ny: 12,
            ..Default::default()
        });
        let fmt = RecordFormat::default();
        let cluster = 3u16;
        let cap = (4096 - 4) * cluster as usize - 4;
        let p = partition_packed(&net, cap, &|u| fmt.node_bytes(net.degree(u)));
        let fd = build_fd(&net, &p, &fmt, &NoExtra, cluster, 4096).unwrap();
        assert_eq!(
            fd.num_pages(),
            u32::from(p.num_regions()) * u32::from(cluster)
        );
        for r in 0..p.num_regions() {
            let data = decode_region(&read_region(&fd, r, cluster), &fmt).unwrap();
            assert_eq!(data.region, r);
            assert_ne!(data.nodes().len(), 0);
        }
    }

    struct TestExtra;
    impl NodeExtra for TestExtra {
        fn lm_vec(&self, node: u32) -> Vec<u32> {
            vec![node * 10, node * 10 + 1]
        }
        fn edge_flags(&self, edge: u32) -> Vec<u8> {
            vec![(edge % 251) as u8]
        }
    }

    #[test]
    fn extras_round_trip() {
        let net = grid_network(&GridGenConfig {
            nx: 6,
            ny: 6,
            ..Default::default()
        });
        let fmt = RecordFormat {
            lm_count: 2,
            with_regions: true,
            flag_bytes: 1,
        };
        let p = partition_packed(&net, 2048, &|u| fmt.node_bytes(net.degree(u)));
        let fd = build_fd(&net, &p, &fmt, &TestExtra, 1, 4096).unwrap();
        for r in 0..p.num_regions() {
            let data = decode_region(&read_region(&fd, r, 1), &fmt).unwrap();
            for n in data.nodes() {
                assert_eq!(n.lm_vec, [n.id * 10, n.id * 10 + 1]);
                for (k, (e, v, _)) in net.arcs_from(n.id).enumerate() {
                    assert_eq!(n.flags(k), [(e % 251) as u8]);
                    assert_eq!(n.adj[k].to_region, p.region_of_node[v as usize]);
                }
            }
        }
    }

    #[test]
    fn format_bytes_match_encoder() {
        let net = grid_network(&GridGenConfig {
            nx: 5,
            ny: 5,
            ..Default::default()
        });
        let fmt = RecordFormat {
            lm_count: 3,
            with_regions: true,
            flag_bytes: 2,
        };
        // encode a single-region file and check stream length
        let p = partition_packed(&net, 1 << 20, &|u| fmt.node_bytes(net.degree(u)));
        assert_eq!(p.num_regions(), 1);
        let expected: usize = 4
            + (0..net.num_nodes() as u32)
                .map(|u| fmt.node_bytes(net.degree(u)))
                .sum::<usize>();
        struct Fill;
        impl NodeExtra for Fill {
            fn lm_vec(&self, _n: u32) -> Vec<u32> {
                vec![0; 3]
            }
            fn edge_flags(&self, _e: u32) -> Vec<u8> {
                vec![0; 2]
            }
        }
        let fd = build_fd(&net, &p, &fmt, &Fill, 16, 4096).unwrap();
        let raw = read_region(&fd, 0, 16);
        // decoded successfully implies the length math is consistent
        let data = decode_region(&raw, &fmt).unwrap();
        assert_eq!(data.nodes().len(), net.num_nodes());
        assert!(expected <= raw.len());
    }

    /// A record count the payload cannot hold fails to decode, and the
    /// buffers are sized from the payload, not from the count: 65,535
    /// records of 65,535 landmark entries would be a 17 GB array.
    #[test]
    fn counts_beyond_the_payload_are_an_error() {
        let fmt = RecordFormat {
            lm_count: u16::MAX,
            with_regions: true,
            flag_bytes: u16::MAX,
        };
        let mut w = ByteWriter::new();
        w.u16(3).u16(u16::MAX).u32(7).i32(0).i32(0);
        assert!(matches!(
            decode_region(w.as_slice(), &fmt),
            Err(CoreError::Storage(_))
        ));
        let mut w = ByteWriter::new();
        w.u16(3).u16(2).u32(7).i32(0).i32(0).u16(0);
        assert!(decode_region(w.as_slice(), &RecordFormat::default()).is_err());
    }

    #[test]
    fn oversized_region_rejected() {
        let net = grid_network(&GridGenConfig {
            nx: 10,
            ny: 10,
            ..Default::default()
        });
        let fmt = RecordFormat::default();
        // partition with a big capacity, then try to build with tiny pages
        let p = partition_packed(&net, 1 << 20, &|u| fmt.node_bytes(net.degree(u)));
        assert!(matches!(
            build_fd(&net, &p, &fmt, &NoExtra, 1, 128),
            Err(CoreError::Build(_))
        ));
    }
}
