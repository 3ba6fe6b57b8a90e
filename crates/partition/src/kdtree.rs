//! The KD-tree structure shared by both partitioning constructions.
//!
//! The tree "can be represented simply by the splitting coordinate (either on
//! the x or y axis) used in every node" (§5.1) — this is exactly what the
//! header file `Fh` serializes, so clients can map any Euclidean point to its
//! region without knowing node or region identifiers.

use privpath_graph::types::Point;
use privpath_storage::{ByteReader, ByteWriter, StorageError};

/// Region identifier — the index of a KD-tree leaf in left-to-right order.
pub type RegionId = u16;

/// One KD-tree node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KdNode {
    /// Internal split: points with `2·coord(axis) < coord2` go left.
    /// `coord2` is an odd *doubled* coordinate so no integer-coordinate point
    /// ever lies on the line.
    Split {
        /// 0 = x, 1 = y.
        axis: u8,
        /// Doubled split coordinate (odd).
        coord2: i64,
        /// Index of the left child in the node array.
        left: u32,
        /// Index of the right child.
        right: u32,
    },
    /// Leaf — a region.
    Leaf {
        /// The region id.
        region: RegionId,
    },
}

/// A KD-tree over the plane. Node 0 is the root (for non-empty trees).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KdTree {
    nodes: Vec<KdNode>,
    num_regions: u16,
}

impl KdTree {
    /// Builds a tree from a node array produced by a partition builder.
    ///
    /// # Panics
    /// Panics if child indices are out of range or region ids are not the
    /// compact range `0..num_regions` in left-to-right leaf order.
    pub fn from_nodes(nodes: Vec<KdNode>) -> KdTree {
        assert!(!nodes.is_empty(), "tree must have at least one leaf");
        let mut next_region: u16 = 0;
        // Validate reachability and region numbering with an explicit DFS.
        let mut stack = vec![0u32];
        let mut visited = vec![false; nodes.len()];
        // In-order (left-first) traversal to check leaf numbering.
        fn walk(nodes: &[KdNode], idx: u32, visited: &mut [bool], next_region: &mut u16) {
            assert!(!visited[idx as usize], "node {idx} reachable twice");
            visited[idx as usize] = true;
            match nodes[idx as usize] {
                KdNode::Leaf { region } => {
                    assert_eq!(
                        region, *next_region,
                        "leaf regions must be numbered in DFS order"
                    );
                    *next_region += 1;
                }
                KdNode::Split {
                    left,
                    right,
                    coord2,
                    ..
                } => {
                    assert!(
                        coord2 % 2 != 0,
                        "split coordinates must be odd doubled values"
                    );
                    walk(nodes, left, visited, next_region);
                    walk(nodes, right, visited, next_region);
                }
            }
        }
        stack.clear();
        walk(&nodes, 0, &mut visited, &mut next_region);
        assert!(
            visited.iter().all(|&v| v),
            "unreachable nodes in tree array"
        );
        KdTree {
            num_regions: next_region,
            nodes,
        }
    }

    /// A single-region tree (the whole plane).
    pub fn single_region() -> KdTree {
        KdTree {
            nodes: vec![KdNode::Leaf { region: 0 }],
            num_regions: 1,
        }
    }

    /// Number of regions (leaves).
    pub(crate) fn num_regions(&self) -> u16 {
        self.num_regions
    }

    /// The node array (used by the border clipper).
    pub(crate) fn nodes(&self) -> &[KdNode] {
        &self.nodes
    }

    /// Maps a point to its region: descend comparing doubled coordinates.
    pub fn region_of(&self, p: Point) -> RegionId {
        let mut idx = 0u32;
        loop {
            match self.nodes[idx as usize] {
                KdNode::Leaf { region } => return region,
                KdNode::Split {
                    axis,
                    coord2,
                    left,
                    right,
                } => {
                    idx = if 2 * i64::from(p.coord(axis)) < coord2 {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Serializes the tree in pre-order: `u32 node count`, then per node
    /// either `0u8, axis u8, coord2 i64` (split) or `1u8` (leaf). Children
    /// follow implicitly in pre-order, and leaves are numbered left-to-right
    /// on decode — exactly the concise form §5.1 calls for.
    pub fn serialize(&self, w: &mut ByteWriter) {
        w.u32(self.nodes.len() as u32);
        fn emit(nodes: &[KdNode], idx: u32, w: &mut ByteWriter) {
            match nodes[idx as usize] {
                KdNode::Leaf { .. } => {
                    w.u8(1);
                }
                KdNode::Split {
                    axis,
                    coord2,
                    left,
                    right,
                } => {
                    w.u8(0);
                    w.u8(axis);
                    w.u64(coord2 as u64);
                    emit(nodes, left, w);
                    emit(nodes, right, w);
                }
            }
        }
        emit(&self.nodes, 0, w);
    }

    /// Decodes a tree serialized by [`KdTree::serialize`].
    ///
    /// The stored node count only caps the parse: every node takes at least
    /// one byte, so nothing is reserved past what the bytes can hold. The
    /// pre-order walk recurses into nothing, so a forged chain of splits
    /// deepens no call stack: the splits still owed a child form a stack
    /// threaded through their own `right` fields (each holds the split
    /// below it, plus one; 0 ends the stack), and the walk allocates
    /// nothing past `nodes`.
    pub fn deserialize(r: &mut ByteReader<'_>) -> Result<KdTree, StorageError> {
        let count = r.u32()? as usize;
        if count == 0 {
            return Err(StorageError::Corrupt("empty KD-tree".into()));
        }
        let mut nodes = Vec::with_capacity(count.min(r.remaining()));
        let mut next_region: u16 = 0;
        // The split owed the next node parsed, plus one (0: none).
        let mut top = 0u32;
        loop {
            if nodes.len() >= count {
                return Err(StorageError::Corrupt("KD-tree node count overflow".into()));
            }
            let idx = nodes.len() as u32;
            let node = match r.u8()? {
                1 => {
                    let region = next_region;
                    next_region = next_region
                        .checked_add(1)
                        .ok_or_else(|| StorageError::Corrupt("more than 65535 regions".into()))?;
                    KdNode::Leaf { region }
                }
                0 => {
                    let axis = r.u8()?;
                    if axis > 1 {
                        return Err(StorageError::Corrupt(format!("bad axis {axis}")));
                    }
                    KdNode::Split {
                        axis,
                        coord2: r.u64()? as i64,
                        left: 0,
                        right: 0,
                    }
                }
                t => return Err(StorageError::Corrupt(format!("bad KD node tag {t}"))),
            };
            // Node 0 is the root and no one's child, so a `left` of 0 is
            // one not set yet; a split given its right child is popped.
            if let Some(KdNode::Split { left, right, .. }) = top
                .checked_sub(1)
                .and_then(|parent| nodes.get_mut(parent as usize))
            {
                if *left == 0 {
                    *left = idx;
                } else {
                    top = *right;
                    *right = idx;
                }
            }
            nodes.push(node);
            if let Some(KdNode::Split { right, .. }) = nodes.last_mut() {
                *right = top;
                top = idx + 1;
            } else if top == 0 {
                break;
            }
        }
        if nodes.len() != count {
            return Err(StorageError::Corrupt(format!(
                "KD-tree node count mismatch: header {count}, parsed {}",
                nodes.len()
            )));
        }
        Ok(KdTree {
            nodes,
            num_regions: next_region,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tree splitting the plane into quadrants at (10, 20):
    /// regions: 0 = x<10,y<20; 1 = x<10,y>=20; 2 = x>=10,y<20; 3 = x>=10,y>=20.
    fn quad_tree() -> KdTree {
        KdTree::from_nodes(vec![
            KdNode::Split {
                axis: 0,
                coord2: 19,
                left: 1,
                right: 4,
            }, // x split at 9.5
            KdNode::Split {
                axis: 1,
                coord2: 39,
                left: 2,
                right: 3,
            }, // y split at 19.5
            KdNode::Leaf { region: 0 },
            KdNode::Leaf { region: 1 },
            KdNode::Split {
                axis: 1,
                coord2: 39,
                left: 5,
                right: 6,
            },
            KdNode::Leaf { region: 2 },
            KdNode::Leaf { region: 3 },
        ])
    }

    #[test]
    fn region_lookup() {
        let t = quad_tree();
        assert_eq!(t.num_regions(), 4);
        assert_eq!(t.region_of(Point::new(0, 0)), 0);
        assert_eq!(t.region_of(Point::new(0, 100)), 1);
        assert_eq!(t.region_of(Point::new(100, 0)), 2);
        assert_eq!(t.region_of(Point::new(100, 100)), 3);
        // boundary: x = 10 (doubled 20 > 19) goes right
        assert_eq!(t.region_of(Point::new(10, 0)), 2);
        assert_eq!(t.region_of(Point::new(9, 0)), 0);
    }

    #[test]
    fn serialization_round_trip() {
        let t = quad_tree();
        let mut w = ByteWriter::new();
        t.serialize(&mut w);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        let t2 = KdTree::deserialize(&mut r).unwrap();
        assert_eq!(t, t2);
        assert_eq!(r.remaining(), 0);
    }

    /// Pre-order nodes of a tree of `leaves` leaves whose every split
    /// sends `pick(leaves)` of them left — left-deep, right-deep or mixed.
    fn shaped(leaves: u32, pick: &dyn Fn(u32) -> u32, nodes: &mut Vec<KdNode>, next: &mut u16) {
        if leaves == 1 {
            nodes.push(KdNode::Leaf { region: *next });
            *next += 1;
            return;
        }
        let at = nodes.len();
        nodes.push(KdNode::Split {
            axis: (at % 2) as u8,
            coord2: 2 * at as i64 + 1,
            left: at as u32 + 1,
            right: 0,
        });
        let left = pick(leaves).clamp(1, leaves - 1);
        shaped(left, pick, nodes, next);
        let right = nodes.len() as u32;
        if let KdNode::Split { right: r, .. } = &mut nodes[at] {
            *r = right;
        }
        shaped(leaves - left, pick, nodes, next);
    }

    /// Deep and lopsided trees decode to the tree they were written from.
    #[test]
    fn chains_and_lopsided_trees_round_trip() {
        let picks: [&dyn Fn(u32) -> u32; 4] = [&|_| 1, &|n| n - 1, &|n| n / 2, &|n| n / 3];
        for pick in picks {
            for leaves in [1, 2, 3, 7, 300] {
                let mut nodes = Vec::new();
                shaped(leaves, pick, &mut nodes, &mut 0);
                let t = KdTree::from_nodes(nodes);
                let mut w = ByteWriter::new();
                t.serialize(&mut w);
                let buf = w.into_vec();
                let mut r = ByteReader::new(&buf);
                assert_eq!(KdTree::deserialize(&mut r).unwrap(), t, "{leaves} leaves");
                assert_eq!(r.remaining(), 0);
            }
        }
    }

    #[test]
    fn single_region_maps_everything() {
        let t = KdTree::single_region();
        assert_eq!(t.region_of(Point::new(i32::MIN, i32::MAX)), 0);
        let mut w = ByteWriter::new();
        t.serialize(&mut w);
        let buf = w.into_vec();
        let t2 = KdTree::deserialize(&mut ByteReader::new(&buf)).unwrap();
        assert_eq!(t2.num_regions(), 1);
    }

    #[test]
    fn corrupt_tag_rejected() {
        let mut w = ByteWriter::new();
        w.u32(1).u8(7);
        let buf = w.into_vec();
        assert!(KdTree::deserialize(&mut ByteReader::new(&buf)).is_err());
    }

    #[test]
    fn truncated_stream_rejected() {
        let t = quad_tree();
        let mut w = ByteWriter::new();
        t.serialize(&mut w);
        let buf = w.into_vec();
        let cut = &buf[..buf.len() - 3];
        assert!(KdTree::deserialize(&mut ByteReader::new(cut)).is_err());
    }

    #[test]
    #[should_panic(expected = "numbered in DFS order")]
    fn bad_region_numbering_rejected() {
        KdTree::from_nodes(vec![
            KdNode::Split {
                axis: 0,
                coord2: 1,
                left: 1,
                right: 2,
            },
            KdNode::Leaf { region: 1 },
            KdNode::Leaf { region: 0 },
        ]);
    }

    #[test]
    #[should_panic(expected = "must be odd")]
    fn even_split_rejected() {
        KdTree::from_nodes(vec![
            KdNode::Split {
                axis: 0,
                coord2: 2,
                left: 1,
                right: 2,
            },
            KdNode::Leaf { region: 0 },
            KdNode::Leaf { region: 1 },
        ]);
    }
}
