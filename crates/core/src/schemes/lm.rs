//! The LM baseline's retained `HashMap` search. LM builds and queries as
//! the `BaselineFlavor::Lm` flavour of the shared region-fetch baseline
//! (`schemes::baseline`).

use crate::files::fd::RegionData;
use crate::subgraph::lm_bound;
use crate::Result;
use privpath_graph::types::{NodeId, Point};

/// The original `HashMap`-based client search, retained verbatim as the
/// behavioural reference for the arena search [`crate::subgraph::search_lm`]
/// that replaced it on the query path. The differential property suite
/// (`tests/leakage.rs`) asserts both return identical answers, snapped
/// nodes, paths and fetch counts on identical inputs — which makes their
/// PIR meter charges identical too.
pub mod reference {
    use super::*;
    use crate::error::CoreError;
    use crate::files::fd::LoadedRecords;
    use privpath_graph::types::Dist;
    use std::collections::hash_map::Entry;
    use std::collections::HashMap;

    /// What the reference search produced. `pages` counts region fetches
    /// including the two initial host regions.
    pub struct SearchOutcome {
        /// Path cost, or `None` if the destination is unreachable.
        pub cost: Option<Dist>,
        /// Node sequence of the found path (empty when unreachable).
        pub path: Vec<NodeId>,
        /// Node the source point snapped to.
        pub s_node: NodeId,
        /// Node the destination point snapped to.
        pub t_node: NodeId,
        /// Region page fetches issued.
        pub pages: u32,
    }

    /// A* over `HashMap` state with on-demand region fetching.
    pub fn lm_search(
        rs: u16,
        rt: u16,
        s: Point,
        t: Point,
        fetch: &mut dyn FnMut(u16) -> Result<RegionData>,
    ) -> Result<SearchOutcome> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut known = LoadedRecords::default();
        let mut members: HashMap<u16, Vec<NodeId>> = HashMap::new();
        let mut pages = 0u32;
        let load = |region: u16,
                    known: &mut LoadedRecords,
                    members: &mut HashMap<u16, Vec<NodeId>>,
                    pages: &mut u32,
                    fetch: &mut dyn FnMut(u16) -> Result<RegionData>|
         -> Result<()> {
            let data = fetch(region)?;
            *pages += 1;
            if let Entry::Vacant(list) = members.entry(region) {
                list.insert(data.nodes().map(|n| n.id).collect());
                known.insert(data);
            }
            Ok(())
        };

        // Round-two fetches: both host regions (two page fetches even if
        // equal, per the fixed plan).
        load(rs, &mut known, &mut members, &mut pages, fetch)?;
        load(rt, &mut known, &mut members, &mut pages, fetch)?;

        let snap =
            |region: u16, p: Point, known: &LoadedRecords, members: &HashMap<u16, Vec<NodeId>>| {
                members.get(&region).and_then(|list| {
                    list.iter()
                        .copied()
                        .min_by_key(|&id| known.record(id).pos.dist2(&p))
                })
            };
        let s_node = snap(rs, s, &known, &members)
            .ok_or_else(|| CoreError::Query("empty source region".into()))?;
        let t_node = snap(rt, t, &known, &members)
            .ok_or_else(|| CoreError::Query("empty target region".into()))?;
        let t_vec = known.record(t_node).lm_vec.to_vec();

        if s_node == t_node {
            return Ok(SearchOutcome {
                cost: Some(0),
                path: vec![s_node],
                s_node,
                t_node,
                pages,
            });
        }

        let mut g: HashMap<NodeId, Dist> = HashMap::new();
        let mut parent: HashMap<NodeId, NodeId> = HashMap::new();
        let mut region_hint: HashMap<NodeId, u16> = HashMap::new();
        let mut heap: BinaryHeap<Reverse<(Dist, Dist, NodeId)>> = BinaryHeap::new();
        let mut incumbent = Dist::MAX;

        g.insert(s_node, 0);
        let h0 = lm_bound(known.record(s_node).lm_vec, &t_vec);
        heap.push(Reverse((h0, 0, s_node)));

        while let Some(&Reverse((f, _, _))) = heap.peek() {
            if incumbent != Dist::MAX && f >= incumbent {
                break; // admissible bounds: nothing better remains
            }
            let Reverse((_, gu, u)) = heap.pop().expect("peeked");
            if gu > *g.get(&u).unwrap_or(&Dist::MAX) {
                continue; // stale
            }
            if known.get(u).is_none() {
                let region = *region_hint
                    .get(&u)
                    .ok_or_else(|| CoreError::Query(format!("no region hint for node {u}")))?;
                load(region, &mut known, &mut members, &mut pages, fetch)?;
                let hu = known
                    .get(u)
                    .map(|n| lm_bound(n.lm_vec, &t_vec))
                    .ok_or_else(|| {
                        CoreError::Query(format!("node {u} missing after region fetch"))
                    })?;
                heap.push(Reverse((gu + hu, gu, u)));
                continue;
            }
            if u == t_node {
                incumbent = incumbent.min(gu);
                continue;
            }
            let rec = known.record(u);
            let arcs: Vec<(u32, u32, u16)> =
                rec.adj.iter().map(|a| (a.to, a.w, a.to_region)).collect();
            for (v, w, v_region) in arcs {
                let nd = gu + Dist::from(w);
                if nd < *g.get(&v).unwrap_or(&Dist::MAX) {
                    g.insert(v, nd);
                    parent.insert(v, u);
                    region_hint.insert(v, v_region);
                    let hv = known
                        .get(v)
                        .map(|n| lm_bound(n.lm_vec, &t_vec))
                        .unwrap_or(0);
                    heap.push(Reverse((nd + hv, nd, v)));
                    if v == t_node {
                        incumbent = incumbent.min(nd);
                    }
                }
            }
        }

        if incumbent == Dist::MAX {
            return Ok(SearchOutcome {
                cost: None,
                path: Vec::new(),
                s_node,
                t_node,
                pages,
            });
        }
        let mut path = vec![t_node];
        let mut cur = t_node;
        while let Some(&p) = parent.get(&cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Ok(SearchOutcome {
            cost: Some(incumbent),
            path,
            s_node,
            t_node,
            pages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::files::fd::NodeExtra;
    use privpath_graph::landmark::Landmarks;

    /// The cached + threaded probe loop derives the uncached serial plan
    /// for the LM flavour, exhaustive and sampled, across thread counts.
    #[test]
    fn cached_probe_plan_matches_uncached_derivation() {
        crate::schemes::baseline::tests::check_cached_probe_plan(
            crate::schemes::baseline::BaselineFlavor::Lm,
            13,
        );
    }

    #[test]
    fn lm_bound_ignores_infinity_sentinels() {
        assert_eq!(lm_bound(&[10, u32::MAX], &[4, 7]), 6);
        assert_eq!(lm_bound(&[10, 100], &[4, u32::MAX]), 6);
        assert_eq!(lm_bound(&[], &[]), 0);
    }

    #[test]
    fn lm_bound_is_symmetric_difference() {
        assert_eq!(lm_bound(&[5], &[12]), 7);
        assert_eq!(lm_bound(&[12], &[5]), 7);
        assert_eq!(lm_bound(&[3, 50], &[9, 41]), 9);
    }

    #[test]
    fn landmark_vectors_saturate() {
        use privpath_graph::gen::{grid_network, GridGenConfig};
        let net = grid_network(&GridGenConfig {
            nx: 4,
            ny: 4,
            ..Default::default()
        });
        let lm = Landmarks::build(&net, 2);
        for u in 0..net.num_nodes() as u32 {
            let v = lm.lm_vec(u);
            assert_eq!(v.len(), 2);
            assert!(v.iter().all(|&x| x != u32::MAX), "grid is connected");
        }
    }
}
