//! The AF baseline's retained `HashMap` search, kept as a test oracle.
//! AF builds and queries as the `BaselineFlavor::Af` flavour of the
//! shared region-fetch baseline (`schemes::baseline`); nothing here ships.

/// The original `HashMap`-based client search, retained verbatim as the
/// behavioural reference for the arena search `subgraph::search_regions`
/// that replaced it on the query path. The differentials in
/// `schemes::baseline::tests` assert both return identical answers,
/// snapped nodes, paths and fetch counts on identical inputs.
#[cfg(test)]
pub(crate) mod reference {
    use crate::error::CoreError;
    use crate::files::fd::{LoadedRecords, RegionData};
    use crate::subgraph::flag_set;
    use crate::Result;
    use privpath_graph::types::{Dist, NodeId, Point};
    use std::collections::hash_map::Entry;
    use std::collections::HashMap;

    /// What the reference search produced. `regions_fetched` counts region
    /// fetches including the two initial host regions.
    pub(crate) struct SearchOutcome {
        /// Path cost, or `None` if the destination is unreachable.
        pub(crate) cost: Option<Dist>,
        /// Node sequence of the found path (empty when unreachable).
        pub(crate) path: Vec<NodeId>,
        /// Node the source point snapped to.
        pub(crate) s_node: NodeId,
        /// Node the destination point snapped to.
        pub(crate) t_node: NodeId,
        /// Region fetches issued.
        pub(crate) regions_fetched: u32,
    }

    /// Flag-pruned Dijkstra with on-demand region loading. `fetch(region)`
    /// retrieves all of a region's pages (one protocol round).
    pub(crate) fn af_search(
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
        let mut regions_fetched = 0u32;
        let load = |region: u16,
                    known: &mut LoadedRecords,
                    members: &mut HashMap<u16, Vec<NodeId>>,
                    count: &mut u32,
                    fetch: &mut dyn FnMut(u16) -> Result<RegionData>|
         -> Result<()> {
            let data = fetch(region)?;
            *count += 1;
            if let Entry::Vacant(list) = members.entry(region) {
                list.insert(data.nodes().map(|n| n.id).collect());
                known.insert(data);
            }
            Ok(())
        };

        load(rs, &mut known, &mut members, &mut regions_fetched, fetch)?;
        load(rt, &mut known, &mut members, &mut regions_fetched, fetch)?;

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
        if s_node == t_node {
            return Ok(SearchOutcome {
                cost: Some(0),
                path: vec![s_node],
                s_node,
                t_node,
                regions_fetched,
            });
        }

        let goal = rt as usize;
        let mut g: HashMap<NodeId, Dist> = HashMap::new();
        let mut parent: HashMap<NodeId, NodeId> = HashMap::new();
        let mut region_hint: HashMap<NodeId, u16> = HashMap::new();
        let mut heap: BinaryHeap<Reverse<(Dist, NodeId)>> = BinaryHeap::new();
        g.insert(s_node, 0);
        heap.push(Reverse((0, s_node)));
        let mut found = None;

        while let Some(Reverse((gu, u))) = heap.pop() {
            if gu > *g.get(&u).unwrap_or(&Dist::MAX) {
                continue;
            }
            if known.get(u).is_none() {
                let region = *region_hint
                    .get(&u)
                    .ok_or_else(|| CoreError::Query(format!("no region hint for node {u}")))?;
                load(
                    region,
                    &mut known,
                    &mut members,
                    &mut regions_fetched,
                    fetch,
                )?;
                heap.push(Reverse((gu, u)));
                continue;
            }
            if u == t_node {
                found = Some(gu);
                break; // Dijkstra (no heuristic): first settle is optimal
            }
            let rec = known.record(u);
            let arcs: Vec<(u32, u32, u16, bool)> = rec
                .adj
                .iter()
                .enumerate()
                .map(|(k, a)| (a.to, a.w, a.to_region, flag_set(rec.flags(k), goal)))
                .collect();
            for (v, w, v_region, ok) in arcs {
                if !ok {
                    continue; // pruned: no shortest path into the target region
                }
                let nd = gu + Dist::from(w);
                if nd < *g.get(&v).unwrap_or(&Dist::MAX) {
                    g.insert(v, nd);
                    parent.insert(v, u);
                    region_hint.insert(v, v_region);
                    heap.push(Reverse((nd, v)));
                }
            }
        }

        let cost = match found {
            Some(c) => c,
            None => {
                return Ok(SearchOutcome {
                    cost: None,
                    path: Vec::new(),
                    s_node,
                    t_node,
                    regions_fetched,
                })
            }
        };
        let mut path = vec![t_node];
        let mut cur = t_node;
        while let Some(&p) = parent.get(&cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Ok(SearchOutcome {
            cost: Some(cost),
            path,
            s_node,
            t_node,
            regions_fetched,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::files::fd::NodeExtra;
    use crate::subgraph::flag_set;
    use privpath_graph::arcflag::ArcFlags;

    /// The cached + threaded probe loop derives the uncached serial plan
    /// for the AF flavour, exhaustive and sampled, across thread counts.
    #[test]
    fn cached_probe_plan_matches_uncached_derivation() {
        crate::schemes::baseline::tests::check_cached_probe_plan(
            crate::schemes::baseline::BaselineFlavor::Af,
            29,
        );
    }

    #[test]
    fn flag_bits_round_trip() {
        let flags = vec![0b0000_0101u8, 0b1000_0000];
        assert!(flag_set(&flags, 0));
        assert!(!flag_set(&flags, 1));
        assert!(flag_set(&flags, 2));
        assert!(flag_set(&flags, 15));
        assert!(!flag_set(&flags, 14));
        assert!(!flag_set(&flags, 16)); // out of range -> false
    }

    #[test]
    fn af_extra_encodes_arcflags() {
        use privpath_graph::gen::{grid_network, GridGenConfig};
        let net = grid_network(&GridGenConfig {
            nx: 5,
            ny: 5,
            ..Default::default()
        });
        let regions: Vec<u16> = (0..net.num_nodes()).map(|u| (u % 4) as u16).collect();
        let flags = ArcFlags::compute(&net, &regions, 4);
        for e in (0..net.num_arcs() as u32).step_by(7) {
            let bytes = NodeExtra::edge_flags(&flags, e);
            for r in 0..4usize {
                assert_eq!(flag_set(&bytes, r), flags.get(e, r), "edge {e} region {r}");
            }
        }
    }
}
