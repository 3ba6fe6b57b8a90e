//! The plan-derivation probe driver shared by the LM and AF baselines.
//!
//! Both baselines fix their query plan by *probing*: run the interleaved
//! fetch-and-search over many (or all) node pairs and take the maximum
//! number of region fetches observed ("from all possible sources s ∈ V to
//! all possible destinations t ∈ V", §4). The probes dominate baseline
//! build time at scale — exhaustive derivation is `O(n²)` searches — so
//! this driver removes the two per-probe overheads the naive loop pays:
//!
//! * **Unsealed-region cache.** Every probe fetch used to re-read and
//!   unseal (CRC) the region page(s) through `offline_region`. The driver
//!   receives each region's payload unsealed exactly once; a probe fetch
//!   folds those bytes into the probe's arena, as a query folds the bytes
//!   of the pages it fetched.
//! * **Threaded max-reduction.** Probes are independent and the plan is a
//!   pure maximum, so the pair space is striped across workers (each with
//!   its own arena + scratch) and reduced with `max` — an
//!   order-independent fold, making the derived budget identical for every
//!   thread count, including the serial reference. Sampled probe sets are
//!   drawn *before* striping, so the RNG sequence (and hence the probe
//!   set) never depends on the worker count either.

use crate::files::fd::RecordFormat;
use crate::schemes::baseline::BaselineFlavor;
use crate::subgraph::{ClientSubgraph, QueryScratch};
use crate::Result;
use privpath_graph::network::RoadNetwork;
use privpath_graph::types::NodeId;
use privpath_partition::RegionId;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The probe set.
pub(crate) enum ProbePairs {
    /// All ordered pairs `s != t` — the paper's exhaustive derivation.
    Exhaustive,
    /// A pre-drawn sample (see [`sample_pairs`]).
    Sampled(Vec<(NodeId, NodeId)>),
}

/// Draws the sampled probe set: `count` attempts, pairs with `s == t`
/// skipped — the exact draw sequence of the serial loops this replaced, so
/// sampled plans are unchanged.
pub(crate) fn sample_pairs(n: u32, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut pairs = Vec::with_capacity(count);
    for _ in 0..count {
        let s = rng.gen_range(0..n);
        let t = rng.gen_range(0..n);
        if s != t {
            pairs.push((s, t));
        }
    }
    pairs
}

/// Source values handed out per claim in exhaustive mode (amortizes the
/// atomic increment over `stride · n` probes).
const EXHAUSTIVE_STRIDE: usize = 4;
/// Pair indices handed out per claim in sampled mode.
const SAMPLED_STRIDE: usize = 32;

/// Runs every probe in `pairs` and returns the maximum region-fetch count
/// observed (`0` when there are no probes). `payloads[r]` must hold region
/// `r`'s unsealed payload in `fmt`'s layout; `flavor` picks the search;
/// `threads` ≤ 1 runs inline.
pub(crate) fn probe_max(
    net: &RoadNetwork,
    region_of: &[RegionId],
    payloads: &[Vec<u8>],
    fmt: &RecordFormat,
    flavor: BaselineFlavor,
    pairs: &ProbePairs,
    threads: usize,
) -> Result<u32> {
    let n = net.num_nodes() as u32;
    let claims = match pairs {
        ProbePairs::Exhaustive => (n as usize).div_ceil(EXHAUSTIVE_STRIDE),
        ProbePairs::Sampled(v) => v.len().div_ceil(SAMPLED_STRIDE),
    };
    let threads = threads.max(1).min(claims.max(1));
    let search = flavor.search();

    let run_stripe = |claim: usize,
                      sub: &mut ClientSubgraph,
                      scratch: &mut QueryScratch,
                      best: &mut u32|
     -> Result<()> {
        let mut probe = |s: NodeId, t: NodeId| -> Result<()> {
            let rs = region_of[s as usize];
            let rt = region_of[t as usize];
            let goal = flavor.goal(rt);
            let mut fetch = |region: u16, sub: &mut ClientSubgraph| {
                sub.add_region(&payloads[region as usize], fmt, goal)
            };
            sub.clear();
            let (ps, pt) = (net.node_point(s), net.node_point(t));
            let out = search(sub, scratch, rs, rt, ps, pt, &mut fetch)?;
            *best = (*best).max(out.fetches);
            Ok(())
        };
        match pairs {
            ProbePairs::Exhaustive => {
                let lo = claim * EXHAUSTIVE_STRIDE;
                let hi = (lo + EXHAUSTIVE_STRIDE).min(n as usize);
                for s in lo as u32..hi as u32 {
                    for t in 0..n {
                        if s != t {
                            probe(s, t)?;
                        }
                    }
                }
            }
            ProbePairs::Sampled(v) => {
                let lo = claim * SAMPLED_STRIDE;
                let hi = (lo + SAMPLED_STRIDE).min(v.len());
                for &(s, t) in &v[lo..hi] {
                    probe(s, t)?;
                }
            }
        }
        Ok(())
    };

    if threads == 1 {
        let mut sub = ClientSubgraph::new();
        let mut scratch = QueryScratch::new();
        let mut best = 0u32;
        for claim in 0..claims {
            run_stripe(claim, &mut sub, &mut scratch, &mut best)?;
        }
        return Ok(best);
    }

    let next = AtomicUsize::new(0);
    let worker = || -> Result<u32> {
        let mut sub = ClientSubgraph::new();
        let mut scratch = QueryScratch::new();
        let mut best = 0u32;
        loop {
            let claim = next.fetch_add(1, Ordering::Relaxed);
            if claim >= claims {
                return Ok(best);
            }
            run_stripe(claim, &mut sub, &mut scratch, &mut best)?;
        }
    };
    let locals: Vec<Result<u32>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe worker panicked"))
            .collect()
    });
    // Deterministic max-reduction: `max` over the same probe set, however
    // it was striped.
    let mut best = 0u32;
    for local in locals {
        best = best.max(local?);
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_pairs_are_deterministic_and_skip_diagonal() {
        let a = sample_pairs(50, 200, 0xfeed);
        let b = sample_pairs(50, 200, 0xfeed);
        assert_eq!(a, b);
        assert!(a.iter().all(|&(s, t)| s != t));
        assert!(a.len() <= 200);
        let c = sample_pairs(50, 200, 0xbeef);
        assert_ne!(a, c, "different seeds must draw different sets");
    }
}
