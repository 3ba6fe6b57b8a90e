//! Allocations per warm query, counted.
//!
//! The client's region path — unseal a page group, fold its bytes into
//! the interned arena, search — is meant to cost no allocations per region
//! once the session is warm, nothing per record or arc inside a region,
//! and nothing per search step. A counting `#[global_allocator]` makes
//! that a checked number: each test runs a warm in-process session of one
//! scheme and bounds the allocations (`alloc`, `alloc_zeroed` and
//! `realloc` calls) of every query after the warm-up. The counter is
//! thread-local, so the harness's other test threads never add to it; an
//! `InProc` session serves its pages on the calling thread, so the count
//! is client and server together.
//!
//! Each bound sits about 1.5x above the largest count read since the index
//! family reads its record straight from the unsealed window (printed with
//! `--nocapture`: CI 21, PI 18, HY 19, LM 43, AF 22), re-read unchanged
//! once the index family kept its region memo across queries: a warm
//! query reuses the memo's buffers and grows none. A window copied into
//! a page map and cloned per lookup read CI 128, PI 36, HY 39; a flat
//! decoded copy per region read CI 160, LM 139, AF 55; and a decoder that
//! allocated per node record and per arc read far more on the same
//! sessions (mean CI 1,998, LM 1,668, AF 4,068).
//!
//! Only warm queries are bounded. A session's first queries may allocate
//! more — every buffer grows to its high-water mark, and an index-family
//! memo to the regions the session has met — so the warm-up queries are
//! left uncounted.

use privpath::core::config::BuildConfig;
use privpath::core::engine::{Database, SchemeKind};
use privpath::graph::gen::{road_like, RoadGenConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Queries answered before counting starts: enough for every buffer of the
/// session to reach its high-water mark.
const WARM: usize = 40;
/// Queries counted.
const COUNTED: usize = 60;

/// Builds `kind` over a 2,000-node `road_like` net with the default
/// configuration, warms one in-process session, and returns the
/// allocations of each counted query.
fn warm_query_allocs(kind: SchemeKind) -> Vec<u64> {
    let net = road_like(&RoadGenConfig {
        nodes: 2_000,
        seed: 7,
        ..Default::default()
    });
    let db = Arc::new(Database::build(&net, kind, &BuildConfig::default()).expect("build"));
    let mut session = db.session_with_seed(99);
    let n = net.num_nodes() as u64;
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut next_pair = move || loop {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let (s, t) = ((state % n) as u32, ((state >> 32) % n) as u32);
        if s != t {
            return (s, t);
        }
    };
    for _ in 0..WARM {
        let (s, t) = next_pair();
        session.query_nodes(&net, s, t).expect("warm-up query");
    }
    (0..COUNTED)
        .map(|_| {
            let (s, t) = next_pair();
            let before = allocs();
            let out = session.query_nodes(&net, s, t).expect("query");
            let used = allocs() - before;
            assert!(out.answer.found(), "{}: {s} -> {t} unanswered", kind.name());
            drop(out);
            used
        })
        .collect()
}

fn check(kind: SchemeKind, bound: u64) {
    let counts = warm_query_allocs(kind);
    let max = *counts.iter().max().expect("counted queries");
    let min = *counts.iter().min().expect("counted queries");
    let mean = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
    println!(
        "{}: allocations per warm query min {min}, mean {mean:.1}, max {max} (bound {bound})",
        kind.name()
    );
    assert!(
        max <= bound,
        "{}: a warm query allocated {max} times, bound {bound} (all: {counts:?})",
        kind.name()
    );
}

#[test]
fn ci_warm_query_allocations_are_bounded() {
    check(SchemeKind::Ci, 32);
}

#[test]
fn lm_warm_query_allocations_are_bounded() {
    check(SchemeKind::Lm, 65);
}

#[test]
fn af_warm_query_allocations_are_bounded() {
    check(SchemeKind::Af, 33);
}

#[test]
fn pi_warm_query_allocations_are_bounded() {
    check(SchemeKind::Pi, 27);
}

#[test]
fn hy_warm_query_allocations_are_bounded() {
    check(SchemeKind::Hy, 29);
}
