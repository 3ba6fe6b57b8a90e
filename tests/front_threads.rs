//! A front's thread count does not grow with its clients.
//!
//! A front runs one thread, its readiness loop, which serves every
//! connection it has — accepted TCP sockets and in-process socket pairs
//! alike. This suite counts the process's threads (`/proc/self/task`)
//! around 32 TCP and 32 in-process sessions connected mid-query. It is the
//! only test in its binary, so no sibling test starts or ends a thread
//! while it counts.

use privpath::pir::{
    FileId, FrontConfig, PirMode, PirServer, ServerFront, SystemSpec, TcpFront, Transport,
    WireChannel,
};
use privpath::storage::{MemFile, PageBuf, DEFAULT_PAGE_SIZE};
use std::sync::Arc;

const SESSIONS: usize = 32;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists the process's threads")
        .count()
}

/// Opens a query on `chan` and serves its first round: the session is
/// mid-query when this returns.
fn begin(chan: &mut WireChannel) {
    chan.begin_query().unwrap();
    let mut out = vec![PageBuf::zeroed(DEFAULT_PAGE_SIZE)];
    chan.serve_round(2, &[(FileId(0), 3)], &mut out).unwrap();
    assert_eq!(out[0].as_slice()[0], 3);
}

#[test]
fn a_fronts_thread_count_does_not_grow_with_its_clients() {
    let mut file = MemFile::empty(DEFAULT_PAGE_SIZE);
    for p in 0..8u8 {
        let mut page = PageBuf::zeroed(DEFAULT_PAGE_SIZE);
        page.as_mut_slice()[0] = p;
        file.push_page(page);
    }
    let mut srv = PirServer::new(SystemSpec::default());
    srv.add_file("Fd", file, PirMode::CostOnly).unwrap();
    let srv = Arc::new(srv);
    let tcp = TcpFront::spawn_with(Arc::clone(&srv), FrontConfig::default()).unwrap();
    let local = ServerFront::spawn(Arc::clone(&srv));

    let before = threads();
    let mut sessions = Vec::new();
    for _ in 0..SESSIONS {
        sessions.push(tcp.connect().unwrap());
        sessions.push(local.connect().unwrap());
    }
    for chan in &mut sessions {
        begin(chan);
    }
    let during = threads();
    assert_eq!(
        during, before,
        "{SESSIONS} TCP and {SESSIONS} in-process sessions started threads"
    );

    // Each front stops exactly one thread: its loop.
    let (tcp_stats, local_stats) = (tcp.shutdown(), local.shutdown());
    assert_eq!(threads(), before - 2);
    for stats in [tcp_stats, local_stats] {
        assert_eq!(stats.len(), SESSIONS);
        assert!(stats.values().all(|s| s.queries == 1 && s.fetches == 1));
    }
}
