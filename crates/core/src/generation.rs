//! Generation-stamped hot swap: live database rebuilds with crash-contained
//! cutover.
//!
//! The paper's database is built once from a road network and then served
//! immutably — but road networks change (edge weights follow traffic), so a
//! production LBS must republish without dropping the clients mid-query.
//! [`DbRegistry`] is that subsystem:
//!
//! * it owns the **current generation** — a monotonically increasing id
//!   paired with an `Arc<Database>`;
//! * [`DbRegistry::rebuild_in_background`] runs a build closure on a worker
//!   thread under the PR 6 retry machinery ([`RetryPolicy`]: bounded
//!   attempts, doubling backoff, overall deadline) and **atomically
//!   publishes** the result on success;
//! * serving fronts stood up via [`DbRegistry::serve_wire`] /
//!   [`DbRegistry::serve_tcp`] pin every session to the generation current
//!   at its `SessionOpen`, so in-flight sessions **drain on the old
//!   generation** while new sessions open on the new one — shuffled-store
//!   epochs, plans and traces stay consistent within a generation;
//! * clients that reopen holding a stale generation id get a typed,
//!   retryable [`privpath_pir::PirError::StaleGeneration`], the signal to
//!   re-download the header and re-plan against the new generation.
//!
//! The robustness contract: a rebuild that panics, errors, or fails publish
//! validation is **contained**. The worker catches the panic, retries per
//! policy, and on exhaustion surfaces [`CoreError::RebuildFailed`] through
//! [`RebuildHandle::wait`] — the old generation never stops serving. The
//! swap differential in `tests/leakage.rs` holds the whole cutover
//! observably lossless per scheme; `tests/chaos.rs` exercises swaps under
//! link chaos and sabotaged rebuilds.

use crate::engine::{Database, QuerySession};
use crate::error::CoreError;
use crate::snapshot::StorageBackend;
use crate::Result;
use privpath_pir::{FrontConfig, GenerationSource, RetryPolicy, ServeHost, ServerFront, TcpFront};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

/// Rebuild accounting, readable at any time via [`DbRegistry::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebuildStats {
    /// Generations published through a background rebuild (manual
    /// [`DbRegistry::publish`] calls are not counted here).
    pub published: u64,
    /// Background rebuilds that exhausted their retry budget.
    pub failed: u64,
    /// Individual build attempts, across all rebuilds, including the ones
    /// that panicked or failed validation.
    pub(crate) attempts: u64,
}

/// The generation registry: owner of the current `(id, Arc<Database>)`
/// pair and the background-rebuild worker. See the module docs for the
/// swap semantics.
///
/// Ids start at 1 and only ever grow; a published generation is immutable
/// (publishing replaces the pair, never mutates the old database, whose
/// `Arc` stays alive until the last session pinned to it drains).
pub struct DbRegistry {
    current: Mutex<(u64, Arc<Database>)>,
    published: AtomicU64,
    failed: AtomicU64,
    attempts: AtomicU64,
}

impl DbRegistry {
    /// A registry serving `db` as generation 1.
    pub fn new(db: Arc<Database>) -> Arc<DbRegistry> {
        DbRegistry::with_generation(db, 1)
    }

    /// A registry serving `db` as generation `generation` (clamped to at
    /// least 1). This is how cold-start recovery resumes the generation
    /// counter where the crashed process left it, so clients holding a
    /// pre-crash generation id reconnect without a spurious staleness
    /// signal.
    pub fn with_generation(db: Arc<Database>, generation: u64) -> Arc<DbRegistry> {
        Arc::new(DbRegistry {
            current: Mutex::new((generation.max(1), db)),
            published: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            attempts: AtomicU64::new(0),
        })
    }

    /// The snapshot file name for generation `generation` inside a recovery
    /// directory: `gen-<N>.snap`.
    pub fn snapshot_path(dir: &Path, generation: u64) -> PathBuf {
        dir.join(format!("gen-{generation}.snap"))
    }

    /// Persists the current generation as `gen-<N>.snap` in `dir`
    /// (atomically — a crash mid-write never leaves a torn snapshot) and
    /// returns the generation id and path written. Pair with
    /// [`DbRegistry::recover`] for kill-and-restart durability.
    pub fn persist_current(&self, dir: &Path) -> Result<(u64, PathBuf)> {
        let (id, db) = self.current();
        std::fs::create_dir_all(dir)
            .map_err(|e| CoreError::Storage(privpath_storage::StorageError::Io(e)))?;
        let path = DbRegistry::snapshot_path(dir, id);
        db.persist(&path)?;
        Ok((id, path))
    }

    /// Cold-start recovery: scans `dir` for `gen-<N>.snap` files and
    /// reopens the **newest valid** one as generation `N`, serving through
    /// `backend`. Invalid snapshots — truncated by a crash, bit-rotted,
    /// written by a future format — are skipped, and an older valid
    /// generation wins over a newer corrupt one. Only when no snapshot in
    /// the directory opens does this fail, with the newest snapshot's typed
    /// error (or a clear "nothing to recover" when the directory has none).
    pub fn recover(dir: &Path, backend: StorageBackend) -> Result<Arc<DbRegistry>> {
        let entries = std::fs::read_dir(dir)
            .map_err(|e| CoreError::Storage(privpath_storage::StorageError::Io(e)))?;
        let mut found: Vec<(u64, PathBuf)> = Vec::new();
        for entry in entries {
            let entry =
                entry.map_err(|e| CoreError::Storage(privpath_storage::StorageError::Io(e)))?;
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(gen) = name
                .strip_prefix("gen-")
                .and_then(|rest| rest.strip_suffix(".snap"))
                .and_then(|num| num.parse::<u64>().ok())
            else {
                continue;
            };
            found.push((gen, path));
        }
        // newest first; the first that opens cleanly wins
        found.sort_by_key(|e| std::cmp::Reverse(e.0));
        let mut last_err: Option<CoreError> = None;
        for (gen, path) in found {
            match Database::open_snapshot(&path, backend) {
                Ok(db) => return Ok(DbRegistry::with_generation(Arc::new(db), gen)),
                Err(e) => last_err = last_err.or(Some(e)),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            CoreError::Build(format!(
                "nothing to recover: no gen-<N>.snap snapshots in {}",
                dir.display()
            ))
        }))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, (u64, Arc<Database>)> {
        // A poisoned registry lock can only come from a panic between load
        // and store below — none of which run user code — so recovering the
        // guard is safe.
        self.current.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The current generation id and its database, as one consistent pair.
    pub fn current(&self) -> (u64, Arc<Database>) {
        let g = self.lock();
        (g.0, Arc::clone(&g.1))
    }

    /// The current generation id.
    pub fn generation(&self) -> u64 {
        self.lock().0
    }

    /// Rebuild accounting so far.
    pub fn stats(&self) -> RebuildStats {
        RebuildStats {
            published: self.published.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            attempts: self.attempts.load(Ordering::Relaxed),
        }
    }

    /// Atomically publishes `db` as the next generation and returns its id.
    ///
    /// Publish validation is the last line of crash containment: a rebuild
    /// that silently produced a database for the wrong scheme or an
    /// incompatible page size would poison every new session, so both are
    /// rejected here (typed [`CoreError::Build`]) and the old generation
    /// keeps serving.
    pub fn publish(&self, db: Arc<Database>) -> Result<u64> {
        let mut cur = self.lock();
        let old = &cur.1;
        if db.kind() != old.kind() {
            return Err(CoreError::Build(format!(
                "generation publish rejected: rebuilt scheme {} does not match serving scheme {}",
                db.kind().name(),
                old.kind().name()
            )));
        }
        let (new_ps, old_ps) = (db.server().spec().page_size, old.server().spec().page_size);
        if new_ps != old_ps {
            return Err(CoreError::Build(format!(
                "generation publish rejected: rebuilt page size {new_ps} does not match serving page size {old_ps}"
            )));
        }
        cur.0 += 1;
        cur.1 = db;
        Ok(cur.0)
    }

    /// Runs `build` on a worker thread and publishes the result as the next
    /// generation. The old generation serves uninterrupted throughout —
    /// including when every attempt fails.
    ///
    /// `policy` is the PR 6 retry machinery reinterpreted for rebuilds:
    /// `max_attempts` bounds build attempts, `backoff` doubles between them
    /// (capped at `backoff_cap`), and `deadline` bounds the whole rebuild.
    /// `attempt_timeout` is ignored — a build cannot be preempted mid-flight,
    /// so only the overall deadline is enforceable (checked between
    /// attempts).
    ///
    /// Containment: a `build` that panics is caught (`catch_unwind`), one
    /// that errors or fails [`DbRegistry::publish`] validation is retried,
    /// and exhaustion surfaces [`CoreError::RebuildFailed`] via
    /// [`RebuildHandle::wait`] — never a crash, never a serving gap.
    pub fn rebuild_in_background<F>(
        self: &Arc<Self>,
        mut build: F,
        policy: RetryPolicy,
    ) -> RebuildHandle
    where
        F: FnMut() -> Result<Database> + Send + 'static,
    {
        let reg = Arc::clone(self);
        let worker = thread::spawn(move || {
            let started = Instant::now();
            let max_attempts = policy.max_attempts.max(1);
            let mut backoff = policy.backoff;
            let mut last_reason = String::new();
            let mut attempts = 0u32;
            for attempt in 1..=max_attempts {
                if attempt > 1 {
                    if policy
                        .deadline
                        .is_some_and(|d| started.elapsed() + backoff >= d)
                    {
                        last_reason = format!("{last_reason} (rebuild deadline exhausted)");
                        break;
                    }
                    thread::sleep(backoff);
                    backoff = (backoff * 2).min(policy.backoff_cap.max(policy.backoff));
                }
                attempts = attempt;
                reg.attempts.fetch_add(1, Ordering::Relaxed);
                match catch_unwind(AssertUnwindSafe(&mut build)) {
                    Ok(Ok(db)) => match reg.publish(Arc::new(db)) {
                        Ok(id) => {
                            reg.published.fetch_add(1, Ordering::Relaxed);
                            return Ok(id);
                        }
                        Err(e) => last_reason = e.to_string(),
                    },
                    Ok(Err(e)) => last_reason = e.to_string(),
                    Err(panic) => last_reason = panic_reason(panic.as_ref()),
                }
            }
            reg.failed.fetch_add(1, Ordering::Relaxed);
            Err(CoreError::RebuildFailed {
                attempts,
                reason: last_reason,
            })
        });
        RebuildHandle { worker }
    }

    /// Stands up a hot-swappable wire front serving this registry: each
    /// session pins the generation current at its `SessionOpen` and drains
    /// on it across later publishes.
    pub fn serve_wire(self: &Arc<Self>) -> ServerFront {
        self.serve_wire_with(FrontConfig::default())
    }

    /// [`DbRegistry::serve_wire`] with an explicit [`FrontConfig`] (idle
    /// eviction). Shared laps compose with swaps: a lap is
    /// over one file of one generation, so rounds of sessions pinned to
    /// different generations never ride together.
    pub(crate) fn serve_wire_with(self: &Arc<Self>, cfg: FrontConfig) -> ServerFront {
        let source: Arc<dyn GenerationSource> = Arc::clone(self) as Arc<dyn GenerationSource>;
        ServerFront::spawn_swappable(source, cfg)
    }

    /// Stands up a hot-swappable TCP front (same semantics as
    /// [`DbRegistry::serve_wire`], over real loopback sockets).
    pub fn serve_tcp(self: &Arc<Self>) -> Result<TcpFront> {
        self.serve_tcp_with(FrontConfig::default())
    }

    /// [`DbRegistry::serve_tcp`] with explicit front-end knobs.
    pub(crate) fn serve_tcp_with(self: &Arc<Self>, cfg: FrontConfig) -> Result<TcpFront> {
        let source: Arc<dyn GenerationSource> = Arc::clone(self) as Arc<dyn GenerationSource>;
        Ok(TcpFront::spawn_swappable(source, cfg)?)
    }

    /// Opens a query session over `front` against the current generation,
    /// verifying the server agrees: the connect *expects* the generation
    /// this registry says is current, so a swap racing the connect surfaces
    /// as a retryable [`privpath_pir::PirError::StaleGeneration`] instead
    /// of a session silently planned against the wrong database.
    pub fn wire_session_with_seed(&self, front: &ServerFront, seed: u64) -> Result<QuerySession> {
        let (id, db) = self.current();
        let chan = front.connect_expecting(RetryPolicy::none(), id)?;
        Ok(db.session_over(seed, Box::new(chan)))
    }

    /// [`DbRegistry::wire_session_with_seed`] over a TCP front.
    pub fn tcp_session_with_seed(&self, front: &TcpFront, seed: u64) -> Result<QuerySession> {
        let (id, db) = self.current();
        let chan = front.connect_expecting(RetryPolicy::none(), id)?;
        Ok(db.session_over(seed, Box::new(chan)))
    }
}

impl GenerationSource for DbRegistry {
    fn current_generation(&self) -> (u64, Arc<dyn ServeHost + Send + Sync>) {
        let g = self.lock();
        let host: Arc<dyn ServeHost + Send + Sync> = Arc::clone(&g.1) as _;
        (g.0, host)
    }
}

fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("builder panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("builder panicked: {s}")
    } else {
        "builder panicked".into()
    }
}

/// Handle to a background rebuild started by
/// [`DbRegistry::rebuild_in_background`].
pub struct RebuildHandle {
    worker: thread::JoinHandle<Result<u64>>,
}

impl RebuildHandle {
    /// Blocks until the rebuild resolves: the newly published generation id
    /// on success, [`CoreError::RebuildFailed`] when the retry budget ran
    /// out. The worker catches build panics itself, so a join error here
    /// means the *machinery* (not the build closure) panicked — reported as
    /// the same typed failure rather than propagated.
    pub fn wait(self) -> Result<u64> {
        self.worker.join().unwrap_or_else(|_| {
            Err(CoreError::RebuildFailed {
                attempts: 0,
                reason: "rebuild worker panicked outside the build closure".into(),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BuildConfig;
    use crate::engine::SchemeKind;
    use privpath_graph::gen::{grid_network, GridGenConfig};
    use privpath_graph::network::RoadNetwork;
    use std::time::Duration;

    fn net() -> RoadNetwork {
        grid_network(&GridGenConfig {
            nx: 4,
            ny: 4,
            ..Default::default()
        })
    }

    fn db(net: &RoadNetwork, kind: SchemeKind) -> Arc<Database> {
        Arc::new(Database::build(net, kind, &BuildConfig::default()).unwrap())
    }

    fn quick_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            attempt_timeout: None,
            backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            deadline: Some(Duration::from_secs(30)),
        }
    }

    #[test]
    fn publish_increments_and_validates() {
        let n = net();
        let reg = DbRegistry::new(db(&n, SchemeKind::Ci));
        assert_eq!(reg.generation(), 1);
        let id = reg.publish(db(&n.reweighted(1), SchemeKind::Ci)).unwrap();
        assert_eq!(id, 2);
        assert_eq!(reg.generation(), 2);
        // wrong scheme: rejected, old generation keeps serving
        let err = reg.publish(db(&n, SchemeKind::Lm)).unwrap_err();
        assert!(err.to_string().contains("does not match"), "{err}");
        assert_eq!(reg.generation(), 2);
        let (id, cur) = reg.current();
        assert_eq!(id, 2);
        assert_eq!(cur.kind(), SchemeKind::Ci);
    }

    #[test]
    fn background_rebuild_publishes_and_counts() {
        let n = net();
        let reg = DbRegistry::new(db(&n, SchemeKind::Ci));
        let rebuilt = n.reweighted(5);
        let handle = reg.rebuild_in_background(
            move || Database::build(&rebuilt, SchemeKind::Ci, &BuildConfig::default()),
            quick_retry(),
        );
        assert_eq!(handle.wait().unwrap(), 2);
        assert_eq!(reg.generation(), 2);
        assert_eq!(
            reg.stats(),
            RebuildStats {
                published: 1,
                failed: 0,
                attempts: 1
            }
        );
    }

    #[test]
    fn panicking_rebuild_is_contained_and_typed() {
        let n = net();
        let reg = DbRegistry::new(db(&n, SchemeKind::Ci));
        let handle = reg.rebuild_in_background(|| panic!("sabotaged build"), quick_retry());
        let err = handle.wait().unwrap_err();
        match err {
            CoreError::RebuildFailed {
                attempts,
                ref reason,
            } => {
                assert_eq!(attempts, 3);
                assert!(reason.contains("sabotaged build"), "{reason}");
            }
            ref other => panic!("expected RebuildFailed, got {other}"),
        }
        // containment: generation 1 still serves
        assert_eq!(reg.generation(), 1);
        let stats = reg.stats();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.attempts, 3);
        assert_eq!(stats.published, 0);
    }

    #[test]
    fn flaky_rebuild_succeeds_within_budget() {
        let n = net();
        let reg = DbRegistry::new(db(&n, SchemeKind::Ci));
        let rebuilt = n.reweighted(9);
        let mut tries = 0u32;
        let handle = reg.rebuild_in_background(
            move || {
                tries += 1;
                if tries < 3 {
                    Err(CoreError::Build("transient builder failure".into()))
                } else {
                    Database::build(&rebuilt, SchemeKind::Ci, &BuildConfig::default())
                }
            },
            quick_retry(),
        );
        assert_eq!(handle.wait().unwrap(), 2);
        let stats = reg.stats();
        assert_eq!(stats.published, 1);
        assert_eq!(stats.attempts, 3);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn rebuild_that_fails_publish_validation_is_contained() {
        let n = net();
        let reg = DbRegistry::new(db(&n, SchemeKind::Ci));
        // builds fine, but for the wrong scheme: publish validation rejects
        let wrong = n.clone();
        let handle = reg.rebuild_in_background(
            move || Database::build(&wrong, SchemeKind::Lm, &BuildConfig::default()),
            quick_retry(),
        );
        let err = handle.wait().unwrap_err();
        assert!(
            matches!(err, CoreError::RebuildFailed { attempts: 3, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("does not match"), "{err}");
        assert_eq!(reg.generation(), 1);
    }

    #[test]
    fn recover_reopens_newest_valid_snapshot_with_its_generation() {
        let n = net();
        let dir = std::env::temp_dir().join(format!("privpath-recover-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // empty directory: typed "nothing to recover"
        let err = match DbRegistry::recover(&dir, StorageBackend::Disk) {
            Err(e) => e,
            Ok(_) => panic!("recovering an empty directory must fail"),
        };
        assert!(err.to_string().contains("nothing to recover"), "{err}");

        let reg = DbRegistry::new(db(&n, SchemeKind::Ci));
        reg.publish(db(&n.reweighted(2), SchemeKind::Ci)).unwrap();
        let (id, path) = reg.persist_current(&dir).unwrap();
        assert_eq!(id, 2);
        assert!(path.ends_with("gen-2.snap"));
        let want = reg
            .current()
            .1
            .session_with_seed(3)
            .query_nodes(&n, 0, 15)
            .unwrap();

        // a newer-but-torn snapshot (crash artifact) must be skipped
        std::fs::write(DbRegistry::snapshot_path(&dir, 3), b"torn").unwrap();

        let back = DbRegistry::recover(&dir, StorageBackend::Disk).unwrap();
        assert_eq!(back.generation(), 2, "older valid beats newer corrupt");
        let got = back
            .current()
            .1
            .session_with_seed(3)
            .query_nodes(&n, 0, 15)
            .unwrap();
        assert_eq!(got.answer.cost, want.answer.cost);
        assert_eq!(got.answer.path_nodes, want.answer.path_nodes);

        // the recovered registry publishes as generation 3, not 2 again
        let id = back.publish(db(&n.reweighted(7), SchemeKind::Ci)).unwrap();
        assert_eq!(id, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn registry_serves_pinned_wire_sessions_across_a_swap() {
        let n = net();
        let reg = DbRegistry::new(db(&n, SchemeKind::Ci));
        let front = reg.serve_wire();
        let mut s1 = reg.wire_session_with_seed(&front, 7).unwrap();
        let before = s1.query_nodes(&n, 0, 15).unwrap();

        let n2 = n.reweighted(3);
        reg.publish(db(&n2, SchemeKind::Ci)).unwrap();

        // the pinned session drains on generation 1: same answer as before
        let again = s1.query_nodes(&n, 0, 15).unwrap();
        assert_eq!(again.answer.cost, before.answer.cost);
        s1.close().unwrap();

        // a reopen expecting the drained generation is typed staleness
        let err = front
            .connect_expecting(RetryPolicy::none(), 1)
            .err()
            .expect("stale expectation must fail");
        assert!(err.is_retryable(), "{err}");

        // a fresh registry session plans against generation 2
        let mut s2 = reg.wire_session_with_seed(&front, 8).unwrap();
        let after = s2.query_nodes(&n2, 0, 15).unwrap();
        assert!(after.answer.found());
        s2.close().unwrap();
        front.shutdown();
    }
}
