//! Set-up: everything between "nothing exists" and "warm clients are
//! connected to a front serving a snapshot-resident database".

use crate::measure::{run_clients, ClientPlan, Stop};
use crate::workload::{self, Workload};
use crate::Res;
use privpath_core::{BuildConfig, Database, QuerySession};
use privpath_graph::{Point, RoadNetwork};
use privpath_pir::{PirMode, TcpFront};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Scratch directory under the benchmark's own directory (the benchmark
/// may only write inside its checkout), removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new() -> Res<ScratchDir> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join(".tmp");
        let dir = root.join(format!("run-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // the parent goes too once no concurrent run uses it
        if let Some(root) = self.0.parent() {
            let _ = std::fs::remove_dir(root);
        }
    }
}

/// A served database with its warm clients, and what standing it up cost.
pub struct Instance {
    pub net: RoadNetwork,
    pub points: Vec<(Point, Point)>,
    pub db: Arc<Database>,
    pub front: TcpFront,
    pub sessions: Vec<QuerySession>,
    pub snapshot_path: PathBuf,
    pub snapshot_bytes: u64,
    /// `BuildStats::stage_s` of the build, in its field order.
    pub build_stage_s: [f64; 5],
    pub persist_s: f64,
    pub open_s: f64,
    pub setup_s: f64,
}

/// Generate + build + persist + reopen + serve over TCP + connect + warm
/// up, timed as one sequence. `dir` must be fresh.
pub fn set_up(w: &Workload, pairs: &[(u32, u32)], seed: u64, dir: &Path) -> Res<Instance> {
    let t0 = Instant::now();
    let net = workload::network();
    let cfg = BuildConfig {
        // the sweep is performed, not charged
        pir_mode: PirMode::LinearScan,
        ..BuildConfig::default()
    };
    let built = Database::build(&net, w.scheme, &cfg)?;
    let s = built.stats().stage_s;
    let build_stage_s = [
        s.partition_s,
        s.borders_s,
        s.precompute_s,
        s.files_s,
        s.plan_s,
    ];

    std::fs::create_dir_all(dir)?;
    let snapshot_path = dir.join("db.snap");
    let t = Instant::now();
    built.persist(&snapshot_path)?;
    let persist_s = t.elapsed().as_secs_f64();
    drop(built);

    let t = Instant::now();
    let db = Arc::new(Database::open_snapshot(&snapshot_path, w.backend)?);
    let open_s = t.elapsed().as_secs_f64();

    // the shipping default front: coalescing off
    let front = db.serve_tcp()?;
    let mut sessions = Vec::with_capacity(w.clients);
    for k in 0..w.clients {
        sessions.push(db.tcp_session_with_seed(&front, workload::session_seed(seed, k))?);
    }
    let points = workload::pair_points(&net, pairs);
    let logs = run_clients(
        &mut sessions,
        &points,
        &ClientPlan::for_clients(w.clients),
        Stop {
            min_time: workload::WARMUP,
            min_queries: workload::WARMUP_MIN_QUERIES,
        },
        None,
    );
    for log in &logs {
        if let Some(e) = &log.error {
            return Err(format!("{}: warm-up query failed: {e}", w.name).into());
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let snapshot_bytes = std::fs::metadata(&snapshot_path)?.len();
    Ok(Instance {
        net,
        points,
        db,
        front,
        sessions,
        snapshot_path,
        snapshot_bytes,
        build_stage_s,
        persist_s,
        open_s,
        setup_s,
    })
}

impl Instance {
    /// Closes the clients, drains the front and deletes the snapshot.
    pub fn tear_down(self) -> Res<()> {
        for s in self.sessions {
            s.close()?;
        }
        self.front.shutdown();
        drop(self.db);
        std::fs::remove_file(&self.snapshot_path)?;
        Ok(())
    }
}
