//! Durable database snapshots: persist a built [`Database`] to one
//! integrity-checked file and reopen it — memory-resident or disk-backed —
//! without rebuilding.
//!
//! A snapshot is the storage layer's versioned container
//! ([`privpath_storage::SnapshotWriter`]: magic, header CRC, per-file
//! manifest, per-page CRC-32 tables) carrying:
//!
//! * a **meta blob** (encoded here): scheme kind, build seed,
//!   [`SystemSpec`], [`BuildStats`] but its wall-clock stage times, and the
//!   per-scheme extras that are not derivable from the files (index flavor,
//!   LM/AF plan budgets, file ids);
//! * every PIR-served file's pages, exactly as the server holds them.
//!
//! So two builds of one network under one configuration persist the same
//! bytes. Reopening re-registers the files in recorded order (file ids are
//! assigned by registration order, so they reproduce deterministically),
//! re-parses the public header `Fh` through the normal download/unseal
//! path, and rebuilds the scheme state. [`StorageBackend`] picks the page
//! driver: [`StorageBackend::Mem`] loads everything up front (verifying
//! every page checksum at load), [`StorageBackend::Disk`] serves pages
//! lazily through a [`privpath_storage::ChecksumFile`] so every read is
//! verified against the manifest — a flipped bit on disk surfaces as a
//! typed [`privpath_storage::StorageError::PageCorrupt`] naming the file
//! and page, never as a wrong answer.
//!
//! What cannot be persisted is rejected with a typed error, not silently
//! dropped: OBF (no PIR files — the LBS keeps the plaintext network),
//! externally-injected stores, and fault-injection modes.
//!
//! The leakage differential in `tests/leakage.rs` holds disk-backed
//! execution bit-identical to in-memory per scheme; `tests/durability.rs`
//! exercises the kill-and-restart round trip via
//! [`crate::generation::DbRegistry::recover`].

use crate::engine::{Database, SchemeKind, SchemeState};
use crate::error::CoreError;
use crate::files::fh::Header;
use crate::schemes::baseline::{BaselineFlavor, BaselineScheme};
use crate::schemes::index_scheme::{BuildStats, IndexFlavor, IndexScheme, StageBreakdown};
use crate::Result;
use privpath_pir::{FileId, PirMode, PirServer, SystemSpec};
use privpath_storage::{
    ByteReader, ByteWriter, PagedFile, SnapshotReader, SnapshotWriter, StorageError,
};
use std::path::Path;
use std::sync::Arc;

/// Version byte of the meta blob inside the snapshot container (the
/// container itself carries its own format version). It also versions the
/// page formats of the files the container holds: 2 since `Fi` stores dense
/// edge records and packed spans, so a snapshot of an older layout is
/// refused at open, not misread at query time.
const META_VERSION: u8 = 2;

/// Scheme-extras discriminators inside the meta blob.
const STATE_INDEX: u8 = 1;
const STATE_LM: u8 = 2;
const STATE_AF: u8 = 3;

/// Which page driver a reopened snapshot serves through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageBackend {
    /// Load every file into memory up front (verifying all page checksums
    /// at load). Serving is then identical to a freshly built database.
    Mem,
    /// Serve pages lazily from the snapshot file through a checksum-
    /// verifying reader: every page read is validated against the manifest
    /// CRC before it reaches an oblivious store.
    Disk,
    /// Serve pages from a read-only memory mapping of the snapshot file
    /// (buffered fallback on targets without mappings), through the same
    /// checksum-verifying reader as [`StorageBackend::Disk`]. Observable
    /// behavior is identical to the disk backend; only the run reads come
    /// out of the mapping instead of positioned syscalls.
    Mmap,
}

impl StorageBackend {
    /// The `--storage` flag spelling of this backend.
    pub fn name(self) -> &'static str {
        match self {
            StorageBackend::Mem => "mem",
            StorageBackend::Disk => "disk",
            StorageBackend::Mmap => "mmap",
        }
    }
}

fn corrupt(msg: impl Into<String>) -> CoreError {
    CoreError::Storage(StorageError::Corrupt(msg.into()))
}

fn encode_spec(w: &mut ByteWriter, spec: &SystemSpec) {
    w.u32(spec.page_size as u32);
    w.f64(spec.disk_seek_s);
    w.f64(spec.disk_rate_bps);
    w.f64(spec.scp_io_rate_bps);
    w.f64(spec.crypto_rate_bps);
    w.f64(spec.comm_rtt_s);
    w.f64(spec.comm_rate_bps);
    w.u64(spec.scp_memory_bytes);
    w.f64(spec.scp_mem_factor);
    w.f64(spec.pir_fixed_ops);
    w.f64(spec.pir_ops_per_log2sq);
}

fn decode_spec(r: &mut ByteReader) -> std::result::Result<SystemSpec, StorageError> {
    Ok(SystemSpec {
        page_size: r.u32()? as usize,
        disk_seek_s: r.f64()?,
        disk_rate_bps: r.f64()?,
        scp_io_rate_bps: r.f64()?,
        crypto_rate_bps: r.f64()?,
        comm_rtt_s: r.f64()?,
        comm_rate_bps: r.f64()?,
        scp_memory_bytes: r.u64()?,
        scp_mem_factor: r.f64()?,
        pir_fixed_ops: r.f64()?,
        pir_ops_per_log2sq: r.f64()?,
    })
}

fn encode_stats(w: &mut ByteWriter, st: &BuildStats) {
    w.u32(st.regions);
    w.u32(st.borders);
    w.u32(st.m);
    w.u32(st.index_span);
    w.f64(st.fd_utilization);
    w.u32(st.pages.0);
    w.u32(st.pages.1);
    w.u32(st.pages.2);
    w.u32(st.s_histogram.len() as u32);
    for &(card, count) in &st.s_histogram {
        w.u64(card as u64);
        w.u64(count as u64);
    }
}

fn decode_stats(r: &mut ByteReader) -> std::result::Result<BuildStats, StorageError> {
    let regions = r.u32()?;
    let borders = r.u32()?;
    let m = r.u32()?;
    let index_span = r.u32()?;
    let fd_utilization = r.f64()?;
    let pages = (r.u32()?, r.u32()?, r.u32()?);
    let n = r.u32()? as usize;
    // each histogram bucket is 16 bytes; reject counts the payload can't hold
    if n > r.remaining() / 16 {
        return Err(StorageError::Corrupt(format!(
            "snapshot meta claims {n} histogram buckets in {} bytes",
            r.remaining()
        )));
    }
    let mut s_histogram = Vec::with_capacity(n);
    for _ in 0..n {
        s_histogram.push((r.u64()? as usize, r.u64()? as usize));
    }
    Ok(BuildStats {
        regions,
        borders,
        m,
        index_span,
        fd_utilization,
        pages,
        s_histogram,
        stage_s: StageBreakdown::default(),
    })
}

/// Scheme extras the files alone cannot reproduce.
enum StateMeta {
    Index {
        scheme_byte: u8,
        flavor: IndexFlavor,
        header_file: FileId,
        lookup_file: FileId,
        index_file: FileId,
        data_file: FileId,
    },
    Baseline {
        flavor: BaselineFlavor,
        header_file: FileId,
        data_file: FileId,
        max_regions: u32,
        pages_per_region: u32,
    },
}

fn encode_state(w: &mut ByteWriter, state: &SchemeState) -> Result<()> {
    match state {
        SchemeState::Index(s) => {
            w.u8(STATE_INDEX);
            w.u8(s.scheme_byte);
            match s.flavor {
                IndexFlavor::Sets => {
                    w.u8(0);
                }
                IndexFlavor::Graphs => {
                    w.u8(1);
                }
                IndexFlavor::Hybrid { threshold } => {
                    w.u8(2);
                    w.u64(threshold as u64);
                }
            }
            w.u16(s.header_file.0);
            w.u16(s.lookup_file.0);
            w.u16(s.index_file.0);
            w.u16(s.data_file.0);
        }
        SchemeState::Baseline(s) => {
            let tag = match s.flavor {
                BaselineFlavor::Lm => STATE_LM,
                BaselineFlavor::Af => STATE_AF,
            };
            w.u8(tag);
            w.u16(s.header_file.0);
            w.u16(s.data_file.0);
            w.u32(s.max_regions);
            // LM's encoding has no page-group field: it is always one page
            if s.flavor == BaselineFlavor::Af {
                w.u32(s.pages_per_region);
            }
        }
        SchemeState::Obf(_) => {
            return Err(CoreError::Build(
                "OBF databases cannot be snapshotted: the scheme serves no PIR files \
                 (the LBS keeps the plaintext network)"
                    .into(),
            ))
        }
    }
    Ok(())
}

fn decode_state(r: &mut ByteReader) -> std::result::Result<StateMeta, StorageError> {
    match r.u8()? {
        STATE_INDEX => {
            let scheme_byte = r.u8()?;
            let flavor = match r.u8()? {
                0 => IndexFlavor::Sets,
                1 => IndexFlavor::Graphs,
                2 => IndexFlavor::Hybrid {
                    threshold: r.u64()? as usize,
                },
                t => {
                    return Err(StorageError::Corrupt(format!(
                        "snapshot meta: unknown index flavor tag {t}"
                    )))
                }
            };
            Ok(StateMeta::Index {
                scheme_byte,
                flavor,
                header_file: FileId(r.u16()?),
                lookup_file: FileId(r.u16()?),
                index_file: FileId(r.u16()?),
                data_file: FileId(r.u16()?),
            })
        }
        tag @ (STATE_LM | STATE_AF) => Ok(StateMeta::Baseline {
            flavor: if tag == STATE_LM {
                BaselineFlavor::Lm
            } else {
                BaselineFlavor::Af
            },
            header_file: FileId(r.u16()?),
            data_file: FileId(r.u16()?),
            max_regions: r.u32()?,
            pages_per_region: if tag == STATE_AF { r.u32()? } else { 1 },
        }),
        t => Err(StorageError::Corrupt(format!(
            "snapshot meta: unknown scheme-state tag {t}"
        ))),
    }
}

struct Meta {
    kind: SchemeKind,
    seed: u64,
    spec: SystemSpec,
    stats: BuildStats,
    state: StateMeta,
}

fn encode_meta(db: &Database) -> Result<Vec<u8>> {
    let mut w = ByteWriter::new();
    w.u8(META_VERSION);
    w.u8(db.kind.byte());
    w.u64(db.seed);
    encode_spec(&mut w, db.server.spec());
    encode_stats(&mut w, &db.stats);
    encode_state(&mut w, &db.state)?;
    Ok(w.into_vec())
}

fn decode_meta(bytes: &[u8]) -> Result<Meta> {
    let mut r = ByteReader::new(bytes);
    let inner = (|| -> std::result::Result<Meta, StorageError> {
        let version = r.u8()?;
        if version != META_VERSION {
            return Err(StorageError::UnsupportedVersion {
                what: "snapshot meta",
                found: version.into(),
                supported: META_VERSION.into(),
            });
        }
        let kind_byte = r.u8()?;
        let kind = SchemeKind::from_byte(kind_byte).ok_or_else(|| {
            StorageError::Corrupt(format!("snapshot meta: unknown scheme byte {kind_byte}"))
        })?;
        let seed = r.u64()?;
        let spec = decode_spec(&mut r)?;
        let stats = decode_stats(&mut r)?;
        let state = decode_state(&mut r)?;
        if r.remaining() != 0 {
            return Err(StorageError::Corrupt(format!(
                "snapshot meta: {} trailing bytes",
                r.remaining()
            )));
        }
        Ok(Meta {
            kind,
            seed,
            spec,
            stats,
            state,
        })
    })();
    inner.map_err(CoreError::Storage)
}

/// Reads the whole `Fh` file through its registered driver and parses the
/// public header — the same unseal path a client's full download takes, so
/// a snapshot whose header pages were tampered with fails here with a typed
/// checksum error instead of producing a bogus plan.
fn parse_header(server: &PirServer, f: FileId) -> Result<Header> {
    let driver = server.file_driver(f)?;
    let mut raw = Vec::with_capacity(driver.size_bytes() as usize);
    for p in 0..driver.num_pages() {
        raw.extend_from_slice(driver.read_page(p)?.as_slice());
    }
    let payload = crate::files::unseal_download(&raw, server.spec().page_size)?;
    Header::parse(&payload)
}

fn check_file(server: &PirServer, f: FileId, what: &str) -> Result<()> {
    if (f.0 as usize) < server.num_files() {
        Ok(())
    } else {
        Err(corrupt(format!(
            "snapshot meta names {what} file id {} but only {} files are present",
            f.0,
            server.num_files()
        )))
    }
}

impl Database {
    /// Persists this built database as one snapshot file at `path`,
    /// atomically (temp file + fsync + rename): a crash mid-write leaves
    /// either the previous snapshot or none, never a torn one.
    ///
    /// Rejected with a typed error: OBF databases (no PIR files),
    /// externally-injected stores, and fault-injection modes.
    pub fn persist(&self, path: &Path) -> Result<()> {
        self.persist_with_meta(path, encode_meta(self)?)
    }

    fn persist_with_meta(&self, path: &Path, meta: Vec<u8>) -> Result<()> {
        let mut w = SnapshotWriter::new(meta);
        for i in 0..self.server.num_files() {
            let f = FileId(i as u16);
            let name = self.server.file_name(f).map_err(CoreError::Pir)?;
            let mode = self
                .server
                .file_mode(f)
                .map_err(CoreError::Pir)?
                .ok_or_else(|| {
                    CoreError::Build(format!(
                        "file {name} is served by an externally-injected store; \
                         snapshots require a registered PIR mode"
                    ))
                })?;
            let blob = mode.to_blob().ok_or_else(|| {
                CoreError::Build(format!(
                    "file {name} uses a fault-injection PIR mode, which is not persistable"
                ))
            })?;
            let driver = self.server.file_driver(f).map_err(CoreError::Pir)?;
            w.add_file(name, blob, driver);
        }
        w.write(path).map_err(CoreError::Storage)
    }

    /// Reopens a snapshot written by [`Database::persist`] as a servable
    /// database, with pages served per `backend`. File ids reproduce
    /// deterministically (registration order is recorded order), the public
    /// header is re-parsed through the normal unseal path, and every
    /// structural defect — truncation, bit flips, a meta blob for an
    /// unknown scheme — surfaces as a typed error, never a panic.
    pub fn open_snapshot(path: &Path, backend: StorageBackend) -> Result<Database> {
        let snap = SnapshotReader::open(path).map_err(CoreError::Storage)?;
        let meta = decode_meta(snap.meta())?;
        let mut server = PirServer::new(meta.spec.clone());
        for (i, entry) in snap.entries().iter().enumerate() {
            let mode = PirMode::from_blob(&entry.mode_blob).map_err(CoreError::Storage)?;
            let driver: Arc<dyn PagedFile> = match backend {
                StorageBackend::Mem => Arc::new(snap.load_mem(i).map_err(CoreError::Storage)?),
                StorageBackend::Disk => Arc::new(snap.open_disk(i).map_err(CoreError::Storage)?),
                StorageBackend::Mmap => Arc::new(snap.open_mmap(i).map_err(CoreError::Storage)?),
            };
            let fid = server
                .add_file_with_driver(&entry.name, driver, mode)
                .map_err(CoreError::Pir)?;
            debug_assert_eq!(fid.0 as usize, i, "file ids are registration order");
        }
        let state = match meta.state {
            StateMeta::Index {
                scheme_byte,
                flavor,
                header_file,
                lookup_file,
                index_file,
                data_file,
            } => {
                for (f, what) in [
                    (header_file, "header"),
                    (lookup_file, "lookup"),
                    (index_file, "index"),
                    (data_file, "data"),
                ] {
                    check_file(&server, f, what)?;
                }
                if scheme_byte != meta.kind.byte() {
                    return Err(corrupt(format!(
                        "snapshot meta scheme byte {scheme_byte} disagrees with kind {}",
                        meta.kind.name()
                    )));
                }
                let header = parse_header(&server, header_file)?;
                SchemeState::Index(IndexScheme {
                    scheme_byte,
                    flavor,
                    header,
                    header_file,
                    lookup_file,
                    index_file,
                    data_file,
                })
            }
            StateMeta::Baseline {
                flavor,
                header_file,
                data_file,
                max_regions,
                pages_per_region,
            } => {
                check_file(&server, header_file, "header")?;
                check_file(&server, data_file, "data")?;
                let header = parse_header(&server, header_file)?;
                SchemeState::Baseline(BaselineScheme {
                    flavor,
                    header,
                    header_file,
                    data_file,
                    max_regions,
                    pages_per_region,
                })
            }
        };
        Ok(Database {
            kind: meta.kind,
            server,
            state,
            stats: meta.stats,
            seed: meta.seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BuildConfig;
    use privpath_graph::gen::{grid_network, GridGenConfig};
    use privpath_graph::network::RoadNetwork;

    fn net() -> RoadNetwork {
        grid_network(&GridGenConfig {
            nx: 4,
            ny: 4,
            ..Default::default()
        })
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d =
            std::env::temp_dir().join(format!("privpath-core-snap-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// AF at 512-byte pages on an 8x8 grid split in two: several pages per
    /// region, so the shared LM/AF driver's multi-page path runs.
    fn af_multi_page() -> (RoadNetwork, BuildConfig) {
        let net = grid_network(&GridGenConfig {
            nx: 8,
            ny: 8,
            ..Default::default()
        });
        let mut cfg = BuildConfig::default();
        cfg.spec.page_size = 512;
        cfg.af_regions = 2;
        (net, cfg)
    }

    #[test]
    fn persist_reopen_round_trip_answers_identically() {
        let dir = tmpdir("roundtrip");
        let (af_net, af_cfg) = af_multi_page();
        for (kind, n, cfg) in [
            (SchemeKind::Ci, net(), BuildConfig::default()),
            (SchemeKind::Lm, net(), BuildConfig::default()),
            (SchemeKind::Af, af_net, af_cfg),
        ] {
            let db = Arc::new(Database::build(&n, kind, &cfg).unwrap());
            if kind == SchemeKind::Af {
                let ppr = db.header().unwrap().cluster_pages;
                assert!(ppr >= 2, "AF built {ppr} page(s) per region");
            }
            let path = dir.join(format!("{}.snap", kind.name().replace('*', "s")));
            db.persist(&path).unwrap();
            let last = n.num_nodes() as u32 - 1;
            let want = db.session_with_seed(11).query_nodes(&n, 0, last).unwrap();
            for backend in [
                StorageBackend::Mem,
                StorageBackend::Disk,
                StorageBackend::Mmap,
            ] {
                let re = Arc::new(Database::open_snapshot(&path, backend).unwrap());
                assert_eq!(re.kind(), kind);
                assert_eq!(re.stats().regions, db.stats().regions);
                assert_eq!(re.db_bytes(), db.db_bytes());
                assert_eq!(re.plan(), db.plan());
                let got = re.session_with_seed(11).query_nodes(&n, 0, last).unwrap();
                assert_eq!(got.answer.cost, want.answer.cost);
                assert_eq!(got.answer.path_nodes, want.answer.path_nodes);
                assert_eq!(got.trace, want.trace, "{} {:?}", kind.name(), backend);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// LM's scheme state encodes as tag + header file + data file + budget
    /// (9 bytes) and AF's as the same + pages per region (13 bytes) — the
    /// layouts existing snapshots carry, and part of `snapshot_bytes` — and
    /// each decodes back to its budget and page group.
    #[test]
    fn baseline_state_encodings_are_pinned() {
        let (af_net, af_cfg) = af_multi_page();
        for (kind, n, cfg, tag) in [
            (SchemeKind::Lm, net(), BuildConfig::default(), STATE_LM),
            (SchemeKind::Af, af_net, af_cfg, STATE_AF),
        ] {
            let db = Database::build(&n, kind, &cfg).unwrap();
            let SchemeState::Baseline(s) = &db.state else {
                panic!("{} is not a baseline", kind.name());
            };
            let mut want = vec![tag];
            want.extend_from_slice(&s.header_file.0.to_le_bytes());
            want.extend_from_slice(&s.data_file.0.to_le_bytes());
            want.extend_from_slice(&s.max_regions.to_le_bytes());
            if kind == SchemeKind::Af {
                assert!(s.pages_per_region >= 2);
                want.extend_from_slice(&s.pages_per_region.to_le_bytes());
            }
            assert_eq!(want.len(), if kind == SchemeKind::Lm { 9 } else { 13 });
            let mut w = ByteWriter::new();
            encode_state(&mut w, &db.state).unwrap();
            assert_eq!(w.as_slice(), &want[..], "{} state encoding", kind.name());

            let mut r = ByteReader::new(&want);
            let StateMeta::Baseline {
                flavor,
                max_regions,
                pages_per_region,
                ..
            } = decode_state(&mut r).unwrap()
            else {
                panic!("{} decoded to another state", kind.name());
            };
            assert_eq!(r.remaining(), 0);
            assert_eq!(flavor, s.flavor);
            assert_eq!(max_regions, s.max_regions);
            assert_eq!(pages_per_region, s.pages_per_region);
        }
    }

    /// A snapshot is a pure function of the network and the build
    /// configuration: two builds persist the same bytes, for CI and for
    /// PI (whose `Fi` carries records across pages).
    #[test]
    fn two_builds_persist_identical_snapshots() {
        let dir = tmpdir("reproducible");
        let n = privpath_graph::gen::road_like(&privpath_graph::gen::RoadGenConfig {
            nodes: 600,
            seed: 21,
            ..Default::default()
        });
        let mut cfg = BuildConfig::default();
        cfg.spec.page_size = 512;
        for kind in [SchemeKind::Ci, SchemeKind::Pi] {
            let snaps: Vec<Vec<u8>> = (0..2)
                .map(|k| {
                    let db = Database::build(&n, kind, &cfg).unwrap();
                    assert_eq!(db.stats().index_span > 1, kind == SchemeKind::Pi);
                    let path = dir.join(format!("{}-{k}.snap", kind.name()));
                    db.persist(&path).unwrap();
                    std::fs::read(&path).unwrap()
                })
                .collect();
            assert!(snaps[0] == snaps[1], "{} snapshots differ", kind.name());
            let reopened = Database::open_snapshot(
                &dir.join(format!("{}-0.snap", kind.name())),
                StorageBackend::Mem,
            )
            .unwrap();
            assert_eq!(reopened.stats().stage_s, StageBreakdown::default());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A snapshot whose meta carries the previous version — written before
    /// `Fi` stored dense records — is refused at open with the typed
    /// version error, not read with the wrong decoder at query time.
    #[test]
    fn previous_meta_version_is_refused_at_open() {
        let dir = tmpdir("old-version");
        let path = dir.join("pi.snap");
        let db = Database::build(&net(), SchemeKind::Pi, &BuildConfig::default()).unwrap();
        let mut meta = encode_meta(&db).unwrap();
        assert_eq!(meta[0], META_VERSION);
        meta[0] = META_VERSION - 1;
        db.persist_with_meta(&path, meta).unwrap();
        for backend in [
            StorageBackend::Mem,
            StorageBackend::Disk,
            StorageBackend::Mmap,
        ] {
            match Database::open_snapshot(&path, backend) {
                Err(CoreError::Storage(StorageError::UnsupportedVersion {
                    what: "snapshot meta",
                    found: 1,
                    supported: 2,
                })) => {}
                Err(other) => panic!("{backend:?}: {other}"),
                Ok(_) => panic!("{backend:?}: an old snapshot opened"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn obf_is_rejected_with_a_typed_error() {
        let n = net();
        let db = Database::build(&n, SchemeKind::Obf, &BuildConfig::default()).unwrap();
        let dir = tmpdir("obf");
        let err = db.persist(&dir.join("obf.snap")).unwrap_err();
        assert!(matches!(err, CoreError::Build(_)), "{err}");
        assert!(err.to_string().contains("OBF"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn meta_tampering_is_typed_never_panics() {
        let n = net();
        let db = Database::build(&n, SchemeKind::Ci, &BuildConfig::default()).unwrap();
        let dir = tmpdir("tamper");
        let path = dir.join("ci.snap");
        db.persist(&path).unwrap();
        let good = std::fs::read(&path).unwrap();
        // flip one bit at a spread of offsets; every outcome must be a
        // typed error or (for data-page flips under Mem load) PageCorrupt
        for off in (0..good.len()).step_by(good.len() / 64 + 1) {
            let mut bad = good.clone();
            bad[off] ^= 0x10;
            std::fs::write(&path, &bad).unwrap();
            match Database::open_snapshot(&path, StorageBackend::Mem) {
                Ok(_) => {} // flip landed in slack the format does not cover
                Err(CoreError::Storage(_)) | Err(CoreError::Pir(_)) | Err(CoreError::Query(_)) => {}
                Err(other) => panic!("unexpected error class at offset {off}: {other}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
