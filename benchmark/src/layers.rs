//! Direct calls into the scan, driver and checksum layers over the
//! workload's largest file, outside any query: what each layer can do
//! alone, to set beside what a sweep costs inside the server.

use crate::stats::median;
use crate::Res;
use privpath_core::Database;
use privpath_pir::{FileId, LinearScanStore, ObliviousStore};
use privpath_storage::{crc32, ChecksumFile, DiskFile, MemFile, MmapFile, PageBuf, PagedFile};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const WARM_UPS: usize = 4;
const REPEATS: usize = 25;
/// Pages per driver call, as the scan kernel streams them (`scan::RUN_PAGES`).
const RUN_PAGES: usize = 64;

/// Seconds one pass over the file takes in each layer.
pub struct LayerRates {
    pub file_name: String,
    pub file_pages: u32,
    pub file_bytes: u64,
    pub kernel_s: f64,
    pub mem_read_s: f64,
    pub disk_read_s: f64,
    pub mmap_read_s: f64,
    pub crc32_s: f64,
    /// `ChecksumFile` over the mmap driver: driver copy + per-page CRC.
    pub checksum_run_s: f64,
}

impl LayerRates {
    pub fn gbps(&self, seconds: f64) -> f64 {
        self.file_bytes as f64 / seconds / 1e9
    }
}

fn median_seconds(mut pass: impl FnMut() -> Res<()>) -> Res<f64> {
    for _ in 0..WARM_UPS {
        pass()?;
    }
    let mut times = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let t = Instant::now();
        pass()?;
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&times))
}

fn read_all(driver: &dyn PagedFile, run: &mut [u8]) -> Res<()> {
    let ps = driver.page_size();
    let mut first = 0u32;
    while first < driver.num_pages() {
        let n = RUN_PAGES.min((driver.num_pages() - first) as usize);
        driver.read_run_into(first, &mut run[..n * ps])?;
        black_box(&mut run[..n * ps]);
        first += n as u32;
    }
    Ok(())
}

pub fn largest_file(db: &Database) -> Res<FileId> {
    let server = db.server();
    let mut best = (FileId(0), 0u32);
    for i in 0..server.num_files() {
        let f = FileId(i as u16);
        let pages = server.file_pages(f)?;
        if pages > best.1 {
            best = (f, pages);
        }
    }
    Ok(best.0)
}

/// Measures every layer over a raw copy of file `f` of `db`, with scan
/// batches of `round_size` pages. The copy lives in `dir`.
pub fn measure(db: &Database, f: FileId, round_size: usize, dir: &Path) -> Res<LayerRates> {
    let server = db.server();
    let served = server.file_driver(f)?;
    let (ps, pages) = (served.page_size(), served.num_pages());
    let mut bytes = vec![0u8; served.size_bytes() as usize];
    served.read_run_into(0, &mut bytes)?;
    let raw_path = dir.join("largest.pages");
    std::fs::write(&raw_path, &bytes)?;

    let mem = Arc::new(MemFile::from_bytes(&bytes, ps));
    let disk = DiskFile::open(&raw_path, ps)?;
    let mmap: Arc<dyn PagedFile> = Arc::new(MmapFile::open(&raw_path, ps)?);
    let crcs: Vec<u32> = bytes.chunks_exact(ps).map(crc32).collect();
    let checked = ChecksumFile::new("largest", Arc::clone(&mmap), crcs);

    let mut run = vec![0u8; RUN_PAGES * ps];
    let mem_read_s = median_seconds(|| read_all(&*mem, &mut run))?;
    let disk_read_s = median_seconds(|| read_all(&disk, &mut run))?;
    let mmap_read_s = median_seconds(|| read_all(&*mmap, &mut run))?;
    let checksum_run_s = median_seconds(|| read_all(&checked, &mut run))?;
    let crc32_s = median_seconds(|| {
        for page in bytes.chunks_exact(ps) {
            black_box(crc32(black_box(page)));
        }
        Ok(())
    })?;

    // the same pages every pass: the kernel's work per page is constant
    let k = round_size.max(1);
    let wanted: Vec<u32> = (0..k as u32)
        .map(|i| i * (pages / k as u32).max(1) % pages)
        .collect();
    let mut out = vec![PageBuf::zeroed(ps); k];
    let mut store = LinearScanStore::from_driver(mem);
    let kernel_s = median_seconds(|| {
        store.fetch_batch(black_box(&wanted), &mut out)?;
        black_box(&mut out);
        Ok(())
    })?;
    std::fs::remove_file(&raw_path)?;

    Ok(LayerRates {
        file_name: server.file_name(f)?.to_string(),
        file_pages: pages,
        file_bytes: bytes.len() as u64,
        kernel_s,
        mem_read_s,
        disk_read_s,
        mmap_read_s,
        crc32_s,
        checksum_run_s,
    })
}
