//! Driver differential: every `PagedFile` backend serves bit-identical
//! bytes for every read shape.
//!
//! The scan kernel streams files through one run primitive, `read_run`,
//! which a driver serves by filling the caller's scratch (`DiskFile`) or by
//! lending bytes it already holds (`MemFile`, `MmapFile`), and its copy-out
//! `read_run_into`. This suite pins the driver contract the leakage argument
//! assumes: `MemFile` ≡ `DiskFile` ≡ `MmapFile` ≡ their
//! `ChecksumFile`-wrapped forms, for single pages, page-into reads, and
//! runs of every alignment (run boundaries, the zero-length run, and the
//! partial run ending exactly at the last page), lent or filled, with
//! identical typed errors past the end — and for several threads reading
//! one handle at once, as the page-range passes of a sharded sweep do. The
//! sweep's own primitive, `select_run`, is held to `read_run` followed by a
//! masked select of each page, whichever way the run is served and whether
//! the wrapper verifies it in the same pass or not.

use privpath_storage::{
    crc32, ChecksumFile, DiskFile, MemFile, MmapFile, PageBuf, PagedFile, RunSink, StorageError,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("privpath-driver-diff-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Builds all six drivers over the same persisted content.
fn drivers(
    dir: &std::path::Path,
    bytes: &[u8],
    page_size: usize,
) -> Vec<(&'static str, Arc<dyn PagedFile>)> {
    let mem = MemFile::from_bytes(bytes, page_size);
    let path = dir.join("f.bin");
    mem.persist(&path).unwrap();
    let crcs: Vec<u32> = (0..mem.num_pages())
        .map(|p| crc32(mem.page(p).unwrap()))
        .collect();
    let disk = DiskFile::open(&path, page_size).unwrap();
    let mapped = MmapFile::open(&path, page_size).unwrap();
    vec![
        ("mem", Arc::new(mem.clone()) as Arc<dyn PagedFile>),
        ("disk", Arc::new(disk)),
        ("mmap", Arc::new(mapped)),
        (
            "crc(mem)",
            Arc::new(ChecksumFile::new("F", Arc::new(mem.clone()), crcs.clone())),
        ),
        (
            "crc(disk)",
            Arc::new(ChecksumFile::new(
                "F",
                Arc::new(DiskFile::open(&path, page_size).unwrap()),
                crcs.clone(),
            )),
        ),
        (
            "crc(mmap)",
            Arc::new(ChecksumFile::new(
                "F",
                Arc::new(MmapFile::open(&path, page_size).unwrap()),
                crcs,
            )),
        ),
    ]
}

/// The slots of one `select_run`: page `first + i` is selected under
/// `masks[i]` into `accs[i]`; the pages reported selected are recorded.
struct Slots {
    first: u32,
    masks: Vec<u64>,
    accs: Vec<Vec<u8>>,
    selected: Vec<u32>,
}

impl Slots {
    /// Slots for `count` pages from `first`, masks and prior accumulator
    /// bytes (the select ORs) following `seed`.
    fn new(first: u32, count: u32, page_size: usize, seed: u64) -> Self {
        let noise = |i: usize| (seed.rotate_left(i as u32 % 64) ^ (i as u64 * 0x2545_F491)) as u8;
        Slots {
            first,
            masks: (0..count)
                .map(|i| ((seed >> (i % 64)) & 1).wrapping_neg())
                .collect(),
            accs: (0..count as usize)
                .map(|i| (0..page_size).map(|b| noise(i * page_size + b)).collect())
                .collect(),
            selected: Vec::new(),
        }
    }

    /// What selecting `run` (the run's bytes) into these slots must leave.
    fn expected(&self, run: &[u8]) -> Vec<Vec<u8>> {
        let pages = self.accs.iter().zip(&self.masks).enumerate();
        pages
            .map(|(i, (acc, &m))| {
                let page = &run[i * acc.len()..][..acc.len()];
                acc.iter()
                    .zip(page)
                    .map(|(a, b)| a | (b & m as u8))
                    .collect()
            })
            .collect()
    }
}

impl RunSink for Slots {
    fn slot(&mut self, page: u32) -> (u64, &mut [u8]) {
        let i = (page - self.first) as usize;
        (self.masks[i], &mut self.accs[i])
    }

    fn selected(&mut self, page: u32) {
        self.selected.push(page);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn all_drivers_serve_identical_bytes(
        pages in 1u32..12,
        page_size_sel in 0usize..5,
        seed in any::<u64>(),
        first in 0u32..14,
        count in 0u32..14,
    ) {
        // 300 and 4,096 bytes reach the wide fold (and 300 its tail)
        let page_size = [32usize, 64, 96, 300, 4096][page_size_sel];
        let len = pages as usize * page_size;
        let bytes: Vec<u8> = (0..len)
            .map(|i| (seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64) >> 7) as u8)
            .collect();
        let dir = temp_dir("prop");
        let reference = MemFile::from_bytes(&bytes, page_size);

        for (name, f) in drivers(&dir, &bytes, page_size) {
            prop_assert_eq!(f.num_pages(), pages, "{}", name);
            prop_assert_eq!(f.page_size(), page_size, "{}", name);

            // single-page reads, both shapes
            let mut buf = PageBuf::zeroed(page_size);
            for p in 0..pages {
                let got = f.read_page(p).unwrap();
                prop_assert_eq!(got.as_slice(), reference.page(p).unwrap(), "{} page {}", name, p);
                f.read_page_into(p, &mut buf).unwrap();
                prop_assert_eq!(buf.as_slice(), reference.page(p).unwrap(), "{} into {}", name, p);
            }
            prop_assert!(matches!(
                f.read_page(pages),
                Err(StorageError::PageOutOfRange { .. })
            ), "{}", name);

            // the sampled run window: in-range must match the reference
            // bytes exactly, out-of-range must be the typed error
            let mut run = vec![0xAAu8; count as usize * page_size];
            let in_range = u64::from(first) + u64::from(count) <= u64::from(pages);
            let res = f.read_run_into(first, &mut run);
            if count == 0 {
                prop_assert!(res.is_ok(), "{}: empty run always succeeds", name);
            } else if in_range {
                res.unwrap();
                for i in 0..count {
                    prop_assert_eq!(
                        &run[i as usize * page_size..(i as usize + 1) * page_size],
                        reference.page(first + i).unwrap(),
                        "{} run ({}, {}) page {}", name, first, count, i
                    );
                }
            } else {
                prop_assert!(
                    matches!(res, Err(StorageError::PageOutOfRange { .. })),
                    "{} run ({}, {}) past the end must be typed", name, first, count
                );
            }

            // the partial run ending exactly at the last page
            if pages > 1 {
                let tail_first = pages - 1;
                let mut tail = vec![0u8; page_size];
                f.read_run_into(tail_first, &mut tail).unwrap();
                prop_assert_eq!(&tail[..], reference.page(tail_first).unwrap(), "{} tail", name);
            }

            // the run primitive itself: lent by the drivers that hold the
            // bytes (checksum-wrapped or not), filled by the others, and
            // either way the reference bytes; a lent run leaves the scratch
            // alone
            if count > 0 && in_range {
                let mut scratch = vec![0xAAu8; count as usize * page_size];
                let lent = f.read_run(first, &mut scratch).unwrap();
                let lends = !name.contains("disk");
                prop_assert_eq!(lent.is_some(), lends, "{} lends", name);
                let at = first as usize * page_size;
                let want = &bytes[at..at + scratch.len()];
                match lent {
                    Some(run) => {
                        prop_assert_eq!(run, want, "{} lent run ({}, {})", name, first, count);
                        prop_assert!(scratch.iter().all(|&b| b == 0xAA), "{} scratch", name);
                    }
                    None => {
                        prop_assert_eq!(&scratch[..], want, "{} filled run ({}, {})", name, first, count)
                    }
                }

                // the sweep's primitive: `read_run`, then each page OR-ed
                // under its mask into its slot, every page reported selected
                // in file order
                let mut slots = Slots::new(first, count, page_size, seed);
                let expected = slots.expected(want);
                f.select_run(first, &mut scratch, &mut slots).unwrap();
                prop_assert_eq!(&slots.accs, &expected, "{} select_run ({}, {})", name, first, count);
                prop_assert_eq!(slots.selected, (first..first + count).collect::<Vec<_>>(), "{}", name);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Concurrent readers of one driver each get the bytes a lone reader gets:
/// disjoint runs (the shards of one sweep) and overlapping ones (two sweeps
/// of one file), bare and checksum-wrapped. `DiskFile` is the driver with
/// something to lose here — a shared cursor would hand a thread another
/// thread's bytes — so it reads by position.
#[test]
fn concurrent_readers_get_the_bytes_a_lone_reader_gets() {
    const THREADS: u32 = 4;
    const PAGE: usize = 64;
    let pages = THREADS * 40 + 3;
    let bytes: Vec<u8> = (0..pages as usize * PAGE)
        .map(|i| (i * 131 % 251) as u8)
        .collect();
    let dir = temp_dir("concurrent");
    for (name, f) in drivers(&dir, &bytes, PAGE) {
        // no thread starts reading before all of them can
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (f, bytes, start) = (&f, &bytes, &start);
                scope.spawn(move || {
                    let own = t * 40..(t + 1) * 40;
                    // straddles this thread's range and both neighbours'
                    let shared = own.start.saturating_sub(20)..(own.end + 20).min(pages);
                    let mut run = vec![0u8; 80 * PAGE];
                    let mut page = PageBuf::zeroed(PAGE);
                    start.wait();
                    for _ in 0..50 {
                        for r in [own.clone(), shared.clone(), 0..pages.min(80)] {
                            let want = &bytes[r.start as usize * PAGE..r.end as usize * PAGE];
                            let got = &mut run[..want.len()];
                            f.read_run_into(r.start, got).unwrap();
                            assert_eq!(got, want, "{name}: thread {t} run {r:?}");
                        }
                        let p = own.start + 7;
                        f.read_page_into(p, &mut page).unwrap();
                        let at = p as usize * PAGE;
                        assert_eq!(page.as_slice(), &bytes[at..at + PAGE], "{name}: page {p}");
                    }
                });
            }
        });
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The checksum wrapper never exposes unverified bytes, whatever the inner
/// driver and whether it lends or fills: over a file with a flipped bit and
/// the clean CRC table, every run that covers the bad page is refused, and
/// the runs either side of it are served. Selecting such a run fails on the
/// bad page and reports no page from it on selected — at a page size the
/// wide fold takes too, where verifying and selecting are one pass.
#[test]
fn checksum_wrapper_never_exposes_contiguous() {
    let dir = temp_dir("noexpose");
    for ps in [64usize, 4096] {
        let bytes: Vec<u8> = (0..4 * ps).map(|i| (i % 251) as u8).collect();
        let crcs: Vec<u32> = bytes.chunks_exact(ps).map(crc32).collect();
        let mut rotten = bytes.clone();
        rotten[2 * ps + 17] ^= 0x04;
        for (name, inner) in drivers(&dir, &rotten, ps) {
            if name.starts_with("crc") {
                continue;
            }
            let guarded = ChecksumFile::new("F", Arc::clone(&inner), crcs.clone());
            let mut scratch = vec![0u8; 2 * ps];
            // the bare driver serves the flipped bit ...
            let raw = inner.read_run(1, &mut scratch).unwrap().map(<[u8]>::to_vec);
            assert_eq!(raw.unwrap_or_else(|| scratch.clone()), &rotten[ps..3 * ps]);
            // ... the guard serves no run that holds it
            for first in [1u32, 2] {
                let run = &mut scratch[..(3 - first as usize) * ps];
                match guarded.read_run(first, run) {
                    Err(StorageError::PageCorrupt { page: 2, .. }) => {}
                    other => panic!("crc({name}) run at {first}: want PageCorrupt, got {other:?}"),
                }
                let mut slots = Slots::new(first, 3 - first, ps, 0x5EED);
                match guarded.select_run(first, run, &mut slots) {
                    Err(StorageError::PageCorrupt { page: 2, .. }) => {}
                    other => {
                        panic!("crc({name}) select at {first}: want PageCorrupt, got {other:?}")
                    }
                }
                assert_eq!(
                    slots.selected,
                    (first..2).collect::<Vec<_>>(),
                    "crc({name})"
                );
            }
            let mut two = vec![0u8; 2 * ps];
            guarded.read_run_into(0, &mut two).unwrap();
            assert_eq!(two, &bytes[..2 * ps], "crc({name})");
            guarded.read_run_into(3, &mut two[..ps]).unwrap();
            assert_eq!(&two[..ps], &bytes[3 * ps..], "crc({name})");
            let mut slots = Slots::new(0, 2, ps, 0x5EED);
            let expected = slots.expected(&bytes[..2 * ps]);
            guarded.select_run(0, &mut two, &mut slots).unwrap();
            assert_eq!(slots.accs, expected, "crc({name})");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The mmap driver either really maps (Linux) or transparently falls back —
/// and tells the truth about which happened.
#[test]
fn mmap_reports_its_backing() {
    let dir = temp_dir("backing");
    let path = dir.join("f.bin");
    MemFile::from_bytes(&[3u8; 2 * 64], 64)
        .persist(&path)
        .unwrap();
    let f = MmapFile::open(&path, 64).unwrap();
    assert_eq!(f.is_mapped(), sysmap_supported());
    std::fs::remove_dir_all(&dir).ok();
}

fn sysmap_supported() -> bool {
    cfg!(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))
}
