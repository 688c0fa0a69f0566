//! The page store's I/O accounting, pinned.
//!
//! The paper's economics are expressed in page I/O counts and simulated
//! time. There is one page store, [`FileBackend`], and it charges
//! [`IoStats`](aib_storage::IoStats) itself, so the counts cannot depend on
//! where its file lives: every expectation here runs over a directory on the
//! file system and over an in-memory one, and checkpoint flush I/O (`sync`)
//! is charged in neither.

use std::path::PathBuf;
use std::sync::Arc;

use aib_storage::{
    BufferPool, BufferPoolConfig, CostModel, FileBackend, HeapFile, IoSnapshot, MemDir, OsDir,
    PageId, StoreDir, PAGE_SIZE,
};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let mut p = std::env::temp_dir();
        p.push(format!("aib-parity-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A fresh directory on the file system (removed with the guard) and an
/// in-memory one.
fn directories(tag: &str) -> (TempDir, [Arc<dyn StoreDir>; 2]) {
    let tmp = TempDir::new(tag);
    let os: Arc<dyn StoreDir> = Arc::new(OsDir::new(&tmp.0));
    (tmp, [os, Arc::new(MemDir::new())])
}

/// One mixed workload: allocations, single reads/writes, a batched sweep
/// read, a sync, and post-sync traffic. Returns the accounting snapshot at
/// the end.
fn drive(disk: &mut FileBackend) -> IoSnapshot {
    let mut pages = Vec::new();
    for _ in 0..8 {
        pages.push(disk.allocate().unwrap());
    }
    let mut buf = [0u8; PAGE_SIZE];
    for (i, &p) in pages.iter().enumerate() {
        buf[0] = i as u8;
        buf[PAGE_SIZE - 1] = 0xA0 | i as u8;
        disk.write(p, &buf).unwrap();
    }
    // Page-at-a-time reads, including a repeat.
    for &p in pages.iter().take(3) {
        disk.read(p, &mut buf).unwrap();
    }
    disk.read(pages[0], &mut buf).unwrap();
    // A sweep run: one batched request over five consecutive pages.
    let mut bufs = [[0u8; PAGE_SIZE]; 5];
    {
        let mut reqs: Vec<_> = bufs
            .iter_mut()
            .zip(pages.iter().skip(2))
            .map(|(b, &p)| (p, b))
            .collect();
        disk.read_batch(&mut reqs).unwrap();
    }
    for (i, b) in bufs.iter().enumerate() {
        assert_eq!(b[0] as usize, i + 2, "batch read returned wrong page");
    }
    // Checkpoint-style flush: any file I/O here is *not* charged.
    disk.sync().unwrap();
    // Post-sync traffic still is.
    buf[0] = 0xEE;
    disk.write(pages[5], &buf).unwrap();
    disk.read(pages[5], &mut buf).unwrap();
    assert_eq!(buf[0], 0xEE);
    assert_eq!(disk.num_pages(), 8);
    disk.stats().snapshot()
}

#[test]
fn identical_op_sequence_charges_identical_stats() {
    let cost = CostModel {
        read_us: 100,
        write_us: 120,
    };
    let (_tmp, dirs) = directories("stats");
    for dir in dirs {
        let s = drive(&mut FileBackend::open_in(&*dir, "heap.db", cost).unwrap());
        // 8 writes + 1 post-sync write, 4 reads + 5 batched + 1 post-sync
        // read; the batch is five consecutive pages, so one request beside
        // the five single ones.
        assert_eq!(s.page_writes, 9, "{dir:?}");
        assert_eq!(s.page_reads, 10, "{dir:?}");
        assert_eq!(s.read_requests, 6, "{dir:?}");
        assert_eq!(s.simulated_us, 10 * 100 + 9 * 120, "{dir:?}");
    }
}

#[test]
fn zero_cost_model_still_counts_operations() {
    let (_tmp, dirs) = directories("free");
    for dir in dirs {
        let s = drive(&mut FileBackend::open_in(&*dir, "heap.db", CostModel::free()).unwrap());
        assert_eq!(s.simulated_us, 0, "{dir:?}");
        assert_eq!(s.total_io(), 19, "{dir:?}");
    }
}

/// The table sweep — the plain scan and the buffered sweep that skips
/// nothing are this one call — over a heap on `disk` through a pool of
/// `frames` frames. Returns what the sweep visited and was charged.
fn sweep(disk: FileBackend, frames: usize) -> (Vec<(u32, usize)>, IoSnapshot) {
    let pool = BufferPool::new(disk, BufferPoolConfig::lru(frames));
    let heap = HeapFile::new(Arc::clone(&pool));
    for i in 0..400u16 {
        heap.insert(&[(i % 251) as u8; 1000]).unwrap();
    }
    let pages = heap.num_pages();
    assert!(pages >= 48);
    pool.sync().unwrap();
    let before = pool.stats().snapshot();
    let mut seen = Vec::new();
    let shape = heap
        .sweep_read_runs([(0..pages, false)], |ord, _, view| {
            seen.push((ord, view.live_count()));
        })
        .unwrap();
    assert_eq!(shape, (pages, 0));
    (seen, pool.stats().snapshot().since(&before))
}

#[test]
fn table_sweep_charges_identical_stats_on_both_backends() {
    let cost = CostModel {
        read_us: 100,
        write_us: 120,
    };
    let (_tmp, dirs) = directories("sweep");
    // A pool the table fits in (every page a hit), and one an eighth of
    // it. The sweep cannot fit those 7 frames, so its misses recycle one
    // frame (7 frames make one-page batches) at the cold end of the list;
    // the other six keep what the load left in them — the table's last
    // pages — and the sweep hits those when it gets there.
    for (frames, resident) in [(128usize, true), (7, false)] {
        let name = format!("heap-{frames}.db");
        let runs = dirs.iter().map(|dir| {
            let disk = FileBackend::open_in(&**dir, &name, cost).unwrap();
            sweep(disk, frames)
        });
        let runs: Vec<_> = runs.collect();
        let (seen, s) = &runs[0];
        assert_eq!(runs[1], runs[0], "{frames} frames: same pages, same charge");
        let pages = seen.len() as u64;
        let hits = if resident { pages } else { 6 };
        assert_eq!(
            (s.buffer_hits, s.page_reads, s.simulated_us),
            (hits, pages - hits, (pages - hits) * 100),
            "{frames} frames"
        );
        assert_eq!(
            s.read_requests, s.page_reads,
            "one-page batches: a request per page"
        );
    }
}

#[test]
fn reopen_preserves_pages_and_starts_fresh_stats() {
    let cost = CostModel::default();
    let (_tmp, dirs) = directories("reopen");
    for dir in dirs {
        {
            let mut file = FileBackend::open_in(&*dir, "heap.db", cost).unwrap();
            drive(&mut file);
            file.sync().unwrap();
        }
        let mut file = FileBackend::open_in(&*dir, "heap.db", cost).unwrap();
        assert_eq!(file.num_pages(), 8, "synced pages survive reopen");
        assert_eq!(
            file.stats().snapshot(),
            IoSnapshot::default(),
            "recovery reads are not charged as workload I/O"
        );
        let mut buf = [0u8; PAGE_SIZE];
        file.read(PageId(5), &mut buf).unwrap();
        assert_eq!(buf[0], 0xEE, "post-sync write was made durable by sync()");
        assert_eq!(file.stats().snapshot().page_reads, 1);
    }
}
