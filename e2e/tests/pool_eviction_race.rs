//! Reproduces, on `aib-storage` alone, the engine bug that keeps `mixed`
//! from running with a pool smaller than its table (`Plan::engine_config`):
//! under eviction and concurrent readers the buffer pool loses writes.
//!
//! `BufferPool` unmaps a dirty victim page under its state lock and writes it
//! back only after releasing the lock. A concurrent fetch of that page misses,
//! reads the stale image from the backend, and the update that was in the
//! evicted frame is gone for every later reader.
//!
//! The test is expected to fail until the engine is fixed, so it is ignored:
//!
//! ```text
//! cargo test --release --offline --manifest-path e2e/Cargo.toml \
//!     --test pool_eviction_race -- --ignored
//! ```
//!
//! On the 2-core sandbox it loses 40–80 of the 20,000 updates. When it
//! passes, give `mixed` the eighth-of-the-table pool the issue asked for.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use aib_storage::{BufferPool, BufferPoolConfig, CostModel, DiskManager, HeapFile};

const ROWS: usize = 20_000;
const UPDATES: usize = 20_000;
/// Far fewer frames than the table has pages (about 770), so the two
/// sweepers evict all the time.
const FRAMES: usize = 64;

#[test]
#[ignore = "engine bug: BufferPool loses writes under eviction with concurrent readers"]
fn an_update_is_still_there_after_concurrent_sweeps_evicted_its_page() {
    let pool = BufferPool::new(
        DiskManager::new(CostModel::default()),
        BufferPoolConfig::lru(FRAMES),
    );
    let heap = HeapFile::new(Arc::clone(&pool));
    let rids: Vec<_> = (0..ROWS)
        .map(|i| heap.insert(&[i as u8; 300]).expect("load"))
        .collect();
    pool.sync().expect("sync after load");
    let pages = heap.num_pages();
    let stop = AtomicBool::new(false);

    let lost = std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    heap.sweep_read_runs([(0..pages, false)], |_, _, _| {})
                        .expect("sweep");
                }
            });
        }
        let mut lost = 0;
        for i in 0..UPDATES {
            let target = rids[i * 7919 % rids.len()];
            // Same length as the row it replaces, so the row stays in place.
            let bytes = [(i % 251) as u8; 300];
            assert_eq!(heap.update(target, &bytes).expect("update"), target);
            // Long enough for the sweepers to evict the page and fetch it
            // again.
            std::thread::sleep(Duration::from_micros(200));
            if heap.get(target).expect("get") != bytes {
                lost += 1;
            }
        }
        stop.store(true, Ordering::Relaxed);
        lost
    });
    assert_eq!(
        lost, 0,
        "{lost} of {UPDATES} updates read back their old value"
    );
}
