//! Eviction must not lose acknowledged writes.
//!
//! Regression for the write-back race `aib-e2e` found (its
//! `pool_eviction_race` repro): the pool used to unmap a dirty victim under
//! its state lock and write it back only after releasing the lock, so a
//! concurrent fetch of that page missed, read the stale image from the
//! page store, and the update that sat in the evicted frame was gone for every
//! later reader — 30–80 of 20,000 acked `HeapFile::update`s on two cores.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use aib_storage::{BufferPool, BufferPoolConfig, CostModel, FileBackend, HeapFile};

const ROWS: usize = 20_000;
const UPDATES: usize = 6_000;
/// Far fewer frames than the table has pages (about 770), so the two
/// sweepers evict all the time.
const FRAMES: usize = 64;

#[test]
fn an_update_survives_concurrent_sweeps_evicting_its_page() {
    let pool = BufferPool::new(
        FileBackend::new(CostModel::default()),
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
