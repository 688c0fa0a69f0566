//! Criterion microbenchmarks of the buffer pool: hit/miss fetch cost, the
//! LRU bookkeeping under a scan-like access pattern, and the cyclic sweep of
//! a file-backed table eight times the pool.

use aib_storage::replacement::LruPolicy;
use aib_storage::{
    BufferPool, BufferPoolConfig, CostModel, DiskManager, FileBackend, HeapFile, PageId,
};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;

fn pool_with(frames: usize, pages: u32) -> (Arc<BufferPool>, Vec<PageId>) {
    let pool = BufferPool::new(
        DiskManager::new(CostModel::free()),
        BufferPoolConfig::lru(frames),
    );
    let mut pids = Vec::new();
    for _ in 0..pages {
        let (pid, g) = pool.new_page().unwrap();
        drop(g);
        pids.push(pid);
    }
    pool.flush_all().unwrap();
    (pool, pids)
}

fn bench_fetch(c: &mut Criterion) {
    let mut group = c.benchmark_group("buffer_pool_fetch");

    // Hits: working set fits.
    let (pool, pids) = pool_with(64, 32);
    group.bench_function("hit", |b| {
        b.iter(|| {
            for pid in &pids {
                black_box(pool.fetch_read(*pid).unwrap()[0]);
            }
        })
    });

    // Misses: cyclic scan over twice the pool size (worst case for LRU).
    let (pool, pids) = pool_with(64, 128);
    group.bench_function("miss_cyclic", |b| {
        b.iter(|| {
            for pid in &pids {
                black_box(pool.fetch_read(*pid).unwrap()[0]);
            }
        })
    });
    group.finish();
}

fn bench_lru_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("replacement_policy_ops");
    let frames = 1024usize;
    let accesses: Vec<usize> = {
        let mut x = 0x9E3779B97F4A7C15u64;
        (0..100_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % frames as u64) as usize
            })
            .collect()
    };
    group.bench_function(BenchmarkId::new("lru", frames), |b| {
        b.iter(|| {
            let mut policy = LruPolicy::new(frames);
            for (i, &f) in accesses.iter().enumerate() {
                policy.record_access(f);
                if i % 16 == 0 {
                    if let Some(victim) = policy.displace(|_| false) {
                        black_box(victim);
                    }
                }
            }
        })
    });
    group.finish();
}

/// The sweep `aib-e2e`'s `shift` workload spends its time in: every page of
/// a checkpointed `FileBackend` table through a pool an eighth its size,
/// over and over — batched pins, vectored run reads, cold-end admission.
fn bench_cyclic_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_read_runs");
    let (pages, frames) = (1024u32, 128usize);
    let path = std::env::temp_dir().join(format!("aib-micro-pool-{}.heap", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let disk = FileBackend::open(&path, CostModel::free()).unwrap();
    let pool = BufferPool::with_backend(Box::new(disk), BufferPoolConfig::lru(frames));
    let heap = HeapFile::new(Arc::clone(&pool));
    while heap.num_pages() < pages {
        heap.insert(&[7u8; 2000]).unwrap();
    }
    pool.sync().unwrap();
    group.bench_function(BenchmarkId::new("file_cyclic_pool_eighth", pages), |b| {
        b.iter(|| {
            let mut live = 0;
            heap.sweep_read_runs([(0..pages, false)], |_, _, view| live += view.live_count())
                .unwrap();
            black_box(live)
        })
    });
    group.finish();
    let _ = std::fs::remove_file(&path);
}

criterion_group!(benches, bench_fetch, bench_lru_ops, bench_cyclic_sweep);
criterion_main!(benches);
