//! Criterion microbenchmarks of the from-scratch B+-tree against
//! `std::collections::BTreeMap` — the substrate the Index Buffer and the
//! partial indexes stand on.

use aib_index::btree::{BPlusTree, DEFAULT_ORDER};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const N: usize = 100_000;

fn keys(n: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(42);
    (0..n).map(|_| rng.gen_range(0..n as u64 * 4)).collect()
}

fn bench_insert(c: &mut Criterion) {
    let ks = keys(N);
    let mut group = c.benchmark_group("btree_insert_100k");
    group.bench_function("bplustree", |b| {
        b.iter(|| {
            let mut t = BPlusTree::new();
            for &k in &ks {
                t.insert(k, k);
            }
            black_box(t.len())
        })
    });
    group.bench_function("std_btreemap", |b| {
        b.iter(|| {
            let mut t = BTreeMap::new();
            for &k in &ks {
                t.insert(k, k);
            }
            black_box(t.len())
        })
    });
    group.finish();
}

/// The index build paths: one descent per key against one bottom-up bulk
/// load, with and without the sort that `BTreeIndex::add_batch` pays first.
fn bench_bulk_build(c: &mut Criterion) {
    let ks = keys(N);
    let mut sorted = ks.clone();
    sorted.sort_unstable();
    sorted.dedup();
    let mut group = c.benchmark_group("btree_bulk_build_100k");
    group.bench_function("insert_loop", |b| {
        b.iter(|| {
            let mut t = BPlusTree::new();
            for &k in &ks {
                t.insert(k, k);
            }
            black_box(t.len())
        })
    });
    group.bench_function("sort_then_from_sorted", |b| {
        b.iter_with_setup(
            || ks.clone(),
            |mut ks| {
                ks.sort_unstable();
                ks.dedup();
                let t = BPlusTree::from_sorted(DEFAULT_ORDER, ks.into_iter().map(|k| (k, k)));
                black_box(t.len())
            },
        )
    });
    group.bench_function("from_sorted", |b| {
        b.iter(|| {
            let t = BPlusTree::from_sorted(DEFAULT_ORDER, sorted.iter().map(|&k| (k, k)));
            black_box(t.len())
        })
    });
    group.finish();
}

fn bench_get(c: &mut Criterion) {
    let ks = keys(N);
    let mut tree = BPlusTree::new();
    let mut map = BTreeMap::new();
    for &k in &ks {
        tree.insert(k, k);
        map.insert(k, k);
    }
    let probes = keys(1000);
    let mut group = c.benchmark_group("btree_point_lookup");
    group.bench_function("bplustree", |b| {
        b.iter(|| {
            let mut hits = 0;
            for k in &probes {
                if tree.get(black_box(k)).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    group.bench_function("std_btreemap", |b| {
        b.iter(|| {
            let mut hits = 0;
            for k in &probes {
                if map.contains_key(black_box(k)) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    group.finish();
}

fn bench_range(c: &mut Criterion) {
    let ks = keys(N);
    let mut tree = BPlusTree::new();
    let mut map = BTreeMap::new();
    for &k in &ks {
        tree.insert(k, k);
        map.insert(k, k);
    }
    let mut group = c.benchmark_group("btree_range_scan_1k");
    group.bench_function("bplustree", |b| {
        b.iter(|| {
            let n = tree.range(&10_000, &14_000).count();
            black_box(n)
        })
    });
    group.bench_function("std_btreemap", |b| {
        b.iter(|| {
            let n = map.range(10_000..=14_000).count();
            black_box(n)
        })
    });
    group.finish();
}

fn bench_order_sweep(c: &mut Criterion) {
    let ks = keys(N / 10);
    let mut group = c.benchmark_group("btree_order_sweep_insert_10k");
    for order in [8usize, 32, 64, 128, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(order), &order, |b, &order| {
            b.iter(|| {
                let mut t = BPlusTree::with_order(order);
                for &k in &ks {
                    t.insert(k, k);
                }
                black_box(t.len())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_insert,
    bench_bulk_build,
    bench_get,
    bench_range,
    bench_order_sweep
);
criterion_main!(benches);
