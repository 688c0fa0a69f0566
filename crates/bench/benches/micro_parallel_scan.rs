//! Parallel indexing-scan throughput: the same uncovered point query over a
//! 10k-page table at 1/2/4/8 scan threads, plus a covered-fraction sweep
//! (0/50/90/100% of pages skippable) at 1 vs. 4 threads.
//!
//! In the thread sweep the Index Buffer Space is pinned to zero entries
//! (`max_bytes = 0`) so no page ever becomes skippable: every scan reads
//! all 10k pages, making iterations identical and the sweep a pure measure
//! of the partition-chunked executor. The pool holds the whole table, so
//! the sweep measures compute (page latching, zero-copy predicate
//! evaluation), not disk.
//!
//! The covered-fraction sweep loads sequential keys so covered pages are
//! contiguous, then sizes the partial index's coverage to make the target
//! share of pages skippable at registration time (`max_bytes = 0` freezes
//! it there). It shows how run-skipping interacts with the chunked parallel
//! sweep across the skippability spectrum.

use std::time::Instant;

use aib_bench::header;
use aib_core::{BufferConfig, SpaceConfig};
use aib_engine::{Database, EngineConfig, Query};
use aib_index::{Coverage, IndexBackend};
use aib_storage::{Column, CostModel, Schema, Tuple, Value};

const TARGET_PAGES: u32 = 10_000;
const PAD: usize = 900;
const DOMAIN: i64 = 10_000;
const ITERS: usize = 5;

/// Skippable-page fractions for the covered-fraction sweep.
const FRACTIONS: [u32; 4] = [0, 50, 90, 100];

fn build(scan_threads: usize) -> Database {
    let db = Database::new(EngineConfig {
        pool_frames: TARGET_PAGES as usize + 64,
        cost_model: CostModel::free(),
        space: SpaceConfig {
            max_bytes: Some(0), // nothing is ever buffered: scans stay full-size
            i_max: 1,
            seed: 3,
        },
        scan_threads,
        ..Default::default()
    });
    db.create_table("t", Schema::new(vec![Column::int("k"), Column::str("pad")]))
        .unwrap();
    let mut x = 0x9e3779b9u64;
    while db.table("t").unwrap().num_pages() < TARGET_PAGES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = (x % DOMAIN as u64) as i64 + 1;
        db.insert(
            "t",
            &Tuple::new(vec![Value::Int(k), Value::from("x".repeat(PAD))]),
        )
        .unwrap();
    }
    db.create_partial_index(
        "t",
        "k",
        Coverage::IntRange {
            lo: 1,
            hi: DOMAIN / 10,
        },
        IndexBackend::BTree,
        Some(BufferConfig::default()),
    )
    .unwrap();
    db
}

/// Median wall time of `ITERS` full indexing scans at the given setting.
fn measure(db: &mut Database) -> (f64, usize) {
    let q = Query::on("t", "k").eq(DOMAIN / 2);
    // One warm-up pass faults every heap page into the pool.
    let warm = db.execute(&q).unwrap();
    assert_eq!(
        warm.metrics.scan.as_ref().unwrap().pages_skipped,
        0,
        "zero-entry buffer must never skip pages"
    );
    let mut times = Vec::with_capacity(ITERS);
    let mut count = 0;
    for _ in 0..ITERS {
        let start = Instant::now();
        let outcome = db.execute(&q).unwrap();
        times.push(start.elapsed().as_secs_f64());
        count = outcome.result.count();
    }
    times.sort_by(|a, b| a.total_cmp(b));
    (times[ITERS / 2], count)
}

/// Build a table of `pages` pages loaded with *sequential* keys, then cover
/// the first `frac`% of rows with the partial index. Sequential insertion
/// keeps covered pages contiguous, so `frac`% of rows ≈ `frac`% of pages
/// skippable — in one leading run. `max_bytes = 0` freezes skippability
/// at registration time.
fn build_fraction(scan_threads: usize, pages: u32, frac: u32) -> (Database, i64) {
    let db = Database::new(EngineConfig {
        pool_frames: pages as usize + 64,
        cost_model: CostModel::free(),
        space: SpaceConfig {
            max_bytes: Some(0),
            i_max: 1,
            seed: 3,
        },
        scan_threads,
        ..Default::default()
    });
    db.create_table("t", Schema::new(vec![Column::int("k"), Column::str("pad")]))
        .unwrap();
    let mut k = 0i64;
    while db.table("t").unwrap().num_pages() < pages {
        db.insert(
            "t",
            &Tuple::new(vec![Value::Int(k), Value::from("x".repeat(PAD))]),
        )
        .unwrap();
        k += 1;
    }
    let rows = k;
    // Covering keys [0, cov_hi] covers the first frac% of pages; an empty
    // range (hi < lo) covers nothing for the 0% point.
    let cov_hi = rows * i64::from(frac) / 100 - 1;
    db.create_partial_index(
        "t",
        "k",
        Coverage::IntRange { lo: 0, hi: cov_hi },
        IndexBackend::BTree,
        Some(BufferConfig::default()),
    )
    .unwrap();
    (db, rows)
}

/// Median wall time plus scan-shape stats for the uncovered probe `rows`
/// (above every loaded key, so even 100% coverage misses the partial index
/// and exercises the buffered-scan path).
fn measure_fraction(db: &mut Database, rows: i64, iters: usize) -> (f64, [u32; 4]) {
    let q = Query::on("t", "k").eq(rows);
    db.execute(&q).unwrap(); // warm the pool
    let mut times = Vec::with_capacity(iters);
    let mut shape = [0u32; 4];
    for _ in 0..iters {
        let start = Instant::now();
        let outcome = db.execute(&q).unwrap();
        times.push(start.elapsed().as_secs_f64());
        let m = &outcome.metrics;
        let read = m.scan.as_ref().map_or(0, |s| s.pages_read);
        shape = [read, m.pages_skipped(), m.skip_runs(), m.sweep_batches()];
    }
    times.sort_by(|a, b| a.total_cmp(b));
    (times[iters / 2], shape)
}

fn covered_fraction_sweep(quick: bool) {
    let pages: u32 = if quick { 256 } else { 2_000 };
    let iters = if quick { 3 } else { ITERS };
    header(
        "micro: parallel indexing scan, covered-fraction sweep",
        &format!("pages={pages} pad={PAD} iters={iters} (median), threads 1 vs 4"),
    );
    println!("frac_pct,threads,median_us,pages_read,pages_skipped,skip_runs,sweep_batches");
    for frac in FRACTIONS {
        for threads in [1usize, 4] {
            let (mut db, rows) = build_fraction(threads, pages, frac);
            let (median, [read, skipped, runs, batches]) = measure_fraction(&mut db, rows, iters);
            println!(
                "{frac},{threads},{:.1},{read},{skipped},{runs},{batches}",
                median * 1e6
            );
            assert_eq!(read + skipped, db.table("t").unwrap().num_pages());
        }
    }
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--test");

    covered_fraction_sweep(quick);

    header(
        "micro: parallel indexing scan, thread sweep on a 10k-page table",
        &format!("pages={TARGET_PAGES} pad={PAD} iters={ITERS} (median)"),
    );

    println!("threads,planned,median_s,pages_per_s,speedup,matches");
    let mut base = 0.0f64;
    let mut results = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let mut db = build(threads);
        let planned = db.explain(&Query::on("t", "k").eq(DOMAIN / 2)).unwrap();
        let (median, matches) = measure(&mut db);
        if threads == 1 {
            base = median;
        }
        let speedup = base / median;
        println!(
            "{threads},{},{median:.4},{:.0},{speedup:.2},{matches}",
            planned.scan_threads,
            f64::from(TARGET_PAGES) / median,
        );
        results.push((threads, speedup));
    }

    let at4 = results
        .iter()
        .find(|(t, _)| *t == 4)
        .map(|(_, s)| *s)
        .unwrap_or(0.0);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("\n# shape: speedup at 4 threads = {at4:.2}x (target: >1.5x on >=4 cores)");
    if cores >= 4 {
        assert!(
            at4 > 1.5,
            "parallel scan below target: {at4:.2}x at 4 threads on {cores} cores"
        );
    } else {
        println!(
            "# note: only {cores} core(s) available — wall-clock speedup is \
             not demonstrable here; the sweep above measures overhead only"
        );
    }
}
