//! Multi-client concurrency benchmark: read-query throughput as client
//! threads scale over the covered-fraction sweep, recorded in
//! `BENCH_concurrency.json` (see EXPERIMENTS.md).
//!
//! Two sections:
//!
//! 1. **single_client** — the exact `micro_scan` covered-fraction fixture
//!    (50k sequential rows, resident pool, zero-cost disk, buffer pinned
//!    empty) driven through a [`ClientHandle`] over `Arc<Database>`. Its
//!    numbers are directly comparable to `BENCH_scan.json`: the shared
//!    read path (catalog/space read locks + staged apply) must stay within
//!    noise of the pre-concurrency engine.
//!
//! 2. **contended** — the CPU-bound acceptance sweep for the snapshot-
//!    planned read path: zero-cost disk, resident pool, 50% and 90%
//!    skippable fractions at 1–8 threads. With no stalls to overlap,
//!    throughput is bounded by whatever serializes the read path, so a
//!    flat or rising q/s column over threads (up to `host_cpus`) is the
//!    evidence that steady-state reads take no space lock. (The
//!    always-locked planner this path was once measured against lost all
//!    eight rows, 1.06–1.21×, and is no longer selectable; that table is
//!    kept, stamped with its revision, in EXPERIMENTS.md.)
//!
//! Every section runs one table with one Index Buffer.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aib_core::SpaceConfig;
use aib_engine::{ClientHandle, Database, EngineConfig, Query};
use aib_index::{Coverage, IndexBackend};
use aib_storage::{Column, CostModel, Schema, Tuple, Value};

const SWEEP_ROWS: i64 = 50_000;
const FRACTIONS: [u32; 4] = [0, 50, 90, 100];
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The `micro_scan` covered-fraction fixture: sequential keys so the
/// `IntRange` partial index covers a contiguous page prefix, the Index
/// Buffer pinned empty so the skippable fraction never drifts, and the
/// probe key just past the covered range forcing the indexing-scan path.
fn build_fraction(pct: u32) -> (Arc<Database>, i64) {
    let db = Database::new(EngineConfig {
        pool_frames: 1024,
        cost_model: CostModel::free(),
        space: SpaceConfig {
            max_bytes: Some(0),
            i_max: 1_000_000,
            seed: 3,
        },
        ..Default::default()
    });
    db.create_table("t", Schema::new(vec![Column::int("k"), Column::str("pad")]))
        .unwrap();
    for i in 1..=SWEEP_ROWS {
        db.insert(
            "t",
            &Tuple::new(vec![Value::Int(i), Value::from("x".repeat(64))]),
        )
        .unwrap();
    }
    let hi = pct as i64 * SWEEP_ROWS / 100;
    db.create_partial_index(
        "t",
        "k",
        Coverage::IntRange { lo: 1, hi },
        IndexBackend::BTree,
        Some(aib_core::BufferConfig::default()),
    )
    .unwrap();
    (db.into_shared(), hi + 1)
}

// ---------------------------------------------------------------------------
// Section 1: single client through the shared path, micro_scan settings.
// ---------------------------------------------------------------------------

struct SinglePoint {
    skippable_pct: u32,
    wall_us: f64,
    pages_read: u32,
    pages_skipped: u32,
}

fn single_client_sweep(quick: bool) -> Vec<SinglePoint> {
    let iters = if quick { 3 } else { 25 };
    let mut points = Vec::new();
    println!("single-client sweep (shared path): {SWEEP_ROWS} rows, {iters} iters/fraction");
    println!(
        "{:>13} {:>12} {:>11} {:>13}",
        "skippable", "wall/query", "pages_read", "pages_skipped"
    );
    for pct in FRACTIONS {
        let (db, probe) = build_fraction(pct);
        let client = ClientHandle::new(Arc::clone(&db));
        for _ in 0..5 {
            black_box(client.execute(&Query::point("t", "k", probe)).unwrap());
        }
        let mut samples = Vec::with_capacity(iters);
        let mut pages_read = 0;
        let mut pages_skipped = 0;
        for _ in 0..iters {
            let t0 = Instant::now();
            let out = client.execute(&Query::point("t", "k", probe)).unwrap();
            black_box(out.result.count());
            samples.push(t0.elapsed().as_secs_f64() * 1e6);
            if let Some(scan) = &out.metrics.scan {
                pages_read = scan.pages_read;
                pages_skipped = scan.pages_skipped;
            }
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let wall_us = samples[samples.len() / 2];
        println!("{pct:>12}% {wall_us:>10.1}us {pages_read:>11} {pages_skipped:>13}");
        points.push(SinglePoint {
            skippable_pct: pct,
            wall_us,
            pages_read,
            pages_skipped,
        });
    }
    points
}

// ---------------------------------------------------------------------------
// Section 2: CPU-bound contention on the snapshot-planned read path.
// ---------------------------------------------------------------------------

/// Runs `n` client threads hammering the probe query for `dur`, returning
/// (completed queries, elapsed wall seconds).
fn run_clients(db: &Arc<Database>, probe: i64, n: usize, dur: Duration) -> (u64, f64) {
    let stop = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..n {
            let client = ClientHandle::new(Arc::clone(db));
            let stop = &stop;
            let total = &total;
            s.spawn(move || {
                let mut count = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let out = client.execute(&Query::point("t", "k", probe)).unwrap();
                    black_box(out.result.count());
                    count += 1;
                }
                total.fetch_add(count, Ordering::Relaxed);
            });
        }
        std::thread::sleep(dur);
        stop.store(true, Ordering::Relaxed);
    });
    (total.load(Ordering::Relaxed), t0.elapsed().as_secs_f64())
}

const CONTENDED_FRACTIONS: [u32; 2] = [50, 90];

struct ContendedPoint {
    skippable_pct: u32,
    threads: usize,
    qps: f64,
}

/// CPU-bound sweep (zero-cost disk, resident pool): with no stalls to
/// overlap, throughput is bounded by whatever serializes the read path. Steady-state reads plan from the snapshot and take no space
/// lock at all, so q/s must not fall as threads are added.
fn contended_sweep(quick: bool) -> Vec<ContendedPoint> {
    let dur = Duration::from_millis(if quick { 250 } else { 1000 });
    // Oversubscribed CPU-bound runs are at the mercy of the scheduler;
    // the median of three repetitions filters the odd run that lands
    // across a timeslice storm.
    let reps = if quick { 1 } else { 3 };
    let mut points = Vec::new();
    println!(
        "contended sweep: zero-cost disk, resident pool, {}ms/point, median of {reps}",
        dur.as_millis()
    );
    println!("{:>13} {:>8} {:>13}", "skippable", "threads", "queries/s");
    for pct in CONTENDED_FRACTIONS {
        let (db, probe) = build_fraction(pct);
        for _ in 0..5 {
            black_box(db.execute(&Query::point("t", "k", probe)).unwrap());
        }
        for n in THREADS {
            let mut samples: Vec<f64> = (0..reps)
                .map(|_| {
                    let (queries, wall_s) = run_clients(&db, probe, n, dur);
                    queries as f64 / wall_s
                })
                .collect();
            samples.sort_by(|a, b| a.total_cmp(b));
            let qps = samples[reps / 2];
            println!("{pct:>12}% {n:>8} {qps:>13.1}");
            points.push(ContendedPoint {
                skippable_pct: pct,
                threads: n,
                qps,
            });
        }
    }
    points
}

// ---------------------------------------------------------------------------
// JSON emission
// ---------------------------------------------------------------------------

fn emit_bench_json(single: &[SinglePoint], contended: &[ContendedPoint], quick: bool) {
    let Ok(path) = std::env::var("AIB_CONCURRENCY_JSON") else {
        println!("(set AIB_CONCURRENCY_JSON=<path> to record BENCH_concurrency.json)");
        return;
    };
    let single_rows: Vec<String> = single
        .iter()
        .map(|p| {
            format!(
                "      {{ \"skippable_pct\": {}, \"wall_us\": {:.1}, \"pages_read\": {}, \"pages_skipped\": {} }}",
                p.skippable_pct, p.wall_us, p.pages_read, p.pages_skipped
            )
        })
        .collect();
    let contended_rows: Vec<String> = contended
        .iter()
        .map(|p| {
            format!(
                "      {{ \"skippable_pct\": {}, \"threads\": {}, \"qps\": {:.1} }}",
                p.skippable_pct, p.threads, p.qps
            )
        })
        .collect();
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let provenance = aib_bench::provenance_json();
    let out = format!(
        "{{\n  \"bench\": \"micro_concurrency\",\n  \"provenance\": {provenance},\n  \"rows\": {SWEEP_ROWS},\n  \"host_cpus\": {host_cpus},\n  \"quick\": {quick},\n  \"single_client\": {{\n    \"note\": \"micro_scan fixture through ClientHandle; comparable to BENCH_scan.json\",\n    \"points\": [\n{}\n    ]\n  }},\n  \"contended\": {{\n    \"note\": \"CPU-bound: the epoch-validated snapshot-planned read path, no space lock on steady-state reads; q/s over threads is meaningful up to host_cpus.\",\n    \"pool_frames\": 1024,\n    \"points\": [\n{}\n    ]\n  }}\n}}\n",
        single_rows.join(",\n"),
        contended_rows.join(",\n")
    );
    match std::fs::write(&path, out) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--test");
    let single = single_client_sweep(quick);
    let contended = contended_sweep(quick);
    emit_bench_json(&single, &contended, quick);
}
