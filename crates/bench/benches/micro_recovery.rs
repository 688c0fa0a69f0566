//! Recovery benchmark: how fast a file-backed [`Database`] comes back, and
//! what the rebuilt-but-empty Index Buffer costs right after it does,
//! recorded in `BENCH_recovery.json` (see EXPERIMENTS.md).
//!
//! Three sections:
//!
//! 1. **reopen** — wall time of `Database::open` against (a) a cleanly
//!    closed directory (log already compacted to one snapshot; recovery is
//!    catalog decode + heap rescan) and (b) a crashed directory whose log
//!    carries every DML record since the last checkpoint (recovery folds
//!    and replays them first). The gap prices WAL replay itself.
//!
//! 2. **cold_vs_warm** — query latency through the recovered engine. The
//!    Index Buffer is rebuilt *empty* by design (the paper's recovery
//!    argument: buffer contents are redundant with the heap), so the first
//!    uncovered query pays a full indexing scan; once it has run, repeats
//!    skip every page. The ratio is the price of not logging the buffer —
//!    paid once per buffer per restart, not per record at runtime.
//!
//! 3. **runtime_overhead** — per-insert wall time with the WAL on
//!    (file-backed, fsync per append) next to the simulated backend's, so
//!    the durability tax on the write path is visible in the same file.
//!
//! The simulated backend stays the default everywhere else in the suite;
//! this is the only bench that touches a real file system, which is why the
//! JSON records `host_cpus` and absolute times should be read as
//! machine-local.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use aib_core::BufferConfig;
use aib_engine::{Database, EngineConfig, Query};
use aib_index::{Coverage, IndexBackend};
use aib_storage::{Column, Schema, Tuple, Value};

const ROWS_FULL: i64 = 50_000;
const ROWS_QUICK: i64 = 4_000;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let mut p = std::env::temp_dir();
        p.push(format!("aib-recovery-bench-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn config() -> EngineConfig {
    EngineConfig {
        pool_frames: 1024,
        // Keep periodic rotation out of the measurement: the crash fixture
        // wants every post-checkpoint record still in the log.
        wal_checkpoint_interval: u64::MAX,
        ..Default::default()
    }
}

fn tuple(k: i64) -> Tuple {
    Tuple::new(vec![Value::Int(k), Value::from("x".repeat(64))])
}

/// Builds the sweep fixture in `dir`: `rows` sequential keys, a partial
/// index covering the first half, a buffer warmed by one uncovered probe.
fn populate(dir: &TempDir, rows: i64) -> (Database, i64) {
    let db = Database::open(&dir.0, config()).unwrap();
    db.create_table("t", Schema::new(vec![Column::int("k"), Column::str("pad")]))
        .unwrap();
    for i in 1..=rows {
        db.insert("t", &tuple(i)).unwrap();
    }
    let hi = rows / 2;
    db.create_partial_index(
        "t",
        "k",
        Coverage::IntRange { lo: 1, hi },
        IndexBackend::BTree,
        Some(BufferConfig::default()),
    )
    .unwrap();
    let probe = hi + 1;
    black_box(db.execute(&Query::point("t", "k", probe)).unwrap());
    (db, probe)
}

struct ReopenPoint {
    label: &'static str,
    wal_records: u64,
    open_ms: f64,
}

struct ColdWarm {
    cold_us: f64,
    warm_us: f64,
    cold_pages_read: u32,
    warm_pages_read: u32,
}

fn measure_reopen(dir: &TempDir, label: &'static str, wal_records: u64) -> (Database, ReopenPoint) {
    let t0 = Instant::now();
    let db = Database::open(&dir.0, config()).unwrap();
    let open_ms = t0.elapsed().as_secs_f64() * 1e3;
    (
        db,
        ReopenPoint {
            label,
            wal_records,
            open_ms,
        },
    )
}

fn measure_cold_warm(db: &Database, probe: i64, iters: usize) -> ColdWarm {
    let t0 = Instant::now();
    let out = db.execute(&Query::point("t", "k", probe)).unwrap();
    let cold_us = t0.elapsed().as_secs_f64() * 1e6;
    let cold_pages_read = out.metrics.scan.as_ref().map_or(0, |s| s.pages_read);
    let mut samples = Vec::with_capacity(iters);
    let mut warm_pages_read = 0;
    for _ in 0..iters {
        let t0 = Instant::now();
        let out = db.execute(&Query::point("t", "k", probe)).unwrap();
        black_box(out.result.count());
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
        warm_pages_read = out.metrics.scan.as_ref().map_or(0, |s| s.pages_read);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let warm_us = samples[samples.len() / 2];
    ColdWarm {
        cold_us,
        warm_us,
        cold_pages_read,
        warm_pages_read,
    }
}

/// Per-insert wall time, durable vs simulated, same row shape.
fn insert_tax(rows: i64) -> (f64, f64) {
    let dir = TempDir::new("tax");
    let db = Database::open(&dir.0, config()).unwrap();
    db.create_table("t", Schema::new(vec![Column::int("k"), Column::str("pad")]))
        .unwrap();
    let t0 = Instant::now();
    for i in 1..=rows {
        db.insert("t", &tuple(i)).unwrap();
    }
    let durable_us = t0.elapsed().as_secs_f64() * 1e6 / rows as f64;
    db.close().unwrap();

    let db = Database::new(config());
    db.create_table("t", Schema::new(vec![Column::int("k"), Column::str("pad")]))
        .unwrap();
    let t0 = Instant::now();
    for i in 1..=rows {
        db.insert("t", &tuple(i)).unwrap();
    }
    let simulated_us = t0.elapsed().as_secs_f64() * 1e6 / rows as f64;
    (durable_us, simulated_us)
}

fn emit_bench_json(
    rows: i64,
    reopens: &[ReopenPoint],
    clean: &ColdWarm,
    crash: &ColdWarm,
    tax: (f64, f64),
    quick: bool,
) {
    let Ok(path) = std::env::var("AIB_RECOVERY_JSON") else {
        println!("(set AIB_RECOVERY_JSON=<path> to record BENCH_recovery.json)");
        return;
    };
    let reopen_rows: Vec<String> = reopens
        .iter()
        .map(|p| {
            format!(
                "      {{ \"fixture\": \"{}\", \"wal_records\": {}, \"open_ms\": {:.2} }}",
                p.label, p.wal_records, p.open_ms
            )
        })
        .collect();
    let cw = |c: &ColdWarm| {
        format!(
            "{{ \"cold_us\": {:.1}, \"warm_us\": {:.1}, \"cold_over_warm\": {:.1}, \"cold_pages_read\": {}, \"warm_pages_read\": {} }}",
            c.cold_us,
            c.warm_us,
            if c.warm_us > 0.0 { c.cold_us / c.warm_us } else { 0.0 },
            c.cold_pages_read,
            c.warm_pages_read
        )
    };
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let provenance = aib_bench::provenance_json();
    let out = format!(
        "{{\n  \"bench\": \"micro_recovery\",\n  \"provenance\": {provenance},\n  \"rows\": {rows},\n  \"host_cpus\": {host_cpus},\n  \"quick\": {quick},\n  \"reopen\": {{\n    \"note\": \"Database::open wall time; after_crash replays every post-checkpoint DML record, after_close decodes one snapshot\",\n    \"points\": [\n{}\n    ]\n  }},\n  \"cold_vs_warm\": {{\n    \"note\": \"first uncovered query after recovery re-runs the indexing scan (the buffer is rebuilt empty by design); repeats skip every page\",\n    \"after_close\": {},\n    \"after_crash\": {}\n  }},\n  \"insert_tax\": {{\n    \"note\": \"per-insert wall time; durable pays one fsynced WAL append per operation\",\n    \"durable_us\": {:.1},\n    \"simulated_us\": {:.1}\n  }}\n}}\n",
        reopen_rows.join(",\n"),
        cw(clean),
        cw(crash),
        tax.0,
        tax.1
    );
    match std::fs::write(&path, out) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--test");
    let rows = if quick { ROWS_QUICK } else { ROWS_FULL };
    let iters = if quick { 5 } else { 25 };
    println!("recovery bench: {rows} rows, file-backed engine in a temp dir");

    // Clean-close fixture: the log is one snapshot record.
    let clean_dir = TempDir::new("clean");
    let (db, probe) = populate(&clean_dir, rows);
    db.close().unwrap();
    let (db, clean_open) = measure_reopen(&clean_dir, "after_close", 1);
    let clean_cw = measure_cold_warm(&db, probe, iters);
    drop(db);

    // Crash fixture: same data, but the engine dies without a checkpoint,
    // so open() must fold and replay every DML record.
    let crash_dir = TempDir::new("crash");
    let (db, probe) = populate(&crash_dir, rows);
    let wal_records = db.wal_records_written();
    drop(db); // no close: recovery does the work
    let (db, crash_open) = measure_reopen(&crash_dir, "after_crash", wal_records);
    let crash_cw = measure_cold_warm(&db, probe, iters);
    drop(db);

    println!("{:>12} {:>12} {:>9}", "fixture", "wal_records", "open_ms");
    for p in [&clean_open, &crash_open] {
        println!("{:>12} {:>12} {:>8.2}", p.label, p.wal_records, p.open_ms);
    }
    println!(
        "cold-vs-warm after close: {:.0}us vs {:.0}us ({} vs {} pages read)",
        clean_cw.cold_us, clean_cw.warm_us, clean_cw.cold_pages_read, clean_cw.warm_pages_read
    );
    println!(
        "cold-vs-warm after crash: {:.0}us vs {:.0}us ({} vs {} pages read)",
        crash_cw.cold_us, crash_cw.warm_us, crash_cw.cold_pages_read, crash_cw.warm_pages_read
    );

    let tax_rows = if quick { 500 } else { 5_000 };
    let tax = insert_tax(tax_rows);
    println!(
        "insert tax over {tax_rows} rows: durable {:.1}us/op vs simulated {:.1}us/op",
        tax.0, tax.1
    );

    emit_bench_json(
        rows,
        &[clean_open, crash_open],
        &clean_cw,
        &crash_cw,
        tax,
        quick,
    );
}
