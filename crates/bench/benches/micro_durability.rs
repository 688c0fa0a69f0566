//! Durability benchmark: what a durable insert costs under group commit,
//! recorded in `BENCH_durability.json` (see EXPERIMENTS.md).
//!
//! The sweep crosses **writer threads ∈ {1, 2, 4, 8}** with the
//! **group-commit window** (`EngineConfig::group_commit_wait_us`). Each
//! cell opens a fresh file-backed database, races `writers` client threads
//! over disjoint key ranges, and reports:
//!
//! * `per_op_us` — wall time per acked insert (every ack waited for its
//!   covering fsync, so this is real durable latency, not throughput
//!   bookkeeping);
//! * `amortization` — WAL records per fsync (`Wal::syncs` delta), the
//!   direct measure of how many commits each `sync_data` covered.
//!
//! Two calibration rows ride along: the single-writer `window = 0` cell is
//! bit-for-bit the pre-group-commit fsync-per-record path (the ISSUE's
//! "within 10% of today's" check), and an `execute_batch` cell shows a
//! single client amortizing through the batched DML entry point instead of
//! through concurrency.
//!
//! Like `micro_recovery`, this bench touches a real file system: absolute
//! numbers are machine-local (the JSON records `host_cpus`), ratios are
//! the story.

use std::path::PathBuf;
use std::time::Instant;

use aib_engine::{BatchOp, Database, EngineConfig};
use aib_storage::{Column, Schema, Tuple, Value};

const OPS_PER_WRITER_FULL: i64 = 256;
const OPS_PER_WRITER_QUICK: i64 = 48;

/// Writer-thread counts the ISSUE names.
const WRITERS: &[usize] = &[1, 2, 4, 8];

/// Group-commit windows (µs). 0 is the fsync-per-record baseline; the
/// nonzero windows trade leader latency for batch size (and past the
/// restage time of the writer cohort, they only add latency).
const WINDOWS_US: &[u64] = &[0, 15, 50, 200];

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let mut p = std::env::temp_dir();
        p.push(format!("aib-durability-bench-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn config(window_us: u64) -> EngineConfig {
    EngineConfig {
        pool_frames: 1024,
        group_commit_wait_us: window_us,
        // Keep periodic rotation out of the measurement.
        wal_checkpoint_interval: u64::MAX,
        ..Default::default()
    }
}

fn schema() -> Schema {
    Schema::new(vec![Column::int("k"), Column::str("pad")])
}

fn tuple(k: i64) -> Tuple {
    Tuple::new(vec![Value::Int(k), Value::from("x".repeat(64))])
}

struct Point {
    writers: usize,
    window_us: u64,
    ops: i64,
    per_op_us: f64,
    records: u64,
    fsyncs: u64,
}

impl Point {
    fn amortization(&self) -> f64 {
        if self.fsyncs == 0 {
            0.0
        } else {
            self.records as f64 / self.fsyncs as f64
        }
    }
}

/// One sweep cell: `writers` threads each ack `ops_per_writer` durable
/// inserts on disjoint key ranges.
fn measure(writers: usize, window_us: u64, ops_per_writer: i64) -> Point {
    let dir = TempDir::new(&format!("w{writers}-u{window_us}"));
    let db = Database::open(&dir.0, config(window_us))
        .unwrap()
        .into_shared();
    db.create_table("t", schema()).unwrap();
    let records_before = db.wal_records_written();
    let fsyncs_before = db.wal_fsyncs();

    let t0 = Instant::now();
    std::thread::scope(|s| {
        for w in 0..writers {
            let db = db.clone();
            s.spawn(move || {
                let base = w as i64 * 1_000_000;
                for i in 0..ops_per_writer {
                    db.insert("t", &tuple(base + i)).unwrap();
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();

    let ops = writers as i64 * ops_per_writer;
    let point = Point {
        writers,
        window_us,
        ops,
        per_op_us: elapsed * 1e6 / ops as f64,
        records: db.wal_records_written() - records_before,
        fsyncs: db.wal_fsyncs() - fsyncs_before,
    };
    Database::close(std::sync::Arc::into_inner(db).unwrap()).unwrap();
    point
}

/// Single-client amortization through `execute_batch` (one ticket, one
/// covering fsync per batch).
fn measure_batched(ops: i64, batch: usize) -> Point {
    let dir = TempDir::new("batched");
    let db = Database::open(&dir.0, config(0)).unwrap();
    db.create_table("t", schema()).unwrap();
    let records_before = db.wal_records_written();
    let fsyncs_before = db.wal_fsyncs();

    let t0 = Instant::now();
    let mut k = 0i64;
    while k < ops {
        let chunk: Vec<BatchOp> = (k..(k + batch as i64).min(ops))
            .map(|i| BatchOp::Insert {
                table: "t".into(),
                tuple: tuple(i),
            })
            .collect();
        k += chunk.len() as i64;
        db.execute_batch(&chunk).unwrap();
    }
    let elapsed = t0.elapsed().as_secs_f64();

    let point = Point {
        writers: 1,
        window_us: 0,
        ops,
        per_op_us: elapsed * 1e6 / ops as f64,
        records: db.wal_records_written() - records_before,
        fsyncs: db.wal_fsyncs() - fsyncs_before,
    };
    db.close().unwrap();
    point
}

fn emit_bench_json(points: &[Point], batched: &Point, batch: usize, quick: bool) {
    let Ok(path) = std::env::var("AIB_DURABILITY_JSON") else {
        println!("(set AIB_DURABILITY_JSON=<path> to record BENCH_durability.json)");
        return;
    };
    let row = |p: &Point| {
        format!(
            "      {{ \"writers\": {}, \"window_us\": {}, \"ops\": {}, \"per_op_us\": {:.1}, \"records\": {}, \"fsyncs\": {}, \"amortization\": {:.1} }}",
            p.writers,
            p.window_us,
            p.ops,
            p.per_op_us,
            p.records,
            p.fsyncs,
            p.amortization()
        )
    };
    let rows: Vec<String> = points.iter().map(row).collect();
    let baseline = points
        .iter()
        .find(|p| p.writers == 1 && p.window_us == 0)
        .expect("sweep covers the single-writer window=0 baseline");
    let best = points
        .iter()
        .filter(|p| p.writers == 8)
        .min_by(|a, b| a.per_op_us.total_cmp(&b.per_op_us))
        .expect("sweep covers 8 writers");
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let provenance = aib_bench::provenance_json();
    let out = format!(
        "{{\n  \"bench\": \"micro_durability\",\n  \"provenance\": {provenance},\n  \"host_cpus\": {host_cpus},\n  \"quick\": {quick},\n  \"note\": \"per_op_us is acked durable-insert latency (ack waits for the covering fsync); amortization is WAL records per sync_data\",\n  \"sweep\": {{\n    \"note\": \"writer threads x group-commit window; window 0 with one writer is the fsync-per-record baseline\",\n    \"points\": [\n{}\n    ]\n  }},\n  \"single_writer_window0_us\": {:.1},\n  \"eight_writers_best_us\": {:.1},\n  \"speedup_8_writers\": {:.1},\n  \"execute_batch\": {{\n    \"note\": \"single client, batches of {batch} through ClientHandle::execute_batch — one ticket, one covering fsync per batch\",\n    \"point\":\n{}\n  }}\n}}\n",
        rows.join(",\n"),
        baseline.per_op_us,
        best.per_op_us,
        if best.per_op_us > 0.0 {
            baseline.per_op_us / best.per_op_us
        } else {
            0.0
        },
        row(batched),
    );
    match std::fs::write(&path, out) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--test");
    let ops_per_writer = if quick {
        OPS_PER_WRITER_QUICK
    } else {
        OPS_PER_WRITER_FULL
    };
    println!(
        "durability bench: {ops_per_writer} acked inserts per writer, \
         file-backed engine in a temp dir"
    );
    println!(
        "{:>8} {:>10} {:>8} {:>10} {:>8} {:>7} {:>12}",
        "writers", "window_us", "ops", "per_op_us", "records", "fsyncs", "amortization"
    );

    let mut points = Vec::new();
    for &window_us in WINDOWS_US {
        for &writers in WRITERS {
            let p = measure(writers, window_us, ops_per_writer);
            println!(
                "{:>8} {:>10} {:>8} {:>10.1} {:>8} {:>7} {:>12.1}",
                p.writers,
                p.window_us,
                p.ops,
                p.per_op_us,
                p.records,
                p.fsyncs,
                p.amortization()
            );
            points.push(p);
        }
    }

    let batch = 64usize;
    let batched = measure_batched(8 * ops_per_writer, batch);
    println!(
        "execute_batch({batch}): {:.1}us/op, {} records over {} fsyncs ({:.1}x)",
        batched.per_op_us,
        batched.records,
        batched.fsyncs,
        batched.amortization()
    );

    emit_bench_json(&points, &batched, batch, quick);
}
