//! Criterion microbenchmarks of the scan paths: plain table scan vs. the
//! Algorithm-1 indexing scan at cold, warming, and fully buffered states,
//! plus the covered-fraction sweep that records the scan fast-path
//! trajectory in `BENCH_scan.json` (see EXPERIMENTS.md).

use std::time::Instant;

use aib_core::{BufferConfig, SpaceConfig};
use aib_engine::{Database, Query};
use aib_index::{Coverage, IndexBackend};
use aib_storage::{Column, CostModel, Schema, Tuple, Value};
use criterion::{black_box, criterion_group, Criterion};

const ROWS: i64 = 50_000;
const DOMAIN: i64 = 5_000;

fn build(buffered: bool) -> Database {
    let db = Database::new(aib_engine::EngineConfig {
        pool_frames: 256,
        cost_model: CostModel::free(),
        space: SpaceConfig {
            max_bytes: None,
            i_max: 1_000_000,
            seed: 3,
        },
        ..Default::default()
    });
    db.create_table("t", Schema::new(vec![Column::int("k"), Column::str("pad")]))
        .unwrap();
    let mut x = 0x12345u64;
    for _ in 0..ROWS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = (x % DOMAIN as u64) as i64 + 1;
        db.insert(
            "t",
            &Tuple::new(vec![Value::Int(k), Value::from("x".repeat(64))]),
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
        buffered.then(BufferConfig::default),
    )
    .unwrap();
    db
}

fn bench_scans(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_uncovered_value");
    group.sample_size(20);

    // Plain scan: no buffer, every query reads every page.
    let plain = build(false);
    group.bench_function("plain_scan", |b| {
        b.iter(|| {
            let (r, _) = plain
                .execute(&Query::point("t", "k", 4_000i64))
                .unwrap()
                .into_parts();
            black_box(r.count())
        })
    });

    // Fully buffered: warm up once, then every scan skips everything.
    let warm = build(true);
    warm.execute(&Query::point("t", "k", 4_000i64)).unwrap();
    group.bench_function("buffered_scan_warm", |b| {
        b.iter(|| {
            let (r, _) = warm
                .execute(&Query::point("t", "k", 4_001i64))
                .unwrap()
                .into_parts();
            black_box(r.count())
        })
    });

    // Index hit for reference.
    group.bench_function("partial_index_hit", |b| {
        b.iter(|| {
            let (r, _) = warm
                .execute(&Query::point("t", "k", 100i64))
                .unwrap()
                .into_parts();
            black_box(r.count())
        })
    });

    group.finish();
}

fn bench_first_indexing_scan(c: &mut Criterion) {
    // The cold first scan pays the buffer build-up: measure its overhead
    // relative to the plain scan (paper: "slightly longer runtime").
    let mut group = c.benchmark_group("first_indexing_scan");
    group.sample_size(10);
    group.bench_function("cold_buffered_scan", |b| {
        b.iter_with_setup(build_cold, |db| {
            let (r, _) = db
                .execute(&Query::point("t", "k", 4_000i64))
                .unwrap()
                .into_parts();
            black_box(r.count())
        })
    });
    group.finish();
}

fn build_cold() -> Database {
    build(true)
}

// ---------------------------------------------------------------------------
// Covered-fraction sweep: one measurement per skippable-page fraction.
//
// Keys are inserted sequentially (1..=SWEEP_ROWS) so an `IntRange` partial
// index covers a contiguous *prefix of pages*; with the Index Buffer budget
// pinned to zero entries, the skippable fraction stays exactly at the
// configured percentage across queries. Each query probes the first
// uncovered key, forcing the indexing-scan path over the remaining pages.
// A `plain` point — the same table with no index, so the same 516 pages
// through the same sweep with nothing skippable — sits beside the 0 % row:
// the two must cost the same, or the "buffer vs. table scan" comparisons
// built on them are not fair.
// ---------------------------------------------------------------------------

const SWEEP_ROWS: i64 = 50_000;
const FRACTIONS: [u32; 4] = [0, 50, 90, 100];

/// One row of the covered-fraction sweep.
struct SweepPoint {
    skippable_pct: u32,
    wall_us: f64,
    pages_read: u32,
    pages_skipped: u32,
    rows_per_sec: f64,
}

/// The sweep fixture with `pct` percent of the pages skippable, or with no
/// index at all (`None`: every query is a plain scan).
fn build_fraction(pct: Option<u32>) -> (Database, i64) {
    let db = Database::new(aib_engine::EngineConfig {
        pool_frames: 1024, // whole table resident: measures scan CPU cost
        cost_model: CostModel::free(),
        space: SpaceConfig {
            max_bytes: Some(0), // buffer pinned empty: stable skip fraction
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
    let Some(pct) = pct else {
        return (db, 1);
    };
    let hi = pct as i64 * SWEEP_ROWS / 100;
    db.create_partial_index(
        "t",
        "k",
        Coverage::IntRange { lo: 1, hi },
        IndexBackend::BTree,
        Some(BufferConfig::default()),
    )
    .unwrap();
    (db, hi + 1)
}

/// One point per fraction of [`FRACTIONS`], then the `plain` point.
fn covered_fraction_sweep(quick: bool) -> Vec<SweepPoint> {
    let iters = if quick { 3 } else { 25 };
    let mut points = Vec::new();
    println!("covered-fraction sweep: {SWEEP_ROWS} rows, {iters} iters/fraction");
    println!(
        "{:>13} {:>12} {:>11} {:>13} {:>14}",
        "skippable", "wall/query", "pages_read", "pages_skipped", "rows/sec"
    );
    for fraction in FRACTIONS.into_iter().map(Some).chain([None]) {
        let (db, probe) = build_fraction(fraction);
        let pct = fraction.unwrap_or(0);
        for _ in 0..2 {
            let (r, _) = db
                .execute(&Query::point("t", "k", probe))
                .unwrap()
                .into_parts();
            black_box(r.count());
        }
        let mut samples = Vec::with_capacity(iters);
        // A plain scan reports no `ScanStats`; it reads the whole table.
        let mut pages_read = db.table("t").unwrap().num_pages();
        let mut pages_skipped = 0;
        for _ in 0..iters {
            let t0 = Instant::now();
            let (r, m) = db
                .execute(&Query::point("t", "k", probe))
                .unwrap()
                .into_parts();
            black_box(r.count());
            samples.push(t0.elapsed().as_secs_f64() * 1e6);
            if let Some(scan) = &m.scan {
                pages_read = scan.pages_read;
                pages_skipped = scan.pages_skipped;
            }
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let wall_us = samples[samples.len() / 2];
        let scanned_rows = SWEEP_ROWS as f64 * (100 - pct) as f64 / 100.0;
        let rows_per_sec = if wall_us > 0.0 {
            scanned_rows / (wall_us / 1e6)
        } else {
            0.0
        };
        let label = fraction.map_or("plain".to_string(), |pct| format!("{pct}%"));
        println!("{label:>13} {wall_us:>10.1}us {pages_read:>11} {pages_skipped:>13} {rows_per_sec:>14.0}");
        points.push(SweepPoint {
            skippable_pct: pct,
            wall_us,
            pages_read,
            pages_skipped,
            rows_per_sec,
        });
    }
    points
}

fn points_json(points: &[SweepPoint], indent: &str) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{indent}  {{ \"skippable_pct\": {}, \"wall_us\": {:.1}, \"pages_read\": {}, \"pages_skipped\": {}, \"rows_per_sec\": {:.0} }}",
                p.skippable_pct, p.wall_us, p.pages_read, p.pages_skipped, p.rows_per_sec
            )
        })
        .collect();
    format!("[\n{}\n{indent}]", rows.join(",\n"))
}

/// Extracts the `"<key>": { ... }` object from previously emitted JSON by
/// brace counting (our own output contains no braces inside strings).
fn extract_object(json: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\"");
    let at = json.find(&needle)?;
    let open = json[at..].find('{')? + at;
    let mut depth = 0usize;
    for (i, c) in json[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(json[open..=open + i].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

fn emit_bench_json(points: &[SweepPoint], quick: bool) {
    let Ok(path) = std::env::var("AIB_SCAN_JSON") else {
        println!("(set AIB_SCAN_JSON=<path> to record the sweep in BENCH_scan.json)");
        return;
    };
    let (plain, fractions) = points
        .split_last()
        .expect("the sweep ends with the plain point");
    let current = format!(
        "{{\n    \"label\": \"covered-fraction sweep\",\n    \"quick\": {quick},\n    \"points\": {},\n    \"plain\": {{ \"wall_us\": {:.1}, \"pages_read\": {}, \"rows_per_sec\": {:.0} }}\n  }}",
        points_json(fractions, "    "),
        plain.wall_us,
        plain.pages_read,
        plain.rows_per_sec
    );
    // Preserve the recorded pre-PR baseline across regenerations; a fresh
    // file records the present numbers as its own first trajectory point.
    let baseline = std::fs::read_to_string(&path)
        .ok()
        .and_then(|old| extract_object(&old, "baseline"))
        .unwrap_or_else(|| current.clone());
    let provenance = aib_bench::provenance_json();
    let out = format!(
        "{{\n  \"bench\": \"micro_scan covered-fraction sweep\",\n  \"provenance\": {provenance},\n  \"rows\": {SWEEP_ROWS},\n  \"fractions_pct\": [0, 50, 90, 100],\n  \"baseline\": {baseline},\n  \"current\": {current}\n}}\n"
    );
    match std::fs::write(&path, out) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_scans, bench_first_indexing_scan);

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--test");
    let sweep_only = args.iter().any(|a| a == "--sweep-only");
    let points = covered_fraction_sweep(quick);
    emit_bench_json(&points, quick);
    if !sweep_only {
        benches();
    }
}
