//! The covered-fraction sweep: the scan fast path's cost per skippable-page
//! fraction, recorded in `BENCH_scan.json` (see EXPERIMENTS.md).
//!
//! Keys are inserted sequentially (1..=SWEEP_ROWS) so an `IntRange` partial
//! index covers a contiguous *prefix of pages*; with the Index Buffer budget
//! pinned to zero entries, the skippable fraction stays exactly at the
//! configured percentage across queries. Each query probes the first
//! uncovered key, forcing the indexing-scan path over the remaining pages.
//! A `plain` point — the same table with no index, so the same 516 pages
//! through the same sweep with nothing skippable — sits beside the 0 % row:
//! the two must cost the same, or the "buffer vs. table scan" comparisons
//! built on them are not fair.

use std::hint::black_box;
use std::time::Instant;

use aib_core::{BufferConfig, SpaceConfig};
use aib_engine::{Database, Query};
use aib_index::{Coverage, IndexBackend};
use aib_storage::{Column, CostModel, Schema, Tuple, Value};

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

fn main() {
    let quick = std::env::args().any(|a| a == "--test");
    let points = covered_fraction_sweep(quick);
    emit_bench_json(&points, quick);
}
