//! Cross-crate integration tests: the full pipeline from generated data
//! through partial indexes, the Adaptive Index Buffer, DML, and the
//! executor, validated against ground truth.

use adaptive_index_buffer::core::{BufferConfig, SpaceConfig};
use adaptive_index_buffer::engine::{AccessPath, Database, EngineConfig, Query};
use adaptive_index_buffer::index::{Coverage, IndexBackend};
use adaptive_index_buffer::storage::{
    Column, CostModel, Schema, Tuple, Value, DEFAULT_ENTRY_FOOTPRINT,
};
use adaptive_index_buffer::workload::{experiment1_queries, experiment3_queries, TableSpec};

fn eval_db(rows: u64, space: SpaceConfig) -> (Database, TableSpec) {
    let spec = TableSpec::scaled(rows, 77);
    let db = Database::new(EngineConfig {
        pool_frames: 64,
        cost_model: CostModel::default(),
        space,
        ..Default::default()
    });
    db.create_table("eval", spec.schema()).unwrap();
    for t in spec.tuples() {
        db.insert("eval", &t).unwrap();
    }
    let (lo, hi) = spec.covered_range();
    for col in ["A", "B", "C"] {
        db.create_partial_index(
            "eval",
            col,
            Coverage::IntRange { lo, hi },
            IndexBackend::BTree,
            Some(BufferConfig {
                partition_pages: 200,
                ..Default::default()
            }),
        )
        .unwrap();
    }
    (db, spec)
}

/// Ground truth by decoding every live tuple.
fn truth(db: &Database, column: &str, value: i64) -> usize {
    let table = db.table("eval").unwrap();
    let ci = table.schema().column_index(column).unwrap();
    table
        .scan_all()
        .unwrap()
        .iter()
        .filter(|(_, t)| t.get(ci).unwrap().as_int() == Some(value))
        .count()
}

#[test]
fn experiment1_workload_is_correct_and_converges() {
    let space = SpaceConfig {
        max_bytes: None,
        i_max: 100,
        seed: 1,
    };
    let (db, spec) = eval_db(20_000, space);
    let queries = experiment1_queries(&spec, 60, 5);
    let mut last_skipped = 0;
    for q in &queries {
        let (r, m) = db
            .execute(&Query::point("eval", &q.column, q.value))
            .unwrap()
            .into_parts();
        assert_eq!(r.count(), truth(&db, &q.column, q.value), "query {q:?}");
        assert_eq!(r.path, AccessPath::BufferedScan);
        let s = m.scan.unwrap();
        assert!(
            s.pages_skipped >= last_skipped.min(s.pages_skipped),
            "skippable pages never regress under unlimited space"
        );
        last_skipped = s.pages_skipped;
    }
    // Convergence: with I^MAX=100 and ~700 pages, 60 queries suffice.
    let (_, m) = db
        .execute(&Query::point("eval", "A", spec.domain))
        .unwrap()
        .into_parts();
    assert_eq!(
        m.scan.unwrap().pages_read,
        0,
        "table fully buffered for column A"
    );
    db.check_space_invariants();
}

#[test]
fn experiment3_respects_space_bound_and_flips_allocation() {
    let rows = 20_000u64;
    let bound = (rows as f64 * 1.6) as usize;
    let space = SpaceConfig {
        max_bytes: Some(bound * DEFAULT_ENTRY_FOOTPRINT),
        i_max: 200,
        seed: 2,
    };
    let (db, spec) = eval_db(rows, space);
    let queries = experiment3_queries(&spec, 200, 9);
    let mut entries_at_switch = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let (r, m) = db
            .execute(&Query::point("eval", &q.column, q.value))
            .unwrap()
            .into_parts();
        assert_eq!(r.count(), truth(&db, &q.column, q.value));
        // The space bound holds after every scan (scans re-establish it).
        let total: usize = m.buffer_entries.iter().sum();
        assert!(total <= bound, "query {i}: {total} > {bound}");
        if i == 99 {
            entries_at_switch = m.buffer_entries.clone();
        }
    }
    let final_entries: Vec<usize> = (0..3).map(|b| db.space().buffer(b).num_entries()).collect();
    assert!(
        entries_at_switch[0] > entries_at_switch[2],
        "A dominates C before the switch: {entries_at_switch:?}"
    );
    assert!(
        final_entries[2] > final_entries[0],
        "C dominates A after the switch: {final_entries:?}"
    );
    db.check_space_invariants();
}

#[test]
fn dml_between_queries_never_breaks_results() {
    let space = SpaceConfig {
        max_bytes: None,
        i_max: 1_000_000,
        seed: 3,
    };
    let (db, spec) = eval_db(5_000, space);
    // Warm the buffer for column A.
    let probe = spec.domain; // uncovered value
    db.execute(&Query::point("eval", "A", probe)).unwrap();

    // Insert new matching tuples; they must be visible immediately.
    let mut my_rids = Vec::new();
    for i in 0..20 {
        let t = Tuple::new(vec![
            Value::Int(probe),
            Value::Int(1 + i % 50),
            Value::Int(spec.domain - 1),
            Value::from("fresh"),
        ]);
        my_rids.push(db.insert("eval", &t).unwrap());
    }
    let (r, _) = db
        .execute(&Query::point("eval", "A", probe))
        .unwrap()
        .into_parts();
    assert_eq!(r.count(), truth(&db, "A", probe));
    assert!(my_rids.iter().all(|rid| r.rids.contains(rid)));

    // Delete half of them.
    for rid in my_rids.iter().take(10) {
        db.delete("eval", *rid).unwrap();
    }
    let (r, _) = db
        .execute(&Query::point("eval", "A", probe))
        .unwrap()
        .into_parts();
    assert_eq!(r.count(), truth(&db, "A", probe));

    // Update the rest to a covered value: they leave the buffer and enter
    // the partial index.
    for rid in my_rids.iter().skip(10) {
        let t = db.fetch("eval", *rid).unwrap();
        let mut vals = t.into_values();
        vals[0] = Value::Int(1);
        db.update("eval", *rid, &Tuple::new(vals)).unwrap();
    }
    let (r, _) = db
        .execute(&Query::point("eval", "A", probe))
        .unwrap()
        .into_parts();
    assert_eq!(r.count(), truth(&db, "A", probe));
    let (r, m) = db
        .execute(&Query::point("eval", "A", 1i64))
        .unwrap()
        .into_parts();
    assert_eq!(m.path, AccessPath::PartialIndex);
    assert_eq!(r.count(), truth(&db, "A", 1));
    db.check_space_invariants();
}

#[test]
fn counters_match_ground_truth_after_mixed_workload() {
    let space = SpaceConfig {
        max_bytes: Some(4_000 * DEFAULT_ENTRY_FOOTPRINT),
        i_max: 50,
        seed: 4,
    };
    let (db, spec) = eval_db(5_000, space);
    // Mixed queries warm up all three buffers against the bound.
    let queries = experiment3_queries(&spec, 80, 13);
    for q in &queries {
        db.execute(&Query::point("eval", &q.column, q.value))
            .unwrap();
    }
    // Central invariant (paper §III): for each column and page, C[p] equals
    // the number of live tuples on the page covered by neither the partial
    // index nor the Index Buffer.
    let (clo, chi) = spec.covered_range();
    let table = db.table("eval").unwrap();
    for (col_idx, col) in ["A", "B", "C"].iter().enumerate() {
        let bid = db.buffer_id("eval", col).unwrap();
        let space = db.space();
        let buffer = space.buffer(bid);
        let counters = space.counters(bid);
        let ci = table.schema().column_index(col).unwrap();
        for ord in 0..table.num_pages() {
            let tuples = table.page_tuples(ord).unwrap();
            let uncovered: Vec<_> = tuples
                .iter()
                .filter(|(_, t)| {
                    let v = t.get(ci).unwrap().as_int().unwrap();
                    !(clo <= v && v <= chi)
                })
                .collect();
            if buffer.is_buffered(ord) {
                assert_eq!(counters.get(ord), 0, "col {col} page {ord} buffered");
                for (rid, t) in &uncovered {
                    assert!(
                        buffer.contains(t.get(ci).unwrap(), *rid),
                        "col {col} page {ord}: buffered page misses entry"
                    );
                }
            } else {
                assert_eq!(
                    counters.get(ord) as usize,
                    uncovered.len(),
                    "col {col} page {ord} counter (col_idx {col_idx})"
                );
            }
        }
    }
    db.check_space_invariants();
}

#[test]
fn range_queries_agree_with_ground_truth_across_coverage_boundary() {
    let space = SpaceConfig {
        max_bytes: None,
        i_max: 1_000_000,
        seed: 5,
    };
    let (db, spec) = eval_db(5_000, space);
    let (_, chi) = spec.covered_range();
    let table = db.table("eval").unwrap();
    let ci = table.schema().column_index("A").unwrap();
    let all = table.scan_all().unwrap();
    let truth_range = |lo: i64, hi: i64| {
        all.iter()
            .filter(|(_, t)| {
                let v = t.get(ci).unwrap().as_int().unwrap();
                lo <= v && v <= hi
            })
            .count()
    };
    for (lo, hi) in [
        (1, 40),
        (chi - 20, chi + 20),
        (chi + 1, chi + 60),
        (1, spec.domain),
    ] {
        for _ in 0..2 {
            let (r, _) = db
                .execute(&Query::range("eval", "A", lo, hi))
                .unwrap()
                .into_parts();
            assert_eq!(r.count(), truth_range(lo, hi), "range [{lo},{hi}]");
        }
    }
}

/// The baseline the paper's Figs. 6–7 plot: a plain table scan must be the
/// buffered sweep that skips nothing — same rids in the same order, same
/// `IoSnapshot` delta — so the two differ only by what `C[p] = 0` skips and
/// what line 16 inserts. Columns `k` and `j` hold the same values; `k` has
/// a partial index covering nothing and a buffer in a zero-byte space (no
/// page is ever indexed, so no page ever becomes skippable), `j` has no
/// index at all.
#[test]
fn plain_scan_is_the_buffered_sweep_that_skips_nothing() {
    const ROWS: i64 = 6_000;
    const DOMAIN: i64 = 600;
    let build = |pool_frames: usize| {
        let db = Database::new(EngineConfig {
            pool_frames,
            cost_model: CostModel::default(),
            space: SpaceConfig {
                max_bytes: Some(0),
                ..Default::default()
            },
            ..Default::default()
        });
        db.create_table(
            "t",
            Schema::new(vec![Column::int("k"), Column::int("j"), Column::str("pad")]),
        )
        .unwrap();
        for i in 0..ROWS {
            let v = Value::Int((i * 17) % DOMAIN);
            let pad = Value::from("x".repeat(100 + (i as usize * 7) % 60));
            db.insert("t", &Tuple::new(vec![v.clone(), v, pad]))
                .unwrap();
        }
        db.create_partial_index(
            "t",
            "k",
            Coverage::empty_set(),
            IndexBackend::BTree,
            Some(BufferConfig::default()),
        )
        .unwrap();
        db
    };
    let pages = build(2048).table("t").unwrap().num_pages();
    assert!(pages >= 64);

    // A pool the table fits in, and one an eighth of it that every sweep
    // floods.
    for pool_frames in [2048, pages as usize / 8] {
        let db = build(pool_frames);
        // Settle the pool: write back the load's dirty pages, leave the
        // frames as a full sweep leaves them.
        db.execute(&Query::on("t", "j").eq(0i64)).unwrap();
        for value in [3i64, 77, DOMAIN - 1, DOMAIN + 5] {
            let plain = db.execute(&Query::on("t", "j").eq(value)).unwrap();
            let buffered = db.execute(&Query::on("t", "k").eq(value)).unwrap();
            assert_eq!(plain.result.path, AccessPath::PlainScan);
            assert_eq!(buffered.result.path, AccessPath::BufferedScan);
            let scan = buffered.metrics.scan.as_ref().unwrap();
            assert_eq!(
                (scan.pages_read, scan.pages_skipped, scan.pages_indexed),
                (pages, 0, 0),
                "{pool_frames} frames: the buffered sweep skips and indexes nothing"
            );
            assert_eq!(
                plain.result.rids, buffered.result.rids,
                "{pool_frames} frames, value {value}: same rids, same order"
            );
            assert_eq!(
                plain.metrics.io, buffered.metrics.io,
                "{pool_frames} frames, value {value}: same I/O charge"
            );
            let io = plain.metrics.io;
            assert_eq!(io.buffer_hits + io.buffer_misses, u64::from(pages));
            assert_eq!(io.page_reads, io.buffer_misses);
            assert_eq!(io.buffer_misses == 0, pool_frames >= pages as usize);
        }
    }
}

/// The pool decides a sweep's admission once, from the whole plan: a miss
/// sweep over a table three times the pool recycles one batch's frames at
/// the cold end, so pages kept hot by partial-index hits are still resident
/// afterwards. (Decided per fraction of the sweep, every fraction "fits"
/// and the sweep floods the pool.) Default engine apart from the pool size.
/// Not under `invariant-checks`: the shadow model rescans the heap through
/// this pool after every query.
#[cfg(not(feature = "invariant-checks"))]
#[test]
fn index_hit_pages_survive_a_miss_sweep_larger_than_the_pool() {
    const ROWS: i64 = 6_000;
    let db = Database::new(EngineConfig {
        pool_frames: 64,
        ..Default::default()
    });
    db.create_table("t", Schema::new(vec![Column::int("k"), Column::str("pad")]))
        .unwrap();
    for i in 0..ROWS {
        // A permutation of 0..ROWS: every key is one row, and the covered
        // tenth is spread over every page.
        let k = Value::Int((i * 1777) % ROWS);
        db.insert("t", &Tuple::new(vec![k, Value::from("x".repeat(250))]))
            .unwrap();
    }
    db.create_partial_index(
        "t",
        "k",
        Coverage::IntRange {
            lo: 0,
            hi: ROWS / 10,
        },
        IndexBackend::BTree,
        Some(BufferConfig::default()),
    )
    .unwrap();
    let pages = db.table("t").unwrap().num_pages();
    assert!((180..=220).contains(&pages), "{pages} pages vs 64 frames");

    // Eight covered keys whose rows sit an eighth of the table apart.
    let hot: Vec<i64> = (0..8)
        .filter_map(|j| {
            (j * ROWS / 8..)
                .map(|i| (i * 1777) % ROWS)
                .find(|&k| k < ROWS / 10)
        })
        .collect();
    let hot_misses = || -> u64 {
        hot.iter()
            .map(|&k| {
                let out = db.execute(&Query::on("t", "k").eq(k)).unwrap();
                assert_eq!(out.result.path, AccessPath::PartialIndex, "key {k}");
                assert_eq!(out.result.rids.len(), 1);
                out.metrics.io.buffer_misses
            })
            .sum()
    };
    hot_misses();
    assert_eq!(hot_misses(), 0, "the hot set is resident");

    let miss = db.execute(&Query::on("t", "k").eq(ROWS / 2)).unwrap();
    assert_eq!(miss.result.path, AccessPath::BufferedScan);
    assert_eq!(miss.metrics.scan.as_ref().unwrap().pages_read, pages);

    assert_eq!(hot_misses(), 0, "the sweep evicted index-hit pages");
}
