//! `explain` prints the plan `execute` runs: on quiescent state,
//! `explain(q)` followed by `execute(q)` must agree on the access path, the
//! plan source, the pages the sweep reads and the skippable runs it jumps
//! — for every kind of plan the read pipeline produces,
//! and for a table that grew after its index was created (a page it grew by
//! is tracked from its first tuple on, so one holding only covered tuples
//! is skipped).

use aib_core::{BufferConfig, SpaceConfig};
use aib_engine::{AccessPath, Database, EngineConfig, PlanSource, Query, TunerConfig};
use aib_index::{Coverage, IndexBackend};
use aib_storage::{Column, CostModel, Schema, Tuple, Value, DEFAULT_ENTRY_FOOTPRINT};

const ROWS: i64 = 6_000;

fn row(k: i64) -> Tuple {
    Tuple::new(vec![Value::Int(k), Value::from("p".repeat(100))])
}

/// `t(k, pad)` with keys `0..ROWS` in insertion order, a partial index
/// covering `k < covered_below`, and a buffer under `budget_entries`.
fn database(covered_below: i64, budget_entries: Option<usize>) -> Database {
    let coverage = Coverage::IntRange {
        lo: 0,
        hi: covered_below - 1,
    };
    database_covering(coverage, budget_entries)
}

fn database_covering(coverage: Coverage, budget_entries: Option<usize>) -> Database {
    let db = Database::new(EngineConfig {
        pool_frames: 256,
        cost_model: CostModel::free(),
        space: SpaceConfig {
            max_bytes: budget_entries.map(|n| n * DEFAULT_ENTRY_FOOTPRINT),
            i_max: 1_000,
            seed: 5,
        },
        ..Default::default()
    });
    db.create_table("t", Schema::new(vec![Column::int("k"), Column::str("pad")]))
        .unwrap();
    for k in 0..ROWS {
        db.insert("t", &row(k)).unwrap();
    }
    db.create_partial_index(
        "t",
        "k",
        coverage,
        IndexBackend::BTree,
        Some(BufferConfig::default()),
    )
    .unwrap();
    db
}

/// Explains, executes, and checks the two agree; returns the pages read.
fn agree(db: &Database, q: &Query, path: AccessPath, source: PlanSource) -> u32 {
    let e = db.explain(q).unwrap();
    let out = db.execute(q).unwrap();
    assert_eq!((e.path, e.plan), (path, source), "explain: {}", e.summary());
    assert_eq!((out.result.path, out.metrics.plan), (path, source));
    assert!(e.summary().contains(source.as_str()) || path != AccessPath::BufferedScan);
    match &out.metrics.scan {
        Some(scan) => {
            assert_eq!(e.pages_to_read, scan.pages_read, "{}", e.summary());
            assert_eq!(e.pages_skippable, scan.pages_skipped);
            assert_eq!(e.skip_runs, scan.skip_runs);
            assert_eq!(e.cold_read_requests, scan.sweep_batches);
        }
        None => assert_eq!(e.skip_runs, 0),
    }
    if let Some(n) = e.known_cardinality {
        assert_eq!(n, out.result.count());
    }
    e.pages_to_read
}

#[test]
fn plain_scans_and_index_hits() {
    let db = database(1_500, None);
    let pages = db.table("t").unwrap().num_pages();
    // `pad` has no index: a plain scan of every page.
    let q = Query::point("t", "pad", "nope");
    assert_eq!(
        agree(&db, &q, AccessPath::PlainScan, PlanSource::None),
        pages
    );
    // Covered point and covered range: partial-index hits, no page swept.
    let q = Query::point("t", "k", 42i64);
    assert_eq!(
        agree(&db, &q, AccessPath::PartialIndex, PlanSource::None),
        0
    );
    let q = Query::range("t", "k", 10i64, 19i64);
    assert_eq!(
        agree(&db, &q, AccessPath::PartialIndex, PlanSource::None),
        0
    );
    assert_eq!(db.explain(&q).unwrap().known_cardinality, Some(10));
}

#[test]
fn snapshot_planned_then_fully_skippable() {
    let db = database(1_500, None);
    // Cold buffer, unlimited budget: planned from the snapshot, reads the
    // uncovered three quarters of the table.
    let q = Query::point("t", "k", 4_500i64);
    let read = agree(&db, &q, AccessPath::BufferedScan, PlanSource::Snapshot);
    assert!(read > 0);
    // That scan buffered every uncovered page: nothing left to read.
    assert_eq!(
        agree(&db, &q, AccessPath::BufferedScan, PlanSource::Snapshot),
        0
    );
    // A straddling range takes the same plan plus the range epilogue.
    let q = Query::range("t", "k", 1_490i64, 1_510i64);
    assert_eq!(
        agree(&db, &q, AccessPath::BufferedScan, PlanSource::Snapshot),
        0
    );

    // Everything covered, buffer pinned empty: the snapshot proves every
    // page skippable and the plan has no sweep at all.
    let db = database(ROWS, Some(0));
    let q = Query::point("t", "k", ROWS + 7);
    assert_eq!(
        agree(&db, &q, AccessPath::BufferedScan, PlanSource::Snapshot),
        0
    );
    assert_eq!(db.explain(&q).unwrap().skip_runs, 1);
}

#[test]
fn limited_budget_falls_back_to_the_locked_planner() {
    // Headroom for some but not all uncovered tuples: the read-only
    // planner may not commit pages against a limited budget, so Algorithm 2
    // runs under the space write lock — and explain says so.
    let db = database(1_500, Some(400));
    let q = Query::point("t", "k", 4_500i64);
    let first = agree(&db, &q, AccessPath::BufferedScan, PlanSource::Locked);
    // With the budget spent the planner can prove the selection empty
    // (nothing admitted, no sibling to displace): lock-free again.
    let second = agree(&db, &q, AccessPath::BufferedScan, PlanSource::Snapshot);
    assert!(
        0 < second && second < first,
        "the first scan buffered some pages"
    );
}

#[test]
fn tuned_point_queries_run_exclusive() {
    let db = database_covering(Coverage::empty_set(), None);
    db.attach_tuner(
        "t",
        "k",
        TunerConfig {
            window: 50,
            threshold: 40,
            capacity: 4,
        },
    )
    .unwrap();
    let q = Query::point("t", "k", 4_500i64);
    let read = agree(&db, &q, AccessPath::BufferedScan, PlanSource::Exclusive);
    assert!(read > 0);
    assert_eq!(
        agree(&db, &q, AccessPath::BufferedScan, PlanSource::Exclusive),
        0
    );
    // Ranges are not observed by the tuner and keep the shared path.
    let q = Query::range("t", "k", 1_490i64, 1_510i64);
    agree(&db, &q, AccessPath::BufferedScan, PlanSource::Snapshot);
}

#[test]
fn pages_a_table_grew_by_with_covered_rows_are_skipped() {
    let db = database(ROWS, Some(0));
    let before = db.table("t").unwrap().num_pages();
    // Covered inserts change no counter, but Table I maintenance tracks the
    // page of every new tuple: the pages the heap grows by hold only
    // covered tuples, so they are tracked with `C[p] = 0`.
    for k in 0..400 {
        db.insert("t", &row(k)).unwrap();
    }
    let grown = db.table("t").unwrap().num_pages() - before;
    assert!(grown >= 3, "grew by {grown} pages");
    let q = Query::point("t", "k", ROWS + 7);
    let read = agree(&db, &q, AccessPath::BufferedScan, PlanSource::Snapshot);
    assert_eq!(read, 0, "a page of covered tuples only is skippable");
    assert_eq!(db.explain(&q).unwrap().pages_skippable, before + grown);
    // An uncovered row on a grown page makes exactly that page unskippable.
    let rid = db.insert("t", &row(ROWS + 7)).unwrap();
    let out = db.execute(&q).unwrap();
    assert_eq!(out.result.rids, vec![rid]);
}
