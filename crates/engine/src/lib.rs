//! A mini database engine wiring the Adaptive Index Buffer into a complete
//! query/DML path — the role H2 1.3 played for the paper's prototype.
//!
//! * [`db::Database`] — tables, partial indexes, the Index Buffer Space,
//!   and DML with full Table I maintenance.
//! * [`read`] — the executor: one plan → sweep → adapt pipeline answering
//!   every query (index hit / indexing scan / plain scan).
//! * [`tuner::OnlineTuner`] — the sliding-window, threshold-triggered,
//!   LRU-evicting partial-index tuner of Fig. 1: the slow control loop the
//!   Index Buffer backs up.
//! * [`metrics`] — per-query instrumentation producing the series of
//!   Figures 6–9.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
mod commit;
pub mod db;
mod durability;
pub mod error;
pub mod explain;
pub mod metrics;
pub mod query;
pub mod read;
pub mod tuner;

pub use client::ClientHandle;
pub use db::{BatchOp, CheckpointPhase, Database, EngineConfig, SpaceRef, Table, TableRef};
pub use error::{EngineError, EngineResult};
pub use explain::Explanation;
pub use metrics::{QueryMetrics, WorkloadRecorder};
pub use query::{AccessPath, ExecOutcome, Query, QueryBuilder, QueryResult};
pub use read::PlanSource;
pub use tuner::{OnlineTuner, TunerConfig, TunerDecision};

#[cfg(test)]
mod tests {
    use super::*;
    use aib_core::{BufferConfig, SpaceConfig};
    use aib_index::{Coverage, IndexBackend};
    use aib_storage::{Column, CostModel, Schema, Tuple, Value};

    fn config() -> EngineConfig {
        EngineConfig {
            pool_frames: 64,
            cost_model: CostModel::default(),
            space: SpaceConfig {
                max_bytes: None,
                i_max: 10_000,
                seed: 7,
            },
            ..Default::default()
        }
    }

    /// A small two-column table `t(k INTEGER, pad VARCHAR)` with keys
    /// `0..n`, partial index covering `k < covered_below`, with a buffer.
    fn setup(n: i64, covered_below: i64) -> Database {
        let db = Database::new(config());
        db.create_table("t", Schema::new(vec![Column::int("k"), Column::str("pad")]))
            .unwrap();
        for i in 0..n {
            let t = Tuple::new(vec![Value::Int(i), Value::from("p".repeat(100))]);
            db.insert("t", &t).unwrap();
        }
        db.create_partial_index(
            "t",
            "k",
            Coverage::IntRange {
                lo: 0,
                hi: covered_below - 1,
            },
            IndexBackend::BTree,
            Some(BufferConfig::default()),
        )
        .unwrap();
        db
    }

    #[test]
    fn covered_query_hits_partial_index() {
        let db = setup(500, 100);
        let (r, m) = db
            .execute(&Query::point("t", "k", 42i64))
            .unwrap()
            .into_parts();
        assert_eq!(r.path, AccessPath::PartialIndex);
        assert_eq!(r.count(), 1);
        assert!(m.io.page_reads >= 3, "probe cost charged");
        assert!(m.scan.is_none());
    }

    #[test]
    fn uncovered_query_takes_buffered_scan_then_buffer() {
        let db = setup(500, 100);
        let (r1, m1) = db
            .execute(&Query::point("t", "k", 400i64))
            .unwrap()
            .into_parts();
        assert_eq!(r1.path, AccessPath::BufferedScan);
        assert_eq!(r1.count(), 1);
        let s1 = m1.scan.unwrap();
        let total = db.table("t").unwrap().num_pages();
        // Keys were inserted in order, so leading pages hold only covered
        // tuples and are skippable from the start (paper §II).
        assert_eq!(s1.pages_read + s1.pages_skipped, total);
        assert!(s1.pages_read > 0);
        assert_eq!(s1.entries_added, 400, "uncovered tuples buffered");

        let (r2, m2) = db
            .execute(&Query::point("t", "k", 450i64))
            .unwrap()
            .into_parts();
        let s2 = m2.scan.unwrap();
        assert_eq!(s2.pages_read, 0, "fully buffered table: all pages skipped");
        assert_eq!(r2.count(), 1);
        assert_eq!(s2.buffer_matches, 1);
    }

    #[test]
    fn query_results_match_plain_scan_ground_truth() {
        let db = setup(300, 50);
        // Insert duplicates so results have several rids.
        for _ in 0..5 {
            db.insert("t", &Tuple::new(vec![Value::Int(200), Value::from("dup")]))
                .unwrap();
        }
        let q = Query::point("t", "k", 200i64);
        let (r1, _) = db.execute(&q).unwrap().into_parts();
        let (r2, _) = db.execute(&q).unwrap().into_parts();
        let mut a = r1.rids.clone();
        let mut b = r2.rids.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "scan and buffered answers agree");
        assert_eq!(a.len(), 6);
    }

    #[test]
    fn dml_keeps_buffer_consistent() {
        let db = setup(200, 50);
        // Warm the buffer.
        db.execute(&Query::point("t", "k", 150i64)).unwrap();
        // Insert an uncovered tuple; it must be findable immediately.
        let rid = db
            .insert("t", &Tuple::new(vec![Value::Int(199), Value::from("x")]))
            .unwrap();
        let (r, _) = db
            .execute(&Query::point("t", "k", 199i64))
            .unwrap()
            .into_parts();
        assert!(r.rids.contains(&rid));
        assert_eq!(r.count(), 2);
        // Delete it; it must disappear.
        db.delete("t", rid).unwrap();
        let (r, _) = db
            .execute(&Query::point("t", "k", 199i64))
            .unwrap()
            .into_parts();
        assert_eq!(r.count(), 1);
        // Update a tuple's key from uncovered to covered.
        let victim = r.rids[0];
        db.update(
            "t",
            victim,
            &Tuple::new(vec![Value::Int(10), Value::from("y")]),
        )
        .unwrap();
        let (r, _) = db
            .execute(&Query::point("t", "k", 199i64))
            .unwrap()
            .into_parts();
        assert_eq!(r.count(), 0);
        let (r, m) = db
            .execute(&Query::point("t", "k", 10i64))
            .unwrap()
            .into_parts();
        assert_eq!(m.path, AccessPath::PartialIndex);
        assert_eq!(r.count(), 2, "original k=10 plus the update");
    }

    #[test]
    fn range_queries_work_on_both_paths() {
        let db = setup(300, 100);
        // Fully covered range: index hit.
        let (r, _) = db
            .execute(&Query::range("t", "k", 10i64, 20i64))
            .unwrap()
            .into_parts();
        assert_eq!(r.path, AccessPath::PartialIndex);
        assert_eq!(r.count(), 11);
        // Straddling range: miss -> buffered scan.
        let (r, _) = db
            .execute(&Query::range("t", "k", 90i64, 110i64))
            .unwrap()
            .into_parts();
        assert_eq!(r.path, AccessPath::BufferedScan);
        assert_eq!(r.count(), 21);
        // Repeat: buffer + partial must still produce all 21.
        let (r, m) = db
            .execute(&Query::range("t", "k", 90i64, 110i64))
            .unwrap()
            .into_parts();
        assert_eq!(r.count(), 21);
        assert_eq!(m.scan.unwrap().pages_read, 0);
    }

    #[test]
    fn unindexed_column_plain_scans() {
        let db = Database::new(config());
        db.create_table("t", Schema::new(vec![Column::int("k")]))
            .unwrap();
        for i in 0..50 {
            db.insert("t", &Tuple::new(vec![Value::Int(i)])).unwrap();
        }
        let (r, m) = db
            .execute(&Query::point("t", "k", 7i64))
            .unwrap()
            .into_parts();
        assert_eq!(r.path, AccessPath::PlainScan);
        assert_eq!(r.count(), 1);
        assert!(m.scan.is_none());
    }

    #[test]
    fn tuner_adapts_partial_index_online() {
        let db = Database::new(config());
        db.create_table("t", Schema::new(vec![Column::int("k"), Column::str("pad")]))
            .unwrap();
        for i in 0..200 {
            db.insert(
                "t",
                &Tuple::new(vec![Value::Int(i % 20), Value::from("z".repeat(50))]),
            )
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
        db.attach_tuner(
            "t",
            "k",
            TunerConfig {
                window: 10,
                threshold: 3,
                capacity: 5,
            },
        )
        .unwrap();

        // Hammer value 7: after 3 queries it must be indexed.
        for _ in 0..3 {
            let (r, _) = db
                .execute(&Query::point("t", "k", 7i64))
                .unwrap()
                .into_parts();
            assert_eq!(r.count(), 10);
        }
        let (r, m) = db
            .execute(&Query::point("t", "k", 7i64))
            .unwrap()
            .into_parts();
        assert_eq!(m.path, AccessPath::PartialIndex, "tuner adapted the index");
        assert_eq!(r.count(), 10);
        assert_eq!(db.partial_index_len("t", "k"), Some(10));
        // Results stay correct after adaptation (buffer/counters adjusted).
        let (r, _) = db
            .execute(&Query::point("t", "k", 8i64))
            .unwrap()
            .into_parts();
        assert_eq!(r.count(), 10);
        db.check_space_invariants();
    }

    #[test]
    fn redefine_coverage_rebuilds_counters_and_entries() {
        let db = setup(300, 100);
        // Warm the buffer fully.
        db.execute(&Query::point("t", "k", 250i64)).unwrap();
        assert!(db.space().buffer(0).num_entries() > 0);
        // Flip coverage to the top of the domain (experiment 4's switch).
        db.redefine_coverage("t", "k", Coverage::IntRange { lo: 200, hi: 299 })
            .unwrap();
        assert_eq!(db.space().buffer(0).num_entries(), 0, "buffer invalidated");
        let (r, m) = db
            .execute(&Query::point("t", "k", 250i64))
            .unwrap()
            .into_parts();
        assert_eq!(m.path, AccessPath::PartialIndex);
        assert_eq!(r.count(), 1);
        let (r, m) = db
            .execute(&Query::point("t", "k", 50i64))
            .unwrap()
            .into_parts();
        assert_eq!(m.path, AccessPath::BufferedScan);
        assert_eq!(r.count(), 1);
        let _ = m;
        db.check_space_invariants();
    }

    #[test]
    fn metrics_series_shrinks_io_as_buffer_warms() {
        let db = setup(400, 100);
        let mut recorder = WorkloadRecorder::new();
        for i in 0..5 {
            recorder.record(&db.execute(&Query::point("t", "k", 300 + i)).unwrap());
        }
        let records = recorder.records();
        // Page fetches shrink to zero as the buffer completes the table
        // (this small table is pool-resident, so compare scan-level reads).
        let scan_reads = |m: &QueryMetrics| m.scan.as_ref().unwrap().pages_read;
        assert!(scan_reads(&records[0]) > 0);
        assert_eq!(scan_reads(&records[4]), 0);
        assert_eq!(
            records[4].pages_skipped(),
            db.table("t").unwrap().num_pages()
        );
        // Buffer entries series is monotone under unlimited space.
        for w in records.windows(2) {
            assert!(w[1].buffer_entries[0] >= w[0].buffer_entries[0]);
        }
    }

    #[test]
    fn drop_partial_index_reverts_to_plain_scans() {
        let db = setup(200, 50);
        db.execute(&Query::point("t", "k", 150i64)).unwrap(); // warm buffer
        assert!(db.space().buffer(0).num_entries() > 0);
        db.drop_partial_index("t", "k").unwrap();
        assert_eq!(db.space().num_buffers(), 0, "buffer unregistered");
        assert_eq!(db.memory().index_bytes, 0, "its bytes returned");
        let (r, m) = db
            .execute(&Query::point("t", "k", 10i64))
            .unwrap()
            .into_parts();
        assert_eq!(m.path, AccessPath::PlainScan);
        assert_eq!(r.count(), 1);
        assert!(
            db.drop_partial_index("t", "k").is_err(),
            "second drop errors"
        );
        // Re-creating works.
        db.create_partial_index(
            "t",
            "k",
            Coverage::IntRange { lo: 0, hi: 49 },
            IndexBackend::BTree,
            Some(BufferConfig::default()),
        )
        .unwrap();
        let (r, m) = db
            .execute(&Query::point("t", "k", 10i64))
            .unwrap()
            .into_parts();
        assert_eq!(m.path, AccessPath::PartialIndex);
        assert_eq!(r.count(), 1);

        // Drop + recreate cycles leave no dead buffer behind: the roster
        // stays at the live indexes and answers do not change.
        let miss = Query::point("t", "k", 150i64);
        let expected = db.execute(&miss).unwrap().result.rids;
        for _ in 0..50 {
            db.drop_partial_index("t", "k").unwrap();
            db.create_partial_index(
                "t",
                "k",
                Coverage::IntRange { lo: 0, hi: 49 },
                IndexBackend::BTree,
                Some(BufferConfig::default()),
            )
            .unwrap();
            let (r, m) = db.execute(&miss).unwrap().into_parts();
            assert_eq!((m.path, &r.rids), (AccessPath::BufferedScan, &expected));
            assert_eq!(m.buffer_entries.len(), 1, "one CSV column per live buffer");
        }
        assert_eq!(db.space_snapshot().buffers().count(), 1);
        assert_eq!(db.buffer_id("t", "k"), Some(51), "ids are never reused");
        db.check_space_invariants();
        #[cfg(feature = "invariant-checks")]
        db.verify_invariants().unwrap();
    }

    #[test]
    fn explain_predicts_the_executor() {
        let db = setup(400, 100);
        // Covered point: index hit with exact cardinality, no execution.
        let q = Query::point("t", "k", 42i64);
        let e = db.explain(&q).unwrap();
        assert_eq!(e.path, AccessPath::PartialIndex);
        assert_eq!(e.known_cardinality, Some(1));
        assert!(e.summary().contains("partial index hit"));
        let (r, _) = db.execute(&q).unwrap().into_parts();
        assert_eq!(r.path, e.path);

        // Uncovered point, cold buffer: explain forecasts the page reads.
        let q = Query::point("t", "k", 300i64);
        let e = db.explain(&q).unwrap();
        assert_eq!(e.path, AccessPath::BufferedScan);
        let (_, m) = db.execute(&q).unwrap().into_parts();
        assert_eq!(m.scan.as_ref().unwrap().pages_read, e.pages_to_read);

        // Warm buffer: everything skippable now.
        let e = db.explain(&Query::point("t", "k", 301i64)).unwrap();
        assert_eq!(e.pages_to_read, 0);
        assert_eq!(e.skip_ratio(), 1.0);
        assert!(e.buffer_entries > 0);

        // Unindexed column.
        let db2 = Database::new(config());
        db2.create_table("u", Schema::new(vec![Column::int("k")]))
            .unwrap();
        db2.insert("u", &Tuple::new(vec![Value::Int(1)])).unwrap();
        let e = db2.explain(&Query::point("u", "k", 1i64)).unwrap();
        assert_eq!(e.path, AccessPath::PlainScan);
        assert!(!e.has_partial_index);
    }

    #[test]
    fn vacuum_preserves_correctness_and_invariants() {
        let db = setup(600, 100);
        // Warm the buffer, then punch holes in the table.
        db.execute(&Query::point("t", "k", 400i64)).unwrap();
        let (all, _) = {
            let (r, m) = db
                .execute(&Query::range("t", "k", 100i64, 599i64))
                .unwrap()
                .into_parts();
            (r.rids.clone(), m)
        };
        for rid in all.iter().step_by(3) {
            // Thin out uncovered tuples across many pages.
            if db.fetch("t", *rid).is_ok() {
                db.delete("t", *rid).unwrap();
            }
        }
        let live_before = db.table("t").unwrap().live_tuples();
        let (drained, moved) = db.vacuum("t", 0.8).unwrap();
        assert!(drained > 0, "sparse pages exist after the deletions");
        assert!(moved > 0);
        assert_eq!(db.table("t").unwrap().live_tuples(), live_before);
        // Queries still agree with ground truth on both paths.
        let (r, m) = db
            .execute(&Query::point("t", "k", 401i64))
            .unwrap()
            .into_parts();
        let expected = db
            .table("t")
            .unwrap()
            .scan_all()
            .unwrap()
            .iter()
            .filter(|(_, t)| t.get(0).unwrap().as_int() == Some(401))
            .count();
        assert_eq!(r.count(), expected);
        let _ = m;
        let (r, _) = db
            .execute(&Query::point("t", "k", 50i64))
            .unwrap()
            .into_parts();
        let expected = db
            .table("t")
            .unwrap()
            .scan_all()
            .unwrap()
            .iter()
            .filter(|(_, t)| t.get(0).unwrap().as_int() == Some(50))
            .count();
        assert_eq!(r.count(), expected);
        db.check_space_invariants();
    }

    #[test]
    fn shared_budget_crosses_components_both_ways() {
        use aib_storage::{DEFAULT_ENTRY_FOOTPRINT, PAGE_SIZE};

        // One heap page plus the index bytes fit a two-page total exactly
        // minus the buffer's footprint — so the *second* heap frame is
        // denied only because the Index Buffer grew.
        const TOTAL: usize = 2 * PAGE_SIZE;
        let mut cfg = config();
        cfg.pool_frames = 4;
        cfg.total_memory_bytes = Some(TOTAL);
        let db = Database::new(cfg);
        db.create_table("t", Schema::new(vec![Column::int("k"), Column::str("pad")]))
            .unwrap();
        let row = |k: i64| Tuple::new(vec![Value::Int(k), Value::from("p".repeat(200))]);
        for i in 0..30 {
            db.insert("t", &row(i)).unwrap();
        }
        assert_eq!(db.table("t").unwrap().num_pages(), 1, "one page so far");
        db.create_partial_index(
            "t",
            "k",
            Coverage::empty_set(),
            IndexBackend::BTree,
            Some(BufferConfig::default()),
        )
        .unwrap();

        // The indexing scan buffers all 30 uncovered tuples.
        let (r, m) = db
            .execute(&Query::point("t", "k", 7i64))
            .unwrap()
            .into_parts();
        assert_eq!(r.count(), 1);
        assert_eq!(m.memory.index_bytes, 30 * DEFAULT_ENTRY_FOOTPRINT);
        let before = db.memory();
        assert_eq!(before.denials, 0, "one frame plus the buffer fit the total");
        assert_eq!(before.buffer_pool_bytes, PAGE_SIZE);

        // Index growth denies the pool: a second heap page would fit the
        // total on its own (2 × PAGE_SIZE), but not next to the resident
        // index bytes — the pool must displace instead of claiming a frame.
        for i in 0..200 {
            db.insert("t", &row(100 + i)).unwrap();
        }
        let after = db.memory();
        assert!(
            after.denials > before.denials,
            "index bytes denied the pool"
        );
        assert!(after.displacements > before.displacements);
        assert!(after.total_bytes() <= TOTAL, "governor holds the line");
        assert!(after.high_water >= after.total_bytes());

        // Pool residency denies the space (the other direction): Algorithm 2
        // sees exactly the total minus both components' residency, not the
        // paper's standalone entry bound.
        assert_eq!(
            db.space().free_bytes(),
            TOTAL - after.buffer_pool_bytes - after.index_bytes,
            "pool bytes shrink what Algorithm 2 may claim"
        );

        // Queries stay correct under the shrunken working set.
        let (r, m) = db
            .execute(&Query::point("t", "k", 150i64))
            .unwrap()
            .into_parts();
        assert_eq!(r.count(), 1);
        // A scan batch may pin the whole resident set, forcing at most one
        // page of charged overshoot; the bound is otherwise intact.
        assert!(m.memory.total_bytes() <= TOTAL + PAGE_SIZE);
        db.check_space_invariants();
    }

    #[test]
    fn planned_reads_agree_with_the_sequential_executor() {
        // The same uncovered workload through `execute` (snapshot-planned,
        // staged apply) and through `execute_sequential` (every lock held)
        // must produce identical results and leave identical buffers.
        let run = |sequential: bool| {
            let db = setup(400, 100);
            let mut seen = Vec::new();
            for i in 0..6 {
                let q = Query::point("t", "k", 200 + i);
                let out = if sequential {
                    db.execute_sequential(&q)
                } else {
                    db.execute(&q)
                }
                .unwrap();
                seen.push((out.result.count(), out.metrics.plan, out.metrics.scan));
            }
            let entries = db.space().buffer(0).num_entries();
            db.check_space_invariants();
            (seen, entries)
        };

        let (planned, planned_entries) = run(false);
        let (sequential, sequential_entries) = run(true);
        assert_eq!(planned_entries, sequential_entries, "read-your-writes");
        for ((pc, pp, ps), (sc, sp, ss)) in planned.iter().zip(&sequential) {
            assert_eq!((pc, ps), (sc, ss), "same answer, same scan stats");
            assert_eq!(
                *pp,
                PlanSource::Snapshot,
                "unlimited budget plans lock-free"
            );
            assert_eq!(*sp, PlanSource::Exclusive);
        }
    }

    #[test]
    fn predicate_on_unknown_table_or_column_errors() {
        let db = Database::new(config());
        db.create_table("t", Schema::new(vec![Column::int("k")]))
            .unwrap();
        assert!(db.execute(&Query::point("nope", "k", 1i64)).is_err());
        assert!(db.execute(&Query::point("t", "nope", 1i64)).is_err());
    }
}
