//! Acceptance test for the parallel indexing-scan executor: the same
//! workload run with `scan_threads = 1` and `scan_threads = 4` must be
//! observationally identical — result sets, final page counters, and
//! Index Buffer contents (the sequential-equivalence guarantee).

use adaptive_index_buffer::core::{BufferConfig, SpaceConfig};
use adaptive_index_buffer::engine::{AccessPath, Database, EngineConfig, Query};
use adaptive_index_buffer::index::{Coverage, IndexBackend};
use adaptive_index_buffer::storage::{
    Column, CostModel, Rid, Schema, Tuple, Value, DEFAULT_ENTRY_FOOTPRINT,
};

const ROWS: i64 = 6_000;
const DOMAIN: i64 = 600;
const COVERED_HI: i64 = 150;

fn build_db(scan_threads: usize) -> (Database, Vec<Rid>) {
    let db = Database::new(EngineConfig {
        pool_frames: 2048,
        cost_model: CostModel::free(),
        space: SpaceConfig {
            max_bytes: Some(2_500 * DEFAULT_ENTRY_FOOTPRINT),
            i_max: 60,
            seed: 11,
        },
        scan_threads,
        ..Default::default()
    });
    db.create_table("t", Schema::new(vec![Column::int("k"), Column::str("pad")]))
        .unwrap();
    let mut rids = Vec::new();
    for i in 0..ROWS {
        let t = Tuple::new(vec![
            Value::Int((i * 17) % DOMAIN),
            Value::from("x".repeat(100 + (i as usize * 7) % 60)),
        ]);
        rids.push(db.insert("t", &t).unwrap());
    }
    db.create_partial_index(
        "t",
        "k",
        Coverage::IntRange {
            lo: 0,
            hi: COVERED_HI,
        },
        IndexBackend::BTree,
        Some(BufferConfig {
            partition_pages: 16,
            ..Default::default()
        }),
    )
    .unwrap();
    (db, rids)
}

/// The shared workload: point and range queries over covered and uncovered
/// values, with DML interleaved so maintenance runs against a buffer that
/// both executors must keep in the same state.
fn workload() -> Vec<Query> {
    let mut queries = Vec::new();
    for i in 0..40i64 {
        queries.push(Query::on("t", "k").eq((i * 41) % DOMAIN));
        if i % 5 == 0 {
            let lo = (i * 23) % DOMAIN;
            queries.push(Query::on("t", "k").between(lo, lo + 37));
        }
    }
    queries
}

fn counter_vector(db: &Database) -> Vec<u32> {
    let bid = db.buffer_id("t", "k").unwrap();
    let space = db.space();
    let counters = space.counters(bid);
    (0..counters.num_pages()).map(|p| counters.get(p)).collect()
}

#[test]
fn four_threads_match_one_thread_exactly() {
    let (seq, seq_rids) = build_db(1);
    let (par, par_rids) = build_db(4);
    assert_eq!(
        seq_rids, par_rids,
        "identical builds place rows identically"
    );
    assert!(
        seq.table("t").unwrap().num_pages() >= 64,
        "table must be big enough that planned_scan_threads(pages, 4) == 4, got {} pages",
        seq.table("t").unwrap().num_pages()
    );

    let mut saw_parallel_scan = false;
    for (i, q) in workload().iter().enumerate() {
        // Interleave identical DML on both databases every few queries.
        if i % 4 == 1 {
            let rid = seq_rids[(i * 131) % seq_rids.len()];
            let bump = Tuple::new(vec![
                Value::Int((i as i64 * 59) % DOMAIN),
                Value::from("y".repeat(100 + (i * 13) % 60)),
            ]);
            assert_eq!(
                seq.update("t", rid, &bump).unwrap(),
                par.update("t", rid, &bump).unwrap(),
                "query {i}: DML placement must agree"
            );
        }

        let s = seq.execute(q).unwrap();
        let p = par.execute(q).unwrap();
        // Stronger than the sorted comparison: the merged parallel result
        // must be the sequential result verbatim.
        assert_eq!(s.result.rids, p.result.rids, "query {i}: raw rid order");
        let mut s_sorted = s.result.rids.clone();
        let mut p_sorted = p.result.rids.clone();
        s_sorted.sort_unstable();
        p_sorted.sort_unstable();
        assert_eq!(s_sorted, p_sorted, "query {i}: sorted rids");
        assert_eq!(s.result.path, p.result.path, "query {i}: access path");
        assert_eq!(
            s.metrics
                .scan
                .as_ref()
                .map(|st| (st.pages_read, st.pages_skipped, st.entries_added)),
            p.metrics
                .scan
                .as_ref()
                .map(|st| (st.pages_read, st.pages_skipped, st.entries_added)),
            "query {i}: merged scan stats"
        );
        assert_eq!(s.metrics.scan_threads, 1);
        if p.result.path == AccessPath::BufferedScan {
            assert_eq!(p.metrics.scan_threads, 4, "query {i}: parallelism engaged");
            saw_parallel_scan = true;
        }
    }
    assert!(
        saw_parallel_scan,
        "workload never hit the parallel scan path"
    );

    // Final state: identical counter vectors and buffer contents.
    assert_eq!(counter_vector(&seq), counter_vector(&par), "page counters");
    let sbid = seq.buffer_id("t", "k").unwrap();
    let pbid = par.buffer_id("t", "k").unwrap();
    let seq_space = seq.space();
    let par_space = par.space();
    let sb = seq_space.buffer(sbid);
    let pb = par_space.buffer(pbid);
    assert_eq!(sb.num_entries(), pb.num_entries(), "buffer entry count");
    assert_eq!(sb.num_partitions(), pb.num_partitions(), "partition count");
    assert_eq!(
        sb.num_buffered_pages(),
        pb.num_buffered_pages(),
        "buffered page count"
    );
    seq.check_space_invariants();
    par.check_space_invariants();
}

#[test]
fn thread_counts_beyond_the_table_still_agree() {
    // Requesting more threads than the chunk geometry supports must degrade
    // gracefully, never change results.
    let (seq, _) = build_db(1);
    let (par, _) = build_db(64);
    for q in workload().iter().take(12) {
        let s = seq.execute(q).unwrap();
        let p = par.execute(q).unwrap();
        assert_eq!(s.result.rids, p.result.rids);
    }
    assert_eq!(counter_vector(&seq), counter_vector(&par));
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
    let build = |pool_frames: usize| {
        let db = Database::new(EngineConfig {
            pool_frames,
            cost_model: CostModel::default(),
            space: SpaceConfig {
                max_bytes: Some(0),
                ..Default::default()
            },
            scan_threads: 1,
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
