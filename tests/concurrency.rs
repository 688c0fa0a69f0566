//! Concurrency tests, bottom to top: the storage substrate under
//! multi-threaded access, then the multi-client engine — concurrent read
//! queries (whose indexing scans *mutate* the Index Buffer through the
//! staged-apply write sections) racing each other and DML.

use adaptive_index_buffer::core::{BufferConfig, SpaceConfig};
use adaptive_index_buffer::engine::{ClientHandle, Database, EngineConfig, Query};
use adaptive_index_buffer::index::{Coverage, IndexBackend};
use adaptive_index_buffer::storage::{
    BufferPool, BufferPoolConfig, Column, CostModel, DiskManager, HeapFile, Rid, Schema, Tuple,
    Value,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[test]
fn parallel_heap_readers_during_inserts() {
    let pool = BufferPool::new(
        DiskManager::new(CostModel::free()),
        BufferPoolConfig::lru(16),
    );
    let heap = Arc::new(HeapFile::new(pool));
    // Seed with stable tuples the readers will verify.
    let mut stable: Vec<(Rid, i64)> = Vec::new();
    for i in 0..500i64 {
        let rid = heap
            .insert(&Tuple::new(vec![Value::Int(i), Value::from("seed")]).to_bytes())
            .unwrap();
        stable.push((rid, i));
    }
    let stop = Arc::new(AtomicBool::new(false));

    let mut handles = Vec::new();
    // Writers keep appending.
    for w in 0..2 {
        let heap = Arc::clone(&heap);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut n = 0i64;
            while !stop.load(Ordering::Relaxed) {
                let t = Tuple::new(vec![Value::Int(10_000 + w * 100_000 + n), Value::from("w")]);
                heap.insert(&t.to_bytes()).unwrap();
                n += 1;
            }
            n
        }));
    }
    // Readers verify the stable tuples and run scans.
    let mut readers = Vec::new();
    for _ in 0..3 {
        let heap = Arc::clone(&heap);
        let stable = stable.clone();
        readers.push(std::thread::spawn(move || {
            for round in 0..30 {
                for (rid, k) in stable.iter().skip(round % 7).step_by(7) {
                    let bytes = heap.get(*rid).unwrap();
                    let t = Tuple::from_bytes(&bytes).unwrap();
                    assert_eq!(t.get(0).unwrap().as_int(), Some(*k));
                }
                let mut seen = 0u64;
                heap.sweep_read_runs([(0..heap.num_pages(), false)], |_, _, view| {
                    seen += view.live_count() as u64;
                })
                .unwrap();
                assert!(seen >= 500);
            }
        }));
    }
    for r in readers {
        r.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let written: i64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(heap.live_tuples(), 500 + written as u64);
}

#[test]
fn pool_eviction_pressure_is_linearizable_per_page() {
    // Many threads hammer a few pages through a tiny pool; each page holds
    // a per-page counter only its owner thread increments, so values must
    // never regress.
    let pool = BufferPool::new(
        DiskManager::new(CostModel::free()),
        BufferPoolConfig::lru(4),
    );
    let mut pids = Vec::new();
    for _ in 0..16 {
        let (pid, g) = pool.new_page().unwrap();
        drop(g);
        pids.push(pid);
    }
    let mut handles = Vec::new();
    for (t, &pid) in pids.iter().enumerate().take(8) {
        let pool = Arc::clone(&pool);
        handles.push(std::thread::spawn(move || {
            let mut last = 0u64;
            for _ in 0..200 {
                let mut w = pool.fetch_write(pid).unwrap();
                let mut val = u64::from_le_bytes(w[..8].try_into().unwrap());
                assert!(val >= last, "thread {t}: page value regressed");
                val += 1;
                last = val;
                w[..8].copy_from_slice(&val.to_le_bytes());
            }
            last
        }));
    }
    // Background readers on the remaining pages create eviction traffic.
    for &pid in pids.iter().skip(8) {
        let pool = Arc::clone(&pool);
        handles.push(std::thread::spawn(move || {
            let mut acc = 0u64;
            for _ in 0..200 {
                let r = pool.fetch_read(pid).unwrap();
                acc = acc.wrapping_add(u64::from(r[9]));
            }
            acc
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // Final values persisted.
    for &pid in pids.iter().take(8) {
        let r = pool.fetch_read(pid).unwrap();
        assert_eq!(u64::from_le_bytes(r[..8].try_into().unwrap()), 200);
    }
}

// ---------------------------------------------------------------------------
// Engine level: concurrent clients over one shared Database.
// ---------------------------------------------------------------------------

const ROWS: i64 = 4_000;
const DOMAIN: i64 = 400;
const COVERED_HI: i64 = 99;

/// `t(k, pad)` with `k = i % DOMAIN` round-robin (every page mixes covered
/// and uncovered keys), partial index covering `0..=COVERED_HI`, unlimited
/// buffer so the final buffered state is order-independent.
fn shared_db() -> Arc<Database> {
    let db = Database::new(EngineConfig {
        pool_frames: 2048,
        cost_model: CostModel::free(),
        space: SpaceConfig {
            max_bytes: None,
            i_max: 1_000_000,
            seed: 23,
        },
        ..Default::default()
    });
    db.create_table("t", Schema::new(vec![Column::int("k"), Column::str("pad")]))
        .unwrap();
    for i in 0..ROWS {
        db.insert(
            "t",
            &Tuple::new(vec![
                Value::Int(i % DOMAIN),
                Value::from("x".repeat(80 + (i as usize * 11) % 40)),
            ]),
        )
        .unwrap();
    }
    db.create_partial_index(
        "t",
        "k",
        Coverage::IntRange {
            lo: 0,
            hi: COVERED_HI,
        },
        IndexBackend::BTree,
        Some(BufferConfig::default()),
    )
    .unwrap();
    db.into_shared()
}

/// Ground truth for a point query, decoded straight from the heap.
fn truth(db: &Database, value: i64) -> Vec<Rid> {
    let table = db.table("t").unwrap();
    let mut rids: Vec<Rid> = table
        .scan_all()
        .unwrap()
        .into_iter()
        .filter(|(_, t)| t.get(0).unwrap().as_int() == Some(value))
        .map(|(rid, _)| rid)
        .collect();
    rids.sort_unstable();
    rids
}

/// Many clients fire overlapping covered/uncovered point and range queries
/// at one database. Every single result must equal the heap ground truth
/// (the heap is frozen — readers only), even though the uncovered queries'
/// indexing scans concurrently build the Index Buffer through the shared
/// staged-apply write sections, racing to index the same pages.
#[test]
fn concurrent_read_queries_match_ground_truth() {
    let db = shared_db();
    std::thread::scope(|s| {
        for c in 0..4i64 {
            let client = ClientHandle::new(Arc::clone(&db));
            s.spawn(move || {
                for i in 0..60i64 {
                    // Overlapping streams: every client hits some common
                    // values (the double-index races) and some of its own.
                    let v = ((i * 13 + c * 7) % DOMAIN + DOMAIN) % DOMAIN;
                    let out = client.execute(&Query::on("t", "k").eq(v)).unwrap();
                    let mut got = out.result.rids.clone();
                    got.sort_unstable();
                    assert_eq!(got, truth(client.db(), v), "client {c} value {v}");
                    if i % 9 == 0 {
                        let lo = (i * 31 + c) % (DOMAIN - 50);
                        let out = client
                            .execute(&Query::on("t", "k").between(lo, lo + 40))
                            .unwrap();
                        let want: usize = (lo..=lo + 40).map(|v| truth(client.db(), v).len()).sum();
                        assert_eq!(out.result.count(), want, "client {c} range [{lo}, +40]");
                    }
                }
            });
        }
    });
    // Unlimited buffer + frozen heap: whatever the interleaving, the final
    // state is "every page indexed" — and a follow-up scan skips everything.
    let out = db.execute(&Query::on("t", "k").eq(COVERED_HI + 1)).unwrap();
    assert_eq!(out.metrics.scan.unwrap().pages_read, 0, "fully buffered");
    db.check_space_invariants();
    #[cfg(feature = "invariant-checks")]
    db.verify_invariants().unwrap();
}

/// Linearizability under writes: one DML client mutates its own private key
/// band while read clients hammer the stable band. Stable-band results must
/// equal the pre-computed truth at every step; afterwards the shadow model
/// re-derives every counter from the heap.
#[test]
fn concurrent_dml_and_reads_stay_linearizable() {
    let db = shared_db();
    // The writer works exclusively on keys >= WRITER_LO; readers only query
    // below it, so their ground truth is immutable while the writer runs.
    const WRITER_LO: i64 = 300;
    let stable_truth: Vec<(i64, Vec<Rid>)> = (COVERED_HI - 20..WRITER_LO - 50)
        .step_by(17)
        .map(|v| (v, truth(&db, v)))
        .collect();
    std::thread::scope(|s| {
        let writer = ClientHandle::new(Arc::clone(&db));
        s.spawn(move || {
            let mut mine: Vec<Rid> = Vec::new();
            for i in 0..120i64 {
                match i % 4 {
                    0 | 1 => {
                        let k = WRITER_LO + (i * 29) % (DOMAIN - WRITER_LO);
                        mine.push(
                            writer
                                .insert("t", &Tuple::new(vec![Value::Int(k), Value::from("w")]))
                                .unwrap(),
                        );
                    }
                    2 if !mine.is_empty() => {
                        let rid = mine.swap_remove((i as usize * 7) % mine.len());
                        writer.delete("t", rid).unwrap();
                    }
                    _ if !mine.is_empty() => {
                        let idx = (i as usize * 5) % mine.len();
                        let k = WRITER_LO + (i * 41) % (DOMAIN - WRITER_LO);
                        let moved = writer
                            .update(
                                "t",
                                mine[idx],
                                &Tuple::new(vec![Value::Int(k), Value::from("w2")]),
                            )
                            .unwrap();
                        mine[idx] = moved;
                    }
                    _ => {}
                }
            }
        });
        for c in 0..3usize {
            let client = ClientHandle::new(Arc::clone(&db));
            let stable_truth = &stable_truth;
            s.spawn(move || {
                for round in 0..25 {
                    for (v, want) in stable_truth.iter().skip((c + round) % 3).step_by(3) {
                        let out = client.execute(&Query::on("t", "k").eq(*v)).unwrap();
                        let mut got = out.result.rids.clone();
                        got.sort_unstable();
                        assert_eq!(&got, want, "client {c} stable value {v}");
                    }
                }
            });
        }
    });
    db.check_space_invariants();
    #[cfg(feature = "invariant-checks")]
    db.verify_invariants().unwrap();
}

/// Snapshot-vs-DDL race (PR 8 satellite): lock-free fast-path readers keep
/// taking space snapshots while one thread registers new Index Buffers
/// (each `register` bumps the roster generation) and another churns a hot
/// buffer's counters through full write sections. Fail-closed means a
/// reader is never served a view the protocol cannot vouch for:
///
/// * the hot buffer — whose counters are never zero — must never appear
///   fully skippable, no matter how the snapshot raced the writer;
/// * DDL-born buffers are registered fully skippable and must appear so in
///   every snapshot that contains them;
/// * once a reader has observed the DDL thread's completion flag
///   (`Release`/`Acquire`), `space_snapshot` may no longer validate any
///   pre-DDL cached snapshot — the roster it returns must be complete.
///
/// The CI `invariants` job re-runs this under `--features invariant-checks`,
/// which adds the space consistency sweep at every churn step.
#[test]
fn snapshot_fast_path_fails_closed_under_concurrent_ddl() {
    use adaptive_index_buffer::core::SharedSpace;

    const HEAP_PAGES: u32 = 4;
    const DDL_BUFFERS: usize = 48;

    let space = Arc::new(SharedSpace::new(SpaceConfig::default()));
    let hot = space.register("hot", BufferConfig::default(), vec![3; HEAP_PAGES as usize]);
    let ddl_done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        {
            let space = Arc::clone(&space);
            let ddl_done = Arc::clone(&ddl_done);
            s.spawn(move || {
                for i in 0..DDL_BUFFERS {
                    space.register(
                        format!("ddl-{i}"),
                        BufferConfig::default(),
                        vec![0; HEAP_PAGES as usize],
                    );
                }
                ddl_done.store(true, Ordering::Release);
            });
        }
        {
            // Churn writer: full write sections on the space.
            // Each one parks the epoch sentinel, so snapshots racing it
            // must rebuild rather than validate a mid-write view. Counters
            // alternate but never reach zero.
            let space = Arc::clone(&space);
            let ddl_done = Arc::clone(&ddl_done);
            s.spawn(move || {
                let mut flip = false;
                while !ddl_done.load(Ordering::Acquire) {
                    let fill = if flip { 5 } else { 3 };
                    space
                        .write()
                        .reset_counters(hot, vec![fill; HEAP_PAGES as usize]);
                    flip = !flip;
                    #[cfg(feature = "invariant-checks")]
                    space.check_invariants();
                }
            });
        }
        for r in 0..3usize {
            let space = Arc::clone(&space);
            let ddl_done = Arc::clone(&ddl_done);
            s.spawn(move || loop {
                let done = ddl_done.load(Ordering::Acquire);
                let snap = space.space_snapshot();
                let mut roster = 0usize;
                for buf in snap.buffers() {
                    roster += 1;
                    if buf.id() == hot {
                        assert!(
                            !buf.fully_skippable(HEAP_PAGES),
                            "reader {r}: hot buffer served as fast-path skippable"
                        );
                    } else {
                        assert!(
                            buf.fully_skippable(HEAP_PAGES),
                            "reader {r}: DDL buffer {} visible but not skippable",
                            buf.id()
                        );
                    }
                }
                if done {
                    assert_eq!(
                        roster,
                        1 + DDL_BUFFERS,
                        "reader {r}: snapshot taken after DDL completed is missing buffers"
                    );
                    break;
                }
            });
        }
    });

    let snap = space.space_snapshot();
    assert!(space.validate(&snap), "quiescent snapshot must validate");
    assert_eq!(snap.buffers().count(), 1 + DDL_BUFFERS);
    assert_eq!(space.read().num_buffers(), 1 + DDL_BUFFERS);
    #[cfg(feature = "invariant-checks")]
    space.check_invariants();
}
