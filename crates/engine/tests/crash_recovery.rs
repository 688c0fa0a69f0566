//! Crash-injection tests for the durable engine: kill the "process" (drop
//! the [`Database`] without closing) mid-DML, mid-adaptation and
//! mid-checkpoint, reopen, and demand the paper's recovery contract:
//!
//! * the logical heap comes back **exactly** — same rids, same tuples —
//!   for every operation that completed (its WAL record was fsynced);
//! * `C[p]` counters are rebuilt from a heap rescan and the Index Buffer
//!   Space starts **empty** with fresh epochs;
//! * buffer growth and tuner adaptation write **zero** WAL records, and a
//!   crash simply reverts coverage to its DDL-time definition.

use aib_core::BufferConfig;
use aib_engine::{AccessPath, BatchOp, Database, EngineConfig, EngineError, Query, TunerConfig};
use aib_index::{Coverage, IndexBackend};
use aib_storage::{Column, Fault, MemDir, Rid, Schema, Tuple, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// A unique scratch directory per test, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let mut p = std::env::temp_dir();
        p.push(format!(
            "aib-crash-{}-{}-{tag}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&p);
        TempDir(p)
    }

    fn path(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The durable engine on `dir`, an in-memory directory: the tests that
/// inject a fault run there, the rest on the file system.
fn open_in(dir: &Arc<MemDir>, config: EngineConfig) -> Database {
    Database::open_in(dir.clone(), config).unwrap()
}

/// Fails the next write to the log, landing only `keep` bytes of it.
fn tear_next_log_write(dir: &MemDir, keep: usize) {
    dir.arm(Fault::Write {
        name: "wal.log".into(),
        nth: 0,
        keep,
    });
}

fn config() -> EngineConfig {
    EngineConfig {
        pool_frames: 64,
        ..Default::default()
    }
}

fn tuple(k: i64) -> Tuple {
    Tuple::new(vec![Value::Int(k), Value::from("x".repeat(120))])
}

fn schema() -> Schema {
    Schema::new(vec![Column::int("k"), Column::str("pad")])
}

/// Sorted `(rid, tuple)` image of a table — the equality we demand across
/// a crash.
fn image(db: &Database, table: &str) -> Vec<(Rid, Tuple)> {
    let mut rows = db.table(table).unwrap().scan_all().unwrap();
    rows.sort_by_key(|(rid, _)| *rid);
    rows
}

/// The Index Buffer Space's roster, in registration order.
fn buffer_names(db: &Database) -> Vec<String> {
    let space = db.space();
    space
        .buffer_ids()
        .map(|b| space.buffer(b).name().to_string())
        .collect()
}

#[test]
fn clean_reopen_restores_exact_heap_and_empty_buffer() {
    let dir = TempDir::new("clean");
    let before = {
        let db = Database::open(dir.path(), config()).unwrap();
        db.create_table("t", schema()).unwrap();
        for i in 0..200 {
            db.insert("t", &tuple(i)).unwrap();
        }
        db.create_partial_index(
            "t",
            "k",
            Coverage::IntRange { lo: 0, hi: 49 },
            IndexBackend::BTree,
            Some(BufferConfig::default()),
        )
        .unwrap();
        // Grow the buffer: an uncovered query indexes the scanned pages...
        let m = db.execute(&Query::on("t", "k").eq(150i64)).unwrap().metrics;
        assert!(m.scan.unwrap().pages_indexed > 0);
        // ...so a repeat is pure page-skipping.
        let m = db.execute(&Query::on("t", "k").eq(151i64)).unwrap().metrics;
        assert_eq!(m.scan.unwrap().pages_read, 0);
        let before = image(&db, "t");
        db.close().unwrap();
        before
    };

    let db = Database::open(dir.path(), config()).unwrap();
    assert!(db.is_durable());
    assert_eq!(image(&db, "t"), before, "heap must come back bit-for-bit");
    // The Index Buffer is rebuilt *empty* — never persisted.
    let bid = db.buffer_id("t", "k").unwrap();
    let snapshot = db.space_snapshot();
    assert_eq!(snapshot.buffer(bid).unwrap().entries(), 0);
    // But C[p] was rebuilt from the rescan: an uncovered query re-indexes
    // (reads pages, counters agree with the heap), then skipping resumes.
    let m = db.execute(&Query::on("t", "k").eq(150i64)).unwrap().metrics;
    assert!(m.scan.unwrap().pages_read > 0, "cold buffer re-reads");
    let (r, m) = {
        let o = db.execute(&Query::on("t", "k").eq(151i64)).unwrap();
        (o.result, o.metrics)
    };
    assert_eq!(m.scan.unwrap().pages_read, 0, "warm again after one scan");
    assert_eq!(r.count(), 1);
    // Covered values still hit the partial index rebuilt by the rescan.
    let r = db.execute(&Query::on("t", "k").eq(7i64)).unwrap().result;
    assert_eq!((r.path, r.count()), (AccessPath::PartialIndex, 1));
}

#[test]
fn crash_mid_dml_keeps_exactly_the_logged_prefix() {
    let dir = Arc::new(MemDir::new());
    let before = {
        let db = open_in(&dir, config());
        db.create_table("t", schema()).unwrap();
        for i in 0..50 {
            db.insert("t", &tuple(i)).unwrap();
        }
        // Updates and deletes after the last checkpoint live only in the WAL.
        let rows = image(&db, "t");
        db.update("t", rows[3].0, &tuple(1003)).unwrap();
        db.delete("t", rows[7].0).unwrap();
        // The 51st insert crashes mid-append: a torn frame hits the log and
        // the operation reports failure.
        tear_next_log_write(&dir, 12);
        assert!(db.insert("t", &tuple(999)).is_err());
        image(&db, "t")
        // ... and the "process" dies here: no close, no checkpoint.
    };
    let expected: Vec<(Rid, Tuple)> = before
        .into_iter()
        .filter(|(_, t)| t.get(0) != Some(&Value::Int(999)))
        .collect();

    let db = open_in(&dir, config());
    let after = image(&db, "t");
    assert_eq!(after, expected, "logged prefix survives, torn insert gone");
    assert_eq!(db.table("t").unwrap().live_tuples(), 49);
}

#[test]
fn buffer_growth_and_adaptation_write_zero_wal_records() {
    let dir = TempDir::new("midadapt");
    let ddl_coverage = Coverage::Set([Value::Int(1), Value::Int(2)].into_iter().collect());
    {
        let db = Database::open(dir.path(), config()).unwrap();
        db.create_table("t", schema()).unwrap();
        for i in 0..200 {
            db.insert("t", &tuple(i % 40)).unwrap();
        }
        db.create_partial_index(
            "t",
            "k",
            ddl_coverage.clone(),
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
                capacity: 4,
            },
        )
        .unwrap();

        let flat = db.wal_records_written();
        // Hammer one uncovered value: the indexing scan grows the buffer,
        // then the tuner crosses its threshold and adapts coverage.
        for _ in 0..12 {
            db.execute(&Query::on("t", "k").eq(30i64)).unwrap();
        }
        let adapted = db.coverage("t", "k").unwrap();
        assert!(
            adapted.covers(&Value::Int(30)),
            "tuner should have adapted coverage mid-run"
        );
        assert_ne!(adapted, ddl_coverage);
        assert_eq!(
            db.wal_records_written(),
            flat,
            "buffer growth and adaptation must produce no WAL traffic"
        );
        // Crash without checkpointing.
    }

    let db = Database::open(dir.path(), config()).unwrap();
    assert_eq!(
        db.coverage("t", "k").unwrap(),
        ddl_coverage,
        "recovery reverts to the DDL-time coverage"
    );
    let bid = db.buffer_id("t", "k").unwrap();
    assert_eq!(db.space_snapshot().buffer(bid).unwrap().entries(), 0);
    assert_eq!(db.table("t").unwrap().live_tuples(), 200);
}

#[test]
fn crash_mid_checkpoint_converges_via_old_log() {
    let dir = Arc::new(MemDir::new());
    let before = {
        let db = open_in(&dir, config());
        db.create_table("t", schema()).unwrap();
        for i in 0..80 {
            db.insert("t", &tuple(i)).unwrap();
        }
        db.checkpoint().unwrap();
        // Post-checkpoint churn: grow some tuples (page moves), shrink
        // others, delete a few — all of it only in the WAL and dirty pages.
        let rows = image(&db, "t");
        for (i, (rid, _)) in rows.iter().enumerate().take(40) {
            if i % 7 == 0 {
                db.delete("t", rid.to_owned()).unwrap();
            } else {
                db.update("t", *rid, &tuple(1000 + i as i64)).unwrap();
            }
        }
        // The next checkpoint's flush lands one page, then dies: the heap
        // file is left *partially* newer than the surviving log's snapshot.
        dir.arm(Fault::Write {
            name: "heap.db".into(),
            nth: 0,
            keep: aib_storage::PAGE_SIZE,
        });
        assert!(db.checkpoint().is_err());
        image(&db, "t")
    };

    let db = open_in(&dir, config());
    assert_eq!(
        image(&db, "t"),
        before,
        "replay must converge over a partially flushed checkpoint"
    );
}

#[test]
fn ddl_between_checkpoints_replays() {
    let dir = TempDir::new("ddl");
    {
        let db = Database::open(dir.path(), config()).unwrap();
        db.create_table("a", schema()).unwrap();
        db.checkpoint().unwrap();
        // Everything after this checkpoint reaches recovery as raw records:
        // a second table, an index, a redefinition, a dropped index.
        db.create_table("b", schema()).unwrap();
        for i in 0..30 {
            db.insert("a", &tuple(i)).unwrap();
            db.insert("b", &tuple(i)).unwrap();
        }
        db.create_partial_index(
            "a",
            "k",
            Coverage::IntRange { lo: 0, hi: 9 },
            IndexBackend::BTree,
            Some(BufferConfig::default()),
        )
        .unwrap();
        db.create_partial_index(
            "b",
            "k",
            Coverage::All,
            IndexBackend::BTree,
            Some(BufferConfig::default()),
        )
        .unwrap();
        db.redefine_coverage("a", "k", Coverage::IntRange { lo: 0, hi: 19 })
            .unwrap();
        db.drop_partial_index("b", "k").unwrap();
        assert_eq!(buffer_names(&db), ["a.k"]);
        // Crash.
    }

    let db = Database::open(dir.path(), config()).unwrap();
    assert_eq!(
        buffer_names(&db),
        ["a.k"],
        "replay reaches the roster the DDL sequence left: no buffer for a dropped index"
    );
    assert_eq!(
        db.coverage("a", "k"),
        Some(Coverage::IntRange { lo: 0, hi: 19 }),
        "redefined coverage is DDL and must survive"
    );
    assert_eq!(db.coverage("b", "k"), None, "dropped index stays dropped");
    assert_eq!(db.table("a").unwrap().live_tuples(), 30);
    assert_eq!(db.table("b").unwrap().live_tuples(), 30);
    let r = db.execute(&Query::on("a", "k").eq(15i64)).unwrap().result;
    assert_eq!((r.path, r.count()), (AccessPath::PartialIndex, 1));
    let r = db.execute(&Query::on("b", "k").eq(15i64)).unwrap().result;
    assert_eq!((r.path, r.count()), (AccessPath::PlainScan, 1));
}

/// An index definition as `durability.rs` lays it out — column 0,
/// `Coverage::All`, a default-sized buffer — with the three bytes that used
/// to select the hash backend (partial index, buffer) and the disk-resident
/// paged tree set by the caller.
fn index_def_bytes(backend: u8, buffer_backend: u8, paged: u8) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&0u32.to_le_bytes()); // column
    out.push(1); // Coverage::All
    out.push(backend);
    out.push(1); // has a buffer
    out.extend_from_slice(&10_000u32.to_le_bytes()); // P
    out.extend_from_slice(&8u64.to_le_bytes()); // K
    out.push(buffer_backend);
    out.push(paged);
    out
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// A log or snapshot written when the hash and paged structures existed may
/// select them. Reopening it is an error that names what was removed — not
/// a panic, not a silent B+-tree — and leaves both files as they were.
#[test]
fn a_log_selecting_a_removed_index_structure_fails_to_open() {
    use aib_storage::{Wal, WalRecord};

    // (backend, buffer backend, paged); the first row is the control that
    // shows the hand-built bytes are otherwise a valid definition.
    let cases = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)];
    for (backend, buffer_backend, paged) in cases {
        let def = index_def_bytes(backend, buffer_backend, paged);
        for (form, rows) in [("ddl", 30), ("snapshot", 0)] {
            let dir = TempDir::new("removed");
            {
                let db = Database::open(dir.path(), config()).unwrap();
                db.create_table("t", schema()).unwrap();
                for i in 0..rows {
                    db.insert("t", &tuple(i)).unwrap();
                }
                db.close().unwrap();
            }
            let wal_path = dir.path().join("wal.log");
            if form == "ddl" {
                // A `CreateIndex` record behind the clean checkpoint of "t".
                let mut ddl = vec![2u8]; // ddl_tag::CREATE_INDEX
                ddl.extend_from_slice(&0u32.to_le_bytes()); // table ordinal
                ddl.extend_from_slice(&def);
                let mut wal = Wal::open(&wal_path).unwrap();
                wal.append(&WalRecord::Ddl(ddl)).unwrap();
            } else {
                // The only index of the (empty) table "t" in a snapshot.
                let mut snapshot = Vec::new();
                snapshot.extend_from_slice(&1u32.to_le_bytes()); // SNAPSHOT_VERSION
                snapshot.extend_from_slice(&1u32.to_le_bytes()); // tables
                put_str(&mut snapshot, "t");
                snapshot.extend_from_slice(&2u32.to_le_bytes()); // columns
                put_str(&mut snapshot, "k");
                snapshot.extend_from_slice(&[0, 0]); // Int, not nullable
                put_str(&mut snapshot, "pad");
                snapshot.extend_from_slice(&[1, 0]); // Str, not nullable
                snapshot.extend_from_slice(&0u32.to_le_bytes()); // heap pages
                snapshot.extend_from_slice(&1u32.to_le_bytes()); // indexes
                snapshot.extend_from_slice(&def);
                let dir = Arc::new(aib_storage::OsDir::new(dir.path()));
                Wal::create(dir, "wal.log", &WalRecord::Snapshot(snapshot)).unwrap();
            }
            let files = || {
                (
                    std::fs::read(&wal_path).unwrap(),
                    std::fs::read(dir.path().join("heap.db")).unwrap(),
                )
            };
            let before = files();
            let case = format!("{form} ({backend}, {buffer_backend}, {paged})");

            match Database::open(dir.path(), config()) {
                Ok(db) => {
                    assert_eq!((backend, buffer_backend, paged), (0, 0, 0), "{case}");
                    assert_eq!(db.coverage("t", "k"), Some(Coverage::All), "{case}");
                    assert_eq!(buffer_names(&db), ["t.k"], "{case}");
                }
                Err(e) => {
                    assert_ne!((backend, buffer_backend, paged), (0, 0, 0), "{case}: {e}");
                    assert!(e.to_string().contains("removed"), "{case}: {e}");
                    assert_eq!(files(), before, "{case}: a refused open wrote");
                }
            }
        }
    }
}

#[test]
fn checkpoint_compacts_the_log() {
    let dir = TempDir::new("compact");
    let db = Database::open(dir.path(), config()).unwrap();
    db.create_table("t", schema()).unwrap();
    for i in 0..20 {
        db.insert("t", &tuple(i)).unwrap();
    }
    assert_eq!(db.wal_records_written(), 22, "snapshot + create + 20 DML");
    db.checkpoint().unwrap();
    assert_eq!(db.wal_records_written(), 1, "rotation leaves one snapshot");
    db.insert("t", &tuple(99)).unwrap();
    assert_eq!(db.wal_records_written(), 2);
}

#[test]
fn wal_records_auto_checkpoint_at_interval() {
    let dir = TempDir::new("auto");
    let db = Database::open(
        dir.path(),
        EngineConfig {
            wal_checkpoint_interval: 16,
            ..config()
        },
    )
    .unwrap();
    db.create_table("t", schema()).unwrap();
    for i in 0..100 {
        db.insert("t", &tuple(i)).unwrap();
    }
    // Periodic rotation now runs on the background checkpointer thread
    // (only *flagged* on the commit path), so give it a moment to land.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while db.wal_records_written() > 17 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(
        db.wal_records_written() <= 17,
        "periodic rotation must bound the log, saw {}",
        db.wal_records_written()
    );
    assert_eq!(db.table("t").unwrap().live_tuples(), 100);
}

// ------------------------------------------------------ group commit

/// The core ack guarantee under concurrency: every DML call that
/// *returned `Ok`* before the crash must survive it, no matter how the
/// group-commit leader batched the frames. 8 writers race on disjoint key
/// ranges, the "process" dies without closing, and recovery must hold
/// every acked key.
#[test]
fn no_acked_commit_is_lost_across_a_crash() {
    let dir = TempDir::new("acked");
    let acked: Vec<i64> = {
        let db = Database::open(dir.path(), config()).unwrap().into_shared();
        db.create_table("t", schema()).unwrap();
        let mut acked = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|w| {
                    let db = db.clone();
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        for i in 0..25i64 {
                            let k = w as i64 * 1000 + i;
                            if db.insert("t", &tuple(k)).is_ok() {
                                // Acked: the covering fsync landed.
                                mine.push(k);
                            }
                        }
                        mine
                    })
                })
                .collect();
            for h in handles {
                acked.extend(h.join().unwrap());
            }
        });
        assert!(
            db.wal_fsyncs() < db.wal_records_written(),
            "8 racing writers should share at least one covering fsync \
             ({} records, {} fsyncs)",
            db.wal_records_written(),
            db.wal_fsyncs()
        );
        acked
        // Crash: drop without close.
    };

    let db = Database::open(dir.path(), config()).unwrap();
    let keys: std::collections::BTreeSet<i64> = image(&db, "t")
        .into_iter()
        .map(|(_, t)| match t.get(0) {
            Some(Value::Int(k)) => *k,
            other => panic!("unexpected key {other:?}"),
        })
        .collect();
    for k in &acked {
        assert!(keys.contains(k), "acked insert of key {k} lost by crash");
    }
    assert_eq!(keys.len(), acked.len(), "recovery invented rows");
}

/// The log frame of one insert of [`tuple`]: header, tag, table, rid and
/// the tuple's bytes.
fn insert_frame_len() -> usize {
    8 + 1 + 4 + 6 + tuple(0).to_bytes().len()
}

/// A torn batch tail behaves like a torn single frame: the whole batch
/// reports failure, the log refuses commits until a checkpoint rotates it,
/// and that checkpoint's snapshot keeps every applied mutation.
#[test]
fn torn_batch_tail_stops_replay_at_the_tear() {
    let dir = Arc::new(MemDir::new());
    {
        let db = open_in(&dir, config());
        db.create_table("t", schema()).unwrap();
        for i in 0..10 {
            db.insert("t", &tuple(i)).unwrap();
        }
        // One batch of 6 inserts; the 4th frame tears mid-write.
        tear_next_log_write(&dir, 3 * insert_frame_len() + 20);
        let ops: Vec<aib_engine::BatchOp> = (100..106i64)
            .map(|k| aib_engine::BatchOp::Insert {
                table: "t".into(),
                tuple: tuple(k),
            })
            .collect();
        assert!(db.execute_batch(&ops).is_err());
        // The log is poisoned past the tear: further commits must refuse
        // rather than land unreachable frames behind the torn one...
        assert!(db.insert("t", &tuple(999)).is_err());
        // ...until a checkpoint rotates in a fresh log.
        db.checkpoint().unwrap();
        db.insert("t", &tuple(500)).unwrap();
        db.close().unwrap();
    }

    let db = open_in(&dir, config());
    let keys: std::collections::BTreeSet<i64> = image(&db, "t")
        .into_iter()
        .map(|(_, t)| match t.get(0) {
            Some(Value::Int(k)) => *k,
            other => panic!("unexpected key {other:?}"),
        })
        .collect();
    for k in 0..10 {
        assert!(keys.contains(&k), "pre-batch key {k} lost");
    }
    // The checkpoint that cleared the poison persisted every *applied*
    // mutation via its snapshot — the six batch keys and even the
    // poison-refused 999 — exactly as a checkpoint after a failed single
    // append always has (the snapshot supersedes the torn log).
    for k in 100..106 {
        assert!(keys.contains(&k), "checkpointed batch key {k} lost");
    }
    assert!(keys.contains(&999), "checkpointed (applied) insert lost");
    assert!(keys.contains(&500), "post-rotation insert lost");
}

/// The torn tail without the rescuing checkpoint: the process dies right
/// after the failed batch. Replay stops at the tear, keeping exactly the
/// frames of the batch that reached the file before it.
#[test]
fn torn_batch_tail_without_checkpoint_keeps_durable_prefix() {
    let dir = Arc::new(MemDir::new());
    {
        let db = open_in(&dir, config());
        db.create_table("t", schema()).unwrap();
        for i in 0..10 {
            db.insert("t", &tuple(i)).unwrap();
        }
        tear_next_log_write(&dir, 3 * insert_frame_len() + 20);
        let ops: Vec<aib_engine::BatchOp> = (100..106i64)
            .map(|k| aib_engine::BatchOp::Insert {
                table: "t".into(),
                tuple: tuple(k),
            })
            .collect();
        assert!(db.execute_batch(&ops).is_err());
        // Crash: no checkpoint, no close.
    }

    let db = open_in(&dir, config());
    let keys: std::collections::BTreeSet<i64> = image(&db, "t")
        .into_iter()
        .map(|(_, t)| match t.get(0) {
            Some(Value::Int(k)) => *k,
            other => panic!("unexpected key {other:?}"),
        })
        .collect();
    for k in 0..10 {
        assert!(keys.contains(&k), "pre-batch key {k} lost");
    }
    for k in 100..103 {
        assert!(keys.contains(&k), "durable batch prefix key {k} lost");
    }
    for k in 103..106 {
        assert!(!keys.contains(&k), "key {k} behind the tear resurrected");
    }
}

/// A group-committed log must replay to the same state as a per-record
/// log: the batch framing is byte-identical, so the same op sequence
/// yields the same WAL bytes and the same recovered image.
#[test]
fn group_committed_log_replays_identically_to_per_record_log() {
    let per_record = TempDir::new("perrecord");
    let batched = TempDir::new("batched");

    let run = |dir: &TempDir, batch: bool| {
        let db = Database::open(dir.path(), config()).unwrap();
        db.create_table("t", schema()).unwrap();
        if batch {
            let ops: Vec<aib_engine::BatchOp> = (0..40i64)
                .map(|k| aib_engine::BatchOp::Insert {
                    table: "t".into(),
                    tuple: tuple(k),
                })
                .collect();
            db.execute_batch(&ops).unwrap();
        } else {
            for k in 0..40i64 {
                db.insert("t", &tuple(k)).unwrap();
            }
        }
        let rows = image(&db, "t");
        db.update("t", rows[3].0, &tuple(1003)).unwrap();
        db.delete("t", rows[7].0).unwrap();
        // Crash without checkpointing, so reopen replays the raw log.
    };
    run(&per_record, false);
    run(&batched, true);

    // Up to the logical tail, that is: what each log pre-wrote behind it
    // (zeroes) depends on how its appends were sized.
    let log_bytes = |dir: &TempDir| {
        let mut raw = std::fs::read(dir.path().join("wal.log")).unwrap();
        let records = aib_storage::Wal::replay_image(&raw).unwrap();
        let tail = 8 + records.iter().map(|r| 8 + r.encode().len()).sum::<usize>();
        assert!(raw[tail..].iter().all(|&b| b == 0));
        raw.truncate(tail);
        raw
    };
    assert_eq!(
        log_bytes(&per_record),
        log_bytes(&batched),
        "batch framing must be byte-identical to per-record framing"
    );

    let a = Database::open(per_record.path(), config()).unwrap();
    let b = Database::open(batched.path(), config()).unwrap();
    assert_eq!(image(&a, "t"), image(&b, "t"));
}

/// `execute_batch` costs one covering fsync for the whole batch, and its
/// per-op results line up with the ops.
#[test]
fn execute_batch_amortizes_to_one_fsync() {
    let dir = TempDir::new("batchfsync");
    let db = Database::open(dir.path(), config()).unwrap();
    db.create_table("t", schema()).unwrap();
    let ops: Vec<aib_engine::BatchOp> = (0..32i64)
        .map(|k| aib_engine::BatchOp::Insert {
            table: "t".into(),
            tuple: tuple(k),
        })
        .collect();
    let before = db.wal_fsyncs();
    let rids = db.execute_batch(&ops).unwrap();
    assert_eq!(db.wal_fsyncs() - before, 1, "one covering fsync per batch");
    assert_eq!(rids.len(), 32);
    assert!(rids.iter().all(|r| r.is_some()));

    // Mixed batch: update rows 0..4, delete rows 4..8 — deletes yield None.
    let rows = image(&db, "t");
    let mut ops: Vec<aib_engine::BatchOp> = rows[..4]
        .iter()
        .map(|(rid, _)| aib_engine::BatchOp::Update {
            table: "t".into(),
            rid: *rid,
            tuple: tuple(9000),
        })
        .collect();
    ops.extend(
        rows[4..8]
            .iter()
            .map(|(rid, _)| aib_engine::BatchOp::Delete {
                table: "t".into(),
                rid: *rid,
            }),
    );
    let results = db.execute_batch(&ops).unwrap();
    assert!(results[..4].iter().all(|r| r.is_some()));
    assert!(results[4..].iter().all(|r| r.is_none()));
    assert_eq!(db.table("t").unwrap().live_tuples(), 28);
    db.close().unwrap();
}

/// Every statement runs one write section, which stages what the statement
/// applied even when it fails: nothing for a statement that failed before
/// it changed anything, the applied prefix for a batch that failed midway.
#[test]
fn a_failed_statement_stages_only_what_it_applied() {
    let dir = Arc::new(MemDir::new());
    let expected: std::collections::BTreeSet<i64> = {
        let db = open_in(&dir, config());
        db.create_table("t", schema()).unwrap();
        for k in 0..4 {
            db.insert("t", &tuple(k)).unwrap();
        }
        let rows = image(&db, "t");
        let unknown = Rid {
            slot: aib_storage::SlotId(999),
            ..rows[0].0
        };
        let written = db.wal_records_written();

        let wrong_arity = Tuple::new(vec![Value::Int(7)]);
        assert!(db.insert("t", &wrong_arity).is_err());
        assert!(db.delete("t", unknown).is_err());
        assert!(db.update("t", unknown, &tuple(8)).is_err());
        let missing = db.create_partial_index(
            "t",
            "missing",
            Coverage::IntRange { lo: 0, hi: 9 },
            IndexBackend::BTree,
            None,
        );
        assert!(matches!(missing, Err(EngineError::UnknownColumn(_))));
        assert_eq!(
            db.wal_records_written(),
            written,
            "failed statements log nothing"
        );

        // The third op fails: the insert and the update before it are
        // applied, staged and made durable; the insert after it never runs.
        let ops = vec![
            BatchOp::Insert {
                table: "t".into(),
                tuple: tuple(100),
            },
            BatchOp::Update {
                table: "t".into(),
                rid: rows[1].0,
                tuple: tuple(1001),
            },
            BatchOp::Delete {
                table: "t".into(),
                rid: unknown,
            },
            BatchOp::Insert {
                table: "t".into(),
                tuple: tuple(102),
            },
        ];
        let failed = db.execute_batch(&ops);
        assert!(matches!(failed, Err(EngineError::Storage(_))), "{failed:?}");
        assert_eq!(db.wal_records_written(), written + 2, "the two-op prefix");
        assert_eq!(db.table("t").unwrap().live_tuples(), 5);
        [0, 1001, 2, 3, 100].into()
        // Crash: drop without close.
    };

    let db = open_in(&dir, config());
    let keys: std::collections::BTreeSet<i64> = image(&db, "t")
        .into_iter()
        .map(|(_, t)| match t.get(0) {
            Some(Value::Int(k)) => *k,
            other => panic!("unexpected key {other:?}"),
        })
        .collect();
    assert_eq!(keys, expected, "the prefix and nothing more");
}

/// 8 racing writers under the shadow model: after a crash mid-race, the
/// recovered bookkeeping must match a `GroundTruth` recomputation (heap
/// rescan + coverage), and the heap holds exactly the acked rows.
#[cfg(feature = "invariant-checks")]
#[test]
fn racing_writers_recover_to_ground_truth() {
    let dir = TempDir::new("racetruth");
    let acked: Vec<i64> = {
        let db = Database::open(dir.path(), config()).unwrap().into_shared();
        db.create_table("t", schema()).unwrap();
        db.create_partial_index(
            "t",
            "k",
            Coverage::IntRange { lo: 0, hi: 499 },
            IndexBackend::BTree,
            Some(BufferConfig::default()),
        )
        .unwrap();
        let mut acked = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|w| {
                    let db = db.clone();
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        for i in 0..20i64 {
                            let k = w as i64 * 1000 + i;
                            if db.insert("t", &tuple(k)).is_ok() {
                                mine.push(k);
                            }
                        }
                        mine
                    })
                })
                .collect();
            for h in handles {
                acked.extend(h.join().unwrap());
            }
        });
        acked
        // Crash.
    };

    let db = Database::open(dir.path(), config()).unwrap();
    db.verify_invariants().unwrap();
    db.check_space_invariants();
    let keys: std::collections::BTreeSet<i64> = image(&db, "t")
        .into_iter()
        .map(|(_, t)| match t.get(0) {
            Some(Value::Int(k)) => *k,
            other => panic!("unexpected key {other:?}"),
        })
        .collect();
    assert_eq!(keys.len(), acked.len());
    for k in &acked {
        assert!(keys.contains(k), "acked key {k} lost");
    }
    // Post-recovery traffic keeps the model happy too.
    for q in 0..10 {
        db.execute(&Query::on("t", "k").eq(q as i64)).unwrap();
    }
    db.verify_invariants().unwrap();
}

/// The full shadow-model diff after recovery: `GroundTruth`-recomputed
/// `C[p]` (heap rescan + coverage + buffer contents) must equal the
/// recovered bookkeeping, for every buffered column, plus budget and
/// partition-structure checks. This is the ISSUE's "rebuilds `C[p]` to
/// match a fresh rescan" acceptance check, end to end.
#[cfg(feature = "invariant-checks")]
#[test]
fn recovered_counters_match_ground_truth() {
    let dir = TempDir::new("truth");
    {
        let db = Database::open(dir.path(), config()).unwrap();
        db.create_table("t", schema()).unwrap();
        for i in 0..300 {
            db.insert("t", &tuple(i % 60)).unwrap();
        }
        db.create_partial_index(
            "t",
            "k",
            Coverage::IntRange { lo: 0, hi: 29 },
            IndexBackend::BTree,
            Some(BufferConfig::default()),
        )
        .unwrap();
        for q in 30..45 {
            db.execute(&Query::on("t", "k").eq(q as i64)).unwrap();
        }
        let rows = image(&db, "t");
        db.delete("t", rows[5].0).unwrap();
        db.update("t", rows[11].0, &tuple(7)).unwrap();
        // Crash without checkpoint.
    }
    let db = Database::open(dir.path(), config()).unwrap();
    db.verify_invariants().unwrap();
    db.check_space_invariants();
    // And again after post-recovery traffic.
    for q in 30..40 {
        db.execute(&Query::on("t", "k").eq(q as i64)).unwrap();
    }
    db.verify_invariants().unwrap();
}
