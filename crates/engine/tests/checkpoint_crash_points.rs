//! Every step boundary of a periodic checkpoint — the three phases of
//! `checkpoint_core` and the rename dance of `Wal::rotate_recycled` — as a
//! crash point: build the files a crash there leaves, reopen from `heap.db`
//! and `wal.log` **alone**, and diff against the row model. Every acked
//! operation must be there, and of the recycled log only the frames of its
//! own generation may replay.
//!
//! The phase boundaries are observed on a live engine
//! (`Database::checkpoint_observed`), with commits issued *between* them so
//! that the rotated log has a tail the heap image does not hold. The steps
//! inside the rotation are composed from two observed directories — the one
//! just before it and the one just after — because each of them only moves
//! names around.

use aib_engine::{CheckpointPhase, Database, EngineConfig};
use aib_index::{Coverage, IndexBackend};
use aib_storage::{Column, Rid, Schema, Tuple, Value, Wal, WalRecord};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

/// A unique scratch directory per use, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let mut p = std::env::temp_dir();
        p.push(format!(
            "aib-ckpt-{}-{}-{tag}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const FILES: [&str; 4] = ["heap.db", "wal.log", "wal.log.new", "wal.log.old"];

/// The files of a database directory, as a crash would find them.
type Files = BTreeMap<&'static str, Vec<u8>>;

fn read_files(dir: &Path) -> Files {
    FILES
        .into_iter()
        .filter_map(|name| Some((name, std::fs::read(dir.join(name)).ok()?)))
        .collect()
}

fn config() -> EngineConfig {
    EngineConfig {
        pool_frames: 64,
        // Checkpoints happen where the test says, nowhere else.
        wal_checkpoint_interval: u64::MAX,
        ..Default::default()
    }
}

fn tuple(k: i64, pad: usize) -> Tuple {
    Tuple::new(vec![Value::Int(k), Value::from("x".repeat(pad))])
}

/// The row model: what every acked operation says the table holds.
#[derive(Default, Clone)]
struct Model(BTreeMap<Rid, Tuple>);

impl Model {
    fn insert(&mut self, db: &Database, k: i64, pad: usize) {
        let t = tuple(k, pad);
        self.0.insert(db.insert("t", &t).unwrap(), t);
    }

    /// Rewrites every `step`-th row (growing it, so some move pages) and
    /// deletes the row behind each.
    fn churn(&mut self, db: &Database, step: usize, pad: usize) {
        let rids: Vec<Rid> = self.0.keys().copied().collect();
        for pair in rids.chunks(step) {
            let t = tuple(10_000 + pad as i64, pad);
            self.0.remove(&pair[0]);
            self.0.insert(db.update("t", pair[0], &t).unwrap(), t);
            if let Some(&victim) = pair.get(1) {
                db.delete("t", victim).unwrap();
                self.0.remove(&victim);
            }
        }
    }

    fn rows(&self) -> Vec<(Rid, Tuple)> {
        self.0.iter().map(|(rid, t)| (*rid, t.clone())).collect()
    }
}

/// What the observed engine run left at each boundary.
struct Observed {
    /// After the first (injected) half flush of the heap: old log, heap
    /// partly newer.
    mid_heap_flush: (Files, Model),
    /// Heap flushed and fsynced, log not rotated; a tail committed since the
    /// cut.
    before_rotation: Files,
    /// The same checkpoint, done.
    after_rotation: Files,
    /// Everything acked by then (nothing commits during the rotation).
    model: Model,
    /// Records the rotated log must replay: its snapshot and the tail.
    rotated_records: usize,
}

fn observe() -> Observed {
    let dir = TempDir::new("live");
    let db = Database::open(&dir.0, config()).unwrap();
    db.create_table("t", Schema::new(vec![Column::int("k"), Column::str("pad")]))
        .unwrap();
    let mut model = Model::default();
    for k in 0..300 {
        model.insert(&db, k, 100);
    }
    // A first periodic checkpoint parks this long log, so that the one under
    // test is staged over its blocks.
    db.checkpoint_observed(true, &mut |_| {}).unwrap();
    model.churn(&db, 5, 400);
    db.checkpoint_observed(true, &mut |_| {}).unwrap();
    assert!(
        dir.0.join("wal.log.new").exists(),
        "a retired log is parked"
    );
    for k in 300..340 {
        model.insert(&db, k, 150);
    }
    model.churn(&db, 9, 700);

    // Crash point: mid heap flush. Commits land behind the cut, half the
    // frozen pages reach the file, the checkpoint dies.
    db.fail_next_heap_sync();
    let failed = db.checkpoint_observed(true, &mut |phase| {
        if phase == CheckpointPhase::Captured {
            model.insert(&db, 900, 300);
        }
    });
    assert!(failed.is_err());
    let mid_heap_flush = (read_files(&dir.0), model.clone());

    // The checkpoint under test, with a tail: DML behind the cut, a DDL
    // record among it, more DML after the heap fsync.
    let mut before_rotation = None;
    let mut tail = 0;
    db.checkpoint_observed(true, &mut |phase| match phase {
        CheckpointPhase::Captured => {
            let before = db.wal_records_written();
            model.churn(&db, 25, 900);
            db.create_partial_index(
                "t",
                "k",
                Coverage::IntRange { lo: 0, hi: 99 },
                IndexBackend::BTree,
                None,
            )
            .unwrap();
            tail += db.wal_records_written() - before;
        }
        CheckpointPhase::Flushed => {
            let before = db.wal_records_written();
            for k in 400..410 {
                model.insert(&db, k, 50);
            }
            tail += db.wal_records_written() - before;
            before_rotation = Some(read_files(&dir.0));
        }
    })
    .unwrap();
    assert_eq!(db.wal_records_written(), 1 + tail, "snapshot + tail");
    let after_rotation = read_files(&dir.0);
    drop(db); // a crash: no close
    Observed {
        mid_heap_flush,
        before_rotation: before_rotation.unwrap(),
        after_rotation,
        model,
        rotated_records: 1 + tail as usize,
    }
}

/// The bytes from `at` on of a log of `generation` whose records — after a
/// snapshot padded to fit — start exactly at byte `at`.
fn stale_frames_at(at: usize, generation: u32, records: &[WalRecord]) -> Vec<u8> {
    let dir = TempDir::new("stale");
    let path = dir.0.join("scratch.log");
    // `Wal::create` continues from the generation it finds.
    let mut header = b"AWL1".to_vec();
    header.extend((generation - 1).to_le_bytes());
    std::fs::write(&path, header).unwrap();
    // File header, frame header and tag byte in front of the padding.
    let padding = WalRecord::Snapshot(vec![0; at - 8 - 8 - 1]);
    let mut wal = Wal::create(&path, &padding).unwrap();
    for record in records {
        wal.append(record).unwrap();
    }
    let raw = std::fs::read(&path).unwrap();
    assert_eq!(Wal::replay_image(&raw).unwrap().len(), 1 + records.len());
    raw[at..].to_vec()
}

/// Reopens `files` in a fresh directory and checks the table against
/// `model`. Returns how many records the crashed log replayed.
fn reopen_and_diff(point: &str, files: &Files, model: &Model, indexed: bool) -> usize {
    let dir = TempDir::new("crashed");
    for (name, bytes) in files {
        std::fs::write(dir.0.join(name), bytes).unwrap();
    }
    let replayed = Wal::replay(&dir.0.join("wal.log")).unwrap();
    assert!(
        matches!(replayed.first(), Some(WalRecord::Snapshot(_))),
        "{point}: the log opens with its snapshot"
    );
    let db = Database::open(&dir.0, config()).unwrap_or_else(|e| panic!("{point}: reopen: {e}"));
    let mut rows = db.table("t").unwrap().scan_all().unwrap();
    rows.sort_by_key(|(rid, _)| *rid);
    assert_eq!(rows, model.rows(), "{point}: recovered table");
    assert_eq!(db.coverage("t", "k").is_some(), indexed, "{point}: index");
    for side in ["wal.log.new", "wal.log.old"] {
        assert!(!dir.0.join(side).exists(), "{point}: {side} survived open");
    }
    replayed.len()
}

#[test]
fn every_step_boundary_of_a_periodic_checkpoint_is_a_safe_crash_point() {
    let seen = observe();
    let before = &seen.before_rotation;
    let after = &seen.after_rotation;
    let (old_log, new_log) = (&before["wal.log"], &after["wal.log"]);
    // The test is about a *recycled* log: staged over a longer one, so stale
    // frames of an older generation sit behind its tail.
    let logical: usize = 8 + Wal::replay_image(new_log)
        .unwrap()
        .iter()
        .map(|r| 8 + r.encode().len())
        .sum::<usize>();
    assert!(
        new_log.len() > logical + 1000,
        "the rotated log must carry stale frames: {} physical, {logical} logical",
        new_log.len()
    );
    assert_eq!(after["wal.log.new"], *old_log, "the retired log is parked");

    // Where those stale frames start is an accident of record sizes. The
    // worst case is no accident: a whole, well-formed frame of the log two
    // rotations back starting exactly at the new tail — here three deletes
    // of live rows, which only their generation keeps from replaying.
    let generation = u32::from_le_bytes(new_log[4..8].try_into().unwrap());
    let deletes: Vec<WalRecord> = (seen.model.0.keys().take(3))
        .map(|&rid| WalRecord::Delete { table: 0, rid })
        .collect();
    let mut aligned = new_log[..logical].to_vec();
    aligned.extend(stale_frames_at(logical, generation - 2, &deletes));
    assert_eq!(
        Wal::replay_image(&aligned).unwrap().len(),
        seen.rotated_records
    );

    // name → (files a crash leaves, records its log replays)
    let mid_tail = 8 + (logical - 8) * 2 / 3;
    let with = |base: &Files, changes: &[(&'static str, Option<&Vec<u8>>)]| -> Files {
        let mut files = base.clone();
        for (name, bytes) in changes {
            match bytes {
                Some(bytes) => files.insert(name, (*bytes).clone()),
                None => files.remove(name),
            };
        }
        files
    };
    let torn_stage = new_log[..mid_tail].to_vec();
    let old_records = Wal::replay_image(old_log).unwrap().len();
    let points: Vec<(&str, Files, usize)> = vec![
        (
            "after heap fsync, before rotation",
            before.clone(),
            old_records,
        ),
        (
            "mid tail write of the staged log",
            with(before, &[("wal.log.new", Some(&torn_stage))]),
            old_records,
        ),
        (
            "after stage write",
            with(before, &[("wal.log.new", Some(new_log))]),
            old_records,
        ),
        (
            "after link",
            with(
                before,
                &[
                    ("wal.log.new", Some(new_log)),
                    ("wal.log.old", Some(old_log)),
                ],
            ),
            old_records,
        ),
        (
            "after rename",
            with(
                before,
                &[
                    ("wal.log", Some(new_log)),
                    ("wal.log.new", None),
                    ("wal.log.old", Some(old_log)),
                ],
            ),
            seen.rotated_records,
        ),
        ("before dir fsync", after.clone(), seen.rotated_records),
        (
            "a whole stale frame right behind the tail",
            with(after, &[("wal.log", Some(&aligned))]),
            seen.rotated_records,
        ),
    ];
    for (point, files, expect_replayed) in &points {
        // With whatever side files the crash left beside the two…
        let replayed = reopen_and_diff(point, files, &seen.model, true);
        assert_eq!(replayed, *expect_replayed, "{point}: records replayed");
        // …and from `heap.db` + `wal.log` alone.
        let two = with(files, &[("wal.log.new", None), ("wal.log.old", None)]);
        assert_eq!(reopen_and_diff(point, &two, &seen.model, true), replayed);
    }

    // Mid heap flush has a state of its own: an older log, a heap partly
    // ahead of it, and a model without what came later.
    let (files, model) = &seen.mid_heap_flush;
    reopen_and_diff("mid heap flush", files, model, false);
    let two = with(files, &[("wal.log.new", None), ("wal.log.old", None)]);
    reopen_and_diff("mid heap flush", &two, model, false);
}

/// The satellite fix: a log that does not start with a valid header is an
/// error from `open`, never "nothing to replay" over a populated heap — and
/// leftover side files go before anything is read, by name only.
#[test]
fn open_refuses_a_headerless_log_and_sweeps_side_files() {
    let dir = TempDir::new("header");
    let mut model = Model::default();
    {
        let db = Database::open(&dir.0, config()).unwrap();
        db.create_table("t", Schema::new(vec![Column::int("k"), Column::str("pad")]))
            .unwrap();
        for k in 0..20 {
            model.insert(&db, k, 40);
        }
    }
    let log = dir.0.join("wal.log");
    let good = std::fs::read(&log).unwrap();
    for bad in [&good[..0], &good[..5], &good[8..]] {
        std::fs::write(&log, bad).unwrap();
        let refused = Database::open(&dir.0, config());
        assert!(refused.is_err(), "a {}-byte headerless log", bad.len());
    }
    std::fs::write(&log, &good).unwrap();
    // No log at all beside a heap that holds pages: the same data loss.
    Database::open(&dir.0, config()).unwrap().close().unwrap();
    let good = std::fs::read(&log).unwrap();
    std::fs::remove_file(&log).unwrap();
    assert!(Database::open(&dir.0, config()).is_err(), "a lost log");
    std::fs::write(&log, &good).unwrap();
    // A crash between a rotation's link and its rename: `.old` is a second
    // name of the live log. Deleting it must not touch the log.
    std::fs::hard_link(&log, dir.0.join("wal.log.old")).unwrap();
    std::fs::write(dir.0.join("wal.log.new"), b"torn staging file").unwrap();
    let files = read_files(&dir.0);
    reopen_and_diff("leftover side files", &files, &model, false);
    let db = Database::open(&dir.0, config()).unwrap();
    assert_eq!(db.table("t").unwrap().live_tuples(), 20);
    assert!(!dir.0.join("wal.log.old").exists() && !dir.0.join("wal.log.new").exists());
    // Close, like open, leaves a compact log and nothing beside it.
    db.checkpoint_observed(true, &mut |_| {}).unwrap();
    assert!(
        dir.0.join("wal.log.new").exists(),
        "a periodic rotation parks"
    );
    db.close().unwrap();
    assert!(!dir.0.join("wal.log.new").exists(), "close sweeps it");
}
