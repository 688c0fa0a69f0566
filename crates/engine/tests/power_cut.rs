//! Power cuts under the durable engine: the tests here lose unsynced bytes.
//!
//! The engine runs on an in-memory directory ([`MemDir`]) with a seeded
//! script: a load, then inserts, updates and deletes, one DDL (a buffered
//! partial index) and two checkpoints. At sampled points the power goes —
//! every file and directory entry reverts to its last sync, with or without
//! a torn prefix of what was written since:
//!
//! * after an operation was acked;
//! * between a group commit's write and its fsync (the fsync fails);
//! * in the middle of a checkpoint's heap flush (a write fails);
//! * between the log rotation's rename and its directory sync (the sync
//!   fails).
//!
//! The database is reopened from what survived and checked against the row
//! model: every acked operation is there, the one in flight is either
//! wholly there or wholly absent, the Index Buffer roster and `C[p]` equal a
//! rebuild from the recovered heap, and under `--features
//! invariant-checks` the shadow model agrees.
//!
//! A torn prefix on the heap file keeps whole pages. The engine assumes a
//! page write is atomic: recovery replays slot states into the pages it
//! finds, and a page torn inside cannot be repaired from the log.

use std::collections::BTreeMap;
use std::sync::Arc;

use aib_core::BufferConfig;
use aib_engine::{Database, EngineConfig, EngineResult};
use aib_index::{Coverage, IndexBackend};
use aib_storage::{Column, Fault, MemDir, Rid, Schema, Tuple, Value, PAGE_SIZE};

/// Rows loaded before the mixed part of the script.
const LOAD: usize = 100;
/// Operations of the mixed part.
const MIXED: usize = 120;
/// The index's coverage: keys up to here are covered.
const COVERED: i64 = 499;

fn config() -> EngineConfig {
    EngineConfig {
        pool_frames: 32,
        // Checkpoints happen where the script says, nowhere else.
        wal_checkpoint_interval: u64::MAX,
        ..Default::default()
    }
}

fn tuple(k: i64) -> Tuple {
    // Lengths vary with the key, so updates move rows between pages.
    let pad = 60 + k.rem_euclid(7) as usize * 40;
    Tuple::new(vec![Value::Int(k), Value::from("p".repeat(pad))])
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Inserts the row of a key (taken modulo 1000).
    Insert(u64),
    /// Replaces the row the pick selects in the model with the row of a key.
    Update(u64, u64),
    /// Deletes the row the pick selects.
    Delete(u64),
    CreateIndex,
    Checkpoint,
}

/// The seeded script: the load, then the mixed part with the index created
/// and the checkpoints taken at fixed places in it.
fn script() -> Vec<Op> {
    let mut x = 0x2545_F491_4F6C_DD1D_u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut ops: Vec<Op> = (0..LOAD).map(|_| Op::Insert(next())).collect();
    for i in 0..MIXED {
        ops.push(match i {
            20 | 100 => Op::Checkpoint,
            60 => Op::CreateIndex,
            _ => match next() % 10 {
                0..=3 => Op::Insert(next()),
                4..=7 => Op::Update(next(), next()),
                _ => Op::Delete(next()),
            },
        });
    }
    ops
}

/// What every acked operation says the database holds.
#[derive(Default, Clone)]
struct Model {
    rows: BTreeMap<Rid, Tuple>,
    indexed: bool,
}

impl Model {
    fn pick(&self, pick: u64) -> Option<Rid> {
        let n = self.rows.len() as u64;
        (n > 0).then(|| self.rows.keys().nth((pick % n) as usize).copied())?
    }
}

/// What the operation in flight changes if it lands.
#[derive(Debug)]
enum Effect {
    Rows {
        gone: Option<Rid>,
        new: Option<Tuple>,
    },
    Index,
    Nothing,
}

/// Runs `op`, updating `model` only if it is acked. Returns its effect.
fn apply(db: &Database, model: &mut Model, op: Op) -> (Effect, EngineResult<()>) {
    let picked = match op {
        Op::Update(pick, _) | Op::Delete(pick) => model.pick(pick),
        _ => None,
    };
    let rows = |gone: Option<Rid>, new: Option<&Tuple>| Effect::Rows {
        gone,
        new: new.cloned(),
    };
    match (op, picked) {
        (Op::Update(_, k), Some(old)) => {
            let t = tuple((k % 1000) as i64);
            let acked = db.update("t", old, &t).map(|rid| {
                model.rows.remove(&old);
                model.rows.insert(rid, t.clone());
            });
            (rows(Some(old), Some(&t)), acked)
        }
        (Op::Delete(_), Some(old)) => {
            let acked = db.delete("t", old).map(|_| {
                model.rows.remove(&old);
            });
            (rows(Some(old), None), acked)
        }
        (Op::CreateIndex, _) => {
            let acked = db
                .create_partial_index(
                    "t",
                    "k",
                    Coverage::IntRange { lo: 0, hi: COVERED },
                    IndexBackend::BTree,
                    Some(BufferConfig::default()),
                )
                .map(|_| model.indexed = true);
            (Effect::Index, acked)
        }
        (Op::Checkpoint, _) => (Effect::Nothing, db.checkpoint()),
        // An insert — or an update or delete of an empty table.
        (Op::Insert(k) | Op::Update(_, k), _) | (Op::Delete(k), None) => {
            let t = tuple((k % 1000) as i64);
            let acked = db.insert("t", &t).map(|rid| {
                model.rows.insert(rid, t.clone());
            });
            (rows(None, Some(&t)), acked)
        }
    }
}

/// Where the power goes.
#[derive(Debug, Clone, Copy)]
enum Point {
    /// Right after op `at` was acked.
    AfterAck(usize),
    /// Op `at` wrote its commit's frames, and their fsync failed.
    BeforeFsync(usize),
    /// The checkpoint at op `at` landed one page of its flush, then failed.
    MidHeapFlush(usize),
    /// The checkpoint at op `at` renamed the new log over the old one, then
    /// failed to sync the directory.
    BeforeDirSync(usize),
}

impl Point {
    fn at(self) -> usize {
        match self {
            Point::AfterAck(at)
            | Point::BeforeFsync(at)
            | Point::MidHeapFlush(at)
            | Point::BeforeDirSync(at) => at,
        }
    }

    /// The failure that stops op `at`, if any.
    fn fault(self) -> Option<Fault> {
        match self {
            Point::AfterAck(_) => None,
            Point::BeforeFsync(_) => Some(Fault::Sync {
                name: "wal.log".into(),
                nth: 0,
            }),
            Point::MidHeapFlush(_) => Some(Fault::Write {
                name: "heap.db".into(),
                nth: 0,
                keep: PAGE_SIZE,
            }),
            Point::BeforeDirSync(_) => Some(Fault::DirSync { nth: 0 }),
        }
    }

    /// The torn prefix the power cut keeps: into the frames of a log write,
    /// whole pages of a heap write.
    fn torn(self) -> usize {
        match self {
            Point::BeforeFsync(_) => 50,
            _ => PAGE_SIZE,
        }
    }
}

/// Runs the script up to the crash point, cuts the power (keeping a torn
/// prefix or not), reopens, and checks the recovered database.
fn crash_and_check(ops: &[Op], point: Point, torn: bool) {
    let what = format!("{point:?}, torn: {torn}");
    let dir = Arc::new(MemDir::new());
    let db = Database::open_in(dir.clone(), config()).unwrap();
    let schema = Schema::new(vec![Column::int("k"), Column::str("pad")]);
    db.create_table("t", schema).unwrap();
    let mut model = Model::default();
    for &op in &ops[..point.at()] {
        let (_, acked) = apply(&db, &mut model, op);
        acked.unwrap_or_else(|e| panic!("{what}: {op:?}: {e}"));
    }
    let op = ops[point.at()];
    let inflight = match point.fault() {
        Some(fault) => {
            dir.arm(fault);
            let (effect, acked) = apply(&db, &mut model, op);
            assert!(acked.is_err(), "{what}: {op:?} was acked through its fault");
            Some(effect)
        }
        None => {
            let (_, acked) = apply(&db, &mut model, op);
            acked.unwrap_or_else(|e| panic!("{what}: {op:?}: {e}"));
            None
        }
    };
    dir.cut_power(if torn { point.torn() } else { 0 });
    drop(db);

    let db =
        Database::open_in(dir.clone(), config()).unwrap_or_else(|e| panic!("{what}: reopen: {e}"));
    check(&db, &model, inflight.as_ref(), &what);
    // The recovered database takes traffic.
    db.insert("t", &tuple(COVERED + 1)).unwrap();
    let q = aib_engine::Query::on("t", "k").eq(COVERED + 1);
    assert!(db.execute(&q).unwrap().result.count() >= 1, "{what}");
    #[cfg(feature = "invariant-checks")]
    db.verify_invariants()
        .unwrap_or_else(|e| panic!("{what}: after traffic: {e}"));
}

fn check(db: &Database, model: &Model, inflight: Option<&Effect>, what: &str) {
    let mut rows = db.table("t").unwrap().scan_all().unwrap();
    rows.sort_by_key(|(rid, _)| *rid);
    let found: BTreeMap<Rid, Tuple> = rows.into_iter().collect();
    // Acked rows the database lost, and rows no acked op put there.
    let missing: Vec<Rid> = (model.rows.iter())
        .filter(|(rid, t)| found.get(rid) != Some(t))
        .map(|(rid, _)| *rid)
        .collect();
    let extra: Vec<&Tuple> = (found.iter())
        .filter(|(rid, t)| model.rows.get(rid) != Some(t))
        .map(|(_, t)| t)
        .collect();
    let exact = missing.is_empty() && extra.is_empty();
    let landed = match inflight {
        Some(Effect::Rows { gone, new }) => {
            missing == gone.iter().copied().collect::<Vec<_>>()
                && extra == new.iter().collect::<Vec<_>>()
        }
        _ => false,
    };
    assert!(
        exact || landed,
        "{what}: lost {missing:?}, gained {extra:?}; in flight {inflight:?}"
    );

    // The roster: the acked DDL, or the one in flight, wholly.
    let roster: Vec<String> = {
        let space = db.space();
        let names = space
            .buffer_ids()
            .map(|b| space.buffer(b).name().to_string());
        names.collect()
    };
    let indexed = roster == ["t.k"];
    assert!(
        indexed == model.indexed || matches!(inflight, Some(Effect::Index)),
        "{what}: roster {roster:?}, indexed {}",
        model.indexed
    );
    assert!(indexed || roster.is_empty(), "{what}: roster {roster:?}");

    // `C[p]` equals a rebuild: every row the index does not cover counts on
    // its page, and the recovered buffer is empty.
    if indexed {
        let table = db.table("t").unwrap();
        let mut rebuilt = vec![0u32; table.num_pages() as usize];
        for (rid, t) in &found {
            let covered = matches!(t.get(0), Some(Value::Int(k)) if (0..=COVERED).contains(k));
            let page = table.page_ordinal(*rid).unwrap();
            rebuilt[page as usize] += u32::from(!covered);
        }
        drop(table);
        let bid = db.buffer_id("t", "k").unwrap();
        let space = db.space();
        let counters = space.counters(bid);
        let counts: Vec<u32> = (0..counters.num_pages()).map(|p| counters.get(p)).collect();
        assert_eq!(counts, rebuilt, "{what}: C[p]");
        assert_eq!(
            space.buffer(bid).num_entries(),
            0,
            "{what}: buffer not empty"
        );
    }
    #[cfg(feature = "invariant-checks")]
    db.verify_invariants()
        .unwrap_or_else(|e| panic!("{what}: invariants: {e}"));
}

#[test]
fn every_sampled_power_cut_recovers_the_acked_state() {
    let ops = script();
    let dml = |at: usize| matches!(ops[at], Op::Insert(_) | Op::Update(..) | Op::Delete(_));
    let ddl = ops.iter().position(|&op| op == Op::CreateIndex).unwrap();
    let checkpoints: Vec<usize> = (0..ops.len())
        .filter(|&at| ops[at] == Op::Checkpoint)
        .collect();
    assert_eq!(checkpoints.len(), 2);
    // Sampled: a point in the load, one before and one after the index,
    // and the last op.
    let mut x = 0x9E37_79B9_u64;
    let mut sample = |lo: usize, hi: usize| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let at = lo + (x >> 33) as usize % (hi - lo);
        (at..hi).find(|&at| dml(at)).unwrap()
    };
    let mut points = vec![
        Point::AfterAck(sample(0, LOAD)),
        Point::AfterAck(sample(LOAD, ddl)),
        Point::AfterAck(ops.len() - 1),
        Point::BeforeFsync(sample(LOAD, ddl)),
        Point::BeforeFsync(ddl),
        Point::BeforeFsync(sample(ddl + 1, ops.len())),
    ];
    for &at in &checkpoints {
        points.push(Point::MidHeapFlush(at));
        points.push(Point::BeforeDirSync(at));
    }
    for point in points {
        for torn in [false, true] {
            crash_and_check(&ops, point, torn);
        }
    }
}
