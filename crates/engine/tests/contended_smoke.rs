//! Contended smoke: client threads hammer the shared read path CPU-bound
//! (zero-cost disk, resident pool — no stalls to hide serialization
//! behind), checking every result against ground truth while racing each
//! other's adaptation; afterwards the space must be structurally sound
//! (and, under `--features invariant-checks`, exact against the
//! heap-recomputed shadow model). Two fixtures:
//!
//! * eight readers on a partially skippable column, against the
//!   arithmetic ground truth;
//! * three readers issuing tuned point queries on the hot values of a
//!   tuned column while one writer inserts, updates and deletes rows
//!   holding those values — the race the tune section's mutation-count
//!   check exists for. Each result is checked against the row counts the
//!   writer published around the query.
//!
//! CI runs this under `invariant-checks` in the concurrency job — it is
//! the correctness twin of `micro_concurrency`'s `contended` bench
//! section.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use aib_core::{BufferConfig, SpaceConfig};
use aib_engine::{AccessPath, ClientHandle, Database, EngineConfig, Query, TunerConfig};
use aib_index::{Coverage, IndexBackend};
use aib_storage::{Column, CostModel, Rid, Schema, Tuple, Value};

const ROWS: i64 = 5_000;
const COVERED_HI: i64 = ROWS / 10; // 90% of the domain is uncovered.
const THREADS: usize = 8;

fn build() -> Arc<Database> {
    let db = Database::new(EngineConfig {
        pool_frames: 1024,
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
    for i in 1..=ROWS {
        db.insert(
            "t",
            &Tuple::new(vec![Value::Int(i), Value::from("x".repeat(32))]),
        )
        .unwrap();
    }
    db.create_partial_index(
        "t",
        "k",
        Coverage::IntRange {
            lo: 1,
            hi: COVERED_HI,
        },
        IndexBackend::BTree,
        Some(BufferConfig::default()),
    )
    .unwrap();
    db.into_shared()
}

/// Eight threads race point and range probes for `dur`, each validating
/// every result against the closed-form expected count.
fn hammer(db: &Arc<Database>, dur: Duration) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let client = ClientHandle::new(Arc::clone(db));
            let stop = &stop;
            s.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Walk the whole domain, staggered per thread, mixing
                    // covered, uncovered, and straddling probes.
                    let k = 1 + ((i * 37 + t as u64 * 131) % ROWS as u64) as i64;
                    let got = client
                        .execute(&Query::point("t", "k", k))
                        .unwrap()
                        .result
                        .count();
                    assert_eq!(got, 1, "point probe k={k} under contention");
                    if i.is_multiple_of(7) {
                        let hi = (k + 50).min(ROWS);
                        let got = client
                            .execute(&Query::range("t", "k", k, hi))
                            .unwrap()
                            .result
                            .count();
                        assert_eq!(
                            got,
                            (hi - k + 1) as usize,
                            "range probe [{k}, {hi}] under contention"
                        );
                    }
                    i += 1;
                }
            });
        }
        std::thread::sleep(dur);
        stop.store(true, Ordering::Relaxed);
    });
}

#[test]
fn eight_threads_stay_exact() {
    let db = build();
    hammer(&db, Duration::from_millis(200));
    db.check_space_invariants();
    #[cfg(feature = "invariant-checks")]
    db.verify_invariants().unwrap();
}

/// Rows of the tuned fixture; row `i` holds `k = i % MODULUS`.
const TUNED_ROWS: i64 = 2_000;
const MODULUS: i64 = 40;
/// The values the writer churns and the readers query, outside the
/// DDL-time coverage; each starts with `TUNED_ROWS / MODULUS` rows.
const HOT: [i64; 2] = [3, 7];
const READERS: usize = 3;

fn tuned_row(k: i64) -> Tuple {
    Tuple::new(vec![Value::Int(k), Value::from("y".repeat(32))])
}

/// `t(k, pad)` with a set-coverage partial index on `k` (the ten values
/// 30..40), an unlimited buffer, and a tuner that covers every value it
/// sees queried and keeps one.
fn build_tuned() -> Arc<Database> {
    let db = Database::new(EngineConfig {
        pool_frames: 1024,
        cost_model: CostModel::free(),
        space: SpaceConfig {
            max_bytes: None,
            i_max: 1_000_000,
            seed: 5,
        },
        ..Default::default()
    });
    db.create_table("t", Schema::new(vec![Column::int("k"), Column::str("pad")]))
        .unwrap();
    for i in 0..TUNED_ROWS {
        db.insert("t", &tuned_row(i % MODULUS)).unwrap();
    }
    db.create_partial_index(
        "t",
        "k",
        Coverage::Set((30..MODULUS).map(Value::Int).collect()),
        IndexBackend::BTree,
        Some(BufferConfig::default()),
    )
    .unwrap();
    let tuner = TunerConfig {
        window: 8,
        threshold: 1,
        capacity: 1,
    };
    db.attach_tuner("t", "k", tuner).unwrap();
    db.into_shared()
}

/// The writer's published ground truth. `states[n]` holds the hot values'
/// row counts after `n` statements; a statement's state is pushed before
/// it runs and `done` moves past it after, so a query that read `done` as
/// `a` before and `b` after ran against one of `states[a..=b + 1]`.
struct Truth {
    states: Mutex<Vec<[usize; HOT.len()]>>,
    done: AtomicUsize,
}

/// One writer cycles insert / update / delete over the hot values (moving
/// rows between them) while the readers' tuned point queries cover and
/// evict the same values: each reader asks runs of eight queries per
/// value, so a miss covers the value and the queries after it are hits
/// that would show a cover built from stale rows. Returns the final counts
/// and the readers' partial-index hits.
fn race_tuned_readers(db: &Arc<Database>, dur: Duration) -> ([usize; HOT.len()], usize) {
    let start = [(TUNED_ROWS / MODULUS) as usize; HOT.len()];
    let truth = Truth {
        states: Mutex::new(vec![start]),
        done: AtomicUsize::new(0),
    };
    let stop = AtomicBool::new(false);
    let hits = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let (truth, stop, hits) = (&truth, &stop, &hits);
        let writer = ClientHandle::new(Arc::clone(db));
        s.spawn(move || {
            let mut counts = start;
            let mut mine: Vec<Vec<Rid>> = vec![Vec::new(); HOT.len()];
            let mut n = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let (h, next) = (n % HOT.len(), (n + 1) % HOT.len());
                let mut after = counts;
                let op = n % 3;
                n += 1;
                match op {
                    0 => after[h] += 1,
                    1 if !mine[h].is_empty() => {
                        (after[h], after[next]) = (after[h] - 1, after[next] + 1)
                    }
                    2 if !mine[next].is_empty() => after[next] -= 1,
                    _ => continue,
                }
                truth.states.lock().unwrap().push(after);
                match op {
                    0 => mine[h].push(writer.insert("t", &tuned_row(HOT[h])).unwrap()),
                    1 => {
                        let rid = mine[h].pop().unwrap();
                        let moved = writer.update("t", rid, &tuned_row(HOT[next])).unwrap();
                        mine[next].push(moved);
                    }
                    _ => writer.delete("t", mine[next].pop().unwrap()).unwrap(),
                }
                counts = after;
                truth.done.fetch_add(1, Ordering::SeqCst);
                // Back to back, the statements would drop every tune
                // section; a pause lets some of them apply.
                std::thread::sleep(Duration::from_micros(20));
            }
        });
        for r in 0..READERS {
            let client = ClientHandle::new(Arc::clone(db));
            s.spawn(move || {
                let mut i = r;
                while !stop.load(Ordering::Relaxed) {
                    let h = i / 8 % HOT.len();
                    i += 1;
                    let before = truth.done.load(Ordering::SeqCst);
                    let out = client.execute(&Query::point("t", "k", HOT[h])).unwrap();
                    let after = truth.done.load(Ordering::SeqCst);
                    if out.result.path == AccessPath::PartialIndex {
                        hits.fetch_add(1, Ordering::Relaxed);
                    }
                    let got = out.result.count();
                    let states = truth.states.lock().unwrap();
                    let last = (after + 1).min(states.len() - 1);
                    assert!(
                        states[before..=last].iter().any(|state| state[h] == got),
                        "k={} returned {got} rows ({:?}); between statements \
                         {before} and {after} it held {:?}",
                        HOT[h],
                        out.result.path,
                        states[before..=last]
                            .iter()
                            .map(|s| s[h])
                            .collect::<Vec<_>>()
                    );
                }
            });
        }
        std::thread::sleep(dur);
        stop.store(true, Ordering::Relaxed);
    });
    let last = *truth.states.lock().unwrap().last().unwrap();
    (last, hits.into_inner())
}

#[test]
fn tuned_readers_race_dml_on_their_values() {
    let db = build_tuned();
    let (counts, hits) = race_tuned_readers(&db, Duration::from_millis(200));
    assert!(hits > 0, "the tuner never covered a hot value");
    // Quiescent now: every hot value answers its final count, through the
    // tuned index or a scan.
    for (&k, &count) in HOT.iter().zip(&counts) {
        let got = db
            .execute(&Query::point("t", "k", k))
            .unwrap()
            .result
            .count();
        assert_eq!(got, count, "k={k} after the race");
    }
    db.check_space_invariants();
    #[cfg(feature = "invariant-checks")]
    db.verify_invariants().unwrap();
}
