//! Contended smoke: eight client threads hammer the snapshot-planned read
//! path CPU-bound (`io_wait = false`, zero-cost disk, resident pool — no
//! stalls to hide serialization behind) on a partially skippable fixture.
//! Every thread checks each result against the arithmetic ground truth
//! while racing the others' adaptation; afterwards the space must be
//! structurally sound (and, under `--features invariant-checks`, exact
//! against the heap-recomputed shadow model).
//!
//! CI runs this under `invariant-checks` in the concurrency job — it is
//! the correctness twin of `micro_concurrency`'s `contended` bench
//! section.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use aib_core::{BufferConfig, SpaceConfig};
use aib_engine::{ClientHandle, Database, EngineConfig, Query};
use aib_index::{Coverage, IndexBackend};
use aib_storage::{Column, CostModel, Schema, Tuple, Value};

const ROWS: i64 = 5_000;
const COVERED_HI: i64 = ROWS / 10; // 90% of the domain is uncovered.
const THREADS: usize = 8;

fn build() -> Arc<Database> {
    let db = Database::new(EngineConfig {
        pool_frames: 1024,
        cost_model: CostModel::free(),
        io_wait: false,
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
