//! A reversed range — `between(9, 3)` — matches nothing and never panics,
//! on every read path: a column whose partial index covers both bounds
//! (the hit answers from the index), a column whose Index Buffer holds
//! entries (the buffered scan probes the buffer, then the range epilogue
//! probes the partial index), and a column with no index (the plain scan).

use aib_core::BufferConfig;
use aib_engine::{AccessPath, Database, EngineConfig, Query};
use aib_index::{Coverage, IndexBackend};
use aib_storage::{Column, CostModel, Schema, Tuple, Value};

const ROWS: i64 = 2_000;
const DISTINCT: i64 = 20;

/// `t(covered, buffered, plain, pad)`: the three key columns hold the same
/// values, `0..DISTINCT` in turn.
fn database() -> Database {
    let db = Database::new(EngineConfig {
        pool_frames: 64,
        cost_model: CostModel::free(),
        ..Default::default()
    });
    let schema = Schema::new(vec![
        Column::int("covered"),
        Column::int("buffered"),
        Column::int("plain"),
        Column::str("pad"),
    ]);
    db.create_table("t", schema).unwrap();
    for k in 0..ROWS {
        let v = Value::Int(k % DISTINCT);
        let pad = Value::from("p".repeat(100));
        db.insert("t", &Tuple::new(vec![v.clone(), v.clone(), v, pad]))
            .unwrap();
    }
    // `buffered` covers no value the table holds, and — unlike an empty
    // set, which covers a reversed range vacuously — not `[9, 3]` either.
    let covered = Coverage::IntRange {
        lo: 0,
        hi: DISTINCT - 1,
    };
    let buffered = Coverage::IntRange {
        lo: 10 * DISTINCT,
        hi: 20 * DISTINCT,
    };
    for (column, coverage) in [("covered", covered), ("buffered", buffered)] {
        let buffer = Some(BufferConfig::default());
        db.create_partial_index("t", column, coverage, IndexBackend::BTree, buffer)
            .unwrap();
    }
    db
}

#[test]
fn reversed_between_matches_nothing_on_every_path() {
    let db = database();
    // A miss indexes every page of `buffered` into its Index Buffer.
    db.execute(&Query::on("t", "buffered").eq(5i64)).unwrap();
    {
        let space = db.space();
        let buffered = space.buffer(db.buffer_id("t", "buffered").unwrap());
        assert_eq!(
            buffered.num_entries(),
            ROWS as usize,
            "buffer holds entries"
        );
    }

    let plain = db
        .execute(&Query::on("t", "plain").between(9i64, 3i64))
        .unwrap()
        .result;
    assert_eq!(plain.path, AccessPath::PlainScan);
    assert_eq!(plain.rids, vec![]);
    for (column, path) in [
        ("covered", AccessPath::PartialIndex),
        ("buffered", AccessPath::BufferedScan),
    ] {
        let forward = db
            .execute(&Query::on("t", column).between(3i64, 9i64))
            .unwrap();
        assert_eq!(forward.result.path, path, "{column}");
        assert_eq!(
            forward.result.count(),
            (ROWS / DISTINCT * 7) as usize,
            "{column}"
        );

        let reversed = db
            .execute(&Query::on("t", column).between(9i64, 3i64))
            .unwrap();
        assert_eq!(reversed.result.path, path, "{column}");
        assert_eq!(
            reversed.result.rids, plain.rids,
            "{column} agrees with a plain scan"
        );
    }
}
