//! Tracked constants: fixed workloads whose per-query page and memory
//! accounting is hashed and compared to a recorded value, so a change that
//! shifts what the engine reads, indexes, displaces or charges — by a
//! single page or byte — fails here even when every behavioural test
//! passes.
//!
//! The first workload comes from arithmetic, and its space holds exactly two
//! buffers, so stage 1 of the victim selection always has one eligible
//! buffer and picks it whatever the generator draws: its constant pins the
//! engine's accounting alone. The second is Fig. 8 in miniature on the
//! generated evaluation table with three buffers, so stage 1 chooses between
//! two, and its constant also pins the seeded streams of `aib_storage::Rng`
//! (the table, the query mix and the stage-1 draw).
//!
//! The first fixture: `t(a, b, pad)` with two buffered partial indexes of
//! empty coverage (every tuple uncovered), a space capped near 1.25 columns
//! with a small `I^MAX`, a pool smaller than the table, and a point-query
//! stream whose dominant column flips `a → b → a`, so each flip displaces
//! the other buffer's partitions.

use aib_core::{BufferConfig, SpaceConfig};
use aib_engine::{Database, EngineConfig, Query};
use aib_index::{Coverage, IndexBackend};
use aib_storage::{Column, Schema, Tuple, Value, DEFAULT_ENTRY_FOOTPRINT};
use aib_workload::{experiment3_queries, TableSpec};

const ROWS: i64 = 1_200;
/// Queries per phase of the stream; three phases, on `a`, `b`, `a`.
const PHASE: usize = 40;

/// FNV-1a over little-endian words: stable across platforms and releases,
/// unlike `std`'s `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn database() -> Database {
    let db = Database::new(EngineConfig {
        pool_frames: 16,
        space: SpaceConfig {
            max_bytes: Some(ROWS as usize * DEFAULT_ENTRY_FOOTPRINT * 5 / 4),
            i_max: 6,
            seed: 11,
        },
        ..Default::default()
    });
    db.create_table(
        "t",
        Schema::new(vec![Column::int("a"), Column::int("b"), Column::str("pad")]),
    )
    .unwrap();
    for i in 0..ROWS {
        let row = Tuple::new(vec![
            Value::Int(i),
            Value::Int((i * 7) % ROWS),
            Value::from("p".repeat(300)),
        ]);
        db.insert("t", &row).unwrap();
    }
    for column in ["a", "b"] {
        db.create_partial_index(
            "t",
            column,
            Coverage::empty_set(),
            IndexBackend::BTree,
            Some(BufferConfig {
                partition_pages: 8,
                ..BufferConfig::default()
            }),
        )
        .unwrap();
    }
    db
}

#[test]
fn two_buffer_displacement_trace_is_frozen() {
    let db = database();
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    let mut dropped = 0;
    for q in 0..3 * PHASE {
        let column = ["a", "b", "a"][q / PHASE];
        let key = (q as i64 * 37) % ROWS;
        let out = db.execute(&Query::point("t", column, key)).unwrap();
        assert_eq!(out.result.count(), 1, "query {q}: {column} = {key}");
        let m = &out.metrics;
        let scan = m.scan.clone().unwrap_or_default();
        dropped += scan.partitions_dropped;
        hash.word(m.io.page_reads);
        hash.word(u64::from(scan.pages_indexed));
        hash.word(scan.partitions_dropped as u64);
        hash.word(m.memory.index_bytes as u64);
    }
    let high_water = db.memory().high_water;
    assert!(dropped > 0, "the flips displace partitions");
    assert_eq!(hash.0, 0x657f_1918_d227_da05, "per-query accounting trace");
    assert_eq!(high_water, 178_688, "combined high-water bytes");
}

/// Fig. 8 in miniature: buffered partial indexes on A, B and C of the
/// generated evaluation table compete for about 1.25 columns of space under
/// the experiment 3 mix. Stage 1 picks between two eligible buffers here, so
/// the trace pins the seeded stage-1 draw together with the datagen and
/// query streams. It hashes the pages each scan fetched rather than the
/// pool's page reads: under `invariant-checks` the shadow model re-reads
/// the heap after every mutation, which reorders the small pool's LRU list.
#[test]
fn three_buffer_displacement_trace_is_frozen() {
    let spec = TableSpec::scaled(3_000, 0xDA7A);
    let db = Database::new(EngineConfig {
        pool_frames: 16,
        space: SpaceConfig {
            max_bytes: Some(spec.rows as usize * DEFAULT_ENTRY_FOOTPRINT * 5 / 4),
            i_max: 6,
            seed: 8,
        },
        ..Default::default()
    });
    db.create_table("eval", spec.schema()).unwrap();
    for t in spec.tuples() {
        db.insert("eval", &t).unwrap();
    }
    let (lo, hi) = spec.covered_range();
    let columns = ["A", "B", "C"];
    for column in columns {
        db.create_partial_index(
            "eval",
            column,
            Coverage::IntRange { lo, hi },
            IndexBackend::BTree,
            Some(BufferConfig {
                partition_pages: 8,
                ..BufferConfig::default()
            }),
        )
        .unwrap();
    }
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    // `shrunk[q][b]`: buffer `b` lost entries during a query on column `q`.
    let mut shrunk = [[false; 3]; 3];
    let mut before = vec![0; 3];
    for q in experiment3_queries(&spec, 200, 83) {
        let out = db
            .execute(&Query::point("eval", &q.column, q.value))
            .unwrap();
        let m = &out.metrics;
        let scan = m.scan.clone().unwrap_or_default();
        hash.word(u64::from(scan.pages_read));
        hash.word(u64::from(scan.pages_indexed));
        hash.word(scan.partitions_dropped as u64);
        for &entries in &m.buffer_entries {
            hash.word(entries as u64);
        }
        let queried = columns.iter().position(|&c| c == q.column).unwrap();
        for (b, (now, was)) in m.buffer_entries.iter().zip(&before).enumerate() {
            shrunk[queried][b] |= now < was;
        }
        before.clone_from(&m.buffer_entries);
    }
    assert!(
        shrunk[2][0] && shrunk[2][1],
        "queries on C displace partitions of both A and B: {shrunk:?}"
    );
    assert_eq!(hash.0, 0x5e7c_7d5d_09c1_32da, "per-query scan trace");
}
