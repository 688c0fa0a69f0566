//! A tracked constant: one fixed workload whose per-query page and memory
//! accounting is hashed and compared to a recorded value, so a change that
//! shifts what the engine reads, indexes, displaces or charges — by a
//! single page or byte — fails here even when every behavioural test
//! passes.
//!
//! The workload is independent of the build: rows and queries come from
//! arithmetic, and the space holds exactly two buffers, so stage 1 of the
//! victim selection always has one eligible buffer and picks it whatever
//! the RNG draws. The same constants hold under any `rand` implementation.
//!
//! The fixture: `t(a, b, pad)` with two buffered partial indexes of empty
//! coverage (every tuple uncovered), a space capped near 1.25 columns with
//! a small `I^MAX`, a pool smaller than the table, and a point-query stream
//! whose dominant column flips `a → b → a`, so each flip displaces the
//! other buffer's partitions.

use aib_core::{BufferConfig, SpaceConfig};
use aib_engine::{Database, EngineConfig, Query};
use aib_index::{Coverage, IndexBackend};
use aib_storage::{Column, Schema, Tuple, Value, DEFAULT_ENTRY_FOOTPRINT};

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
