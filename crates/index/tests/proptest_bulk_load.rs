//! The bulk paths — `BPlusTree::from_sorted` and `BTreeIndex::add_batch` —
//! against one-by-one insertion: same entries in the same order, same
//! length and byte footprint, a structurally valid tree; and a bulk-built
//! tree must stay valid under the single-entry inserts and removes that
//! follow it (Table I maintenance).

use aib_index::{BPlusTree, BTreeIndex};
use aib_storage::{MemoryUsage, Rid, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Sizes at and around the node-order boundaries, plus arbitrary ones.
fn size_for(order: usize, pick: usize, arbitrary: usize) -> usize {
    match pick {
        0 => 0,
        1 => 1,
        2 => order,
        3 => order + 1,
        4 => 3 * order + 2,
        5 => order * order + 1,
        _ => arbitrary,
    }
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (0i64..12).prop_map(Value::Int),
        1 => (0usize..4).prop_map(|n| Value::from("k".repeat(n))),
    ]
}

/// Enough distinct `(value, rid)` pairs to pass the default order (64)
/// several times, few enough that batches repeat entries and overlap.
fn entry() -> impl Strategy<Value = (Value, Rid)> {
    (value(), 0u32..30, 0u16..4).prop_map(|(v, page, slot)| (v, Rid::new(page, slot)))
}

fn batch() -> impl Strategy<Value = Vec<(Value, Rid)>> {
    (0usize..7, 0usize..300).prop_flat_map(|(pick, arbitrary)| {
        prop::collection::vec(entry(), {
            let n = size_for(64, pick, arbitrary);
            n..n + 1
        })
    })
}

#[derive(Debug, Clone)]
enum Single {
    Add(Value, Rid),
    Remove(Value, Rid),
}

fn single() -> impl Strategy<Value = Single> {
    prop_oneof![
        1 => entry().prop_map(|(v, r)| Single::Add(v, r)),
        1 => entry().prop_map(|(v, r)| Single::Remove(v, r)),
    ]
}

fn entries(ix: &BTreeIndex) -> Vec<(Value, Rid)> {
    let mut out = Vec::new();
    ix.for_each(|v, r| out.push((v.clone(), r)));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn from_sorted_matches_insert_loop(
        order in 3usize..10,
        pick in 0usize..7,
        arbitrary in 0usize..400,
        singles in prop::collection::vec((0u8..3, 0i64..2000), 0..300),
    ) {
        let n = size_for(order, pick, arbitrary);
        let keys: Vec<(i64, u32)> = (0..n as i64).map(|k| (3 * k, k as u32)).collect();
        let bulk = BPlusTree::from_sorted(order, keys.iter().copied());
        let mut looped = BPlusTree::with_order(order);
        for &(k, v) in &keys {
            looped.insert(k, v);
        }
        prop_assert_eq!(bulk.len(), looped.len());
        bulk.check_invariants();
        let got: Vec<(i64, u32)> = bulk.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(i64, u32)> = looped.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(bulk.first_key(), looped.first_key());
        prop_assert_eq!(bulk.last_key(), looped.last_key());

        // Table I follows a bulk build one entry at a time.
        let mut bulk = bulk;
        let mut model: BTreeMap<i64, u32> = keys.into_iter().collect();
        for (step, (op, k)) in singles.into_iter().enumerate() {
            // Two inserts to one remove; removes aim at bulk-loaded keys.
            if op > 0 {
                prop_assert_eq!(bulk.insert(k, 7), model.insert(k, 7), "insert at {}", step);
            } else {
                let k = 3 * (k % 400);
                prop_assert_eq!(bulk.remove(&k), model.remove(&k), "remove at {}", step);
            }
            bulk.check_invariants();
        }
        prop_assert_eq!(bulk.len(), model.len());
        prop_assert_eq!(bulk.into_sorted_vec(), model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn add_batch_matches_add_loop(
        batches in prop::collection::vec(batch(), 1..4),
        singles in prop::collection::vec(single(), 0..200),
    ) {
        let mut bulk = BTreeIndex::new();
        let mut looped = BTreeIndex::new();
        for (at, batch) in batches.into_iter().enumerate() {
            let want: Vec<usize> = (0..)
                .zip(&batch)
                .filter(|(_, (v, r))| looped.add(v.clone(), *r))
                .map(|(i, _)| i)
                .collect();
            let mut got = Vec::new();
            let added = bulk.add_batch(batch, |i| got.push(i));
            got.sort_unstable();
            prop_assert_eq!(added, want.len(), "added by batch {}", at);
            prop_assert_eq!(got, want, "positions reported by batch {}", at);
            prop_assert_eq!(bulk.len(), looped.len(), "len after batch {}", at);
            prop_assert_eq!(bulk.footprint(), looped.footprint(), "bytes after batch {}", at);
            prop_assert_eq!(entries(&bulk), entries(&looped), "entries after batch {}", at);
            bulk.check_invariants();
        }
        for (step, op) in singles.into_iter().enumerate() {
            match op {
                Single::Add(v, r) => {
                    prop_assert_eq!(bulk.add(v.clone(), r), looped.add(v, r), "add at {}", step);
                }
                Single::Remove(v, r) => {
                    prop_assert_eq!(bulk.remove(&v, r), looped.remove(&v, r), "remove at {}", step);
                }
            }
            bulk.check_invariants();
        }
        prop_assert_eq!(bulk.footprint(), looped.footprint());
        prop_assert_eq!(entries(&bulk), entries(&looped));
    }
}
