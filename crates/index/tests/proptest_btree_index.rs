//! `BTreeIndex` — the one entry store under partial indexes and Index
//! Buffer partitions — against a `BTreeSet<(Value, Rid)>` model, byte
//! accounting included.

use aib_index::BTreeIndex;
use aib_storage::{entry_footprint, MemoryUsage, Rid, Value};
use proptest::prelude::*;
use std::collections::BTreeSet;

#[derive(Debug, Clone)]
enum Op {
    Add(Value, Rid),
    Remove(Value, Rid),
    Contains(Value, Rid),
    Lookup(Value),
    Range(Value, Value),
}

/// Few distinct values (duplicates per value are the point of a multi-map)
/// of both column types, so footprints differ per entry.
fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (0i64..12).prop_map(Value::Int),
        1 => (0usize..4).prop_map(|n| Value::from("k".repeat(n))),
    ]
}

fn rid() -> impl Strategy<Value = Rid> {
    (0u32..6, 0u16..4).prop_map(|(page, slot)| Rid::new(page, slot))
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (value(), rid()).prop_map(|(v, r)| Op::Add(v, r)),
        4 => (value(), rid()).prop_map(|(v, r)| Op::Remove(v, r)),
        2 => (value(), rid()).prop_map(|(v, r)| Op::Contains(v, r)),
        2 => value().prop_map(Op::Lookup),
        // Bounds in either order: a reversed range answers nothing.
        2 => (value(), value()).prop_map(|(lo, hi)| Op::Range(lo, hi)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn btree_index_matches_set_model(ops in prop::collection::vec(op(), 1..400)) {
        let mut ix = BTreeIndex::new();
        let mut model: BTreeSet<(Value, Rid)> = BTreeSet::new();
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Add(v, r) => {
                    prop_assert_eq!(ix.add(v.clone(), r), model.insert((v, r)), "add at {}", step);
                }
                Op::Remove(v, r) => {
                    prop_assert_eq!(ix.remove(&v, r), model.remove(&(v, r)), "remove at {}", step);
                }
                Op::Contains(v, r) => {
                    prop_assert_eq!(ix.contains(&v, r), model.contains(&(v, r)), "contains at {}", step);
                }
                Op::Lookup(v) => {
                    let want: Vec<Rid> =
                        model.iter().filter(|(mv, _)| *mv == v).map(|&(_, r)| r).collect();
                    prop_assert_eq!(ix.lookup(&v), want, "lookup at {}", step);
                }
                Op::Range(lo, hi) => {
                    let want: Vec<Rid> = model
                        .iter()
                        .filter(|(mv, _)| lo <= *mv && *mv <= hi)
                        .map(|&(_, r)| r)
                        .collect();
                    prop_assert_eq!(ix.lookup_range(&lo, &hi), want, "range at {}", step);
                }
            }
            prop_assert_eq!(ix.len(), model.len(), "len at {}", step);
            prop_assert_eq!(ix.is_empty(), model.is_empty());
            let bytes: usize = model.iter().map(|(v, _)| entry_footprint(v)).sum();
            prop_assert_eq!(ix.footprint(), bytes, "footprint at {}", step);
        }
        let mut walked = Vec::new();
        ix.for_each(|v, r| walked.push((v.clone(), r)));
        prop_assert_eq!(walked, model.into_iter().collect::<Vec<_>>());
    }
}
