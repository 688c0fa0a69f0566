//! The bulk path production runs — one `BTreeIndex::merge` per batch, then
//! `Repeats::admitted` per group in batch order, as `Partition::index_pages`
//! enters a sweep's pages (`PartialIndex::add_batch` is the merge alone) —
//! against one-by-one insertion: same entries in the same order, same
//! positions admitted, same length and byte footprint; and a bulk-built
//! index must stay so under the single-entry adds and removes that follow
//! it (Table I maintenance).

use aib_index::{BTreeIndex, PackedEntries};
use aib_storage::{MemoryUsage, Rid, Value};
use proptest::prelude::*;

/// Batch sizes: empty, one entry, more entries than there are distinct
/// pairs (so most repeat), or arbitrary.
fn size_for(pick: usize, arbitrary: usize) -> usize {
    match pick {
        0 => 0,
        1 => 1,
        2 => 4097,
        _ => arbitrary,
    }
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (0i64..12).prop_map(Value::Int),
        1 => (0usize..4).prop_map(|n| Value::from("k".repeat(n))),
    ]
}

/// 1 920 distinct `(value, rid)` pairs: few enough that batches repeat
/// entries and overlap.
fn entry() -> impl Strategy<Value = (Value, Rid)> {
    (value(), 0u32..30, 0u16..4).prop_map(|(v, page, slot)| (v, Rid::new(page, slot)))
}

fn batch() -> impl Strategy<Value = Vec<(Value, Rid)>> {
    (0usize..5, 0usize..300).prop_flat_map(|(pick, arbitrary)| {
        prop::collection::vec(entry(), {
            let n = size_for(pick, arbitrary);
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

/// Merges `batch` into `ix` the way a sweep enters its pages: every entry
/// a group of its own, the batch their concatenation, one merge, then
/// [`Repeats::admitted`](aib_index::Repeats::admitted) per group in batch
/// order. Returns how many entries were added and the positions admitted.
fn merge_batch(ix: &mut BTreeIndex, batch: &[(Value, Rid)]) -> (usize, Vec<usize>) {
    let groups: Vec<PackedEntries> = batch
        .iter()
        .map(|entry| std::iter::once(entry.clone()).collect())
        .collect();
    let mut packed = PackedEntries::default();
    for group in &groups {
        packed.extend_from(group);
    }
    let before = ix.len();
    let mut repeats = ix.merge(packed);
    let added = ix.len() - before;
    let admitted = (0..)
        .zip(&groups)
        .filter(|(_, group)| repeats.admitted(group) == 1)
        .map(|(i, _)| i)
        .collect();
    (added, admitted)
}

fn entries(ix: &BTreeIndex) -> Vec<(Value, Rid)> {
    let mut out = Vec::new();
    ix.for_each(|v, r| out.push((v.clone(), r)));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
            let (added, got) = merge_batch(&mut bulk, &batch);
            prop_assert_eq!(added, want.len(), "added by batch {}", at);
            prop_assert_eq!(got, want, "positions admitted by batch {}", at);
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
