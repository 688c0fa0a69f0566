//! The entry store shared by partial indexes and Index Buffer partitions:
//! a multi-map from column values to record ids on the standard library's
//! B-tree, `std::collections::BTreeSet`.
//!
//! Paper §III: "The Index Buffer builds on a normal B\*-Tree. [...] Which
//! particular index structure is used is not essential for the general
//! idea." One structure is therefore all this crate carries, and not a
//! hand-rolled one; the hash, disk-resident and from-scratch B+-tree
//! alternatives were measured and deleted (DESIGN.md §6).

use std::collections::BTreeSet;

use aib_storage::{entry_footprint, MemoryUsage, Rid, Value};

use crate::key::EntryKey;

/// A multi-map from column values to record ids, ordered by `(value, rid)`.
///
/// Reports a byte-accurate [`MemoryUsage::footprint`] —
/// [`entry_footprint`] bytes per entry — so the memory governor can charge
/// resident entries against the shared budget. `Send + Sync`: the engine
/// shares tables (and therefore their partial indexes) across client
/// threads behind a catalog `RwLock`, and concurrent read queries probe
/// indexes through `&self`.
#[derive(Debug, Default)]
pub struct BTreeIndex {
    entries: BTreeSet<EntryKey>,
    bytes: usize,
}

impl BTreeIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an entry. Returns `false` if it was already present.
    pub fn add(&mut self, value: Value, rid: Rid) -> bool {
        let bytes = entry_footprint(&value);
        let inserted = self.entries.insert(EntryKey::new(value, rid));
        if inserted {
            self.bytes += bytes;
        }
        inserted
    }

    /// Adds a batch of entries in one sorted merge instead of one descent
    /// each: sorts the batch by `(value, rid)`, drops repeats and entries
    /// already present (one walk of the resident entries), and hands the
    /// new ones to [`BTreeSet::append`], which merges the two sorted runs
    /// into one bulk build — or, into an empty index, just takes them. Same
    /// entries, same [`MemoryUsage::footprint`] as calling
    /// [`add`](Self::add) per entry in batch order. Calls `on_added(i)` for
    /// each position `i` of `entries` whose entry was added — of repeats,
    /// the earliest — and returns how many were.
    ///
    /// There is no small-batch fallback to per-entry inserts: the merge
    /// moves every resident entry, about 23 ns each against an insert's
    /// 150 or more, and the callers' batches are a whole heap's covered
    /// tuples or a selection of up to `I^MAX` pages merged into a partition
    /// of at most `P` pages (DESIGN.md, "Index Buffer partitions").
    pub fn add_batch(
        &mut self,
        mut entries: Vec<(Value, Rid)>,
        mut on_added: impl FnMut(usize),
    ) -> usize {
        if entries.is_empty() {
            return 0;
        }
        // Every comparison below leads with the entries' `sort_prefix`: one
        // integer compare decides it unless the prefixes tie. The sort
        // itself uses a 64-bit window of the prefixes, ending at the highest
        // bit that differs within the batch — the bits above it are the
        // same in every prefix — so it moves 16-byte elements.
        let (any, all) = entries.iter().fold((0, !0), |(any, all), (value, rid)| {
            let prefix = sort_prefix(value, *rid);
            (any | prefix, all & prefix)
        });
        let shift = (u128::BITS - (any ^ all).leading_zeros()).saturating_sub(u64::BITS);
        // Sort positions by window, order each run of equal windows
        // (repeated entries; keys differing only below the window) by the
        // full key and by position, and keep the earliest of each repeat.
        let mut batch: Vec<(u64, usize)> = (0..)
            .zip(&entries)
            .map(|(i, (value, rid))| ((sort_prefix(value, *rid) >> shift) as u64, i))
            .collect();
        batch.sort_unstable_by_key(|&(window, _)| window);
        for run in batch.chunk_by_mut(|a, b| a.0 == b.0) {
            if run.len() > 1 {
                run.sort_unstable_by(|a, b| {
                    entries.get(a.1).cmp(&entries.get(b.1)).then(a.1.cmp(&b.1))
                });
            }
        }
        batch.dedup_by(|later, first| {
            later.0 == first.0 && entries.get(later.1) == entries.get(first.1)
        });

        let mut resident = self
            .entries
            .iter()
            .map(|key| (sort_prefix(&key.value, key.rid), key))
            .peekable();
        let mut fresh = Vec::with_capacity(batch.len());
        for (_, i) in batch {
            let Some((value, rid)) = entries.get_mut(i) else {
                continue;
            };
            let new = (sort_prefix(value, *rid), &*value, *rid);
            while resident
                .next_if(|(p, old)| (*p, &old.value, old.rid) < new)
                .is_some()
            {}
            if resident
                .peek()
                .is_some_and(|(p, old)| (*p, &old.value, old.rid) == new)
            {
                continue;
            }
            self.bytes += entry_footprint(value);
            on_added(i);
            fresh.push(EntryKey::new(std::mem::replace(value, Value::Null), *rid));
        }
        let added = fresh.len();
        self.entries.append(&mut BTreeSet::from_iter(fresh));
        added
    }

    /// Removes an entry. Returns `false` if it was not present.
    pub fn remove(&mut self, value: &Value, rid: Rid) -> bool {
        let removed = self.entries.remove(&EntryKey::new(value.clone(), rid));
        if removed {
            self.bytes -= entry_footprint(value);
        }
        removed
    }

    /// True if the exact entry exists.
    pub fn contains(&self, value: &Value, rid: Rid) -> bool {
        self.entries.contains(&EntryKey::new(value.clone(), rid))
    }

    /// All rids recorded for `value`, in rid order.
    pub fn lookup(&self, value: &Value) -> Vec<Rid> {
        self.lookup_range(value, value)
    }

    /// Rids for all values in `[lo, hi]`, in (value, rid) order; none when
    /// `lo > hi` (a reversed `Between`).
    pub fn lookup_range(&self, lo: &Value, hi: &Value) -> Vec<Rid> {
        if lo > hi {
            return Vec::new();
        }
        let lo = EntryKey::min_for(lo.clone());
        let hi = EntryKey::max_for(hi.clone());
        self.entries.range(lo..=hi).map(|k| k.rid).collect()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Visits every entry in (value, rid) order.
    pub fn for_each(&self, mut f: impl FnMut(&Value, Rid)) {
        for k in &self.entries {
            f(&k.value, k.rid);
        }
    }

    /// Checks that the byte count equals the entries' footprints (tests).
    ///
    /// # Panics
    /// If it does not.
    pub fn check_invariants(&self) {
        let bytes: usize = self.entries.iter().map(|k| entry_footprint(&k.value)).sum();
        assert_eq!(bytes, self.bytes, "byte count matches the entries");
    }
}

impl MemoryUsage for BTreeIndex {
    fn footprint(&self) -> usize {
        self.bytes
    }
}

/// A 128-bit sort key whose order agrees with `(value, rid)` order: a
/// smaller prefix means a smaller entry. NULL and INTEGER entries pack
/// whole (variant, order-preserving value bits, page, slot), so equal
/// prefixes mean equal entries; a string packs its first eight bytes only,
/// so equal prefixes must be compared in full.
fn sort_prefix(value: &Value, rid: Rid) -> u128 {
    const INT: u128 = 1 << 126;
    const STR: u128 = 2 << 126;
    let rid = u128::from(rid.page.0) << 16 | u128::from(rid.slot.0);
    match value {
        Value::Null => rid,
        Value::Int(v) => INT | u128::from((*v as u64) ^ (1 << 63)) << 48 | rid,
        Value::Str(s) => {
            let mut head = [0u8; 8];
            for (to, from) in head.iter_mut().zip(s.as_bytes()) {
                *to = *from;
            }
            STR | u128::from(u64::from_be_bytes(head)) << 48
        }
    }
}

/// The structure behind a partial index. One variant: every index is a
/// [`BTreeIndex`]. The enum survives only as the argument the frozen
/// benchmark (`e2e/`) still passes to `PartialIndex::new` and
/// `Database::create_partial_index`; ROADMAP item 6's benchmark PR drops
/// the argument and this type with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexBackend {
    /// B+-tree (the paper's structure).
    #[default]
    BTree,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_lookup_remove() {
        let mut ix = BTreeIndex::new();
        let v = Value::Int(5);
        assert!(ix.add(v.clone(), Rid::new(1, 1)));
        assert!(ix.add(v.clone(), Rid::new(1, 2)));
        assert!(ix.add(v.clone(), Rid::new(0, 9)));
        assert!(!ix.add(v.clone(), Rid::new(1, 1)), "duplicate rejected");
        assert_eq!(ix.len(), 3);
        assert_eq!(
            ix.lookup(&v),
            vec![Rid::new(0, 9), Rid::new(1, 1), Rid::new(1, 2)],
            "rid order"
        );
        assert!(ix.contains(&v, Rid::new(1, 2)));
        assert!(!ix.contains(&v, Rid::new(9, 9)));
        assert!(ix.remove(&v, Rid::new(1, 1)));
        assert!(!ix.remove(&v, Rid::new(1, 1)));
        assert_eq!(ix.len(), 2);
        assert_eq!(ix.lookup(&Value::Int(6)), vec![]);
    }

    #[test]
    fn duplicate_values_isolated_per_value() {
        let mut ix = BTreeIndex::new();
        ix.add(Value::Int(1), Rid::new(0, 0));
        ix.add(Value::Int(2), Rid::new(0, 1));
        assert_eq!(ix.lookup(&Value::Int(1)).len(), 1);
        assert_eq!(ix.lookup(&Value::Int(2)).len(), 1);
    }

    #[test]
    fn range_lookup_btree_only() {
        let mut ix = BTreeIndex::new();
        for i in 0..10 {
            ix.add(Value::Int(i), Rid::new(i as u32, 0));
        }
        let rids = ix.lookup_range(&Value::Int(3), &Value::Int(6));
        assert_eq!(rids, (3..=6).map(|i| Rid::new(i, 0)).collect::<Vec<_>>());
        assert_eq!(
            ix.lookup_range(&Value::Int(6), &Value::Int(3)),
            vec![],
            "reversed"
        );
    }

    #[test]
    fn for_each_visits_every_entry_in_order() {
        let mut ix = BTreeIndex::new();
        for i in 0..20 {
            ix.add(Value::Int(i % 5), Rid::new(i as u32, 0));
        }
        let mut seen = Vec::new();
        ix.for_each(|v, rid| seen.push((v.clone(), rid)));
        assert_eq!(seen.len(), 20);
        assert!(seen.is_sorted(), "(value, rid) order");
    }

    #[test]
    fn footprint_tracks_entry_bytes_exactly() {
        let mut ix = BTreeIndex::new();
        assert_eq!(ix.footprint(), 0);
        ix.add(Value::Int(7), Rid::new(0, 0));
        ix.add(Value::Int(7), Rid::new(0, 1));
        ix.add(Value::from("ORD"), Rid::new(1, 0));
        assert!(!ix.add(Value::Int(7), Rid::new(0, 0)), "duplicate free");
        let int_bytes = entry_footprint(&Value::Int(7));
        let str_bytes = entry_footprint(&Value::from("ORD"));
        assert_eq!(ix.footprint(), 2 * int_bytes + str_bytes);
        ix.remove(&Value::Int(7), Rid::new(0, 1));
        assert_eq!(ix.footprint(), int_bytes + str_bytes);
        ix.remove(&Value::Int(7), Rid::new(0, 0));
        ix.remove(&Value::from("ORD"), Rid::new(1, 0));
        assert_eq!(ix.footprint(), 0);
    }
}
