//! The entry store shared by partial indexes and closed Index Buffer
//! partitions: a multi-map from column values to record ids on the
//! standard library's B-tree, `std::collections::BTreeSet`.
//!
//! Paper §III: "The Index Buffer builds on a normal B\*-Tree. [...] Which
//! particular index structure is used is not essential for the general
//! idea." One structure is therefore all this crate carries, and not a
//! hand-rolled one; the hash, disk-resident and from-scratch B+-tree
//! alternatives were measured and deleted (DESIGN.md §6).

use std::collections::BTreeSet;

use aib_storage::{entry_footprint, ColumnView, MemoryUsage, Rid, Value};

use crate::key::{
    footprint, key, merge_sorted, sort_fixed, unpack, Key, PackedEntries, Repeats, Span, StrEntry,
};

/// A multi-map from column values to record ids, ordered by `(value, rid)`,
/// holding its entries in the packed form ([`crate::key`]): NULL and
/// INTEGER entries as one `u128` each, string entries beside them.
///
/// Reports a byte-accurate [`MemoryUsage::footprint`] —
/// [`entry_footprint`] bytes per entry — so the memory governor can charge
/// resident entries against the shared budget. `Send + Sync`: the engine
/// shares tables (and therefore their partial indexes) across client
/// threads behind a catalog `RwLock`, and concurrent read queries probe
/// indexes through `&self`.
#[derive(Debug, Default)]
pub struct BTreeIndex {
    fixed: BTreeSet<u128>,
    strs: BTreeSet<StrEntry>,
    bytes: usize,
}

impl BTreeIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an entry. Returns `false` if it was already present.
    pub fn add(&mut self, value: Value, rid: Rid) -> bool {
        let inserted = match key(value.view(), rid) {
            Key::Fixed(k) => self.fixed.insert(k),
            Key::Str(s, rid) => self.strs.insert(StrEntry::new(s.to_owned(), rid)),
        };
        if inserted {
            self.bytes += entry_footprint(&value);
        }
        inserted
    }

    /// Merges a packed batch (any order, repeats allowed) into the index:
    /// the batch is sorted once (a radix sort for NULL and INTEGER keys),
    /// one linear walk merges it with the resident entries, and each set is
    /// built again from the result in one pass. Returns the batch entries
    /// not added where they first occurred, so a caller that knows where the
    /// batch came from can tell which of its entries were
    /// ([`Repeats::admit`]).
    pub fn merge(&mut self, batch: PackedEntries) -> Repeats {
        let PackedEntries {
            mut fixed,
            mut strs,
        } = batch;
        sort_fixed(&mut fixed);
        strs.sort_unstable();
        let mut repeats = Repeats::default();
        let mut bytes = 0;
        self.fixed = merge_sorted(
            std::mem::take(&mut self.fixed),
            fixed,
            &mut repeats.fixed,
            |&k| bytes += footprint(unpack(k).0),
        );
        self.strs = merge_sorted(
            std::mem::take(&mut self.strs),
            strs,
            &mut repeats.strs,
            |e| bytes += footprint(ColumnView::Str(&e.value)),
        );
        self.bytes += bytes;
        repeats
    }

    /// Removes an entry. Returns `false` if it was not present.
    pub fn remove(&mut self, value: &Value, rid: Rid) -> bool {
        let removed = match key(value.view(), rid) {
            Key::Fixed(k) => self.fixed.remove(&k),
            Key::Str(s, rid) => self.strs.remove(&StrEntry::new(s.to_owned(), rid)),
        };
        if removed {
            self.bytes -= entry_footprint(value);
        }
        removed
    }

    /// True if the exact entry exists.
    pub fn contains(&self, value: &Value, rid: Rid) -> bool {
        match key(value.view(), rid) {
            Key::Fixed(k) => self.fixed.contains(&k),
            Key::Str(s, rid) => self.strs.contains(&StrEntry::new(s.to_owned(), rid)),
        }
    }

    /// All rids recorded for `value`, in rid order.
    pub fn lookup(&self, value: &Value) -> Vec<Rid> {
        self.lookup_range(value, value)
    }

    /// Rids for all values in `[lo, hi]`, in (value, rid) order; none when
    /// `lo > hi` (a reversed `Between`).
    pub fn lookup_range(&self, lo: &Value, hi: &Value) -> Vec<Rid> {
        if self.is_empty() {
            return Vec::new();
        }
        let Some(Span { fixed, strs }) = Span::of(lo, hi) else {
            return Vec::new();
        };
        let mut rids: Vec<Rid> = fixed
            .map(|b| self.fixed.range(b).map(|&k| unpack(k).1).collect())
            .unwrap_or_default();
        if let Some(b) = strs {
            rids.extend(self.strs.range(b).map(|e| e.rid));
        }
        rids
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.fixed.len() + self.strs.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits every entry in (value, rid) order.
    pub fn for_each(&self, mut f: impl FnMut(&Value, Rid)) {
        for (value, rid) in self.iter() {
            f(&value.to_value(), rid);
        }
    }

    /// The entries in (value, rid) order, borrowed.
    fn iter(&self) -> impl Iterator<Item = (ColumnView<'_>, Rid)> + '_ {
        let fixed = self.fixed.iter().map(|&k| unpack(k));
        let strs = self.strs.iter().map(|e| (ColumnView::Str(&e.value), e.rid));
        fixed.chain(strs)
    }

    /// Checks that the byte count equals the entries' footprints (tests).
    ///
    /// # Panics
    /// If it does not.
    pub fn check_invariants(&self) {
        let bytes: usize = self.iter().map(|(value, _)| footprint(value)).sum();
        assert_eq!(bytes, self.bytes, "byte count matches the entries");
    }
}

impl MemoryUsage for BTreeIndex {
    fn footprint(&self) -> usize {
        self.bytes
    }
}

/// The structure behind a partial index. One variant: every index is a
/// [`BTreeIndex`]. The enum survives only as the argument the frozen
/// benchmark (`e2e/`) still passes to `PartialIndex::new` and
/// `Database::create_partial_index`; ROADMAP item 1's benchmark PR drops
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
