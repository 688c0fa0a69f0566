//! Index Buffer partitions (paper §IV, Fig. 5).
//!
//! "For the precise and efficient discarding of entries from an Index
//! Buffer, we partition the B\*-Tree of an Index Buffer. Each partition
//! covers P pages of the table, so that the partitions are disjunct in the
//! sets of pages they reference."
//!
//! Partitions group pages *in indexing order* (Fig. 5 shows Partition 1
//! covering pages 1 and 7 — groups are not contiguous page ranges). Each
//! Index Buffer has at most one *incomplete* partition (`X_p < P`): the one
//! currently being filled. Displacement always drops whole partitions; the
//! per-page entry counts recorded here are what lets the drop restore the
//! pages' `C[p]` counters exactly.

use std::collections::HashMap;

use aib_index::{BTreeIndex, PackedEntries};
use aib_storage::{MemoryUsage, Rid, Value};

/// Identifier of a partition within its Index Buffer (monotonic).
pub type PartitionId = u64;

/// One partition: a group of up to `P` buffered pages and their entries.
pub struct Partition {
    id: PartitionId,
    entries: BTreeIndex,
    /// Buffer entries per covered page — exactly the value `C[p]` must be
    /// restored to if this partition is dropped.
    per_page: HashMap<u32, u32>,
}

impl Partition {
    /// Creates an empty partition.
    pub fn new(id: PartitionId) -> Self {
        Partition {
            id,
            entries: BTreeIndex::new(),
            per_page: HashMap::new(),
        }
    }

    /// Partition id.
    pub fn id(&self) -> PartitionId {
        self.id
    }

    /// `X_p` — number of pages this partition covers.
    pub fn pages_covered(&self) -> u32 {
        self.per_page.len() as u32
    }

    /// `n_p` — number of entries in this partition.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// Whether this partition covers `page`.
    pub fn covers(&self, page: u32) -> bool {
        self.per_page.contains_key(&page)
    }

    /// Registers `page` as covered with `entry_count` freshly added entries.
    ///
    /// # Panics
    /// If the page is already covered (partitions within a buffer are
    /// disjoint; double registration is a scan bug).
    pub fn add_page(&mut self, page: u32, entry_count: u32) {
        let prev = self.per_page.insert(page, entry_count);
        assert!(
            prev.is_none(),
            "page {page} registered twice in partition {}",
            self.id
        );
    }

    /// Adds one entry for an already-covered page (Table I `B.Add`).
    pub fn add_entry(&mut self, value: Value, rid: Rid, page: u32) -> bool {
        debug_assert!(self.covers(page), "B.Add to page {page} not covered here");
        let added = self.entries.add(value, rid);
        if added {
            *self.per_page.entry(page).or_insert(0) += 1;
        }
        added
    }

    /// Removes one entry (Table I `B.Remove`).
    pub fn remove_entry(&mut self, value: &Value, rid: Rid, page: u32) -> bool {
        let removed = self.entries.remove(value, rid);
        if removed {
            if let Some(slot) = self.per_page.get_mut(&page) {
                debug_assert!(*slot > 0, "per-page count underflow on page {page}");
                *slot = slot.saturating_sub(1);
            } else {
                debug_assert!(false, "removed entry's page {page} is uncovered");
            }
        }
        removed
    }

    /// Adds the freshly indexed entries of new pages (Algorithm 1 line 16)
    /// in one sorted merge ([`BTreeIndex::merge`]) and registers each page
    /// with the number of its entries actually added, counted as if the
    /// pages were added one after another in the given order. Returns the
    /// total added.
    ///
    /// # Panics
    /// If a page is already covered (see [`add_page`](Self::add_page)).
    pub fn index_pages(&mut self, pages: Vec<(u32, PackedEntries)>) -> usize {
        let mut batch = PackedEntries::default();
        for (_, entries) in &pages {
            batch.extend_from(entries);
        }
        let before = self.entries.len();
        let mut repeats = self.entries.merge(batch);
        let added = self.entries.len() - before;
        for (page, entries) in &pages {
            let n = repeats.admitted(entries);
            self.add_page(*page, u32::try_from(n).unwrap_or(u32::MAX));
        }
        added
    }

    /// Point lookup within this partition.
    pub fn lookup(&self, value: &Value) -> Vec<Rid> {
        self.entries.lookup(value)
    }

    /// Range lookup within this partition, in (value, rid) order.
    pub fn lookup_range(&self, lo: &Value, hi: &Value) -> Vec<Rid> {
        self.entries.lookup_range(lo, hi)
    }

    /// True if the exact entry exists.
    pub fn contains(&self, value: &Value, rid: Rid) -> bool {
        self.entries.contains(value, rid)
    }

    /// The pages this partition covers with their restore counts.
    pub fn pages(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.per_page.iter().map(|(&p, &n)| (p, n))
    }

    /// Visits every entry, in (value, rid) order.
    pub fn for_each(&self, f: impl FnMut(&Value, Rid)) {
        self.entries.for_each(f);
    }
}

impl MemoryUsage for Partition {
    /// Bytes resident in this partition's entries. The per-page restore
    /// counts are deliberately *not* charged: they are bookkeeping the space
    /// manager keeps regardless of budget pressure, and excluding them keeps
    /// the paper's entry bound `L` exactly convertible to bytes for INTEGER
    /// columns.
    fn footprint(&self) -> usize {
        self.entries.footprint()
    }
}

impl std::fmt::Debug for Partition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Partition")
            .field("id", &self.id)
            .field("pages", &self.per_page.len())
            .field("entries", &self.entries.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: i64) -> Value {
        Value::Int(i)
    }

    fn staged(pages: Vec<(u32, Vec<(Value, Rid)>)>) -> Vec<(u32, PackedEntries)> {
        pages
            .into_iter()
            .map(|(page, entries)| (page, entries.into_iter().collect()))
            .collect()
    }

    #[test]
    fn index_page_records_counts() {
        let mut p = Partition::new(0);
        let n = p.index_pages(staged(vec![(
            5,
            vec![(v(1), Rid::new(5, 0)), (v(2), Rid::new(5, 1))],
        )]));
        assert_eq!(n, 2);
        assert_eq!(p.pages_covered(), 1);
        assert_eq!(p.num_entries(), 2);
        assert!(p.covers(5));
        assert!(!p.covers(6));
        assert_eq!(p.lookup(&v(1)), vec![Rid::new(5, 0)]);
    }

    #[test]
    fn repeated_entries_count_for_the_first_page_that_stages_them() {
        let mut p = Partition::new(0);
        p.index_pages(staged(vec![(1, vec![(v(7), Rid::new(1, 0))])]));
        let n = p.index_pages(staged(vec![
            (2, vec![(v(8), Rid::new(2, 0)), (v(8), Rid::new(2, 0))]),
            (
                3,
                vec![
                    (v(7), Rid::new(1, 0)),
                    (v(8), Rid::new(2, 0)),
                    (v(9), Rid::new(3, 0)),
                ],
            ),
        ]));
        assert_eq!(n, 2, "one new entry each for pages 2 and 3");
        let counts: HashMap<u32, u32> = p.pages().collect();
        assert_eq!(counts, HashMap::from([(1, 1), (2, 1), (3, 1)]));
        assert_eq!(p.num_entries(), 3);
    }

    #[test]
    fn maintenance_entry_ops_track_per_page() {
        let mut p = Partition::new(0);
        p.index_pages(staged(vec![(3, vec![(v(10), Rid::new(3, 0))])]));
        assert!(p.add_entry(v(11), Rid::new(3, 1), 3));
        assert!(!p.add_entry(v(11), Rid::new(3, 1), 3), "duplicate");
        let counts: HashMap<u32, u32> = p.pages().collect();
        assert_eq!(counts[&3], 2);
        assert!(p.remove_entry(&v(10), Rid::new(3, 0), 3));
        assert!(!p.remove_entry(&v(10), Rid::new(3, 0), 3));
        let counts: HashMap<u32, u32> = p.pages().collect();
        assert_eq!(counts[&3], 1, "restore count follows entries");
    }

    #[test]
    fn open_partition_takes_single_entry_ops_between_batches() {
        let mut p = Partition::new(0);
        p.index_pages(staged(vec![(
            1,
            vec![(v(5), Rid::new(1, 0)), (v(3), Rid::new(1, 1))],
        )]));
        assert!(p.add_entry(v(4), Rid::new(1, 2), 1), "B.Add while open");
        p.index_pages(staged(vec![(
            2,
            vec![(v(4), Rid::new(2, 0)), (v(4), Rid::new(1, 2))],
        )]));
        let counts: HashMap<u32, u32> = p.pages().collect();
        assert_eq!(counts, HashMap::from([(1, 3), (2, 1)]), "resident entry");
        assert_eq!(p.lookup(&v(4)), vec![Rid::new(1, 2), Rid::new(2, 0)]);
        assert!(p.remove_entry(&v(3), Rid::new(1, 1), 1));
        let mut seen = Vec::new();
        p.for_each(|value, rid| seen.push((value.clone(), rid)));
        assert_eq!(
            seen,
            vec![
                (v(4), Rid::new(1, 2)),
                (v(4), Rid::new(2, 0)),
                (v(5), Rid::new(1, 0))
            ]
        );
        assert_eq!(p.footprint(), 3 * aib_storage::DEFAULT_ENTRY_FOOTPRINT);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_page_registration_panics() {
        let mut p = Partition::new(0);
        p.add_page(1, 1);
        p.add_page(1, 1);
    }

    #[test]
    fn empty_page_can_be_covered() {
        // A page whose uncovered tuples were all deleted still counts as
        // covered with restore count 0: it stays skippable even after the
        // partition drops.
        let mut p = Partition::new(0);
        p.index_pages(staged(vec![(9, Vec::new())]));
        assert!(p.covers(9));
        assert_eq!(p.pages_covered(), 1);
        assert_eq!(p.num_entries(), 0);
    }

    #[test]
    fn range_lookup_via_btree_backend() {
        let mut p = Partition::new(0);
        p.index_pages(staged(vec![(
            1,
            (0..10).map(|i| (v(i), Rid::new(1, i as u16))).collect(),
        )]));
        let rids = p.lookup_range(&v(2), &v(4));
        assert_eq!(rids.len(), 3);
    }
}
