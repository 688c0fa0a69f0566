//! One Index Buffer: the scratch-pad index complementing one partial index
//! (paper §III–IV).
//!
//! The buffer holds `(value, rid)` entries for tuples **not** covered by the
//! partial index, grouped into [`Partition`]s of up to `P` pages each. Pages
//! become *buffered* when an indexing scan completes them (their `C[p]`
//! drops to 0); they stop being buffered when their partition is dropped by
//! the Index Buffer Space manager.

use std::collections::HashMap;

use aib_index::PackedEntries;
use aib_storage::{MemoryUsage, Rid, Value};

use crate::config::BufferConfig;
use crate::history::LruKHistory;
use crate::partition::{Partition, PartitionId};

/// Identifier of an Index Buffer within the Index Buffer Space.
pub type BufferId = usize;

/// Pages and restore counts returned by a partition drop. The caller must
/// restore `C[p]` for every listed page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DroppedPartition {
    /// Which partition was dropped.
    pub partition: PartitionId,
    /// `(page, restore_count)` for every page the partition covered.
    pub pages: Vec<(u32, u32)>,
    /// Entries freed.
    pub entries_freed: usize,
    /// Bytes returned to the memory budget — exactly the partition's
    /// [`MemoryUsage::footprint`] at drop time.
    pub bytes_freed: usize,
}

/// A scratch-pad index for one column's partial index.
///
/// ```
/// use aib_core::{BufferConfig, IndexBuffer};
/// use aib_storage::{Rid, Value};
///
/// let mut buffer = IndexBuffer::new(0, "A", BufferConfig::default());
/// // An indexing scan completes page 3 (its two uncovered tuples enter):
/// buffer.index_page(3, vec![
///     (Value::Int(700), Rid::new(3, 0)),
///     (Value::Int(900), Rid::new(3, 4)),
/// ]);
/// assert!(buffer.is_buffered(3));
/// assert_eq!(buffer.scan_point(&Value::Int(900)), vec![Rid::new(3, 4)]);
///
/// // Displacement drops whole partitions, reporting counter restores:
/// let pid = buffer.partition_ids().next().unwrap();
/// let dropped = buffer.drop_partition(pid).unwrap();
/// assert_eq!(dropped.pages, vec![(3, 2)]);
/// assert!(!buffer.is_buffered(3));
/// ```
pub struct IndexBuffer {
    id: BufferId,
    name: String,
    config: BufferConfig,
    partitions: HashMap<PartitionId, Partition>,
    /// Which partition covers each buffered page.
    page_to_partition: HashMap<u32, PartitionId>,
    /// The partition currently being filled (`X_p < P`), if any.
    open_partition: Option<PartitionId>,
    next_partition_id: PartitionId,
    history: LruKHistory,
    total_entries: usize,
}

impl IndexBuffer {
    /// Creates an empty Index Buffer.
    pub fn new(id: BufferId, name: impl Into<String>, config: BufferConfig) -> Self {
        config.validate();
        IndexBuffer {
            id,
            name: name.into(),
            config,
            partitions: HashMap::new(),
            page_to_partition: HashMap::new(),
            open_partition: None,
            next_partition_id: 0,
            history: LruKHistory::new(config.history_k),
            total_entries: 0,
        }
    }

    /// Buffer id within the Index Buffer Space.
    pub fn id(&self) -> BufferId {
        self.id
    }

    /// Human-readable name (usually the column).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configuration this buffer was built with.
    pub fn config(&self) -> &BufferConfig {
        &self.config
    }

    /// The LRU-K history (Table II operations are applied by the space
    /// manager).
    pub fn history(&self) -> &LruKHistory {
        &self.history
    }

    /// Mutable history access for the space manager.
    pub(crate) fn history_mut(&mut self) -> &mut LruKHistory {
        &mut self.history
    }

    /// Total entries across all partitions.
    pub fn num_entries(&self) -> usize {
        self.total_entries
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Number of buffered (completed) pages.
    pub fn num_buffered_pages(&self) -> usize {
        self.page_to_partition.len()
    }

    /// Whether `page` is buffered — the paper's `p ∈ B` test (Table I).
    #[inline]
    pub fn is_buffered(&self, page: u32) -> bool {
        self.page_to_partition.contains_key(&page)
    }

    /// `T_B⁻¹` — the use-frequency factor of the benefit model.
    pub fn use_frequency(&self) -> f64 {
        self.history.use_frequency()
    }

    /// Benefit of one partition: `b_p = X_p · T_B⁻¹` (paper §IV).
    pub fn partition_benefit(&self, partition: PartitionId) -> f64 {
        let freq = self.use_frequency();
        self.partitions
            .get(&partition)
            .map_or(0.0, |p| p.pages_covered() as f64 * freq)
    }

    /// Benefit of the whole buffer: `b_B = Σ_p b_p`.
    pub fn benefit(&self) -> f64 {
        let freq = self.use_frequency();
        self.partitions
            .values()
            .map(|p| p.pages_covered() as f64 * freq)
            .sum()
    }

    /// Scans the buffer for tuples matching `value` (Algorithm 1 lines
    /// 8–10, point-query case).
    pub fn scan_point(&self, value: &Value) -> Vec<Rid> {
        let mut rids: Vec<Rid> = self
            .partitions
            .values()
            .flat_map(|p| p.lookup(value))
            .collect();
        rids.sort_unstable();
        rids
    }

    /// Scans the buffer for tuples in `[lo, hi]` (range-query extension).
    pub fn scan_range(&self, lo: &Value, hi: &Value) -> Vec<Rid> {
        let mut rids: Vec<Rid> = self
            .partitions
            .values()
            .flat_map(|p| p.lookup_range(lo, hi))
            .collect();
        rids.sort_unstable();
        rids
    }

    /// True if the exact entry exists in some partition.
    pub fn contains(&self, value: &Value, rid: Rid) -> bool {
        self.partitions.values().any(|p| p.contains(value, rid))
    }

    /// Indexes a freshly scanned page: stores its uncovered tuples and marks
    /// it buffered (Algorithm 1 lines 15–17; the caller sets `C[p] ← 0`).
    /// The one-page case of [`index_pages`](Self::index_pages). Returns the
    /// number of entries added.
    ///
    /// # Panics
    /// If the page is already buffered.
    pub fn index_page(&mut self, page: u32, tuples: impl IntoIterator<Item = (Value, Rid)>) -> u32 {
        let added = self.index_pages(vec![(page, tuples.into_iter().collect())]);
        u32::try_from(added).unwrap_or(u32::MAX)
    }

    /// Indexes freshly scanned pages, in the given order: fills the open
    /// partition up to `P` pages, then opens the next — the partitions
    /// page-at-a-time indexing would build — and merges each partition's
    /// share into it as one sorted batch. Returns the number of entries
    /// added.
    ///
    /// # Panics
    /// If a page is already buffered or listed twice.
    pub fn index_pages(&mut self, pages: Vec<(u32, PackedEntries)>) -> usize {
        let partition_pages = self.config.partition_pages as usize;
        let mut pages = pages.into_iter().peekable();
        let mut added = 0;
        while pages.peek().is_some() {
            let pid = self.open_partition_id();
            let Some(partition) = self.partitions.get_mut(&pid) else {
                debug_assert!(false, "open partition {pid} was just ensured");
                break;
            };
            let room = partition_pages.saturating_sub(partition.pages_covered() as usize);
            let share: Vec<_> = pages.by_ref().take(room).collect();
            for &(page, _) in &share {
                let prev = self.page_to_partition.insert(page, pid);
                assert!(prev.is_none(), "page {page} is already buffered");
            }
            let n = partition.index_pages(share);
            if partition.pages_covered() as usize >= partition_pages {
                self.open_partition = None; // partition is complete
            }
            self.total_entries += n;
            added += n;
        }
        added
    }

    /// The open (incomplete) partition's id, creating the partition if
    /// needed.
    fn open_partition_id(&mut self) -> PartitionId {
        let pid = match self.open_partition {
            Some(pid) if self.partitions.contains_key(&pid) => pid,
            _ => {
                let pid = self.next_partition_id;
                self.next_partition_id += 1;
                self.open_partition = Some(pid);
                pid
            }
        };
        self.partitions
            .entry(pid)
            .or_insert_with(|| Partition::new(pid));
        pid
    }

    /// Table I `B.Add(t_new)`: an uncovered tuple landed in buffered page
    /// `page`.
    pub fn add(&mut self, value: Value, rid: Rid, page: u32) -> bool {
        // Caller contract (Table I): p ∈ B. An unmapped page reads as "not
        // added" instead of panicking; debug builds still flag the misuse.
        let Some(partition) = self
            .page_to_partition
            .get(&page)
            .and_then(|pid| self.partitions.get_mut(pid))
        else {
            debug_assert!(false, "B.Add on unbuffered page {page}");
            return false;
        };
        let added = partition.add_entry(value, rid, page);
        if added {
            self.total_entries += 1;
        }
        added
    }

    /// Table I `B.Remove(t_old)`: an uncovered tuple left buffered page
    /// `page`.
    pub fn remove(&mut self, value: &Value, rid: Rid, page: u32) -> bool {
        // Caller contract (Table I): p ∈ B — same defensive shape as `add`.
        let Some(partition) = self
            .page_to_partition
            .get(&page)
            .and_then(|pid| self.partitions.get_mut(pid))
        else {
            debug_assert!(false, "B.Remove on unbuffered page {page}");
            return false;
        };
        let removed = partition.remove_entry(value, rid, page);
        if removed {
            self.total_entries -= 1;
        }
        removed
    }

    /// Table I `B.Update(t_old, t_new)`: an uncovered tuple changed value
    /// and/or slot, staying within buffered pages.
    pub fn update(
        &mut self,
        old_value: &Value,
        old_rid: Rid,
        old_page: u32,
        new_value: Value,
        new_rid: Rid,
        new_page: u32,
    ) {
        self.remove(old_value, old_rid, old_page);
        self.add(new_value, new_rid, new_page);
    }

    /// Drops a whole partition (paper §IV: "it always drops complete
    /// partitions"). Returns the pages whose `C[p]` the caller must restore.
    pub fn drop_partition(&mut self, partition: PartitionId) -> Option<DroppedPartition> {
        let p = self.partitions.remove(&partition)?;
        if self.open_partition == Some(partition) {
            self.open_partition = None;
        }
        let pages: Vec<(u32, u32)> = p.pages().collect();
        for &(page, _) in &pages {
            self.page_to_partition.remove(&page);
        }
        let entries_freed = p.num_entries();
        let bytes_freed = p.footprint();
        self.total_entries -= entries_freed;
        Some(DroppedPartition {
            partition,
            pages,
            entries_freed,
            bytes_freed,
        })
    }

    /// Partitions in the victim order of §IV stage 2: the incomplete
    /// partition first ("has the lowest benefit within an Index Buffer"),
    /// then complete partitions in descending entry count `n_p` ("because
    /// they have the same benefit").
    pub fn partitions_in_victim_order(&self) -> Vec<PartitionId> {
        let mut complete: Vec<(usize, PartitionId)> = self
            .partitions
            .values()
            .filter(|p| Some(p.id()) != self.open_partition)
            .map(|p| (p.num_entries(), p.id()))
            .collect();
        complete.sort_by(|a, b| b.cmp(a));
        let mut order: Vec<PartitionId> = Vec::with_capacity(self.partitions.len());
        if let Some(open) = self.open_partition {
            order.push(open);
        }
        order.extend(complete.into_iter().map(|(_, id)| id));
        order
    }

    /// Looks up a partition (diagnostics and the space manager).
    pub fn partition(&self, id: PartitionId) -> Option<&Partition> {
        self.partitions.get(&id)
    }

    /// All partition ids.
    pub fn partition_ids(&self) -> impl Iterator<Item = PartitionId> + '_ {
        self.partitions.keys().copied()
    }

    /// Internal consistency check (tests): per-partition entry totals and
    /// page mappings agree with the global bookkeeping.
    pub fn check_invariants(&self) {
        let entries: usize = self.partitions.values().map(Partition::num_entries).sum();
        assert_eq!(entries, self.total_entries, "entry total");
        let pages: usize = self
            .partitions
            .values()
            .map(|p| p.pages_covered() as usize)
            .sum();
        assert_eq!(pages, self.page_to_partition.len(), "page total");
        for (&page, &pid) in &self.page_to_partition {
            assert!(
                self.partitions.get(&pid).is_some_and(|p| p.covers(page)),
                "page {page} mapped to partition {pid} that does not cover it"
            );
        }
        if let Some(open) = self.open_partition {
            assert!(
                self.partitions
                    .get(&open)
                    .is_some_and(|p| p.pages_covered() < self.config.partition_pages),
                "open partition is missing or full"
            );
        }
        for p in self.partitions.values() {
            assert!(
                p.pages_covered() <= self.config.partition_pages,
                "partition over P pages"
            );
        }
    }
}

impl MemoryUsage for IndexBuffer {
    /// Bytes resident across all partitions. Computed on demand from the
    /// partitions' own byte counters, so maintenance churn (Table I
    /// add/remove/update) is reflected without a second set of counters
    /// that could drift.
    fn footprint(&self) -> usize {
        self.partitions.values().map(Partition::footprint).sum()
    }
}

impl std::fmt::Debug for IndexBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexBuffer")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("entries", &self.total_entries)
            .field("partitions", &self.partitions.len())
            .field("buffered_pages", &self.page_to_partition.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buffer(p: u32) -> IndexBuffer {
        IndexBuffer::new(
            0,
            "col_a",
            BufferConfig {
                partition_pages: p,
                history_k: 2,
            },
        )
    }

    fn v(i: i64) -> Value {
        Value::Int(i)
    }

    #[test]
    fn index_pages_fill_partitions_of_p_pages() {
        let mut b = buffer(2);
        b.index_page(0, vec![(v(1), Rid::new(0, 0))]);
        b.index_page(7, vec![(v(2), Rid::new(7, 0))]); // Fig. 5: groups are not contiguous
        b.index_page(3, vec![(v(3), Rid::new(3, 0))]);
        assert_eq!(
            b.num_partitions(),
            2,
            "P=2: pages 0,7 complete partition 0; page 3 opens 1"
        );
        assert_eq!(b.num_buffered_pages(), 3);
        assert_eq!(b.num_entries(), 3);
        assert!(b.is_buffered(7));
        assert!(!b.is_buffered(1));
        b.check_invariants();
    }

    #[test]
    #[should_panic(expected = "already buffered")]
    fn double_index_page_panics() {
        let mut b = buffer(10);
        b.index_page(0, vec![]);
        b.index_page(0, vec![]);
    }

    #[test]
    fn scan_point_searches_all_partitions() {
        let mut b = buffer(1); // every page its own partition
        b.index_page(0, vec![(v(5), Rid::new(0, 0))]);
        b.index_page(1, vec![(v(5), Rid::new(1, 0)), (v(6), Rid::new(1, 1))]);
        assert_eq!(b.scan_point(&v(5)), vec![Rid::new(0, 0), Rid::new(1, 0)]);
        assert_eq!(b.scan_point(&v(6)), vec![Rid::new(1, 1)]);
        assert_eq!(b.scan_point(&v(7)), vec![]);
    }

    #[test]
    fn scan_range_extension() {
        let mut b = buffer(10);
        b.index_page(0, (0..10).map(|i| (v(i), Rid::new(0, i as u16))));
        let rids = b.scan_range(&v(3), &v(5));
        assert_eq!(rids.len(), 3);
    }

    #[test]
    fn maintenance_add_remove_update() {
        let mut b = buffer(10);
        b.index_page(4, vec![(v(1), Rid::new(4, 0))]);
        assert!(b.add(v(2), Rid::new(4, 1), 4));
        assert_eq!(b.num_entries(), 2);
        assert!(b.remove(&v(1), Rid::new(4, 0), 4));
        assert_eq!(b.num_entries(), 1);
        b.index_page(9, vec![]);
        b.update(&v(2), Rid::new(4, 1), 4, v(3), Rid::new(9, 0), 9);
        assert!(b.contains(&v(3), Rid::new(9, 0)));
        assert!(!b.contains(&v(2), Rid::new(4, 1)));
        b.check_invariants();
    }

    #[test]
    fn drop_partition_returns_restore_counts() {
        let mut b = buffer(2);
        b.index_page(0, vec![(v(1), Rid::new(0, 0)), (v(2), Rid::new(0, 1))]);
        b.index_page(5, vec![(v(3), Rid::new(5, 0))]);
        let pid = *b.page_to_partition.get(&0).unwrap();
        let before = b.footprint();
        let dropped = b.drop_partition(pid).unwrap();
        assert_eq!(dropped.entries_freed, 3);
        assert_eq!(
            dropped.bytes_freed,
            3 * aib_storage::DEFAULT_ENTRY_FOOTPRINT,
            "INTEGER entries cost exactly the default footprint"
        );
        assert_eq!(before - b.footprint(), dropped.bytes_freed);
        assert_eq!(b.footprint(), 0);
        let mut pages = dropped.pages.clone();
        pages.sort_unstable();
        assert_eq!(pages, vec![(0, 2), (5, 1)]);
        assert_eq!(b.num_entries(), 0);
        assert!(!b.is_buffered(0));
        assert!(!b.is_buffered(5));
        assert_eq!(b.drop_partition(pid), None, "second drop is a no-op");
        b.check_invariants();
    }

    #[test]
    fn drop_reflects_maintenance_changes() {
        let mut b = buffer(2);
        b.index_page(0, vec![(v(1), Rid::new(0, 0))]);
        b.add(v(2), Rid::new(0, 1), 0); // tuple inserted after indexing
        b.index_page(1, vec![(v(9), Rid::new(1, 0))]);
        b.remove(&v(9), Rid::new(1, 0), 1); // tuple deleted after indexing
        let pid = *b.page_to_partition.get(&0).unwrap();
        let dropped = b.drop_partition(pid).unwrap();
        let mut pages = dropped.pages.clone();
        pages.sort_unstable();
        assert_eq!(
            pages,
            vec![(0, 2), (1, 0)],
            "restore counts follow live uncovered tuples, not the original snapshot"
        );
    }

    #[test]
    fn victim_order_incomplete_first_then_by_size_desc() {
        let mut b = buffer(2);
        // Partition 0: pages 0,1 (complete, 3 entries).
        b.index_page(0, vec![(v(1), Rid::new(0, 0)), (v(2), Rid::new(0, 1))]);
        b.index_page(1, vec![(v(3), Rid::new(1, 0))]);
        // Partition 1: pages 2,3 (complete, 5 entries).
        b.index_page(2, (0..3).map(|i| (v(10 + i), Rid::new(2, i as u16))));
        b.index_page(3, (0..2).map(|i| (v(20 + i), Rid::new(3, i as u16))));
        // Partition 2: page 4 (incomplete, 10 entries).
        b.index_page(4, (0..10).map(|i| (v(30 + i), Rid::new(4, i as u16))));
        let order = b.partitions_in_victim_order();
        assert_eq!(order.len(), 3);
        assert_eq!(
            order[0], 2,
            "incomplete partition first despite being largest"
        );
        assert_eq!(order[1], 1, "then complete partitions by descending n_p");
        assert_eq!(order[2], 0);
    }

    #[test]
    fn benefit_scales_with_pages_and_frequency() {
        let mut b = buffer(10);
        assert_eq!(b.benefit(), 0.0, "unused buffer has zero benefit");
        b.index_page(0, vec![(v(1), Rid::new(0, 0))]);
        b.index_page(1, vec![(v(2), Rid::new(1, 0))]);
        assert_eq!(b.benefit(), 0.0, "still zero: history unused");
        b.history_mut().record_use();
        let benefit_hot = b.benefit();
        assert!(
            (benefit_hot - 2.0).abs() < 1e-9,
            "2 pages * T=1: {benefit_hot}"
        );
        // Age the buffer: benefit decays.
        for _ in 0..10 {
            b.history_mut().tick();
        }
        assert!(b.benefit() < benefit_hot);
    }

    #[test]
    fn dropping_open_partition_reopens_cleanly() {
        let mut b = buffer(5);
        b.index_page(0, vec![(v(1), Rid::new(0, 0))]);
        let open = b.open_partition.unwrap();
        b.drop_partition(open).unwrap();
        assert_eq!(b.num_partitions(), 0);
        // New indexing starts a fresh partition.
        b.index_page(1, vec![(v(2), Rid::new(1, 0))]);
        assert_eq!(b.num_partitions(), 1);
        b.check_invariants();
    }
}
