//! Runtime invariant shadow model — the dynamic half of `aib-lint`.
//!
//! The static lint confines *who may mutate* `C[p]`; this module checks
//! *what the mutations produced*. Everything here recomputes ground truth
//! from first principles — the heap, the coverage predicate, and the buffer
//! contents — and diffs it against the engine's incremental bookkeeping:
//!
//! * **`C[p]` exactness** (paper §III): for every page, the counter must
//!   equal the number of live tuples on that page that are neither covered
//!   by the partial index nor present in the Index Buffer. A counter that
//!   is *too low* silently loses result tuples to page skipping; one that
//!   is *too high* only costs a wasted page read — the shadow model treats
//!   both as violations because either means Table I or Algorithm 1
//!   diverged from the heap.
//! * **Partition structure** (§IV, Fig. 5): partitions of one buffer cover
//!   disjoint page sets, per-page entry tallies agree with the entry maps,
//!   and no partition exceeds the configured page capacity.
//! * **Budget agreement**: the bytes charged to
//!   [`BudgetComponent::IndexSpace`](aib_storage::BudgetComponent) equal
//!   the space's summed resident footprint (the buffer-pool side of the
//!   same check lives in `aib_storage::BufferPool::verify_budget`).
//!
//! Compiled only under the `invariant-checks` feature; every check is a
//! full rescan, priced for tests, not production.

use std::collections::HashMap;

use aib_storage::{BudgetComponent, HeapFile, MemoryUsage, StorageError, Tuple, Value};

use crate::counters::PageCounters;
use crate::index_buffer::IndexBuffer;
use crate::space::IndexBufferSpace;

/// Outcome of a shadow-model pass: empty means every invariant held.
#[derive(Debug, Default, Clone)]
pub struct InvariantReport {
    violations: Vec<String>,
}

impl InvariantReport {
    /// True when no invariant was violated.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The violations found, in discovery order.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Converts the report into a `Result`, joining violations into one
    /// message (what the engine surfaces as `EngineError::Invariant`).
    pub fn into_result(self) -> Result<(), String> {
        if self.violations.is_empty() {
            Ok(())
        } else {
            Err(self.violations.join("; "))
        }
    }

    /// Absorbs another report's violations.
    pub fn merge(&mut self, other: InvariantReport) {
        self.violations.extend(other.violations);
    }

    fn push(&mut self, msg: String) {
        self.violations.push(msg);
    }
}

impl std::fmt::Display for InvariantReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_ok() {
            write!(f, "all invariants hold")
        } else {
            write!(f, "{}", self.violations.join("; "))
        }
    }
}

/// Per-page unindexed-tuple counts recomputed from first principles.
///
/// `counts[p]` is the number of live tuples on heap page ordinal `p` whose
/// column value is neither covered by the partial index (the `covered`
/// predicate) nor held by the Index Buffer — i.e. what `C[p]` *must* be if
/// every Table I transition and every Algorithm 1 `set_zero`/`restore` was
/// applied correctly.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    counts: Vec<u32>,
}

impl GroundTruth {
    /// Recomputes the truth for one buffered column with a full heap scan.
    pub fn compute(
        heap: &HeapFile,
        column: usize,
        covered: &dyn Fn(&Value) -> bool,
        buffer: &IndexBuffer,
    ) -> Result<GroundTruth, StorageError> {
        let mut counts = vec![0u32; heap.num_pages() as usize];
        for ord in 0..heap.num_pages() {
            for (rid, bytes) in heap.read_page(ord)? {
                let value = Tuple::read_column(&bytes, column)?;
                if !covered(&value) && !buffer.contains(&value, rid) {
                    if let Some(slot) = counts.get_mut(ord as usize) {
                        *slot += 1;
                    }
                }
            }
        }
        Ok(GroundTruth { counts })
    }

    /// The recomputed per-page counts, indexed by heap page ordinal.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }
}

/// Diffs one buffer (and its counters) against recomputed ground truth and
/// checks the buffer's partition structure.
pub fn verify_buffer(
    buffer: &IndexBuffer,
    counters: &PageCounters,
    truth: &GroundTruth,
) -> InvariantReport {
    let mut report = InvariantReport::default();
    let name = buffer.name();

    // 1. C[p] must equal the recomputed count on every page. Counters may
    //    track fewer pages than the heap holds (untracked reads as 0 and is
    //    never skippable), so compare over the union of both ranges.
    let pages = truth.counts.len().max(counters.num_pages() as usize);
    for page in 0..pages as u32 {
        let expected = truth.counts.get(page as usize).copied().unwrap_or(0);
        let actual = counters.get(page);
        if expected != actual {
            report.push(format!(
                "{name}: C[{page}] = {actual}, ground truth {expected}"
            ));
        }
    }

    // 2. A buffered page is a completed page: its counter must be zero
    //    (Algorithm 1 line 17 set it; Table I keeps it there).
    for page in 0..pages as u32 {
        if buffer.is_buffered(page) && counters.get(page) != 0 {
            report.push(format!(
                "{name}: page {page} is buffered but C[{page}] = {} != 0",
                counters.get(page)
            ));
        }
    }

    // 3. The maintained skip bitset must mirror `C[p] == 0` exactly — the
    //    fast sweep trusts it to jump whole runs without reading `C`.
    if let Err(e) = counters.check_bitset() {
        report.push(format!("{name}: {e}"));
    }

    report.merge(verify_structure(buffer));
    report
}

/// Structural partition checks for one buffer (no heap access needed).
fn verify_structure(buffer: &IndexBuffer) -> InvariantReport {
    let mut report = InvariantReport::default();
    let name = buffer.name();
    let partition_pages = buffer.config().partition_pages;

    let mut owner: HashMap<u32, crate::partition::PartitionId> = HashMap::new();
    let mut total_entries = 0usize;
    let mut total_pages = 0usize;
    for pid in buffer.partition_ids() {
        let Some(part) = buffer.partition(pid) else {
            report.push(format!("{name}: partition {pid} listed but missing"));
            continue;
        };
        // Page-range capacity (Fig. 5: fixed-size partitions).
        if part.pages_covered() > partition_pages {
            report.push(format!(
                "{name}: partition {pid} covers {} pages, capacity {partition_pages}",
                part.pages_covered()
            ));
        }
        // Per-page entry tallies must sum to the partition's entry count.
        let mut tally = 0u64;
        for (page, entries) in part.pages() {
            tally += u64::from(entries);
            total_pages += 1;
            if let Some(prev) = owner.insert(page, pid) {
                report.push(format!(
                    "{name}: page {page} buffered by partitions {prev} and {pid}"
                ));
            }
            if !buffer.is_buffered(page) {
                report.push(format!(
                    "{name}: partition {pid} covers page {page} but the buffer \
                     does not report it as buffered"
                ));
            }
        }
        if tally != part.num_entries() as u64 {
            report.push(format!(
                "{name}: partition {pid} per-page tallies sum to {tally}, \
                 entry map holds {}",
                part.num_entries()
            ));
        }
        total_entries += part.num_entries();
    }
    if total_entries != buffer.num_entries() {
        report.push(format!(
            "{name}: partitions hold {total_entries} entries, buffer reports {}",
            buffer.num_entries()
        ));
    }
    if total_pages != buffer.num_buffered_pages() {
        report.push(format!(
            "{name}: partitions cover {total_pages} pages, buffer reports {}",
            buffer.num_buffered_pages()
        ));
    }
    report
}

/// Checks the whole Index Buffer Space: per-buffer partition structure plus
/// agreement between the governor's byte charge and the summed resident
/// footprint.
///
/// Deliberately does **not** call
/// [`sync_budget`](IndexBufferSpace::sync_budget) first — syncing would
/// overwrite the very charge under test. A mismatch here means some
/// mutation path forgot its reconciliation barrier.
pub fn verify_space(space: &IndexBufferSpace) -> InvariantReport {
    let mut report = InvariantReport::default();
    for id in space.buffer_ids() {
        report.merge(verify_structure(space.buffer(id)));
    }
    let charged = space.budget().used(BudgetComponent::IndexSpace);
    let footprint = space.footprint();
    if charged != footprint {
        report.push(format!(
            "governor charges {charged} bytes to IndexSpace, resident \
             footprint is {footprint}"
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BufferConfig, SpaceConfig};
    use aib_storage::{Rid, Value};

    fn rid(page: u32, slot: u16) -> Rid {
        Rid {
            page: aib_storage::PageId(page),
            slot: aib_storage::SlotId(slot),
        }
    }

    #[test]
    fn clean_buffer_passes() {
        let mut buffer = IndexBuffer::new(0, "t.k", BufferConfig::default());
        buffer.index_page(3, vec![(Value::Int(1), rid(3, 0))]);
        let mut counters = PageCounters::from_counts(vec![2, 0, 1, 1]);
        counters.set_zero(3);
        let truth = GroundTruth {
            counts: vec![2, 0, 1, 0],
        };
        let report = verify_buffer(&buffer, &counters, &truth);
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn counter_drift_is_detected() {
        let buffer = IndexBuffer::new(0, "t.k", BufferConfig::default());
        let counters = PageCounters::from_counts(vec![2, 5]);
        let truth = GroundTruth { counts: vec![2, 4] };
        let report = verify_buffer(&buffer, &counters, &truth);
        assert!(!report.is_ok());
        assert!(report.to_string().contains("C[1]"), "{report}");
    }

    #[test]
    fn buffered_page_with_nonzero_counter_is_detected() {
        let mut buffer = IndexBuffer::new(0, "t.k", BufferConfig::default());
        buffer.index_page(0, vec![(Value::Int(1), rid(0, 0))]);
        let counters = PageCounters::from_counts(vec![1]);
        let truth = GroundTruth { counts: vec![1] };
        let report = verify_buffer(&buffer, &counters, &truth);
        assert!(!report.is_ok());
        assert!(report.to_string().contains("buffered"), "{report}");
    }

    #[test]
    fn space_budget_drift_is_detected() {
        let mut space = IndexBufferSpace::new(SpaceConfig::default());
        let id = space.register("t.k", BufferConfig::default(), vec![1, 1]);
        space.with_buffer_mut(id, |buffer, _| {
            buffer.index_page(0, vec![(Value::Int(9), rid(0, 0))]);
        });
        // Mutated behind the governor's back: not yet reconciled.
        let report = verify_space(&space);
        assert!(!report.is_ok(), "{report}");
        // After the reconciliation barrier the space verifies clean.
        space.sync_budget();
        let report = verify_space(&space);
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn report_merges_and_displays() {
        let mut a = InvariantReport::default();
        assert!(a.is_ok());
        assert_eq!(a.to_string(), "all invariants hold");
        let mut b = InvariantReport::default();
        b.push("x".into());
        a.merge(b);
        assert_eq!(a.violations(), ["x"]);
        assert!(a.into_result().is_err());
    }
}
