//! Adaptation cost accounting for disk-resident partial indexes.
//!
//! Paper §I: "Index adaptation is not for free. Adding and removing entries
//! from an index involves I/O and memory activities." Our partial indexes
//! are materialised in memory (substitution, DESIGN.md §4), so this module
//! re-introduces the missing I/O: every batch of entry mutations is charged
//! to the shared [`IoStats`] as if the touched leaf pages were written —
//! one page write per [`AdaptationCost::entries_per_page`] mutated entries,
//! with the remainder carried between batches.
//!
//! The Index Buffer intentionally has **no such charge**: it is "in-memory
//! and without need for recovery" (paper §I), which is exactly the asymmetry
//! the paper exploits.

use std::sync::Arc;

use aib_storage::{CostModel, IoStats};

/// Charges simulated index-page I/O for partial-index maintenance.
#[derive(Debug)]
pub struct AdaptationCost {
    io: Option<Arc<IoStats>>,
    cost: CostModel,
    /// Index entries per leaf page, i.e. mutations amortised per page write.
    pub entries_per_page: u64,
    pending: u64,
}

impl AdaptationCost {
    /// Cost sink writing to `io`. With ~16-byte entries on 8 KiB pages,
    /// `entries_per_page` around 400 is realistic; the paper's shape results
    /// are insensitive to the exact value.
    pub fn charged(io: Arc<IoStats>, cost: CostModel, entries_per_page: u64) -> Self {
        assert!(entries_per_page > 0, "entries_per_page must be positive");
        AdaptationCost {
            io: Some(io),
            cost,
            entries_per_page,
            pending: 0,
        }
    }

    /// A cost sink that charges no I/O (used for the Index Buffer side and
    /// for tests).
    pub fn free() -> Self {
        AdaptationCost {
            io: None,
            cost: CostModel::free(),
            entries_per_page: u64::MAX,
            pending: 0,
        }
    }

    /// Records `n` mutated entries, charging page writes as full pages
    /// accumulate.
    pub fn charge_entries(&mut self, n: u64) {
        self.pending += n;
        if let Some(io) = &self.io {
            let pages = self.pending / self.entries_per_page;
            if pages > 0 {
                self.pending %= self.entries_per_page;
                io.record_writes(pages, self.cost.write_us);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charged_sink_amortises_page_writes() {
        let io = Arc::new(IoStats::new());
        let mut c = AdaptationCost::charged(
            Arc::clone(&io),
            CostModel {
                read_us: 0,
                write_us: 10,
            },
            100,
        );
        c.charge_entries(99);
        assert_eq!(
            io.snapshot().page_writes,
            0,
            "below one page: nothing charged yet"
        );
        c.charge_entries(1);
        assert_eq!(io.snapshot().page_writes, 1);
        c.charge_entries(250);
        let s = io.snapshot();
        assert_eq!(s.page_writes, 3, "2 more full pages, 50 entries pending");
        assert_eq!(s.simulated_us, 30);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_entries_per_page_rejected() {
        AdaptationCost::charged(Arc::new(IoStats::new()), CostModel::free(), 0);
    }
}
