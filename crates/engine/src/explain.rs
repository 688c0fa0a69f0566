//! Query plan explanation: what access path a query would take and what it
//! is expected to cost — *without executing it*.
//!
//! The paper's related work (§VI) contrasts online tuning against
//! *what-if* optimizer interfaces, which are "expensive since they involve
//! a complete logical query processing". The Index Buffer's bookkeeping
//! makes the interesting questions answerable for free: the counters `C[p]`
//! say exactly how many pages a scan must read, and the partial index knows
//! its own cardinalities.
//!
//! An [`Explanation`] is built from the plan value the executor itself
//! runs (`crate::read`), so what it prints is what `execute` does next on
//! unchanged state. The one thing only execution can tell: a
//! locked or exclusive plan runs Algorithm 2 under the lock, which
//! may displace *other* buffers' partitions — the queried buffer's own
//! page counts below are unaffected by that.

use crate::query::AccessPath;
use crate::read::PlanSource;

/// A pre-execution cost sketch of one query.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// The access path the executor would take.
    pub path: AccessPath,
    /// Where the scan's page selection would come from: planned lock-free
    /// from the snapshot, under the space write lock (the planner
    /// declined), or in an exclusive run (tuned point queries).
    pub plan: PlanSource,
    /// Whether the queried column has a partial index.
    pub has_partial_index: bool,
    /// Whether the queried column has an Index Buffer.
    pub has_buffer: bool,
    /// Total pages of the table.
    pub table_pages: u32,
    /// Pages a scan would actually fetch — `C[p] > 0` pages plus pages the
    /// table grew by since the counters were sized; equals `table_pages`
    /// for plain scans and 0 for index hits.
    pub pages_to_read: u32,
    /// Pages skippable thanks to full indexing (partial index + buffer).
    pub pages_skippable: u32,
    /// Contiguous skippable runs the sweep would jump whole — read straight
    /// off the maintained skip bitset, so it costs a word scan, not a page
    /// scan. 0 for index hits and plain scans.
    pub skip_runs: u32,
    /// Disk read requests the sweep costs when none of its pages is
    /// resident in the buffer pool: one per batch of at most
    /// [`aib_storage::HeapFile::sweep_batch_pages`] consecutive pages (a
    /// batch never spans a skip run). The executed query reports what it
    /// really issued in [`crate::QueryMetrics`]`::io.read_requests` — fewer
    /// when whole batches are resident, more when resident pages split a
    /// batch. 0 for index hits.
    pub cold_read_requests: u32,
    /// Exact result cardinality for queries the partial index answers;
    /// `None` when only execution can tell.
    pub known_cardinality: Option<usize>,
    /// Buffer entries currently held for this column.
    pub buffer_entries: usize,
    /// Resident bytes those entries charge to the memory governor
    /// ([`aib_storage::MemoryUsage`] footprint of the column's buffer).
    pub buffer_bytes: usize,
}

impl Explanation {
    /// Fraction of the table a scan could skip right now.
    pub fn skip_ratio(&self) -> f64 {
        if self.table_pages == 0 {
            return 0.0;
        }
        f64::from(self.pages_skippable) / f64::from(self.table_pages)
    }

    /// Human-readable one-line plan summary.
    pub fn summary(&self) -> String {
        match self.path {
            AccessPath::PartialIndex => format!(
                "partial index hit{}",
                self.known_cardinality
                    .map_or(String::new(), |n| format!(" ({n} rows)"))
            ),
            AccessPath::BufferedScan => {
                let mut s = format!(
                    "indexing scan ({} plan): {} of {} pages to read ({:.0}% skippable), buffer holds {} entries ({} bytes)",
                    self.plan.as_str(),
                    self.pages_to_read,
                    self.table_pages,
                    100.0 * self.skip_ratio(),
                    self.buffer_entries,
                    self.buffer_bytes
                );
                if self.skip_runs > 0 {
                    s.push_str(&format!(
                        ", {} skip run{}",
                        self.skip_runs,
                        if self.skip_runs == 1 { "" } else { "s" }
                    ));
                }
                if self.pages_to_read > 0 {
                    s.push_str(&format!(
                        ", {} disk requests when cold",
                        self.cold_read_requests
                    ));
                }
                s
            }
            AccessPath::PlainScan => {
                format!(
                    "full table scan: {} pages, {} disk requests when cold",
                    self.table_pages, self.cold_read_requests
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(pages_to_read: u32, skip_runs: u32) -> Explanation {
        Explanation {
            path: AccessPath::BufferedScan,
            plan: PlanSource::Snapshot,
            has_partial_index: true,
            has_buffer: true,
            table_pages: 100,
            pages_to_read,
            pages_skippable: 100 - pages_to_read,
            skip_runs,
            cold_read_requests: pages_to_read.div_ceil(32),
            known_cardinality: None,
            buffer_entries: 900,
            buffer_bytes: 28_800,
        }
    }

    #[test]
    fn summaries_are_informative() {
        let hit = Explanation {
            path: AccessPath::PartialIndex,
            plan: PlanSource::None,
            known_cardinality: Some(7),
            ..scan(0, 0)
        };
        assert_eq!(hit.summary(), "partial index hit (7 rows)");
        assert_eq!(hit.skip_ratio(), 1.0);

        let s = scan(25, 3).summary();
        assert!(s.starts_with("indexing scan (snapshot plan): 25 of 100 pages"));
        assert!(s.contains("75% skippable"));
        assert!(s.contains("900 entries (28800 bytes)"));
        assert!(s.contains("3 skip runs"));
        assert!(scan(25, 1)
            .summary()
            .ends_with("1 skip run, 1 disk requests when cold"));

        let locked = Explanation {
            plan: PlanSource::Locked,
            ..scan(25, 3)
        };
        assert!(locked.summary().contains("(locked plan)"));

        let plain = Explanation {
            path: AccessPath::PlainScan,
            plan: PlanSource::None,
            table_pages: 40,
            pages_skippable: 0,
            ..scan(40, 0)
        };
        assert_eq!(
            plain.summary(),
            "full table scan: 40 pages, 2 disk requests when cold"
        );
        assert_eq!(plain.skip_ratio(), 0.0);
    }

    #[test]
    fn empty_table_skip_ratio_is_zero() {
        let e = Explanation {
            table_pages: 0,
            pages_skippable: 0,
            ..scan(0, 0)
        };
        assert_eq!(e.skip_ratio(), 0.0);
    }
}
