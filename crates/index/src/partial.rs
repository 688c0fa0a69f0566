//! Partial secondary indexes (paper §II).
//!
//! A partial index holds `(value, rid)` entries for tuples whose value its
//! [`Coverage`] admits. The paper's flight example: the airport column is
//! indexed only for U.S. airports, so `ORD` hits the index while `FRA`
//! forces a table scan.
//!
//! Besides the usual `Add` / `Remove` / `Update` used in Table I
//! maintenance, the index supports *adaptation*: redefining its coverage
//! (the job of the online tuner) with every touched entry charged to an
//! [`AdaptationCost`] sink — this is the expensive control loop the Index
//! Buffer is built to bridge.

use aib_storage::{Rid, Value};

use crate::cost::AdaptationCost;
use crate::coverage::Coverage;
use crate::secondary::{BTreeIndex, IndexBackend};

/// A partial secondary index over one column.
///
/// ```
/// use aib_index::{Coverage, IndexBackend, PartialIndex};
/// use aib_storage::{Rid, Value};
///
/// // Fig. 2: only U.S. airports are covered.
/// let mut coverage = Coverage::empty_set();
/// coverage.add_value(Value::from("ORD"));
/// let mut ix = PartialIndex::new("flights.airport", coverage, IndexBackend::BTree);
///
/// assert!(ix.covers(&Value::from("ORD")));
/// assert!(!ix.covers(&Value::from("FRA")), "FRA forces a table scan");
/// ix.add(Value::from("ORD"), Rid::new(1, 0));
/// assert_eq!(ix.lookup(&Value::from("ORD")), vec![Rid::new(1, 0)]);
/// ```
pub struct PartialIndex {
    name: String,
    coverage: Coverage,
    index: BTreeIndex,
    cost: AdaptationCost,
}

impl PartialIndex {
    /// Creates an empty partial index. `_backend` has one value and is kept
    /// only because the frozen benchmark passes it (see [`IndexBackend`]).
    pub fn new(name: impl Into<String>, coverage: Coverage, _backend: IndexBackend) -> Self {
        PartialIndex {
            name: name.into(),
            coverage,
            index: BTreeIndex::new(),
            cost: AdaptationCost::free(),
        }
    }

    /// Replaces the cost sink (engine wiring).
    pub fn with_cost(mut self, cost: AdaptationCost) -> Self {
        self.cost = cost;
        self
    }

    /// Index name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The coverage predicate.
    pub fn coverage(&self) -> &Coverage {
        &self.coverage
    }

    /// Whether `value` is covered — the paper's `t ∈ IX` test.
    #[inline]
    pub fn covers(&self, value: &Value) -> bool {
        self.coverage.covers(value)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// `IX.Add(t)` — inserts an entry for a covered tuple.
    ///
    /// # Panics
    /// In debug builds, if `value` is not covered: Table I only ever adds
    /// covered tuples, so an uncovered add is an engine bug.
    pub fn add(&mut self, value: Value, rid: Rid) -> bool {
        debug_assert!(self.covers(&value), "IX.Add of uncovered value {value}");
        let added = self.index.add(value, rid);
        if added {
            self.cost.charge_entries(1);
        }
        added
    }

    /// `IX.Add` for a whole batch of covered tuples in one sorted merge
    /// ([`BTreeIndex::merge`]) — the index builds' path; strings move into
    /// the index uncopied. Charges the [`AdaptationCost`] the same total as
    /// one [`add`](Self::add) per entry (the charge is cumulative). Returns
    /// the number of entries added; repeats and entries already present
    /// are not.
    ///
    /// # Panics
    /// In debug builds, if any value is not covered.
    pub fn add_batch(&mut self, entries: Vec<(Value, Rid)>) -> usize {
        debug_assert!(
            entries.iter().all(|(value, _)| self.covers(value)),
            "IX.Add of an uncovered value"
        );
        let before = self.index.len();
        self.index.merge(entries.into_iter().collect());
        let added = self.index.len() - before;
        self.cost.charge_entries(added as u64);
        added
    }

    /// `IX.Remove(t)` — deletes an entry.
    pub fn remove(&mut self, value: &Value, rid: Rid) -> bool {
        let removed = self.index.remove(value, rid);
        if removed {
            self.cost.charge_entries(1);
        }
        removed
    }

    /// `IX.Update(t_old, t_new)` — both tuples covered; moves the entry.
    pub fn update(&mut self, old_value: &Value, old_rid: Rid, new_value: Value, new_rid: Rid) {
        self.remove(old_value, old_rid);
        self.add(new_value, new_rid);
    }

    /// True if the exact entry exists.
    pub fn contains(&self, value: &Value, rid: Rid) -> bool {
        self.index.contains(value, rid)
    }

    /// Point lookup: all rids for `value`. The caller must have checked
    /// coverage; looking up an uncovered value returns an empty (and
    /// meaningless) result.
    pub fn lookup(&self, value: &Value) -> Vec<Rid> {
        self.index.lookup(value)
    }

    /// Range lookup; `None` unless the coverage guarantees completeness
    /// for the whole range.
    pub fn lookup_range(&self, lo: &Value, hi: &Value) -> Option<Vec<Rid>> {
        self.covers_range(lo, hi).then(|| self.entries_in(lo, hi))
    }

    /// All entries with `lo <= value <= hi`, regardless of whether the
    /// coverage is complete over the range. Used by range scans that miss
    /// the partial index: pages fully covered by the index are skipped, so
    /// the covered fraction of the range must be answered from the index
    /// itself.
    pub fn entries_in(&self, lo: &Value, hi: &Value) -> Vec<Rid> {
        self.index.lookup_range(lo, hi)
    }

    /// Whether every value in `[lo, hi]` is covered (conservative for sets).
    pub fn covers_range(&self, lo: &Value, hi: &Value) -> bool {
        match &self.coverage {
            Coverage::None => false,
            Coverage::All => true,
            Coverage::IntRange { lo: clo, hi: chi } => match (lo.as_int(), hi.as_int()) {
                (Some(l), Some(h)) => *clo <= l && h <= *chi,
                _ => false,
            },
            Coverage::Set(set) => match (lo.as_int(), hi.as_int()) {
                (Some(l), Some(h)) => (l..=h).all(|v| set.contains(&Value::Int(v))),
                _ => false,
            },
        }
    }

    /// Visits every entry.
    pub fn for_each(&self, f: impl FnMut(&Value, Rid)) {
        self.index.for_each(f);
    }

    /// **Adaptation:** extends a [`Coverage::Set`] index by `value`, bulk
    /// loading the given entries (found by the adapting scan). Charges every
    /// inserted entry. Returns the number of entries added.
    pub fn adapt_add_value(&mut self, value: Value, rids: &[Rid]) -> usize {
        if !self.coverage.add_value(value.clone()) {
            return 0;
        }
        let mut added = 0;
        for &rid in rids {
            if self.index.add(value.clone(), rid) {
                added += 1;
            }
        }
        self.cost.charge_entries(added as u64);
        added
    }

    /// **Adaptation:** shrinks a [`Coverage::Set`] index by `value`,
    /// dropping its entries. Charges every removed entry. Returns the number
    /// of entries dropped.
    pub fn adapt_remove_value(&mut self, value: &Value) -> usize {
        if !self.coverage.remove_value(value) {
            return 0;
        }
        let rids = self.index.lookup(value);
        for &rid in &rids {
            self.index.remove(value, rid);
        }
        self.cost.charge_entries(rids.len() as u64);
        rids.len()
    }

    /// **Adaptation:** wholesale redefinition of the coverage (e.g. the
    /// experiment-4 flip of the covered range). Entries outside the new
    /// coverage are dropped; entries for newly covered values must be
    /// supplied by a rebuilding scan via [`PartialIndex::add`]. Every dropped
    /// entry is charged. Returns the number of entries dropped.
    pub fn redefine_coverage(&mut self, coverage: Coverage) -> usize {
        let mut stale = Vec::new();
        self.index.for_each(|v, rid| {
            if !coverage.covers(v) {
                stale.push((v.clone(), rid));
            }
        });
        for (v, rid) in &stale {
            self.index.remove(v, *rid);
        }
        self.cost.charge_entries(stale.len() as u64);
        self.coverage = coverage;
        stale.len()
    }
}

impl std::fmt::Debug for PartialIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartialIndex")
            .field("name", &self.name)
            .field("len", &self.len())
            .field("coverage", &self.coverage)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us_airports() -> PartialIndex {
        // The paper's Fig. 2 example: only U.S. airports are indexed.
        let mut set = std::collections::BTreeSet::new();
        for code in ["ORD", "JFK", "LAX"] {
            set.insert(Value::from(code));
        }
        PartialIndex::new("flights_airport", Coverage::Set(set), IndexBackend::BTree)
    }

    #[test]
    fn covered_values_hit_uncovered_miss() {
        let mut ix = us_airports();
        ix.add(Value::from("ORD"), Rid::new(1, 0));
        ix.add(Value::from("ORD"), Rid::new(4, 2));
        assert!(ix.covers(&Value::from("ORD")));
        assert!(!ix.covers(&Value::from("FRA")), "FRA forces a table scan");
        assert_eq!(
            ix.lookup(&Value::from("ORD")),
            vec![Rid::new(1, 0), Rid::new(4, 2)]
        );
    }

    #[test]
    fn add_remove_update_roundtrip() {
        let mut ix = PartialIndex::new(
            "a",
            Coverage::IntRange { lo: 1, hi: 100 },
            IndexBackend::BTree,
        );
        assert!(ix.add(Value::Int(5), Rid::new(0, 0)));
        assert!(!ix.add(Value::Int(5), Rid::new(0, 0)));
        assert!(ix.contains(&Value::Int(5), Rid::new(0, 0)));
        ix.update(
            &Value::Int(5),
            Rid::new(0, 0),
            Value::Int(6),
            Rid::new(0, 1),
        );
        assert!(!ix.contains(&Value::Int(5), Rid::new(0, 0)));
        assert!(ix.contains(&Value::Int(6), Rid::new(0, 1)));
        assert!(ix.remove(&Value::Int(6), Rid::new(0, 1)));
        assert!(ix.is_empty());
    }

    #[test]
    fn adapt_add_and_remove_value() {
        let mut ix = PartialIndex::new("a", Coverage::empty_set(), IndexBackend::BTree);
        let rids = [Rid::new(0, 0), Rid::new(3, 1)];
        assert_eq!(ix.adapt_add_value(Value::Int(9), &rids), 2);
        assert!(ix.covers(&Value::Int(9)));
        assert_eq!(ix.len(), 2);
        assert_eq!(
            ix.adapt_add_value(Value::Int(9), &rids),
            0,
            "already covered"
        );
        assert_eq!(ix.adapt_remove_value(&Value::Int(9)), 2);
        assert!(!ix.covers(&Value::Int(9)));
        assert!(ix.is_empty());
        assert_eq!(ix.adapt_remove_value(&Value::Int(9)), 0);
    }

    #[test]
    fn redefine_coverage_drops_stale_entries() {
        let mut ix = PartialIndex::new(
            "a",
            Coverage::IntRange { lo: 1, hi: 10 },
            IndexBackend::BTree,
        );
        for i in 1..=10 {
            ix.add(Value::Int(i), Rid::new(i as u32, 0));
        }
        let dropped = ix.redefine_coverage(Coverage::IntRange { lo: 6, hi: 15 });
        assert_eq!(dropped, 5);
        assert_eq!(ix.len(), 5);
        assert!(ix.covers(&Value::Int(12)));
        assert!(!ix.covers(&Value::Int(3)));
        assert!(ix.lookup(&Value::Int(3)).is_empty());
        assert_eq!(ix.lookup(&Value::Int(7)), vec![Rid::new(7, 0)]);
    }

    #[test]
    fn add_batch_charges_what_the_add_loop_charges() {
        use aib_storage::{CostModel, IoStats};
        use std::sync::Arc;
        let charged = |io: &Arc<IoStats>| {
            PartialIndex::new("a", Coverage::All, IndexBackend::BTree).with_cost(
                AdaptationCost::charged(Arc::clone(io), CostModel::default(), 7),
            )
        };
        // Repeats, and an entry the index already holds.
        let entries: Vec<(Value, Rid)> = (0..40u32)
            .map(|i| (Value::Int(i64::from(i % 25)), Rid::new(i % 25, 0)))
            .collect();
        let (io_loop, io_batch) = (Arc::new(IoStats::new()), Arc::new(IoStats::new()));
        let (mut looped, mut batched) = (charged(&io_loop), charged(&io_batch));
        looped.add(Value::Int(3), Rid::new(3, 0));
        batched.add(Value::Int(3), Rid::new(3, 0));
        let added = entries
            .iter()
            .filter(|(v, r)| looped.add(v.clone(), *r))
            .count();
        assert_eq!(batched.add_batch(entries), added);
        assert_eq!(added, 24);
        assert_eq!(io_batch.snapshot(), io_loop.snapshot());
    }

    #[test]
    fn covers_range_logic() {
        let ix = PartialIndex::new(
            "a",
            Coverage::IntRange { lo: 10, hi: 20 },
            IndexBackend::BTree,
        );
        assert!(ix.covers_range(&Value::Int(10), &Value::Int(20)));
        assert!(ix.covers_range(&Value::Int(12), &Value::Int(15)));
        assert!(!ix.covers_range(&Value::Int(9), &Value::Int(15)));
        assert!(!ix.covers_range(&Value::Int(15), &Value::Int(21)));
        assert!(!ix.covers_range(&Value::from("a"), &Value::from("b")));
    }

    #[test]
    fn lookup_range_respects_coverage() {
        let mut ix = PartialIndex::new(
            "a",
            Coverage::IntRange { lo: 1, hi: 100 },
            IndexBackend::BTree,
        );
        for i in 1..=20 {
            ix.add(Value::Int(i), Rid::new(i as u32, 0));
        }
        let rids = ix.lookup_range(&Value::Int(5), &Value::Int(8)).unwrap();
        assert_eq!(rids.len(), 4);
        assert!(ix.lookup_range(&Value::Int(50), &Value::Int(200)).is_none());
    }

    #[test]
    fn adaptation_cost_is_charged() {
        use aib_storage::{CostModel, IoStats};
        use std::sync::Arc;
        let io = Arc::new(IoStats::new());
        let mut ix = PartialIndex::new("a", Coverage::empty_set(), IndexBackend::BTree).with_cost(
            AdaptationCost::charged(
                Arc::clone(&io),
                CostModel {
                    read_us: 0,
                    write_us: 50,
                },
                10,
            ),
        );
        let rids: Vec<Rid> = (0..25).map(|i| Rid::new(i, 0)).collect();
        ix.adapt_add_value(Value::Int(1), &rids);
        assert_eq!(
            io.snapshot().page_writes,
            2,
            "25 entries / 10 per page = 2 full pages"
        );
        ix.adapt_remove_value(&Value::Int(1));
        assert_eq!(
            io.snapshot().page_writes,
            5,
            "50 entries total = 5 full pages"
        );
    }
}
