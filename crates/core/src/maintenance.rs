//! Index Buffer maintenance under DML — the paper's Table I.
//!
//! Every insert, update, delete (and partial-index adaptation that moves a
//! tuple across the coverage boundary) decomposes into one case of the
//! 4×4 matrix over:
//!
//! * `t_old ∈ IX` — was the old tuple covered by the partial index?
//! * `t_new ∈ IX` — will the new tuple be covered?
//! * `p_old ∈ B` — is the old tuple's page buffered?
//! * `p_new ∈ B` — is the new tuple's page buffered?
//!
//! The partial-index row (independent of `B`):
//!
//! | | `t_new ∈ IX` | `t_new ∉ IX` |
//! |---|---|---|
//! | `t_old ∈ IX` | `IX.Update(t_old, t_new)` | `IX.Remove(t_old)` |
//! | `t_old ∉ IX` | `IX.Add(t_new)` | — |
//!
//! The buffer/counter matrix (for the uncovered sides only):
//!
//! | | `(IX,IX)` | `(IX,∉IX)` | `(∉IX,IX)` | `(∉IX,∉IX)` |
//! |---|---|---|---|---|
//! | `p_old ∈ B, p_new ∈ B` | — | `B.Add(t_new)` | `B.Remove(t_old)` | `B.Update(t_old,t_new)` |
//! | `p_old ∈ B, p_new ∉ B` | — | `C[p_new]++` | `B.Remove(t_old)` | `B.Remove(t_old), C[p_new]++` |
//! | `p_old ∉ B, p_new ∈ B` | — | `B.Add(t_new)` | `C[p_old]--` | `B.Add(t_new), C[p_old]--` |
//! | `p_old ∉ B, p_new ∉ B` | — | `C[p_new]++` | `C[p_old]--` | `C[p_old]--, C[p_new]++` |
//!
//! Inserts are the no-old-side column, deletes the no-new-side row.

use aib_index::PartialIndex;
use aib_storage::{Rid, Value};

use crate::counters::{CounterError, PageCounters};
use crate::index_buffer::IndexBuffer;

/// One side (old or new) of a tuple mutation, as seen by one column's
/// index/buffer pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TupleRef {
    /// The column value.
    pub value: Value,
    /// The tuple's record id.
    pub rid: Rid,
    /// Table-local page ordinal of `rid.page`.
    pub page: u32,
}

impl TupleRef {
    /// Convenience constructor.
    pub fn new(value: Value, rid: Rid, page: u32) -> Self {
        TupleRef { value, rid, page }
    }
}

/// The primitive operations of Table I, reported for verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MaintAction {
    /// `IX.Update(t_old, t_new)`
    IxUpdate,
    /// `IX.Remove(t_old)`
    IxRemove,
    /// `IX.Add(t_new)`
    IxAdd,
    /// `B.Add(t_new)`
    BAdd,
    /// `B.Remove(t_old)`
    BRemove,
    /// `B.Update(t_old, t_new)`
    BUpdate,
    /// `C[p_old]--`
    DecOld,
    /// `C[p_new]++`
    IncNew,
}

/// The partial-index row of Table I alone: what a column without an Index
/// Buffer runs, and the first step of [`maintain`]. Returns the operation
/// performed, if any.
pub fn maintain_partial_index(
    partial: &mut PartialIndex,
    old: Option<&TupleRef>,
    new: Option<&TupleRef>,
) -> Option<MaintAction> {
    let old = old.filter(|t| partial.covers(&t.value));
    let new = new.filter(|t| partial.covers(&t.value));
    match (old, new) {
        (Some(o), Some(n)) => {
            partial.update(&o.value, o.rid, n.value.clone(), n.rid);
            Some(MaintAction::IxUpdate)
        }
        (Some(o), None) => {
            partial.remove(&o.value, o.rid);
            Some(MaintAction::IxRemove)
        }
        (None, Some(n)) => {
            partial.add(n.value.clone(), n.rid);
            Some(MaintAction::IxAdd)
        }
        (None, None) => None,
    }
}

/// Applies Table I for one column. `old`/`new` are the before/after images
/// of the mutated tuple as this column sees them (`None` for insert/delete).
/// Returns the primitive operations performed, in execution order.
///
/// The only failure mode is a counter underflow, which means the
/// maintenance bookkeeping has diverged from the heap — see
/// [`PageCounters::decrement`] for how the `invariant-checks` feature
/// changes its reporting.
pub fn maintain(
    partial: &mut PartialIndex,
    buffer: &mut IndexBuffer,
    counters: &mut PageCounters,
    old: Option<TupleRef>,
    new: Option<TupleRef>,
) -> Result<Vec<MaintAction>, CounterError> {
    let mut actions = Vec::with_capacity(2);
    actions.extend(maintain_partial_index(partial, old.as_ref(), new.as_ref()));

    // --- Buffer / counter matrix -------------------------------------------
    // The page of any new tuple is tracked from here on, covered or not: a
    // page the table grew by whose tuples are all covered has `C[p] = 0`
    // and must become skippable — outside the tracked range every sweep
    // would read it for ever.
    if let Some(n) = &new {
        counters.ensure_page(n.page);
    }
    // Only uncovered sides participate in the matrix itself.
    let old_u = old.filter(|t| !partial.covers(&t.value));
    let new_u = new.filter(|t| !partial.covers(&t.value));
    match (old_u, new_u) {
        (None, None) => {}
        (None, Some(n)) => {
            if buffer.is_buffered(n.page) {
                buffer.add(n.value, n.rid, n.page);
                actions.push(MaintAction::BAdd);
            } else {
                counters.increment(n.page);
                actions.push(MaintAction::IncNew);
            }
        }
        (Some(o), None) => {
            if buffer.is_buffered(o.page) {
                buffer.remove(&o.value, o.rid, o.page);
                actions.push(MaintAction::BRemove);
            } else {
                counters.decrement(o.page)?;
                actions.push(MaintAction::DecOld);
            }
        }
        (Some(o), Some(n)) => match (buffer.is_buffered(o.page), buffer.is_buffered(n.page)) {
            (true, true) => {
                buffer.update(&o.value, o.rid, o.page, n.value, n.rid, n.page);
                actions.push(MaintAction::BUpdate);
            }
            (true, false) => {
                buffer.remove(&o.value, o.rid, o.page);
                counters.increment(n.page);
                actions.push(MaintAction::BRemove);
                actions.push(MaintAction::IncNew);
            }
            (false, true) => {
                buffer.add(n.value, n.rid, n.page);
                counters.decrement(o.page)?;
                actions.push(MaintAction::BAdd);
                actions.push(MaintAction::DecOld);
            }
            (false, false) => {
                counters.decrement(o.page)?;
                counters.increment(n.page);
                actions.push(MaintAction::DecOld);
                actions.push(MaintAction::IncNew);
            }
        },
    }
    Ok(actions)
}

/// Adaptation: a tuple's value has just been *added to* the partial index's
/// coverage (online tuning moved the coverage boundary over it). The tuple
/// leaves the "uncovered" bookkeeping — its buffered entry is removed, or its
/// page counter decremented — the `(∉IX → IX)` column of Table I with the
/// tuple itself staying put.
pub fn cover_tuple(
    buffer: &mut IndexBuffer,
    counters: &mut PageCounters,
    value: &Value,
    rid: Rid,
    page: u32,
) -> Result<MaintAction, CounterError> {
    if buffer.is_buffered(page) {
        buffer.remove(value, rid, page);
        Ok(MaintAction::BRemove)
    } else {
        counters.decrement(page)?;
        Ok(MaintAction::DecOld)
    }
}

/// Adaptation: a tuple's value has just been *evicted from* the partial
/// index's coverage. The tuple re-enters the "uncovered" bookkeeping — a
/// buffered page gains the entry, an unbuffered one a counter increment —
/// the `(IX → ∉IX)` column of Table I with the tuple staying put.
pub fn uncover_tuple(
    buffer: &mut IndexBuffer,
    counters: &mut PageCounters,
    value: Value,
    rid: Rid,
    page: u32,
) -> MaintAction {
    counters.ensure_page(page);
    if buffer.is_buffered(page) {
        buffer.add(value, rid, page);
        MaintAction::BAdd
    } else {
        counters.increment(page);
        MaintAction::IncNew
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BufferConfig;
    use aib_index::{Coverage, IndexBackend};
    use MaintAction::*;

    /// Fixture: partial index covers values < 100; pages 0 and 1 are
    /// buffered; pages 2 and 3 are not.
    struct Fix {
        partial: PartialIndex,
        buffer: IndexBuffer,
        counters: PageCounters,
    }

    fn fix() -> Fix {
        let partial = PartialIndex::new(
            "col",
            Coverage::IntRange { lo: 0, hi: 99 },
            IndexBackend::BTree,
        );
        let mut buffer = IndexBuffer::new(0, "col", BufferConfig::default());
        // Pages 0 and 1 buffered with one pre-existing uncovered tuple each.
        buffer.index_page(0, vec![(Value::Int(500), Rid::new(0, 0))]);
        buffer.index_page(1, vec![(Value::Int(501), Rid::new(1, 0))]);
        // Counters: buffered pages at 0; unbuffered pages 2,3 hold 5 each.
        let counters = PageCounters::from_counts(vec![0, 0, 5, 5]);
        Fix {
            partial,
            buffer,
            counters,
        }
    }

    fn covered(v: i64) -> Value {
        assert!(v < 100);
        Value::Int(v)
    }

    fn uncovered(v: i64) -> Value {
        assert!(v >= 100);
        Value::Int(v)
    }

    fn apply(f: &mut Fix, old: Option<TupleRef>, new: Option<TupleRef>) -> Vec<MaintAction> {
        maintain(&mut f.partial, &mut f.buffer, &mut f.counters, old, new).unwrap()
    }

    #[test]
    fn a_covered_tuple_on_a_fresh_page_makes_the_page_tracked() {
        // Page 5 is past the tracked range (pages 0..=3). A covered insert
        // there touches no counter, but the page must enter the range —
        // with `C[p] = 0` it is skippable, untracked it never would be.
        let mut f = fix();
        assert!(!f.counters.is_fully_indexed(5));
        let a = apply(
            &mut f,
            None,
            Some(TupleRef::new(covered(7), Rid::new(5, 0), 5)),
        );
        assert_eq!(a, vec![IxAdd]);
        assert_eq!(f.counters.num_pages(), 6);
        assert!(f.counters.is_fully_indexed(5));
        // An uncovered tuple on the same page takes it out again.
        apply(
            &mut f,
            None,
            Some(TupleRef::new(uncovered(300), Rid::new(5, 1), 5)),
        );
        assert_eq!(f.counters.get(5), 1);
        assert!(!f.counters.is_fully_indexed(5));
    }

    // --- Table I, row by row (update cases) --------------------------------

    #[test]
    fn both_buffered() {
        // (IX, IX): only the partial index moves.
        let mut f = fix();
        let a = apply(
            &mut f,
            Some(TupleRef::new(covered(1), Rid::new(0, 1), 0)),
            Some(TupleRef::new(covered(2), Rid::new(1, 1), 1)),
        );
        assert_eq!(a, vec![IxUpdate]);

        // (IX, ∉IX): B.Add.
        let mut f = fix();
        f.partial.add(covered(1), Rid::new(0, 1));
        let a = apply(
            &mut f,
            Some(TupleRef::new(covered(1), Rid::new(0, 1), 0)),
            Some(TupleRef::new(uncovered(200), Rid::new(1, 1), 1)),
        );
        assert_eq!(a, vec![IxRemove, BAdd]);
        assert!(f.buffer.contains(&uncovered(200), Rid::new(1, 1)));

        // (∉IX, IX): B.Remove.
        let mut f = fix();
        let a = apply(
            &mut f,
            Some(TupleRef::new(uncovered(500), Rid::new(0, 0), 0)),
            Some(TupleRef::new(covered(3), Rid::new(1, 1), 1)),
        );
        assert_eq!(a, vec![IxAdd, BRemove]);
        assert!(!f.buffer.contains(&uncovered(500), Rid::new(0, 0)));

        // (∉IX, ∉IX): B.Update.
        let mut f = fix();
        let a = apply(
            &mut f,
            Some(TupleRef::new(uncovered(500), Rid::new(0, 0), 0)),
            Some(TupleRef::new(uncovered(600), Rid::new(1, 1), 1)),
        );
        assert_eq!(a, vec![BUpdate]);
        assert!(f.buffer.contains(&uncovered(600), Rid::new(1, 1)));
        assert!(!f.buffer.contains(&uncovered(500), Rid::new(0, 0)));
    }

    #[test]
    fn old_buffered_new_not() {
        // (IX, ∉IX): C[p_new]++.
        let mut f = fix();
        f.partial.add(covered(1), Rid::new(0, 1));
        let a = apply(
            &mut f,
            Some(TupleRef::new(covered(1), Rid::new(0, 1), 0)),
            Some(TupleRef::new(uncovered(200), Rid::new(2, 9), 2)),
        );
        assert_eq!(a, vec![IxRemove, IncNew]);
        assert_eq!(f.counters.get(2), 6);

        // (∉IX, IX): B.Remove.
        let mut f = fix();
        let a = apply(
            &mut f,
            Some(TupleRef::new(uncovered(500), Rid::new(0, 0), 0)),
            Some(TupleRef::new(covered(3), Rid::new(2, 9), 2)),
        );
        assert_eq!(a, vec![IxAdd, BRemove]);

        // (∉IX, ∉IX): B.Remove + C[p_new]++.
        let mut f = fix();
        let a = apply(
            &mut f,
            Some(TupleRef::new(uncovered(500), Rid::new(0, 0), 0)),
            Some(TupleRef::new(uncovered(600), Rid::new(2, 9), 2)),
        );
        assert_eq!(a, vec![BRemove, IncNew]);
        assert_eq!(f.counters.get(2), 6);
        assert_eq!(f.buffer.num_entries(), 1);
    }

    #[test]
    fn old_not_buffered_new_buffered() {
        // (IX, ∉IX): B.Add.
        let mut f = fix();
        f.partial.add(covered(1), Rid::new(2, 1));
        let a = apply(
            &mut f,
            Some(TupleRef::new(covered(1), Rid::new(2, 1), 2)),
            Some(TupleRef::new(uncovered(200), Rid::new(0, 5), 0)),
        );
        assert_eq!(a, vec![IxRemove, BAdd]);

        // (∉IX, IX): C[p_old]--.
        let mut f = fix();
        let a = apply(
            &mut f,
            Some(TupleRef::new(uncovered(500), Rid::new(2, 1), 2)),
            Some(TupleRef::new(covered(3), Rid::new(0, 5), 0)),
        );
        assert_eq!(a, vec![IxAdd, DecOld]);
        assert_eq!(f.counters.get(2), 4);

        // (∉IX, ∉IX): B.Add + C[p_old]--.
        let mut f = fix();
        let a = apply(
            &mut f,
            Some(TupleRef::new(uncovered(500), Rid::new(2, 1), 2)),
            Some(TupleRef::new(uncovered(600), Rid::new(0, 5), 0)),
        );
        assert_eq!(a, vec![BAdd, DecOld]);
        assert_eq!(f.counters.get(2), 4);
        assert!(f.buffer.contains(&uncovered(600), Rid::new(0, 5)));
    }

    #[test]
    fn neither_buffered() {
        // (IX, IX): nothing but the IX update.
        let mut f = fix();
        f.partial.add(covered(1), Rid::new(2, 1));
        let a = apply(
            &mut f,
            Some(TupleRef::new(covered(1), Rid::new(2, 1), 2)),
            Some(TupleRef::new(covered(2), Rid::new(3, 1), 3)),
        );
        assert_eq!(a, vec![IxUpdate]);
        assert_eq!(f.counters.get(2), 5);
        assert_eq!(f.counters.get(3), 5);

        // (IX, ∉IX): C[p_new]++.
        let mut f = fix();
        f.partial.add(covered(1), Rid::new(2, 1));
        let a = apply(
            &mut f,
            Some(TupleRef::new(covered(1), Rid::new(2, 1), 2)),
            Some(TupleRef::new(uncovered(200), Rid::new(3, 1), 3)),
        );
        assert_eq!(a, vec![IxRemove, IncNew]);
        assert_eq!(f.counters.get(3), 6);

        // (∉IX, IX): C[p_old]--.
        let mut f = fix();
        let a = apply(
            &mut f,
            Some(TupleRef::new(uncovered(500), Rid::new(2, 1), 2)),
            Some(TupleRef::new(covered(3), Rid::new(3, 1), 3)),
        );
        assert_eq!(a, vec![IxAdd, DecOld]);
        assert_eq!(f.counters.get(2), 4);

        // (∉IX, ∉IX): C[p_old]--, C[p_new]++.
        let mut f = fix();
        let a = apply(
            &mut f,
            Some(TupleRef::new(uncovered(500), Rid::new(2, 1), 2)),
            Some(TupleRef::new(uncovered(600), Rid::new(3, 1), 3)),
        );
        assert_eq!(a, vec![DecOld, IncNew]);
        assert_eq!(f.counters.get(2), 4);
        assert_eq!(f.counters.get(3), 6);
    }

    // --- Insert / delete degenerate cases ----------------------------------

    #[test]
    fn insert_cases() {
        // Covered insert: IX.Add only.
        let mut f = fix();
        let a = apply(
            &mut f,
            None,
            Some(TupleRef::new(covered(7), Rid::new(2, 2), 2)),
        );
        assert_eq!(a, vec![IxAdd]);
        assert!(f.partial.contains(&covered(7), Rid::new(2, 2)));

        // Uncovered insert into buffered page: B.Add keeps the page skippable.
        let mut f = fix();
        let a = apply(
            &mut f,
            None,
            Some(TupleRef::new(uncovered(700), Rid::new(0, 2), 0)),
        );
        assert_eq!(a, vec![BAdd]);
        assert_eq!(f.counters.get(0), 0, "page stays fully indexed");

        // Uncovered insert into unbuffered page: C[p]++.
        let mut f = fix();
        let a = apply(
            &mut f,
            None,
            Some(TupleRef::new(uncovered(700), Rid::new(2, 2), 2)),
        );
        assert_eq!(a, vec![IncNew]);
        assert_eq!(f.counters.get(2), 6);

        // Uncovered insert into a brand-new page: counters grow.
        let mut f = fix();
        let a = apply(
            &mut f,
            None,
            Some(TupleRef::new(uncovered(700), Rid::new(9, 0), 9)),
        );
        assert_eq!(a, vec![IncNew]);
        assert_eq!(f.counters.get(9), 1);
    }

    #[test]
    fn delete_cases() {
        // Covered delete: IX.Remove only.
        let mut f = fix();
        f.partial.add(covered(7), Rid::new(2, 2));
        let a = apply(
            &mut f,
            Some(TupleRef::new(covered(7), Rid::new(2, 2), 2)),
            None,
        );
        assert_eq!(a, vec![IxRemove]);

        // Uncovered delete from buffered page: B.Remove.
        let mut f = fix();
        let a = apply(
            &mut f,
            Some(TupleRef::new(uncovered(500), Rid::new(0, 0), 0)),
            None,
        );
        assert_eq!(a, vec![BRemove]);
        assert_eq!(f.buffer.num_entries(), 1);

        // Uncovered delete from unbuffered page: C[p]--.
        let mut f = fix();
        let a = apply(
            &mut f,
            Some(TupleRef::new(uncovered(500), Rid::new(2, 0), 2)),
            None,
        );
        assert_eq!(a, vec![DecOld]);
        assert_eq!(f.counters.get(2), 4);
    }

    #[test]
    fn same_page_update_is_consistent() {
        // An uncovered→uncovered update within the same unbuffered page must
        // leave the counter unchanged (−1 then +1).
        let mut f = fix();
        let a = apply(
            &mut f,
            Some(TupleRef::new(uncovered(500), Rid::new(2, 1), 2)),
            Some(TupleRef::new(uncovered(600), Rid::new(2, 1), 2)),
        );
        assert_eq!(a, vec![DecOld, IncNew]);
        assert_eq!(f.counters.get(2), 5);

        // Same within a buffered page: B.Update keeps entries consistent.
        let mut f = fix();
        let a = apply(
            &mut f,
            Some(TupleRef::new(uncovered(500), Rid::new(0, 0), 0)),
            Some(TupleRef::new(uncovered(600), Rid::new(0, 0), 0)),
        );
        assert_eq!(a, vec![BUpdate]);
        assert_eq!(f.buffer.num_entries(), 2);
        f.buffer.check_invariants();
    }

    #[test]
    fn skippability_invariant_preserved() {
        // After any maintenance op, a page with C[p] == 0 must contain no
        // uncovered-unbuffered tuple. We verify the bookkeeping by replaying
        // a mixed op sequence and checking buffer/counter consistency.
        let mut f = fix();
        let ops: Vec<(Option<TupleRef>, Option<TupleRef>)> = vec![
            (None, Some(TupleRef::new(uncovered(700), Rid::new(0, 3), 0))),
            (None, Some(TupleRef::new(uncovered(701), Rid::new(2, 3), 2))),
            (
                Some(TupleRef::new(uncovered(700), Rid::new(0, 3), 0)),
                Some(TupleRef::new(uncovered(702), Rid::new(2, 4), 2)),
            ),
            (Some(TupleRef::new(uncovered(701), Rid::new(2, 3), 2)), None),
            (
                Some(TupleRef::new(uncovered(702), Rid::new(2, 4), 2)),
                Some(TupleRef::new(covered(9), Rid::new(2, 4), 2)),
            ),
        ];
        for (old, new) in ops {
            apply(&mut f, old, new);
            f.buffer.check_invariants();
        }
        // Buffered pages kept C == 0 throughout.
        assert_eq!(f.counters.get(0), 0);
        assert_eq!(f.counters.get(1), 0);
        // Page 2: 5 initial +1 (insert) +1 (move-in) −1 (delete) −1 (covered
        // update takes the uncovered tuple away) = 5.
        assert_eq!(f.counters.get(2), 5);
    }
}
