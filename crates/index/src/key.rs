//! Index entry keys: `(value, rid)`, packed.
//!
//! Secondary indexes are not unique — many tuples can share a column value —
//! so entries are keyed by the pair of value and record id, ordered value
//! first. All rids for a value then form one contiguous key range.
//!
//! One packed form carries an entry from the page that stages it to the
//! tree that holds it: a NULL or INTEGER entry is one `u128` whose integer
//! order is the entry order, and a string entry keeps its string beside its
//! first eight bytes. Every NULL and INTEGER entry sorts before every
//! string, so each structure keeps the two kinds in two lists that never
//! interleave. [`PackedEntries`] is a page's or a batch's entries in any
//! order; [`BTreeIndex`](crate::BTreeIndex) holds them in two ordered sets
//! and merges a batch into them in one sorted walk.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::ops::Bound;

use aib_storage::{ColumnView, Rid, Value, ENTRY_BASE_BYTES};

/// The variant bit of a packed INTEGER entry; a NULL entry's is clear.
const INT: u128 = 1 << 126;

/// The smallest and the largest rid: the bounds of a value's key range.
const FIRST_RID: Rid = Rid {
    page: aib_storage::PageId(0),
    slot: aib_storage::SlotId(0),
};
const LAST_RID: Rid = Rid {
    page: aib_storage::PageId(u32::MAX),
    slot: aib_storage::SlotId(u16::MAX),
};

/// An entry as the packed lists compare it.
pub(crate) enum Key<'a> {
    /// A NULL or INTEGER entry, whole: variant, order-preserving value
    /// bits, page, slot — a smaller integer is a smaller entry.
    Fixed(u128),
    /// A string entry.
    Str(&'a str, Rid),
}

#[inline]
pub(crate) fn key(value: ColumnView<'_>, rid: Rid) -> Key<'_> {
    let rid_bits = u128::from(rid.page.0) << 16 | u128::from(rid.slot.0);
    match value {
        ColumnView::Null => Key::Fixed(rid_bits),
        ColumnView::Int(v) => Key::Fixed(INT | u128::from((v as u64) ^ (1 << 63)) << 48 | rid_bits),
        ColumnView::Str(s) => Key::Str(s, rid),
    }
}

#[inline]
pub(crate) fn unpack<'a>(key: u128) -> (ColumnView<'a>, Rid) {
    let rid = Rid::new((key >> 16) as u32, key as u16);
    if key & INT == 0 {
        (ColumnView::Null, rid)
    } else {
        (
            ColumnView::Int((((key >> 48) as u64) ^ (1 << 63)) as i64),
            rid,
        )
    }
}

/// Bytes an entry of `value` is charged: [`aib_storage::entry_footprint`].
pub(crate) fn footprint(value: ColumnView<'_>) -> usize {
    ENTRY_BASE_BYTES + value.encoded_len()
}

/// A string entry. `head` is the string's first eight bytes, big-endian
/// and zero-padded: a smaller head means a smaller string, so the derived
/// `(head, value, rid)` order is `(value, rid)` order, and only entries
/// whose heads tie compare their strings.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct StrEntry {
    head: u64,
    pub(crate) value: String,
    pub(crate) rid: Rid,
}

impl StrEntry {
    pub(crate) fn new(value: String, rid: Rid) -> Self {
        let mut head = [0u8; 8];
        for (to, from) in head.iter_mut().zip(value.as_bytes()) {
            *to = *from;
        }
        StrEntry {
            head: u64::from_be_bytes(head),
            value,
            rid,
        }
    }

    fn cmp_key(&self, value: &str, rid: Rid) -> Ordering {
        (self.value.as_str(), self.rid).cmp(&(value, rid))
    }
}

/// `(value, rid)` entries in packed form, in the order they were pushed —
/// what the sweep stages for a page it indexes, and what a batch is before
/// [`BTreeIndex::merge`](crate::BTreeIndex::merge) sorts it.
///
/// A NULL or INTEGER entry needs no allocation; a string entry owns its
/// string, which moves with it into the tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedEntries {
    /// NULL and INTEGER entries ([`Key::Fixed`]).
    pub(crate) fixed: Vec<u128>,
    /// String entries.
    pub(crate) strs: Vec<StrEntry>,
}

impl PackedEntries {
    /// Empty, with room for `n` NULL or INTEGER entries.
    pub fn with_capacity(n: usize) -> Self {
        PackedEntries {
            fixed: Vec::with_capacity(n),
            strs: Vec::new(),
        }
    }

    /// Appends the entry `(value, rid)`.
    #[inline]
    pub fn push(&mut self, value: ColumnView<'_>, rid: Rid) {
        match key(value, rid) {
            Key::Fixed(k) => self.fixed.push(k),
            Key::Str(s, rid) => self.strs.push(StrEntry::new(s.to_owned(), rid)),
        }
    }

    /// Appends a copy of every entry of `other`.
    pub fn extend_from(&mut self, other: &PackedEntries) {
        self.fixed.extend_from_slice(&other.fixed);
        self.strs.extend_from_slice(&other.strs);
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.fixed.len() + self.strs.len()
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entries as borrowed values with their rids: the NULL and INTEGER
    /// ones in push order, then the strings in push order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ColumnView<'_>, Rid)> + '_ {
        let fixed = self.fixed.iter().map(|&k| unpack(k));
        let strs = self.strs.iter().map(|e| (ColumnView::Str(&e.value), e.rid));
        fixed.chain(strs)
    }
}

impl FromIterator<(Value, Rid)> for PackedEntries {
    /// Packs owned entries; strings move into the packed form.
    fn from_iter<I: IntoIterator<Item = (Value, Rid)>>(entries: I) -> Self {
        let mut packed = PackedEntries::default();
        for (value, rid) in entries {
            match value {
                Value::Str(s) => packed.strs.push(StrEntry::new(s, rid)),
                other => packed.push(other.view(), rid),
            }
        }
        packed
    }
}

/// A lower and an upper bound.
pub(crate) type Bounds<T> = (Bound<T>, Bound<T>);

/// The entries with values in `[lo, hi]`, as bounds on each list; `None`
/// for a list none of them is in.
pub(crate) struct Span {
    pub(crate) fixed: Option<Bounds<u128>>,
    pub(crate) strs: Option<Bounds<StrEntry>>,
}

impl Span {
    /// `None` when `lo > hi` (a reversed `Between`).
    pub(crate) fn of(lo: &Value, hi: &Value) -> Option<Span> {
        use Bound::{Included, Unbounded};
        if lo > hi {
            return None;
        }
        let str_bound = |s: &str, rid| Included(StrEntry::new(s.to_owned(), rid));
        // Every fixed entry is below every string: a string bound leaves
        // the other list whole on its side, or empty.
        Some(
            match (key(lo.view(), FIRST_RID), key(hi.view(), LAST_RID)) {
                (Key::Fixed(lo), Key::Fixed(hi)) => Span {
                    fixed: Some((Included(lo), Included(hi))),
                    strs: None,
                },
                (Key::Fixed(lo), Key::Str(hi, rid)) => Span {
                    fixed: Some((Included(lo), Unbounded)),
                    strs: Some((Unbounded, str_bound(hi, rid))),
                },
                (Key::Str(lo, lo_rid), Key::Str(hi, hi_rid)) => Span {
                    fixed: None,
                    strs: Some((str_bound(lo, lo_rid), str_bound(hi, hi_rid))),
                },
                (Key::Str(..), Key::Fixed(_)) => return None,
            },
        )
    }
}

/// Sorts packed keys with one counting pass per byte in which they differ,
/// least significant first (an LSD radix sort): linear in the keys, and the
/// bytes every key shares — the variant, the high bits of a narrow value
/// domain, unused page bits — cost nothing.
pub(crate) fn sort_fixed(keys: &mut Vec<u128>) {
    let Some(&first) = keys.first() else {
        return;
    };
    let varying = keys.iter().fold(0, |acc, &k| acc | (k ^ first));
    let mut spare = vec![0; keys.len()];
    for shift in (0..u128::BITS).step_by(8) {
        if (varying >> shift) as u8 == 0 {
            continue;
        }
        let digit = |k: u128| usize::from((k >> shift) as u8);
        let mut next = [0usize; 256];
        for &k in keys.iter() {
            if let Some(n) = next.get_mut(digit(k)) {
                *n += 1;
            }
        }
        let mut start = 0;
        for n in next.iter_mut() {
            (*n, start) = (start, start + *n);
        }
        for &k in keys.iter() {
            if let Some(at) = next.get_mut(digit(k)) {
                if let Some(slot) = spare.get_mut(*at) {
                    *slot = k;
                }
                *at += 1;
            }
        }
        std::mem::swap(keys, &mut spare);
    }
}

/// Merges sorted `batch` (repeats allowed) into `resident` in one linear
/// walk and builds the set again from the merged run in one pass. Calls
/// `on_new` for each entry added. Every batch entry that is not added on
/// its first occurrence goes to `repeats`, in order: with `true` when a
/// repeat of a new entry (one occurrence of it was added), `false` when
/// `resident` already held it (none was).
pub(crate) fn merge_sorted<T: Ord + Clone>(
    resident: BTreeSet<T>,
    batch: Vec<T>,
    repeats: &mut Vec<(T, bool)>,
    mut on_new: impl FnMut(&T),
) -> BTreeSet<T> {
    if batch.is_empty() {
        return resident;
    }
    let mut out = Vec::with_capacity(resident.len() + batch.len());
    let mut resident = resident.into_iter().peekable();
    let mut batch = batch.into_iter().peekable();
    while let Some(entry) = batch.next() {
        while let Some(old) = resident.next_if(|old| *old < entry) {
            out.push(old);
        }
        let mut repeated = false;
        while batch.next_if_eq(&entry).is_some() {
            repeated = true;
        }
        if let Some(old) = resident.next_if_eq(&entry) {
            repeats.push((entry, false));
            out.push(old);
        } else {
            if repeated {
                repeats.push((entry.clone(), true));
            }
            on_new(&entry);
            out.push(entry);
        }
    }
    out.extend(resident);
    out.into_iter().collect()
}

/// The batch entries a [`BTreeIndex::merge`](crate::BTreeIndex::merge)
/// did not add where they first occurred: repeats within the batch and
/// entries the index already held. Walking the batch in its own order and
/// asking [`admit`](Self::admit) of each entry names exactly the
/// occurrences that were added — the first of each new entry — without the
/// merge having tracked positions.
#[derive(Debug, Default)]
pub struct Repeats {
    /// `(entry, still unclaimed)`, in entry order.
    pub(crate) fixed: Vec<(u128, bool)>,
    pub(crate) strs: Vec<(StrEntry, bool)>,
}

impl Repeats {
    /// True when the merge added every batch entry (no repeat, none
    /// resident) — the case of every real sweep.
    pub fn is_empty(&self) -> bool {
        self.fixed.is_empty() && self.strs.is_empty()
    }

    /// Whether this occurrence of `(value, rid)` is the one the merge
    /// added, when called for the batch's entries in batch order: always
    /// for an entry that occurred once and was new; for a repeated new
    /// entry, at its first call only; never for an entry the index held.
    pub fn admit(&mut self, value: ColumnView<'_>, rid: Rid) -> bool {
        let unclaimed = match key(value, rid) {
            Key::Fixed(k) => self
                .fixed
                .binary_search_by(|(e, _)| e.cmp(&k))
                .ok()
                .and_then(|at| self.fixed.get_mut(at))
                .map(|(_, open)| open),
            Key::Str(s, rid) => self
                .strs
                .binary_search_by(|(e, _)| e.cmp_key(s, rid))
                .ok()
                .and_then(|at| self.strs.get_mut(at))
                .map(|(_, open)| open),
        };
        unclaimed.is_none_or(|open| std::mem::replace(open, false))
    }

    /// How many of `group`'s entries were added — [`admit`](Self::admit)
    /// over the group. Call for a batch's groups in batch order.
    pub fn admitted(&mut self, group: &PackedEntries) -> usize {
        if self.is_empty() {
            return group.len();
        }
        group
            .iter()
            .filter(|&(value, rid)| self.admit(value, rid))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BTreeIndex;
    use aib_storage::MemoryUsage;

    fn fixed(value: i64, page: u32, slot: u16) -> u128 {
        match key(ColumnView::Int(value), Rid::new(page, slot)) {
            Key::Fixed(k) => k,
            Key::Str(..) => panic!("an integer packs fixed"),
        }
    }

    #[test]
    fn ordering_is_value_major() {
        let a = fixed(1, 9, 9);
        assert!(a < fixed(2, 0, 0));
        assert!(a < fixed(1, 9, 10));
        assert!(
            fixed(-1, u32::MAX, u16::MAX) < fixed(0, 0, 0),
            "signed order"
        );
    }

    #[test]
    fn min_max_bracket_all_rids() {
        let Some(Span {
            fixed: Some((Bound::Included(lo), Bound::Included(hi))),
            strs: None,
        }) = Span::of(&Value::Int(7), &Value::Int(7))
        else {
            panic!("an integer point spans fixed keys only");
        };
        let k = fixed(7, 123, 45);
        assert!(lo <= k && k <= hi);
        // Bounds do not leak into neighbouring values.
        assert!(hi < fixed(8, 0, 0));
        assert!(fixed(6, u32::MAX, u16::MAX) < lo);
    }

    fn entries() -> Vec<(Value, Rid)> {
        let mut out = vec![
            (Value::Null, Rid::new(3, 1)),
            (Value::Null, Rid::new(u32::MAX, u16::MAX)),
            (Value::from(""), Rid::new(0, 0)),
            (Value::from("abc"), Rid::new(1, 0)),
            (Value::from("abc\0"), Rid::new(0, 0)),
            (Value::from("abcdefgh"), Rid::new(2, 0)),
            (Value::from("abcdefgh-a"), Rid::new(0, 0)),
            (Value::from("abcdefgh-a"), Rid::new(0, 1)),
            (Value::from("abcdefgh-b"), Rid::new(0, 0)),
        ];
        for v in [i64::MIN, -1, 0, 1, i64::MAX] {
            out.push((Value::Int(v), Rid::new(0, 0)));
            out.push((Value::Int(v), Rid::new(7, 2)));
        }
        out
    }

    #[test]
    fn packed_order_is_entry_order() {
        let mut want = entries();
        want.reverse();
        let mut tree = BTreeIndex::new();
        assert!(tree.merge(want.iter().cloned().collect()).is_empty());
        want.sort();
        let mut got = Vec::new();
        tree.for_each(|v, r| got.push((v.clone(), r)));
        assert_eq!(got, want, "sorted packed order is (value, rid) order");
    }

    #[test]
    fn tree_lookups_agree_with_entry_order() {
        let all = entries();
        let mut tree = BTreeIndex::new();
        tree.merge(all.iter().cloned().collect());
        let bytes: usize = all
            .iter()
            .map(|(v, _)| aib_storage::entry_footprint(v))
            .sum();
        assert_eq!(tree.footprint(), bytes);
        tree.check_invariants();
        let probes = [
            Value::Null,
            Value::Int(i64::MIN),
            Value::Int(0),
            Value::Int(5),
            Value::Int(i64::MAX),
            Value::from(""),
            Value::from("abc"),
            Value::from("abcdefgh-a"),
            Value::from("zzz"),
        ];
        for lo in &probes {
            for hi in &probes {
                let mut want: Vec<_> = all
                    .iter()
                    .filter(|(v, _)| lo <= v && v <= hi)
                    .cloned()
                    .collect();
                want.sort();
                let want: Vec<Rid> = want.into_iter().map(|(_, r)| r).collect();
                assert_eq!(tree.lookup_range(lo, hi), want, "[{lo}, {hi}]");
            }
        }
        for (v, r) in &all {
            assert!(tree.contains(v, *r), "{v} {r}");
            assert!(!tree.contains(v, Rid::new(5, 5)), "{v}");
        }
    }

    #[test]
    fn merge_reports_repeats_and_resident_entries() {
        let e = |v: &str, page| (Value::from(v), Rid::new(page, 0));
        let i = |v: i64, page| (Value::Int(v), Rid::new(page, 0));
        let mut tree = BTreeIndex::new();
        tree.merge([i(1, 0), e("shared-prefix-a", 0)].into_iter().collect());
        let batch = [
            i(1, 0),                 // resident
            i(2, 0),                 // new
            i(2, 0),                 // repeat of a new entry
            e("shared-prefix-a", 0), // resident
            e("shared-prefix-b", 0), // new, same eight-byte head
            e("shared-prefix-b", 0), // repeat
            e("shared-prefix-b", 1), // new: same value, other rid
        ];
        let mut repeats = tree.merge(batch.iter().cloned().collect());
        assert_eq!(tree.len(), 5);
        let admitted: Vec<bool> = batch
            .iter()
            .map(|(v, r)| repeats.admit(v.view(), *r))
            .collect();
        assert_eq!(admitted, [false, true, false, false, true, false, true]);
    }
}
