//! `apply_staged` enters all its pages as one sorted batch per partition;
//! this checks it against a page-by-page reference — the
//! same partitions holding the same pages with the same restore counts,
//! the same victim order, the same answers — across staged sets that hold
//! already-zeroed pages, pages staged twice, repeated entries, and more
//! pages than the open partition has room for. Every run is checked twice:
//! on INTEGER entries, and on string entries that share their first eight
//! bytes, so the packed form's order falls back to the strings.

use aib_core::{apply_staged, BufferConfig, IndexBuffer, PageCounters, ScanStats, StagedPage};
use aib_storage::{Rid, Value};
use proptest::prelude::*;

/// A staged page: `(page, entries as (value, rid page, slot))`.
type Page = (u32, Vec<(i64, u32, u16)>);

/// One step of a run, applied to both sides.
#[derive(Debug, Clone)]
enum Step {
    /// Stage these pages.
    Apply(Vec<Page>),
    /// Drop the first partition in victim order and restore its counters,
    /// as displacement does — reopens the open partition on the next apply.
    Drop,
}

const PAGES: u32 = 24;

fn step() -> impl Strategy<Value = Step> {
    // Few values and a small rid domain, so entries repeat within a page,
    // across pages, and against what a partition already holds.
    let entry = (0i64..10, 0u32..6, 0u16..4);
    let page = (0..PAGES, prop::collection::vec(entry, 0..8));
    prop_oneof![
        6 => prop::collection::vec(page, 0..12).prop_map(Step::Apply),
        1 => Just(Step::Drop),
    ]
}

/// A page's entries, each value drawn as `v` made `value(v)`.
fn entries(page: &Page, value: fn(i64) -> Value) -> Vec<(Value, Rid)> {
    page.1
        .iter()
        .map(|&(v, page, slot)| (value(v), Rid::new(page, slot)))
        .collect()
}

/// The staged pages.
fn staged(pages: &[Page], value: fn(i64) -> Value) -> Vec<StagedPage> {
    pages
        .iter()
        .map(|page| StagedPage {
            ordinal: page.0,
            entries: entries(page, value).into_iter().collect(),
        })
        .collect()
}

/// Strings whose first eight bytes tie, in the order of `v` (0..10).
fn shared_prefix(v: i64) -> Value {
    Value::from(format!("shared-prefix-{v}"))
}

/// The reference: one `index_page` per staged page, each checked against
/// the live `C[p]` first.
fn apply_reference(
    buffer: &mut IndexBuffer,
    counters: &mut PageCounters,
    pages: &[Page],
    value: fn(i64) -> Value,
    stats: &mut ScanStats,
) -> usize {
    let mut pages: Vec<&Page> = pages.iter().collect();
    pages.sort_by_key(|page| page.0);
    let mut skipped = 0;
    for page in pages {
        let ordinal = page.0;
        if counters.get(ordinal) == 0 {
            skipped += 1;
            continue;
        }
        stats.entries_added += u64::from(buffer.index_page(ordinal, entries(page, value)));
        counters.set_zero(ordinal);
        stats.pages_indexed += 1;
    }
    skipped
}

/// One partition as observed: id, `(page, restore count)`s, entries.
type Observed = (u64, Vec<(u32, u32)>, Vec<(Value, Rid)>);

/// Everything observable about a buffer, in a comparable order: its
/// partitions and its victim order.
fn observe(buffer: &IndexBuffer) -> (Vec<Observed>, Vec<u64>) {
    let mut ids: Vec<u64> = buffer.partition_ids().collect();
    ids.sort_unstable();
    let partitions = ids
        .into_iter()
        .map(|id| {
            let p = buffer.partition(id).expect("listed partition exists");
            let mut pages: Vec<(u32, u32)> = p.pages().collect();
            pages.sort_unstable();
            let mut entries = Vec::new();
            p.for_each(|v, rid| entries.push((v.clone(), rid)));
            (id, pages, entries)
        })
        .collect();
    (partitions, buffer.partitions_in_victim_order())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn batched_apply_matches_page_by_page(
        partition_pages in 1u32..6,
        initial in prop::collection::vec(0u32..3, PAGES as usize..PAGES as usize + 1),
        steps in prop::collection::vec(step(), 1..10),
    ) {
        let config = BufferConfig { partition_pages, history_k: 2 };
        for value in [Value::Int as fn(i64) -> Value, shared_prefix] {
            let mut batched = (IndexBuffer::new(0, "a", config), PageCounters::from_counts(initial.clone()));
            let mut reference = (IndexBuffer::new(0, "a", config), PageCounters::from_counts(initial.clone()));
            for (at, step) in steps.iter().cloned().enumerate() {
                match step {
                    Step::Apply(pages) => {
                        let (mut got, mut want) = (ScanStats::default(), ScanStats::default());
                        let skipped = apply_staged(&mut batched.0, &mut batched.1, staged(&pages, value), &mut got);
                        let skipped_ref =
                            apply_reference(&mut reference.0, &mut reference.1, &pages, value, &mut want);
                        prop_assert_eq!(skipped, skipped_ref, "skipped at step {}", at);
                        prop_assert_eq!(got, want, "stats at step {}", at);
                    }
                    Step::Drop => {
                        for (buffer, counters) in [&mut batched, &mut reference] {
                            if let Some(&victim) = buffer.partitions_in_victim_order().first() {
                                let dropped = buffer.drop_partition(victim).expect("victim exists");
                                for (page, restore) in dropped.pages {
                                    counters.restore(page, restore);
                                }
                            }
                        }
                    }
                }
                prop_assert_eq!(observe(&batched.0), observe(&reference.0), "buffer at step {}", at);
                for page in 0..PAGES {
                    prop_assert_eq!(batched.1.get(page), reference.1.get(page), "C[{}] at step {}", page, at);
                }
                prop_assert_eq!(batched.1.check_bitset(), Ok(()));
                for v in 0..10 {
                    prop_assert_eq!(
                        batched.0.scan_point(&value(v)),
                        reference.0.scan_point(&value(v))
                    );
                }
                prop_assert_eq!(
                    batched.0.scan_range(&value(2), &value(6)),
                    reference.0.scan_range(&value(2), &value(6))
                );
                prop_assert_eq!(batched.0.num_entries(), reference.0.num_entries());
                batched.0.check_invariants();
            }
        }
    }
}
