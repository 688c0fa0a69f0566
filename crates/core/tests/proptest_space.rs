//! Property tests of Algorithm 2 (`SelectPagesForBuffer`) and the
//! displacement machinery: whatever the buffer population and counter
//! state, a selection must respect the byte budget, `I^MAX`, the
//! ascending-counter order, exact counter restoration for displaced pages,
//! and exact byte restoration to the memory governor.

use aib_core::{BufferConfig, IndexBufferSpace, SpaceConfig};
use aib_storage::{BudgetComponent, MemoryUsage, Rid, Value, DEFAULT_ENTRY_FOOTPRINT};
use proptest::prelude::*;

/// A randomly pre-populated space: `n_buffers` buffers, each with its own
/// counters and some pages already indexed; distinct query histories.
#[derive(Debug, Clone)]
struct SpaceSetup {
    max_entries: usize,
    i_max: u32,
    partition_pages: u32,
    /// Per buffer: (initial per-page counters, pages to pre-index, uses).
    buffers: Vec<(Vec<u32>, Vec<u8>, u8)>,
    target: usize,
}

fn setup_strategy() -> impl Strategy<Value = SpaceSetup> {
    let buffer = (
        prop::collection::vec(1u32..6, 10..30),
        prop::collection::vec(any::<u8>(), 0..15),
        0u8..30,
    );
    (
        20usize..200,
        1u32..20,
        1u32..8,
        prop::collection::vec(buffer, 2..4),
    )
        .prop_flat_map(|(max_entries, i_max, partition_pages, buffers)| {
            let n = buffers.len();
            (
                Just(max_entries),
                Just(i_max),
                Just(partition_pages),
                Just(buffers),
                0..n,
            )
        })
        .prop_map(
            |(max_entries, i_max, partition_pages, buffers, target)| SpaceSetup {
                max_entries,
                i_max,
                partition_pages,
                buffers,
                target,
            },
        )
}

fn build(setup: &SpaceSetup) -> IndexBufferSpace {
    let mut space = IndexBufferSpace::new(SpaceConfig {
        max_bytes: Some(setup.max_entries * DEFAULT_ENTRY_FOOTPRINT),
        i_max: setup.i_max,
        seed: 7,
    });
    for (i, (counts, pre_index, uses)) in setup.buffers.iter().enumerate() {
        let cfg = BufferConfig {
            partition_pages: setup.partition_pages,
            history_k: 4,
        };
        let id = space.register(format!("b{i}"), cfg, counts.clone());
        // Pre-index some pages (as earlier scans would have), while budget
        // remains.
        for &raw in pre_index {
            let page = u32::from(raw) % counts.len() as u32;
            let headroom = setup.max_entries.saturating_sub(space.total_entries());
            space.with_buffer_mut(id, |buffer, counters| {
                let n = counters.get(page);
                if buffer.is_buffered(page) || n == 0 || n as usize > headroom {
                    return;
                }
                counters.set_zero(page);
                buffer.index_page(
                    page,
                    (0..n).map(|s| {
                        (
                            Value::Int(i64::from(page) * 100 + i64::from(s)),
                            Rid::new(page, s as u16),
                        )
                    }),
                );
            });
        }
        for _ in 0..*uses {
            space.on_query(Some(id), false);
        }
    }
    space
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn selection_invariants(setup in setup_strategy()) {
        let mut space = build(&setup);
        let target = setup.target;
        // The target is "used" right before selecting, as in Algorithm 1.
        space.on_query(Some(target), false);

        let unindexed_before: Vec<u64> = (0..space.num_buffers())
            .map(|b| space.counters(b).total_unindexed())
            .collect();
        let skippable_before = space.counters(target).fully_indexed_pages();
        let footprint_before = space.footprint();

        let selection = space.select_pages_for_buffer(target);

        // (1) Page budget: at most I^MAX pages.
        prop_assert!(selection.pages.len() <= setup.i_max as usize);
        // (2) Only pages needing work are selected, each at most once.
        let mut seen = std::collections::HashSet::new();
        for &p in &selection.pages {
            prop_assert!(space.counters(target).get(p) > 0, "page {p} needs indexing");
            prop_assert!(seen.insert(p), "page {p} selected twice");
        }
        // (3) Entry accounting: expected entries equals the counter sum.
        let sum: usize =
            selection.pages.iter().map(|&p| space.counters(target).get(p) as usize).sum();
        prop_assert_eq!(selection.expected_entries, sum);
        // (4) Space bound: the new entries fit the freed budget.
        prop_assert!(selection.expected_entries <= space.free_entries(),
            "selection must fit: {} > {}", selection.expected_entries, space.free_entries());
        // (5) Ascending-counter order.
        let counters: Vec<u32> =
            selection.pages.iter().map(|&p| space.counters(target).get(p)).collect();
        prop_assert!(counters.windows(2).all(|w| w[0] <= w[1]), "ascending C order: {counters:?}");
        // (6) Displacement restores counters exactly: each displaced
        // buffer's unindexed total grows by what its dropped pages held;
        // the target's own total is untouched by displacement.
        let mut freed_by_buffer = vec![0u64; space.num_buffers()];
        for d in &selection.displaced {
            prop_assert_ne!(d.buffer, target, "own partitions are never victims");
            freed_by_buffer[d.buffer] += d.entries_freed as u64;
        }
        for b in 0..space.num_buffers() {
            prop_assert_eq!(
                space.counters(b).total_unindexed(),
                unindexed_before[b] + freed_by_buffer[b],
                "buffer {} counter restoration", b
            );
        }
        // (7) The target never loses skippable pages by selecting.
        prop_assert!(space.counters(target).fully_indexed_pages() >= skippable_before.min(
            space.counters(target).fully_indexed_pages()));
        // (8) Byte accounting: the selection's byte estimate matches its
        // entry estimate, and fits the governor's headroom.
        prop_assert_eq!(selection.expected_bytes,
            selection.expected_entries * DEFAULT_ENTRY_FOOTPRINT);
        prop_assert!(selection.expected_bytes <= space.free_bytes());
        // (9) Displacement only fires when the incoming benefit strictly
        // exceeds the benefit of everything discarded.
        if !selection.displaced.is_empty() {
            let discarded: f64 = selection.displaced.iter().map(|d| d.benefit).sum();
            prop_assert!(selection.benefit > discarded,
                "benefit {} must exceed discarded {}", selection.benefit, discarded);
        }
        // (10) Dropping a partition returns exactly the bytes its footprint
        // reported: the resident footprint shrank by the sum of bytes_freed.
        let bytes_freed: usize = selection.displaced.iter().map(|d| d.bytes_freed).sum();
        prop_assert_eq!(space.footprint(), footprint_before - bytes_freed);
        for d in &selection.displaced {
            prop_assert_eq!(d.bytes_freed, d.entries_freed * DEFAULT_ENTRY_FOOTPRINT,
                "INTEGER entries cost exactly DEFAULT_ENTRY_FOOTPRINT each");
        }
        space.check_invariants();

        // Simulate the scan actually indexing the selection; the bound must
        // then hold exactly.
        let pages = selection.pages.clone();
        space.with_buffer_mut(target, |buffer, counters| {
            for &p in &pages {
                let n = counters.set_zero(p);
                buffer.index_page(
                    p,
                    (0..n).map(|s| (Value::Int(i64::from(p) * 1000 + i64::from(s)), Rid::new(p, s as u16))),
                );
            }
        });
        prop_assert!(space.total_entries() <= setup.max_entries,
            "bound holds after indexing: {} > {}", space.total_entries(), setup.max_entries);
        // (11) The governor never exceeds its byte budget: after indexing
        // the selection, resident bytes stay under the configured cap.
        space.sync_budget();
        let budget = space.budget();
        let cap = budget.component_limit(BudgetComponent::IndexSpace)
            .expect("bounded setup carries a byte cap");
        prop_assert!(budget.used(BudgetComponent::IndexSpace) <= cap,
            "governor bound: {} > {}", budget.used(BudgetComponent::IndexSpace), cap);
        prop_assert_eq!(cap, setup.max_entries * DEFAULT_ENTRY_FOOTPRINT,
            "max_entries shim maps to bytes exactly");
        space.check_invariants();
    }
}
