//! The Index Buffer Space: all Index Buffers of the system, their share of
//! the byte-accurate [`MemoryBudget`], and the displacement machinery of
//! paper §IV.
//!
//! Responsibilities:
//!
//! * **Registry** — one [`IndexBuffer`] (plus its `C[p]` counters) per
//!   partial index, keyed by [`BufferId`].
//! * **Table II** — applying the LRU-K history operations on every query.
//! * **Algorithm 2** — [`IndexBufferSpace::select_pages_for_buffer`]:
//!   choosing the pages an indexing scan should buffer, displacing old
//!   partitions only while the new index information is more beneficial
//!   than what is discarded, and never exceeding the governor's byte
//!   headroom (the paper's entry bound `L` compiles down to bytes via
//!   [`SpaceConfig::budget_bytes`]).
//!
//! Victim selection lives in [`BenefitPolicy`], which plays the same role
//! for partitions that LRU plays for buffer-pool frames; both displacement
//! pipelines draw on one governor. Stage 1 sees **every** buffer of the
//! system — the paper has one Index Buffer Space bounded by `L`.
//!
//! ### Deviation from the paper's pseudocode
//!
//! Algorithm 2 as printed exits its outer loop *before* re-growing the page
//! set with the newly victimised partition's space (the until-condition
//! tests `b_I'` computed against the previous victim set). Read literally,
//! a full Index Buffer Space would never displace anything (with `n_F = 0`
//! the first candidate set is empty, so the loop exits immediately) —
//! contradicting the paper's own experiment 3, where buffers displace each
//! other freely. We therefore implement the *stated intent* (§IV: "indexes
//! precisely so many pages that the resulting new index information is more
//! beneficial than the old index information that the system must discard"):
//! grow the victim set one partition at a time, recompute the achievable
//! page set, and commit while `b_I > Σ b_p` over the victims.

// aib-lint: allow-file(no-index) — `slots` is only ever indexed by positions
// this module itself resolved via `slot_pos` (which verifies registration);
// remaining brackets index vectors built a few lines above their use. The
// runtime shadow model covers the semantic risk.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::sync::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use aib_storage::{BudgetComponent, FrameId, MemoryBudget, MemoryUsage, DEFAULT_ENTRY_FOOTPRINT};

use crate::config::{BufferConfig, SpaceConfig};
use crate::counters::PageCounters;
use crate::index_buffer::{BufferId, IndexBuffer};
use crate::partition::PartitionId;

/// Stage 1 of §IV's victim selection.
///
/// The space feeds every eligible Index Buffer's benefit `b_B` via
/// [`record_weight`](BenefitPolicy::record_weight) (in ascending id
/// order) and then asks [`displace`](BenefitPolicy::displace) for a
/// victim: never-used buffers (`b_B = 0`) are picked first, uniformly among
/// themselves; otherwise a buffer is picked with probability proportional
/// to `1 / b_B`. The RNG is seeded so experiments stay reproducible.
pub struct BenefitPolicy {
    rng: StdRng,
    /// Candidate weights, iterated in ascending id order so the RNG
    /// consumption is deterministic for a given candidate set.
    weights: BTreeMap<FrameId, f64>,
}

impl BenefitPolicy {
    /// Creates a policy with a seeded RNG and no candidates.
    pub fn new(seed: u64) -> Self {
        BenefitPolicy {
            rng: StdRng::seed_from_u64(seed),
            weights: BTreeMap::new(),
        }
    }

    /// Forgets all candidate weights. The space re-feeds them before every
    /// pick because benefits change with every query.
    pub fn clear_weights(&mut self) {
        self.weights.clear();
    }

    /// Notes the current benefit weight of `id` — larger weights displace
    /// later.
    pub fn record_weight(&mut self, id: FrameId, weight: f64) {
        self.weights.insert(id, weight);
    }

    /// Picks an unblocked victim id and forgets its weight, or returns
    /// `None` if every candidate is blocked.
    pub fn displace(&mut self, blocked: &dyn Fn(FrameId) -> bool) -> Option<FrameId> {
        let eligible: Vec<(FrameId, f64)> = self
            .weights
            .iter()
            .map(|(&id, &b)| (id, b))
            .filter(|&(id, _)| !blocked(id))
            .collect();
        if eligible.is_empty() {
            return None;
        }
        // Zero-benefit candidates are infinitely likely under 1/b weighting.
        let zeros: Vec<FrameId> = eligible
            .iter()
            .filter(|&&(_, b)| b <= f64::EPSILON)
            .map(|&(id, _)| id)
            .collect();
        let chosen = if !zeros.is_empty() {
            let pick = self.rng.gen_range(0..zeros.len());
            zeros.get(pick).copied()
        } else {
            let total: f64 = eligible.iter().map(|&(_, b)| 1.0 / b).sum();
            let mut roll = self.rng.gen_range(0.0..total);
            let mut chosen = eligible.last().map(|&(id, _)| id);
            for &(id, b) in &eligible {
                roll -= 1.0 / b;
                if roll <= 0.0 {
                    chosen = Some(id);
                    break;
                }
            }
            chosen
        };
        let chosen = chosen?;
        self.weights.remove(&chosen);
        Some(chosen)
    }
}

impl std::fmt::Debug for BenefitPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BenefitPolicy")
            .field("candidates", &self.weights.len())
            .finish()
    }
}

/// A displacement performed during page selection.
#[derive(Debug, Clone, PartialEq)]
pub struct Displacement {
    /// Buffer that lost a partition.
    pub buffer: BufferId,
    /// The dropped partition.
    pub partition: PartitionId,
    /// Entries freed by the drop.
    pub entries_freed: usize,
    /// Bytes returned to the governor by the drop.
    pub bytes_freed: usize,
    /// Pages that ceased to be skippable.
    pub pages_uncovered: usize,
    /// The partition's benefit `b_p` at displacement time.
    pub benefit: f64,
}

/// Result of [`IndexBufferSpace::select_pages_for_buffer`].
#[derive(Debug, Clone, Default)]
pub struct Selection {
    /// Pages to index during the upcoming table scan (the paper's `I`),
    /// in ascending-counter order.
    pub pages: Vec<u32>,
    /// Entries the new index information will occupy (`n_I = Σ C[s]`).
    pub expected_entries: usize,
    /// Byte estimate for the new index information, at
    /// [`DEFAULT_ENTRY_FOOTPRINT`] per expected entry (exact for INTEGER
    /// key columns).
    pub expected_bytes: usize,
    /// Benefit `b_I` of the new index information.
    pub benefit: f64,
    /// Partitions dropped to make room.
    pub displaced: Vec<Displacement>,
}

/// Grows a page set from `candidates` (ascending `(page, C[p])` counter
/// order) within `available` budget bytes, up to `i_max` pages, returning
/// `(pages, expected_entries, expected_bytes)`. Expected entries are costed
/// at [`DEFAULT_ENTRY_FOOTPRINT`] — exact for the INTEGER columns of the
/// paper's experiments, an estimate otherwise (the post-scan sync reconciles
/// the difference). Shared by the locked selection
/// ([`IndexBufferSpace::select_pages_for_buffer`]) and the snapshot-planned
/// one (`SharedSpace::plan_selection`) so the two cannot drift.
pub(crate) fn grow_selection(
    candidates: &[(u32, u32)],
    i_max: usize,
    available: usize,
) -> (usize, usize, usize) {
    let mut pages = 0;
    let mut entries = 0usize;
    let mut bytes = 0usize;
    for &(_, c) in candidates {
        let page_bytes = (c as usize).saturating_mul(DEFAULT_ENTRY_FOOTPRINT);
        if pages >= i_max || bytes.saturating_add(page_bytes) > available {
            break;
        }
        pages += 1;
        entries += c as usize;
        bytes += page_bytes;
    }
    (pages, entries, bytes)
}

/// Deferred Table II events for one buffer: the lock-free fast path
/// accumulates its history operations here instead of taking the space's
/// write lock, and the next write-side entry drains them into the LRU-K
/// history (in deferral order) before reading any benefit.
///
/// The three counters encode one batch: `ticks` queries that only
/// lengthened the open interval, `uses` queries that closed it, and
/// `uses_at` — how many of the ticks preceded the *first* use — which lets
/// the drain replay `tick…use…tick` batches from a single client exactly.
/// Interleaved `use, tick, use` batches from *concurrent* clients collapse
/// to `tick…uses…tick`; the histories those produce differ only in how a
/// racy interleaving was serialised, which no sequential run exhibits.
#[derive(Debug, Default)]
pub struct BufferPending {
    ticks: AtomicU64,
    uses: AtomicU64,
    uses_at: AtomicU64,
}

impl BufferPending {
    /// Defers a batch of `ticks` + `uses` events, `uses_at` ticks before the
    /// first use. Safe to call from any thread, lock-free.
    pub fn defer(&self, ticks: u64, uses: u64, uses_at: u64) {
        let prev_ticks = self.ticks.fetch_add(ticks, Ordering::AcqRel);
        if uses > 0 && self.uses.fetch_add(uses, Ordering::AcqRel) == 0 {
            // First use of the shared batch: anchor it after the ticks
            // already deferred plus our local lead-in.
            self.uses_at
                .store(prev_ticks.saturating_add(uses_at), Ordering::Release);
        }
    }

    /// Takes the accumulated batch, leaving the counters empty. The
    /// `swap`s are what make concurrent [`defer`](Self::defer)s safe: an
    /// increment lands either in the batch this drain takes or in the
    /// empty cell for the next one, never in between. Model test:
    /// `deferred_drain_vs_concurrent_defer`.
    #[cfg(not(model_seeded_bug = "drain_load_store"))]
    fn drain(&self) -> (u64, u64, u64) {
        let ticks = self.ticks.swap(0, Ordering::AcqRel);
        let uses = self.uses.swap(0, Ordering::AcqRel);
        let uses_at = self.uses_at.swap(0, Ordering::AcqRel);
        (ticks, uses, uses_at)
    }

    /// Seeded bug: a load-then-store "drain" loses any defer that lands
    /// between the two — the lost-update race the atomic swap prevents.
    #[cfg(model_seeded_bug = "drain_load_store")]
    fn drain(&self) -> (u64, u64, u64) {
        let ticks = self.ticks.load(Ordering::Acquire);
        self.ticks.store(0, Ordering::Release);
        let uses = self.uses.load(Ordering::Acquire);
        self.uses.store(0, Ordering::Release);
        let uses_at = self.uses_at.load(Ordering::Acquire);
        self.uses_at.store(0, Ordering::Release);
        (ticks, uses, uses_at)
    }

    /// True when no events are waiting.
    pub fn is_empty(&self) -> bool {
        self.ticks.load(Ordering::Acquire) == 0 && self.uses.load(Ordering::Acquire) == 0
    }
}

struct Slot {
    buffer: IndexBuffer,
    counters: PageCounters,
    /// Shared with published snapshots so fast-path queries can defer their
    /// Table II events without the space lock.
    pending: Arc<BufferPending>,
}

/// The Index Buffer Space manager (concurrent clients share it through
/// [`crate::shared::SharedSpace`]).
pub struct IndexBufferSpace {
    /// Registration order, which is ascending id order.
    slots: Vec<Slot>,
    /// The id the next registration gets; ids are never reused.
    next_id: BufferId,
    config: SpaceConfig,
    budget: Arc<MemoryBudget>,
    victim_policy: BenefitPolicy,
    /// Mutation stamp: bumped by every operation that changes buffer or
    /// counter state (never by pure history traffic), so a published
    /// snapshot can tell whether its bitsets are still current.
    epoch: u64,
}

impl IndexBufferSpace {
    /// Creates an empty space with its own private [`MemoryBudget`], capped
    /// at [`SpaceConfig::budget_bytes`] (unlimited when the config sets no
    /// bound).
    pub fn new(config: SpaceConfig) -> Self {
        let budget = match config.budget_bytes() {
            Some(bytes) => {
                MemoryBudget::unlimited().with_component_limit(BudgetComponent::IndexSpace, bytes)
            }
            None => MemoryBudget::unlimited(),
        };
        Self::with_budget(config, Arc::new(budget))
    }

    /// Creates an empty space drawing from a shared [`MemoryBudget`] — the
    /// engine passes the same budget to the buffer pool, so either side's
    /// growth shrinks the other's headroom. The caller is responsible for
    /// configuring the budget's limits (this constructor applies none).
    pub fn with_budget(config: SpaceConfig, budget: Arc<MemoryBudget>) -> Self {
        config.validate();
        IndexBufferSpace {
            slots: Vec::new(),
            next_id: 0,
            victim_policy: BenefitPolicy::new(config.seed),
            config,
            budget,
            epoch: 0,
        }
    }

    /// The space configuration.
    pub fn config(&self) -> &SpaceConfig {
        &self.config
    }

    /// The governor this space draws from.
    pub fn budget(&self) -> &Arc<MemoryBudget> {
        &self.budget
    }

    /// Registers a new Index Buffer, initialising its page counters from the
    /// per-page uncovered-tuple counts of the creation scan ("the array of
    /// all counters is initialized during the creation of the partial
    /// index", §III).
    ///
    /// Taking raw counts (not a [`PageCounters`]) keeps counter construction
    /// inside the space — one of the few modules `aib-lint` permits to
    /// mutate counter state.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        config: BufferConfig,
        counts: Vec<u32>,
    ) -> BufferId {
        let id = self.next_id;
        self.next_id += 1;
        self.epoch += 1;
        self.slots.push(Slot {
            buffer: IndexBuffer::new(id, name, config),
            counters: PageCounters::from_counts(counts),
            pending: Arc::new(BufferPending::default()),
        });
        id
    }

    /// Removes a buffer with everything it holds — the "partial index
    /// dropped" transition. Its bytes return to the governor, its history
    /// stops ticking and its id is never handed out again. Bumps the epoch:
    /// a snapshot published before the drop would otherwise keep answering
    /// from the dropped bitset.
    pub fn unregister(&mut self, id: BufferId) {
        self.epoch += 1;
        self.slots.remove(self.slot_pos(id));
        self.sync_budget();
    }

    /// Number of buffers registered in this space.
    pub fn num_buffers(&self) -> usize {
        self.slots.len()
    }

    /// Ids of the buffers registered here, in registration order.
    pub fn buffer_ids(&self) -> impl Iterator<Item = BufferId> + '_ {
        self.slots.iter().map(|s| s.buffer.id())
    }

    /// Slot position of a registered buffer.
    ///
    /// # Panics
    /// If `id` is not registered in this space — the engine kept a handle
    /// to a dropped buffer, which invariant checks must surface.
    fn slot_pos(&self, id: BufferId) -> usize {
        self.slots
            .iter()
            .position(|s| s.buffer.id() == id)
            // aib-lint: allow(no-panic) — dangling ids are engine bugs.
            .expect("buffer id registered in this space")
    }

    /// Borrows a buffer.
    pub fn buffer(&self, id: BufferId) -> &IndexBuffer {
        &self.slots[self.slot_pos(id)].buffer
    }

    /// Borrows a buffer's counters.
    pub fn counters(&self, id: BufferId) -> &PageCounters {
        &self.slots[self.slot_pos(id)].counters
    }

    /// The deferred-event cell shared with this buffer's snapshots.
    pub fn pending(&self, id: BufferId) -> &Arc<BufferPending> {
        &self.slots[self.slot_pos(id)].pending
    }

    /// Mutably borrows a buffer together with its counters for the duration
    /// of `f` — the only mutable seam the space exposes. Closure scoping
    /// (rather than returned `&mut`s) keeps counter mutation confined to
    /// space-mediated call sites and lets the space stamp every mutation:
    /// the epoch is bumped so published snapshots invalidate.
    /// Callers that add or drop entries should call
    /// [`sync_budget`](Self::sync_budget) when done.
    pub fn with_buffer_mut<R>(
        &mut self,
        id: BufferId,
        f: impl FnOnce(&mut IndexBuffer, &mut PageCounters) -> R,
    ) -> R {
        self.epoch += 1;
        let pos = self.slot_pos(id);
        let slot = &mut self.slots[pos];
        f(&mut slot.buffer, &mut slot.counters)
    }

    /// Replaces a buffer's counters wholesale from freshly recomputed
    /// per-page uncovered counts. Partial-index *redefinition* rebuilds its
    /// bookkeeping with a full scan exactly like index creation does (§III),
    /// so the rebuild flows through the space rather than through a raw
    /// `&mut PageCounters`. Bumps the epoch: the rebuilt skip bitset must
    /// never be served from a previously published snapshot.
    pub fn reset_counters(&mut self, id: BufferId, counts: Vec<u32>) {
        self.epoch += 1;
        let pos = self.slot_pos(id);
        self.slots[pos].counters = PageCounters::from_counts(counts);
        self.sync_budget();
    }

    /// Drops every partition of a buffer and zeroes its counters — the first
    /// half of a coverage redefinition, whose rescan then
    /// [`reset_counters`](Self::reset_counters). Bumps the epoch: a snapshot
    /// published before the clear would otherwise keep answering from the
    /// dropped bitset.
    pub fn clear_buffer(&mut self, id: BufferId) {
        self.epoch += 1;
        let pos = self.slot_pos(id);
        let slot = &mut self.slots[pos];
        let parts: Vec<_> = slot.buffer.partition_ids().collect();
        for p in parts {
            slot.buffer.drop_partition(p);
        }
        slot.counters = PageCounters::new();
        self.sync_budget();
    }

    /// The space's mutation stamp (see the `epoch` field).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Drains every buffer's deferred fast-path events into its LRU-K
    /// history, in deferral order. Write-side entries call this before
    /// reading any benefit so deferred queries are never outrun by a later
    /// query's Table II application.
    pub fn drain_deferred(&mut self) {
        for slot in &mut self.slots {
            let (ticks, uses, uses_at) = slot.pending.drain();
            if ticks == 0 && uses == 0 {
                continue;
            }
            let history = slot.buffer.history_mut();
            if uses > 0 {
                let lead_in = uses_at.min(ticks);
                history.tick_n(lead_in);
                history.record_use_n(uses);
                history.tick_n(ticks - lead_in);
            } else {
                history.tick_n(ticks);
            }
        }
    }

    /// Total entries across all buffers.
    pub fn total_entries(&self) -> usize {
        self.slots.iter().map(|s| s.buffer.num_entries()).sum()
    }

    /// Reconciles the governor's [`BudgetComponent::IndexSpace`] charge with
    /// the true resident footprint. Mutations flow through `&mut IndexBuffer`
    /// borrows the space hands out, so it cannot intercept them one by one;
    /// instead the selection path and the scan/maintenance drivers reconcile
    /// here at their natural barriers.
    pub fn sync_budget(&self) {
        self.budget
            .set_component_usage(BudgetComponent::IndexSpace, self.footprint());
    }

    /// Byte headroom the governor grants this space right now (reconciles
    /// first; `usize::MAX` when unlimited).
    pub fn free_bytes(&self) -> usize {
        self.sync_budget();
        self.budget.headroom(BudgetComponent::IndexSpace)
    }

    /// Free *entries* under the byte budget, at [`DEFAULT_ENTRY_FOOTPRINT`]
    /// bytes per entry (`usize::MAX` when unlimited). Kept so
    /// paper-denominated experiments and tests can keep reasoning in the
    /// paper's unit `L`.
    pub fn free_entries(&self) -> usize {
        if self.budget.is_unlimited(BudgetComponent::IndexSpace) {
            usize::MAX
        } else {
            self.free_bytes() / DEFAULT_ENTRY_FOOTPRINT
        }
    }

    /// Applies Table II to every buffer's history.
    ///
    /// `queried` is the buffer of the queried column; `partial_hit` says
    /// whether the partial index answered the query. A `None` queried buffer
    /// models queries on columns without an Index Buffer (all histories just
    /// tick).
    pub fn on_query(&mut self, queried: Option<BufferId>, partial_hit: bool) {
        for slot in self.slots.iter_mut() {
            if Some(slot.buffer.id()) == queried && !partial_hit {
                slot.buffer.history_mut().record_use();
            } else {
                slot.buffer.history_mut().tick();
            }
        }
    }

    /// Algorithm 2: selects the pages to index for `target` during the
    /// upcoming table scan, displacing partitions as justified by the
    /// benefit model. On return, enough budget headroom is free for the
    /// selection and all counter restores for displaced pages have been
    /// applied.
    pub fn select_pages_for_buffer(&mut self, target: BufferId) -> Selection {
        let i_max = self.config.i_max as usize;
        let tpos = self.slot_pos(target);
        // Candidate pages in ascending counter order (cheapest completions
        // first, §IV) — only the I^MAX cheapest, all a selection can hold.
        let candidates = self.slots[tpos].counters.cheapest_pages(i_max);
        if candidates.is_empty() {
            return Selection::default();
        }
        let target_freq = self.slots[tpos].buffer.use_frequency();

        let grow = |available: usize| grow_selection(&candidates, i_max, available);

        let free = self.free_bytes();
        let (mut best_pages, mut best_entries, mut best_bytes) = grow(free);
        let mut committed_victims: Vec<(BufferId, PartitionId, f64)> = Vec::new();

        if !self.budget.is_unlimited(BudgetComponent::IndexSpace) {
            let mut victims: Vec<(BufferId, PartitionId, f64)> = Vec::new();
            let mut victim_bytes = 0usize;
            let mut victim_benefit = 0.0f64;
            while best_pages < i_max && best_pages < candidates.len() {
                let Some((buf, part)) = self.pick_victim(target, &victims) else {
                    break;
                };
                let bpos = self.slot_pos(buf);
                let benefit = self.slots[bpos].buffer.partition_benefit(part);
                victim_benefit += benefit;
                // A just-picked victim is always present; degrade to zero
                // freed bytes (a conservative non-selection) if it is not.
                victim_bytes += self.slots[bpos]
                    .buffer
                    .partition(part)
                    .map_or(0, MemoryUsage::footprint);
                victims.push((buf, part, benefit));
                let (pages, entries, bytes) = grow(free.saturating_add(victim_bytes));
                let b_new = pages as f64 * target_freq;
                if b_new > victim_benefit && pages > best_pages {
                    best_pages = pages;
                    best_entries = entries;
                    best_bytes = bytes;
                    committed_victims = victims.clone();
                } else {
                    break;
                }
            }
        }

        // Perform the committed displacements, restoring counters.
        let mut displaced = Vec::with_capacity(committed_victims.len());
        for (buf, part, benefit) in committed_victims {
            let bpos = self.slot_pos(buf);
            // A committed victim was present when committed; skipping a
            // vanished one under-reports the displacement, never corrupts.
            let Some(dropped) = self.slots[bpos].buffer.drop_partition(part) else {
                continue;
            };
            for &(page, restore) in &dropped.pages {
                self.slots[bpos].counters.restore(page, restore);
            }
            displaced.push(Displacement {
                buffer: buf,
                partition: part,
                entries_freed: dropped.entries_freed,
                bytes_freed: dropped.bytes_freed,
                pages_uncovered: dropped.pages.len(),
                benefit,
            });
        }
        if !displaced.is_empty() {
            // Counters were restored: published snapshots of the displaced
            // bitsets are stale now.
            self.epoch += 1;
            self.budget.record_displacements(displaced.len() as u64);
        }
        self.sync_budget();

        debug_assert!(
            best_bytes <= self.free_bytes(),
            "selection must fit the freed budget headroom"
        );
        Selection {
            pages: candidates
                .iter()
                .take(best_pages)
                .map(|&(p, _)| p)
                .collect(),
            expected_entries: best_entries,
            expected_bytes: best_bytes,
            benefit: best_pages as f64 * target_freq,
            displaced,
        }
    }

    /// The two-stage victim selection of §IV.
    ///
    /// Stage 1 delegates to the [`BenefitPolicy`]: an Index Buffer other
    /// than the target, with probability proportional to `1 / b_B`
    /// (never-used buffers have zero benefit and are picked first, uniformly
    /// among themselves). Stage 2 picks that buffer's incomplete partition
    /// if any, then complete partitions in descending entry count.
    /// Partitions already in `excluded` are skipped.
    fn pick_victim(
        &mut self,
        target: BufferId,
        excluded: &[(BufferId, PartitionId, f64)],
    ) -> Option<(BufferId, PartitionId)> {
        // Stage 2 helper: first non-excluded partition in victim order.
        let next_of = |slots: &[Slot], pos: usize| -> Option<PartitionId> {
            let id = slots[pos].buffer.id();
            slots[pos]
                .buffer
                .partitions_in_victim_order()
                .into_iter()
                .find(|&p| !excluded.iter().any(|&(b, q, _)| (b, q) == (id, p)))
        };

        // Feed the policy fresh weights for every buffer with at least one
        // selectable partition (slots are in registration order, so ids
        // ascend and the RNG consumption stays deterministic).
        self.victim_policy.clear_weights();
        for (pos, slot) in self.slots.iter().enumerate() {
            if slot.buffer.id() != target && next_of(&self.slots, pos).is_some() {
                self.victim_policy
                    .record_weight(slot.buffer.id(), slot.buffer.benefit());
            }
        }
        let chosen = self.victim_policy.displace(&|_| false)?;
        // Keep the borrow checker happy: recompute stage 2 on the chosen id.
        // Weights were only recorded for buffers with a selectable partition,
        // so stage 2 finding none means "no victim" rather than a panic.
        let part = next_of(&self.slots, self.slot_pos(chosen))?;
        Some((chosen, part))
    }

    /// Consistency check across buffers (tests): per-buffer invariants plus
    /// budget reconciliation — after a sync, the governor's IndexSpace
    /// charge must equal the summed partition footprints exactly.
    pub fn check_invariants(&self) {
        for slot in &self.slots {
            slot.buffer.check_invariants();
            assert_eq!(
                slot.counters.check_bitset(),
                Ok(()),
                "{}: skip bitset mirrors C[p] == 0",
                slot.buffer.name()
            );
        }
        self.sync_budget();
        assert_eq!(
            self.budget.used(BudgetComponent::IndexSpace),
            self.footprint(),
            "governor charge reconciles with the resident footprint"
        );
    }
}

impl MemoryUsage for IndexBufferSpace {
    /// Bytes resident across all Index Buffers.
    fn footprint(&self) -> usize {
        self.slots.iter().map(|s| s.buffer.footprint()).sum()
    }
}

impl std::fmt::Debug for IndexBufferSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexBufferSpace")
            .field("buffers", &self.slots.len())
            .field("total_entries", &self.total_entries())
            .field("resident_bytes", &self.footprint())
            .field("budget_bytes", &self.config.budget_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aib_storage::{Rid, Value};

    /// Paper-denominated helper: `max` entries of budget, in bytes.
    fn cfg(max: Option<usize>, i_max: u32) -> SpaceConfig {
        SpaceConfig {
            max_bytes: max.map(|entries| entries * DEFAULT_ENTRY_FOOTPRINT),
            i_max,
            seed: 42,
        }
    }

    fn bcfg(p: u32) -> BufferConfig {
        BufferConfig {
            partition_pages: p,
            ..Default::default()
        }
    }

    /// Fills `n` pages of `buffer` with one entry each, as an indexing scan
    /// would (completing each page).
    fn fill_pages(space: &mut IndexBufferSpace, id: BufferId, pages: std::ops::Range<u32>) {
        for p in pages {
            space.with_buffer_mut(id, |buffer, counters| {
                buffer.index_page(p, vec![(Value::Int(p as i64), Rid::new(p, 0))]);
                counters.set_zero(p);
            });
        }
        space.sync_budget();
    }

    #[test]
    fn register_and_access() {
        let mut s = IndexBufferSpace::new(cfg(None, 10));
        let a = s.register("A", bcfg(10), vec![1; 100]);
        let b = s.register("B", bcfg(10), vec![2; 50]);
        assert_eq!((a, b), (0, 1));
        assert_eq!(s.num_buffers(), 2);
        assert_eq!(s.buffer(a).name(), "A");
        assert_eq!(s.counters(b).total_unindexed(), 100);
        assert_eq!(s.total_entries(), 0);
        assert_eq!(s.free_entries(), usize::MAX);
        assert_eq!(s.free_bytes(), usize::MAX, "no cap -> unlimited headroom");
    }

    #[test]
    fn table2_on_query_semantics() {
        let mut s = IndexBufferSpace::new(cfg(None, 10));
        let a = s.register("A", bcfg(10), Vec::new());
        let b = s.register("B", bcfg(10), Vec::new());
        // Miss on A: A's history records a use, B only ticks.
        s.on_query(Some(a), false);
        assert_eq!(s.buffer(a).history().uses(), 1);
        assert_eq!(s.buffer(b).history().uses(), 0);
        // Hit on A: nobody records a use.
        s.on_query(Some(a), true);
        assert_eq!(s.buffer(a).history().uses(), 1);
        // Query on an unbuffered column.
        s.on_query(None, false);
        assert_eq!(s.buffer(a).history().uses(), 1);
        assert_eq!(s.buffer(b).history().uses(), 0);
    }

    #[test]
    fn selection_unlimited_space_takes_cheapest_up_to_imax() {
        let mut s = IndexBufferSpace::new(cfg(None, 3));
        let a = s.register("A", bcfg(10), vec![5, 1, 3, 2, 4]);
        s.on_query(Some(a), false);
        let sel = s.select_pages_for_buffer(a);
        assert_eq!(
            sel.pages,
            vec![1, 3, 2],
            "ascending counter order, capped at I^MAX=3"
        );
        assert_eq!(sel.expected_entries, 6);
        assert_eq!(sel.expected_bytes, 6 * DEFAULT_ENTRY_FOOTPRINT);
        assert!(sel.displaced.is_empty());
    }

    #[test]
    fn selection_empty_when_everything_indexed() {
        let mut s = IndexBufferSpace::new(cfg(None, 3));
        let a = s.register("A", bcfg(10), vec![0, 0]);
        let sel = s.select_pages_for_buffer(a);
        assert!(sel.pages.is_empty());
        assert_eq!(sel.expected_entries, 0);
    }

    #[test]
    fn bounded_space_limits_selection_without_victims() {
        let mut s = IndexBufferSpace::new(cfg(Some(5), 100));
        let a = s.register("A", bcfg(10), vec![2; 10]);
        s.on_query(Some(a), false);
        let sel = s.select_pages_for_buffer(a);
        assert_eq!(sel.pages.len(), 2, "5 entries of budget / 2 per page");
        assert_eq!(sel.expected_entries, 4);
        assert!(
            sel.displaced.is_empty(),
            "nothing to displace in an empty space"
        );
    }

    #[test]
    fn explicit_byte_budget_gates_selection() {
        let bytes = SpaceConfig {
            max_bytes: Some(5 * DEFAULT_ENTRY_FOOTPRINT),
            i_max: 100,
            seed: 42,
        };
        let mut s = IndexBufferSpace::new(bytes);
        let a = s.register("A", bcfg(10), vec![2; 10]);
        s.on_query(Some(a), false);
        let sel = s.select_pages_for_buffer(a);
        assert_eq!(sel.pages.len(), 2);
        assert_eq!(sel.expected_bytes, 4 * DEFAULT_ENTRY_FOOTPRINT);
    }

    #[test]
    fn epoch_stamps_every_counter_mutation() {
        let mut s = IndexBufferSpace::new(cfg(None, 10));
        let e0 = s.epoch();
        let a = s.register("A", bcfg(10), vec![1; 4]);
        assert!(s.epoch() > e0, "registration changes the buffer set");
        let e1 = s.epoch();
        s.with_buffer_mut(a, |_, _| {});
        assert!(s.epoch() > e1, "closure-scoped mutation is stamped");
        let e2 = s.epoch();
        // Satellite regression: bulk counter resets must invalidate
        // previously published skip bitsets.
        s.reset_counters(a, vec![0; 4]);
        assert!(s.epoch() > e2, "reset_counters bumps the epoch");
        let e3 = s.epoch();
        s.clear_buffer(a);
        assert!(s.epoch() > e3, "clear_buffer bumps the epoch");
        let e4 = s.epoch();
        // Pure history traffic is not a mutation.
        s.on_query(Some(a), false);
        assert_eq!(s.epoch(), e4, "Table II traffic leaves the epoch alone");
    }

    #[test]
    fn deferred_events_drain_in_order() {
        let mut deferred = IndexBufferSpace::new(cfg(None, 10));
        let a = deferred.register("A", bcfg(10), Vec::new());
        // tick, tick, use, tick deferred lock-free...
        deferred.pending(a).defer(2, 0, 0);
        deferred.pending(a).defer(0, 1, 0);
        deferred.pending(a).defer(1, 0, 0);
        assert!(!deferred.pending(a).is_empty());
        deferred.drain_deferred();
        assert!(deferred.pending(a).is_empty());
        // ...must equal the same sequence applied eagerly.
        let mut eager = IndexBufferSpace::new(cfg(None, 10));
        let b = eager.register("A", bcfg(10), Vec::new());
        eager.on_query(None, false);
        eager.on_query(None, false);
        eager.on_query(Some(b), false);
        eager.on_query(None, false);
        assert_eq!(deferred.buffer(a).history().uses(), 1);
        assert_eq!(
            deferred.buffer(a).history().intervals().collect::<Vec<_>>(),
            eager.buffer(b).history().intervals().collect::<Vec<_>>(),
        );
        assert_eq!(
            deferred.buffer(a).use_frequency(),
            eager.buffer(b).use_frequency()
        );
    }

    #[test]
    fn hot_buffer_displaces_cold_buffer() {
        let mut s = IndexBufferSpace::new(cfg(Some(10), 100));
        let cold = s.register("cold", bcfg(5), vec![1; 20]);
        let hot = s.register("hot", bcfg(5), vec![1; 20]);
        // Cold buffer fills the space (10 pages, 1 entry each) while used.
        s.on_query(Some(cold), false);
        fill_pages(&mut s, cold, 0..10);
        assert_eq!(s.free_entries(), 0);
        assert_eq!(s.free_bytes(), 0);
        // Cold goes quiet; hot is used every query.
        for _ in 0..50 {
            s.on_query(Some(hot), false);
        }
        let before_displacements = s.budget().displacements();
        let sel = s.select_pages_for_buffer(hot);
        assert!(
            !sel.displaced.is_empty(),
            "cold partitions must be displaced"
        );
        assert!(sel.displaced.iter().all(|d| d.buffer == cold));
        assert!(!sel.pages.is_empty());
        assert!(sel.expected_entries <= s.free_entries());
        // Every displacement reports its exact byte yield and the governor
        // counted each drop.
        for d in &sel.displaced {
            assert_eq!(d.bytes_freed, d.entries_freed * DEFAULT_ENTRY_FOOTPRINT);
        }
        assert_eq!(
            s.budget().displacements() - before_displacements,
            sel.displaced.len() as u64
        );
        // The incoming benefit must exceed what was discarded.
        let discarded: f64 = sel.displaced.iter().map(|d| d.benefit).sum();
        assert!(sel.benefit > discarded, "{} !> {discarded}", sel.benefit);
        // Displaced pages of the cold buffer are unindexed again.
        let restored: usize = sel.displaced.iter().map(|d| d.pages_uncovered).sum();
        assert_eq!(s.counters(cold).total_unindexed() as usize, 10 + restored);
        s.check_invariants();
    }

    #[test]
    fn beneficial_buffer_resists_displacement() {
        let mut s = IndexBufferSpace::new(cfg(Some(10), 100));
        let hot = s.register("hot", bcfg(5), vec![1; 20]);
        let newcomer = s.register("new", bcfg(5), vec![1; 20]);
        // Hot fills the space and keeps being used.
        s.on_query(Some(hot), false);
        fill_pages(&mut s, hot, 0..10);
        for _ in 0..20 {
            s.on_query(Some(hot), false);
        }
        // Newcomer is used once; its benefit-per-page equals hot's, so
        // displacing hot's 5-page partitions for equal gain is not "more
        // beneficial" and must be rejected.
        s.on_query(Some(newcomer), false);
        let sel = s.select_pages_for_buffer(newcomer);
        assert!(sel.displaced.is_empty(), "equal benefit must not displace");
        assert!(sel.pages.is_empty());
        s.check_invariants();
    }

    #[test]
    fn never_used_buffers_are_preferred_victims() {
        let mut s = IndexBufferSpace::new(cfg(Some(6), 100));
        let dead = s.register("dead", bcfg(3), vec![1; 10]);
        let cold = s.register("cold", bcfg(3), vec![1; 10]);
        let hot = s.register("hot", bcfg(3), vec![1; 10]);
        // Both fill space; cold was genuinely used once, dead never.
        s.on_query(Some(cold), false);
        fill_pages(&mut s, cold, 0..3);
        fill_pages(&mut s, dead, 0..3); // indexed without a recorded use
        for _ in 0..10 {
            s.on_query(Some(hot), false);
        }
        let sel = s.select_pages_for_buffer(hot);
        assert!(!sel.displaced.is_empty());
        assert_eq!(
            sel.displaced[0].buffer, dead,
            "zero-benefit (never used) buffer is the first victim"
        );
    }

    #[test]
    fn selection_is_deterministic_under_seed() {
        let run = || {
            let mut s = IndexBufferSpace::new(cfg(Some(8), 100));
            let a = s.register("a", bcfg(2), vec![1; 12]);
            let b = s.register("b", bcfg(2), vec![1; 12]);
            let c = s.register("c", bcfg(2), vec![1; 12]);
            s.on_query(Some(a), false);
            fill_pages(&mut s, a, 0..4);
            s.on_query(Some(b), false);
            fill_pages(&mut s, b, 0..4);
            for _ in 0..30 {
                s.on_query(Some(c), false);
            }
            let sel = s.select_pages_for_buffer(c);
            (sel.pages.clone(), sel.displaced.clone())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stage_one_picks_among_all_other_buffers() {
        // §IV stage 1: "a buffer ≠ B_N with probability ∝ 1/b_B" among all
        // buffers of the one space. Two equally used buffers fill the
        // budget; a hot third one must be able to victimise either.
        let displaced_by_hot = |seed: u64| {
            let mut s = IndexBufferSpace::new(SpaceConfig {
                seed,
                ..cfg(Some(8), 100)
            });
            let a = s.register("a", bcfg(2), vec![1; 12]);
            let b = s.register("b", bcfg(2), vec![1; 12]);
            let hot = s.register("hot", bcfg(2), vec![1; 12]);
            s.on_query(Some(a), false);
            fill_pages(&mut s, a, 0..4);
            s.on_query(Some(b), false);
            fill_pages(&mut s, b, 0..4);
            for _ in 0..30 {
                s.on_query(Some(hot), false);
            }
            let sel = s.select_pages_for_buffer(hot);
            s.check_invariants();
            sel.displaced
                .iter()
                .map(|d| d.buffer)
                .collect::<Vec<BufferId>>()
        };
        let mut first_victims = std::collections::BTreeSet::<BufferId>::new();
        for seed in 0..32 {
            let victims = displaced_by_hot(seed);
            assert!(
                victims.contains(&0) && victims.contains(&1),
                "seed {seed}: one selection reaches both cold buffers, got {victims:?}"
            );
            first_victims.extend(victims.first().copied());
        }
        assert_eq!(
            first_victims.into_iter().collect::<Vec<_>>(),
            [0, 1],
            "over seeds, the first victim is drawn from either buffer"
        );
    }

    #[test]
    fn unregister_frees_bytes_and_never_reuses_the_id() {
        let mut s = IndexBufferSpace::new(cfg(Some(10), 100));
        let a = s.register("a", bcfg(5), vec![1; 10]);
        let b = s.register("b", bcfg(5), vec![1; 10]);
        fill_pages(&mut s, a, 0..6);
        fill_pages(&mut s, b, 0..4);
        assert_eq!(s.free_entries(), 0);
        let before = s.epoch();
        s.unregister(a);
        assert!(s.epoch() > before, "snapshots of the old roster go stale");
        assert_eq!(s.buffer_ids().collect::<Vec<_>>(), [b]);
        assert_eq!(s.free_entries(), 6, "the dropped buffer's bytes return");
        // Table II and victim selection no longer see it.
        s.on_query(Some(b), false);
        assert_eq!(s.total_entries(), 4);
        let c = s.register("c", bcfg(5), vec![1; 10]);
        assert_eq!(c, 2, "ids stay unique and ascending");
        assert_eq!(s.buffer(b).name(), "b");
        assert_eq!(s.buffer(c).name(), "c");
        s.check_invariants();
    }

    #[test]
    fn selection_respects_imax_exactly() {
        let mut s = IndexBufferSpace::new(cfg(None, 5));
        let a = s.register("a", bcfg(10), vec![1; 50]);
        s.on_query(Some(a), false);
        let sel = s.select_pages_for_buffer(a);
        assert_eq!(
            sel.pages.len(),
            5,
            "at most I^MAX pages per scan (paper §IV)"
        );
    }

    #[test]
    fn shared_budget_lets_pool_residency_shrink_the_space() {
        // One governor, both components: bytes parked in buffer-pool
        // frames reduce what the Index Buffer Space may select.
        let budget = Arc::new(MemoryBudget::with_total(6 * DEFAULT_ENTRY_FOOTPRINT));
        let mut s = IndexBufferSpace::with_budget(cfg(None, 100), Arc::clone(&budget));
        let a = s.register("a", bcfg(10), vec![1; 10]);
        s.on_query(Some(a), false);
        // The "pool" claims 4 entries' worth of the shared total.
        budget.charge(BudgetComponent::BufferPool, 4 * DEFAULT_ENTRY_FOOTPRINT);
        let sel = s.select_pages_for_buffer(a);
        assert_eq!(
            sel.pages.len(),
            2,
            "only the unclaimed remainder is selectable"
        );
        assert!(sel.displaced.is_empty(), "nothing of ours to displace");
        budget.release(BudgetComponent::BufferPool, 4 * DEFAULT_ENTRY_FOOTPRINT);
        let sel = s.select_pages_for_buffer(a);
        assert_eq!(sel.pages.len(), 6, "released frames restore headroom");
    }

    #[test]
    fn benefit_policy_prefers_zero_weight_and_forgets_victims() {
        let mut p = BenefitPolicy::new(7);
        p.record_weight(0, 2.0);
        p.record_weight(1, 0.0);
        p.record_weight(2, 5.0);
        assert_eq!(p.displace(&|_| false), Some(1), "zero-benefit goes first");
        let next = p.displace(&|id| id == 2).expect("0 is unblocked");
        assert_eq!(next, 0, "blocked ids are skipped");
        assert_eq!(p.displace(&|id| id == 2), None, "only blocked ids remain");
        p.clear_weights();
        assert_eq!(p.displace(&|_| false), None, "cleared ids are forgotten");
    }
}
