//! The shared Index Buffer Space: the one [`IndexBufferSpace`] behind one
//! lock, plus the epoch-stamped read-only [`SpaceSnapshot`] that lets
//! buffered reads plan without taking it.
//!
//! ### Planning without the lock
//!
//! The space carries a mutation **epoch**, bumped by every operation that
//! changes buffer or counter state and *published* (via one atomic) only
//! while no writer is inside. A [`SpaceSnapshot`] records the epoch its
//! bitsets were cloned at and the buffer-roster generation; it validates by
//! comparing both against the live atomics with plain `Acquire` loads — no
//! lock, no shared write. While a writer is inside, a sentinel (`epoch + 1`)
//! is parked in the published slot so validation fails for the whole
//! critical section; the guard's drop republishes the true epoch.
//!
//! A validated snapshot proves the skip bitsets are current, so a query
//! whose every page is skippable can answer without the space lock. Its
//! Table II history operations are deferred into per-buffer
//! [`BufferPending`] atomics (shared by `Arc` between slots and snapshots)
//! and drained — in deferral order — by the next write-side entry, which is
//! also why [`SharedSpace::write`] drains before handing out the guard: no
//! benefit is ever read with deferred events outstanding.
//!
//! ### Snapshot-planned scans
//!
//! The snapshot also carries what `prepare_scan` needs — the skip bitset,
//! candidate pages in ascending-counter order, partition shape — so *any*
//! buffered read (not just a 100%-skippable one) can plan against it with
//! the lock not held, provided [`SharedSpace::plan_selection`] can prove
//! the locked selection would behave identically (no displacement, no RNG
//! draw). Pages such a scan stages for insertion are applied by the reader
//! itself under a short [`write`] section, re-checking `C[p] != 0` per page
//! ([`apply_staged`]) so a page a sibling scan already indexed is skipped,
//! not double-inserted.
//!
//! [`write`]: SharedSpace::write
//! [`apply_staged`]: crate::scan::apply_staged
//!
//! ### Lock hierarchy
//!
//! `catalog → space → pool`: the space lock nests inside the catalog lock
//! and outside the buffer-pool internals (enforced by `aib-lint`'s
//! lock-order rule).

use std::sync::Arc;

use crate::sync::{AtomicU64, Ordering, RwLock, RwLockReadGuard, RwLockWriteGuard};

use aib_storage::{BudgetComponent, MemoryBudget, MemoryUsage};

use crate::config::{BufferConfig, SpaceConfig};
use crate::counters::SkipBitset;
use crate::index_buffer::BufferId;
use crate::space::{grow_selection, BufferPending, IndexBufferSpace};

/// The Index Buffer Space as concurrent clients share it: one
/// [`IndexBufferSpace`] behind one lock, the published epoch and roster
/// generation that validate snapshots of it, and the last snapshot built.
pub struct SharedSpace {
    inner: RwLock<IndexBufferSpace>,
    /// The space's epoch as of the last write guard drop, or a sentinel
    /// (`epoch + 1`) while a writer is inside.
    published: AtomicU64,
    /// Buffer-set stamp, bumped on every roster change: snapshots must also
    /// prove they saw the current buffer roster.
    generation: AtomicU64,
    /// The last built snapshot; possibly stale (every consumer revalidates).
    snapshot: RwLock<Arc<SpaceSnapshot>>,
    /// Copies of the space's own, readable without its lock.
    config: SpaceConfig,
    budget: Arc<MemoryBudget>,
}

impl SharedSpace {
    /// Creates an empty space drawing from a shared [`MemoryBudget`]; the
    /// caller configures the budget's limits.
    pub fn with_budget(config: SpaceConfig, budget: Arc<MemoryBudget>) -> Self {
        Self::sharing(IndexBufferSpace::with_budget(config, budget))
    }

    /// Creates an empty space with its own private budget, capped at
    /// [`SpaceConfig::budget_bytes`].
    pub fn new(config: SpaceConfig) -> Self {
        Self::sharing(IndexBufferSpace::new(config))
    }

    fn sharing(space: IndexBufferSpace) -> Self {
        SharedSpace {
            published: AtomicU64::new(space.epoch()),
            generation: AtomicU64::new(0),
            snapshot: RwLock::new(Arc::new(SpaceSnapshot {
                generation: 0,
                epoch: space.epoch(),
                buffers: Vec::new(),
            })),
            config: *space.config(),
            budget: Arc::clone(space.budget()),
            inner: RwLock::new(space),
        }
    }

    /// Registers a new Index Buffer (see [`IndexBufferSpace::register`]).
    /// Bumps the generation so published snapshots that predate the roster
    /// change invalidate.
    pub fn register(
        &self,
        name: impl Into<String>,
        config: BufferConfig,
        counts: Vec<u32>,
    ) -> BufferId {
        let id = self.write().register(name, config, counts);
        self.generation.fetch_add(1, Ordering::AcqRel);
        id
    }

    /// Removes a buffer (see [`IndexBufferSpace::unregister`]), bumping the
    /// generation like [`register`](Self::register).
    pub fn unregister(&self, id: BufferId) {
        self.write().unregister(id);
        self.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// Write-locks the space. Acquisition parks the epoch sentinel (failing
    /// snapshot validation for the whole critical section) and drains the
    /// deferred Table II events — so the guard always exposes histories
    /// with nothing outstanding.
    pub fn write(&self) -> SpaceWriteGuard<'_> {
        let mut inner = self.inner.write();
        // Park the sentinel: `epoch + 1` can never equal the epoch a
        // snapshot was built at, so every validation fails until the
        // guard's drop republishes the truth. Model test:
        // `snapshot_validation_vs_writer`.
        #[cfg(not(model_seeded_bug = "missing_sentinel"))]
        self.published
            .store(inner.epoch().wrapping_add(1), Ordering::Release);
        #[cfg(not(model_seeded_bug = "missing_drain"))]
        inner.drain_deferred();
        SpaceWriteGuard {
            inner,
            published: &self.published,
        }
    }

    /// Read-locks the space (no drain — readers cannot mutate histories).
    pub fn read(&self) -> RwLockReadGuard<'_, IndexBufferSpace> {
        self.inner.read()
    }

    /// True when `snapshot` still reflects the live space: same buffer
    /// roster and a published epoch equal to the one it was built at. Plain
    /// `Acquire` loads — no lock, no shared write — so every query can
    /// validate.
    pub fn validate(&self, snapshot: &SpaceSnapshot) -> bool {
        snapshot.generation == self.generation.load(Ordering::Acquire)
            && snapshot.epoch == self.published.load(Ordering::Acquire)
    }

    /// A validated read-only snapshot of the whole space: returns the
    /// published one when still valid, otherwise rebuilds (under the read
    /// lock) and republishes. Callers must not hold the space lock.
    pub fn space_snapshot(&self) -> Arc<SpaceSnapshot> {
        let current = Arc::clone(&self.snapshot.read());
        // Seeded bug: serve any non-empty cached snapshot without
        // validating — a DDL (`register`) that staled the roster goes
        // unnoticed. Model test: `generation_vs_add_buffer`.
        #[cfg(model_seeded_bug = "stale_snapshot_cache")]
        if !current.buffers.is_empty() {
            return current;
        }
        if self.validate(&current) {
            return current;
        }
        let generation = self.generation.load(Ordering::Acquire);
        let space = self.read();
        let rebuilt = Arc::new(SpaceSnapshot {
            generation,
            epoch: space.epoch(),
            buffers: space
                .buffer_ids()
                .map(|id| {
                    let counters = space.counters(id);
                    let buffer = space.buffer(id);
                    BufferSummary {
                        id,
                        entries: buffer.num_entries(),
                        footprint: buffer.footprint(),
                        partitions: buffer.num_partitions(),
                        skip: counters.skip_snapshot(counters.num_pages()),
                        candidates: counters.cheapest_pages(self.config.i_max as usize),
                        pending: Arc::clone(space.pending(id)),
                    }
                })
                .collect(),
        });
        drop(space);
        // Last-build-wins publication; a concurrently staled snapshot is
        // caught by the next validation, never served silently.
        *self.snapshot.write() = Arc::clone(&rebuilt);
        rebuilt
    }

    /// Plans Algorithm 2's page selection for `target` read-only against a
    /// validated `snapshot`, returning `Some(pages)` exactly when the locked
    /// [`IndexBufferSpace::select_pages_for_buffer`] is *provably*
    /// equivalent without mutating anything — no partition displaced, no RNG
    /// drawn, no counter restored — and `None` otherwise (the caller fails
    /// closed to the write-locked path).
    ///
    /// The three plannable cases:
    /// 1. No candidate pages (`C[p] = 0` everywhere): the locked selection
    ///    returns empty before touching budget or RNG.
    /// 2. Unlimited `IndexSpace` budget: the locked path skips the
    ///    displacement loop entirely, so growth alone decides.
    /// 3. Limited budget but zero growth *and* no other buffer owns a
    ///    partition: the displacement loop's victim pick deterministically
    ///    finds no eligible partition and returns without consuming
    ///    randomness.
    ///
    /// A limited budget with nonzero growth is **not** plannable: committing
    /// those pages outside the lock could overshoot the budget raced by a
    /// concurrent reservation. Only empty selections are accepted there,
    /// which also makes the unsynchronized `headroom` read sound.
    pub fn plan_selection(&self, snapshot: &SpaceSnapshot, target: BufferId) -> Option<Vec<u32>> {
        let summary = snapshot.buffer(target)?;
        let candidates = summary.candidates.as_slice();
        if candidates.is_empty() {
            return Some(Vec::new());
        }
        let i_max = self.config.i_max as usize;
        if self.budget.is_unlimited(BudgetComponent::IndexSpace) {
            let (pages, _, _) = grow_selection(candidates, i_max, usize::MAX);
            return Some(candidates.iter().take(pages).map(|&(p, _)| p).collect());
        }
        let headroom = self.budget.headroom(BudgetComponent::IndexSpace);
        let (pages, _, _) = grow_selection(candidates, i_max, headroom);
        if pages > 0 {
            return None;
        }
        let displacement_reachable = snapshot
            .buffers()
            .any(|b| b.id != target && b.partitions > 0);
        if displacement_reachable {
            return None;
        }
        Some(Vec::new())
    }

    /// Consistency check (tests): see
    /// [`IndexBufferSpace::check_invariants`].
    pub fn check_invariants(&self) {
        self.read().check_invariants();
    }
}

impl std::fmt::Debug for SharedSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSpace")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// Write guard for the space. While held, the published epoch reads as a
/// sentinel, so no snapshot validates; dropping the guard republishes the
/// (possibly advanced) true epoch, instantly re-validating snapshots after
/// write windows that mutated nothing.
pub struct SpaceWriteGuard<'a> {
    inner: RwLockWriteGuard<'a, IndexBufferSpace>,
    published: &'a AtomicU64,
}

impl Drop for SpaceWriteGuard<'_> {
    fn drop(&mut self) {
        self.published.store(self.inner.epoch(), Ordering::Release);
    }
}

impl std::ops::Deref for SpaceWriteGuard<'_> {
    type Target = IndexBufferSpace;
    fn deref(&self) -> &IndexBufferSpace {
        &self.inner
    }
}

impl std::ops::DerefMut for SpaceWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut IndexBufferSpace {
        &mut self.inner
    }
}

/// An epoch-stamped, read-only view of the whole space: per-buffer entry
/// counts, footprints and cloned skip bitsets, plus the shared deferred-
/// event cells. Valid (per [`SharedSpace::validate`]) it answers
/// fully-skippable queries and introspection without any lock.
#[derive(Debug)]
pub struct SpaceSnapshot {
    generation: u64,
    epoch: u64,
    /// Registration order, which is ascending id order.
    buffers: Vec<BufferSummary>,
}

/// One buffer's entry in a [`SpaceSnapshot`].
#[derive(Debug)]
pub struct BufferSummary {
    id: BufferId,
    entries: usize,
    footprint: usize,
    /// Partitions resident at snapshot time (victim-eligibility input for
    /// [`SharedSpace::plan_selection`]).
    partitions: usize,
    skip: SkipBitset,
    /// The `I^MAX` cheapest candidate pages in ascending `(C[p], p)` order
    /// at snapshot time — the input Algorithm 2 grows a selection from.
    candidates: Vec<(u32, u32)>,
    pending: Arc<BufferPending>,
}

impl BufferSummary {
    /// The buffer's id.
    pub fn id(&self) -> BufferId {
        self.id
    }

    /// Entries resident at snapshot time.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Resident bytes at snapshot time.
    pub fn footprint(&self) -> usize {
        self.footprint
    }

    /// Partitions resident at snapshot time.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// The skip bitset at snapshot time, sized to the tracked page range.
    pub fn skip(&self) -> &SkipBitset {
        &self.skip
    }

    /// Candidate pages (`C[p] > 0`) in ascending `(C[p], p)` order at
    /// snapshot time, the first `I^MAX` of them.
    pub fn candidates(&self) -> &[(u32, u32)] {
        &self.candidates
    }

    /// The buffer's deferred-event cell (shared with the live slot).
    pub fn pending(&self) -> &BufferPending {
        &self.pending
    }

    /// True when a scan of `heap_pages` table pages against this buffer
    /// would skip every page *and* find nothing in the buffer itself —
    /// exactly the queries that may be answered without the space lock.
    /// Requires `entries == 0` because a non-empty buffer contributes
    /// buffer-scan matches the snapshot cannot produce.
    pub fn fully_skippable(&self, heap_pages: u32) -> bool {
        self.entries == 0 && self.skip.len() >= heap_pages && self.skip.count() == self.skip.len()
    }
}

impl SpaceSnapshot {
    /// The space epoch this snapshot was built at; an epoch-guarded probe
    /// of the live space compares against it.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Every buffer in the space, in registration (ascending id) order.
    pub fn buffers(&self) -> impl Iterator<Item = &BufferSummary> + '_ {
        self.buffers.iter()
    }

    /// Looks up one buffer's summary.
    pub fn buffer(&self, id: BufferId) -> Option<&BufferSummary> {
        self.buffers.iter().find(|b| b.id == id)
    }

    /// Per-buffer entry counts in ascending buffer-id order (the shape
    /// query metrics report).
    pub fn buffer_entries(&self) -> Vec<usize> {
        self.buffers.iter().map(|b| b.entries).collect()
    }
}

/// A client-private snapshot cache: the current [`SpaceSnapshot`] `Arc`
/// plus locally accumulated deferred Table II events.
///
/// The point of the local accumulators is scaling: a fast-path query that
/// did a `fetch_add` on shared pending cells would still bounce cache lines
/// between cores. Instead each client counts its events in plain integers
/// and [`flush`](Self::flush)es them into the shared cells only at slow-path
/// boundaries (any lock acquisition) or when the client retires.
#[derive(Debug, Default)]
pub struct SnapshotCache {
    snapshot: Option<Arc<SpaceSnapshot>>,
    /// Deferred events, one cell per buffer of `snapshot`, in its order.
    local: Vec<LocalPending>,
}

#[derive(Debug, Default, Clone, Copy)]
struct LocalPending {
    ticks: u64,
    uses: u64,
    /// Ticks accumulated before this batch's first use.
    uses_at: u64,
}

impl SnapshotCache {
    /// An empty cache (no snapshot, no deferred events).
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached snapshot if it still validates against `space`, otherwise
    /// a freshly fetched one (which may rebuild under the read lock —
    /// callers must not hold the space lock).
    pub fn ensure(&mut self, space: &SharedSpace) -> &Arc<SpaceSnapshot> {
        let stale = match &self.snapshot {
            Some(snapshot) => !space.validate(snapshot),
            None => true,
        };
        if stale {
            // Local events were recorded against the outgoing roster.
            self.flush();
            let fresh = space.space_snapshot();
            self.local.clear();
            self.local
                .resize(fresh.buffers.len(), LocalPending::default());
            self.snapshot = Some(fresh);
        }
        // The option was just populated on the stale path.
        // aib-lint: allow(no-panic) — set a few lines above.
        self.snapshot.as_ref().expect("snapshot just ensured")
    }

    /// Defers one query's Table II events locally (no shared write at all).
    /// Call only with the snapshot returned by [`ensure`](Self::ensure)
    /// this query: events are recorded against its buffer roster.
    pub fn record(&mut self, queried: Option<BufferId>, partial_hit: bool) {
        let Some(snapshot) = &self.snapshot else {
            return;
        };
        for (buffer, cell) in snapshot.buffers.iter().zip(&mut self.local) {
            if Some(buffer.id) == queried && !partial_hit {
                if cell.uses == 0 {
                    cell.uses_at = cell.ticks;
                }
                cell.uses += 1;
            } else {
                cell.ticks += 1;
            }
        }
    }

    /// Publishes every locally deferred event into the shared pending
    /// cells. Cheap when nothing is deferred; called before any lock
    /// acquisition and when the client retires.
    pub fn flush(&mut self) {
        let Some(snapshot) = &self.snapshot else {
            return;
        };
        for (buffer, cell) in snapshot.buffers.iter().zip(&mut self.local) {
            if cell.ticks != 0 || cell.uses != 0 {
                buffer.pending().defer(cell.ticks, cell.uses, cell.uses_at);
                *cell = LocalPending::default();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SpaceConfig {
        SpaceConfig {
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn snapshot_validates_until_a_mutation_and_revalidates_after() {
        let space = SharedSpace::new(cfg());
        let a = space.register("a", BufferConfig::default(), vec![0; 4]);
        let snap = space.space_snapshot();
        assert!(space.validate(&snap));
        assert!(snap.buffer(a).is_some());

        // A write window that mutates nothing re-validates on drop.
        drop(space.write());
        assert!(space.validate(&snap), "no mutation, epoch republished");

        // A mutation inside the window invalidates for good.
        space.write().with_buffer_mut(a, |_, _| {});
        assert!(!space.validate(&snap), "a mutation stales the snapshot");
        let fresh = space.space_snapshot();
        assert!(space.validate(&fresh));
    }

    #[test]
    fn snapshot_invalidates_while_writer_is_inside() {
        let space = SharedSpace::new(cfg());
        space.register("a", BufferConfig::default(), vec![0; 4]);
        let snap = space.space_snapshot();
        let guard = space.write();
        assert!(
            !space.validate(&snap),
            "sentinel parks while the writer is inside"
        );
        drop(guard);
        assert!(space.validate(&snap), "clean window restores validity");
    }

    #[test]
    fn bulk_counter_resets_stale_published_snapshots() {
        // Satellite regression: reset_counters / clear_buffer flip pages
        // skippable; a snapshot published before the reset must not keep
        // validating (it would answer from the stale bitset).
        let space = SharedSpace::new(cfg());
        let a = space.register("a", BufferConfig::default(), vec![1; 4]);
        let before = space.space_snapshot();
        assert!(space.validate(&before));
        space.write().reset_counters(a, vec![0; 4]);
        assert!(
            !space.validate(&before),
            "reset_counters must invalidate published snapshots"
        );
        let after = space.space_snapshot();
        let summary = after.buffer(a).expect("registered");
        assert!(summary.fully_skippable(4));

        let again = space.space_snapshot();
        space.write().clear_buffer(a);
        assert!(
            !space.validate(&again),
            "clear_buffer must invalidate published snapshots"
        );
    }

    #[test]
    fn registration_stales_snapshots_via_generation() {
        let space = SharedSpace::new(cfg());
        space.register("a", BufferConfig::default(), vec![0; 2]);
        let snap = space.space_snapshot();
        assert!(space.validate(&snap));
        let b = space.register("b", BufferConfig::default(), vec![0; 2]);
        assert!(!space.validate(&snap), "roster change invalidates");
        let fresh = space.space_snapshot();
        assert!(fresh.buffer(b).is_some());
    }

    #[test]
    fn fully_skippable_demands_empty_buffer_and_full_bitset() {
        let space = SharedSpace::new(cfg());
        let a = space.register("a", BufferConfig::default(), vec![0, 1, 0]);
        let snap = space.space_snapshot();
        let s = snap.buffer(a).expect("registered");
        assert!(!s.fully_skippable(3), "page 1 still has uncovered tuples");
        space.write().reset_counters(a, vec![0, 0, 0]);
        let snap = space.space_snapshot();
        let s = snap.buffer(a).expect("registered");
        assert!(s.fully_skippable(3));
        assert!(s.fully_skippable(2), "tracked range may exceed the heap");
        assert!(!s.fully_skippable(4), "untracked pages are never skippable");
    }

    #[test]
    fn cache_defers_locally_and_flushes_through_shared_cells() {
        let space = SharedSpace::new(cfg());
        let a = space.register("a", BufferConfig::default(), Vec::new());
        let b = space.register("b", BufferConfig::default(), Vec::new());
        let mut cache = SnapshotCache::new();
        cache.ensure(&space);
        // tick-all, then a use on `a`, then another tick-all.
        cache.record(None, false);
        cache.record(Some(a), false);
        cache.record(None, false);
        // Nothing visible anywhere until the flush...
        assert!(space.read().pending(a).is_empty());
        cache.flush();
        // ...then the write-side drain applies them in deferral order.
        drop(space.write());
        let live = space.read();
        assert_eq!(live.buffer(a).history().uses(), 1);
        assert_eq!(live.buffer(a).history().clock(), 2);
        assert_eq!(live.buffer(b).history().uses(), 0);
        assert_eq!(live.buffer(b).history().clock(), 3);
    }

    #[test]
    fn unregistering_stales_snapshots_and_orphans_cached_events() {
        let space = SharedSpace::new(cfg());
        let a = space.register("a", BufferConfig::default(), vec![1; 2]);
        let b = space.register("b", BufferConfig::default(), vec![1; 2]);
        let mut cache = SnapshotCache::new();
        cache.ensure(&space);
        cache.record(Some(b), false);
        let snap = space.space_snapshot();
        space.unregister(a);
        assert!(!space.validate(&snap), "roster change invalidates");
        // The cache flushes against the roster it recorded under, then
        // follows the new one: `b` keeps its event, `a`'s goes nowhere.
        let fresh = cache.ensure(&space);
        assert_eq!(
            fresh.buffers().map(BufferSummary::id).collect::<Vec<_>>(),
            [b]
        );
        assert_eq!(fresh.buffer_entries(), [0]);
        cache.record(None, false);
        cache.flush();
        drop(space.write());
        assert_eq!(space.read().buffer(b).history().uses(), 1);
        assert_eq!(space.read().buffer(b).history().clock(), 1);
        // Ids are never reused.
        assert_eq!(space.register("c", BufferConfig::default(), Vec::new()), 2);
    }

    #[test]
    fn plan_selection_matches_locked_selection_when_plannable() {
        use aib_storage::DEFAULT_ENTRY_FOOTPRINT;
        // Unlimited budget: the planned selection must equal the locked one.
        let space = SharedSpace::new(cfg());
        let a = space.register("a", BufferConfig::default(), vec![3, 0, 1, 2]);
        let snap = space.space_snapshot();
        let planned = space.plan_selection(&snap, a).expect("unlimited budget");
        let locked = space.write().select_pages_for_buffer(a);
        assert_eq!(planned, locked.pages);
        assert_eq!(planned, vec![2, 3, 0], "ascending counter order");

        // Zero headroom, no sibling partitions: plannable, empty.
        let tight = SharedSpace::new(SpaceConfig {
            max_bytes: Some(0),
            seed: 7,
            ..Default::default()
        });
        let b = tight.register("b", BufferConfig::default(), vec![5, 5]);
        let snap = tight.space_snapshot();
        assert_eq!(tight.plan_selection(&snap, b), Some(Vec::new()));
        let locked = tight.write().select_pages_for_buffer(b);
        assert!(locked.pages.is_empty() && locked.displaced.is_empty());

        // Limited budget with headroom: growth is nonzero → not plannable.
        let roomy = SharedSpace::new(SpaceConfig {
            max_bytes: Some(10 * DEFAULT_ENTRY_FOOTPRINT),
            seed: 7,
            ..Default::default()
        });
        let c = roomy.register("c", BufferConfig::default(), vec![1, 1]);
        let snap = roomy.space_snapshot();
        assert_eq!(roomy.plan_selection(&snap, c), None);

        // No candidates at all: plannable regardless of budget.
        let d = roomy.register("d", BufferConfig::default(), vec![0, 0]);
        let snap = roomy.space_snapshot();
        assert_eq!(roomy.plan_selection(&snap, d), Some(Vec::new()));
    }

    #[test]
    fn plan_selection_fails_closed_when_displacement_is_reachable() {
        use aib_storage::{Rid, Value};
        // Zero headroom but a sibling owns a partition: the locked path
        // would consult the RNG-weighted victim pick — not plannable.
        let space = SharedSpace::new(SpaceConfig {
            max_bytes: Some(2 * aib_storage::DEFAULT_ENTRY_FOOTPRINT),
            seed: 7,
            ..Default::default()
        });
        let a = space.register("a", BufferConfig::default(), vec![1, 1]);
        let b = space.register("b", BufferConfig::default(), vec![4, 4]);
        {
            let mut s = space.write();
            s.with_buffer_mut(a, |buffer, counters| {
                buffer.index_page(0, vec![(Value::Int(0), Rid::new(0, 0))]);
                counters.set_zero(0);
                buffer.index_page(1, vec![(Value::Int(1), Rid::new(1, 0))]);
                counters.set_zero(1);
            });
            s.sync_budget();
        }
        let snap = space.space_snapshot();
        assert_eq!(
            space.plan_selection(&snap, b),
            None,
            "sibling partition makes the victim pick reachable"
        );
    }

    #[test]
    fn snapshot_carries_planning_inputs() {
        let space = SharedSpace::new(cfg());
        let a = space.register("a", BufferConfig::default(), vec![0, 2, 1]);
        let snap = space.space_snapshot();
        let s = snap.buffer(a).expect("registered");
        assert_eq!(s.candidates(), &[(2, 1), (1, 2)]);
        assert_eq!(s.partitions(), 0);
        assert_eq!(snap.epoch(), space.read().epoch());
    }
}
