//! The sharded Index Buffer Space: [`SpaceConfig::shards`] independently
//! locked [`IndexBufferSpace`] shards behind one facade, plus the
//! epoch-stamped read-only [`SpaceSnapshot`] that gives fully-skippable
//! queries a lock-free fast path.
//!
//! ### Why shard
//!
//! With one `RwLock<IndexBufferSpace>`, every query — even one that touches
//! no page — serialises on the space write lock for its Table II history
//! operations, so the CPU-bound fully-skippable workload cannot scale past
//! one core. Sharding assigns each buffer to shard `id % shards`; clients
//! touching disjoint buffers take disjoint locks, and the shared
//! [`MemoryBudget`] still sees the fleet's total footprint (each shard
//! publishes its resident bytes into a shared slot vector and charges the
//! governor with the sum, so displacement pressure crosses shards).
//!
//! ### The lock-free fast path
//!
//! Each shard carries a mutation **epoch**, bumped by every operation that
//! changes buffer or counter state and *published* (via an atomic per shard)
//! only while no writer is inside. A [`SpaceSnapshot`] records, per shard,
//! the epoch its bitsets were cloned at; a snapshot validates by comparing
//! every published epoch against its sections with plain `Acquire` loads —
//! no lock, no shared write. While a writer holds a shard, a sentinel
//! (`epoch + 1`) is parked in the published slot so validation fails for the
//! whole critical section; the guard's drop republishes the true epoch.
//!
//! A validated snapshot proves the skip bitsets are current, so a query
//! whose every page is skippable can answer without any space lock. Its
//! Table II history operations are deferred into per-buffer
//! [`BufferPending`] atomics (shared by `Arc` between slots and snapshots)
//! and drained — in deferral order — by the next write-side entry, which is
//! also why [`ShardedSpace::shard_write`] drains before handing out the
//! guard: no benefit is ever read with deferred events outstanding.
//!
//! ### Snapshot-planned scans
//!
//! The snapshot also carries what `prepare_scan` needs — the skip bitset,
//! candidate pages in ascending-counter order, partition shape — so *any*
//! buffered read (not just a 100%-skippable one) can plan against it with
//! no shard lock held, provided [`ShardedSpace::plan_selection`] can prove
//! the locked selection would behave identically (no displacement, no RNG
//! draw). Pages such a scan stages for insertion are applied by the reader
//! itself under a short [`shard_write`] section, re-checking `C[p] != 0`
//! per page ([`apply_staged`]) so a page a sibling scan already indexed is
//! skipped, not double-inserted.
//!
//! [`shard_write`]: ShardedSpace::shard_write
//! [`apply_staged`]: crate::scan::apply_staged
//!
//! ### Lock hierarchy
//!
//! `catalog → shard(0) → shard(1) → … → pool`: shard locks nest inside the
//! catalog lock and outside the buffer-pool internals, and multi-shard
//! acquisitions always proceed in ascending shard index (enforced by
//! `aib-lint`'s lock-order rule).

// aib-lint: allow-file(no-index) — the shard and published vectors are
// sized once at construction and only indexed by `shard_of()` results or
// enumerate() positions; the cache's local cells are resized ahead of every
// indexed access.

use std::sync::Arc;

use crate::sync::{AtomicU64, AtomicUsize, Ordering, RwLock, RwLockReadGuard, RwLockWriteGuard};

use aib_storage::{BudgetComponent, MemoryBudget, MemoryUsage};

use crate::config::{BufferConfig, SpaceConfig};
use crate::counters::SkipBitset;
use crate::index_buffer::BufferId;
use crate::space::{grow_selection, BufferPending, IndexBufferSpace};

/// The sharded Index Buffer Space facade. With `shards = 1` this is a
/// single [`IndexBufferSpace`] behind one lock — bit-for-bit the sequential
/// layout — and every additional shard only splits the lock, never the
/// budget.
pub struct ShardedSpace {
    shards: Box<[RwLock<IndexBufferSpace>]>,
    /// Per-shard published epoch: the shard's epoch as of the last write
    /// guard drop, or a sentinel (`epoch + 1`) while a writer is inside.
    published: Box<[AtomicU64]>,
    /// Buffer-set stamp, bumped on registration: snapshots must also prove
    /// they saw the current buffer roster.
    generation: AtomicU64,
    /// The last built snapshot; possibly stale (every consumer revalidates).
    snapshot: RwLock<Arc<SpaceSnapshot>>,
    /// Globally allocated buffer ids (`id % shards` routes to a shard).
    next_buffer: AtomicUsize,
    config: SpaceConfig,
    budget: Arc<MemoryBudget>,
}

impl ShardedSpace {
    /// Creates an empty sharded space drawing from a shared
    /// [`MemoryBudget`]; the caller configures the budget's limits.
    pub fn with_budget(config: SpaceConfig, budget: Arc<MemoryBudget>) -> Self {
        config.validate();
        let footprints: Arc<Vec<AtomicUsize>> =
            Arc::new((0..config.shards).map(|_| AtomicUsize::new(0)).collect());
        let shards: Box<[RwLock<IndexBufferSpace>]> = (0..config.shards)
            .map(|i| {
                RwLock::new(IndexBufferSpace::for_shard(
                    config,
                    Arc::clone(&budget),
                    Arc::clone(&footprints),
                    i,
                ))
            })
            .collect();
        let published = (0..config.shards).map(|_| AtomicU64::new(0)).collect();
        ShardedSpace {
            shards,
            published,
            generation: AtomicU64::new(0),
            snapshot: RwLock::new(Arc::new(SpaceSnapshot {
                generation: 0,
                sections: Vec::new(),
            })),
            next_buffer: AtomicUsize::new(0),
            config,
            budget,
        }
    }

    /// Creates an empty sharded space with its own private budget, capped
    /// at [`SpaceConfig::budget_bytes`].
    pub fn new(config: SpaceConfig) -> Self {
        let budget = match config.budget_bytes() {
            Some(bytes) => {
                MemoryBudget::unlimited().with_component_limit(BudgetComponent::IndexSpace, bytes)
            }
            None => MemoryBudget::unlimited(),
        };
        Self::with_budget(config, Arc::new(budget))
    }

    /// The space configuration.
    pub fn config(&self) -> &SpaceConfig {
        &self.config
    }

    /// The governor this space draws from.
    pub fn budget(&self) -> &Arc<MemoryBudget> {
        &self.budget
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total buffers registered across all shards.
    pub fn num_buffers(&self) -> usize {
        self.next_buffer.load(Ordering::Acquire)
    }

    /// The shard a buffer lives in.
    pub fn shard_of(&self, id: BufferId) -> usize {
        id % self.shards.len()
    }

    /// Registers a new Index Buffer (see [`IndexBufferSpace::register`]);
    /// the global id also selects the shard. Bumps the generation so
    /// published snapshots that predate the roster change invalidate.
    pub fn register(
        &self,
        name: impl Into<String>,
        config: BufferConfig,
        counts: Vec<u32>,
    ) -> BufferId {
        let id = self.next_buffer.fetch_add(1, Ordering::AcqRel);
        self.shard_write(self.shard_of(id))
            .register_as(id, name, config, counts);
        self.generation.fetch_add(1, Ordering::AcqRel);
        id
    }

    /// Write-locks one shard. Acquisition parks the epoch sentinel (failing
    /// fast-path validation for the whole critical section) and drains the
    /// shard's deferred Table II events — so the guard always exposes
    /// histories with nothing outstanding.
    pub fn shard_write(&self, shard: usize) -> ShardWriteGuard<'_> {
        let mut inner = self.shards[shard].write();
        // Park the sentinel: `epoch + 1` can never equal an epoch a section
        // was built at, so every validation fails until the guard's drop
        // republishes the truth. Model test: `snapshot_validation_vs_writer`.
        #[cfg(not(model_seeded_bug = "missing_sentinel"))]
        self.published[shard].store(inner.epoch().wrapping_add(1), Ordering::Release);
        #[cfg(not(model_seeded_bug = "missing_drain"))]
        inner.drain_deferred();
        ShardWriteGuard {
            inner,
            published: &self.published[shard],
        }
    }

    /// Read-locks one shard (no drain — readers cannot mutate histories).
    pub fn shard_read(&self, shard: usize) -> RwLockReadGuard<'_, IndexBufferSpace> {
        self.shards[shard].read()
    }

    /// Write-locks every shard, in ascending shard index.
    pub fn write_all(&self) -> Vec<ShardWriteGuard<'_>> {
        (0..self.shards.len())
            .map(|shard| self.shard_write(shard))
            .collect()
    }

    /// Read-locks every shard, in ascending shard index.
    pub fn read_all(&self) -> Vec<RwLockReadGuard<'_, IndexBufferSpace>> {
        (0..self.shards.len())
            .map(|shard| self.shard_read(shard))
            .collect()
    }

    /// Reconciles the governor with every shard's resident footprint.
    pub fn sync_all(&self) {
        for shard in self.read_all() {
            shard.sync_budget();
        }
    }

    /// True when `snapshot` still reflects the live space: same buffer
    /// roster and, for every shard, a published epoch equal to the one its
    /// section was built at. Plain `Acquire` loads — no lock, no shared
    /// write — so the fast path can validate on every query.
    pub fn validate(&self, snapshot: &SpaceSnapshot) -> bool {
        snapshot.sections.len() == self.shards.len()
            && snapshot.generation == self.generation.load(Ordering::Acquire)
            && snapshot
                .sections
                .iter()
                .enumerate()
                .all(|(i, s)| self.published[i].load(Ordering::Acquire) == s.epoch)
    }

    /// A validated read-only snapshot of the whole space: returns the
    /// published one when still valid, otherwise rebuilds (under shard read
    /// locks, ascending) and republishes. Callers must not hold any shard
    /// lock.
    pub fn space_snapshot(&self) -> Arc<SpaceSnapshot> {
        let current = Arc::clone(&self.snapshot.read());
        // Seeded bug: serve any non-empty cached snapshot without
        // validating — a DDL (`register`) that staled the roster goes
        // unnoticed. Model test: `generation_vs_add_buffer`.
        #[cfg(model_seeded_bug = "stale_snapshot_cache")]
        if !current.sections.is_empty() {
            return current;
        }
        if self.validate(&current) {
            return current;
        }
        let generation = self.generation.load(Ordering::Acquire);
        let sections = self
            .read_all()
            .iter()
            .map(|shard| ShardSection {
                epoch: shard.epoch(),
                buffers: shard
                    .buffer_ids()
                    .map(|id| {
                        let counters = shard.counters(id);
                        let buffer = shard.buffer(id);
                        BufferSummary {
                            id,
                            entries: buffer.num_entries(),
                            footprint: buffer.footprint(),
                            epoch: shard.epoch(),
                            partitions: buffer.num_partitions(),
                            partition_pages: buffer.config().partition_pages,
                            skip: counters.skip_snapshot(counters.num_pages()),
                            candidates: counters.pages_by_ascending_counter(),
                            pending: Arc::clone(shard.pending(id)),
                        }
                    })
                    .collect(),
            })
            .collect();
        let rebuilt = Arc::new(SpaceSnapshot {
            generation,
            sections,
        });
        // Last-build-wins publication; a concurrently staled snapshot is
        // caught by the next validation, never served silently.
        *self.snapshot.write() = Arc::clone(&rebuilt);
        rebuilt
    }

    /// Defers one query's Table II events into every buffer's pending cell
    /// (Table II touches all histories). The queried buffer's shard-write
    /// entry then drains them in order. Callers must not hold any shard
    /// lock (the snapshot may rebuild).
    pub fn record_shared(&self, queried: Option<BufferId>, partial_hit: bool) {
        let snapshot = self.space_snapshot();
        for buffer in snapshot.buffers() {
            if Some(buffer.id()) == queried && !partial_hit {
                buffer.pending().defer(0, 1, 0);
            } else {
                buffer.pending().defer(1, 0, 0);
            }
        }
    }

    /// Plans Algorithm 2's page selection for `target` read-only against a
    /// validated `snapshot`, returning `Some(pages)` exactly when the locked
    /// [`IndexBufferSpace::select_pages_for_buffer`] is *provably*
    /// equivalent without mutating anything — no partition displaced, no RNG
    /// drawn, no counter restored — and `None` otherwise (the caller fails
    /// closed to the shard-write path).
    ///
    /// The three plannable cases:
    /// 1. No candidate pages (`C[p] = 0` everywhere): the locked selection
    ///    returns empty before touching budget or RNG.
    /// 2. Unlimited `IndexSpace` budget: the locked path skips the
    ///    displacement loop entirely, so growth alone decides.
    /// 3. Limited budget but zero growth *and* no sibling buffer in the
    ///    shard owns a partition: the displacement loop's victim pick
    ///    deterministically finds no eligible partition and returns without
    ///    consuming randomness.
    ///
    /// A limited budget with nonzero growth is **not** plannable: committing
    /// those pages outside the lock could overshoot the budget raced by a
    /// concurrent reservation. Only empty selections are accepted there,
    /// which also makes the unsynchronized `headroom` read sound.
    pub fn plan_selection(&self, snapshot: &SpaceSnapshot, target: BufferId) -> Option<Vec<u32>> {
        let section = snapshot.sections.get(self.shard_of(target))?;
        let summary = section.buffers.iter().find(|b| b.id == target)?;
        let candidates = summary.candidates.as_slice();
        if candidates.is_empty() {
            return Some(Vec::new());
        }
        let i_max = self.config.i_max as usize;
        if self.budget.is_unlimited(BudgetComponent::IndexSpace) {
            let (pages, _, _) = grow_selection(candidates, i_max, usize::MAX);
            return Some(candidates[..pages].iter().map(|&(p, _)| p).collect());
        }
        let headroom = self.budget.headroom(BudgetComponent::IndexSpace);
        let (pages, _, _) = grow_selection(candidates, i_max, headroom);
        if pages > 0 {
            return None;
        }
        let displacement_reachable = i_max > 0
            && section
                .buffers
                .iter()
                .any(|b| b.id != target && b.partitions > 0);
        if displacement_reachable {
            return None;
        }
        Some(Vec::new())
    }

    /// Consistency check across every shard (tests): per-shard invariants
    /// plus the cross-shard budget reconciliation.
    pub fn check_invariants(&self) {
        for shard in self.read_all() {
            shard.check_invariants();
        }
    }
}

impl std::fmt::Debug for ShardedSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSpace")
            .field("shards", &self.shards.len())
            .field("buffers", &self.num_buffers())
            .finish_non_exhaustive()
    }
}

/// Write guard for one shard. While held, the shard's published epoch reads
/// as a sentinel, so no snapshot of this shard validates; dropping the
/// guard republishes the (possibly advanced) true epoch, instantly
/// re-validating snapshots after write windows that mutated nothing.
pub struct ShardWriteGuard<'a> {
    inner: RwLockWriteGuard<'a, IndexBufferSpace>,
    published: &'a AtomicU64,
}

impl Drop for ShardWriteGuard<'_> {
    fn drop(&mut self) {
        self.published.store(self.inner.epoch(), Ordering::Release);
    }
}

impl std::ops::Deref for ShardWriteGuard<'_> {
    type Target = IndexBufferSpace;
    fn deref(&self) -> &IndexBufferSpace {
        &self.inner
    }
}

impl std::ops::DerefMut for ShardWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut IndexBufferSpace {
        &mut self.inner
    }
}

/// An epoch-stamped, read-only view of the whole space: per-buffer entry
/// counts, footprints and cloned skip bitsets, plus the shared deferred-
/// event cells. Valid (per [`ShardedSpace::validate`]) it answers
/// fully-skippable queries and introspection without any lock.
#[derive(Debug)]
pub struct SpaceSnapshot {
    generation: u64,
    sections: Vec<ShardSection>,
}

#[derive(Debug)]
struct ShardSection {
    epoch: u64,
    buffers: Vec<BufferSummary>,
}

/// One buffer's entry in a [`SpaceSnapshot`].
#[derive(Debug)]
pub struct BufferSummary {
    id: BufferId,
    entries: usize,
    footprint: usize,
    /// The shard epoch the summary was built at (== its section's).
    epoch: u64,
    /// Partitions resident at snapshot time (victim-eligibility input for
    /// [`ShardedSpace::plan_selection`]).
    partitions: usize,
    /// The buffer's configured partition size in pages.
    partition_pages: u32,
    skip: SkipBitset,
    /// Candidate pages in ascending `(C[p], p)` order at snapshot time —
    /// the input Algorithm 2 grows a selection from.
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

    /// The shard epoch this summary was built at; an epoch-guarded probe of
    /// the live buffer compares against it.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Partitions resident at snapshot time.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// The buffer's configured partition size in pages.
    pub fn partition_pages(&self) -> u32 {
        self.partition_pages
    }

    /// The skip bitset at snapshot time, sized to the tracked page range.
    pub fn skip(&self) -> &SkipBitset {
        &self.skip
    }

    /// Candidate pages (`C[p] > 0`) in ascending `(C[p], p)` order at
    /// snapshot time.
    pub fn candidates(&self) -> &[(u32, u32)] {
        &self.candidates
    }

    /// The buffer's deferred-event cell (shared with the live slot).
    pub fn pending(&self) -> &BufferPending {
        &self.pending
    }

    /// True when a scan of `heap_pages` table pages against this buffer
    /// would skip every page *and* find nothing in the buffer itself —
    /// exactly the queries the lock-free fast path may answer. Requires
    /// `entries == 0` because a non-empty buffer contributes buffer-scan
    /// matches the snapshot cannot produce.
    pub fn fully_skippable(&self, heap_pages: u32) -> bool {
        self.entries == 0 && self.skip.len() >= heap_pages && self.skip.count() == self.skip.len()
    }
}

impl SpaceSnapshot {
    /// The buffer-roster stamp this snapshot was built at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Every buffer in the space, ascending shard then registration order.
    pub fn buffers(&self) -> impl Iterator<Item = &BufferSummary> + '_ {
        self.sections.iter().flat_map(|s| s.buffers.iter())
    }

    /// Looks up one buffer's summary.
    pub fn buffer(&self, id: BufferId) -> Option<&BufferSummary> {
        self.buffers().find(|b| b.id == id)
    }

    /// Per-buffer entry counts in ascending buffer-id order (the shape
    /// query metrics report).
    pub fn buffer_entries(&self) -> Vec<usize> {
        let mut all: Vec<(BufferId, usize)> = self.buffers().map(|b| (b.id, b.entries)).collect();
        all.sort_unstable_by_key(|&(id, _)| id);
        all.into_iter().map(|(_, entries)| entries).collect()
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
    /// Deferred events per buffer, indexed by global [`BufferId`].
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
    /// a freshly fetched one (which may rebuild under shard read locks —
    /// callers must not hold any shard lock).
    pub fn ensure(&mut self, space: &ShardedSpace) -> &Arc<SpaceSnapshot> {
        let stale = match &self.snapshot {
            Some(snapshot) => !space.validate(snapshot),
            None => true,
        };
        if stale {
            self.snapshot = Some(space.space_snapshot());
        }
        // The option was just populated on the stale path.
        // aib-lint: allow(no-panic) — set two lines above.
        self.snapshot.as_ref().expect("snapshot just ensured")
    }

    /// Defers one query's Table II events locally (no shared write at all).
    /// Call only with the snapshot returned by [`ensure`](Self::ensure)
    /// this query: events are recorded against its buffer roster.
    pub fn record(&mut self, queried: Option<BufferId>, partial_hit: bool) {
        let Some(snapshot) = &self.snapshot else {
            return;
        };
        let max_id = snapshot.buffers().map(|b| b.id).max();
        if let Some(max_id) = max_id {
            if self.local.len() <= max_id {
                self.local.resize(max_id + 1, LocalPending::default());
            }
        }
        for buffer in snapshot.buffers() {
            let cell = &mut self.local[buffer.id];
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
        for buffer in snapshot.buffers() {
            let Some(cell) = self.local.get_mut(buffer.id) else {
                continue;
            };
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

    fn cfg(shards: usize) -> SpaceConfig {
        SpaceConfig {
            shards,
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn buffers_route_to_shards_round_robin() {
        let space = ShardedSpace::new(cfg(3));
        let ids: Vec<BufferId> = (0..7)
            .map(|i| space.register(format!("b{i}"), BufferConfig::default(), vec![1; 4]))
            .collect();
        assert_eq!(ids, (0..7).collect::<Vec<_>>());
        assert_eq!(space.num_buffers(), 7);
        assert_eq!(space.shard_read(0).num_buffers(), 3);
        assert_eq!(space.shard_read(1).num_buffers(), 2);
        assert_eq!(space.shard_read(2).num_buffers(), 2);
        // Every buffer is reachable through its shard under its global id.
        for &id in &ids {
            let shard = space.shard_read(space.shard_of(id));
            assert_eq!(shard.buffer(id).id(), id);
        }
        space.check_invariants();
    }

    #[test]
    fn snapshot_validates_until_a_mutation_and_revalidates_after() {
        let space = ShardedSpace::new(cfg(2));
        let a = space.register("a", BufferConfig::default(), vec![0; 4]);
        let snap = space.space_snapshot();
        assert!(space.validate(&snap));
        assert!(snap.buffer(a).is_some());

        // A write window that mutates nothing re-validates on drop.
        drop(space.shard_write(space.shard_of(a)));
        assert!(space.validate(&snap), "no mutation, epoch republished");

        // A mutation inside the window invalidates for good.
        space
            .shard_write(space.shard_of(a))
            .with_buffer_mut(a, |_, _| {});
        assert!(!space.validate(&snap), "mutated shard stales the snapshot");
        let fresh = space.space_snapshot();
        assert!(space.validate(&fresh));
    }

    #[test]
    fn snapshot_invalidates_while_writer_is_inside() {
        let space = ShardedSpace::new(cfg(2));
        let a = space.register("a", BufferConfig::default(), vec![0; 4]);
        let snap = space.space_snapshot();
        let guard = space.shard_write(space.shard_of(a));
        assert!(
            !space.validate(&snap),
            "sentinel parks while the writer holds the shard"
        );
        drop(guard);
        assert!(space.validate(&snap), "clean window restores validity");
    }

    #[test]
    fn bulk_counter_resets_stale_published_snapshots() {
        // Satellite regression: reset_counters / clear_buffer flip pages
        // skippable; a snapshot published before the reset must not keep
        // validating (it would answer from the stale bitset).
        let space = ShardedSpace::new(cfg(2));
        let a = space.register("a", BufferConfig::default(), vec![1; 4]);
        let before = space.space_snapshot();
        assert!(space.validate(&before));
        space
            .shard_write(space.shard_of(a))
            .reset_counters(a, vec![0; 4]);
        assert!(
            !space.validate(&before),
            "reset_counters must invalidate published snapshots"
        );
        let after = space.space_snapshot();
        let summary = after.buffer(a).expect("registered");
        assert!(summary.fully_skippable(4));

        let again = space.space_snapshot();
        space.shard_write(space.shard_of(a)).clear_buffer(a);
        assert!(
            !space.validate(&again),
            "clear_buffer must invalidate published snapshots"
        );
    }

    #[test]
    fn registration_stales_snapshots_via_generation() {
        let space = ShardedSpace::new(cfg(2));
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
        let space = ShardedSpace::new(cfg(1));
        let a = space.register("a", BufferConfig::default(), vec![0, 1, 0]);
        let snap = space.space_snapshot();
        let s = snap.buffer(a).expect("registered");
        assert!(!s.fully_skippable(3), "page 1 still has uncovered tuples");
        space.shard_write(0).reset_counters(a, vec![0, 0, 0]);
        let snap = space.space_snapshot();
        let s = snap.buffer(a).expect("registered");
        assert!(s.fully_skippable(3));
        assert!(s.fully_skippable(2), "tracked range may exceed the heap");
        assert!(!s.fully_skippable(4), "untracked pages are never skippable");
    }

    #[test]
    fn cache_defers_locally_and_flushes_through_shared_cells() {
        let space = ShardedSpace::new(cfg(2));
        let a = space.register("a", BufferConfig::default(), Vec::new());
        let b = space.register("b", BufferConfig::default(), Vec::new());
        let mut cache = SnapshotCache::new();
        cache.ensure(&space);
        // tick-all, then a use on `a`, then another tick-all.
        cache.record(None, false);
        cache.record(Some(a), false);
        cache.record(None, false);
        // Nothing visible anywhere until the flush...
        assert!(space.shard_read(space.shard_of(a)).pending(a).is_empty());
        cache.flush();
        // ...then the write-side drain applies them in deferral order.
        drop(space.shard_write(space.shard_of(a)));
        drop(space.shard_write(space.shard_of(b)));
        let sa = space.shard_read(space.shard_of(a));
        assert_eq!(sa.buffer(a).history().uses(), 1);
        assert_eq!(sa.buffer(a).history().clock(), 2);
        drop(sa);
        let sb = space.shard_read(space.shard_of(b));
        assert_eq!(sb.buffer(b).history().uses(), 0);
        assert_eq!(sb.buffer(b).history().clock(), 3);
    }

    #[test]
    fn plan_selection_matches_locked_selection_when_plannable() {
        use aib_storage::DEFAULT_ENTRY_FOOTPRINT;
        // Unlimited budget: the planned selection must equal the locked one.
        let space = ShardedSpace::new(cfg(2));
        let a = space.register("a", BufferConfig::default(), vec![3, 0, 1, 2]);
        let snap = space.space_snapshot();
        let planned = space.plan_selection(&snap, a).expect("unlimited budget");
        let locked = space
            .shard_write(space.shard_of(a))
            .select_pages_for_buffer(a);
        assert_eq!(planned, locked.pages);
        assert_eq!(planned, vec![2, 3, 0], "ascending counter order");

        // Zero headroom, no sibling partitions: plannable, empty.
        let tight = ShardedSpace::new(SpaceConfig {
            max_bytes: Some(0),
            shards: 1,
            seed: 7,
            ..Default::default()
        });
        let b = tight.register("b", BufferConfig::default(), vec![5, 5]);
        let snap = tight.space_snapshot();
        assert_eq!(tight.plan_selection(&snap, b), Some(Vec::new()));
        let locked = tight.shard_write(0).select_pages_for_buffer(b);
        assert!(locked.pages.is_empty() && locked.displaced.is_empty());

        // Limited budget with headroom: growth is nonzero → not plannable.
        let roomy = ShardedSpace::new(SpaceConfig {
            max_bytes: Some(10 * DEFAULT_ENTRY_FOOTPRINT),
            shards: 1,
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
        let space = ShardedSpace::new(SpaceConfig {
            max_bytes: Some(2 * aib_storage::DEFAULT_ENTRY_FOOTPRINT),
            shards: 1,
            seed: 7,
            ..Default::default()
        });
        let a = space.register("a", BufferConfig::default(), vec![1, 1]);
        let b = space.register("b", BufferConfig::default(), vec![4, 4]);
        {
            let mut s = space.shard_write(0);
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
        let space = ShardedSpace::new(cfg(1));
        let a = space.register("a", BufferConfig::default(), vec![0, 2, 1]);
        let snap = space.space_snapshot();
        let s = snap.buffer(a).expect("registered");
        assert_eq!(s.candidates(), &[(2, 1), (1, 2)]);
        assert_eq!(s.partitions(), 0);
        assert_eq!(s.partition_pages(), BufferConfig::default().partition_pages);
        let live = space.shard_read(0);
        assert_eq!(s.epoch(), live.epoch());
    }

    #[test]
    fn shards_share_one_budget() {
        use aib_storage::{Rid, Value};
        let space = ShardedSpace::new(SpaceConfig {
            max_bytes: Some(10 * aib_storage::DEFAULT_ENTRY_FOOTPRINT),
            shards: 2,
            seed: 7,
            ..Default::default()
        });
        let a = space.register("a", BufferConfig::default(), vec![1; 8]);
        let b = space.register("b", BufferConfig::default(), vec![1; 8]);
        assert_ne!(space.shard_of(a), space.shard_of(b));
        // Fill shard 0's buffer; shard 1 must see the shrunken headroom.
        {
            let mut s0 = space.shard_write(space.shard_of(a));
            for p in 0..8u32 {
                s0.with_buffer_mut(a, |buffer, counters| {
                    buffer.index_page(p, vec![(Value::Int(p as i64), Rid::new(p, 0))]);
                    counters.set_zero(p);
                });
            }
            s0.sync_budget();
        }
        let s1 = space.shard_read(space.shard_of(b));
        assert_eq!(s1.free_entries(), 2, "8 of 10 entries claimed by shard 0");
        drop(s1);
        space.check_invariants();
    }
}
