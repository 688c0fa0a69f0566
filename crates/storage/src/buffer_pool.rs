//! The database buffer: a fixed set of in-memory frames caching disk pages,
//! with pinning and LRU displacement.
//!
//! The Adaptive Index Buffer "resides within the database buffer" (paper
//! §III); heap pages flow through this pool, so table-scan I/O behaves like
//! a real system: a scan of a large table cycles pages through the pool and
//! every unskipped page costs a disk read once the table exceeds pool
//! capacity. Resident frames are charged byte-accurately to the shared
//! [`MemoryBudget`] under [`BudgetComponent::BufferPool`]: claiming a free
//! frame charges [`PAGE_SIZE`] bytes, and once no frame is free the pool
//! displaces its coldest unpinned page instead (byte-neutral). The frame
//! count is the pool's only bound.
//!
//! # Pinning
//!
//! A page is pinned one way, by one per-page step under the state lock: a
//! resident page is pinned and moved to the hot end of the recency list; a
//! missing one gets a frame claimed, write-latched and mapped to it. Both
//! entries run that step — a single-page fetch ([`BufferPool::fetch_read`],
//! [`BufferPool::fetch_write`], [`BufferPool::new_page`]) once, a sweep
//! batch ([`PinnedBatch::pin`]) once per page — and both fill a miss from
//! the store with the state lock released, under the claimed frame's write
//! latch, so a concurrent fetcher of the same page finds it mapped and
//! waits on that latch. A failed read ends the claimed frame's residency
//! and leaves the pool as it was. A page guard borrows the pool and holds
//! the frame latch, then the pin: the latch is released first.
//!
//! # Value filters
//!
//! Each frame carries the value filters of its image ([`FrameFilters`], 64
//! bytes, pool bookkeeping outside the [`MemoryBudget`]). Every write latch
//! that may change an image is taken through one helper that clears them,
//! and a sweep hands them only to the pages its batch found resident
//! ([`PinnedBatch::visit`]), which build and use them under the read latch.
//!
//! # Lock order
//!
//! The pool's three lock kinds are **leaves** of the engine-wide hierarchy
//! (`catalog → space → pool`; see DESIGN.md "Concurrency model"): callers may
//! hold the engine's catalog or space locks while pinning pages here, but no
//! pool method ever calls back out into engine state, so no pool lock is ever
//! held around a catalog or space acquisition. Internally the order is
//!
//! 1. `state` (page table, free list, recency list) — never held across a
//!    page *read*; the one I/O under it is a dirty eviction victim's
//!    write-back (see `remap_frame`), which must land before the victim's
//!    mapping leaves the page table. Everything else under it is array
//!    writes: the page table is a dense `Vec` indexed by page id and the
//!    recency list is intrusive (`LruPolicy`), so a whole sweep batch
//!    holds the mutex for a few hundred nanoseconds;
//! 2. per-frame latches — acquired after `state` only for frames proven
//!    unpinned (no holders, cannot block), otherwise after releasing
//!    `state`. The one acquisition the other way round is a failed fill's
//!    undo, which takes `state` under the write latch of a frame it has
//!    pinned itself, so no thread holding `state` can be waiting on it;
//! 3. `disk` — taken last, for the duration of one read/write/batch; a leaf:
//!    nothing is acquired while it is held, and it is never held across a
//!    sync: [`BufferPool::capture`] freezes the dirty pages under it (a
//!    memcpy) and [`CapturedSync::flush`] writes and fsyncs them off it
//!    (`aib-lint`'s `lock-order` rule has an arm for exactly that).

// aib-lint: allow-file(no-index) — `frames` and `pins` are fixed-size
// arrays allocated at construction and only ever indexed by FrameIds the
// pool itself handed out (from the page table or the recency list), which are
// `< frames.len()` by construction; `page_table` is indexed only after
// `frame_of` found the id in range or `cover` grew the table over it.

use std::sync::Arc;

use crate::budget::{BudgetComponent, MemoryBudget, MemoryUsage};
use crate::disk::PAGE_SIZE;
use crate::error::StorageError;
use crate::file_backend::{FileBackend, FileFlush};
use crate::page::FrameFilters;
use crate::replacement::{FrameId, LruPolicy};
use crate::rid::PageId;
use crate::stats::IoStats;
use crate::sync::{AtomicUsize, Mutex, Ordering, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Buffer pool construction parameters.
pub struct BufferPoolConfig {
    /// Number of page frames.
    pub frames: usize,
    /// Shared memory governor; defaults to an unlimited budget.
    pub budget: Arc<MemoryBudget>,
}

impl BufferPoolConfig {
    /// A pool with `frames` frames and LRU displacement.
    pub fn lru(frames: usize) -> Self {
        BufferPoolConfig {
            frames,
            budget: Arc::new(MemoryBudget::unlimited()),
        }
    }

    /// Attaches a shared memory governor (builder-style).
    pub fn with_budget(mut self, budget: Arc<MemoryBudget>) -> Self {
        self.budget = budget;
        self
    }
}

/// Contents of one buffer frame.
#[derive(Debug)]
struct FrameCell {
    page: Option<PageId>,
    dirty: bool,
    data: Box<[u8; PAGE_SIZE]>,
    /// Value filters of `data`; cleared by [`BufferPool::latch_write`].
    filters: FrameFilters,
}

impl MemoryUsage for FrameCell {
    /// A frame costs a full page image while it holds one, nothing while
    /// free (the backing allocation is reusable capacity, not residency).
    fn footprint(&self) -> usize {
        if self.page.is_some() {
            PAGE_SIZE
        } else {
            0
        }
    }
}

/// Pool bookkeeping guarded by a single mutex (the frame *contents* are
/// guarded per-frame, so I/O and page reads proceed without this lock).
struct PoolState {
    /// `page_table[pid]`: the frame holding page `pid`, or [`NO_FRAME`].
    /// Page ids are the store's dense allocation sequence, so the table is
    /// a plain array grown to the store's page count on demand (see
    /// [`BufferPool::cover`]); like the hash map it replaces it is pool
    /// bookkeeping, not page residency, and sits outside the
    /// [`MemoryBudget`].
    page_table: Vec<u32>,
    free: Vec<FrameId>,
    lru: LruPolicy,
}

/// Page-table entry of a page that is not resident.
const NO_FRAME: u32 = u32::MAX;

impl PoolState {
    fn frame_of(&self, pid: PageId) -> Option<FrameId> {
        match self.page_table.get(pid.index()) {
            Some(&frame) if frame != NO_FRAME => Some(frame as FrameId),
            _ => None,
        }
    }

    /// Points `pid` at `frame` (`None`: not resident). The table must
    /// already cover `pid`.
    fn map(&mut self, pid: PageId, frame: Option<FrameId>) {
        self.page_table[pid.index()] = frame.map_or(NO_FRAME, |f| f as u32);
    }
}

/// A frame claimed for a page that was not resident, write-latched until
/// the caller has filled it.
type Claimed<'a> = Option<RwLockWriteGuard<'a, FrameCell>>;

/// The buffer pool. Shared via [`Arc`]; page guards borrow it and keep
/// their frame pinned for their lifetime.
pub struct BufferPool {
    frames: Vec<RwLock<FrameCell>>,
    /// Per-frame pin counts. Increments happen under the state lock (so
    /// eviction scans see a stable floor); decrements are lock-free, which
    /// keeps guard drops off the state mutex entirely.
    pins: Vec<AtomicUsize>,
    state: Mutex<PoolState>,
    disk: Mutex<FileBackend>,
    stats: Arc<IoStats>,
    budget: Arc<MemoryBudget>,
}

impl BufferPool {
    /// Builds a pool over the page store `disk`.
    ///
    /// # Panics
    /// If `config.frames == 0`.
    pub fn new(disk: FileBackend, config: BufferPoolConfig) -> Arc<Self> {
        assert!(config.frames > 0, "buffer pool needs at least one frame");
        let stats = disk.stats();
        let frames = (0..config.frames)
            .map(|_| {
                RwLock::new(FrameCell {
                    page: None,
                    dirty: false,
                    data: Box::new([0; PAGE_SIZE]),
                    filters: FrameFilters::default(),
                })
            })
            .collect();
        Arc::new(BufferPool {
            frames,
            pins: (0..config.frames).map(|_| AtomicUsize::new(0)).collect(),
            state: Mutex::new(PoolState {
                page_table: Vec::new(),
                free: (0..config.frames).rev().collect(),
                lru: LruPolicy::new(config.frames),
            }),
            disk: Mutex::new(disk),
            stats,
            budget: config.budget,
        })
    }

    /// [`BufferPool::new`] over a boxed store. Kept only because the frozen
    /// `e2e/` harness still calls it (ROADMAP item 1 deletes it); nothing
    /// else may use it.
    #[allow(clippy::boxed_local)] // the box is the frozen harness's spelling
    pub fn with_backend(disk: Box<FileBackend>, config: BufferPoolConfig) -> Arc<Self> {
        Self::new(*disk, config)
    }

    /// The shared I/O statistics (same sink the page store reports to).
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    /// The shared memory governor this pool charges its frames to.
    pub fn budget(&self) -> Arc<MemoryBudget> {
        Arc::clone(&self.budget)
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// Allocates a brand-new zeroed page and returns it pinned for writing.
    /// Counted as a miss; no disk read is charged; the page reaches disk on
    /// eviction or sync.
    pub fn new_page(&self) -> Result<(PageId, PageWriteGuard<'_>), StorageError> {
        let pid = self.disk.lock().allocate()?;
        let (pin, claimed) = self.pin_one(pid, |data| {
            data.fill(0);
            Ok(())
        })?;
        Ok((pid, self.write_guard(pin, claimed)))
    }

    /// Fetches `pid` for reading, pinning its frame.
    pub fn fetch_read(&self, pid: PageId) -> Result<PageReadGuard<'_>, StorageError> {
        let (pin, claimed) = self.pin_one(pid, |data| self.disk.lock().read(pid, data))?;
        // A miss was filled under the write latch; a reader holds the
        // shared one. The pin keeps the frame on `pid` in between.
        drop(claimed);
        let cell = self.frames[pin.frame].read();
        debug_assert_eq!(cell.page, Some(pid));
        Ok(PageReadGuard { cell, pin })
    }

    /// Fetches `pid` for writing, pinning its frame and marking it dirty.
    pub fn fetch_write(&self, pid: PageId) -> Result<PageWriteGuard<'_>, StorageError> {
        let (pin, claimed) = self.pin_one(pid, |data| self.disk.lock().read(pid, data))?;
        let guard = self.write_guard(pin, claimed);
        debug_assert_eq!(guard.cell.page, Some(pid));
        Ok(guard)
    }

    /// Write access to a pinned page, marked dirty: a miss keeps the latch
    /// its claim took, a hit takes one through
    /// [`latch_write`](Self::latch_write).
    fn write_guard<'a>(&'a self, pin: Pin<'a>, claimed: Claimed<'a>) -> PageWriteGuard<'a> {
        let mut cell = claimed.unwrap_or_else(|| self.latch_write(pin.frame));
        cell.dirty = true;
        PageWriteGuard { cell, pin }
    }

    /// Write-latches `frame` to change its image, and clears the image's
    /// value filters under that latch. Every write latch that may change an
    /// image — a claim's fill or remap, a write guard — is taken here;
    /// [`capture`](Self::capture), which only reads the images, is the one
    /// that latches directly.
    fn latch_write(&self, frame: FrameId) -> RwLockWriteGuard<'_, FrameCell> {
        let cell = self.frames[frame].write();
        cell.filters.clear();
        cell
    }

    /// The single-page entry: [`pin_page`](Self::pin_page) in a state-lock
    /// acquisition of its own, a miss linked at the hot end, then `fill` of
    /// a miss's image with the state lock released, under the claimed
    /// frame's write latch. Returns the pin and, for a miss, that latch over
    /// the filled frame. A failed fill is undone like a failed batch read
    /// ([`abandon_frame`](Self::abandon_frame)).
    fn pin_one(
        &self,
        pid: PageId,
        fill: impl FnOnce(&mut [u8; PAGE_SIZE]) -> Result<(), StorageError>,
    ) -> Result<(Pin<'_>, Claimed<'_>), StorageError> {
        let mut state = self.state.lock();
        let (frame, claimed) = self.pin_page(&mut state, pid)?;
        let pin = Pin { pool: self, frame };
        let Some(mut cell) = claimed else {
            drop(state);
            self.stats.record_hit();
            return Ok((pin, None));
        };
        state.lru.record_access(frame);
        drop(state);
        self.stats.record_miss();
        if let Err(e) = fill(&mut cell.data) {
            let mut state = self.state.lock();
            drop(pin);
            self.abandon_frame(&mut state, pid, frame, &mut cell);
            return Err(e);
        }
        cell.page = Some(pid);
        cell.dirty = false;
        Ok((pin, Some(cell)))
    }

    /// The one per-page pinning step of both entries, under the state lock.
    /// A resident `pid` is pinned and moved to the hot end of the recency
    /// list. Otherwise a frame is claimed ([`claim_frame`](Self::claim_frame)),
    /// write-latched — it is unpinned, so nothing holds it and this cannot
    /// block — and remapped to `pid`, pinned; it is on no recency list
    /// until the caller links it where its admission rule says, and holds
    /// no image until the caller fills it. On error nothing is pinned.
    fn pin_page<'a>(
        &'a self,
        state: &mut PoolState,
        pid: PageId,
    ) -> Result<(FrameId, Claimed<'a>), StorageError> {
        let (frame, claimed) = match state.frame_of(pid) {
            Some(frame) => {
                state.lru.record_access(frame);
                (frame, None)
            }
            None => {
                self.cover(state, pid)?;
                let frame = self.claim_frame(state)?;
                let mut cell = self.latch_write(frame);
                self.remap_frame(state, frame, &mut cell, pid)?;
                (frame, Some(cell))
            }
        };
        self.pins[frame].fetch_add(1, Ordering::Relaxed);
        Ok((frame, claimed))
    }

    /// Makes sure the page table has a slot for `pid`, growing it to the
    /// store's current page count. An id the store never allocated is
    /// refused here — the same error its read would give — so a wild id
    /// cannot size the table.
    fn cover(&self, state: &mut PoolState, pid: PageId) -> Result<(), StorageError> {
        if pid.index() >= state.page_table.len() {
            let pages = self.disk.lock().num_pages();
            if pid.index() >= pages {
                return Err(StorageError::UnknownPage(pid));
            }
            state.page_table.resize(pages, NO_FRAME);
        }
        Ok(())
    }

    /// Ends the residency of `frame`, claimed for `pid` but never filled
    /// (its read failed): unmapped, off the recency list, back on the free
    /// list, its page image off the governor's books. The caller releases
    /// the pin.
    fn abandon_frame(
        &self,
        state: &mut PoolState,
        pid: PageId,
        frame: FrameId,
        cell: &mut FrameCell,
    ) {
        state.map(pid, None);
        state.lru.remove(frame);
        state.free.push(frame);
        cell.page = None;
        cell.dirty = false;
        self.budget.release(BudgetComponent::BufferPool, PAGE_SIZE);
    }

    /// Hands the just-claimed, write-latched `frame` over to `pid` under the
    /// state lock.
    ///
    /// A dirty victim is written back *before* its mapping leaves the page
    /// table. Unmapping first and writing after the state lock is released
    /// loses writes: a concurrent fetch of the victim misses in the window,
    /// reads the stale image from the store, and every later reader sees
    /// that instead of the update that sat in this frame. The write is the
    /// only I/O ever done under the state lock; it is an 8 KiB copy into the
    /// store's no-steal overlay.
    ///
    /// On a write error the victim stays mapped and goes back on the list as
    /// evictable — the pool is as if the frame was never claimed.
    fn remap_frame(
        &self,
        state: &mut PoolState,
        frame: FrameId,
        cell: &mut FrameCell,
        pid: PageId,
    ) -> Result<(), StorageError> {
        if let Some(old_pid) = cell.page {
            if cell.dirty {
                if let Err(e) = self.disk.lock().write(old_pid, &cell.data) {
                    state.lru.record_access(frame);
                    return Err(e);
                }
                cell.dirty = false;
            }
            state.map(old_pid, None);
        }
        state.map(pid, Some(frame));
        Ok(())
    }

    /// Claims one frame for a not-yet-resident page, under the state lock.
    ///
    /// A free frame grows resident bytes by one page image, charged to the
    /// governor; once none is free the coldest unpinned frame is displaced,
    /// which swaps one resident page for another (byte-neutral).
    fn claim_frame(&self, state: &mut PoolState) -> Result<FrameId, StorageError> {
        match state.free.pop() {
            Some(f) => {
                self.budget.charge(BudgetComponent::BufferPool, PAGE_SIZE);
                Ok(f)
            }
            None => self.displace_from(state),
        }
    }

    /// Starts the pinning of one sweep that plans to read `planned_pages`
    /// pages through this pool; the sweep then feeds its runs, a batch at a
    /// time, into [`PinnedBatch::pin`].
    ///
    /// The admission rule is decided here, once, from the plan: a sweep
    /// that fits the pool admits its misses like any other fetch (hot end of
    /// the recency list). A sweep **larger than the pool** cannot leave its
    /// pages resident for its own next visit whatever it does, so its misses
    /// enter the list at the *cold* end: the next batch displaces the
    /// previous one's frames (a ring the size of a batch, PostgreSQL's
    /// bulk-read strategy) and whatever else was resident — index-hit
    /// pages, DML pages, the prefix of the table a previous sweep loaded —
    /// stays. Hits always move to the hot end: a page somebody still finds
    /// resident is in use beyond this sweep.
    pub fn sweep_batch(&self, planned_pages: usize) -> PinnedBatch<'_> {
        PinnedBatch {
            pool: self,
            recycle: planned_pages > self.capacity(),
            frames: Vec::new(),
            visited: 0,
            misses: Vec::new(),
        }
    }

    /// Picks a displacement victim, counting it against the governor.
    fn displace_from(&self, state: &mut PoolState) -> Result<FrameId, StorageError> {
        let frame = state
            .lru
            .displace(|f| self.pins[f].load(Ordering::Acquire) > 0)
            .ok_or(StorageError::PoolExhausted)?;
        self.budget.record_displacements(1);
        Ok(frame)
    }

    /// Unpins a frame (guard drop). Lock-free: pin counts are atomics, and
    /// displacement double-checks them under the state lock.
    fn unpin(&self, frame: FrameId) {
        let prev = self.pins[frame].fetch_sub(1, Ordering::Release);
        debug_assert!(prev > 0, "unpin without pin");
    }

    /// Shadow-model hook (`invariant-checks` feature): the bytes the
    /// governor charges to [`BudgetComponent::BufferPool`] must equal the
    /// pool's resident footprint — every frame admission charged, every
    /// eviction released, nothing double-counted. The index-space side of
    /// the same check lives in `aib-core::invariants::verify_space`.
    #[cfg(feature = "invariant-checks")]
    pub fn verify_budget(&self) -> Result<(), String> {
        let charged = self.budget.used(BudgetComponent::BufferPool);
        let footprint = self.footprint();
        if charged == footprint {
            Ok(())
        } else {
            Err(format!(
                "governor charges {charged} bytes to BufferPool, resident \
                 footprint is {footprint}"
            ))
        }
    }

    /// Shadow-model hook (`invariant-checks` feature): every built value
    /// filter holds the bit of every live tuple's value in its frame, so a
    /// sweep that skips a page on its filter skips no match. Frames are
    /// read-latched one at a time, so no filter is built or cleared while
    /// its image is checked.
    #[cfg(feature = "invariant-checks")]
    pub fn verify_filters(&self) -> Result<(), String> {
        use crate::page::{PageView, ValueFilter, FILTERED_COLUMNS};
        use crate::value::Value;
        for (frame, cell) in self.frames.iter().enumerate() {
            let cell = cell.read();
            let Some(page) = cell.page else { continue };
            for column in 0..FILTERED_COLUMNS {
                let Some(filter) = cell.filters.column(column).and_then(|f| f.built()) else {
                    continue;
                };
                // The extent a sweep's row loop hashes: skip to the column,
                // then over it.
                let value = |bytes: &[u8]| {
                    let mut pos = 2;
                    for _ in 0..column {
                        Value::skip(bytes, &mut pos).ok()?;
                    }
                    let start = pos;
                    Value::skip(bytes, &mut pos).ok()?;
                    bytes.get(start..pos).map(ValueFilter::of)
                };
                let mut lies = Vec::new();
                PageView::new(&cell.data[..]).for_each_live(|slot, bytes| {
                    if !value(bytes).is_some_and(|v| filter.may_contain(v)) {
                        lies.push(slot);
                    }
                });
                if !lies.is_empty() {
                    return Err(format!(
                        "frame {frame} (page {page}): the built column-{column} value \
                         filter lacks the value of slots {lies:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Checkpoint hook: makes every page written so far durable
    /// ([`FileBackend::sync`]). [`BufferPool::capture`] and
    /// [`CapturedSync::flush`] back to back.
    pub fn sync(&self) -> Result<(), StorageError> {
        self.capture()?.flush()
    }

    /// The first half of [`BufferPool::sync`], and the only one that needs
    /// the pool still: hands every dirty frame to the store in one freeze —
    /// one walk over the frames, one `disk` lock —
    /// and marks them clean. What comes back owns a frozen copy of
    /// everything unsynced; the caller may release its own locks before
    /// [`CapturedSync::flush`] does the I/O, and pages dirtied in between
    /// belong to the next sync.
    pub fn capture(&self) -> Result<CapturedSync<'_>, StorageError> {
        let mut dirty: Vec<_> = self
            .frames
            .iter()
            .map(|cell| cell.write())
            .filter(|cell| cell.dirty && cell.page.is_some())
            .collect();
        let images: Vec<(PageId, &[u8; PAGE_SIZE])> = dirty
            .iter()
            .filter_map(|cell| Some((cell.page?, &*cell.data)))
            .collect();
        let job = self.disk.lock().freeze(&images)?;
        drop(images);
        for cell in &mut dirty {
            cell.dirty = false;
        }
        Ok(CapturedSync {
            pool: self,
            job: Some(job),
        })
    }

    /// Recovery hook: allocates store pages until `pid` exists, so WAL
    /// replay can address the exact page ids the pre-crash execution used
    /// even when intervening ids belong to pages this heap does not own
    /// (another table's, or allocated before the crash and never logged).
    /// Skipped ids stay zeroed — a valid empty slotted page — until some
    /// heap adopts them.
    pub fn ensure_page(&self, pid: PageId) -> Result<(), StorageError> {
        let mut disk = self.disk.lock();
        while disk.num_pages() <= pid.index() {
            disk.allocate()?;
        }
        Ok(())
    }
}

impl MemoryUsage for BufferPool {
    /// Bytes resident across all occupied frames (free frames cost nothing;
    /// see `FrameCell`'s impl).
    fn footprint(&self) -> usize {
        let free = self.state.lock().free.len();
        (self.frames.len() - free) * PAGE_SIZE
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("frames", &self.frames.len())
            .finish_non_exhaustive()
    }
}

/// Everything [`BufferPool::capture`] found unsynced, frozen and waiting to
/// be written out. Dropping it without [`CapturedSync::flush`] hands the
/// pages back to the store as unsynced writes.
#[must_use = "a captured sync is durable only once flushed"]
pub struct CapturedSync<'a> {
    pool: &'a BufferPool,
    job: Option<FileFlush>,
}

impl CapturedSync<'_> {
    /// Writes the frozen pages out and fsyncs them — with no pool lock held,
    /// so fetches, evictions and page writes go on meanwhile — then books
    /// the outcome with the store.
    pub fn flush(mut self) -> Result<(), StorageError> {
        let Some(job) = self.job.take() else {
            return Ok(());
        };
        let flushed = job.write_out();
        self.pool.disk.lock().thaw(flushed)
    }
}

impl Drop for CapturedSync<'_> {
    fn drop(&mut self) {
        if self.job.take().is_some() {
            let abandoned = Err(StorageError::Io("captured sync abandoned".into()));
            // The error is the one just made up: nothing to report.
            let _ = self.pool.disk.lock().thaw(abandoned);
        }
    }
}

impl std::fmt::Debug for CapturedSync<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CapturedSync")
            .field("flushed", &self.job.is_none())
            .finish()
    }
}

/// A page of a batch that was not resident: the frame claimed for it, held
/// write-latched until the batched read has filled it.
struct Miss<'a> {
    /// Index into the batch's `pids`.
    at: usize,
    frame: FrameId,
    guard: RwLockWriteGuard<'a, FrameCell>,
}

/// The pins of one sweep (see [`BufferPool::sweep_batch`]): pinned with
/// [`PinnedBatch::pin`], read and released page by page with
/// [`PinnedBatch::visit`]. One value serves every batch of the sweep, so a
/// batch allocates nothing and touches no reference count; whatever is
/// still pinned when the value drops is unpinned then.
pub struct PinnedBatch<'a> {
    pool: &'a BufferPool,
    /// Misses enter the recency list at its cold end.
    recycle: bool,
    /// Frames of the current batch in page order, each with whether its
    /// page was already resident; `frames[visited..]` are still pinned.
    frames: Vec<(FrameId, bool)>,
    visited: usize,
    misses: Vec<Miss<'a>>,
}

impl PinnedBatch<'_> {
    /// Pins *every* page of `pids` — residents and misses alike — doing all
    /// pool bookkeeping in one state-lock acquisition and all miss I/O in one
    /// disk request ([`FileBackend::read_batch`]): per page it costs two
    /// atomic pin updates and a few array writes, not a lock round-trip and
    /// an individual disk call. Pins left over from the previous batch are
    /// released first.
    ///
    /// The pins block eviction and remapping without holding frame locks;
    /// [`PinnedBatch::visit`] locks one frame at a time — the same
    /// page-level isolation as repeated [`BufferPool::fetch_read`] calls.
    /// `pids` must not contain duplicates (heap sweeps never do). On error
    /// the pool is left consistent and nothing stays pinned.
    pub fn pin(&mut self, pids: &[PageId]) -> Result<(), StorageError> {
        self.release();
        let pool = self.pool;
        let mut state = pool.state.lock();
        for (i, &pid) in pids.iter().enumerate() {
            debug_assert!(!pids[..i].contains(&pid), "batch pids must be distinct");
            match pool.pin_page(&mut state, pid) {
                Ok((frame, claimed)) => {
                    self.frames.push((frame, claimed.is_none()));
                    if let Some(guard) = claimed {
                        self.misses.push(Miss {
                            at: i,
                            frame,
                            guard,
                        });
                    }
                }
                Err(e) => {
                    // Unwind so the pool is as if the call never happened.
                    // No frame data was touched yet, so a claimed frame
                    // that evicted a victim simply gets its victim's
                    // mapping restored (its image is intact and already
                    // written back — this path is reachable under ordinary
                    // pin pressure) and goes back to the cold end it was
                    // taken from, last-claimed first so the victims keep
                    // their order; fresh frames go back to the free list
                    // and return their charge.
                    for (frame, _) in self.frames.drain(..) {
                        pool.unpin(frame);
                    }
                    for m in self.misses.drain(..).rev() {
                        state.map(pids[m.at], None);
                        match m.guard.page {
                            Some(old_pid) => {
                                state.map(old_pid, Some(m.frame));
                                state.lru.admit_cold(m.frame);
                            }
                            None => {
                                state.free.push(m.frame);
                                pool.budget.release(BudgetComponent::BufferPool, PAGE_SIZE);
                            }
                        }
                    }
                    return Err(e);
                }
            }
        }
        // The claimed frames join the list only now: while the loop ran
        // they were on no list, so no later claim of this batch had to step
        // over them.
        for m in &self.misses {
            if self.recycle {
                state.lru.admit_cold(m.frame);
            } else {
                state.lru.record_access(m.frame);
            }
        }
        drop(state);
        pool.stats
            .record_hits((pids.len() - self.misses.len()) as u64);
        pool.stats.record_misses(self.misses.len() as u64);
        if self.misses.is_empty() {
            return Ok(());
        }
        // Fill all miss frames in one batched read request.
        let mut reqs: Vec<(PageId, &mut [u8; PAGE_SIZE])> = self
            .misses
            .iter_mut()
            .map(|m| (pids[m.at], &mut *m.guard.data))
            .collect();
        let fill = pool.disk.lock().read_batch(&mut reqs);
        drop(reqs);
        match fill {
            Ok(()) => {
                for mut m in self.misses.drain(..) {
                    m.guard.page = Some(pids[m.at]);
                    m.guard.dirty = false;
                }
                Ok(())
            }
            Err(e) => {
                // The single-page fill's undo: the miss frames hold
                // garbage, so end their residency; every pin of the batch
                // is released.
                let mut state = pool.state.lock();
                for (frame, _) in self.frames.drain(..) {
                    pool.unpin(frame);
                }
                for mut m in self.misses.drain(..) {
                    pool.abandon_frame(&mut state, pids[m.at], m.frame, &mut m.guard);
                }
                Err(e)
            }
        }
    }

    /// Hands every pinned page to `visit` in page order as `(index into the
    /// pinned pids, page image, value filters)`, read-locking one frame at
    /// a time and unpinning it as soon as its visit returns.
    ///
    /// Only a page this batch found already resident comes with its
    /// frame's value filters — the reason a hit moves to the hot end: a
    /// miss of a sweep larger than the pool is recycled before anyone
    /// visits it again, so building its filters would be pure cost.
    pub fn visit(&mut self, mut visit: impl FnMut(usize, &[u8; PAGE_SIZE], Option<&FrameFilters>)) {
        while let Some(&(frame, resident)) = self.frames.get(self.visited) {
            {
                let cell = self.pool.frames[frame].read();
                visit(self.visited, &cell.data, resident.then_some(&cell.filters));
            }
            // Counted as visited only once unpinned: if `visit` panics the
            // drop below still owns this pin.
            self.pool.unpin(frame);
            self.visited += 1;
        }
    }

    /// Unpins whatever the last batch still holds.
    fn release(&mut self) {
        for &(frame, _) in self.frames.get(self.visited..).unwrap_or_default() {
            self.pool.unpin(frame);
        }
        self.frames.clear();
        self.visited = 0;
    }
}

impl Drop for PinnedBatch<'_> {
    fn drop(&mut self) {
        self.release();
    }
}

impl std::fmt::Debug for PinnedBatch<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PinnedBatch")
            .field("recycle", &self.recycle)
            .field("pinned", &(self.frames.len() - self.visited))
            .finish()
    }
}

/// One pin of a page guard, released when the guard drops. It is the
/// guard's last field, so the frame latch before it is released first and
/// an evictor that sees the pin count reach zero can latch the frame at
/// once.
struct Pin<'a> {
    pool: &'a BufferPool,
    frame: FrameId,
}

impl Drop for Pin<'_> {
    fn drop(&mut self) {
        self.pool.unpin(self.frame);
    }
}

/// Read access to a pinned page. Derefs to the page image.
pub struct PageReadGuard<'a> {
    cell: RwLockReadGuard<'a, FrameCell>,
    pin: Pin<'a>,
}

impl std::ops::Deref for PageReadGuard<'_> {
    type Target = [u8; PAGE_SIZE];
    fn deref(&self) -> &Self::Target {
        &self.cell.data
    }
}

impl std::fmt::Debug for PageReadGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageReadGuard")
            .field("frame", &self.pin.frame)
            .finish_non_exhaustive()
    }
}

/// Write access to a pinned page. Derefs to the page image; the frame is
/// marked dirty at fetch time.
pub struct PageWriteGuard<'a> {
    cell: RwLockWriteGuard<'a, FrameCell>,
    pin: Pin<'a>,
}

impl std::ops::Deref for PageWriteGuard<'_> {
    type Target = [u8; PAGE_SIZE];
    fn deref(&self) -> &Self::Target {
        &self.cell.data
    }
}

impl std::ops::DerefMut for PageWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.cell.data
    }
}

impl std::fmt::Debug for PageWriteGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageWriteGuard")
            .field("frame", &self.pin.frame)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::CostModel;
    use crate::page::{PageView, SlottedPage, ValueFilter};
    use crate::rid::Rid;
    use crate::tuple::Tuple;
    use crate::value::Value;

    fn pool(frames: usize) -> Arc<BufferPool> {
        BufferPool::new(
            FileBackend::new(CostModel::free()),
            BufferPoolConfig::lru(frames),
        )
    }

    #[test]
    fn new_page_then_read_back() {
        let pool = pool(4);
        let (pid, mut w) = pool.new_page().unwrap();
        w[0] = 42;
        drop(w);
        let r = pool.fetch_read(pid).unwrap();
        assert_eq!(r[0], 42);
    }

    #[test]
    fn eviction_persists_dirty_pages() {
        let pool = pool(2);
        let mut pids = Vec::new();
        for i in 0..5u8 {
            let (pid, mut w) = pool.new_page().unwrap();
            w[0] = i;
            pids.push(pid);
        }
        // All five pages round-trip through a two-frame pool.
        for (i, pid) in pids.iter().enumerate() {
            let r = pool.fetch_read(*pid).unwrap();
            assert_eq!(r[0], i as u8, "page {pid} survived eviction");
        }
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let pool = pool(2);
        let (p0, g0) = pool.new_page().unwrap();
        let (_p1, g1) = pool.new_page().unwrap();
        // Both frames pinned: a third page cannot enter.
        assert_eq!(pool.new_page().err(), Some(StorageError::PoolExhausted));
        drop(g1);
        // Now one frame is free.
        let (_p2, g2) = pool.new_page().unwrap();
        drop(g2);
        drop(g0);
        let r = pool.fetch_read(p0).unwrap();
        assert_eq!(r.len(), PAGE_SIZE);
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let pool = pool(2);
        let (pid, w) = pool.new_page().unwrap();
        drop(w);
        let before = pool.stats().snapshot();
        drop(pool.fetch_read(pid).unwrap()); // hit
        drop(pool.fetch_read(pid).unwrap()); // hit
        let after = pool.stats().snapshot().since(&before);
        assert_eq!(after.buffer_hits, 2);
        assert_eq!(after.buffer_misses, 0);

        // Evict pid by filling the pool, then fetch -> miss.
        let (_a, ga) = pool.new_page().unwrap();
        let (_b, gb) = pool.new_page().unwrap();
        drop((ga, gb));
        let before = pool.stats().snapshot();
        drop(pool.fetch_read(pid).unwrap());
        let after = pool.stats().snapshot().since(&before);
        assert_eq!(after.buffer_misses, 1);
        assert_eq!(after.page_reads, 1);
    }

    #[test]
    fn flush_all_writes_dirty_pages() {
        let pool = pool(4);
        let (pid, mut w) = pool.new_page().unwrap();
        w[7] = 9;
        drop(w);
        let before = pool.stats().snapshot();
        pool.sync().unwrap();
        let after = pool.stats().snapshot().since(&before);
        assert_eq!(after.page_writes, 1);
        // Second flush: nothing dirty.
        let before = pool.stats().snapshot();
        pool.sync().unwrap();
        assert_eq!(pool.stats().snapshot().since(&before).page_writes, 0);
        // Data still correct via a fresh read.
        let r = pool.fetch_read(pid).unwrap();
        assert_eq!(r[7], 9);
    }

    #[test]
    fn a_captured_sync_flushes_the_cut_not_what_came_after() {
        let mut path = std::env::temp_dir();
        path.push(format!("aib-pool-{}-capture.heap", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let open = || FileBackend::open(&path, CostModel::free()).unwrap();
        let pool = BufferPool::new(open(), BufferPoolConfig::lru(4));
        let (a, mut w) = pool.new_page().unwrap();
        w[0] = 1;
        drop(w);
        let (b, mut w) = pool.new_page().unwrap();
        w[0] = 2;
        drop(w);
        let before = pool.stats().snapshot();
        let captured = pool.capture().unwrap();
        assert_eq!(pool.stats().snapshot().since(&before).page_writes, 2);
        // Dirtied behind the cut: the next sync's business.
        pool.fetch_write(a).unwrap()[0] = 9;
        captured.flush().unwrap();
        let file = |pid: PageId| {
            let mut buf = [0u8; PAGE_SIZE];
            open().read(pid, &mut buf).unwrap();
            buf[0]
        };
        assert_eq!((file(a), file(b)), (1, 2));
        assert_eq!(pool.fetch_read(a).unwrap()[0], 9);
        // An abandoned capture hands its pages back; the sync after it
        // writes them.
        pool.fetch_write(b).unwrap()[0] = 8;
        drop(pool.capture().unwrap());
        assert_eq!((file(a), file(b)), (1, 2));
        pool.sync().unwrap();
        assert_eq!((file(a), file(b)), (9, 8));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fetch_unknown_page_fails_cleanly() {
        let pool = pool(1);
        let err = pool.fetch_read(PageId(99)).unwrap_err();
        assert_eq!(err, StorageError::UnknownPage(PageId(99)));
        // The pool is still fully usable afterwards (frame was released).
        let (pid, w) = pool.new_page().unwrap();
        drop(w);
        assert!(pool.fetch_read(pid).is_ok());
    }

    #[test]
    fn a_failed_read_leaves_the_pool_as_it_was() {
        let mut path = std::env::temp_dir();
        path.push(format!("aib-pool-{}-truncated.heap", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let open = || FileBackend::open(&path, CostModel::free()).unwrap();
        let writer = BufferPool::new(open(), BufferPoolConfig::lru(8));
        let pids: Vec<PageId> = (0..8u8)
            .map(|i| {
                let (pid, mut w) = writer.new_page().unwrap();
                w[0] = i;
                pid
            })
            .collect();
        writer.sync().unwrap();
        drop(writer);
        // A cold pool over the synced file, one page resident; then the
        // file is cut inside page 4 (page `n` sits at `(n + 1) * PAGE_SIZE`,
        // behind the header page), so pages 4.. are gone.
        let pool = BufferPool::new(open(), BufferPoolConfig::lru(4));
        drop(pool.fetch_read(pids[0]).unwrap());
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(5 * PAGE_SIZE as u64 + 100).unwrap();
        let budget = pool.budget();
        let books = || (budget.used(BudgetComponent::BufferPool), pool.footprint());
        let before = books();
        assert_eq!(before, (PAGE_SIZE, PAGE_SIZE));
        assert!(matches!(pool.fetch_read(pids[5]), Err(StorageError::Io(_))));
        assert_eq!(books(), before, "single-page miss undone");
        // One request for pages 3..6 runs into the cut at page 4.
        assert!(matches!(
            first_bytes(&pool, 3, &pids[3..6]),
            Err(StorageError::Io(_))
        ));
        assert_eq!(books(), before, "batch misses undone");
        // No pin is left: a batch needing every frame pins.
        assert_eq!(first_bytes(&pool, 4, &pids[..4]), Ok(vec![0, 1, 2, 3]));
        // The failed page is unmapped: fetching it again is a new miss.
        let misses = pool.stats().snapshot();
        assert!(pool.fetch_read(pids[5]).is_err());
        let d = pool.stats().snapshot().since(&misses);
        assert_eq!((d.buffer_hits, d.buffer_misses), (0, 1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn write_guard_mutations_visible_to_later_readers() {
        let pool = pool(2);
        let (pid, w) = pool.new_page().unwrap();
        drop(w);
        {
            let mut w = pool.fetch_write(pid).unwrap();
            w[100] = 7;
        }
        let r = pool.fetch_read(pid).unwrap();
        assert_eq!(r[100], 7);
    }

    #[test]
    fn unlimited_budget_tracks_resident_bytes() {
        let pool = pool(4);
        let budget = pool.budget();
        let (_pid, w) = pool.new_page().unwrap();
        drop(w);
        assert_eq!(budget.used(BudgetComponent::BufferPool), PAGE_SIZE);
        assert_eq!(budget.high_water(), PAGE_SIZE);
        assert_eq!(pool.footprint(), PAGE_SIZE);
    }

    /// Pins `pids` as one batch of a sweep planning `planned` pages and
    /// returns the first byte of every page.
    fn first_bytes(
        pool: &BufferPool,
        planned: usize,
        pids: &[PageId],
    ) -> Result<Vec<u8>, StorageError> {
        let mut batch = pool.sweep_batch(planned);
        batch.pin(pids)?;
        let mut bytes = Vec::new();
        batch.visit(|i, page, _| {
            assert_eq!(i, bytes.len());
            bytes.push(page[0]);
        });
        Ok(bytes)
    }

    #[test]
    fn batch_mixes_hits_and_misses_with_batched_io() {
        // All-resident case: every page is a hit, no I/O.
        let big = pool(4);
        let mut pids = Vec::new();
        for i in 0..3u8 {
            let (pid, mut w) = big.new_page().unwrap();
            w[0] = i;
            pids.push(pid);
        }
        let before = big.stats().snapshot();
        assert_eq!(first_bytes(&big, pids.len(), &pids), Ok(vec![0, 1, 2]));
        let d = big.stats().snapshot().since(&before);
        assert_eq!((d.buffer_hits, d.buffer_misses, d.page_reads), (3, 0, 0));

        // Miss case: 2-frame pool, 4 pages, batch of 2 evicted pages.
        let small = pool(2);
        let mut pids = Vec::new();
        for i in 0..4u8 {
            let (pid, mut w) = small.new_page().unwrap();
            w[0] = i;
            pids.push(pid);
        }
        let before = small.stats().snapshot();
        assert_eq!(first_bytes(&small, 2, &pids[..2]), Ok(vec![0, 1]));
        let d = small.stats().snapshot().since(&before);
        assert_eq!((d.buffer_hits, d.buffer_misses), (0, 2));
        assert_eq!(d.page_reads, 2, "one batched request, per-page accounting");
    }

    #[test]
    fn a_contiguous_miss_batch_is_one_disk_request() {
        let cold_pool = || {
            let mut disk = FileBackend::new(CostModel::free());
            let pids: Vec<PageId> = (0..64).map(|_| disk.allocate().unwrap()).collect();
            (BufferPool::new(disk, BufferPoolConfig::lru(128)), pids)
        };
        let (pool, pids) = cold_pool();
        first_bytes(&pool, 64, &pids).unwrap();
        let d = pool.stats().snapshot();
        assert_eq!(
            (d.buffer_misses, d.page_reads, d.read_requests),
            (64, 64, 1)
        );
        // Two resident pages split the batch's misses into three runs.
        let (pool, pids) = cold_pool();
        drop(pool.fetch_read(pids[10]).unwrap());
        drop(pool.fetch_read(pids[40]).unwrap());
        let before = pool.stats().snapshot();
        first_bytes(&pool, 64, &pids).unwrap();
        let d = pool.stats().snapshot().since(&before);
        assert_eq!((d.buffer_hits, d.page_reads, d.read_requests), (2, 62, 3));
    }

    #[test]
    fn batch_exhaustion_leaves_pool_intact() {
        let pool = pool(2);
        // p2 and p3 end up on disk only.
        let (p2, mut g2) = pool.new_page().unwrap();
        g2[0] = 2;
        drop(g2);
        let (p3, mut g3) = pool.new_page().unwrap();
        g3[0] = 3;
        drop(g3);
        // p0 resident + dirty + unpinned (never written to disk), p1 pinned.
        let (p0, mut w0) = pool.new_page().unwrap();
        w0[0] = 0xEE;
        drop(w0);
        let (_p1, g1) = pool.new_page().unwrap();
        // The batch displaces p0 for its first claim (writing the dirty
        // victim back before unmapping it), then fails the second: the
        // unwind must restore p0's mapping without reading anything.
        let before = pool.stats().snapshot();
        let err = first_bytes(&pool, 2, &[p2, p3]);
        assert_eq!(err, Err(StorageError::PoolExhausted));
        let d = pool.stats().snapshot().since(&before);
        assert_eq!(
            (d.page_reads, d.page_writes),
            (0, 1),
            "only the victim's write-back on the claim-error unwind"
        );
        drop(g1);
        // The page survived with its data, still resident.
        let before = pool.stats().snapshot();
        assert_eq!(pool.fetch_read(p0).unwrap()[0], 0xEE);
        assert_eq!(pool.stats().snapshot().since(&before).page_reads, 0);
        // And the pool still serves the batch once pins are released.
        assert_eq!(first_bytes(&pool, 2, &[p2, p3]), Ok(vec![2, 3]));
    }

    /// A point sweep of `pids` for `key` in column 0 that uses the value
    /// filters the way the scan kernel does: a page whose built filter
    /// lacks the key is skipped unread, and a page's unbuilt filter is
    /// built from its rows. Returns the matching rids and the pages skipped.
    fn point_sweep(pool: &BufferPool, pids: &[PageId], key: i64) -> (Vec<Rid>, usize) {
        let mut encoded = Vec::new();
        Value::Int(key).encode(&mut encoded);
        let bit = ValueFilter::of(&encoded);
        let mut batch = pool.sweep_batch(pids.len());
        batch.pin(pids).unwrap();
        let (mut found, mut skipped) = (Vec::new(), 0);
        batch.visit(|i, page, filters| {
            let view = PageView::with_filters(page, filters);
            let filter = view.value_filter(0);
            let built = filter.and_then(|f| f.built());
            if built.is_some_and(|f| !f.may_contain(bit)) {
                skipped += 1;
                return;
            }
            let mut build = ValueFilter::default();
            view.for_each_live(|slot, bytes| {
                let value = Tuple::read_column_raw(bytes, 0).unwrap().raw();
                build.insert(value);
                if value == encoded {
                    found.push(Rid {
                        page: pids[i],
                        slot,
                    });
                }
            });
            if let (Some(filter), None) = (filter, built) {
                filter.publish(build);
            }
        });
        (found, skipped)
    }

    /// Writes a page holding one tuple per value of `keys`.
    fn fill(page: &mut [u8; PAGE_SIZE], keys: impl IntoIterator<Item = i64>) {
        let mut page = SlottedPage::new(&mut page[..]);
        page.init();
        for k in keys {
            page.insert(&Tuple::new(vec![Value::Int(k)]).to_bytes())
                .unwrap();
        }
    }

    #[test]
    fn a_value_filter_never_outlives_its_image() {
        // No key of 100..140 shares a filter bit with 0..4, so a filter left
        // over from an image of 0..4 would hide every one of them.
        let old = (0..4).fold(ValueFilter::default(), |mut f, k| {
            let mut encoded = Vec::new();
            Value::Int(k).encode(&mut encoded);
            f.insert(&encoded);
            f
        });
        let new_key = (100..140)
            .find(|&k| {
                let mut encoded = Vec::new();
                Value::Int(k).encode(&mut encoded);
                !old.may_contain(ValueFilter::of(&encoded))
            })
            .unwrap();
        let pool = pool(1);
        let (a, mut w) = pool.new_page().unwrap();
        fill(&mut w, 0..4);
        drop(w);
        let (b, mut w) = pool.new_page().unwrap();
        fill(&mut w, [new_key]);
        drop(w);
        // Brings `a` back (a miss: no filter), then builds its filter.
        let built = |pid| {
            assert_eq!(point_sweep(&pool, &[pid], 2).0.len(), 1);
            assert_eq!(point_sweep(&pool, &[pid], 2).0.len(), 1);
            assert_eq!(point_sweep(&pool, &[pid], new_key), (vec![], 1));
        };

        // 1. A write guard changes the image in place.
        built(a);
        fill(&mut pool.fetch_write(a).unwrap(), [new_key]);
        assert_eq!(
            point_sweep(&pool, &[a], new_key).0.len(),
            1,
            "after fetch_write"
        );

        // 2. The frame is remapped to another page: `b` evicts `a`, then a
        // sweep finds `b` resident in `a`'s old frame.
        fill(&mut pool.fetch_write(a).unwrap(), 0..4);
        built(a);
        drop(pool.fetch_read(b).unwrap());
        assert_eq!(
            point_sweep(&pool, &[b], new_key).0.len(),
            1,
            "after a remap"
        );

        // 3. A new page takes the recycled frame.
        built(a);
        let (c, mut w) = pool.new_page().unwrap();
        fill(&mut w, [new_key]);
        drop(w);
        assert_eq!(
            point_sweep(&pool, &[c], new_key).0.len(),
            1,
            "after new_page"
        );
    }

    #[test]
    fn concurrent_readers_share_a_frame() {
        let pool = pool(2);
        let (pid, w) = pool.new_page().unwrap();
        drop(w);
        let r1 = pool.fetch_read(pid).unwrap();
        let r2 = pool.fetch_read(pid).unwrap();
        assert_eq!(r1[0], r2[0]);
    }

    #[test]
    fn multithreaded_stress() {
        let pool = pool(8);
        let mut pids = Vec::new();
        for i in 0..32u8 {
            let (pid, mut w) = pool.new_page().unwrap();
            w[0] = i;
            pids.push(pid);
        }
        let mut handles = Vec::new();
        for t in 0..4 {
            let pool = Arc::clone(&pool);
            let pids = pids.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..50 {
                    for (i, pid) in pids.iter().enumerate() {
                        if (i + t + round) % 7 == 0 {
                            let mut w = pool.fetch_write(*pid).unwrap();
                            w[0] = i as u8; // rewrite the invariant value
                        } else {
                            let r = pool.fetch_read(*pid).unwrap();
                            assert_eq!(r[0], i as u8);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
