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
//! 2. per-frame `RwLock`s — acquired after `state` only for frames proven
//!    unpinned (no holders, cannot block), otherwise after releasing `state`;
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
// aib-lint: allow-file(sync-shim) — the pool's frame latches are
// `Arc`-based `parking_lot` guards (`ArcRwLockReadGuard`/`Write`) that the
// shim cannot express, and `AtomicU32` pin counts have no shim type; the
// pool is driven by the model through the budget and heap layers instead.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::{
    ArcRwLockReadGuard, ArcRwLockWriteGuard, Mutex, RawRwLock, RwLock, RwLockWriteGuard,
};

use crate::budget::{BudgetComponent, MemoryBudget, MemoryUsage};
use crate::disk::PAGE_SIZE;
use crate::error::StorageError;
use crate::file_backend::{FileBackend, FileFlush};
use crate::replacement::{FrameId, LruPolicy};
use crate::rid::PageId;
use crate::stats::IoStats;

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

/// The buffer pool. Cheaply shareable via [`Arc`]; page guards keep their
/// frame pinned for their lifetime.
pub struct BufferPool {
    frames: Vec<Arc<RwLock<FrameCell>>>,
    /// Per-frame pin counts. Increments happen under the state lock (so
    /// eviction scans see a stable floor); decrements are lock-free, which
    /// keeps guard drops off the state mutex entirely.
    pins: Vec<AtomicU32>,
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
                Arc::new(RwLock::new(FrameCell {
                    page: None,
                    dirty: false,
                    data: Box::new([0; PAGE_SIZE]),
                }))
            })
            .collect();
        Arc::new(BufferPool {
            frames,
            pins: (0..config.frames).map(|_| AtomicU32::new(0)).collect(),
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
    /// No disk read is charged; the page reaches disk on eviction or flush.
    pub fn new_page(self: &Arc<Self>) -> Result<(PageId, PageWriteGuard), StorageError> {
        let pid = self.disk.lock().allocate()?;
        let (frame, mut guard) = self.prepare_frame(pid)?;
        guard.page = Some(pid);
        guard.dirty = true;
        guard.data.fill(0);
        Ok((
            pid,
            PageWriteGuard {
                pool: Arc::clone(self),
                frame,
                guard: Some(guard),
            },
        ))
    }

    /// Fetches `pid` for reading, pinning its frame.
    pub fn fetch_read(self: &Arc<Self>, pid: PageId) -> Result<PageReadGuard, StorageError> {
        let (frame, guard) = self.fetch(pid)?;
        Ok(PageReadGuard {
            pool: Arc::clone(self),
            frame,
            guard: Some(guard),
        })
    }

    /// Fetches `pid` for writing, pinning its frame and marking it dirty.
    pub fn fetch_write(self: &Arc<Self>, pid: PageId) -> Result<PageWriteGuard, StorageError> {
        let (frame, guard) = self.fetch_mut(pid)?;
        Ok(PageWriteGuard {
            pool: Arc::clone(self),
            frame,
            guard: Some(guard),
        })
    }

    /// Shared fetch: returns the pinned frame id and a read guard on its cell.
    fn fetch(
        self: &Arc<Self>,
        pid: PageId,
    ) -> Result<(FrameId, ArcRwLockReadGuard<RawRwLock, FrameCell>), StorageError> {
        if let Some(frame) = self.try_pin_resident(pid) {
            let guard = RwLock::read_arc(&self.frames[frame]);
            debug_assert_eq!(guard.page, Some(pid));
            return Ok((frame, guard));
        }
        let (frame, write_guard) = self.load_into_frame(pid)?;
        Ok((frame, ArcRwLockWriteGuard::downgrade(write_guard)))
    }

    /// Exclusive fetch: like [`fetch`](Self::fetch) but returns a write guard
    /// and marks the frame dirty.
    fn fetch_mut(
        self: &Arc<Self>,
        pid: PageId,
    ) -> Result<(FrameId, ArcRwLockWriteGuard<RawRwLock, FrameCell>), StorageError> {
        if let Some(frame) = self.try_pin_resident(pid) {
            let mut guard = RwLock::write_arc(&self.frames[frame]);
            debug_assert_eq!(guard.page, Some(pid));
            guard.dirty = true;
            return Ok((frame, guard));
        }
        let (frame, mut guard) = self.load_into_frame(pid)?;
        guard.dirty = true;
        Ok((frame, guard))
    }

    /// If `pid` is resident, pins it and records the access. The caller then
    /// locks the frame; pinning guarantees the mapping cannot change
    /// underneath it.
    fn try_pin_resident(&self, pid: PageId) -> Option<FrameId> {
        let frame = self.pin_if_resident(&mut self.state.lock(), pid)?;
        self.stats.record_hit();
        Some(frame)
    }

    /// The hit path under the state lock: if `pid` is resident, pins its
    /// frame and moves it to the hot end of the recency list.
    fn pin_if_resident(&self, state: &mut PoolState, pid: PageId) -> Option<FrameId> {
        let frame = state.frame_of(pid)?;
        self.pins[frame].fetch_add(1, Ordering::Relaxed);
        state.lru.record_access(frame);
        Some(frame)
    }

    /// Miss path: claims a frame for `pid` (possibly evicting), performs the
    /// disk read, and returns the frame write-locked and pinned.
    fn load_into_frame(
        self: &Arc<Self>,
        pid: PageId,
    ) -> Result<(FrameId, ArcRwLockWriteGuard<RawRwLock, FrameCell>), StorageError> {
        let (frame, mut guard) = self.prepare_frame(pid)?;
        // Another thread may have raced us and mapped pid first; in that
        // case prepare_frame pinned the resident frame instead.
        if guard.page == Some(pid) {
            return Ok((frame, guard));
        }
        // Read our page without the state lock, so other frames stay usable
        // during I/O. Concurrent fetchers of `pid` block on this frame's
        // lock until we are done.
        match self.disk.lock().read(pid, &mut guard.data) {
            Ok(()) => {
                guard.page = Some(pid);
                guard.dirty = false;
                Ok((frame, guard))
            }
            Err(e) => {
                // Undo the mapping: the frame now holds garbage. Returning
                // it to the free list ends its residency, so its page image
                // comes off the governor's books.
                let mut state = self.state.lock();
                self.pins[frame].fetch_sub(1, Ordering::Release);
                self.abandon_frame(&mut state, pid, frame, &mut guard);
                Err(e)
            }
        }
    }

    /// Claims a frame for `pid` and returns it pinned and write-locked.
    ///
    /// On a miss, the frame's write lock is acquired *before* the mapping is
    /// published (safe because an unpinned frame has no lock holders), so no
    /// other thread can observe the frame before the caller fills it. If
    /// `pid` is already resident, the resident frame is pinned and returned —
    /// callers detect this via `guard.page == Some(pid)`.
    fn prepare_frame(
        &self,
        pid: PageId,
    ) -> Result<(FrameId, ArcRwLockWriteGuard<RawRwLock, FrameCell>), StorageError> {
        let mut state = self.state.lock();
        if let Some(frame) = self.pin_if_resident(&mut state, pid) {
            self.stats.record_hit();
            drop(state);
            let guard = RwLock::write_arc(&self.frames[frame]);
            return Ok((frame, guard));
        }
        self.cover(&mut state, pid)?;
        self.stats.record_miss();
        let frame = self.claim_frame(&mut state)?;
        // Unpinned frames have no guard holders, so this cannot block while
        // we hold the state lock.
        let mut guard = RwLock::write_arc(&self.frames[frame]);
        self.remap_frame(&mut state, frame, &mut guard, pid)?;
        state.lru.record_access(frame);
        Ok((frame, guard))
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

    /// Hands the just-claimed, write-locked `frame` over to `pid`, pinned,
    /// under the state lock. The frame is off the recency list (a displaced
    /// victim left it, a free frame never was on it); the caller links it
    /// where its admission rule says.
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
        self.pins[frame].fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Claims one frame for a not-yet-resident page, under the state lock.
    ///
    /// A free frame grows resident bytes by one page image, charged to the
    /// governor; once none is free the coldest unpinned frame is displaced,
    /// which swaps one resident page for another (byte-neutral). Shared by
    /// [`BufferPool::prepare_frame`] and [`PinnedBatch::pin`].
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

    /// Writes every dirty resident page back to disk.
    pub fn flush_all(&self) -> Result<(), StorageError> {
        for cell in &self.frames {
            let mut guard = cell.write();
            if let (Some(pid), true) = (guard.page, guard.dirty) {
                self.disk.lock().write(pid, &guard.data)?;
                guard.dirty = false;
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
/// write-locked until the batched read has filled it.
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
    /// Frames of the current batch in page order; `frames[visited..]` are
    /// still pinned.
    frames: Vec<FrameId>,
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
            if let Some(frame) = pool.pin_if_resident(&mut state, pid) {
                self.frames.push(frame);
                continue;
            }
            let claimed = pool
                .cover(&mut state, pid)
                .and_then(|()| pool.claim_frame(&mut state))
                .and_then(|frame| {
                    // Unpinned frames have no guard holders: non-blocking.
                    let mut guard = pool.frames[frame].write();
                    pool.remap_frame(&mut state, frame, &mut guard, pid)?;
                    Ok((frame, guard))
                });
            match claimed {
                Ok((frame, guard)) => {
                    self.frames.push(frame);
                    self.misses.push(Miss {
                        at: i,
                        frame,
                        guard,
                    });
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
                    for frame in self.frames.drain(..) {
                        pool.pins[frame].fetch_sub(1, Ordering::Release);
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
                // Same undo as `load_into_frame`'s I/O error path: the miss
                // frames hold garbage, so end their residency; every pin of
                // the batch is released.
                let mut state = pool.state.lock();
                for frame in self.frames.drain(..) {
                    pool.pins[frame].fetch_sub(1, Ordering::Release);
                }
                for mut m in self.misses.drain(..) {
                    pool.abandon_frame(&mut state, pids[m.at], m.frame, &mut m.guard);
                }
                Err(e)
            }
        }
    }

    /// Hands every pinned page to `visit` in page order as `(index into the
    /// pinned pids, page image)`, read-locking one frame at a time and
    /// unpinning it as soon as its visit returns.
    pub fn visit(&mut self, mut visit: impl FnMut(usize, &[u8; PAGE_SIZE])) {
        while let Some(&frame) = self.frames.get(self.visited) {
            {
                let cell = self.pool.frames[frame].read();
                visit(self.visited, &cell.data);
            }
            // Counted as visited only once unpinned: if `visit` panics the
            // drop below still owns this pin.
            self.pool.unpin(frame);
            self.visited += 1;
        }
    }

    /// Unpins whatever the last batch still holds.
    fn release(&mut self) {
        for &frame in self.frames.get(self.visited..).unwrap_or_default() {
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

/// Read access to a pinned page. Derefs to the page image.
pub struct PageReadGuard {
    pool: Arc<BufferPool>,
    frame: FrameId,
    guard: Option<ArcRwLockReadGuard<RawRwLock, FrameCell>>,
}

impl std::ops::Deref for PageReadGuard {
    type Target = [u8; PAGE_SIZE];
    fn deref(&self) -> &Self::Target {
        // `guard` is Some from construction until Drop, the only taker.
        // aib-lint: allow(no-panic) — Deref cannot return an error
        &self.guard.as_ref().expect("guard live until drop").data
    }
}

impl Drop for PageReadGuard {
    fn drop(&mut self) {
        // Release the frame lock before unpinning so a concurrent evictor
        // that sees pin == 0 can immediately take the write lock.
        drop(self.guard.take());
        self.pool.unpin(self.frame);
    }
}

impl std::fmt::Debug for PageReadGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageReadGuard")
            .field("frame", &self.frame)
            .finish_non_exhaustive()
    }
}

/// Write access to a pinned page. Derefs to the page image; the frame is
/// marked dirty at fetch time.
pub struct PageWriteGuard {
    pool: Arc<BufferPool>,
    frame: FrameId,
    guard: Option<ArcRwLockWriteGuard<RawRwLock, FrameCell>>,
}

impl std::ops::Deref for PageWriteGuard {
    type Target = [u8; PAGE_SIZE];
    fn deref(&self) -> &Self::Target {
        // `guard` is Some from construction until Drop, the only taker.
        // aib-lint: allow(no-panic) — Deref cannot return an error
        &self.guard.as_ref().expect("guard live until drop").data
    }
}

impl std::ops::DerefMut for PageWriteGuard {
    fn deref_mut(&mut self) -> &mut Self::Target {
        // `guard` is Some from construction until Drop, the only taker.
        // aib-lint: allow(no-panic) — Deref cannot return an error
        &mut self.guard.as_mut().expect("guard live until drop").data
    }
}

impl Drop for PageWriteGuard {
    fn drop(&mut self) {
        drop(self.guard.take());
        self.pool.unpin(self.frame);
    }
}

impl std::fmt::Debug for PageWriteGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageWriteGuard")
            .field("frame", &self.frame)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::CostModel;

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
        pool.flush_all().unwrap();
        let after = pool.stats().snapshot().since(&before);
        assert_eq!(after.page_writes, 1);
        // Second flush: nothing dirty.
        let before = pool.stats().snapshot();
        pool.flush_all().unwrap();
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
        batch.visit(|i, page| {
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
