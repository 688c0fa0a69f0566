//! Heap files: unordered collections of tuples stored in slotted pages, with
//! the **page-granular scan interface** the Index Buffer needs.
//!
//! Paper Algorithm 1 iterates `for p ∈ R with C[p] > 0` — i.e. the scan must
//! be able to *skip whole pages*. [`HeapFile::sweep_read_runs`] exposes
//! exactly that, and is the one way any layer walks a table: the caller
//! hands it `(ordinal_range, skippable)` runs, a skippable run is jumped
//! before any I/O for it happens, and every other run is pinned and read in
//! batches through [`crate::PinnedBatch::pin`].
//!
//! Pages are addressed two ways: globally by [`PageId`] (shared buffer pool /
//! disk) and table-locally by *ordinal* `0..num_pages()`. Counters `C[p]` and
//! buffer partitions are keyed by ordinal, matching the paper's
//! "partition covers P pages of the table".

use std::collections::HashMap;
use std::sync::Arc;

use crate::sync::RwLock;

use crate::buffer_pool::{BufferPool, PageWriteGuard};
use crate::error::StorageError;
use crate::freespace::FreeSpaceMap;
use crate::page::{PageView, SlottedPage, MAX_TUPLE_BYTES};
use crate::rid::{PageId, Rid, SlotId};

struct HeapInner {
    pages: Vec<PageId>,
    ordinal_of: HashMap<PageId, u32>,
    fsm: FreeSpaceMap,
    live_tuples: u64,
}

impl HeapInner {
    /// Registers `pid` at the next ordinal with `free` bytes free, and
    /// returns the ordinal: the FSM entry (less a slot entry's 4 bytes),
    /// the ordinal → page list and the page → ordinal map, in step.
    fn register(&mut self, pid: PageId, free: usize) -> u32 {
        let ord = self.fsm.push(free.saturating_sub(4));
        debug_assert_eq!(ord as usize, self.pages.len());
        self.pages.push(pid);
        self.ordinal_of.insert(pid, ord);
        ord
    }
}

/// A heap file over a shared buffer pool.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    inner: RwLock<HeapInner>,
}

impl HeapFile {
    /// Creates an empty heap file.
    pub fn new(pool: Arc<BufferPool>) -> Self {
        HeapFile {
            pool,
            inner: RwLock::new(HeapInner {
                pages: Vec::new(),
                ordinal_of: HashMap::new(),
                fsm: FreeSpaceMap::new(),
                live_tuples: 0,
            }),
        }
    }

    /// The buffer pool this heap reads through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Number of pages in the heap.
    pub fn num_pages(&self) -> u32 {
        self.inner.read().pages.len() as u32
    }

    /// Number of live tuples.
    pub fn live_tuples(&self) -> u64 {
        self.inner.read().live_tuples
    }

    /// Table-local ordinal of a global page id, if the page belongs to this
    /// heap.
    pub fn ordinal_of(&self, page: PageId) -> Option<u32> {
        self.inner.read().ordinal_of.get(&page).copied()
    }

    /// Global page id of a table-local ordinal.
    pub fn page_id_of(&self, ordinal: u32) -> Option<PageId> {
        self.inner.read().pages.get(ordinal as usize).copied()
    }

    /// Inserts a tuple, returning its record id.
    pub fn insert(&self, bytes: &[u8]) -> Result<Rid, StorageError> {
        let mut placed = Vec::with_capacity(1);
        self.insert_run(&[bytes], &mut placed)?;
        match placed.first() {
            Some(&(rid, _)) => Ok(rid),
            None => Err(StorageError::Corrupt("insert placed nothing".into())),
        }
    }

    /// Inserts `tuples` in order, pushing each one's record id and page
    /// ordinal onto `placed`. Every tuple lands exactly where repeated
    /// [`HeapFile::insert`] calls would put it — that *is* a run of one —
    /// but the heap's bookkeeping lock is taken once for the run and the
    /// write guard of the page being filled is kept from tuple to tuple, so a
    /// bulk load pays one pool fetch per page instead of three lock
    /// round-trips per row. The first tuple that cannot be placed ends the
    /// run with its error; the ones before it stay, and are in `placed`.
    pub fn insert_run(
        &self,
        tuples: &[&[u8]],
        placed: &mut Vec<(Rid, u32)>,
    ) -> Result<(), StorageError> {
        let mut inner = self.inner.write();
        // The page the last tuple went to, still latched.
        let mut open: Option<(u32, PageId, PageWriteGuard<'_>)> = None;
        for bytes in tuples {
            if bytes.is_empty() || bytes.len() > MAX_TUPLE_BYTES {
                return Err(StorageError::TupleTooLarge {
                    size: bytes.len(),
                    max: MAX_TUPLE_BYTES,
                });
            }
            // Probe FSM candidates until one accepts (stale entries are
            // refreshed along the way); fall back to a fresh page.
            let rid = loop {
                // +4: a new slot entry may be needed.
                let candidate = inner
                    .fsm
                    .find(bytes.len() + 4)
                    .and_then(|ord| inner.pages.get(ord as usize).map(|&pid| (ord, pid)));
                let Some((ord, pid)) = candidate else {
                    // Unlatch first: a one-frame pool has to evict the old
                    // page to make room for the new one.
                    drop(open.take());
                    let (pid, mut guard) = self.pool.new_page()?;
                    let mut page = SlottedPage::new(&mut guard[..]);
                    page.init();
                    let Some(slot) = page.insert(bytes) else {
                        // A fresh page fits any tuple within MAX_TUPLE_BYTES;
                        // failing here means the page header is corrupt.
                        return Err(StorageError::Corrupt(
                            "fresh page rejected a size-validated tuple".into(),
                        ));
                    };
                    let ord = inner.register(pid, page.free_bytes());
                    open = Some((ord, pid, guard));
                    break Rid { page: pid, slot };
                };
                if !matches!(open, Some((latched, _, _)) if latched == ord) {
                    drop(open.take());
                    open = Some((ord, pid, self.pool.fetch_write(pid)?));
                }
                let Some((_, _, guard)) = open.as_mut() else {
                    continue; // latched just above
                };
                let mut page = SlottedPage::new(&mut guard[..]);
                let slot = page.insert(bytes);
                // On a miss this records the truth over a stale entry, and
                // the next probe looks elsewhere.
                inner.fsm.set(ord, page.free_bytes().saturating_sub(4));
                if let Some(slot) = slot {
                    break Rid { page: pid, slot };
                }
            };
            inner.live_tuples += 1;
            let ord = open.as_ref().map_or(0, |(ord, _, _)| *ord);
            placed.push((rid, ord));
        }
        Ok(())
    }

    /// Reads the tuple at `rid`.
    pub fn get(&self, rid: Rid) -> Result<Vec<u8>, StorageError> {
        self.check_owned(rid.page)?;
        let guard = self.pool.fetch_read(rid.page)?;
        let view = PageView::new(&guard[..]);
        view.get(rid.slot)
            .map(<[u8]>::to_vec)
            .ok_or(StorageError::UnknownRid(rid))
    }

    /// Deletes the tuple at `rid`.
    pub fn delete(&self, rid: Rid) -> Result<(), StorageError> {
        let ord = self.check_owned(rid.page)?;
        let mut guard = self.pool.fetch_write(rid.page)?;
        let mut page = SlottedPage::new(&mut guard[..]);
        if !page.delete(rid.slot) {
            return Err(StorageError::UnknownRid(rid));
        }
        let free = page.free_bytes();
        drop(guard);
        let mut inner = self.inner.write();
        inner.fsm.set(ord, free.saturating_sub(4));
        inner.live_tuples -= 1;
        Ok(())
    }

    /// Updates the tuple at `rid`, returning its (possibly new) record id.
    /// The tuple moves to another page only when it no longer fits in place —
    /// exactly the `p_old` / `p_new` distinction of the paper's Table I.
    pub fn update(&self, rid: Rid, bytes: &[u8]) -> Result<Rid, StorageError> {
        if bytes.is_empty() || bytes.len() > MAX_TUPLE_BYTES {
            return Err(StorageError::TupleTooLarge {
                size: bytes.len(),
                max: MAX_TUPLE_BYTES,
            });
        }
        let ord = self.check_owned(rid.page)?;
        let mut guard = self.pool.fetch_write(rid.page)?;
        let mut page = SlottedPage::new(&mut guard[..]);
        if page.get(rid.slot).is_none() {
            return Err(StorageError::UnknownRid(rid));
        }
        if page.update(rid.slot, bytes) {
            let free = page.free_bytes();
            drop(guard);
            self.inner.write().fsm.set(ord, free.saturating_sub(4));
            return Ok(rid);
        }
        // Does not fit in place: delete here, insert elsewhere.
        assert!(page.delete(rid.slot), "slot verified live above");
        let free = page.free_bytes();
        drop(guard);
        {
            let mut inner = self.inner.write();
            inner.fsm.set(ord, free.saturating_sub(4));
            inner.live_tuples -= 1; // insert() re-increments
        }
        self.insert(bytes)
    }

    /// Moves the tuple at `rid` to a *different* page (the page with the
    /// most recorded free space, excluding its own), returning the new rid.
    /// Used by vacuum to drain under-utilised pages; unlike
    /// [`HeapFile::update`], the move is unconditional.
    pub fn relocate(&self, rid: Rid) -> Result<Rid, StorageError> {
        let ord = self.check_owned(rid.page)?;
        let bytes = self.get(rid)?;
        // Find a target page other than the source with room.
        let target = {
            let inner = self.inner.read();
            (0..inner.pages.len() as u32)
                .filter(|&o| o != ord)
                .filter(|&o| inner.fsm.get(o) >= bytes.len() + 4)
                .max_by_key(|&o| inner.fsm.get(o))
                .and_then(|o| inner.pages.get(o as usize).map(|&pid| (o, pid)))
        };
        let new_rid = match target {
            Some((tord, tpid)) => {
                let mut guard = self.pool.fetch_write(tpid)?;
                let mut page = SlottedPage::new(&mut guard[..]);
                match page.insert(&bytes) {
                    Some(slot) => {
                        let free = page.free_bytes();
                        drop(guard);
                        self.inner.write().fsm.set(tord, free.saturating_sub(4));
                        Rid { page: tpid, slot }
                    }
                    None => {
                        // Stale FSM: fall back to a fresh insert after
                        // refreshing the entry.
                        let free = page.free_bytes();
                        drop(guard);
                        self.inner.write().fsm.set(tord, free.saturating_sub(4));
                        self.insert_into_fresh_page(&bytes)?
                    }
                }
            }
            None => self.insert_into_fresh_page(&bytes)?,
        };
        // Remove the original (after the copy is durable in the pool).
        let mut guard = self.pool.fetch_write(rid.page)?;
        let mut page = SlottedPage::new(&mut guard[..]);
        assert!(page.delete(rid.slot), "source tuple verified above");
        let free = page.free_bytes();
        drop(guard);
        self.inner.write().fsm.set(ord, free.saturating_sub(4));
        Ok(new_rid)
    }

    /// Appends a brand-new page holding `bytes` (relocation fallback).
    fn insert_into_fresh_page(&self, bytes: &[u8]) -> Result<Rid, StorageError> {
        let (pid, mut guard) = self.pool.new_page()?;
        let mut page = SlottedPage::new(&mut guard[..]);
        page.init();
        let slot = page.insert(bytes).ok_or(StorageError::TupleTooLarge {
            size: bytes.len(),
            max: crate::page::MAX_TUPLE_BYTES,
        })?;
        let free = page.free_bytes();
        drop(guard);
        self.inner.write().register(pid, free);
        Ok(Rid { page: pid, slot })
    }

    /// Reads all live tuples of the page with table-local `ordinal`.
    /// Exactly one buffer-pool fetch.
    pub fn read_page(&self, ordinal: u32) -> Result<Vec<(Rid, Vec<u8>)>, StorageError> {
        let pid = self
            .page_id_of(ordinal)
            .ok_or(StorageError::UnknownPage(PageId(ordinal)))?;
        let guard = self.pool.fetch_read(pid)?;
        let view = PageView::new(&guard[..]);
        Ok(view
            .iter()
            .map(|(slot, bytes)| (Rid { page: pid, slot }, bytes.to_vec()))
            .collect())
    }

    /// Number of live tuples on the page with table-local `ordinal`.
    pub fn tuples_on_page(&self, ordinal: u32) -> Result<usize, StorageError> {
        let pid = self
            .page_id_of(ordinal)
            .ok_or(StorageError::UnknownPage(PageId(ordinal)))?;
        let guard = self.pool.fetch_read(pid)?;
        Ok(PageView::new(&guard[..]).live_count())
    }

    /// Pages per sweep-read batch: a batch pins at most `capacity / 8`
    /// frames so several concurrent scanners plus the miss path always have
    /// frames left to claim. Scan planners use this to predict how many
    /// batched disk requests a sweep will issue.
    pub fn sweep_batch_pages(&self) -> usize {
        (self.pool.capacity() / 8).clamp(1, 64)
    }

    /// The sweep read — the one primitive every table walk goes through:
    /// drives `visit` over a pre-planned sequence of page runs. `runs`
    /// yields ascending, non-overlapping `(ordinal_range, skippable)`
    /// extents — exactly what a skip-bitset's run iterator produces; a full
    /// scan is the single run `(0..num_pages, false)`. Skippable runs cost
    /// nothing; each unskipped run is pinned through
    /// [`crate::PinnedBatch::pin`] in batches of
    /// [`HeapFile::sweep_batch_pages`], so a run costs one pool-bookkeeping
    /// pass and one batched disk request per batch, not one of each per
    /// page, and each frame is read-locked only while its page is being
    /// visited. Batches never span a skip gap, so every disk request covers
    /// one contiguous extent of the heap. The view of a page the batch
    /// found resident carries its frame's value filters
    /// ([`PageView::value_filter`]), valid for that visit. Ordinals past the
    /// current end of the heap are ignored. Returns `(pages_read,
    /// pages_skipped)`.
    ///
    /// A batch the pool denies because every frame is pinned — eight
    /// sweepers at distinct positions pin a whole pool between them — is
    /// retried at half its size, down to one page, before the error
    /// surfaces: the sweeper holds no pin while it asks, so a smaller
    /// request only needs the frames the others are not using right now.
    pub fn sweep_read_runs(
        &self,
        runs: impl IntoIterator<Item = (std::ops::Range<u32>, bool)>,
        mut visit: impl FnMut(u32, PageId, PageView<'_>),
    ) -> Result<(u32, u32), StorageError> {
        let runs: Vec<(std::ops::Range<u32>, bool)> = runs.into_iter().collect();
        let lo = runs.iter().map(|(r, _)| r.start).min().unwrap_or(0);
        let hi = runs.iter().map(|(r, _)| r.end).max().unwrap_or(0);
        // Snapshot the covered page-id slice in one heap-lock acquisition:
        // the page list is append-only and ordinals are stable, so the copy
        // stays valid for the whole sweep.
        let (start, page_ids) = {
            let inner = self.inner.read();
            let end = hi.min(inner.pages.len() as u32);
            let start = lo.min(end);
            (
                start,
                inner
                    .pages
                    .get(start as usize..end as usize)
                    .map(<[_]>::to_vec)
                    .unwrap_or_default(),
            )
        };
        let limit = start + page_ids.len() as u32;
        // The part of a run that lies inside the heap.
        let clamp = |run: &std::ops::Range<u32>| {
            let end = run.end.min(limit);
            (run.start.min(end).max(start), end)
        };
        // The runs are the whole plan, so how much this sweep will read is
        // known before its first page: the pool picks the admission rule
        // from it (see `BufferPool::sweep_batch`).
        let planned: u32 = runs
            .iter()
            .filter(|(_, skippable)| !skippable)
            .map(|(run, _)| {
                let (at, end) = clamp(run);
                end.saturating_sub(at)
            })
            .sum();
        let mut pins = self.pool.sweep_batch(planned as usize);
        let batch = self.sweep_batch_pages() as u32;
        let mut read = 0;
        let mut skipped = 0;
        for (run, skippable) in runs {
            let (mut at, run_end) = clamp(&run);
            if skippable {
                skipped += run_end.saturating_sub(at);
                continue;
            }
            let mut size = batch;
            while at < run_end {
                let end = run_end.min(at + size);
                let pids = page_ids
                    .get((at - start) as usize..(end - start) as usize)
                    .unwrap_or_default();
                match pins.pin(pids) {
                    Ok(()) => {
                        pins.visit(|i, page, filters| {
                            if let Some(&pid) = pids.get(i) {
                                visit(at + i as u32, pid, PageView::with_filters(page, filters));
                            }
                        });
                        read += end - at;
                        at = end;
                        size = batch;
                    }
                    Err(StorageError::PoolExhausted) if size > 1 => size /= 2,
                    Err(e) => return Err(e),
                }
            }
        }
        Ok((read, skipped))
    }

    fn check_owned(&self, page: PageId) -> Result<u32, StorageError> {
        self.ordinal_of(page).ok_or(StorageError::UnknownPage(page))
    }

    /// Adopts an existing store page into this heap, returning its
    /// ordinal. If the page is already owned this is a no-op. Otherwise the
    /// store is extended until `pid` exists, the page joins the ordinal
    /// map at the next free ordinal, and FSM / live-tuple bookkeeping is
    /// rebuilt from the page's **current contents** (a zeroed page reads as
    /// a valid empty page). Recovery uses this for checkpoint page lists
    /// and for pages first mentioned by a WAL record.
    pub fn adopt_page(&self, pid: PageId) -> Result<u32, StorageError> {
        if let Some(ord) = self.ordinal_of(pid) {
            return Ok(ord);
        }
        self.pool.ensure_page(pid)?;
        let (free, live) = {
            let guard = self.pool.fetch_read(pid)?;
            let view = PageView::new(&guard[..]);
            (view.free_bytes(), view.live_count())
        };
        let mut inner = self.inner.write();
        if let Some(&ord) = inner.ordinal_of.get(&pid) {
            return Ok(ord);
        }
        let ord = inner.register(pid, free);
        inner.live_tuples += live as u64;
        Ok(ord)
    }

    /// Adopts a checkpoint's page list in order, so ordinals match the list
    /// positions when the heap starts empty.
    pub fn adopt_pages(&self, pids: &[PageId]) -> Result<(), StorageError> {
        for &pid in pids {
            self.adopt_page(pid)?;
        }
        Ok(())
    }

    /// WAL-replay entry point: forces a set of slots on one page to their
    /// logged **final** state — `Some(bytes)` is the slot's last logged
    /// contents, `None` means dead. The page is adopted first if unknown.
    ///
    /// Slots whose target is dead or not larger than their current contents
    /// are applied before growing ones. Slots untouched by the log hold the
    /// same bytes in the checkpoint image and in the final state, so with
    /// shrinks applied first every intermediate mixture of
    /// {checkpoint, final} slot values fits whenever the final page state
    /// fits — replay converges regardless of how much of a later
    /// checkpoint reached the heap file before a crash.
    pub fn replay_page(
        &self,
        pid: PageId,
        ops: &[(SlotId, Option<&[u8]>)],
    ) -> Result<(), StorageError> {
        let ord = self.adopt_page(pid)?;
        let mut guard = self.pool.fetch_write(pid)?;
        let mut page = SlottedPage::new(&mut guard[..]);
        let mut live_delta: i64 = 0;
        let (shrinks, grows): (Vec<_>, Vec<_>) =
            ops.iter().partition(|&&(slot, bytes)| match bytes {
                None => true,
                Some(b) => page.get(slot).is_some_and(|cur| b.len() <= cur.len()),
            });
        for &(slot, bytes) in shrinks.iter().chain(grows.iter()) {
            match bytes {
                None => {
                    if page.delete(slot) {
                        live_delta -= 1;
                    }
                }
                Some(b) => {
                    let was_live = page.get(slot).is_some();
                    if !page.replay_insert(slot, b) {
                        return Err(StorageError::Corrupt(format!(
                            "wal replay cannot place a {}-byte tuple at page {} slot {}",
                            b.len(),
                            pid.0,
                            slot.0
                        )));
                    }
                    if !was_live {
                        live_delta += 1;
                    }
                }
            }
        }
        let free = page.free_bytes();
        drop(guard);
        let mut inner = self.inner.write();
        inner.fsm.set(ord, free.saturating_sub(4));
        inner.live_tuples = inner.live_tuples.saturating_add_signed(live_delta);
        Ok(())
    }
}

impl std::fmt::Debug for HeapFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.read();
        f.debug_struct("HeapFile")
            .field("pages", &inner.pages.len())
            .field("live_tuples", &inner.live_tuples)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer_pool::BufferPoolConfig;
    use crate::disk::CostModel;
    use crate::file_backend::FileBackend;

    fn heap(frames: usize) -> HeapFile {
        let pool = BufferPool::new(
            FileBackend::new(CostModel::free()),
            BufferPoolConfig::lru(frames),
        );
        HeapFile::new(pool)
    }

    #[test]
    fn insert_get_roundtrip() {
        let h = heap(4);
        let rid = h.insert(b"hello").unwrap();
        assert_eq!(h.get(rid).unwrap(), b"hello");
        assert_eq!(h.live_tuples(), 1);
        assert_eq!(h.num_pages(), 1);
    }

    #[test]
    fn inserts_spill_to_new_pages() {
        let h = heap(4);
        let tuple = vec![7u8; 1000];
        for _ in 0..20 {
            h.insert(&tuple).unwrap();
        }
        assert!(h.num_pages() >= 3, "8 KiB pages hold at most 8 such tuples");
        assert_eq!(h.live_tuples(), 20);
    }

    #[test]
    fn a_run_stops_at_the_tuple_that_does_not_fit_and_keeps_the_rest() {
        let h = heap(4);
        let huge = vec![0u8; MAX_TUPLE_BYTES + 1];
        let mut placed = Vec::new();
        let run: [&[u8]; 4] = [b"one", b"two", &huge, b"never"];
        assert!(matches!(
            h.insert_run(&run, &mut placed),
            Err(StorageError::TupleTooLarge { .. })
        ));
        assert_eq!((placed.len(), h.live_tuples()), (2, 2));
        assert_eq!(h.get(placed[1].0).unwrap(), b"two");
        assert_eq!(placed[1].1, 0, "page ordinal");
    }

    use proptest::prelude::Strategy as _;

    /// One step of the placement script below.
    #[derive(Debug, Clone)]
    enum Step {
        Insert(usize),
        Delete(usize),
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// A run places every tuple where one-by-one inserts do, whatever
        /// holes deletes left in between — through a pool of one frame (the
        /// latched page has to go before another can come) and through one
        /// that never evicts.
        #[test]
        fn insert_run_places_like_repeated_inserts(
            steps in proptest::collection::vec(
                proptest::prop_oneof![
                    4 => (1usize..2600).prop_map(Step::Insert),
                    1 => (0usize..64).prop_map(Step::Delete),
                ],
                1..60,
            ),
            frames in proptest::prop_oneof![proptest::prelude::Just(1usize), proptest::prelude::Just(16usize)],
        ) {
            let (one_by_one, in_runs) = (heap(frames), heap(frames));
            let mut rids: Vec<Rid> = Vec::new();
            let mut run: Vec<Vec<u8>> = Vec::new();
            let mut placed = Vec::new();
            let close_run = |run: &mut Vec<Vec<u8>>, placed: &mut Vec<(Rid, u32)>| {
                let images: Vec<&[u8]> = run.iter().map(Vec::as_slice).collect();
                let outcome = in_runs.insert_run(&images, placed);
                run.clear();
                outcome
            };
            for (i, step) in steps.iter().enumerate() {
                match *step {
                    Step::Insert(len) => {
                        let tuple = vec![i as u8; len];
                        rids.push(one_by_one.insert(&tuple).unwrap());
                        run.push(tuple);
                    }
                    Step::Delete(at) if !rids.is_empty() => {
                        close_run(&mut run, &mut placed).unwrap();
                        let rid = rids[at % rids.len()];
                        proptest::prop_assert_eq!(one_by_one.delete(rid), in_runs.delete(rid));
                    }
                    Step::Delete(_) => {}
                }
            }
            close_run(&mut run, &mut placed).unwrap();
            let run_rids: Vec<Rid> = placed.iter().map(|&(rid, _)| rid).collect();
            proptest::prop_assert_eq!(&run_rids, &rids);
            for &(rid, ord) in &placed {
                proptest::prop_assert_eq!(in_runs.ordinal_of(rid.page), Some(ord));
            }
            proptest::prop_assert_eq!(in_runs.num_pages(), one_by_one.num_pages());
            proptest::prop_assert_eq!(in_runs.live_tuples(), one_by_one.live_tuples());
            for ord in 0..one_by_one.num_pages() {
                proptest::prop_assert_eq!(in_runs.read_page(ord), one_by_one.read_page(ord));
            }
        }
    }

    #[test]
    fn delete_then_get_fails() {
        let h = heap(4);
        let rid = h.insert(b"x").unwrap();
        h.delete(rid).unwrap();
        assert_eq!(h.get(rid), Err(StorageError::UnknownRid(rid)));
        assert_eq!(h.delete(rid), Err(StorageError::UnknownRid(rid)));
        assert_eq!(h.live_tuples(), 0);
    }

    #[test]
    fn deleted_space_is_reused() {
        let h = heap(4);
        let big = vec![1u8; 2000];
        let mut rids = Vec::new();
        for _ in 0..12 {
            rids.push(h.insert(&big).unwrap());
        }
        let pages_before = h.num_pages();
        for rid in &rids {
            h.delete(*rid).unwrap();
        }
        for _ in 0..12 {
            h.insert(&big).unwrap();
        }
        assert_eq!(h.num_pages(), pages_before, "space from deletes was reused");
    }

    #[test]
    fn update_in_place_keeps_rid() {
        let h = heap(4);
        let rid = h.insert(&[1u8; 500]).unwrap();
        let rid2 = h.update(rid, &[2u8; 400]).unwrap();
        assert_eq!(rid, rid2);
        assert_eq!(h.get(rid).unwrap(), vec![2u8; 400]);
    }

    #[test]
    fn update_that_moves_changes_rid() {
        let h = heap(8);
        // Fill one page almost completely.
        let rid = h.insert(&[1u8; 100]).unwrap();
        while h.num_pages() == 1 {
            h.insert(&[3u8; 1000]).unwrap();
        }
        // Target page is now too full for a 5000-byte version of the tuple.
        let rid2 = h.update(rid, &[2u8; 5000]).unwrap();
        assert_ne!(rid.page, rid2.page, "tuple moved to a different page");
        assert_eq!(h.get(rid2).unwrap(), vec![2u8; 5000]);
        assert_eq!(h.get(rid), Err(StorageError::UnknownRid(rid)));
    }

    /// Live-tuple counts per visited page, in visit order.
    fn sweep_counts(
        h: &HeapFile,
        runs: impl IntoIterator<Item = (std::ops::Range<u32>, bool)>,
    ) -> ((u32, u32), Vec<(u32, usize)>) {
        let mut seen = Vec::new();
        let shape = h
            .sweep_read_runs(runs, |ord, _, view| seen.push((ord, view.live_count())))
            .unwrap();
        (shape, seen)
    }

    #[test]
    fn scan_visits_all_live_tuples() {
        let h = heap(4);
        let mut expect = Vec::new();
        for i in 0..100u8 {
            let rid = h.insert(&[i; 200]).unwrap();
            expect.push((rid, i));
        }
        h.delete(expect[10].0).unwrap();
        h.delete(expect[50].0).unwrap();
        let mut seen = Vec::new();
        let (read, skipped) = h
            .sweep_read_runs([(0..h.num_pages(), false)], |_, page, view| {
                seen.extend(
                    view.iter()
                        .map(|(slot, bytes)| (Rid { page, slot }, bytes[0])),
                );
            })
            .unwrap();
        assert_eq!(read, h.num_pages());
        assert_eq!(skipped, 0);
        assert_eq!(seen.len(), 98);
        assert!(!seen.iter().any(|&(rid, _)| rid == expect[10].0));
    }

    #[test]
    fn skippable_runs_avoid_io() {
        let h = heap(2); // tiny pool: every fetched page is a miss
        for i in 0..100u8 {
            h.insert(&[i; 500]).unwrap();
        }
        let n = h.num_pages();
        assert!(n > 4);
        h.pool().sync().unwrap();

        // Skip every page: zero reads.
        let before = h.pool().stats().snapshot();
        let (shape, seen) = sweep_counts(&h, [(0..n, true)]);
        assert_eq!((shape, seen.len()), ((0, n), 0));
        let delta = h.pool().stats().snapshot().since(&before);
        assert_eq!(delta.page_reads, 0, "skipped pages cost no disk I/O");

        // Skip the first half.
        let (shape, seen) = sweep_counts(&h, [(0..n / 2, true), (n / 2..n, false)]);
        assert_eq!(shape, (n - n / 2, n / 2));
        assert_eq!(seen.first().map(|&(ord, _)| ord), Some(n / 2));
    }

    #[test]
    fn range_sweeps_tile_into_the_full_sweep() {
        let h = heap(8);
        for i in 0..120u8 {
            h.insert(&[i; 300]).unwrap();
        }
        let n = h.num_pages();
        assert!(n >= 4);
        let (_, full) = sweep_counts(&h, [(0..n, false)]);
        // Any tiling of 0..n by ranges reproduces the full sweep in order.
        let mid = n / 2;
        let mut tiled = Vec::new();
        for range in [0..mid, mid..n] {
            let (shape, seen) = sweep_counts(&h, [(range.clone(), false)]);
            assert_eq!(shape, (range.end - range.start, 0));
            tiled.extend(seen);
        }
        assert_eq!(tiled, full);
        // Out-of-bounds ordinals are ignored, and skips count per run.
        let (shape, seen) = sweep_counts(&h, [(n..n + 4, false), (n + 4..n + 8, true)]);
        assert_eq!((shape, seen.len()), ((0, 0), 0));
        let (shape, seen) = sweep_counts(&h, (0..n).map(|ord| (ord..ord + 1, ord % 2 == 0)));
        assert_eq!(shape, (n / 2, n.div_ceil(2)));
        assert!(seen.iter().all(|&(ord, _)| ord % 2 == 1));
    }

    #[test]
    fn sweep_read_runs_matches_page_reads() {
        // 16 frames -> sweep batches of 2 pages; ~39 pages of tuples, so
        // the sweep mixes resident hits with batched misses.
        let h = heap(16);
        for i in 0..1000u16 {
            h.insert(&[(i % 251) as u8; 300]).unwrap();
        }
        let n = h.num_pages();
        assert!(n >= 12);
        h.pool().sync().unwrap();

        // An alternating skip pattern in runs of three pages, against the
        // single-page reads of the same unskipped ordinals.
        let skip = |ord: u32| (ord / 3).is_multiple_of(2);
        let runs: Vec<_> = (0..n)
            .step_by(3)
            .map(|at| (at..(at + 3).min(n), skip(at)))
            .collect();
        let per_page: Vec<(u32, usize)> = (0..n)
            .filter(|&ord| !skip(ord))
            .map(|ord| (ord, h.read_page(ord).unwrap().len()))
            .collect();
        let before = h.pool().stats().snapshot();
        let ((read, skipped), swept) = sweep_counts(&h, runs);
        assert_eq!(swept, per_page);
        assert_eq!((read, skipped), (per_page.len() as u32, n - read));
        let d = h.pool().stats().snapshot().since(&before);
        assert_eq!(d.page_reads + d.buffer_hits, u64::from(read));
    }

    /// Page reads charged while `f` runs.
    fn reads_during(h: &HeapFile, f: impl FnOnce()) -> u64 {
        let before = h.pool().stats().snapshot();
        f();
        h.pool().stats().snapshot().since(&before).page_reads
    }

    #[test]
    fn a_hot_set_survives_sweeps_larger_than_the_pool() {
        // 32 frames, a table of four times that.
        let h = heap(32);
        while h.num_pages() < 128 {
            h.insert(&[7u8; 2000]).unwrap();
        }
        let n = h.num_pages();
        let hot = [5u32, 21, 37, 53, 69, 85, 101, 117];
        let touch_hot = |h: &HeapFile| {
            for ord in hot {
                h.tuples_on_page(ord).unwrap();
            }
        };
        touch_hot(&h);
        // Two full sweeps cannot fit: their misses recycle one batch's worth
        // of frames at the cold end instead of flooding the list, so the hot
        // pages — point fetches, plain LRU — are all still resident...
        for _ in 0..2 {
            let reads = reads_during(&h, || {
                assert_eq!(sweep_counts(&h, [(0..n, false)]).0, (n, 0));
            });
            assert!(reads < u64::from(n), "resident pages are hits: {reads}");
        }
        assert_eq!(reads_during(&h, || touch_hot(&h)), 0, "hot set evicted");
        // ...and the second sweep read exactly what the first did: the
        // resident set is stable instead of chasing the sweep.
        let again = reads_during(&h, || {
            sweep_counts(&h, [(0..n, false)]);
        });
        assert_eq!(again, u64::from(n) - 28, "32 frames less one 4-page ring");
    }

    #[test]
    fn a_sweep_that_fits_admits_by_plain_lru() {
        let h = heap(32);
        while h.num_pages() < 128 {
            h.insert(&[7u8; 2000]).unwrap();
        }
        // 16 cold pages fit a 32-frame pool: admitted at the hot end, they
        // displace the least recently used pages and are all resident for
        // the next sweep. (Admitted cold they would chase each other through
        // one batch's frames and miss again.)
        assert_eq!(
            reads_during(&h, || drop(sweep_counts(&h, [(0..16, false)]))),
            16
        );
        assert_eq!(
            reads_during(&h, || drop(sweep_counts(&h, [(0..16, false)]))),
            0
        );
        // The same pages as part of a sweep that does not fit are hits, and
        // hits promote: they survive it.
        let n = h.num_pages();
        sweep_counts(&h, [(0..n, false)]);
        assert_eq!(
            reads_during(&h, || drop(sweep_counts(&h, [(0..16, false)]))),
            0
        );
    }

    #[test]
    fn a_denied_sweep_batch_shrinks_instead_of_failing() {
        // 16 frames -> batches of 2. Eight sweepers at distinct positions
        // park inside their visit callback with their batch still pinned —
        // seven on two-page extents, one on a single page: 15 frames between
        // them (sweepers at the same position would share pins and hide
        // this). A ninth sweep then finds one claimable frame: every
        // two-page batch it asks for is denied, and has to shrink to one
        // page rather than fail the sweep.
        use std::sync::Barrier;
        let h = Arc::new(heap(16));
        while h.num_pages() < 200 {
            h.insert(&[7u8; 2000]).unwrap();
        }
        let n = h.num_pages();
        let expected: usize = (100..n).map(|o| h.tuples_on_page(o).unwrap()).sum();
        let pinned = Arc::new(Barrier::new(9));
        let release = Arc::new(Barrier::new(9));
        let holders: Vec<_> = (0..8u32)
            .map(|t| {
                let (h, pinned, release) =
                    (Arc::clone(&h), Arc::clone(&pinned), Arc::clone(&release));
                std::thread::spawn(move || {
                    let mut parked = false;
                    h.sweep_read_runs([(2 * t..(2 * t + 2).min(15), false)], |_, _, _| {
                        if !parked {
                            parked = true;
                            pinned.wait();
                            release.wait();
                        }
                    })
                })
            })
            .collect();
        pinned.wait();
        let mut seen = 0;
        let swept = h.sweep_read_runs([(100..n, false)], |_, _, view| {
            seen += view.live_count();
        });
        release.wait();
        for (t, holder) in holders.into_iter().enumerate() {
            let pages = if t == 7 { 1 } else { 2 };
            assert_eq!(holder.join().unwrap(), Ok((pages, 0)));
        }
        assert_eq!(swept, Ok((n - 100, 0)));
        assert_eq!(seen, expected);
    }

    #[test]
    fn read_page_returns_page_locals() {
        let h = heap(4);
        let mut by_page: HashMap<PageId, usize> = HashMap::new();
        for i in 0..50u8 {
            let rid = h.insert(&[i; 300]).unwrap();
            *by_page.entry(rid.page).or_default() += 1;
        }
        for ord in 0..h.num_pages() {
            let pid = h.page_id_of(ord).unwrap();
            let tuples = h.read_page(ord).unwrap();
            assert_eq!(tuples.len(), by_page[&pid]);
            assert!(tuples.iter().all(|(rid, _)| rid.page == pid));
            assert_eq!(h.tuples_on_page(ord).unwrap(), tuples.len());
        }
    }

    #[test]
    fn ordinal_mapping_is_bijective() {
        let h = heap(4);
        for _ in 0..30 {
            h.insert(&[0u8; 1500]).unwrap();
        }
        for ord in 0..h.num_pages() {
            let pid = h.page_id_of(ord).unwrap();
            assert_eq!(h.ordinal_of(pid), Some(ord));
        }
        assert_eq!(h.page_id_of(h.num_pages()), None);
        assert_eq!(h.ordinal_of(PageId(9999)), None);
    }

    #[test]
    fn relocate_moves_to_another_page() {
        let h = heap(8);
        // Two pages: one nearly full, one nearly empty.
        let mut first_page_rids = Vec::new();
        while h.num_pages() <= 1 {
            first_page_rids.push(h.insert(&[1u8; 700]).unwrap());
        }
        let victim = *first_page_rids.first().unwrap();
        // Free space on page 0 by deleting some tuples.
        for rid in first_page_rids.iter().skip(6) {
            if h.ordinal_of(rid.page) == Some(0) {
                h.delete(*rid).unwrap();
            }
        }
        let lone = h.insert(&[2u8; 700]).unwrap(); // lands somewhere with space
        let before = h.live_tuples();
        let new_rid = h.relocate(victim).unwrap();
        assert_ne!(new_rid.page, victim.page, "relocation must change pages");
        assert_eq!(h.get(new_rid).unwrap(), vec![1u8; 700]);
        assert_eq!(h.get(victim), Err(StorageError::UnknownRid(victim)));
        assert_eq!(h.live_tuples(), before, "relocation preserves tuple count");
        let _ = lone;
    }

    #[test]
    fn relocate_falls_back_to_fresh_page() {
        let h = heap(8);
        // A single almost-full page: no other page can take the tuple.
        let rid = h.insert(&[3u8; 4000]).unwrap();
        h.insert(&[4u8; 4000]).unwrap();
        let pages_before = h.num_pages();
        let new_rid = h.relocate(rid).unwrap();
        assert_ne!(new_rid.page, rid.page);
        assert_eq!(h.num_pages(), pages_before + 1, "fresh page allocated");
        assert_eq!(h.get(new_rid).unwrap(), vec![3u8; 4000]);
    }

    #[test]
    fn foreign_rids_rejected() {
        let h = heap(4);
        let other = heap(4);
        let foreign = other.insert(b"alien").unwrap();
        assert!(matches!(h.get(foreign), Err(StorageError::UnknownPage(_))));
        assert!(matches!(
            h.delete(foreign),
            Err(StorageError::UnknownPage(_))
        ));
        assert!(matches!(
            h.update(foreign, b"z"),
            Err(StorageError::UnknownPage(_))
        ));
    }

    #[test]
    fn oversized_tuple_rejected() {
        let h = heap(4);
        assert!(matches!(
            h.insert(&vec![0u8; MAX_TUPLE_BYTES + 1]),
            Err(StorageError::TupleTooLarge { .. })
        ));
        assert!(matches!(
            h.insert(&[]),
            Err(StorageError::TupleTooLarge { .. })
        ));
    }

    #[test]
    fn adopt_pages_rebuilds_bookkeeping() {
        // Populate a heap, then adopt its pages into a *fresh* heap sharing
        // the same pool — the recovery situation after a checkpoint restore.
        let pool = BufferPool::new(
            FileBackend::new(CostModel::free()),
            BufferPoolConfig::lru(8),
        );
        let h = HeapFile::new(Arc::clone(&pool));
        let mut rids = Vec::new();
        for i in 0..20u8 {
            rids.push(h.insert(&vec![i; 1000]).unwrap());
        }
        h.delete(rids[3]).unwrap();
        let pids: Vec<PageId> = (0..h.num_pages())
            .map(|o| h.page_id_of(o).unwrap())
            .collect();
        let live = h.live_tuples();
        pool.sync().unwrap();

        let fresh = HeapFile::new(pool);
        fresh.adopt_pages(&pids).unwrap();
        assert_eq!(fresh.num_pages(), pids.len() as u32);
        assert_eq!(fresh.live_tuples(), live);
        for (o, &pid) in pids.iter().enumerate() {
            assert_eq!(
                fresh.page_id_of(o as u32),
                Some(pid),
                "ordinals match list order"
            );
        }
        // Adoption is idempotent.
        fresh.adopt_pages(&pids).unwrap();
        assert_eq!(fresh.live_tuples(), live);
        // The FSM was rebuilt: inserts land on adopted pages, not fresh ones.
        fresh.insert(b"small").unwrap();
        assert_eq!(fresh.num_pages(), pids.len() as u32);
    }

    #[test]
    fn replay_page_forces_final_slot_states() {
        let h = heap(8);
        let a = h.insert(b"alpha").unwrap();
        let b = h.insert(b"beta").unwrap();
        assert_eq!(a.page, b.page);
        let pid = a.page;
        // Final state: slot A dead, slot B rewritten, slot 7 born.
        h.replay_page(
            pid,
            &[
                (a.slot, None),
                (b.slot, Some(b"beta-two")),
                (SlotId(7), Some(b"late")),
            ],
        )
        .unwrap();
        assert_eq!(h.get(a), Err(StorageError::UnknownRid(a)));
        assert_eq!(h.get(b).unwrap(), b"beta-two");
        assert_eq!(
            h.get(Rid {
                page: pid,
                slot: SlotId(7)
            })
            .unwrap(),
            b"late"
        );
        assert_eq!(h.live_tuples(), 2);
        // Replaying the same final state again is a no-op (idempotent).
        h.replay_page(
            pid,
            &[
                (a.slot, None),
                (b.slot, Some(b"beta-two")),
                (SlotId(7), Some(b"late")),
            ],
        )
        .unwrap();
        assert_eq!(h.live_tuples(), 2);
    }

    #[test]
    fn replay_page_adopts_unknown_pages() {
        let pool = BufferPool::new(
            FileBackend::new(CostModel::free()),
            BufferPoolConfig::lru(8),
        );
        let h = HeapFile::new(pool);
        // Page id 2 does not exist anywhere yet: adoption must allocate
        // backend pages 0..=2 and register only page 2 with the heap.
        let pid = PageId(2);
        h.replay_page(pid, &[(SlotId(0), Some(b"recovered"))])
            .unwrap();
        assert_eq!(h.num_pages(), 1);
        assert_eq!(h.live_tuples(), 1);
        assert_eq!(
            h.get(Rid {
                page: pid,
                slot: SlotId(0)
            })
            .unwrap(),
            b"recovered"
        );
    }

    #[test]
    fn replay_page_applies_shrinks_before_grows() {
        // Fill a page so tight that naive in-order application would
        // overflow: growing slot 1 before shrinking slot 0 cannot fit.
        let h = heap(4);
        let a = h.insert(&[1u8; 4000]).unwrap();
        let b = h.insert(&[2u8; 3000]).unwrap();
        assert_eq!(a.page, b.page);
        // Final state swaps the sizes: a shrinks to 3000, b grows to 4000.
        h.replay_page(
            a.page,
            &[(b.slot, Some(&[4u8; 4000])), (a.slot, Some(&[3u8; 3000]))],
        )
        .unwrap();
        assert_eq!(h.get(a).unwrap(), vec![3u8; 3000]);
        assert_eq!(h.get(b).unwrap(), vec![4u8; 4000]);
        assert_eq!(h.live_tuples(), 2);
    }
}
