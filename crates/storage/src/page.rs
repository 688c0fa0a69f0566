//! Slotted-page layout for variable-length tuples.
//!
//! ```text
//! 0        2           4           6           8
//! +--------+-----------+-----------+-----------+------------------ - - -
//! | nslots | data_start| frag_bytes| live_count| slot dir (4 B each) ...
//! +--------+-----------+-----------+-----------+------------------ - - -
//!                        ... free space ...
//!            - - - ------------------------------------------------+
//!                         tuple data, packed towards the page end   |
//!            - - - ------------------------------------------------+
//! ```
//!
//! Each slot is `(offset: u16, len: u16)`; `len == 0` marks a deleted slot
//! whose id can be reused. Tuple data grows downward from the page end,
//! the slot directory upward from the header. Deletes and shrinking updates
//! leave `frag_bytes` of reclaimable space; compaction repacks the data
//! region when contiguous space runs out.
//!
//! Slot ids are **stable across compaction**, which is essential here: record
//! ids are stored in partial indexes and in the Index Buffer, and Table I
//! maintenance relies on a tuple keeping its `Rid` unless an update moves it.
//!
//! # Value filters
//!
//! A resident page's frame carries [`FrameFilters`]: for each of the first
//! [`FILTERED_COLUMNS`] columns, a 128-bit [`ValueFilter`] with one bit per
//! live tuple, taken from a hash of the column value's canonical encoding.
//! A filter is a pure function of the page image: the buffer pool clears
//! it whenever it hands out write access to the image, and a point sweep
//! that walks the rows of an unchanged image builds and publishes it under
//! the frame's read latch ([`ColumnFilter`]). A built filter that lacks a
//! key's bit proves the page holds no tuple with that value.

// aib-lint: allow-file(no-index) — every offset below is read from the
// header or the slot directory and bounds-checked against PAGE_SIZE at
// decode time (`slot`, `data_start`); indexing after those checks is the
// point of the layout, and `.get()` noise would hide the arithmetic that
// the checks protect.

use crate::disk::PAGE_SIZE;
use crate::rid::SlotId;
use crate::sync::{AtomicU64, Ordering};

const HEADER: usize = 8;
const SLOT_BYTES: usize = 4;

/// Largest tuple a fresh page can store (one slot entry + the payload).
pub const MAX_TUPLE_BYTES: usize = PAGE_SIZE - HEADER - SLOT_BYTES;

#[inline]
fn get_u16(buf: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([buf[at], buf[at + 1]])
}

#[inline]
fn put_u16(buf: &mut [u8], at: usize, v: u16) {
    buf[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

/// Shared read-only accessors over a raw page image.
///
/// Free functions so both [`SlottedPage`] (mutable) and [`PageView`]
/// (read-only) can use them without borrowing tricks.
mod raw {
    use super::*;

    pub fn nslots(buf: &[u8]) -> usize {
        get_u16(buf, 0) as usize
    }

    pub fn data_start(buf: &[u8]) -> usize {
        let v = get_u16(buf, 2) as usize;
        // A zeroed (freshly allocated) page reads as data_start == 0, which
        // means "uninitialised"; treat it as an empty page.
        if v == 0 {
            PAGE_SIZE
        } else {
            v
        }
    }

    pub fn frag_bytes(buf: &[u8]) -> usize {
        get_u16(buf, 4) as usize
    }

    pub fn live_count(buf: &[u8]) -> usize {
        get_u16(buf, 6) as usize
    }

    pub fn slot(buf: &[u8], idx: usize) -> (usize, usize) {
        let at = HEADER + idx * SLOT_BYTES;
        (get_u16(buf, at) as usize, get_u16(buf, at + 2) as usize)
    }

    pub fn tuple(buf: &[u8], slot_id: SlotId) -> Option<&[u8]> {
        let idx = slot_id.0 as usize;
        if idx >= nslots(buf) {
            return None;
        }
        let (off, len) = slot(buf, idx);
        if len == 0 {
            return None;
        }
        Some(&buf[off..off + len])
    }

    /// Contiguous free bytes between the slot directory and the data region.
    pub fn contiguous_free(buf: &[u8]) -> usize {
        data_start(buf).saturating_sub(HEADER + nslots(buf) * SLOT_BYTES)
    }
}

/// Columns a frame keeps a value filter for: the first four.
pub const FILTERED_COLUMNS: usize = 4;

/// Bit 127 of a column's filter words: set once the filter is built. The
/// values take bits 0..=126.
const BUILT: u64 = 1 << 63;

/// A set of column values as 127 bits of their hashes: the filter being
/// built from a page's rows, or the one bit of a query key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValueFilter(u128);

impl ValueFilter {
    /// The filter holding only the value whose canonical encoding is
    /// `encoded` (a [`Value::encode`](crate::Value::encode) output; the
    /// encoding is injective, so equal values give equal bits).
    #[inline]
    pub fn of(encoded: &[u8]) -> Self {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let mix = |h: u64, word: u64| {
            let h = (h ^ word).wrapping_mul(K);
            h ^ (h >> 32)
        };
        let mut words = encoded.chunks_exact(8);
        let mut h = encoded.len() as u64;
        for w in &mut words {
            let mut b = [0u8; 8];
            b.copy_from_slice(w);
            h = mix(h, u64::from_le_bytes(b));
        }
        let mut b = [0u8; 8];
        for (d, s) in b.iter_mut().zip(words.remainder()) {
            *d = *s;
        }
        let h = mix(h, u64::from_le_bytes(b)).wrapping_mul(K);
        // Multiply-shift maps the top 32 bits onto 0..127 without a division.
        ValueFilter(1 << (((h >> 32) * 127) >> 32))
    }

    /// Adds the value whose canonical encoding is `encoded`.
    #[inline]
    pub fn insert(&mut self, encoded: &[u8]) {
        self.0 |= Self::of(encoded).0;
    }

    /// Whether every value of `key` may be in this set; `false` proves
    /// that at least one is not.
    #[inline]
    pub fn may_contain(&self, key: ValueFilter) -> bool {
        self.0 & key.0 == key.0
    }
}

/// The value filters of one buffer frame: 128 bits (two words) for each of
/// the first [`FILTERED_COLUMNS`] columns, 64 bytes. All zero is "none
/// built". The buffer pool owns the block and clears it under the frame's
/// write latch; a reader reaches it only through the [`PageView`] of a
/// visit that holds the read latch.
#[derive(Debug, Default)]
pub struct FrameFilters {
    columns: [[AtomicU64; 2]; FILTERED_COLUMNS],
}

impl FrameFilters {
    /// Unbuilds every column's filter. The caller holds the frame's write
    /// latch, so no reader is between a load and a publish.
    pub(crate) fn clear(&self) {
        for word in self.columns.iter().flatten() {
            word.store(0, Ordering::Release);
        }
    }

    /// Column `column`'s filter, if it has one.
    pub(crate) fn column(&self, column: usize) -> Option<ColumnFilter<'_>> {
        let [lo, hi] = self.columns.get(column)?;
        Some(ColumnFilter { lo, hi })
    }
}

/// One column's filter on a resident page, borrowed for the visit that
/// holds the frame's read latch: the image cannot change while it lives.
#[derive(Debug, Clone, Copy)]
pub struct ColumnFilter<'a> {
    lo: &'a AtomicU64,
    /// Published last, with [`BUILT`]: a reader that loads it built sees
    /// the `lo` stored before it.
    hi: &'a AtomicU64,
}

impl ColumnFilter<'_> {
    /// The filter, if a visit of this image has built it.
    #[inline]
    pub fn built(&self) -> Option<ValueFilter> {
        let hi = self.hi.load(Ordering::Acquire);
        (hi & BUILT != 0).then(|| {
            let lo = self.lo.load(Ordering::Acquire);
            ValueFilter(u128::from(hi & !BUILT) << 64 | u128::from(lo))
        })
    }

    /// Publishes `filter`, built from every live tuple of this image. Two
    /// visits may publish at once; both built the same bits.
    #[inline]
    pub fn publish(&self, filter: ValueFilter) {
        self.lo.store(filter.0 as u64, Ordering::Release);
        self.hi
            .store((filter.0 >> 64) as u64 | BUILT, Ordering::Release);
    }
}

/// Read-only view over a page image.
#[derive(Debug, Clone, Copy)]
pub struct PageView<'a> {
    buf: &'a [u8],
    filters: Option<&'a FrameFilters>,
}

impl<'a> PageView<'a> {
    /// Wraps a page-sized byte slice, with no value filters.
    ///
    /// # Panics
    /// If `buf` is not exactly [`PAGE_SIZE`] bytes.
    pub fn new(buf: &'a [u8]) -> Self {
        Self::with_filters(buf, None)
    }

    /// Wraps a page-sized byte slice with the value filters kept for this
    /// image, if any: a sweep passes a resident frame's block while it
    /// holds the frame's read latch.
    ///
    /// # Panics
    /// If `buf` is not exactly [`PAGE_SIZE`] bytes.
    pub fn with_filters(buf: &'a [u8], filters: Option<&'a FrameFilters>) -> Self {
        assert_eq!(buf.len(), PAGE_SIZE, "page view requires a full page image");
        PageView { buf, filters }
    }

    /// Column `column`'s value filter: `None` for a view without filters
    /// or a column past the first [`FILTERED_COLUMNS`].
    #[inline]
    pub fn value_filter(&self, column: usize) -> Option<ColumnFilter<'a>> {
        self.filters?.column(column)
    }

    /// Number of slot directory entries (live or deleted).
    pub fn slot_count(&self) -> usize {
        raw::nslots(self.buf)
    }

    /// Number of live tuples.
    pub fn live_count(&self) -> usize {
        raw::live_count(self.buf)
    }

    /// Bytes of the tuple in `slot`, if live.
    pub fn get(&self, slot: SlotId) -> Option<&'a [u8]> {
        raw::tuple(self.buf, slot)
    }

    /// Iterates `(slot, tuple bytes)` over live tuples in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &'a [u8])> + '_ {
        let buf = self.buf;
        (0..raw::nslots(buf)).filter_map(move |i| {
            let id = SlotId(i as u16);
            raw::tuple(buf, id).map(|t| (id, t))
        })
    }

    /// Drives `f` over every live tuple in slot order — the scan hot path.
    /// Same visits as [`PageView::iter`] on a well-formed page, but the slot
    /// count is read once and each directory entry costs one decode, instead
    /// of `iter`'s per-slot re-validation through [`PageView::get`]; a
    /// directory entry pointing past the page is skipped rather than
    /// panicking.
    #[inline]
    pub fn for_each_live(&self, mut f: impl FnMut(SlotId, &'a [u8])) {
        let buf = self.buf;
        let n = raw::nslots(buf).min((PAGE_SIZE - HEADER) / SLOT_BYTES);
        let Some(dir) = buf.get(HEADER..HEADER + n * SLOT_BYTES) else {
            return;
        };
        // chunks_exact gives fixed-width entries, so the per-entry decodes
        // compile without bounds checks — the row loop stays branch-lean.
        for (i, entry) in dir.chunks_exact(SLOT_BYTES).enumerate() {
            let off = u16::from_le_bytes([entry[0], entry[1]]) as usize;
            let len = u16::from_le_bytes([entry[2], entry[3]]) as usize;
            if len == 0 {
                continue;
            }
            if let Some(bytes) = buf.get(off..off + len) {
                f(SlotId(i as u16), bytes);
            }
        }
    }

    /// Free bytes usable by an insert after compaction (excluding a possible
    /// new slot entry).
    pub fn free_bytes(&self) -> usize {
        raw::contiguous_free(self.buf) + raw::frag_bytes(self.buf)
    }
}

/// Mutable slotted-page editor over a page image.
#[derive(Debug)]
pub struct SlottedPage<'a> {
    buf: &'a mut [u8],
}

impl<'a> SlottedPage<'a> {
    /// Wraps a page-sized byte slice for editing. Zeroed (fresh) pages are
    /// valid empty pages.
    ///
    /// # Panics
    /// If `buf` is not exactly [`PAGE_SIZE`] bytes.
    pub fn new(buf: &'a mut [u8]) -> Self {
        assert_eq!(
            buf.len(),
            PAGE_SIZE,
            "slotted page requires a full page image"
        );
        SlottedPage { buf }
    }

    /// Re-initialises the page to empty.
    pub fn init(&mut self) {
        put_u16(self.buf, 0, 0);
        put_u16(self.buf, 2, PAGE_SIZE as u16);
        put_u16(self.buf, 4, 0);
        put_u16(self.buf, 6, 0);
    }

    /// Read-only view of the same page.
    pub fn view(&self) -> PageView<'_> {
        PageView {
            buf: self.buf,
            filters: None,
        }
    }

    /// Number of slot directory entries (live or deleted).
    pub fn slot_count(&self) -> usize {
        raw::nslots(self.buf)
    }

    /// Number of live tuples.
    pub fn live_count(&self) -> usize {
        raw::live_count(self.buf)
    }

    /// Bytes of the tuple in `slot`, if live.
    pub fn get(&self, slot: SlotId) -> Option<&[u8]> {
        raw::tuple(self.buf, slot)
    }

    /// Free bytes available to an insert that reuses a deleted slot
    /// (compaction included).
    pub fn free_bytes(&self) -> usize {
        raw::contiguous_free(self.buf) + raw::frag_bytes(self.buf)
    }

    /// Whether an insert of `len` bytes would succeed.
    pub fn fits(&self, len: usize) -> bool {
        let needs_new_slot = self.first_dead_slot().is_none();
        let slot_cost = if needs_new_slot { SLOT_BYTES } else { 0 };
        self.free_bytes() >= len + slot_cost
    }

    fn first_dead_slot(&self) -> Option<usize> {
        (0..raw::nslots(self.buf)).find(|&i| raw::slot(self.buf, i).1 == 0)
    }

    fn set_slot(&mut self, idx: usize, off: usize, len: usize) {
        let at = HEADER + idx * SLOT_BYTES;
        put_u16(self.buf, at, off as u16);
        put_u16(self.buf, at + 2, len as u16);
    }

    fn set_header(&mut self, nslots: usize, data_start: usize, frag: usize, live: usize) {
        put_u16(self.buf, 0, nslots as u16);
        // data_start == PAGE_SIZE (8192) fits in u16.
        put_u16(self.buf, 2, data_start as u16);
        put_u16(self.buf, 4, frag as u16);
        put_u16(self.buf, 6, live as u16);
    }

    /// Repacks live tuples towards the page end, zeroing `frag_bytes`.
    /// Slot ids and tuple contents are unchanged.
    fn compact(&mut self) {
        let n = raw::nslots(self.buf);
        let mut live: Vec<(usize, Vec<u8>)> = Vec::with_capacity(raw::live_count(self.buf));
        for i in 0..n {
            let (off, len) = raw::slot(self.buf, i);
            if len > 0 {
                live.push((i, self.buf[off..off + len].to_vec()));
            }
        }
        let mut cursor = PAGE_SIZE;
        let live_n = live.len();
        for (idx, bytes) in live {
            cursor -= bytes.len();
            self.buf[cursor..cursor + bytes.len()].copy_from_slice(&bytes);
            self.set_slot(idx, cursor, bytes.len());
        }
        self.set_header(n, cursor, 0, live_n);
    }

    /// Inserts a tuple, returning its slot id, or `None` if it cannot fit.
    /// Deleted slot ids are reused before the directory grows.
    pub fn insert(&mut self, bytes: &[u8]) -> Option<SlotId> {
        if bytes.is_empty() || bytes.len() > MAX_TUPLE_BYTES || !self.fits(bytes.len()) {
            return None;
        }
        let reuse = self.first_dead_slot();
        let slot_cost = if reuse.is_none() { SLOT_BYTES } else { 0 };
        if raw::contiguous_free(self.buf) < bytes.len() + slot_cost {
            self.compact();
        }
        debug_assert!(raw::contiguous_free(self.buf) >= bytes.len() + slot_cost);

        let idx = reuse.unwrap_or_else(|| raw::nslots(self.buf));
        let new_nslots = raw::nslots(self.buf).max(idx + 1);
        let data_start = raw::data_start(self.buf) - bytes.len();
        self.buf[data_start..data_start + bytes.len()].copy_from_slice(bytes);
        let frag = raw::frag_bytes(self.buf);
        let live = raw::live_count(self.buf) + 1;
        self.set_header(new_nslots, data_start, frag, live);
        self.set_slot(idx, data_start, bytes.len());
        Some(SlotId(idx as u16))
    }

    /// Deletes the tuple in `slot`. Returns `false` if the slot is already
    /// empty or out of range.
    pub fn delete(&mut self, slot: SlotId) -> bool {
        let idx = slot.0 as usize;
        if idx >= raw::nslots(self.buf) {
            return false;
        }
        let (_, len) = raw::slot(self.buf, idx);
        if len == 0 {
            return false;
        }
        self.set_slot(idx, 0, 0);
        let frag = raw::frag_bytes(self.buf) + len;
        let live = raw::live_count(self.buf) - 1;
        let n = raw::nslots(self.buf);
        let ds = raw::data_start(self.buf);
        self.set_header(n, ds, frag, live);
        true
    }

    /// Replaces the tuple in `slot` with `bytes`, keeping the slot id.
    /// Returns `false` if the slot is empty or the new bytes cannot fit.
    pub fn update(&mut self, slot: SlotId, bytes: &[u8]) -> bool {
        let idx = slot.0 as usize;
        if idx >= raw::nslots(self.buf) || bytes.is_empty() || bytes.len() > MAX_TUPLE_BYTES {
            return false;
        }
        let (off, len) = raw::slot(self.buf, idx);
        if len == 0 {
            return false;
        }
        if bytes.len() <= len {
            // Shrink or same size: rewrite in place at the tail of the old
            // region so offsets stay within the data area.
            let new_off = off + (len - bytes.len());
            self.buf[new_off..new_off + bytes.len()].copy_from_slice(bytes);
            self.set_slot(idx, new_off, bytes.len());
            let frag = raw::frag_bytes(self.buf) + (len - bytes.len());
            let n = raw::nslots(self.buf);
            let ds = raw::data_start(self.buf);
            let live = raw::live_count(self.buf);
            self.set_header(n, ds, frag, live);
            return true;
        }
        // Grow: the old region plus free space must cover the new bytes.
        if raw::contiguous_free(self.buf) + raw::frag_bytes(self.buf) + len < bytes.len() {
            return false;
        }
        // Free the old region, then place the new bytes (compacting if
        // needed). The capacity check above guarantees success. The tuple
        // stays logically live throughout, but compaction recounts live
        // slots while ours is transiently zeroed — so restore the live
        // count explicitly at the end.
        let live_before = raw::live_count(self.buf);
        self.set_slot(idx, 0, 0);
        let frag = raw::frag_bytes(self.buf) + len;
        let n = raw::nslots(self.buf);
        let ds = raw::data_start(self.buf);
        self.set_header(n, ds, frag, live_before);
        if raw::contiguous_free(self.buf) < bytes.len() {
            self.compact();
        }
        let data_start = raw::data_start(self.buf) - bytes.len();
        self.buf[data_start..data_start + bytes.len()].copy_from_slice(bytes);
        self.set_slot(idx, data_start, bytes.len());
        let n = raw::nslots(self.buf);
        let frag = raw::frag_bytes(self.buf);
        self.set_header(n, data_start, frag, live_before);
        true
    }

    /// WAL-replay primitive: places `bytes` at exactly slot `slot`, growing
    /// the slot directory with dead slots as needed and overwriting any
    /// previous occupant (replay is last-write-wins). Returns `false` when
    /// the bytes cannot fit even after compaction — which recovery treats as
    /// corruption, since every logged state fit when it was first written.
    ///
    /// Sound because slot ids are stable across compaction:
    /// replaying a log prefix always reproduces the slot assignments the
    /// original execution made.
    pub fn replay_insert(&mut self, slot: SlotId, bytes: &[u8]) -> bool {
        let idx = slot.0 as usize;
        if bytes.is_empty() || bytes.len() > MAX_TUPLE_BYTES {
            return false;
        }
        // Grow the directory through `idx`, initialising new slots dead.
        let n = raw::nslots(self.buf);
        if idx >= n {
            let grow = (idx + 1 - n) * SLOT_BYTES;
            if raw::contiguous_free(self.buf) < grow {
                self.compact();
            }
            if raw::contiguous_free(self.buf) < grow {
                return false;
            }
            let ds = raw::data_start(self.buf);
            let frag = raw::frag_bytes(self.buf);
            let live = raw::live_count(self.buf);
            self.set_header(idx + 1, ds, frag, live);
            for i in n..=idx {
                self.set_slot(i, 0, 0);
            }
        }
        // An occupied slot is an overwrite; update() keeps the slot id.
        if raw::slot(self.buf, idx).1 != 0 {
            return self.update(slot, bytes);
        }
        if self.free_bytes() < bytes.len() {
            return false;
        }
        if raw::contiguous_free(self.buf) < bytes.len() {
            self.compact();
        }
        let data_start = raw::data_start(self.buf) - bytes.len();
        self.buf[data_start..data_start + bytes.len()].copy_from_slice(bytes);
        let n = raw::nslots(self.buf);
        let frag = raw::frag_bytes(self.buf);
        let live = raw::live_count(self.buf) + 1;
        self.set_header(n, data_start, frag, live);
        self.set_slot(idx, data_start, bytes.len());
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Box<[u8; PAGE_SIZE]> {
        Box::new([0u8; PAGE_SIZE])
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut buf = fresh();
        let mut page = SlottedPage::new(&mut buf[..]);
        let a = page.insert(b"hello").unwrap();
        let b = page.insert(b"world!").unwrap();
        assert_ne!(a, b);
        assert_eq!(page.get(a), Some(&b"hello"[..]));
        assert_eq!(page.get(b), Some(&b"world!"[..]));
        assert_eq!(page.live_count(), 2);
    }

    #[test]
    fn zeroed_page_is_valid_and_empty() {
        let buf = fresh();
        let view = PageView::new(&buf[..]);
        assert_eq!(view.live_count(), 0);
        assert_eq!(view.slot_count(), 0);
        assert_eq!(view.iter().count(), 0);
    }

    #[test]
    fn delete_frees_slot_for_reuse() {
        let mut buf = fresh();
        let mut page = SlottedPage::new(&mut buf[..]);
        let a = page.insert(b"abc").unwrap();
        let _b = page.insert(b"def").unwrap();
        assert!(page.delete(a));
        assert!(!page.delete(a), "double delete rejected");
        assert_eq!(page.get(a), None);
        assert_eq!(page.live_count(), 1);
        let c = page.insert(b"xyz").unwrap();
        assert_eq!(c, a, "deleted slot id is reused");
        assert_eq!(page.slot_count(), 2, "directory did not grow");
    }

    #[test]
    fn fill_page_to_capacity() {
        let mut buf = fresh();
        let mut page = SlottedPage::new(&mut buf[..]);
        let tuple = [7u8; 100];
        let mut n = 0;
        while page.insert(&tuple).is_some() {
            n += 1;
        }
        // 100 payload + 4 slot bytes each within PAGE_SIZE - HEADER.
        assert_eq!(n, (PAGE_SIZE - HEADER) / (100 + SLOT_BYTES));
        assert!(!page.fits(100));
        assert!(page.fits(page.free_bytes().saturating_sub(SLOT_BYTES)));
    }

    #[test]
    fn replay_insert_targets_exact_slot() {
        let mut buf = fresh();
        let mut page = SlottedPage::new(&mut buf[..]);
        assert!(page.replay_insert(SlotId(5), b"hello"));
        assert_eq!(page.slot_count(), 6);
        assert_eq!(page.live_count(), 1);
        assert_eq!(page.get(SlotId(5)), Some(&b"hello"[..]));
        for i in 0..5 {
            assert_eq!(page.get(SlotId(i)), None, "slots below stay dead");
        }
        // A normal insert reuses the dead slots replay left behind.
        assert_eq!(page.insert(b"x"), Some(SlotId(0)));
    }

    #[test]
    fn replay_insert_overwrites_occupied_slot() {
        let mut buf = fresh();
        let mut page = SlottedPage::new(&mut buf[..]);
        let s = page.insert(b"old contents").unwrap();
        assert!(page.replay_insert(s, b"new and much longer contents"));
        assert_eq!(page.get(s), Some(&b"new and much longer contents"[..]));
        assert_eq!(page.live_count(), 1);
        // Shrinking overwrite too.
        assert!(page.replay_insert(s, b"n"));
        assert_eq!(page.get(s), Some(&b"n"[..]));
    }

    #[test]
    fn replay_insert_compacts_when_fragmented() {
        let mut buf = fresh();
        let mut page = SlottedPage::new(&mut buf[..]);
        let tuple = [1u8; 512];
        let mut slots = Vec::new();
        while let Some(s) = page.insert(&tuple) {
            slots.push(s);
        }
        for s in slots.iter().step_by(2) {
            assert!(page.delete(*s));
        }
        let big = [2u8; 1000];
        assert!(page.replay_insert(slots[0], &big));
        assert_eq!(page.get(slots[0]), Some(&big[..]));
        for s in slots.iter().skip(1).step_by(2) {
            assert_eq!(page.get(*s), Some(&tuple[..]), "survivors intact");
        }
    }

    #[test]
    fn replay_insert_rejects_impossible() {
        let mut buf = fresh();
        let mut page = SlottedPage::new(&mut buf[..]);
        assert!(!page.replay_insert(SlotId(0), b""));
        assert!(!page.replay_insert(SlotId(0), &vec![0u8; MAX_TUPLE_BYTES + 1]));
        // Fill the page, then ask for a slot beyond the directory.
        let tuple = [7u8; 100];
        while page.insert(&tuple).is_some() {}
        let n = page.slot_count() as u16;
        assert!(!page.replay_insert(SlotId(n), &tuple), "page is full");
    }

    #[test]
    fn compaction_reclaims_fragmentation() {
        let mut buf = fresh();
        let mut page = SlottedPage::new(&mut buf[..]);
        let tuple = [1u8; 512];
        let mut slots = Vec::new();
        while let Some(s) = page.insert(&tuple) {
            slots.push(s);
        }
        // Delete every other tuple: frees space, but only fragmented.
        for s in slots.iter().step_by(2) {
            assert!(page.delete(*s));
        }
        // A larger tuple than any hole must still fit via compaction.
        let big = [2u8; 1000];
        let s = page.insert(&big).expect("compaction makes room");
        assert_eq!(page.get(s), Some(&big[..]));
        // Survivors are intact.
        for s in slots.iter().skip(1).step_by(2) {
            assert_eq!(page.get(*s), Some(&tuple[..]));
        }
    }

    #[test]
    fn update_in_place_shrink_and_grow() {
        let mut buf = fresh();
        let mut page = SlottedPage::new(&mut buf[..]);
        let s = page.insert(&[9u8; 300]).unwrap();
        assert!(page.update(s, &[8u8; 100]), "shrink");
        assert_eq!(page.get(s), Some(&[8u8; 100][..]));
        assert!(page.update(s, &[7u8; 600]), "grow");
        assert_eq!(page.get(s), Some(&[7u8; 600][..]));
        assert_eq!(page.live_count(), 1);
    }

    #[test]
    fn update_grow_uses_compaction() {
        let mut buf = fresh();
        let mut page = SlottedPage::new(&mut buf[..]);
        let victim = page.insert(&[1u8; 2000]).unwrap();
        let keep = page.insert(&[2u8; 2000]).unwrap();
        let target = page.insert(&[3u8; 2000]).unwrap();
        page.delete(victim);
        // Contiguous space (~2 KB minus headers) is too small; old region +
        // fragmentation suffices after compaction.
        assert!(page.update(target, &[4u8; 4000]));
        assert_eq!(page.get(target), Some(&[4u8; 4000][..]));
        assert_eq!(page.get(keep), Some(&[2u8; 2000][..]));
    }

    #[test]
    fn update_grow_with_compaction_keeps_live_count() {
        // Regression (found by proptest): a growing update that triggers
        // compaction transiently zeroes its own slot; compaction's recount
        // must not permanently lose the tuple from live_count.
        let mut buf = fresh();
        let mut page = SlottedPage::new(&mut buf[..]);
        let a = page.insert(&[1u8; 3000]).unwrap();
        let b = page.insert(&[2u8; 3000]).unwrap();
        page.delete(a);
        let live_before = page.live_count();
        // Growing b requires compaction (contiguous space is fragmented).
        assert!(page.update(b, &[3u8; 5000]));
        assert_eq!(page.live_count(), live_before);
        assert_eq!(page.get(b), Some(&[3u8; 5000][..]));
    }

    #[test]
    fn update_too_large_fails_and_preserves_tuple() {
        let mut buf = fresh();
        let mut page = SlottedPage::new(&mut buf[..]);
        let filler = page.insert(&[5u8; 4000]).unwrap();
        let s = page.insert(&[6u8; 3000]).unwrap();
        assert!(!page.update(s, &[7u8; 5000]));
        assert_eq!(
            page.get(s),
            Some(&[6u8; 3000][..]),
            "failed update is a no-op"
        );
        assert_eq!(page.get(filler), Some(&[5u8; 4000][..]));
    }

    #[test]
    fn oversized_and_empty_inserts_rejected() {
        let mut buf = fresh();
        let mut page = SlottedPage::new(&mut buf[..]);
        assert!(page.insert(&[]).is_none());
        assert!(page.insert(&vec![0u8; MAX_TUPLE_BYTES + 1]).is_none());
        assert!(page.insert(&vec![1u8; MAX_TUPLE_BYTES]).is_some());
    }

    #[test]
    fn iter_yields_live_in_slot_order() {
        let mut buf = fresh();
        let mut page = SlottedPage::new(&mut buf[..]);
        let a = page.insert(b"a").unwrap();
        let b = page.insert(b"bb").unwrap();
        let c = page.insert(b"ccc").unwrap();
        page.delete(b);
        let view = PageView::new(&buf[..]);
        let got: Vec<_> = view.iter().collect();
        assert_eq!(got, vec![(a, &b"a"[..]), (c, &b"ccc"[..])]);
    }

    #[test]
    fn out_of_range_slot_ops() {
        let mut buf = fresh();
        let mut page = SlottedPage::new(&mut buf[..]);
        assert_eq!(page.get(SlotId(0)), None);
        assert!(!page.delete(SlotId(5)));
        assert!(!page.update(SlotId(5), b"x"));
    }

    #[test]
    fn init_resets_page() {
        let mut buf = fresh();
        let mut page = SlottedPage::new(&mut buf[..]);
        page.insert(b"data").unwrap();
        page.init();
        assert_eq!(page.live_count(), 0);
        assert_eq!(page.slot_count(), 0);
        assert!(page.fits(MAX_TUPLE_BYTES));
    }
}
