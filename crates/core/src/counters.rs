//! Per-page counters of unindexed tuples — the paper's `C[p]`.
//!
//! Paper §III: "the Index Buffer maintains a counter `C[p]` for each page p
//! that represents the number of unindexed tuples in the page. ... Every
//! counter is initially set to the number of tuples in the page minus the
//! tuples covered by the partial index." A page with `C[p] == 0` is fully
//! indexed (by the partial index, the Index Buffer, or both) and can be
//! skipped by a table scan.

use std::fmt;

/// A counter-bookkeeping violation detected at mutation time.
///
/// Surfaced as an `Err` when the `invariant-checks` feature is on; without
/// the feature the same condition is a `debug_assert!` (and a saturating
/// no-op in release builds), so production behaviour is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterError {
    /// `C[p]--` was requested while `C[p] == 0`: Table I maintenance and the
    /// heap have diverged.
    Underflow {
        /// The page whose counter would have gone negative.
        page: u32,
    },
}

impl fmt::Display for CounterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CounterError::Underflow { page } => {
                write!(
                    f,
                    "C[{page}]-- on zero counter (maintenance diverged from heap)"
                )
            }
        }
    }
}

impl std::error::Error for CounterError {}

/// A dense bitset over page ordinals, one u64 word per 64 pages.
///
/// [`PageCounters`] maintains one incrementally (bit set ⇔ page tracked and
/// `C[p] == 0`), so "which pages can the scan skip" is answered by word-level
/// bit operations instead of an O(pages) rebuild per scan, and contiguous
/// skippable/unskipped extents come out of [`SkipBitset::runs`] ready to feed
/// the heap's batched sweep read. Scans also build one for their `to_index`
/// page set, replacing the old per-scan `Vec<bool>` snapshots.
///
/// Invariant: every bit at an index `>= len` is zero, so word scans never
/// see phantom set bits and pages past the tracked range read as unskippable
/// (matching [`PageCounters::is_fully_indexed`]'s untracked-page rule).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SkipBitset {
    words: Vec<u64>,
    len: u32,
    set_count: u32,
}

impl SkipBitset {
    /// An all-clear bitset over `len` pages.
    pub fn with_len(len: u32) -> Self {
        SkipBitset {
            words: vec![0; (len as usize).div_ceil(64)],
            len,
            set_count: 0,
        }
    }

    /// Number of pages covered.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True when no pages are covered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set (skippable) pages — maintained incrementally, O(1).
    pub fn count(&self) -> u32 {
        self.set_count
    }

    /// True when `page`'s bit is set. Pages past `len` read as clear.
    #[inline]
    pub fn contains(&self, page: u32) -> bool {
        self.words
            .get((page / 64) as usize)
            .is_some_and(|w| page < self.len && w & (1u64 << (page % 64)) != 0)
    }

    /// Sets `page`'s bit. No-op past `len` or when already set.
    pub fn insert(&mut self, page: u32) {
        if page >= self.len {
            return;
        }
        if let Some(w) = self.words.get_mut((page / 64) as usize) {
            let bit = 1u64 << (page % 64);
            if *w & bit == 0 {
                *w |= bit;
                self.set_count += 1;
            }
        }
    }

    /// Clears `page`'s bit. No-op past `len` or when already clear.
    pub fn remove(&mut self, page: u32) {
        if page >= self.len {
            return;
        }
        if let Some(w) = self.words.get_mut((page / 64) as usize) {
            let bit = 1u64 << (page % 64);
            if *w & bit != 0 {
                *w &= !bit;
                self.set_count -= 1;
            }
        }
    }

    /// Extends the bitset to `new_len` pages, with the grown pages' bits all
    /// `set` or all clear. Shrinking is not supported (no-op).
    pub fn grow(&mut self, new_len: u32, set: bool) {
        if new_len <= self.len {
            return;
        }
        let old_len = self.len;
        self.words.resize((new_len as usize).div_ceil(64), 0);
        self.len = new_len;
        if set {
            for page in old_len..new_len {
                self.insert(page);
            }
        }
    }

    /// A copy resized to exactly `new_len` pages: kept bits are preserved,
    /// grown pages read as clear (unskippable — they are untracked), and
    /// truncated bits are dropped. This is the per-scan snapshot: the heap's
    /// page count at scan start fixes `new_len`.
    pub fn resized(&self, new_len: u32) -> SkipBitset {
        let mut words = self.words.clone();
        words.resize((new_len as usize).div_ceil(64), 0);
        if !new_len.is_multiple_of(64) {
            if let Some(w) = words.last_mut() {
                *w &= (1u64 << (new_len % 64)) - 1;
            }
        }
        let set_count = words.iter().map(|w| w.count_ones()).sum();
        SkipBitset {
            words,
            len: new_len,
            set_count,
        }
    }

    /// First index in `[from, to)` whose bit differs from `val`, or `to`.
    /// Word-at-a-time: a whole u64 of equal bits costs one comparison.
    fn next_boundary(&self, from: u32, to: u32, val: bool) -> u32 {
        let mut wi = (from / 64) as usize;
        let mut mask = !0u64 << (from % 64);
        while (wi as u64) * 64 < u64::from(to) {
            let word = self.words.get(wi).copied().unwrap_or(0);
            let x = (if val { !word } else { word }) & mask;
            if x != 0 {
                let cand = wi as u32 * 64 + x.trailing_zeros();
                return cand.min(to);
            }
            wi += 1;
            mask = !0;
        }
        to
    }

    /// Maximal runs of equal skippability covering `range`, in order:
    /// `(extent, skippable)` pairs alternate and tile the range exactly.
    /// Bits past `len` read as clear, so out-of-range extents come out
    /// unskippable. This is the shape [`aib_storage::HeapFile`]'s
    /// `sweep_read_runs` consumes.
    pub fn runs(&self, range: std::ops::Range<u32>) -> SkipRuns<'_> {
        SkipRuns {
            bits: self,
            at: range.start.min(range.end),
            end: range.end,
        }
    }

    /// Analytic sweep shape over `0..num_pages` when reads are issued in
    /// groups of `batch` pages: `(skip_runs, sweep_batches)` — the number of
    /// contiguous skippable extents a sweep jumps over whole, and the number
    /// of batched reads it issues for everything else. Shared by the locked
    /// and the snapshot-planned prepare so their stats cannot drift.
    pub fn sweep_shape(&self, num_pages: u32, batch: u32) -> (u32, u32) {
        let batch = batch.max(1);
        let mut skip_runs = 0u32;
        let mut sweep_batches = 0u32;
        for (extent, skippable) in self.runs(0..num_pages) {
            if skippable {
                skip_runs += 1;
            } else {
                sweep_batches += (extent.end - extent.start).div_ceil(batch);
            }
        }
        (skip_runs, sweep_batches)
    }
}

/// Iterator over `(extent, skippable)` runs of a [`SkipBitset`]; see
/// [`SkipBitset::runs`].
#[derive(Debug)]
pub struct SkipRuns<'a> {
    bits: &'a SkipBitset,
    at: u32,
    end: u32,
}

impl Iterator for SkipRuns<'_> {
    type Item = (std::ops::Range<u32>, bool);

    fn next(&mut self) -> Option<Self::Item> {
        if self.at >= self.end {
            return None;
        }
        let val = self.bits.contains(self.at);
        let split = self.bits.next_boundary(self.at, self.end, val);
        let run = self.at..split;
        self.at = split;
        Some((run, val))
    }
}

/// The counter array `C` for one (table, column) pair, with a maintained
/// [`SkipBitset`] mirroring `C[p] == 0` so scans read skippability as runs.
#[derive(Debug, Clone, Default)]
pub struct PageCounters {
    c: Vec<u32>,
    skip: SkipBitset,
}

impl PageCounters {
    /// Builds counters from per-page unindexed-tuple counts (creation-time
    /// initialisation, paper §III).
    pub fn from_counts(counts: Vec<u32>) -> Self {
        let mut skip = SkipBitset::with_len(counts.len() as u32);
        for (page, &c) in counts.iter().enumerate() {
            if c == 0 {
                skip.insert(page as u32);
            }
        }
        PageCounters { c: counts, skip }
    }

    /// An empty counter array (pages are appended as the table grows).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tracked pages.
    pub fn num_pages(&self) -> u32 {
        self.c.len() as u32
    }

    /// `C[p]`. Pages beyond the tracked range read as 0.
    #[inline]
    pub fn get(&self, page: u32) -> u32 {
        self.c.get(page as usize).copied().unwrap_or(0)
    }

    /// True when the page can be skipped during a table scan.
    ///
    /// Only *tracked* pages are ever skippable: an untracked page past the
    /// `ensure_page` range has no accounting behind its implicit zero, and a
    /// page wrongly marked skippable loses tuples with no error. Reading it
    /// conservatively costs at most one page scan; the scan then indexes it
    /// and `set_zero` brings it into the tracked range.
    #[inline]
    pub fn is_fully_indexed(&self, page: u32) -> bool {
        self.skip.contains(page)
    }

    /// Ensures page `page` is tracked, growing the array with zeroes.
    /// Grown pages are skippable (their tracked counter is zero), exactly as
    /// before the bitset existed.
    pub fn ensure_page(&mut self, page: u32) {
        if page as usize >= self.c.len() {
            self.c.resize(page as usize + 1, 0);
            self.skip.grow(page + 1, true);
        }
    }

    /// `C[p] ← 0` — the page was completed by the Index Buffer (Algorithm 1
    /// line 17). Returns the previous value (the number of entries the
    /// buffer now holds for this page).
    pub fn set_zero(&mut self, page: u32) -> u32 {
        self.ensure_page(page);
        self.skip.insert(page);
        self.c
            .get_mut(page as usize)
            .map(std::mem::take)
            .unwrap_or(0)
    }

    /// Restores `C[p] = n` when buffer entries for the page are discarded
    /// (partition drop).
    pub fn restore(&mut self, page: u32, n: u32) {
        self.ensure_page(page);
        if let Some(slot) = self.c.get_mut(page as usize) {
            *slot = n;
            if n == 0 {
                self.skip.insert(page);
            } else {
                self.skip.remove(page);
            }
        }
    }

    /// `C[p]++` — an unindexed tuple landed in an unbuffered page
    /// (Table I maintenance).
    pub fn increment(&mut self, page: u32) {
        self.ensure_page(page);
        if let Some(slot) = self.c.get_mut(page as usize) {
            *slot += 1;
            self.skip.remove(page);
        }
    }

    /// `C[p]--` — an unindexed tuple left an unbuffered page (Table I
    /// maintenance).
    ///
    /// An underflow (`C[p]` already zero) means maintenance bookkeeping
    /// diverged from the heap. With the `invariant-checks` feature it is
    /// returned as [`CounterError::Underflow`]; without it, debug builds
    /// assert and release builds saturate (unchanged production behaviour).
    pub fn decrement(&mut self, page: u32) -> Result<(), CounterError> {
        self.ensure_page(page);
        let Some(slot) = self.c.get_mut(page as usize) else {
            // Unreachable after ensure_page; report rather than panic.
            return Err(CounterError::Underflow { page });
        };
        if *slot == 0 {
            #[cfg(feature = "invariant-checks")]
            return Err(CounterError::Underflow { page });
            #[cfg(not(feature = "invariant-checks"))]
            {
                debug_assert!(false, "C[{page}]-- on zero counter");
                return Ok(());
            }
        }
        *slot -= 1;
        if *slot == 0 {
            self.skip.insert(page);
        }
        Ok(())
    }

    /// Pages with `C[p] > 0` together with their counters, sorted ascending
    /// by counter — the page-selection order of Algorithm 2 ("adds pages in
    /// ascending order of their counter C": cheapest completions first).
    pub fn pages_by_ascending_counter(&self) -> Vec<(u32, u32)> {
        self.cheapest_pages(usize::MAX)
    }

    /// The first `k` entries of [`pages_by_ascending_counter`] — all that
    /// Algorithm 2 ever reads, since a selection holds at most `I^MAX`
    /// pages — without sorting the rest: a `select_nth_unstable` cuts the
    /// `k` smallest `(C[p], p)` pairs, and only that prefix is sorted. The
    /// keys are unique (one per page), so the result is the prefix a full
    /// sort would give.
    ///
    /// [`pages_by_ascending_counter`]: Self::pages_by_ascending_counter
    pub fn cheapest_pages(&self, k: usize) -> Vec<(u32, u32)> {
        let mut pages: Vec<(u32, u32)> = self
            .c
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(p, &c)| (p as u32, c))
            .collect();
        if k < pages.len() {
            pages.select_nth_unstable_by_key(k, |&(p, c)| (c, p));
            pages.truncate(k);
        }
        pages.sort_unstable_by_key(|&(p, c)| (c, p));
        pages
    }

    /// Number of fully indexed (skippable) pages — O(1) off the maintained
    /// bitset's running count.
    pub fn fully_indexed_pages(&self) -> u32 {
        self.skip.count()
    }

    /// Sum of all counters: unindexed tuples across the table.
    pub fn total_unindexed(&self) -> u64 {
        self.c.iter().map(|&c| c as u64).sum()
    }

    /// A point-in-time skippability snapshot sized to exactly `num_pages`
    /// (the heap's page count at scan start): tracked zero-counter pages are
    /// set, everything else — including pages the counters do not track —
    /// is clear.
    pub fn skip_snapshot(&self, num_pages: u32) -> SkipBitset {
        self.skip.resized(num_pages)
    }

    /// Shadow check: the maintained bitset must mirror `C[p] == 0` exactly
    /// (same length, same per-page skippability, consistent running count).
    /// Called from the `invariant-checks` shadow model and the proptests.
    pub fn check_bitset(&self) -> Result<(), String> {
        if self.skip.len() != self.c.len() as u32 {
            return Err(format!(
                "skip bitset covers {} pages, counters track {}",
                self.skip.len(),
                self.c.len()
            ));
        }
        let mut zeros = 0;
        for (page, &c) in self.c.iter().enumerate() {
            let bit = self.skip.contains(page as u32);
            if bit != (c == 0) {
                return Err(format!(
                    "skip bit for page {page} is {bit} but C[{page}] = {c}"
                ));
            }
            if c == 0 {
                zeros += 1;
            }
        }
        if self.skip.count() != zeros {
            return Err(format!(
                "skip bitset count {} != {zeros} zero counters",
                self.skip.count()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_from_counts() {
        let c = PageCounters::from_counts(vec![3, 0, 5]);
        assert_eq!(c.num_pages(), 3);
        assert_eq!(c.get(0), 3);
        assert!(c.is_fully_indexed(1));
        assert!(!c.is_fully_indexed(2));
        assert_eq!(c.get(99), 0, "untracked pages read as zero");
        assert_eq!(c.total_unindexed(), 8);
        assert_eq!(c.fully_indexed_pages(), 1);
    }

    #[test]
    fn set_zero_returns_previous() {
        let mut c = PageCounters::from_counts(vec![7]);
        assert_eq!(c.set_zero(0), 7);
        assert!(c.is_fully_indexed(0));
        assert_eq!(c.set_zero(0), 0, "idempotent");
    }

    #[test]
    fn restore_after_drop() {
        let mut c = PageCounters::from_counts(vec![4]);
        let n = c.set_zero(0);
        c.restore(0, n);
        assert_eq!(c.get(0), 4);
    }

    #[test]
    fn increment_decrement() {
        let mut c = PageCounters::new();
        c.increment(2); // grows the array
        assert_eq!(c.num_pages(), 3);
        assert_eq!(c.get(2), 1);
        c.increment(2);
        c.decrement(2).unwrap();
        assert_eq!(c.get(2), 1);
    }

    #[test]
    #[should_panic(expected = "on zero counter")]
    #[cfg(all(debug_assertions, not(feature = "invariant-checks")))]
    fn decrement_below_zero_panics_in_debug() {
        let mut c = PageCounters::from_counts(vec![0]);
        let _ = c.decrement(0);
    }

    #[test]
    #[cfg(feature = "invariant-checks")]
    fn decrement_below_zero_is_a_counter_error() {
        let mut c = PageCounters::from_counts(vec![0]);
        assert_eq!(c.decrement(0), Err(CounterError::Underflow { page: 0 }));
    }

    #[test]
    fn untracked_page_is_never_skippable() {
        // A page past the `ensure_page` range has no accounting behind its
        // implicit zero: it must be scanned, not skipped. (`get` still reads
        // zero — the *value* is defined; only the skip decision is guarded.)
        let c = PageCounters::from_counts(vec![0, 3]);
        assert!(c.is_fully_indexed(0), "tracked zero page is skippable");
        assert!(!c.is_fully_indexed(1));
        assert_eq!(c.get(99), 0, "untracked pages still read as zero");
        assert!(
            !c.is_fully_indexed(99),
            "untracked page must never be reported skippable"
        );
    }

    #[test]
    fn ascending_counter_order() {
        let c = PageCounters::from_counts(vec![5, 0, 1, 3, 1]);
        let pages = c.pages_by_ascending_counter();
        assert_eq!(pages, vec![(2, 1), (4, 1), (3, 3), (0, 5)]);
    }

    #[test]
    fn cheapest_pages_is_the_ascending_order_prefix() {
        // Ties on C[p] across the cut, zero pages, k past the end.
        let mut x: u64 = 0x2545F4914F6CDD1D;
        let counts: Vec<u32> = (0..500)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 6) as u32
            })
            .collect();
        let c = PageCounters::from_counts(counts);
        let all = c.pages_by_ascending_counter();
        for k in [
            0,
            1,
            2,
            37,
            81,
            82,
            83,
            all.len() - 1,
            all.len(),
            all.len() + 5,
        ] {
            let want = &all[..k.min(all.len())];
            assert_eq!(c.cheapest_pages(k), want, "k = {k}");
        }
        assert!(PageCounters::from_counts(vec![0, 0])
            .cheapest_pages(3)
            .is_empty());
    }

    #[test]
    fn bitset_tracks_every_mutation() {
        let mut c = PageCounters::from_counts(vec![3, 0, 5]);
        c.check_bitset().unwrap();
        c.set_zero(0);
        c.check_bitset().unwrap();
        assert!(c.is_fully_indexed(0));
        c.increment(1); // 0 -> 1: page 1 stops being skippable
        c.check_bitset().unwrap();
        assert!(!c.is_fully_indexed(1));
        c.decrement(1).unwrap(); // 1 -> 0: skippable again
        c.check_bitset().unwrap();
        assert!(c.is_fully_indexed(1));
        c.restore(0, 3);
        c.check_bitset().unwrap();
        assert!(!c.is_fully_indexed(0));
        c.restore(2, 0);
        c.check_bitset().unwrap();
        assert!(c.is_fully_indexed(2));
        c.increment(70); // grows across a word boundary; grown pages skippable
        c.check_bitset().unwrap();
        assert!(c.is_fully_indexed(42));
        assert!(!c.is_fully_indexed(70));
        assert_eq!(c.fully_indexed_pages(), 70 - 1);
    }

    #[test]
    fn skip_snapshot_sizes_to_the_heap() {
        let c = PageCounters::from_counts(vec![0, 2, 0]);
        // Heap larger than the tracked range: extra pages are unskippable.
        let snap = c.skip_snapshot(5);
        assert_eq!(snap.len(), 5);
        assert!(snap.contains(0) && snap.contains(2));
        assert!(!snap.contains(1) && !snap.contains(3) && !snap.contains(4));
        assert_eq!(snap.count(), 2);
        // Heap smaller: truncated bits drop out of the count.
        let snap = c.skip_snapshot(1);
        assert_eq!((snap.len(), snap.count()), (1, 1));
        assert!(!snap.contains(2));
    }

    #[test]
    fn runs_tile_the_range_and_alternate() {
        let mut b = SkipBitset::with_len(200);
        for p in (0..200).filter(|p| (64..130).contains(p) || *p >= 197) {
            b.insert(p);
        }
        let runs: Vec<_> = b.runs(0..200).collect();
        assert_eq!(
            runs,
            vec![
                (0..64, false),
                (64..130, true),
                (130..197, false),
                (197..200, true),
            ]
        );
        // Sub-range queries clip the same structure.
        assert_eq!(
            b.runs(60..70).collect::<Vec<_>>(),
            vec![(60..64, false), (64..70, true),]
        );
        // Past-len bits read clear: the run beyond len is unskippable.
        assert_eq!(
            b.runs(198..210).collect::<Vec<_>>(),
            vec![(198..200, true), (200..210, false),]
        );
        assert_eq!(b.runs(7..7).count(), 0);
    }

    #[test]
    fn runs_on_uniform_bitsets() {
        let empty = SkipBitset::with_len(100);
        assert_eq!(
            empty.runs(0..100).collect::<Vec<_>>(),
            vec![(0..100, false)]
        );
        let mut full = SkipBitset::with_len(100);
        for p in 0..100 {
            full.insert(p);
        }
        assert_eq!(full.runs(0..100).collect::<Vec<_>>(), vec![(0..100, true)]);
        assert_eq!(full.count(), 100);
        let zero = SkipBitset::with_len(0);
        assert!(zero.is_empty());
        assert_eq!(zero.runs(0..0).count(), 0);
    }

    #[test]
    fn sweep_shape_counts_runs_and_batches() {
        let mut b = SkipBitset::with_len(200);
        for p in (0..200).filter(|p| (64..130).contains(p) || *p >= 197) {
            b.insert(p);
        }
        // Runs: 0..64 unskippable, 64..130 skip, 130..197 unskippable,
        // 197..200 skip. With batch 10: ceil(64/10) + ceil(67/10) = 7 + 7.
        assert_eq!(b.sweep_shape(200, 10), (2, 14));
        // Scanning past len pads an unskippable tail into the last batch run.
        assert_eq!(b.sweep_shape(210, 10), (2, 7 + 7 + 1));
        // Batch 0 is clamped to 1 (one read per page).
        assert_eq!(b.sweep_shape(200, 0), (2, 64 + 67));
        let empty = SkipBitset::with_len(0);
        assert_eq!(empty.sweep_shape(0, 8), (0, 0));
    }
}
