//! The indexing table scan — paper Algorithm 1.
//!
//! A query whose predicate misses the partial index runs this scan. It:
//!
//! 1. asks the Index Buffer Space which pages to index (`SelectPagesForBuffer`,
//!    Algorithm 2 — displacement happens inside);
//! 2. scans the Index Buffer for matching tuples (lines 8–10);
//! 3. scans the table, skipping every page with `C[p] == 0` (line 11); on
//!    unskipped pages it evaluates the predicate (line 13–14), and for pages
//!    selected in step 1 it inserts all tuples not covered by the partial
//!    index into the buffer and zeroes the page's counter (lines 15–17).
//!
//! The scan is instrumented: the per-query series of the paper's Figures 6–9
//! (runtime, buffer entries, pages skipped) come straight out of
//! [`ScanStats`].
//!
//! # Fast path
//!
//! The table sweep is zero-copy on every page that is *not* being indexed by
//! this scan. The predicate is compiled once per scan into a
//! [`CompiledPredicate`]; its page-level driver
//! ([`CompiledPredicate::matches_page`]) walks the slot directory with
//! [`PageView::for_each_live`] and, for equality, compares the pre-encoded
//! query-key bytes against a same-length byte window at the column's offset
//! — in place, with no per-tuple `Value` allocation, no column decode, and
//! an inline byte loop instead of an out-of-line `memcmp` call (the call
//! overhead dominates at ~10-byte keys). Range predicates borrow the column
//! extent ([`Tuple::read_column_raw`]) and compare under value ordering.
//! Pages selected for indexing fall back to the decoding path, which the
//! buffer insert needs anyway; equivalence of the paths is proven by unit
//! tests here and by the `compiled_predicate_matches_decoded_values`
//! proptest.
//!
//! Page skipping is run-at-a-time: the maintained
//! [`SkipBitset`] in [`PageCounters`] yields alternating
//! (extent, skippable) runs, skippable runs are jumped whole (word-at-a-time
//! in the bitset, no per-page predicate), and each unskipped run is read
//! through [`HeapFile::sweep_read_runs`], which pins pages in batches — one
//! pool-bookkeeping pass and one batched disk request per batch rather than
//! one of each per page.
//!
//! # One sweep, split at the mutation boundary
//!
//! Algorithm 1's page loop exists once, in [`scan_chunk`], and it only
//! *reads*: it evaluates the predicate and stages the entries line 16 would
//! insert. Every scan is the same three steps around it:
//!
//! 1. **Prepare (sequential).** [`prepare_scan`] runs `SelectPagesForBuffer`
//!    (the space's single RNG draw per scan), appends the buffer's own
//!    matches to `out`, and fixes the [`ScanPlan`] snapshots.
//!    [`prepare_scan_from_snapshot`] builds the same value from a published
//!    snapshot with no lock held; both end in one shared tail.
//! 2. **Sweep (read-only, no lock).** [`scan_chunk`] over `0..num_pages`
//!    on the calling thread: matches come back in page order, pages to
//!    index come back *staged*.
//! 3. **Apply (sequential, ordered).** Matches append to `out`, and staged
//!    pages feed [`apply_staged`], which inserts into the buffer and zeroes
//!    `C[p]` in page order.
//!
//! [`indexing_scan`] is that composition. The split exists for concurrency
//! *between* queries, not inside one: an executor holds the space write lock
//! for steps 1 and 3 only, so other clients' sweeps overlap step 2.

use std::cmp::Ordering as CmpOrdering;
use std::ops::Range;

use aib_storage::{ColumnRef, HeapFile, PageId, PageView, Rid, StorageError, Tuple, Value};

use crate::counters::{PageCounters, SkipBitset};
use crate::index_buffer::{BufferId, IndexBuffer};
use crate::space::IndexBufferSpace;

/// Query predicate over a single column — the paper's `q`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// `column = value` (the paper's experiments are point queries).
    Equals(Value),
    /// `lo <= column <= hi` (range extension; works on B+-tree buffers).
    Between(Value, Value),
}

impl Predicate {
    /// Evaluates the predicate on a column value.
    #[inline]
    pub fn matches(&self, v: &Value) -> bool {
        match self {
            Predicate::Equals(q) => v == q,
            Predicate::Between(lo, hi) => lo <= v && v <= hi,
        }
    }
}

/// A [`Predicate`] compiled for the zero-copy sweep: evaluated against the
/// raw encoded column bytes of a stored tuple, without decoding a [`Value`].
///
/// Equality compares the pre-encoded query key against the column's raw
/// extent — valid for every value variant because the tuple encoding is
/// canonical (exactly one byte string per value), so raw-byte equality ⇔
/// `Value` equality. Ranges compare through the borrowing
/// [`ColumnView`](aib_storage::ColumnView), because little-endian integer
/// bytes do not memcmp in value order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompiledPredicate {
    /// `column = key` as a raw-byte comparison against the encoded key.
    Equals {
        /// The query value, pre-encoded once at compile time.
        key: Vec<u8>,
    },
    /// `lo <= column <= hi` through the decoded-view comparison.
    Between {
        /// Inclusive lower bound.
        lo: Value,
        /// Inclusive upper bound.
        hi: Value,
    },
}

impl CompiledPredicate {
    /// Compiles `predicate` — done once per scan, before the sweep starts.
    pub fn compile(predicate: &Predicate) -> Self {
        match predicate {
            Predicate::Equals(v) => {
                let mut key = Vec::with_capacity(v.encoded_len());
                v.encode(&mut key);
                CompiledPredicate::Equals { key }
            }
            Predicate::Between(lo, hi) => CompiledPredicate::Between {
                lo: lo.clone(),
                hi: hi.clone(),
            },
        }
    }

    /// Evaluates the predicate on a borrowed column. Equivalent to
    /// [`Predicate::matches`] on the decoded value, without the decode.
    #[inline]
    pub fn matches(&self, col: &ColumnRef<'_>) -> bool {
        match self {
            CompiledPredicate::Equals { key } => col.raw() == &key[..],
            CompiledPredicate::Between { lo, hi } => {
                col.cmp_value(lo) != CmpOrdering::Less && col.cmp_value(hi) != CmpOrdering::Greater
            }
        }
    }

    /// Evaluates the predicate straight off a stored tuple's encoded bytes —
    /// the per-tuple fast path. `Equals` compares the pre-encoded key against
    /// the column's byte window in place, with no decode at all; `Between`
    /// decodes a borrowed [`ColumnRef`] view. Structural corruption *before*
    /// the column errors on both arms; corruption inside the compared column
    /// reports as a non-match on the `Equals` arm (the window read does not
    /// decode it), matching [`Predicate::matches`] on every well-formed
    /// tuple.
    #[inline]
    pub fn matches_tuple(&self, bytes: &[u8], column: usize) -> Result<bool, StorageError> {
        match self {
            CompiledPredicate::Equals { key } => {
                Ok(Tuple::read_column_window(bytes, column, key.len())?
                    .is_some_and(|w| short_bytes_eq(w, key)))
            }
            CompiledPredicate::Between { .. } => {
                let col = Tuple::read_column_raw(bytes, column)?;
                Ok(self.matches(&col))
            }
        }
    }

    /// Pushes the rid of every matching live tuple on one page — the
    /// page-level fast path of the sweep. The predicate shape is
    /// dispatched once per page, not once per row; the `Equals` row loop is
    /// a slot-directory decode, a bounds-checked window read, and an inlined
    /// short byte compare, nothing else. Failure modes: the `Between` arm
    /// (and the decoding path on indexed pages) surface a corrupt tuple as
    /// [`StorageError::Corrupt`]; the `Equals` arm reports it as a
    /// non-match — its window read never decodes the tuple, which is exactly
    /// why it is fast. On well-formed pages all paths agree with
    /// [`Predicate::matches`] tuple for tuple.
    pub fn matches_page(
        &self,
        view: &PageView<'_>,
        page: PageId,
        column: usize,
        out: &mut Vec<Rid>,
    ) -> Result<(), StorageError> {
        match self {
            CompiledPredicate::Equals { key } => {
                if column == 0 {
                    // First column: the window starts right after the 2-byte
                    // arity header, so the row loop has no skip work at all.
                    view.for_each_live(|slot, bytes| {
                        let hit = bytes
                            .get(2..2 + key.len())
                            .is_some_and(|w| short_bytes_eq(w, key));
                        if hit {
                            out.push(Rid { page, slot });
                        }
                    });
                } else {
                    view.for_each_live(|slot, bytes| {
                        let mut pos = 2usize;
                        for _ in 0..column {
                            if Value::skip(bytes, &mut pos).is_err() {
                                return;
                            }
                        }
                        let hit = pos
                            .checked_add(key.len())
                            .and_then(|end| bytes.get(pos..end))
                            .is_some_and(|w| short_bytes_eq(w, key));
                        if hit {
                            out.push(Rid { page, slot });
                        }
                    });
                }
                Ok(())
            }
            CompiledPredicate::Between { .. } => {
                let mut err: Option<StorageError> = None;
                view.for_each_live(|slot, bytes| {
                    if err.is_some() {
                        return;
                    }
                    match Tuple::read_column_raw(bytes, column) {
                        Ok(col) => {
                            if self.matches(&col) {
                                out.push(Rid { page, slot });
                            }
                        }
                        Err(e) => err = Some(e),
                    }
                });
                err.map_or(Ok(()), Err)
            }
        }
    }
}

/// Byte equality that inlines for the short keys predicates compare —
/// dodges the out-of-line `memcmp` call a dynamic-length slice `==` lowers
/// to, which dominates per-row cost on the scan fast path.
#[inline]
fn short_bytes_eq(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x == y)
}

/// Instrumentation of one indexing scan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScanStats {
    /// Matching tuples found (buffer + table scan).
    pub matches: usize,
    /// Matches served from the Index Buffer scan.
    pub buffer_matches: usize,
    /// Table pages fetched.
    pub pages_read: u32,
    /// Table pages skipped thanks to `C[p] == 0`.
    pub pages_skipped: u32,
    /// Pages newly indexed into the buffer by this scan (`|I|` realised).
    pub pages_indexed: u32,
    /// Contiguous fully-indexed runs the sweep jumps whole, computed from
    /// the skip snapshot at prepare time.
    pub skip_runs: u32,
    /// Batched page-sweep requests the sweep issues for the unskipped runs
    /// (runs are read [`HeapFile::sweep_batch_pages`] pages per batch;
    /// batches never span a skip gap), computed from the skip snapshot at
    /// prepare time.
    pub sweep_batches: u32,
    /// Buffer entries added by this scan.
    pub entries_added: u64,
    /// Partitions displaced to make room.
    pub partitions_dropped: usize,
    /// Entries freed by displacement.
    pub entries_displaced: usize,
}

/// Immutable per-scan sweep plan: counter and selection snapshots taken
/// before any page is read, plus the predicate compiled once per scan. The
/// sweep never sees counter zeroing — its own or a concurrent scan's.
#[derive(Debug)]
pub struct ScanPlan {
    /// Snapshot of the `C[p] == 0` skip bitset, sized to the heap.
    pub skip: SkipBitset,
    /// Pages chosen by `SelectPagesForBuffer` (`I`), as a bitset.
    pub to_index: SkipBitset,
    /// The predicate, compiled once for the zero-copy path.
    pub compiled: CompiledPredicate,
    /// Heap size the snapshots were taken at.
    pub num_pages: u32,
}

/// The pre-sweep portion of Algorithm 1 — everything a scan does before
/// touching table pages.
///
/// Public because the staged-apply boundary is also the engine's
/// *concurrency* boundary: a multi-client executor runs [`prepare_scan`]
/// under its space write lock, the sweep ([`scan_chunk`]) with no space lock
/// at all, and the apply ([`apply_staged`]) under the write lock again.
#[derive(Debug)]
pub struct ScanPrep {
    /// Stats with selection, buffer-scan and analytic sweep fields filled.
    pub stats: ScanStats,
    /// The sweep plan handed to the page-visiting phase.
    pub plan: ScanPlan,
}

/// Runs lines 1–10 of Algorithm 1 plus sweep planning: page selection (with
/// displacement), the Index Buffer scan (matches appended to `out`), the
/// skip/to-index snapshots, predicate compilation, and the analytic
/// run/batch statistics.
pub fn prepare_scan(
    heap: &HeapFile,
    space: &mut IndexBufferSpace,
    buffer_id: BufferId,
    predicate: &Predicate,
    out: &mut Vec<Rid>,
) -> ScanPrep {
    // Line 7: I ← SelectPagesForBuffer() — with displacement as needed.
    let selection = space.select_pages_for_buffer(buffer_id);

    // Lines 8–10: Index Buffer scan. Read-only from here on: a prepare
    // that selects nothing (and displaces nothing) leaves the space's
    // mutation epoch untouched, so published snapshots stay valid across
    // fully-skippable queries.
    let buffer_rids = buffer_scan_rids(space.buffer(buffer_id), predicate);

    // Snapshot of the skip bitset; the sweep never sees mid-scan zeroing.
    let skip = space.counters(buffer_id).skip_snapshot(heap.num_pages());
    let mut prep = finish_prepare(heap, skip, &selection.pages, buffer_rids, predicate, out);
    prep.stats.partitions_dropped = selection.displaced.len();
    prep.stats.entries_displaced = selection.displaced.iter().map(|d| d.entries_freed).sum();
    prep
}

/// The snapshot-planned twin of [`prepare_scan`]: builds the same
/// [`ScanPrep`] from read-only inputs, with **no space lock held**.
///
/// The caller supplies what the locked prepare would have computed under
/// the space write lock: `selection` from `SharedSpace::plan_selection`
/// (which proves the locked selection would displace nothing and draw no
/// randomness), `skip` from the validated snapshot's
/// [`BufferSummary`](crate::shared::BufferSummary), and
/// `buffer_rids` from either an empty buffer (no probe at all) or an
/// epoch-guarded probe of the live buffer under the space *read* latch.
/// Displacement fields are structurally zero — a plan with displacement is
/// not plannable and never reaches here. An empty `skip` and an empty
/// `selection` plan the plain table scan: every page read, none indexed.
pub fn prepare_scan_from_snapshot(
    heap: &HeapFile,
    skip: &SkipBitset,
    selection: &[u32],
    buffer_rids: Vec<Rid>,
    predicate: &Predicate,
    out: &mut Vec<Rid>,
) -> ScanPrep {
    // The summary's bitset is sized to the tracked counter range; re-size
    // to the heap exactly like the locked path's `skip_snapshot(num_pages)`:
    // grown pages read unskippable either way.
    let skip = skip.resized(heap.num_pages());
    finish_prepare(heap, skip, selection, buffer_rids, predicate, out)
}

/// The tail both prepares share, so the two cannot drift: `skip` is already
/// sized to the heap; the selection becomes the to-index bitset, the
/// buffer's matches open `out`, and the sweep shape is derived from the
/// plan, not from execution.
fn finish_prepare(
    heap: &HeapFile,
    skip: SkipBitset,
    selection: &[u32],
    buffer_rids: Vec<Rid>,
    predicate: &Predicate,
    out: &mut Vec<Rid>,
) -> ScanPrep {
    let num_pages = skip.len();
    let mut to_index = SkipBitset::with_len(num_pages);
    for &p in selection {
        to_index.insert(p);
    }
    let (skip_runs, sweep_batches) = skip.sweep_shape(num_pages, heap.sweep_batch_pages() as u32);
    let stats = ScanStats {
        buffer_matches: buffer_rids.len(),
        skip_runs,
        sweep_batches,
        ..ScanStats::default()
    };
    out.extend(buffer_rids);
    ScanPrep {
        stats,
        plan: ScanPlan {
            skip,
            to_index,
            compiled: CompiledPredicate::compile(predicate),
            num_pages,
        },
    }
}

/// Runs Algorithm 1 for `buffer_id` over `heap`.
///
/// * `column` — position of the queried column in the stored tuples.
/// * `covered` — the partial-index membership test `t ∈ IX` (line 15).
/// * `predicate` — the query predicate `q`.
/// * `out` — receives the rids of matching tuples (the result set `Q`).
///
/// The caller is responsible for having applied Table II
/// ([`IndexBufferSpace::on_query`]) first; this function only performs the
/// scan itself: [`prepare_scan`], [`scan_chunk`] over the whole table, then
/// [`apply_staged`]. On error (I/O or tuple decode) **no** staged entry is
/// applied: the buffer and counters are left untouched.
pub fn indexing_scan(
    heap: &HeapFile,
    space: &mut IndexBufferSpace,
    buffer_id: BufferId,
    column: usize,
    covered: &dyn Fn(&Value) -> bool,
    predicate: &Predicate,
    out: &mut Vec<Rid>,
) -> Result<ScanStats, StorageError> {
    let ScanPrep { mut stats, plan } = prepare_scan(heap, space, buffer_id, predicate, out);

    // Lines 11–17, discover half.
    let chunk = scan_chunk(heap, 0..plan.num_pages, &plan, column, covered, predicate)?;
    stats.pages_read = chunk.pages_read;
    stats.pages_skipped = chunk.pages_skipped;
    out.extend(chunk.matches);

    // Lines 16–17, mutate half. Nothing staged means nothing to mutate —
    // skip the epoch-stamping borrow entirely so fully-skippable scans
    // leave published snapshots valid.
    if !chunk.staged.is_empty() {
        space.with_buffer_mut(buffer_id, |buffer, counters| {
            apply_staged(buffer, counters, chunk.staged, &mut stats);
        });
        // The apply mutated the buffer through a direct borrow; reconcile
        // the governor's IndexSpace charge with the new resident footprint.
        space.sync_budget();
    }
    stats.matches = out.len();
    Ok(stats)
}

/// Lines 8–10 of Algorithm 1: scan the Index Buffer itself for matches.
///
/// Public because the snapshot-planned path probes the live buffer under
/// the space *read* latch (epoch-guarded) and must produce exactly the rid
/// set the locked prepare would: the full sorted matching rid set.
pub fn buffer_scan_rids(buffer: &IndexBuffer, predicate: &Predicate) -> Vec<Rid> {
    match predicate {
        Predicate::Equals(v) => buffer.scan_point(v),
        Predicate::Between(lo, hi) => buffer.scan_range(lo, hi),
    }
}

/// Entries the sweep discovered on a single page, waiting to be applied to
/// the Index Buffer in page order.
#[derive(Debug)]
pub struct StagedPage {
    /// Page ordinal the entries came from (the `p` of `C[p]`).
    pub ordinal: u32,
    /// Uncovered tuples of that page, in slot order — exactly what
    /// Algorithm 1 line 16 would insert.
    pub entries: Vec<(Value, Rid)>,
}

/// Read-only result of sweeping a page range.
#[derive(Debug, Default)]
pub struct ChunkResult {
    /// Rids matching the predicate, in page-then-slot order.
    pub matches: Vec<Rid>,
    /// Pages staged for buffer insertion, in ascending page order.
    pub staged: Vec<StagedPage>,
    /// Pages fetched.
    pub pages_read: u32,
    /// Pages skipped (`C[p] == 0`).
    pub pages_skipped: u32,
}

/// Sweeps `range` of the table without touching the buffer or counters —
/// the one page-visiting loop of Algorithm 1. A query passes
/// `0..plan.num_pages`.
///
/// This is the "discover" half of the split algorithm: it evaluates the
/// predicate (lines 13–14) and *stages* the tuples line 16 would insert,
/// leaving all mutation to [`apply_staged`]. It touches only the heap and
/// the immutable [`ScanPlan`], never the space, so a concurrent executor
/// calls it *without* holding any engine lock, between a [`prepare_scan`]
/// and an [`apply_staged`] that do. Pages being indexed take the decoding
/// path (the buffer insert needs owned values anyway, and a corrupt tuple
/// surfaces as an error); every other page takes the zero-copy kernel.
pub fn scan_chunk(
    heap: &HeapFile,
    range: Range<u32>,
    plan: &ScanPlan,
    column: usize,
    covered: &dyn Fn(&Value) -> bool,
    predicate: &Predicate,
) -> Result<ChunkResult, StorageError> {
    let mut result = ChunkResult::default();
    let mut decode_error: Option<StorageError> = None;
    // Hoisted out of the page callback: a page that stages entries hands the
    // filled vec to its `StagedPage` (which must own them), while pages that
    // stage nothing keep reusing the same allocation.
    let mut pending: Vec<(Value, Rid)> = Vec::new();
    let (read, skipped) = heap.sweep_read_runs(plan.skip.runs(range), |ord, pid, view| {
        if decode_error.is_some() {
            return;
        }
        if plan.to_index.contains(ord) {
            for (slot, bytes) in view.iter() {
                let value = match Tuple::read_column(bytes, column) {
                    Ok(v) => v,
                    Err(e) => {
                        decode_error = Some(e);
                        return;
                    }
                };
                let rid = Rid { page: pid, slot };
                if predicate.matches(&value) {
                    result.matches.push(rid);
                }
                if !covered(&value) {
                    pending.push((value, rid));
                }
            }
            result.staged.push(StagedPage {
                ordinal: ord,
                entries: std::mem::take(&mut pending),
            });
        } else if let Err(e) = plan
            .compiled
            .matches_page(&view, pid, column, &mut result.matches)
        {
            decode_error = Some(e);
        }
    })?;
    if let Some(e) = decode_error {
        return Err(e);
    }
    result.pages_read = read;
    result.pages_skipped = skipped;
    Ok(result)
}

/// Applies staged pages to the buffer in ascending page order — the "mutate"
/// half of the split Algorithm 1 (lines 16–17). Returns the number of staged
/// pages skipped.
///
/// Ascending order makes partition composition (which pages share a
/// partition), and with it the displacement victim order downstream, a
/// function of the staged set alone.
///
/// Every staged page is validated against the *current* counters first: a
/// page whose `C[p]` has dropped to zero since the plan snapshot was indexed
/// by a concurrent scan in the meantime — with exactly the entries staged
/// here, because the heap and the coverage predicate are frozen for the
/// duration of a read query — so it is skipped instead of double-inserted
/// (the buffer treats a second indexing of a buffered page as a caller
/// bug). An uncontended scan skips nothing; only overlapping scans of the
/// same buffer ever diverge, and then only by not repeating work another
/// scan already completed.
///
/// The pages that pass enter the buffer in one
/// [`IndexBuffer::index_pages`] call — one sorted batch per partition
/// instead of one B+-tree descent per entry, which is what keeps this
/// section of the space write lock short.
pub fn apply_staged(
    buffer: &mut IndexBuffer,
    counters: &mut PageCounters,
    mut staged: Vec<StagedPage>,
    stats: &mut ScanStats,
) -> usize {
    staged.sort_by_key(|s| s.ordinal);
    let before = staged.len();
    // Check-then-zero per page, in order: a page staged twice fails its
    // second check exactly as it would page by page.
    staged.retain(|page| {
        let live = counters.get(page.ordinal) != 0;
        if live {
            counters.set_zero(page.ordinal);
        }
        live
    });
    stats.pages_indexed += staged.len() as u32;
    let skipped = before - staged.len();
    let pages = staged.into_iter().map(|s| (s.ordinal, s.entries)).collect();
    stats.entries_added += buffer.index_pages(pages) as u64;
    skipped
}

// ---- Vestigial names (ROADMAP item 6 drops them with their call sites) ----
//
// The frozen `e2e/` package calls these two; nothing in this workspace does.

/// Always 1: a query's sweep runs on the calling thread.
pub fn planned_scan_threads(_num_pages: u32, _requested: usize) -> usize {
    1
}

/// [`scan_chunk`] over `0..plan.num_pages`; `partition_pages` and `threads`
/// are ignored.
pub fn sweep_plan(
    heap: &HeapFile,
    plan: &ScanPlan,
    _partition_pages: u32,
    column: usize,
    covered: &dyn Fn(&Value) -> bool,
    predicate: &Predicate,
    _threads: usize,
) -> Result<ChunkResult, StorageError> {
    scan_chunk(heap, 0..plan.num_pages, plan, column, covered, predicate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BufferConfig, SpaceConfig};

    use aib_storage::{BufferPool, BufferPoolConfig, Column, CostModel, DiskManager, Schema};

    /// Builds a heap of two-column tuples (key, payload) with `n` keys
    /// `0..n`, plus a space with one buffer whose partial index covers keys
    /// `< covered_below`.
    fn setup(n: i64, covered_below: i64) -> (HeapFile, IndexBufferSpace, usize) {
        let pool = BufferPool::new(
            DiskManager::new(CostModel::free()),
            BufferPoolConfig::lru(16),
        );
        let heap = HeapFile::new(pool);
        let _schema = Schema::new(vec![Column::int("k"), Column::str("pad")]);
        for i in 0..n {
            let t = Tuple::new(vec![Value::Int(i), Value::from("x".repeat(200))]);
            heap.insert(&t.to_bytes()).unwrap();
        }
        // Initialise counters: tuples per page minus covered tuples.
        let mut counts = Vec::new();
        for ord in 0..heap.num_pages() {
            let mut uncovered = 0u32;
            for (_, bytes) in heap.read_page(ord).unwrap() {
                let v = Tuple::read_column(&bytes, 0).unwrap();
                if v.as_int().unwrap() >= covered_below {
                    uncovered += 1;
                }
            }
            counts.push(uncovered);
        }
        let mut space = IndexBufferSpace::new(SpaceConfig {
            i_max: 1_000_000,
            seed: 1,
            ..Default::default()
        });
        let id = space.register("k", BufferConfig::default(), counts);
        (heap, space, id)
    }

    fn covered_fn(covered_below: i64) -> impl Fn(&Value) -> bool {
        move |v: &Value| v.as_int().is_some_and(|i| i < covered_below)
    }

    #[test]
    fn first_scan_reads_everything_second_skips_everything() {
        let (heap, mut space, id) = setup(500, 0);
        let covered = covered_fn(0);
        space.on_query(Some(id), false);
        let mut out = Vec::new();
        let s1 = indexing_scan(
            &heap,
            &mut space,
            id,
            0,
            &covered,
            &Predicate::Equals(Value::Int(42)),
            &mut out,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(s1.pages_read, heap.num_pages());
        assert_eq!(s1.pages_skipped, 0);
        assert_eq!(s1.skip_runs, 0, "nothing skippable on a cold table");
        assert_eq!(
            s1.sweep_batches,
            heap.num_pages().div_ceil(heap.sweep_batch_pages() as u32),
            "one unskipped run, read in pool-sized batches"
        );
        assert_eq!(
            s1.pages_indexed,
            heap.num_pages(),
            "unlimited space indexes all pages"
        );
        assert_eq!(s1.entries_added, 500);
        assert_eq!(s1.buffer_matches, 0);

        space.on_query(Some(id), false);
        let mut out2 = Vec::new();
        let s2 = indexing_scan(
            &heap,
            &mut space,
            id,
            0,
            &covered,
            &Predicate::Equals(Value::Int(42)),
            &mut out2,
        )
        .unwrap();
        assert_eq!(out2, out, "same result from the buffer");
        assert_eq!(s2.pages_read, 0, "everything skipped");
        assert_eq!(s2.pages_skipped, heap.num_pages());
        assert_eq!(s2.skip_runs, 1, "the whole table is one skippable run");
        assert_eq!(s2.sweep_batches, 0, "no batched reads needed");
        assert_eq!(s2.buffer_matches, 1);
        space.check_invariants();
    }

    #[test]
    fn covered_tuples_are_not_buffered() {
        let (heap, mut space, id) = setup(300, 100);
        let covered = covered_fn(100);
        space.on_query(Some(id), false);
        let mut out = Vec::new();
        let s = indexing_scan(
            &heap,
            &mut space,
            id,
            0,
            &covered,
            &Predicate::Equals(Value::Int(250)),
            &mut out,
        )
        .unwrap();
        assert_eq!(
            s.entries_added, 200,
            "only the 200 uncovered tuples enter the buffer"
        );
        assert_eq!(space.buffer(id).num_entries(), 200);
    }

    #[test]
    fn results_identical_with_and_without_buffer() {
        let (heap, mut space, id) = setup(400, 50);
        let covered = covered_fn(50);
        let predicate = Predicate::Between(Value::Int(200), Value::Int(210));
        // Ground truth via a full sweep decoding every tuple.
        let mut expected = Vec::new();
        heap.sweep_read_runs([(0..heap.num_pages(), false)], |_, page, view| {
            for (slot, bytes) in view.iter() {
                let v = Tuple::read_column(bytes, 0).unwrap();
                if predicate.matches(&v) {
                    expected.push(Rid { page, slot });
                }
            }
        })
        .unwrap();
        expected.sort_unstable();

        for round in 0..3 {
            space.on_query(Some(id), false);
            let mut out = Vec::new();
            indexing_scan(&heap, &mut space, id, 0, &covered, &predicate, &mut out).unwrap();
            out.sort_unstable();
            assert_eq!(out, expected, "round {round}");
        }
    }

    #[test]
    fn imax_limits_pages_indexed_per_scan() {
        let (heap, space0, _) = setup(500, 0);
        // Re-register with a small I^MAX.
        let counts: Vec<u32> = (0..heap.num_pages())
            .map(|p| space0.counters(0).get(p))
            .collect();
        let mut space = IndexBufferSpace::new(SpaceConfig {
            i_max: 3,
            seed: 1,
            ..Default::default()
        });
        let id = space.register("k", BufferConfig::default(), counts);
        let covered = covered_fn(0);
        let total = heap.num_pages();
        let mut indexed_so_far = 0;
        let mut scans = 0;
        loop {
            space.on_query(Some(id), false);
            let mut out = Vec::new();
            let s = indexing_scan(
                &heap,
                &mut space,
                id,
                0,
                &covered,
                &Predicate::Equals(Value::Int(1)),
                &mut out,
            )
            .unwrap();
            assert!(s.pages_indexed <= 3, "I^MAX=3");
            assert_eq!(s.pages_skipped, indexed_so_far);
            indexed_so_far += s.pages_indexed;
            scans += 1;
            if indexed_so_far == total {
                break;
            }
            assert!(scans < 1000, "must converge");
        }
        assert_eq!(scans, total.div_ceil(3));
    }

    #[test]
    fn range_predicate_on_buffer() {
        let (heap, mut space, id) = setup(200, 0);
        let covered = covered_fn(0);
        space.on_query(Some(id), false);
        let mut out = Vec::new();
        indexing_scan(
            &heap,
            &mut space,
            id,
            0,
            &covered,
            &Predicate::Between(Value::Int(10), Value::Int(20)),
            &mut out,
        )
        .unwrap();
        assert_eq!(out.len(), 11);
        // Second scan: all from buffer.
        space.on_query(Some(id), false);
        let mut out2 = Vec::new();
        let s = indexing_scan(
            &heap,
            &mut space,
            id,
            0,
            &covered,
            &Predicate::Between(Value::Int(10), Value::Int(20)),
            &mut out2,
        )
        .unwrap();
        assert_eq!(s.buffer_matches, 11);
        assert_eq!(s.pages_read, 0);
        out.sort_unstable();
        out2.sort_unstable();
        assert_eq!(out, out2);
    }

    #[test]
    fn predicate_matching() {
        let eq = Predicate::Equals(Value::Int(5));
        assert!(eq.matches(&Value::Int(5)));
        assert!(!eq.matches(&Value::Int(6)));
        let between = Predicate::Between(Value::Int(1), Value::Int(3));
        assert!(between.matches(&Value::Int(1)));
        assert!(between.matches(&Value::Int(3)));
        assert!(!between.matches(&Value::Int(0)));
        assert!(!between.matches(&Value::Int(4)));
    }

    #[test]
    fn compiled_predicate_agrees_with_interpreted() {
        let values = [
            Value::Null,
            Value::Int(i64::MIN),
            Value::Int(-1),
            Value::Int(0),
            Value::Int(7),
            Value::Int(i64::MAX),
            Value::from(""),
            Value::from("abc"),
            Value::from("abd"),
        ];
        let mut predicates = Vec::new();
        for v in &values {
            predicates.push(Predicate::Equals(v.clone()));
        }
        for lo in &values {
            for hi in &values {
                predicates.push(Predicate::Between(lo.clone(), hi.clone()));
            }
        }
        for predicate in &predicates {
            let compiled = CompiledPredicate::compile(predicate);
            for v in &values {
                let tuple = Tuple::new(vec![Value::from("pad"), v.clone()]);
                let bytes = tuple.to_bytes();
                let col = Tuple::read_column_raw(&bytes, 1).unwrap();
                assert_eq!(
                    compiled.matches(&col),
                    predicate.matches(v),
                    "{predicate:?} on {v:?}"
                );
                assert_eq!(
                    compiled.matches_tuple(&bytes, 1).unwrap(),
                    predicate.matches(v),
                    "window path: {predicate:?} on {v:?}"
                );
            }
        }
    }
}
