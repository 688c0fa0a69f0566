//! The one read pipeline: **plan → sweep → adapt** (paper Algorithm 1).
//!
//! Every read query — through [`Database::execute`], a
//! [`crate::ClientHandle`], or the sequential reference
//! [`Database::execute_sequential`] — is answered by the same three stages,
//! and [`Database::explain`] prints the value the first stage returns:
//!
//! 1. **Plan** (`Database::plan_read`, read-only). Classifies the query
//!    once — partial-index hit, buffered sweep, or plain sweep; straddling
//!    range or not — and returns a `ReadPlan`. What used to be separate
//!    scan functions are *fields* of that value: where the page selection
//!    comes from ([`PlanSource`]), the sweep (`None` when no page needs
//!    visiting), and whether a range epilogue runs.
//! 2. **Sweep** (no engine lock, on the calling thread). Visits the pages
//!    the plan does not skip, collecting matches and *staging* the tuples
//!    Algorithm 1 line 16 would insert into the Index Buffer. There is one
//!    sweep: the plain table scan is the same call planned from an empty
//!    skip set and an empty selection, so a buffered scan and the baseline
//!    it is measured against differ only by the pages `C[p] = 0` skips and
//!    the entries line 16 inserts.
//! 3. **Adapt** (`adapt`). Staged pages reach the buffer before the query
//!    returns, under the space write lock, each page re-checked
//!    against the live `C[p]` so a page an overlapping scan already indexed
//!    is skipped. This module is the only place that knows that rule.
//!
//! The plan stage never mutates: a selection that *cannot* be made
//! read-only — Algorithm 2 might displace a partition or draw randomness,
//! or the caller already holds the space guard — is left out of the plan
//! (`Sweep::Buffered` with `planned: None`) and runs under the space
//! write lock as the sweep stage's first step.

use aib_core::{
    apply_staged, buffer_scan_rids, prepare_scan, prepare_scan_from_snapshot, scan_chunk, BufferId,
    BufferSummary, IndexBufferSpace, Predicate, ScanPrep, ScanStats, SharedSpace, SkipBitset,
    SnapshotCache, SpaceSnapshot, StagedPage,
};
use aib_index::CompiledCoverage;
use aib_storage::Rid;

use crate::db::{Database, Table};
use crate::error::EngineResult;
use crate::explain::Explanation;
use crate::query::{AccessPath, QueryResult};

/// Where a read plan's page selection (Algorithm 2) comes from. Chosen by
/// the planner from what it observes, never by configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanSource {
    /// Nothing to select: partial-index hits and plain scans.
    None,
    /// Planned read-only against the validated [`SpaceSnapshot`], no space
    /// lock held — including the fully-skippable case that visits no page.
    Snapshot,
    /// [`SharedSpace::plan_selection`] declined (displacement reachable,
    /// or a limited budget would admit pages) or the epoch guard tripped:
    /// Algorithm 2 runs under the space write lock.
    Locked,
    /// The caller holds the catalog write lock and the space guard: only
    /// the sequential reference [`Database::execute_sequential`]. Every
    /// other read, tuned point queries included, plans from the snapshot
    /// or under the space lock.
    Exclusive,
}

impl PlanSource {
    /// The tag `explain` prints.
    pub fn as_str(self) -> &'static str {
        match self {
            PlanSource::None => "none",
            PlanSource::Snapshot => "snapshot",
            PlanSource::Locked => "locked",
            PlanSource::Exclusive => "exclusive",
        }
    }
}

/// The page-visiting part of a [`ReadPlan`].
// One plan is built per query and moved straight into the sweep stage;
// boxing the planned variant measured ~4 % slower on the planned path (an
// allocation per query) and no faster on hits.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub(crate) enum Sweep {
    /// No page is visited: a partial-index hit, or a buffered miss whose
    /// every page the snapshot proves skippable with the buffer empty.
    None,
    /// Every page, no skipping, nothing staged: the column has no Index
    /// Buffer. The same sweep as `Buffered`, planned from an empty skip set
    /// and an empty selection.
    Plain(PlannedSweep),
    /// Algorithm 1 over `buffer`. `planned` is `None` when the selection
    /// must run under the space write lock.
    Buffered {
        /// The queried column's Index Buffer.
        buffer: BufferId,
        /// Everything the sweep needs, fixed at plan time.
        planned: Option<PlannedSweep>,
    },
}

/// A sweep whose pages are fixed before it starts.
#[derive(Debug)]
pub(crate) struct PlannedSweep {
    /// Skip/selection snapshots, compiled predicate, analytic stats.
    prep: ScanPrep,
    /// The Index Buffer's own matches (Algorithm 1 lines 8–10).
    buffer_rids: Vec<Rid>,
}

impl PlannedSweep {
    /// Plans a sweep of `t` read-only, with no space lock held: `skip` and
    /// `selection` are what the snapshot proves (both empty for a plain
    /// scan), `probe` the buffer's own matches.
    fn read_only(
        t: &Table,
        skip: &SkipBitset,
        selection: &[u32],
        probe: Vec<Rid>,
        predicate: &Predicate,
    ) -> Self {
        let mut buffer_rids = Vec::new();
        let prep = prepare_scan_from_snapshot(
            &t.heap,
            skip,
            selection,
            probe,
            predicate,
            &mut buffer_rids,
        );
        PlannedSweep { prep, buffer_rids }
    }
}

/// How one read query will execute: the value [`Database::plan_read`]
/// returns, the sweep and adapt stages consume, and `explain` prints.
#[derive(Debug)]
pub(crate) struct ReadPlan {
    /// The access path.
    pub path: AccessPath,
    /// Where the page selection comes from.
    pub source: PlanSource,
    /// A straddling range: after the sweep, the covered fraction is
    /// answered from the partial index and deduplicated against it.
    pub range_epilogue: bool,
    /// Heap pages at plan time.
    pub table_pages: u32,
    /// Whether the queried column has a partial index.
    indexed: bool,
    /// The column's Index Buffer, if any.
    buffer: Option<BufferId>,
    /// The partial-index probe's rids when the query is a hit.
    hit: Option<Vec<Rid>>,
    /// Which pages get visited, and how.
    sweep: Sweep,
}

impl ReadPlan {
    /// Pages the sweep fetches, the skippable runs it jumps and the batches
    /// of `batch_pages` it reads in, read off the buffer's snapshot
    /// `summary`. Pages past the tracked counter range read as unskippable,
    /// exactly as the sweep treats them.
    fn sweep_shape(&self, summary: Option<&BufferSummary>, batch_pages: u32) -> (u32, u32, u32) {
        match (&self.sweep, summary) {
            (Sweep::Plain(_), _) => (
                self.table_pages,
                0,
                self.table_pages.div_ceil(batch_pages.max(1)),
            ),
            (_, Some(summary)) if self.hit.is_none() => {
                let to_read = summary
                    .skip()
                    .runs(0..self.table_pages)
                    .filter(|(_, skippable)| !skippable)
                    .map(|(extent, _)| extent.end - extent.start)
                    .sum();
                let (skip_runs, batches) =
                    summary.skip().sweep_shape(self.table_pages, batch_pages);
                (to_read, skip_runs, batches)
            }
            _ => (0, 0, 0),
        }
    }

    /// The pre-execution sketch of this plan, with the page counts and
    /// buffer sizes of the `snapshot` it was planned from; `batch_pages` is
    /// the table's sweep batch ([`aib_storage::HeapFile::sweep_batch_pages`]).
    pub(crate) fn explain(&self, snapshot: &SpaceSnapshot, batch_pages: u32) -> Explanation {
        let summary = self.buffer.and_then(|b| snapshot.buffer(b));
        let (pages_to_read, skip_runs, cold_read_requests) = self.sweep_shape(summary, batch_pages);
        Explanation {
            path: self.path,
            plan: self.source,
            has_partial_index: self.indexed,
            has_buffer: self.buffer.is_some(),
            table_pages: self.table_pages,
            pages_to_read,
            pages_skippable: self.table_pages - pages_to_read,
            skip_runs,
            cold_read_requests,
            known_cardinality: self.hit.as_ref().map(Vec::len),
            buffer_entries: summary.map_or(0, BufferSummary::entries),
            buffer_bytes: summary.map_or(0, BufferSummary::footprint),
        }
    }
}

/// Simulated page reads charged per in-memory partial-index probe: the
/// descent of a three-level tree.
const INDEX_PROBE_PAGES: u64 = 3;

/// How the sweep and adapt stages reach the Index Buffer Space.
pub(crate) enum SpaceAccess<'a> {
    /// A client sharing the space: Table II is deferred through the
    /// client's [`SnapshotCache`], the space lock is taken per stage.
    Shared(&'a mut SnapshotCache),
    /// The caller holds the space write guard.
    Held(&'a mut IndexBufferSpace),
}

impl SpaceAccess<'_> {
    /// Table II: every query adjusts every buffer's history. Shared
    /// clients defer the events locally (drained, in deferral order, by
    /// the next write-side entry into the space); a guard holder applies
    /// them directly.
    fn on_query(&mut self, queried: Option<BufferId>, hit: bool) {
        match self {
            SpaceAccess::Shared(cache) => cache.record(queried, hit),
            SpaceAccess::Held(space) => space.on_query(queried, hit),
        }
    }

    /// Runs `f` on the space write-locked. A shared client first flushes
    /// its deferred Table II events, so the lock's entry drain applies them
    /// before any history is read.
    fn with_space<R>(
        &mut self,
        space: &SharedSpace,
        f: impl FnOnce(&mut IndexBufferSpace) -> R,
    ) -> R {
        match self {
            SpaceAccess::Shared(cache) => {
                cache.flush();
                f(&mut space.write())
            }
            SpaceAccess::Held(space) => f(space),
        }
    }
}

/// The adapt stage — the one rule for when staged insertions reach the
/// buffer: **before the query returns**, under the space write lock,
/// each page validated against the live `C[p]` ([`apply_staged`]),
/// then the governor reconciled. A sweep that
/// staged nothing takes no lock and leaves published snapshots valid.
fn adapt(
    access: &mut SpaceAccess<'_>,
    space: &SharedSpace,
    buffer: BufferId,
    staged: Vec<StagedPage>,
    stats: &mut ScanStats,
) {
    if staged.is_empty() {
        return;
    }
    access.with_space(space, |space| {
        space.with_buffer_mut(buffer, |buffer, counters| {
            apply_staged(buffer, counters, staged, stats);
        });
        space.sync_budget();
    });
}

impl Database {
    /// The plan stage: classifies `predicate` against column `ci` of `t`
    /// once and says how the query will run. Read-only — `explain` calls
    /// it without executing anything.
    ///
    /// `snapshot` is the validated space snapshot, or `None` when the
    /// caller holds the space guard (the [`PlanSource::Exclusive`] run of
    /// `execute_sequential` — the snapshot cannot be consulted from inside
    /// the write section, and the locked selection does not need it).
    ///
    /// A buffered miss is planned from the snapshot whenever that is
    /// provably equivalent to planning under the lock:
    /// * every page skippable and the buffer empty → no sweep at all; this
    ///   case allocates nothing here (no bitset resize, no predicate
    ///   compile);
    /// * [`SharedSpace::plan_selection`] accepts → selection, buffer probe
    ///   and sweep plan are fixed here. An empty buffer needs no probe; a
    ///   non-empty one is probed under the space *read* latch with the
    ///   epoch re-checked — a match proves the live buffer is exactly
    ///   the snapshot's. The planned prepare never reads histories, so the
    ///   query's own Table II events may stay deferred.
    ///
    /// Otherwise the plan fails closed: the selection is left to the
    /// write-locked first step of the sweep stage.
    pub(crate) fn plan_read(
        &self,
        t: &Table,
        ci: usize,
        predicate: &Predicate,
        snapshot: Option<&SpaceSnapshot>,
    ) -> ReadPlan {
        let table_pages = t.heap.num_pages();
        let mut plan = ReadPlan {
            path: AccessPath::PlainScan,
            source: PlanSource::None,
            range_epilogue: false,
            table_pages,
            indexed: false,
            buffer: None,
            hit: None,
            sweep: Sweep::None,
        };
        if let Some(ic) = t.index_on(ci) {
            plan.indexed = true;
            plan.buffer = ic.buffer;
            // The one hit-vs-miss decision. A range is a hit only if
            // coverage is complete over it.
            plan.hit = match predicate {
                Predicate::Equals(v) => ic.partial.covers(v).then(|| ic.partial.lookup(v)),
                Predicate::Between(lo, hi) => ic.partial.lookup_range(lo, hi),
            };
            if plan.hit.is_some() {
                plan.path = AccessPath::PartialIndex;
                return plan;
            }
        }
        let Some(bid) = plan.buffer else {
            plan.sweep = Sweep::Plain(PlannedSweep::read_only(
                t,
                &SkipBitset::default(),
                &[],
                Vec::new(),
                predicate,
            ));
            return plan;
        };
        plan.path = AccessPath::BufferedScan;
        plan.range_epilogue = matches!(predicate, Predicate::Between(..));
        let buffered = |planned| Sweep::Buffered {
            buffer: bid,
            planned,
        };
        let Some(snapshot) = snapshot else {
            (plan.source, plan.sweep) = (PlanSource::Exclusive, buffered(None));
            return plan;
        };
        let summary = snapshot.buffer(bid);
        (plan.source, plan.sweep) = if summary.is_some_and(|b| b.fully_skippable(table_pages)) {
            (PlanSource::Snapshot, Sweep::None)
        } else {
            match summary.and_then(|b| self.plan_sweep(t, bid, predicate, snapshot, b)) {
                Some(planned) => (PlanSource::Snapshot, buffered(Some(planned))),
                None => (PlanSource::Locked, buffered(None)),
            }
        };
        plan
    }

    /// Plans a partially-skippable buffered sweep read-only, or declines.
    fn plan_sweep(
        &self,
        t: &Table,
        bid: BufferId,
        predicate: &Predicate,
        snapshot: &SpaceSnapshot,
        summary: &BufferSummary,
    ) -> Option<PlannedSweep> {
        let selection = self.space.plan_selection(snapshot, bid)?;
        let probe = if summary.entries() == 0 {
            Vec::new()
        } else {
            let space = self.space.read();
            if space.epoch() != snapshot.epoch() {
                // Something mutated the space since the snapshot; the
                // bitset/selection may be stale. Fail closed.
                return None;
            }
            buffer_scan_rids(space.buffer(bid), predicate)
        };
        Some(PlannedSweep::read_only(
            t,
            summary.skip(),
            &selection,
            probe,
            predicate,
        ))
    }

    /// The sweep and adapt stages: executes `plan` and returns the result
    /// with the scan's instrumentation (`None` for hits and plain scans).
    ///
    /// The caller holds the catalog lock throughout, so the heap and the
    /// coverage predicate cannot change mid-query; the sweep itself runs
    /// with no Index Buffer Space lock held by this function.
    pub(crate) fn run_read(
        &self,
        t: &Table,
        ci: usize,
        predicate: &Predicate,
        plan: ReadPlan,
        mut access: SpaceAccess<'_>,
    ) -> EngineResult<(QueryResult, Option<ScanStats>)> {
        let path = plan.path;
        let done = |rids| QueryResult { rids, path };
        let ic = t.index_on(ci);
        if ic.is_some() {
            // Only a column with a partial index is a query Table II sees.
            access.on_query(plan.buffer, plan.hit.is_some());
        }
        if let Some(rids) = plan.hit {
            self.charge_index_probe();
            // Materialise results: the paper's "index scan" baseline
            // includes fetching the qualifying tuples from their pages.
            for &rid in &rids {
                t.heap.get(rid)?;
            }
            return Ok((done(rids), None));
        }

        // The one sweep: the buffer's own matches, then every page the
        // plan does not skip; staged pages are returned for `adapt`.
        let sweep = |planned: PlannedSweep| {
            let ScanPrep {
                mut stats,
                plan: pages,
            } = planned.prep;
            let mut rids = planned.buffer_rids;
            // Compiled once per sweep, and only when it stages a page: a
            // plain sweep, or one whose selection is empty, never asks.
            let covered = match ic {
                Some(ic) if pages.to_index.count() > 0 => ic.partial.coverage().compile(),
                _ => CompiledCoverage::None,
            };
            let chunk = scan_chunk(&t.heap, 0..pages.num_pages, &pages, ci, &covered)?;
            stats.pages_read = chunk.pages_read;
            stats.pages_skipped = chunk.pages_skipped;
            rids.extend(chunk.matches);
            EngineResult::Ok((stats, rids, chunk.staged))
        };

        let (mut stats, mut rids) = match plan.sweep {
            Sweep::Plain(planned) => return Ok((done(sweep(planned)?.1), None)),
            // No page to visit and no buffer entry to match: the same
            // stats a sweep of this state reports — zero reads, one skip
            // run covering the whole heap.
            Sweep::None => (
                ScanStats {
                    pages_skipped: plan.table_pages,
                    skip_runs: u32::from(plan.table_pages > 0),
                    ..ScanStats::default()
                },
                Vec::new(),
            ),
            Sweep::Buffered { buffer, planned } => {
                let planned = planned.unwrap_or_else(|| {
                    // Algorithm 2 — the scan's single RNG draw — then the
                    // buffer probe and the counter/selection snapshots,
                    // all under the space write lock.
                    let mut buffer_rids = Vec::new();
                    access.with_space(&self.space, |space| PlannedSweep {
                        prep: prepare_scan(&t.heap, space, buffer, predicate, &mut buffer_rids),
                        buffer_rids,
                    })
                });
                let (mut stats, rids, staged) = sweep(planned)?;
                adapt(&mut access, &self.space, buffer, staged, &mut stats);
                (stats, rids)
            }
        };
        stats.matches = rids.len();

        if let (true, Some(ic), Predicate::Between(lo, hi)) = (plan.range_epilogue, ic, predicate) {
            // A straddling range also matches *covered* tuples, which live
            // in pages the sweep may have skipped — answer that fraction
            // from the partial index and deduplicate against scanned pages.
            self.charge_index_probe();
            rids.extend(ic.partial.entries_in(lo, hi));
            rids.sort_unstable();
            rids.dedup();
        }
        Ok((done(rids), Some(stats)))
    }

    /// Charges the simulated tree descent of one partial-index probe
    /// (in-memory partial indexes stand in for disk-resident ones; see
    /// DESIGN.md §4).
    fn charge_index_probe(&self) {
        self.stats
            .record_reads(INDEX_PROBE_PAGES, self.config.cost_model.read_us);
    }
}
