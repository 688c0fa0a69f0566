//! Byte-accurate memory governor shared by the buffer pool and the Index
//! Buffer Space.
//!
//! The paper bounds the Index Buffer with an entry count `L` (§IV) because
//! its prototype lived inside H2's heap. This crate accounts real bytes
//! instead: every memory-resident structure implements [`MemoryUsage`], and
//! one [`MemoryBudget`] books what the two resident components hold — page
//! frames ([`BudgetComponent::BufferPool`]) and index-buffer partitions
//! ([`BudgetComponent::IndexSpace`]).
//!
//! Only the Index Buffer Space is capped: its byte cap is what the paper's
//! `L` compiles down to, via [`entry_footprint`]-derived bytes, and
//! Algorithm 2 reads what is left of it as headroom. The buffer pool is
//! bounded by its frame count, not by the budget.
//!
//! Accounting is atomic, and the governor tracks a high-water mark of the
//! combined usage and a displacement count for `engine::metrics`.

// aib-lint: allow-file(no-index) — per-component counters are fixed-size
// arrays indexed by `BudgetComponent as usize`, a closed enum whose
// discriminants are the array's definition.

use crate::sync::{AtomicU64, AtomicUsize, Ordering};
use crate::value::Value;

/// Types that can report their resident memory footprint in bytes.
///
/// Footprints are *logical*: they count the bytes the structure holds on
/// behalf of the budget (entry payloads, page images), not allocator
/// overhead, so that accounting stays deterministic across platforms.
pub trait MemoryUsage {
    /// Resident bytes currently held by this structure.
    fn footprint(&self) -> usize;
}

/// Fixed per-entry bookkeeping bytes charged on top of the encoded value:
/// an 8-byte rid, an 8-byte next pointer, a 4-byte page id, a 2-byte slot,
/// and a 1-byte tag — the per-entry overhead of the in-memory index node.
pub const ENTRY_BASE_BYTES: usize = 23;

/// Footprint of one index-buffer entry holding `value`.
///
/// An `Int` entry is exactly [`DEFAULT_ENTRY_FOOTPRINT`] bytes, which makes
/// the paper's entry bound `L` translate losslessly into a byte budget for
/// integer key columns (all of the paper's evaluation columns are INTEGER).
pub fn entry_footprint(value: &Value) -> usize {
    ENTRY_BASE_BYTES + value.encoded_len()
}

/// Bytes assumed per entry when only an entry *count* is known: the exact
/// footprint of an integer entry (`ENTRY_BASE_BYTES + 9`).
pub const DEFAULT_ENTRY_FOOTPRINT: usize = ENTRY_BASE_BYTES + 9;

/// The two consumers sharing one [`MemoryBudget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetComponent {
    /// Buffer-pool page frames.
    BufferPool,
    /// Index Buffer Space partitions.
    IndexSpace,
}

const COMPONENTS: usize = 2;

impl BudgetComponent {
    fn idx(self) -> usize {
        match self {
            BudgetComponent::BufferPool => 0,
            BudgetComponent::IndexSpace => 1,
        }
    }
}

/// Shared byte budget with atomic charge/release accounting.
///
/// Owned by the engine and handed (via `Arc`) to both the buffer pool and
/// the Index Buffer Space. The pool charges a page image per occupied
/// frame; the space reconciles its partitions' footprint and reads its
/// [`headroom`](MemoryBudget::headroom) under its own cap.
///
/// # Atomics ordering audit
///
/// This is the written audit `aib-lint`'s `atomics-order` allowlist points
/// at (the Acquire/Release edges are also tabulated in DESIGN §7 and
/// model-checked by `aib-model`'s `budget_release_reconciles` protocol).
/// Two classes of atomics live here, with different ordering needs:
///
/// * **Accounting state** (`used`, `total`, `high_water`): every load that
///   feeds a decision (Algorithm 2's headroom) is `Acquire` and every
///   `compare_exchange_weak`/`fetch_add`/`swap` that publishes a new charge
///   is `AcqRel`. Racing charges and releases of one component serialise
///   on its slot, so none is lost. These sites must **never** be relaxed;
///   they are deliberately absent from the lint allowlist.
/// * **Telemetry** (`displacements`): a monotonic event tally read only by
///   [`snapshot`](MemoryBudget::snapshot) and the metrics accessors, for
///   reporting. It guards no decision and orders no other memory access,
///   so `Ordering::Relaxed` is sound — atomicity alone gives an exact
///   count, and a reader observing a slightly stale tally is
///   indistinguishable from having read a moment earlier. These are the
///   only `Relaxed` sites in this file, and the only ones the lint
///   allowlist admits (substring `displacements`).
#[derive(Debug)]
pub struct MemoryBudget {
    /// Cap on [`BudgetComponent::IndexSpace`], if any.
    space_limit: Option<usize>,
    used: [AtomicUsize; COMPONENTS],
    /// Combined charged bytes — kept as its own atomic (not the sum of
    /// `used`) so the high-water mark samples one consistent word.
    total: AtomicUsize,
    high_water: AtomicUsize,
    displacements: AtomicU64,
}

impl Default for MemoryBudget {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl MemoryBudget {
    /// A budget capping the Index Buffer Space at `space_limit` bytes
    /// (`None`: no cap). Usage of both components is tracked either way.
    pub fn new(space_limit: Option<usize>) -> Self {
        MemoryBudget {
            space_limit,
            used: [AtomicUsize::new(0), AtomicUsize::new(0)],
            total: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
            displacements: AtomicU64::new(0),
        }
    }

    /// A budget with no cap: usage is tracked, nothing is bounded.
    pub fn unlimited() -> Self {
        Self::new(None)
    }

    /// The Index Buffer Space's byte cap, if any.
    pub fn space_limit(&self) -> Option<usize> {
        self.space_limit
    }

    /// Bytes currently charged to `component`.
    pub fn used(&self, component: BudgetComponent) -> usize {
        self.used[component.idx()].load(Ordering::Acquire)
    }

    /// Combined bytes charged to both components.
    pub fn total_used(&self) -> usize {
        self.total.load(Ordering::Acquire)
    }

    /// Bytes the Index Buffer Space may still grow by before its cap
    /// (`usize::MAX` when uncapped).
    pub fn headroom(&self) -> usize {
        self.space_limit.map_or(usize::MAX, |limit| {
            limit.saturating_sub(self.used(BudgetComponent::IndexSpace))
        })
    }

    /// Charges `bytes` to `component`. Nothing is checked against the cap:
    /// the pool is bounded by its frame count, and the space selects only
    /// what its [`headroom`](MemoryBudget::headroom) admits.
    pub fn charge(&self, component: BudgetComponent, bytes: usize) {
        self.used[component.idx()].fetch_add(bytes, Ordering::AcqRel);
        self.total.fetch_add(bytes, Ordering::AcqRel);
        self.note_high_water();
    }

    /// Decrements `component`'s slot by `bytes`, saturating at zero;
    /// returns the bytes actually removed.
    #[cfg(not(model_seeded_bug = "budget_release_lost"))]
    fn release_slot(&self, component: BudgetComponent, bytes: usize) -> usize {
        let slot = &self.used[component.idx()];
        let mut cur = slot.load(Ordering::Acquire);
        loop {
            let new = cur.saturating_sub(bytes);
            match slot.compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return cur - new,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Seeded bug: load-then-store "release" — a charge or release landing
    /// between the two is silently overwritten (lost update), leaving the
    /// slot permanently inflated or deflated.
    #[cfg(model_seeded_bug = "budget_release_lost")]
    fn release_slot(&self, component: BudgetComponent, bytes: usize) -> usize {
        let slot = &self.used[component.idx()];
        let cur = slot.load(Ordering::Acquire);
        let new = cur.saturating_sub(bytes);
        slot.store(new, Ordering::Release);
        cur - new
    }

    /// Decrements the combined total by `bytes`, saturating at zero.
    fn release_total(&self, bytes: usize) {
        let mut cur = self.total.load(Ordering::Acquire);
        loop {
            let new = cur.saturating_sub(bytes);
            match self
                .total
                .compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Releases `bytes` previously charged to `component`,
    /// saturating at zero.
    pub fn release(&self, component: BudgetComponent, bytes: usize) {
        let freed = self.release_slot(component, bytes);
        self.release_total(freed);
    }

    /// Reconciles `component`'s charge with an externally computed
    /// footprint (components that mutate structures in place report their
    /// true [`MemoryUsage::footprint`] here after the fact).
    pub fn set_component_usage(&self, component: BudgetComponent, bytes: usize) {
        let prev = self.used[component.idx()].swap(bytes, Ordering::AcqRel);
        if bytes >= prev {
            self.total.fetch_add(bytes - prev, Ordering::AcqRel);
        } else {
            self.release_total(prev - bytes);
        }
        self.note_high_water();
    }

    /// Highest combined usage ever observed, in bytes.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Acquire)
    }

    /// Always 0: the budget denies nothing. Kept only because the frozen
    /// `e2e/` harness still reads it (ROADMAP item 1 deletes it); nothing
    /// else may use it.
    pub fn denials(&self) -> u64 {
        0
    }

    /// Displacements recorded so far (partition drops + frame evictions).
    pub fn displacements(&self) -> u64 {
        self.displacements.load(Ordering::Relaxed)
    }

    /// Counts `n` displacements performed to make room under this budget.
    pub fn record_displacements(&self, n: u64) {
        self.displacements.fetch_add(n, Ordering::Relaxed);
    }

    /// A point-in-time copy of every governor counter.
    pub fn snapshot(&self) -> BudgetSnapshot {
        BudgetSnapshot {
            buffer_pool_bytes: self.used(BudgetComponent::BufferPool),
            index_bytes: self.used(BudgetComponent::IndexSpace),
            high_water: self.high_water(),
            displacements: self.displacements(),
        }
    }

    fn note_high_water(&self) {
        let total = self.total_used();
        self.high_water.fetch_max(total, Ordering::AcqRel);
    }
}

/// Point-in-time governor counters, surfaced through `engine::metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BudgetSnapshot {
    /// Bytes resident in buffer-pool frames.
    pub buffer_pool_bytes: usize,
    /// Bytes resident in index-buffer partitions.
    pub index_bytes: usize,
    /// Highest combined usage observed.
    pub high_water: usize,
    /// Displacements performed.
    pub displacements: u64,
}

impl BudgetSnapshot {
    /// Combined resident bytes across both components.
    pub fn total_bytes(&self) -> usize {
        self.buffer_pool_bytes + self.index_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use BudgetComponent::{BufferPool, IndexSpace};

    #[test]
    fn unlimited_budget_accepts_everything() {
        let b = MemoryBudget::unlimited();
        assert_eq!(b.space_limit(), None);
        b.charge(BufferPool, usize::MAX / 2);
        b.charge(IndexSpace, 1_000);
        assert_eq!(b.total_used(), usize::MAX / 2 + 1_000);
        assert_eq!(b.headroom(), usize::MAX, "no cap to run into");
        assert_eq!(b.denials(), 0);
    }

    #[test]
    fn component_cap_denies_and_counts() {
        // The space's cap shrinks its headroom to nothing; Algorithm 2
        // selects nothing more until a release.
        let b = MemoryBudget::new(Some(100));
        assert_eq!(b.space_limit(), Some(100));
        b.charge(IndexSpace, 60);
        assert_eq!(b.headroom(), 40, "61..=100 leaves room for 40");
        b.charge(IndexSpace, 40);
        assert_eq!(b.used(IndexSpace), 100);
        assert_eq!(b.headroom(), 0);
        // Pool bytes do not count against the space's cap.
        b.charge(BufferPool, 1_000_000);
        assert_eq!(b.headroom(), 0);
        b.release(IndexSpace, 30);
        assert_eq!(b.headroom(), 30, "released bytes return as headroom");
    }

    #[test]
    fn release_saturates_and_reconcile_overwrites() {
        let b = MemoryBudget::unlimited();
        b.charge(IndexSpace, 10);
        b.release(IndexSpace, 25);
        assert_eq!(b.used(IndexSpace), 0);
        b.set_component_usage(IndexSpace, 77);
        assert_eq!(b.used(IndexSpace), 77);
    }

    #[test]
    fn high_water_tracks_combined_peak() {
        let b = MemoryBudget::unlimited();
        b.charge(BufferPool, 300);
        b.charge(IndexSpace, 200);
        b.release(BufferPool, 300);
        b.charge(IndexSpace, 50);
        assert_eq!(b.high_water(), 500);
        let snap = b.snapshot();
        assert_eq!(snap.buffer_pool_bytes, 0);
        assert_eq!(snap.index_bytes, 250);
        assert_eq!(snap.total_bytes(), 250);
        assert_eq!(snap.high_water, 500);
    }

    #[test]
    fn displacement_counter_accumulates() {
        let b = MemoryBudget::unlimited();
        b.record_displacements(2);
        b.record_displacements(3);
        assert_eq!(b.displacements(), 5);
        assert_eq!(b.snapshot().displacements, 5);
    }

    #[test]
    fn entry_footprint_is_exact_for_integers() {
        assert_eq!(entry_footprint(&Value::Int(42)), DEFAULT_ENTRY_FOOTPRINT);
        assert_eq!(entry_footprint(&Value::Null), ENTRY_BASE_BYTES + 1);
        assert_eq!(
            entry_footprint(&Value::from("ORD")),
            ENTRY_BASE_BYTES + 5 + 3
        );
    }
}
