//! Model checks for the eight load-bearing concurrency protocols of the
//! Adaptive Index Buffer (ISSUE PR 8, tentpole item 3).
//!
//! This file only compiles under `--cfg aib_model`, where `aib-storage` and
//! `aib-core` route every atomic and lock through the instrumented
//! `aib_model` runtime. The companion `tests/harness.rs` (compiled *without*
//! the cfg) re-invokes cargo with the cfg set — once clean, expecting every
//! test here to pass under exhaustive bounded exploration, and once per
//! seeded bug (`--cfg model_seeded_bug="..."`), expecting at least one test
//! here to report a violation with a replayable schedule.
//!
//! Each test is one closed concurrent program small enough to explore
//! exhaustively yet faithful to the real call graph: the threads call the
//! *production* entry points (`write`, `space_snapshot`, `defer`,
//! `try_reserve`, ...), not re-implementations.
#![cfg(aib_model)]

use std::sync::Arc;

use aib_core::{BufferConfig, SharedSpace, SpaceConfig};
use aib_model::protocols::{CheckpointCutModel, CommitQueueModel, WalModel};
use aib_model::sync::{AtomicU64, Ordering};
use aib_model::{thread, Model};
use aib_storage::{BudgetComponent, MemoryBudget};

/// Protocol 1 — snapshot validation vs a concurrent `with_buffer_mut`-class
/// writer. The epoch sentinel parked by `write` must fail validation
/// *closed*: once the writer's mutation is observable anywhere (here via a
/// `Release`-published mirror flag), no reader may still be served the
/// pre-write snapshot.
///
/// Catches: `missing_sentinel` (reader validates the stale cached snapshot
/// while the writer is mid-critical-section).
#[test]
fn snapshot_validation_vs_writer() {
    Model::new("snapshot_validation_vs_writer").check(|| {
        let space = Arc::new(SharedSpace::new(SpaceConfig::default()));
        let b0 = space.register("b", BufferConfig::default(), vec![1; 2]);
        // Publish a valid pre-write snapshot for the writer to stale.
        let _ = space.space_snapshot();
        let mirror = Arc::new(AtomicU64::new(0));

        let writer = {
            let space = Arc::clone(&space);
            let mirror = Arc::clone(&mirror);
            thread::spawn(move || {
                let mut guard = space.write();
                guard.reset_counters(b0, vec![0; 2]);
                // Evidence the mutation happened, published from inside the
                // critical section: any reader that observes it must also
                // observe the parked sentinel (program-order-first in the
                // write window).
                mirror.store(1, Ordering::Release);
                drop(guard);
            })
        };

        let m = mirror.load(Ordering::Acquire);
        let snap = space.space_snapshot();
        if m == 1 {
            let buf = snap.buffer(b0).expect("buffer survives the write");
            assert!(
                buf.fully_skippable(2),
                "reader observed the write's mirror but was served a stale \
                 snapshot (validation did not fail closed)"
            );
        }
        writer.join();
    });
}

/// Protocol 2 — `generation` bump vs `add_buffer` (DDL). A reader that has
/// evidence the DDL completed must see the new buffer in its snapshot: the
/// roster generation is the DDL invalidation edge.
///
/// Catches: `stale_snapshot_cache` (any non-empty cached snapshot is served
/// without validation, hiding the registered buffer).
#[test]
fn generation_vs_add_buffer() {
    Model::new("generation_vs_add_buffer").check(|| {
        let space = Arc::new(SharedSpace::new(SpaceConfig::default()));
        let _b0 = space.register("b0", BufferConfig::default(), vec![1; 1]);
        let _ = space.space_snapshot();
        let added = Arc::new(AtomicU64::new(0));

        let ddl = {
            let space = Arc::clone(&space);
            let added = Arc::clone(&added);
            thread::spawn(move || {
                let _b1 = space.register("b1", BufferConfig::default(), vec![1; 1]);
                added.store(1, Ordering::Release);
            })
        };

        let a = added.load(Ordering::Acquire);
        let snap = space.space_snapshot();
        if a == 1 {
            assert_eq!(
                snap.buffers().count(),
                2,
                "DDL completed (mirror observed) but the snapshot still \
                 shows the pre-DDL roster"
            );
        }
        ddl.join();
    });
}

/// Protocol 3 — deferred-tick drain vs concurrent lock-free `defer`. Every
/// Table II event deferred from the fast path must be applied to the
/// history exactly once, however drains (space write windows) interleave
/// with defers.
///
/// Catches: `missing_drain` (events never applied) and `drain_load_store`
/// (a defer landing between the drain's load and store is lost).
#[test]
fn deferred_drain_vs_displacement() {
    Model::new("deferred_drain_vs_displacement").check(|| {
        let space = Arc::new(SharedSpace::new(SpaceConfig::default()));
        let b0 = space.register("b", BufferConfig::default(), vec![1; 1]);
        let c0 = space.read().buffer(b0).history().clock();
        let pend = Arc::clone(space.read().pending(b0));

        let fast_path = thread::spawn(move || {
            pend.defer(1, 0, 0);
            pend.defer(1, 0, 0);
        });
        let drainer = {
            let space = Arc::clone(&space);
            // A displacement-class write window: acquiring the space write
            // lock drains the pending cells into the history.
            thread::spawn(move || drop(space.write()))
        };

        fast_path.join();
        drainer.join();
        // Final drain picks up whatever the concurrent window left behind.
        drop(space.write());
        let clock = space.read().buffer(b0).history().clock();
        assert_eq!(
            clock,
            c0 + 2,
            "deferred ticks were lost or duplicated across a concurrent drain"
        );
    });
}

/// Protocol 4 — cross-component admission under the shared total. Two
/// components race 60-byte reservations against a 100-byte shared cap:
/// exactly one may win, and the loser must be counted and rolled back.
///
/// Catches: `budget_check_then_act` (both components read the pre-claim
/// total and both admit, jointly overshooting the cap).
#[test]
fn budget_cross_pressure() {
    Model::new("budget_cross_pressure").check(|| {
        let budget = Arc::new(MemoryBudget::with_total(100));
        let ra = Arc::new(AtomicU64::new(0));
        let rb = Arc::new(AtomicU64::new(0));

        let pool = {
            let budget = Arc::clone(&budget);
            let ra = Arc::clone(&ra);
            thread::spawn(move || {
                if budget.try_reserve(BudgetComponent::BufferPool, 60) {
                    ra.store(1, Ordering::Release);
                }
            })
        };
        let index = {
            let budget = Arc::clone(&budget);
            let rb = Arc::clone(&rb);
            thread::spawn(move || {
                if budget.try_reserve(BudgetComponent::IndexSpace, 60) {
                    rb.store(1, Ordering::Release);
                }
            })
        };
        pool.join();
        index.join();

        let admitted = ra.load(Ordering::Acquire) + rb.load(Ordering::Acquire);
        assert_eq!(admitted, 1, "exactly one 60B claim fits a 100B total");
        assert_eq!(budget.total_used(), 60);
        assert_eq!(budget.denials(), 1);
        assert!(
            budget.high_water() <= 100,
            "admitted usage overshot the cap"
        );
    });
}

/// Protocol 4b — charge/release accounting under concurrency. Two threads
/// each charge and release the same component; all accounting must return
/// to zero.
///
/// Catches: `budget_release_lost` (a load-then-store release overwrites a
/// concurrent charge or release, leaving the slot permanently skewed).
#[test]
fn budget_release_reconciles() {
    Model::new("budget_release_reconciles").check(|| {
        let budget = Arc::new(MemoryBudget::unlimited());
        let spawn_churn = |budget: &Arc<MemoryBudget>| {
            let budget = Arc::clone(budget);
            thread::spawn(move || {
                budget.charge(BudgetComponent::IndexSpace, 60);
                budget.release(BudgetComponent::IndexSpace, 60);
            })
        };
        let a = spawn_churn(&budget);
        let b = spawn_churn(&budget);
        a.join();
        b.join();
        assert_eq!(budget.used(BudgetComponent::IndexSpace), 0);
        assert_eq!(budget.total_used(), 0);
    });
}

/// Protocol 5 — WAL append happens-before apply. A checkpoint may never
/// observe more applied than logged commits; the durability lock is the
/// edge that orders `logged += 1` before `applied += 1` for each commit.
///
/// Catches: `wal_unlocked_log` (the log append escapes the lock, so a
/// checkpoint between a commit's apply and its log sees applied > logged).
#[test]
fn wal_append_happens_before_apply() {
    Model::new("wal_append_happens_before_apply").check(|| {
        let wal = Arc::new(WalModel::new());
        let committer = |wal: &Arc<WalModel>| {
            let wal = Arc::clone(wal);
            thread::spawn(move || wal.commit())
        };
        let a = committer(&wal);
        let b = committer(&wal);
        let (logged, applied) = wal.checkpoint();
        assert!(
            applied <= logged,
            "checkpoint observed applied={applied} > logged={logged}"
        );
        a.join();
        b.join();
        let (logged, applied) = wal.checkpoint();
        assert_eq!((logged, applied), (2, 2));
    });
}

/// Protocol 6 — group-commit handoff (PR 9): frame staged → leader fsync
/// → follower ack, in that happens-before order. Two writers stage and
/// wait; whichever becomes leader fsyncs the staged batch before
/// publishing the durable watermark, so at every ack the fsync watermark
/// already covers the acked ticket.
///
/// Catches: `commit_ack_before_fsync` (the watermark — and the mutex
/// release that wakes followers — precedes the fsync, so a follower acks
/// a commit whose bytes are still in flight).
#[test]
fn commit_ack_happens_after_covering_fsync() {
    Model::new("commit_ack_happens_after_covering_fsync").check(|| {
        let queue = Arc::new(CommitQueueModel::new());
        let writer = |queue: &Arc<CommitQueueModel>| {
            let queue = Arc::clone(queue);
            thread::spawn(move || {
                let ticket = queue.stage();
                let fsynced_at_ack = queue.wait_durable(ticket);
                assert!(
                    fsynced_at_ack >= ticket,
                    "ticket {ticket} acked with fsync watermark {fsynced_at_ack} \
                     — commit acknowledged before its covering fsync"
                );
            })
        };
        let a = writer(&queue);
        let b = writer(&queue);
        a.join();
        b.join();
    });
}

/// Protocol 8 — the checkpoint cut against concurrent `stage` + `lead`
/// (ISSUE 21): the checkpointer drains the queue, captures the heap image
/// and marks the WAL cut in one catalog-lock critical section, then flushes
/// and rotates with no engine lock. One commit is staged and not yet led
/// when it starts (the frame the drain is there for; its writer leads late,
/// at the end); a second writer stages and leads concurrently — and may
/// drain the first one's frame with its own. Every frame must end up in the
/// frozen image or in the rotated log, and the flush may only start over
/// mutations whose frames are already logged.
///
/// Catches: `checkpoint_cut_before_drain` (the image holds a mutation whose
/// frame is still only staged when the flush starts — WAL before data) and
/// `checkpoint_cut_after_unlock` (a commit between the capture and the cut
/// is in neither the image nor the tail).
#[test]
fn checkpoint_cut_loses_no_frame() {
    Model::new("checkpoint_cut_loses_no_frame").check(|| {
        let engine = Arc::new(CheckpointCutModel::new());
        engine.stage(0b01);
        let writer = {
            let engine = Arc::clone(&engine);
            thread::spawn(move || {
                engine.stage(0b10);
                engine.lead();
            })
        };
        let cut = engine.checkpoint();
        assert_eq!(
            cut.frozen & !cut.logged_at_flush,
            0,
            "heap flush started over frames {:#b} that no log holds yet",
            cut.frozen & !cut.logged_at_flush
        );
        writer.join();
        engine.lead();
        let kept = cut.frozen | engine.log();
        assert_eq!(
            kept, 0b11,
            "a frame is missing from both the frozen image and the rotated log"
        );
    });
}
