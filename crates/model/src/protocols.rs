//! Distilled models of engine protocols that live above the `aib_core`
//! layer (WAL commit ordering, the group-commit handoff, the checkpoint
//! cut).
//!
//! The snapshot, deferred-drain, and budget protocols are model-checked
//! directly against the production code in `aib-core`/`aib-storage`
//! (compiled onto the instrumented shim under `cfg(aib_model)`). The WAL
//! and group-commit protocols involve disk I/O and the whole engine stack,
//! so the model checks these distilled skeletons instead: each mirrors the
//! exact lock/atomic structure of the engine's commit path with the I/O
//! replaced by counters, and DESIGN §7 cross-links each skeleton to the
//! production code lines it stands in for.
//!
//! Each skeleton carries a seeded-bug arm under `cfg(model_seeded_bug =
//! "...")` — a deliberately wrong variant the checker must catch, proving
//! the model is not vacuous.

use crate::sync::{AtomicU64, Mutex, Ordering};

/// Skeleton of the WAL commit protocol: `Database` applies a mutation in
/// memory and appends the corresponding WAL record under one durability
/// critical section, so any observer holding the durability lock (the
/// checkpointer, recovery) sees `logged >= applied` — write-ahead in the
/// literal sense: no applied mutation can be missing from the log.
///
/// Seeded bug `wal_unlocked_log` moves the append outside the critical
/// section (apply publishes, log lags), which lets a checkpoint observe an
/// applied-but-unlogged mutation — exactly the crash-window bug a WAL
/// exists to prevent.
#[derive(Debug, Default)]
pub struct WalModel {
    /// Records appended to the log.
    logged: AtomicU64,
    /// Mutations applied to the in-memory space.
    applied: AtomicU64,
    /// The durability lock (`Database::durability` in the engine).
    durability: Mutex<()>,
}

impl WalModel {
    /// An empty WAL model.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// One committed mutation: append the WAL record, then apply, both
    /// under the durability lock.
    pub fn commit(&self) {
        #[cfg(not(model_seeded_bug = "wal_unlocked_log"))]
        {
            let _durability = self.durability.lock();
            self.logged.fetch_add(1, Ordering::AcqRel);
            self.applied.fetch_add(1, Ordering::AcqRel);
        }
        #[cfg(model_seeded_bug = "wal_unlocked_log")]
        {
            // WRONG: the apply is published inside the critical section but
            // the log append happens after it is released, so a checkpoint
            // can run in between and see applied > logged.
            {
                let _durability = self.durability.lock();
                self.applied.fetch_add(1, Ordering::AcqRel);
            }
            self.logged.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// A checkpoint-style observation under the durability lock; returns
    /// `(logged, applied)`.
    #[must_use]
    pub fn checkpoint(&self) -> (u64, u64) {
        let _durability = self.durability.lock();
        let logged = self.logged.load(Ordering::Acquire);
        let applied = self.applied.load(Ordering::Acquire);
        (logged, applied)
    }
}

/// Skeleton of the group-commit leader/follower handoff
/// (`crates/engine/src/commit.rs`): writers stage a frame (ticket) and then
/// wait; a follower whose ticket is already covered acks off the published
/// atomic watermark without touching the WAL mutex (the lock-free fast
/// path that lets covered writers stage their next commit while a leader
/// lingers), while the first waiter to find its ticket not yet durable
/// takes the mutex and becomes the leader: it "fsyncs" the staged batch
/// (modeled as an atomic the mutex does not guard — bytes on the platter)
/// and only then publishes the durable watermark. The protocol's
/// happens-before obligation: whichever path a follower acks on, the
/// covering fsync must already have landed — `fsynced >= ticket`.
///
/// Seeded bug `commit_ack_before_fsync` publishes the watermark first and
/// fsyncs after releasing the mutex, so a follower can ack a commit whose
/// bytes are still in flight — the silent-data-loss bug group commit must
/// never introduce.
#[derive(Debug, Default)]
pub struct CommitQueueModel {
    /// Highest ticket staged on the commit queue.
    staged: AtomicU64,
    /// Highest ticket covered by a completed fsync. Deliberately *not*
    /// guarded by the WAL mutex: it models the platter, which the OS
    /// mutates during `sync_data`, not the leader's bookkeeping.
    fsynced: AtomicU64,
    /// The published durable watermark — the lock-free ack gate
    /// (`CommitPipeline::clean_durable`).
    durable: AtomicU64,
    /// The WAL mutex guarding the leader's bookkeeping (`WalState`).
    wal: Mutex<u64>,
}

impl CommitQueueModel {
    /// An empty commit-queue model.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Stages one frame, returning its ticket.
    pub fn stage(&self) -> u64 {
        self.staged.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Waits until `ticket` is durable, leading the batch if this thread
    /// finds it undone. Returns the fsync watermark observed **at ack
    /// time** — the checked invariant is `ack >= ticket`.
    pub fn wait_durable(&self, ticket: u64) -> u64 {
        loop {
            // Lock-free ack fast path: a covered follower never takes the
            // WAL mutex (mirrors `CommitPipeline::wait_durable`).
            if self.durable.load(Ordering::Acquire) >= ticket {
                return self.fsynced.load(Ordering::Acquire);
            }
            let mut durable_seq = self.wal.lock();
            if *durable_seq >= ticket {
                // Ack: the follower returns to its caller here.
                return self.fsynced.load(Ordering::Acquire);
            }
            // Leader turn: drain everything staged, fsync it, publish.
            let batch_end = self.staged.load(Ordering::Acquire);
            #[cfg(not(model_seeded_bug = "commit_ack_before_fsync"))]
            {
                // The fsync completes before either watermark moves; the
                // atomic store (and the mutex release) is the follower's
                // wake-up.
                self.fsynced.store(batch_end, Ordering::Release);
                *durable_seq = batch_end;
                self.durable.store(batch_end, Ordering::Release);
            }
            #[cfg(model_seeded_bug = "commit_ack_before_fsync")]
            {
                // WRONG: the watermarks move (and the mutex wakes
                // followers) while the fsync is still in flight — a
                // follower can ack with fsynced < ticket.
                *durable_seq = batch_end;
                self.durable.store(batch_end, Ordering::Release);
                drop(durable_seq);
                self.fsynced.store(batch_end, Ordering::Release);
            }
        }
    }
}

/// Skeleton of the checkpoint capture/cut protocol against concurrent
/// `stage` + `lead` (`checkpoint_core` in `crates/engine/src/db.rs`,
/// `CommitPipeline::{stage, lead, flush, mark_cut, rotate}`). Frames are
/// bits. A writer applies its mutation to the pool and stages its frame
/// under the catalog lock, then leads — appends whatever is staged, its own
/// frame or another writer's, to the log, and to the in-memory tail if a cut
/// is pending — with no engine lock.
/// The checkpointer, under the catalog lock, drains the queue, captures the
/// heap image (every mutation applied so far) and marks the cut; off the
/// lock it flushes that image and rotates the log into the tail.
///
/// Two obligations. **No frame is missing from both** the frozen heap image
/// and the rotated log: the drain, the capture and the cut are one critical
/// section against appliers. **WAL before data**: when the flush of the
/// frozen image starts, every mutation in it is already in the log.
///
/// Seeded bug `checkpoint_cut_before_drain` marks the cut (and captures)
/// before the queue is drained, leaving the drain for later: the flush
/// starts over a mutation whose frame is still only staged — a crash there
/// leaves it in the heap file and in no log. Seeded bug
/// `checkpoint_cut_after_unlock` marks the cut after releasing the catalog
/// lock: a commit that slips in between is too late for the image and too
/// early for the tail, and the rotation drops it.
#[derive(Debug, Default)]
pub struct CheckpointCutModel {
    /// The catalog write lock, over the mutations applied to pool pages.
    catalog: Mutex<u64>,
    /// The commit queue: frames staged, not yet appended.
    queue: Mutex<u64>,
    /// The WAL mutex: the live log, and the tail kept since a pending cut.
    wal: Mutex<(u64, Option<u64>)>,
}

/// What one [`CheckpointCutModel::checkpoint`] froze and saw.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointCut {
    /// Mutations in the heap image the checkpoint flushed.
    pub frozen: u64,
    /// Frames in the log when that flush started.
    pub logged_at_flush: u64,
}

impl CheckpointCutModel {
    /// An empty model.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies the mutation of `frame` (a single bit) and stages the frame,
    /// under the catalog lock.
    pub fn stage(&self, frame: u64) {
        let mut applied = self.catalog.lock();
        *applied |= frame;
        *self.queue.lock() |= frame;
    }

    /// A leader turn, off every engine lock: append what is staged to the
    /// log — and to the tail, if a cut is pending.
    pub fn lead(&self) {
        let mut wal = self.wal.lock();
        let staged = std::mem::take(&mut *self.queue.lock());
        wal.0 |= staged;
        if let Some(tail) = &mut wal.1 {
            *tail |= staged;
        }
    }

    fn mark_cut(&self) {
        self.wal.lock().1 = Some(0);
    }

    /// One checkpoint: capture, flush, rotate.
    #[must_use]
    pub fn checkpoint(&self) -> CheckpointCut {
        #[cfg(not(any(
            model_seeded_bug = "checkpoint_cut_before_drain",
            model_seeded_bug = "checkpoint_cut_after_unlock"
        )))]
        let frozen = {
            let applied = self.catalog.lock();
            self.lead(); // the drain: nothing can be staged behind it
            self.mark_cut();
            *applied
        };
        #[cfg(model_seeded_bug = "checkpoint_cut_before_drain")]
        let frozen = {
            // WRONG: image and cut are taken with frames still staged; the
            // drain trails behind (below), after the flush has begun.
            let applied = self.catalog.lock();
            self.mark_cut();
            *applied
        };
        #[cfg(model_seeded_bug = "checkpoint_cut_after_unlock")]
        let frozen = {
            let frozen = {
                let applied = self.catalog.lock();
                self.lead();
                *applied
            };
            // WRONG: a commit can apply, stage and lead right here.
            self.mark_cut();
            frozen
        };
        // The flush of the frozen image starts: what does the log hold?
        let logged_at_flush = self.wal.lock().0;
        #[cfg(model_seeded_bug = "checkpoint_cut_before_drain")]
        self.lead();
        // Rotation: the new log is the snapshot of the cut plus the tail.
        let mut wal = self.wal.lock();
        wal.0 = wal.1.take().unwrap_or(0);
        CheckpointCut {
            frozen,
            logged_at_flush,
        }
    }

    /// The frames in the live log.
    #[must_use]
    pub fn log(&self) -> u64 {
        self.wal.lock().0
    }
}
