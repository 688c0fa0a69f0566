//! Group-commit pipeline: the durable write path of a file-backed
//! [`crate::Database`] (ISSUE 9 tentpole).
//!
//! ### Leader/follower commit
//!
//! Concurrent writers **stage** their WAL records — framed and checksummed
//! on their own thread ([`WalRecord::frame_into`]), before any pipeline lock
//! — into a shared in-memory commit queue *while still holding the catalog
//! write lock* — that is what keeps log order equal to mutation order —
//! then release their engine locks and **wait** for the covering fsync. The
//! first waiter to take the WAL mutex and find its ticket not yet durable
//! becomes the **leader**: it takes the queue's buffer as it stands, writes
//! it with a single positional write + one `sync_data`
//! ([`Wal::append_frames`] — no re-framing, no copy), and publishes the new
//! durable watermark. A commit is acked (its `insert`/`delete`/`update` call
//! returns) **only after a covering fsync**, so the WAL-before-data
//! guarantee of PR 7 is unchanged; what changed is that one fsync now
//! covers every commit that queued up behind it.
//!
//! The handoff needs no condvar, and — crucially — followers never
//! *block on* the WAL mutex. The leader publishes the clean durable
//! watermark in an atomic *after* the covering fsync; a waiter polls that
//! watermark, and only `try_lock`s the mutex to lead a batch itself. A
//! covered follower therefore acks and goes on to stage its next commit
//! while the current leader is still inside `sync_data`, and an uncovered
//! one snoozes off-mutex (bounded yield, then a timed park) until its
//! batch is decided. That is what lets batches form even on a machine with
//! fewer cores than writers: if acking — or waking a parked waiter —
//! required the mutex, a leader inside its fsync would hold every other
//! writer hostage and batches would never exceed one frame. The
//! fsync-before-publish obligation is the model-checked protocol
//! (`aib_model::protocols::CommitQueueModel`, protocol 7).
//!
//! ### Natural batching
//!
//! The leader never waits for followers: a single uncontended writer
//! stages one frame and immediately writes + fsyncs it — bit-for-bit the
//! fsync-per-record behavior of PR 7 (same syscall sequence, same on-disk
//! bytes). Batches form under contention because writers that stage while
//! a leader is inside `sync_data` are drained together by the next leader.
//!
//! ### Failure semantics
//!
//! A batch whose write or sync fails acks none of its tickets; the WAL is
//! poisoned from that point (appended frames would be unreachable behind a
//! torn one), so later commits also fail — until a checkpoint
//! whose heap image holds every applied-but-unlogged mutation rotates in a
//! fresh log, which supersedes the failure wholesale. That takes a
//! checkpoint *cut after the last failed commit*: one that finds the log
//! failed keeps the catalog lock until it has rotated, and a failure that
//! arrives between a cut and its rotation stays in force and asks for
//! another checkpoint.
//!
//! ### Off-path checkpointing, and the cut
//!
//! The leader only *counts* records toward
//! [`crate::EngineConfig::wal_checkpoint_interval`]; when the interval
//! trips it flags the background checkpointer thread (spawned by
//! [`crate::Database::open`]) and moves on. The checkpointer holds the
//! catalog write lock only to *capture*: drain this queue
//! ([`CommitPipeline::flush`]), freeze the dirty pages, encode the catalog,
//! and [`CommitPipeline::mark_cut`]. From the cut on the WAL keeps what it
//! appends in memory; once the frozen pages are flushed — no engine lock
//! held, commits flowing — [`CommitPipeline::rotate`] writes the snapshot and
//! that tail as the new log under the WAL mutex alone. Every record is
//! therefore in the flushed heap image (logged before the cut, and the
//! queue was empty at the cut) or in the rotated log (appended after it);
//! `aib_model::protocols::CheckpointCutModel` (protocol 8) checks exactly
//! that against concurrent `stage` + `lead`. The WAL mutex is a leaf of the
//! engine hierarchy: commits wait on it only *after* releasing the catalog
//! and space locks, and the checkpointer takes it *after* the catalog write
//! lock or with no engine lock at all, so the order catalog → space → pool →
//! commit is acyclic.

use std::time::{Duration, Instant};

use aib_core::sync::{AtomicU64, Mutex, MutexGuard, Ordering};
use aib_storage::{StorageError, Wal, WalRecord};

/// The last ticket of the contiguous range one [`CommitPipeline::stage`]
/// call was assigned, to be passed to [`CommitPipeline::wait_durable`].
/// Tickets are handed out in mutation order (staging happens under the
/// catalog write lock) and become durable in ticket order, so the range's
/// last ticket decides the whole range.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ticket {
    last: u64,
}

/// The shared commit queue: the staged, not-yet-durable frames plus the
/// ticket counter.
struct CommitQueue {
    next_seq: u64,
    /// Whole frames (`len | crc | payload`, generation-free CRC) back to
    /// back in ticket order: exactly what the leader hands to
    /// [`Wal::append_frames`].
    frames: Vec<u8>,
    /// Frames in `frames`: tickets `next_seq - records .. next_seq`.
    records: u64,
}

/// Everything guarded by the WAL mutex: the log itself plus the durable /
/// failed watermarks the leader publishes and followers read.
struct WalState {
    wal: Wal,
    /// Records appended since the last checkpoint cut.
    since_checkpoint: u64,
    /// What `since_checkpoint` stood at when the pending cut was marked,
    /// given back if its checkpoint fails (so the next flag retries).
    at_cut: u64,
    /// Highest ticket whose outcome is decided (durable or failed).
    /// Followers whose ticket is covered stop waiting.
    durable_seq: u64,
    /// `durable_seq` when the pending cut was marked.
    cut_seq: u64,
    /// First ticket lost to a failed batch, with the error every affected
    /// waiter reports. Cleared by a rotation whose cut came after every
    /// failed commit (its heap image supersedes the poisoned log).
    failed: Option<(u64, StorageError)>,
}

/// The group-commit pipeline of one durable [`crate::Database`]. See the
/// module docs for the protocol.
pub(crate) struct CommitPipeline {
    queue: Mutex<CommitQueue>,
    wal: Mutex<WalState>,
    /// Highest ticket that is durable *and clean* (no failed record at or
    /// below it), published with `Release` after the covering fsync so
    /// followers can ack with a single `Acquire` load — no WAL mutex.
    /// Tickets above it take the locked path, where `WalState::failed`
    /// disambiguates "not yet decided" from "lost".
    clean_durable: AtomicU64,
    /// Records between automatic checkpoints.
    checkpoint_interval: u64,
    /// 1 when a periodic checkpoint is due (leaders set, checkpointer
    /// clears).
    checkpoint_due: AtomicU64,
    /// 1 once the owning database is shutting down.
    shutdown: AtomicU64,
    /// Followers parked off-mutex in [`CommitPipeline::wait_durable`],
    /// unparked after every publish. Waking is a hint, not a handoff —
    /// every park is timed, so a racing lost unpark only costs the
    /// backstop interval.
    waiters: Mutex<Vec<std::thread::Thread>>,
    /// The background checkpointer to unpark when the interval trips.
    checkpointer: Mutex<Option<std::thread::Thread>>,
    /// The last background checkpoint failure, surfaced by
    /// [`crate::Database::close`].
    background_error: Mutex<Option<String>>,
    /// Held for the length of a checkpoint: the explicit and the periodic
    /// one no longer exclude each other through the catalog lock. Outermost
    /// — taken with no other lock held.
    checkpointing: Mutex<()>,
}

impl CommitPipeline {
    /// A pipeline over a freshly rotated WAL.
    pub fn new(wal: Wal, checkpoint_interval: u64) -> Self {
        CommitPipeline {
            queue: Mutex::new(CommitQueue {
                next_seq: 1,
                frames: Vec::new(),
                records: 0,
            }),
            wal: Mutex::new(WalState {
                wal,
                since_checkpoint: 0,
                at_cut: 0,
                durable_seq: 0,
                cut_seq: 0,
                failed: None,
            }),
            clean_durable: AtomicU64::new(0),
            checkpoint_interval,
            checkpoint_due: AtomicU64::new(0),
            shutdown: AtomicU64::new(0),
            waiters: Mutex::new(Vec::new()),
            checkpointer: Mutex::new(None),
            background_error: Mutex::new(None),
            checkpointing: Mutex::new(()),
        }
    }

    /// Stages `records` on the commit queue as whole frames, returning the
    /// ticket to wait on ([`None`] for an empty record set). Call this
    /// while still holding the catalog write lock of the mutation the
    /// records describe, so ticket order is mutation order; wait *after*
    /// releasing it, so other writers can stage into the same batch.
    pub fn stage(&self, records: &[WalRecord]) -> Option<Ticket> {
        if records.is_empty() {
            return None;
        }
        // Encoding and checksumming happen here, on the stager's thread and
        // under no pipeline lock; the queue only takes the finished bytes.
        let mut frames = Vec::new();
        for record in records {
            record.frame_into(&mut frames);
        }
        let mut q = self.queue.lock();
        q.next_seq += records.len() as u64;
        q.records += records.len() as u64;
        if q.frames.is_empty() {
            q.frames = frames;
        } else {
            q.frames.extend_from_slice(&frames);
        }
        Some(Ticket {
            last: q.next_seq - 1,
        })
    }

    /// Blocks until every record of `ticket` has a decided outcome,
    /// leading batches as needed (leader/follower handoff — see the module
    /// docs). `Ok` means a covering fsync landed for the whole ticket
    /// range; `Err` means at least one record was lost (records of the range
    /// that reached the file may still replay after a crash).
    pub fn wait_durable(&self, ticket: Ticket) -> Result<(), StorageError> {
        loop {
            // Lock-free ack: the clean watermark is published after the
            // covering fsync, so a covered follower returns without ever
            // touching the WAL mutex.
            if self.clean_durable.load(Ordering::Acquire) >= ticket.last {
                return Ok(());
            }
            let Some(mut w) = self.wal.try_lock() else {
                // A leader is at work and our frame is already staged for
                // its (or the next) batch. Wait *off* the mutex: if we
                // blocked inside `lock()`, waking us would need the mutex
                // back, and the next leader's fsync would hold every
                // covered follower hostage — batches would never form.
                // First a bounded yield-spin sized to a typical fsync, so
                // the publish is caught the moment it lands (a park/unpark
                // round-trip costs tens of microseconds of pipeline stall
                // per batch); only then a timed park. Register first,
                // re-check, then park: a publish that races ahead of the
                // registration is caught by the re-check, one that races
                // behind it unparks us.
                let spin_deadline = Instant::now() + Duration::from_micros(200);
                let mut covered = false;
                while Instant::now() < spin_deadline {
                    std::thread::yield_now();
                    if self.clean_durable.load(Ordering::Acquire) >= ticket.last {
                        covered = true;
                        break;
                    }
                }
                if !covered {
                    self.waiters.lock().push(std::thread::current());
                    if self.clean_durable.load(Ordering::Acquire) < ticket.last {
                        std::thread::park_timeout(Duration::from_micros(200));
                    }
                }
                continue;
            };
            if w.durable_seq >= ticket.last {
                // Decided but not clean: only a failed batch leaves this
                // gap, so consult the failure watermark under the mutex.
                return match &w.failed {
                    Some((from, error)) if ticket.last >= *from => Err(error.clone()),
                    _ => Ok(()),
                };
            }
            self.lead(&mut w);
            drop(w);
            self.wake_waiters();
        }
    }

    /// Unparks every registered follower after a publish. Followers that
    /// are not yet covered simply re-register and re-park.
    fn wake_waiters(&self) {
        for thread in self.waiters.lock().drain(..) {
            thread.unpark();
        }
    }

    /// One leader turn: take what is staged off the queue, write it with
    /// one positional write + one `sync_data`, and publish the outcome.
    /// Runs with the WAL mutex held; stagers only need the queue mutex, so
    /// they keep queueing for the next batch meanwhile.
    fn lead(&self, w: &mut WalState) {
        let (frames, records, last) = {
            let mut q = self.queue.lock();
            let records = std::mem::take(&mut q.records);
            (std::mem::take(&mut q.frames), records, q.next_seq - 1)
        };
        if records == 0 {
            return;
        }
        let first = last + 1 - records;
        // A failed log takes nothing more, even after a rotation made the
        // file itself sound again: see `rotate`.
        let outcome = match &w.failed {
            Some((_, error)) => Err(error.clone()),
            None => w.wal.append_frames(frames),
        };
        match outcome {
            Ok(()) => w.since_checkpoint += records,
            // The whole batch is lost; tickets before it stay acked.
            Err(error) => {
                w.failed.get_or_insert((first, error));
            }
        }
        // Publish `last` even on failure: the whole batch is *decided*,
        // which is what waiters poll for. The atomic
        // clean watermark stops just short of the first failed ticket, so
        // the lock-free ack path can never return Ok for a lost record.
        w.durable_seq = last;
        let clean = match &w.failed {
            Some((from, _)) => last.min(from.saturating_sub(1)),
            None => last,
        };
        self.clean_durable.store(clean, Ordering::Release);
        if w.since_checkpoint >= self.checkpoint_interval {
            self.request_checkpoint();
        }
    }

    /// Drains and writes everything staged (checkpoint prelude: the caller
    /// holds the catalog write lock, so no new frames can appear). Waiters
    /// of the drained tickets are acked or failed exactly as if a leader
    /// had drained them.
    pub fn flush(&self) {
        loop {
            let mut w = self.wal.lock();
            if self.queue.lock().records == 0 {
                return;
            }
            self.lead(&mut w);
            drop(w);
            self.wake_waiters();
        }
    }

    /// Serializes checkpoints: hold the guard from before the catalog lock
    /// until the rotation is done.
    pub fn checkpointing(&self) -> MutexGuard<'_, ()> {
        self.checkpointing.lock()
    }

    /// Marks the checkpoint cut. Call under the catalog write lock, right
    /// after [`CommitPipeline::flush`] and after capturing the heap image:
    /// the queue is empty, so every record logged so far is in that image,
    /// and everything the WAL appends from here on it also keeps for
    /// [`CommitPipeline::rotate`]. The interval counter restarts at the cut.
    ///
    /// Returns whether the log is failed — the caller must then keep the
    /// catalog lock until it has rotated, so that no commit can fail *after*
    /// the cut and miss the image that is to supersede it.
    pub fn mark_cut(&self) -> bool {
        let mut w = self.wal.lock();
        w.wal.mark_cut();
        w.cut_seq = w.durable_seq;
        w.at_cut = std::mem::take(&mut w.since_checkpoint);
        // Whoever flagged a checkpoint while this one waited for the catalog
        // lock meant these records: one checkpoint serves them all.
        self.checkpoint_due.store(0, Ordering::Release);
        w.failed.is_some()
    }

    /// The checkpoint of the pending cut failed: stop keeping the tail and
    /// give the interval counter its records back, so the next append
    /// flags another attempt.
    pub fn abandon_cut(&self) {
        let mut w = self.wal.lock();
        w.wal.abandon_cut();
        w.since_checkpoint += std::mem::take(&mut w.at_cut);
    }

    /// Rotates the WAL into `snapshot` plus the frames appended since
    /// [`CommitPipeline::mark_cut`] — over the retired log's blocks when
    /// `recycle`d, into a compact fresh file otherwise. Needs the WAL mutex
    /// only. A failed log is cleared if no commit was decided since the cut:
    /// then the snapshot's heap image holds every applied-but-unlogged
    /// mutation. Otherwise some failed commit came after the cut, the
    /// failure stays (no later commit may be acked on top of a mutation
    /// that is in neither the image nor the log) and another checkpoint is
    /// requested — which will find the log failed and keep the world
    /// stopped.
    pub fn rotate(&self, snapshot: &WalRecord, recycle: bool) -> Result<(), StorageError> {
        {
            let mut w = self.wal.lock();
            if recycle {
                w.wal.rotate_recycled(snapshot)?;
            } else {
                w.wal.rotate(snapshot)?;
            }
            w.at_cut = 0;
            if w.durable_seq == w.cut_seq {
                w.failed = None;
                // The snapshot covers every decided ticket, failed or not,
                // so the clean watermark catches up to the decided one.
                self.clean_durable.store(w.durable_seq, Ordering::Release);
            } else if w.failed.is_some() {
                self.request_checkpoint();
            }
        }
        self.wake_waiters();
        Ok(())
    }

    /// Records appended to the WAL (see [`crate::Database::wal_records_written`]).
    pub fn records_written(&self) -> u64 {
        self.wal.lock().wal.records_written()
    }

    /// Successful covering fsyncs issued by the WAL.
    pub fn wal_syncs(&self) -> u64 {
        self.wal.lock().wal.syncs()
    }

    // ------------------------------------------- background checkpointing

    /// Registers the checkpointer thread to unpark on
    /// [`CommitPipeline::request_checkpoint`].
    pub fn register_checkpointer(&self, thread: std::thread::Thread) {
        *self.checkpointer.lock() = Some(thread);
    }

    /// Flags a periodic checkpoint as due and wakes the checkpointer.
    fn request_checkpoint(&self) {
        self.checkpoint_due.store(1, Ordering::Release);
        if let Some(t) = self.checkpointer.lock().as_ref() {
            t.unpark();
        }
    }

    /// Consumes the due flag (checkpointer side).
    pub fn take_checkpoint_due(&self) -> bool {
        self.checkpoint_due.swap(0, Ordering::AcqRel) == 1
    }

    /// Tells the checkpointer thread to exit and wakes it.
    pub fn shutdown(&self) {
        self.shutdown.store(1, Ordering::Release);
        if let Some(t) = self.checkpointer.lock().as_ref() {
            t.unpark();
        }
    }

    /// Whether [`CommitPipeline::shutdown`] was called.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire) == 1
    }

    /// Stores a background checkpoint failure for
    /// [`CommitPipeline::take_background_error`].
    pub fn record_background_error(&self, message: String) {
        self.background_error.lock().get_or_insert(message);
    }

    /// Takes the oldest unreported background checkpoint failure, if any.
    pub fn take_background_error(&self) -> Option<String> {
        self.background_error.lock().take()
    }
}

/// Body of the background checkpointer thread: sleep until flagged (or a
/// coarse fallback tick), run `checkpoint`, repeat until shutdown. Failures
/// are recorded, not fatal — the interval counter was not reset, so the
/// next flag retries.
pub(crate) fn checkpointer_loop<F>(pipeline: &CommitPipeline, checkpoint: F)
where
    F: Fn() -> Result<(), String>,
{
    loop {
        if pipeline.is_shutdown() {
            return;
        }
        if pipeline.take_checkpoint_due() {
            if let Err(message) = checkpoint() {
                pipeline.record_background_error(message);
            }
            continue;
        }
        // The fallback tick covers a request racing just ahead of the
        // park (unpark tokens make the common case immediate).
        std::thread::park_timeout(Duration::from_millis(25));
    }
}
