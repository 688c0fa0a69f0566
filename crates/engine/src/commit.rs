//! Group-commit pipeline: the durable write path of a file-backed
//! [`crate::Database`] (ISSUE 9 tentpole).
//!
//! ### Leader/follower commit
//!
//! Concurrent writers **stage** their encoded WAL frames into a shared
//! in-memory commit queue *while still holding the catalog write lock* —
//! that is what keeps log order equal to mutation order — then release
//! their engine locks and **wait** for the covering fsync. The first
//! waiter to take the WAL mutex and find its ticket not yet durable
//! becomes the **leader**: it drains the queue, writes every staged frame
//! with a single `write_all` + one `sync_data`
//! ([`Wal::append_payload_batch`]), and publishes the new durable
//! watermark. A commit is acked (its `insert`/`delete`/`update` call
//! returns) **only after a covering fsync**, so the WAL-before-data
//! guarantee of PR 7 is unchanged; what changed is that one fsync now
//! covers every commit that queued up behind it.
//!
//! The handoff needs no condvar, and — crucially — followers never
//! *block on* the WAL mutex. The leader publishes the clean durable
//! watermark in an atomic *after* the covering fsync; a waiter polls that
//! watermark, and only `try_lock`s the mutex to lead a batch itself. A
//! covered follower therefore acks and goes on to stage its next commit
//! while the current leader is still lingering or inside `sync_data`,
//! and an uncovered one snoozes off-mutex (bounded yield, then a timed
//! park) until its batch is decided. That is what lets batches form even
//! on a machine with fewer cores than writers: if acking — or waking a
//! parked waiter — required the mutex, a lingering leader would hold
//! every other writer hostage and batches would never exceed one frame.
//! The fsync-before-publish obligation is the model-checked protocol
//! (`aib_model::protocols::CommitQueueModel`, protocol 7).
//!
//! ### Window knobs
//!
//! With [`crate::EngineConfig::group_commit_wait_us`]` = 0` (the default)
//! the leader never lingers: a single uncontended writer stages one frame
//! and immediately writes + fsyncs it — bit-for-bit the fsync-per-record
//! behavior of PR 7 (same syscall sequence, same on-disk bytes). Batches
//! still form naturally under contention, because writers that stage while
//! a leader is inside `sync_data` are drained together by the next leader.
//! A nonzero window makes the leader sleep that many microseconds before
//! draining, trading its own latency for a larger batch; the wait is
//! skipped (and the drain is capped) once the staged payload bytes reach
//! `GROUP_COMMIT_MAX_BYTES`.
//!
//! ### Failure semantics
//!
//! A batch that fails mid-write (crash injection, real I/O error) acks its
//! durable prefix and fails every ticket from the first lost frame on; the
//! WAL is poisoned from that point (appended frames would be unreachable
//! behind the torn one), so later commits also fail — until a checkpoint
//! rotates in a fresh log, which supersedes the failure wholesale (the
//! snapshot covers the applied-but-unlogged mutations, exactly as it does
//! for PR 7's failed single appends).
//!
//! ### Off-path checkpointing
//!
//! The leader only *counts* records toward
//! [`crate::EngineConfig::wal_checkpoint_interval`]; when the interval
//! trips it flags the background checkpointer thread (spawned by
//! [`crate::Database::open`]) and moves on, so rotation no longer stalls
//! the commit that happened to cross the threshold. This lock is a leaf of
//! the engine hierarchy like PR 7's `Durability` mutex: commits wait on it
//! only *after* releasing the catalog and space locks, and the
//! checkpointer takes it only *after* taking the catalog write lock, so
//! the order catalog → space → pool → commit is acyclic.

use std::time::{Duration, Instant};

use aib_core::sync::{AtomicU64, Mutex, Ordering};
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

/// One staged, not-yet-durable WAL frame payload.
struct StagedFrame {
    seq: u64,
    payload: Vec<u8>,
}

/// The shared commit queue: staged frames plus the ticket counter.
struct CommitQueue {
    next_seq: u64,
    staged: Vec<StagedFrame>,
    /// Total payload bytes currently staged (what the byte cap meters).
    bytes: usize,
}

/// Everything guarded by the WAL mutex: the log itself plus the durable /
/// failed watermarks the leader publishes and followers read.
struct WalState {
    wal: Wal,
    /// Records appended since the last checkpoint rotation.
    since_checkpoint: u64,
    /// Highest ticket whose outcome is decided (durable or failed).
    /// Followers whose ticket is covered stop waiting.
    durable_seq: u64,
    /// First ticket lost to a failed batch, with the error every affected
    /// waiter reports. Cleared by rotation (the checkpoint snapshot
    /// supersedes the poisoned log).
    failed: Option<(u64, StorageError)>,
}

/// Group-commit byte cap: once the staged payload bytes reach this, the
/// leader skips the window wait, and no single batch drains more than this
/// many bytes (plus one frame). Bounds both ack latency under a nonzero
/// window and batch memory.
const GROUP_COMMIT_MAX_BYTES: usize = 1 << 20;

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
    /// Leader linger before draining, in microseconds (0 = never).
    wait_us: u64,
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
}

impl CommitPipeline {
    /// A pipeline over an open WAL that already holds `since_checkpoint`
    /// records (replayed at open).
    pub fn new(wal: Wal, since_checkpoint: u64, wait_us: u64, checkpoint_interval: u64) -> Self {
        CommitPipeline {
            queue: Mutex::new(CommitQueue {
                next_seq: 1,
                staged: Vec::new(),
                bytes: 0,
            }),
            wal: Mutex::new(WalState {
                wal,
                since_checkpoint,
                durable_seq: 0,
                failed: None,
            }),
            clean_durable: AtomicU64::new(0),
            wait_us,
            checkpoint_interval,
            checkpoint_due: AtomicU64::new(0),
            shutdown: AtomicU64::new(0),
            waiters: Mutex::new(Vec::new()),
            checkpointer: Mutex::new(None),
            background_error: Mutex::new(None),
        }
    }

    /// Stages encoded frames for `records` on the commit queue, returning
    /// the ticket to wait on ([`None`] for an empty record set). Call this
    /// while still holding the catalog write lock of the mutation the
    /// records describe, so ticket order is mutation order; wait *after*
    /// releasing it, so other writers can stage into the same batch.
    pub fn stage(&self, records: &[WalRecord]) -> Option<Ticket> {
        if records.is_empty() {
            return None;
        }
        let mut q = self.queue.lock();
        for record in records {
            let payload = record.encode();
            let seq = q.next_seq;
            q.next_seq += 1;
            q.bytes += payload.len();
            q.staged.push(StagedFrame { seq, payload });
        }
        Some(Ticket {
            last: q.next_seq - 1,
        })
    }

    /// Blocks until every record of `ticket` has a decided outcome,
    /// leading batches as needed (leader/follower handoff — see the module
    /// docs). `Ok` means a covering fsync landed for the whole ticket
    /// range; `Err` means at least one record was lost (a durable prefix
    /// of the range may still replay after a crash).
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
                // back, and the next leader's linger would hold every
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

    /// One leader turn: optionally linger for followers, drain a batch off
    /// the queue, write it with one `write_all` + one `sync_data`, and
    /// publish the outcome. Runs with the WAL mutex held — followers block
    /// on that mutex and are woken by its release.
    fn lead(&self, w: &mut WalState) {
        if self.wait_us > 0 {
            // The group-commit window: stagers only need the queue mutex,
            // so they keep queueing while the leader (holding only the WAL
            // mutex) lingers. Yield instead of sleeping — `thread::sleep`
            // oversleeps by the kernel timer slack (~50µs), which would
            // both stretch the window and serialize it before the fsync;
            // yielding keeps the window honest and hands the CPU to the
            // very stagers the leader is collecting.
            let deadline = Instant::now() + Duration::from_micros(self.wait_us);
            while Instant::now() < deadline {
                if self.queue.lock().bytes >= GROUP_COMMIT_MAX_BYTES {
                    break;
                }
                std::thread::yield_now();
            }
        }
        let batch: Vec<StagedFrame> = {
            let mut q = self.queue.lock();
            let mut cut = 0;
            let mut bytes = 0;
            for frame in &q.staged {
                if cut > 0 && bytes + frame.payload.len() > GROUP_COMMIT_MAX_BYTES {
                    break;
                }
                bytes += frame.payload.len();
                cut += 1;
            }
            q.bytes -= bytes;
            q.staged.drain(..cut).collect()
        };
        let (Some(first), Some(last)) = (batch.first().map(|f| f.seq), batch.last().map(|f| f.seq))
        else {
            return;
        };
        let payloads: Vec<&[u8]> = batch.iter().map(|f| f.payload.as_slice()).collect();
        let before = w.wal.records_written();
        let outcome = w.wal.append_payload_batch(&payloads);
        let appended = w.wal.records_written() - before;
        w.since_checkpoint += appended;
        if let Err(error) = outcome {
            // Tickets below `first + appended` were covered by a successful
            // fsync and may ack; everything from there on is lost.
            if w.failed.is_none() {
                w.failed = Some((first + appended, error));
            }
        }
        // Publish last (not first + appended) even on failure: the whole
        // batch is *decided*, which is what waiters poll for. The atomic
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
            if self.queue.lock().staged.is_empty() {
                return;
            }
            self.lead(&mut w);
            drop(w);
            self.wake_waiters();
        }
    }

    /// Rotates the WAL to a fresh log holding only `snapshot`, resetting
    /// the checkpoint counter and clearing any poisoned-log failure (the
    /// snapshot supersedes the lost records — their mutations are in the
    /// heap image it describes).
    pub fn rotate(&self, snapshot: &WalRecord) -> Result<(), StorageError> {
        {
            let mut w = self.wal.lock();
            w.wal.rotate(snapshot)?;
            w.since_checkpoint = 0;
            w.failed = None;
            // The snapshot covers every decided ticket, failed or not, so
            // the clean watermark catches up to the decided watermark.
            self.clean_durable.store(w.durable_seq, Ordering::Release);
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

    /// Crash-injection hook: fail the append that would become record
    /// `records_written() + n`.
    pub fn fail_after(&self, n: u64) {
        let mut w = self.wal.lock();
        let at = w.wal.records_written() + n;
        w.wal.set_fail_at(at);
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
