//! The schedule-exploring execution engine.
//!
//! [`Model::check`] runs a closure-per-thread concurrency model over and
//! over, each time under a different thread interleaving, until either the
//! bounded-preemption DFS exhausts the schedule space or an execution
//! fails. Threads are real OS threads, but only **one runs at a time**: a
//! token is handed from operation to operation by an explicit scheduler
//! decision, so every execution is a deterministic function of its
//! *schedule* — the sequence of decisions — and any failure can be replayed
//! from the printed schedule string alone.
//!
//! # Memory model
//!
//! Atomic histories are tracked per location as a vector of stores, each
//! stamped with the writing thread's vector clock. The observability rule a
//! load obeys is deliberately **stronger than C11** and is documented here
//! because the seeded-bug corpus depends on it being exactly this:
//!
//! * A load may never observe a store older than the newest one
//!   happened-before the loading thread, nor older than the newest one this
//!   thread has already observed at the location (per-location coherence).
//! * A `Release`-or-stronger store becomes **promptly visible**: once it
//!   executes, every later `Acquire`-or-stronger load of that location
//!   reads it (or something newer). This mirrors the promptness of real
//!   hardware (store buffers drain in nanoseconds) and makes ordering
//!   *weakenings* honestly detectable: demote a `Release` store or an
//!   `Acquire` load to `Relaxed` and the load may now legally observe any
//!   sufficiently recent stale value — exactly the window the DFS then
//!   drives an assertion through.
//! * A `Relaxed` store may lag: until something orders it, loads choose
//!   *any* observable value, and each choice is a scheduling branch the
//!   DFS explores.
//! * Read-modify-writes always operate on the newest store (C11's
//!   modification-order rule), so CAS loops cannot act on phantoms.
//!
//! The trade-off is stated plainly: the model over-synchronises `Release`
//! stores (a bug whose window is the latency of a release store on real
//! hardware is out of scope); in exchange, correct `Acquire`/`Release`
//! protocols verify with no false alarms and every seeded weakening is
//! caught. Fences are schedule points but carry no ordering (nothing in
//! the checked protocols uses them; a protocol that needs fences must
//! extend the runtime first).
//!
//! # Locks
//!
//! Model [`Mutex`](crate::sync::Mutex)/[`RwLock`](crate::sync::RwLock)
//! acquisition and release are schedule points; blocking parks the thread
//! until a release makes it runnable. When no thread is runnable and not
//! all have finished, the execution is reported as a **deadlock** with the
//! full wait-for picture. Lock acquisition joins the lock's release clock
//! (acquire/release edges), so lock-protected data is always ordered.

// aib-lint: allow-file(no-index) — the runtime indexes its own dense
// per-thread and per-store vectors with ids it allocated itself; a slip is
// a checker bug and a loud panic here is strictly better than a silent
// wrong exploration.
// aib-lint: allow-file(no-panic) — panicking IS this crate's reporting
// channel: violations surface as panics that carry the replayable
// schedule, and poisoned internal locks are recovered via `into_inner`.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe, Location};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Hard cap on model threads per execution; vector clocks are fixed-width
/// arrays of this many lamport counters.
pub const MAX_THREADS: usize = 8;

/// Panic payload used to tear down secondary threads once a failure is
/// recorded; never reported as a violation itself.
struct AbortExecution;

/// A vector clock: one Lamport counter per model thread.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct VClock {
    t: [u32; MAX_THREADS],
}

impl VClock {
    fn join(&mut self, other: &VClock) {
        for i in 0..MAX_THREADS {
            self.t[i] = self.t[i].max(other.t[i]);
        }
    }

    /// True when every component of `self` is at least `other`'s — i.e.
    /// the event stamped `other` happened-before the holder of `self`.
    fn dominates(&self, other: &VClock) -> bool {
        (0..MAX_THREADS).all(|i| self.t[i] >= other.t[i])
    }

    fn tick(&mut self, tid: usize) {
        self.t[tid] += 1;
    }
}

/// One entry in a location's modification order.
struct StoreRecord {
    value: u64,
    /// The writer's vector clock at the store (after its tick).
    clock: VClock,
    /// Whether the store was `Release`-class (`Release`/`AcqRel`/`SeqCst`).
    release: bool,
}

struct LocationState {
    /// Small dense id for traces ("a0", "a1", ...).
    id: usize,
    /// Modification order; index 0 is the initial value.
    stores: Vec<StoreRecord>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LockKind {
    Mutex,
    RwLock,
}

struct LockState {
    id: usize,
    kind: LockKind,
    writer: Option<usize>,
    readers: Vec<usize>,
    /// Joined by every acquirer: carries release→acquire happens-before.
    release_clock: VClock,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum BlockedOn {
    /// Waiting for a lock (by state-map key); `true` = write intent.
    Lock(usize, bool),
    /// Waiting for a thread to finish.
    Join(usize),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Runnable,
    Blocked(BlockedOn),
    Finished,
}

struct ThreadState {
    status: Status,
    clock: VClock,
    /// Set by a scheduler decision: this thread performs the next step.
    granted: bool,
    /// Per-location floor on observable stores (read-read coherence).
    seen: HashMap<usize, usize>,
}

impl ThreadState {
    fn new(clock: VClock) -> Self {
        ThreadState {
            status: Status::Runnable,
            clock,
            granted: false,
            seen: HashMap::new(),
        }
    }
}

/// One scheduler decision. The schedule — the decision sequence — fully
/// determines an execution; `alternatives` holds the not-yet-explored
/// siblings the DFS will come back for.
#[derive(Clone, Debug)]
enum Decision {
    /// Which thread performs the next operation.
    Thread {
        chosen: usize,
        alternatives: Vec<usize>,
    },
    /// Which store (by modification-order index) a load observes.
    Value {
        chosen: usize,
        alternatives: Vec<usize>,
    },
}

impl Decision {
    fn token(&self) -> String {
        match self {
            Decision::Thread { chosen, .. } => format!("t{chosen}"),
            Decision::Value { chosen, .. } => format!("v{chosen}"),
        }
    }
}

/// A detected violation, with everything needed to reproduce it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The panic message or deadlock description.
    pub message: String,
    /// Comma-separated decision tokens; feed back via `AIB_MODEL_SCHEDULE`.
    pub schedule: String,
    /// Human-readable step-by-step trace of the failing execution.
    pub trace: Vec<String>,
}

/// Outcome of [`Model::check_report`].
#[derive(Debug)]
pub struct Report {
    /// Executions (schedules) run.
    pub executions: usize,
    /// Whether the bounded schedule space was exhausted.
    pub complete: bool,
    /// The first violation found, if any.
    pub violation: Option<Violation>,
}

struct ExecState {
    threads: Vec<ThreadState>,
    locations: HashMap<usize, LocationState>,
    locks: HashMap<usize, LockState>,
    next_loc_id: usize,
    next_lock_id: usize,
    /// Replayed prefix plus decisions appended by this execution.
    schedule: Vec<Decision>,
    cursor: usize,
    preemptions: usize,
    /// Thread that performed the most recent operation.
    last_ran: usize,
    /// Thread that owns the decision duty (it just ran user code and will
    /// decide at its next arrival); `None` while a grant is outstanding.
    token: Option<usize>,
    step: usize,
    trace: Vec<String>,
    failure: Option<Violation>,
    max_preemptions: usize,
    max_steps: usize,
}

impl ExecState {
    fn all_finished(&self) -> bool {
        self.threads.iter().all(|t| t.status == Status::Finished)
    }

    fn schedule_string(&self) -> String {
        let tokens: Vec<String> = self.schedule.iter().map(Decision::token).collect();
        tokens.join(",")
    }

    fn push_trace(&mut self, tid: usize, what: String, caller: &Location<'_>) {
        self.step += 1;
        let step = self.step;
        self.trace.push(format!(
            "step {step:>3}: t{tid} {what}  [{}]",
            short_loc(caller)
        ));
    }

    fn record_failure(&mut self, message: String) {
        if self.failure.is_none() {
            self.failure = Some(Violation {
                message,
                schedule: self.schedule_string(),
                trace: self.trace.clone(),
            });
        }
    }
}

fn short_loc(caller: &Location<'_>) -> String {
    let file = caller.file();
    let tail: Vec<&str> = file.rsplit(['/', '\\']).take(2).collect();
    let mut parts: Vec<&str> = tail.into_iter().rev().collect();
    if parts.is_empty() {
        parts.push(file);
    }
    format!("{}:{}", parts.join("/"), caller.line())
}

fn is_acquire(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

pub(crate) struct Session {
    state: Mutex<ExecState>,
    cv: Condvar,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<(Arc<Session>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

fn set_current(v: Option<(Arc<Session>, usize)>) {
    CURRENT.with(|c| *c.borrow_mut() = v);
}

/// Binds the calling OS thread to a model thread id for the session's
/// lifetime (used by [`crate::thread::spawn`]'s child wrapper).
pub(crate) fn install_current(session: Arc<Session>, tid: usize) {
    set_current(Some((session, tid)));
}

pub(crate) fn current() -> Option<(Arc<Session>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

fn unpoison<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl Session {
    fn new(schedule: Vec<Decision>, max_preemptions: usize, max_steps: usize) -> Self {
        let threads = vec![ThreadState::new(VClock::default())];
        Session {
            state: Mutex::new(ExecState {
                threads,
                locations: HashMap::new(),
                locks: HashMap::new(),
                next_loc_id: 0,
                next_lock_id: 0,
                schedule,
                cursor: 0,
                preemptions: 0,
                last_ran: 0,
                token: Some(0),
                step: 0,
                trace: Vec::new(),
                failure: None,
                max_preemptions,
                max_steps,
            }),
            cv: Condvar::new(),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// Blocks thread `tid` until a scheduler decision grants it the next
    /// operation, making that decision itself when it holds the token.
    /// Returns the state guard to perform the operation under, or `None`
    /// when a failure is already recorded and the caller is unwinding (the
    /// operation then bypasses the scheduler so teardown cannot wedge).
    fn arrive(&self, tid: usize) -> Option<MutexGuard<'_, ExecState>> {
        let mut st = unpoison(self.state.lock());
        loop {
            if st.failure.is_some() {
                drop(st);
                if std::thread::panicking() {
                    return None;
                }
                std::panic::panic_any(AbortExecution);
            }
            if st.threads[tid].granted {
                st.threads[tid].granted = false;
                st.token = Some(tid);
                st.last_ran = tid;
                return Some(st);
            }
            if st.token == Some(tid) {
                st.token = None;
                self.decide(&mut st);
                continue;
            }
            st = unpoison(self.cv.wait(st));
        }
    }

    /// Picks the thread that performs the next operation (replaying the
    /// schedule prefix, then extending it under the preemption bound),
    /// grants it, and wakes everyone. Detects deadlock and termination.
    ///
    /// Single-choice points (exactly one runnable thread) are granted
    /// without recording a decision — the schedule only contains genuine
    /// branches, which keeps replay strings short and the DFS frontier
    /// tight.
    fn decide(&self, st: &mut ExecState) {
        let runnable: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Runnable)
            .map(|(i, _)| i)
            .collect();
        if runnable.is_empty() {
            if !st.all_finished() {
                let picture = self.deadlock_picture(st);
                st.record_failure(format!("deadlock: no runnable thread\n{picture}"));
            }
            self.cv.notify_all();
            return;
        }
        if runnable.len() == 1 {
            let only = runnable[0];
            st.threads[only].granted = true;
            self.cv.notify_all();
            return;
        }
        let prev = st.last_ran;
        let prev_runnable = st.threads[prev].status == Status::Runnable;
        let chosen = if st.cursor < st.schedule.len() {
            match &st.schedule[st.cursor] {
                Decision::Thread { chosen, .. } => *chosen,
                Decision::Value { .. } => {
                    st.record_failure(
                        "schedule desync: thread decision expected (checker bug)".to_string(),
                    );
                    self.cv.notify_all();
                    return;
                }
            }
        } else {
            let default = if prev_runnable { prev } else { runnable[0] };
            let budget_left = st.preemptions < st.max_preemptions;
            let alternatives: Vec<usize> = runnable
                .iter()
                .copied()
                .filter(|&t| t != default)
                // Switching away from a still-runnable thread is a
                // preemption and must fit the bound; a forced switch (the
                // previous thread blocked or finished) is free.
                .filter(|_| !prev_runnable || budget_left)
                .collect();
            st.schedule.push(Decision::Thread {
                chosen: default,
                alternatives,
            });
            default
        };
        st.cursor += 1;
        if chosen != prev && prev_runnable {
            st.preemptions += 1;
        }
        debug_assert!(st.threads[chosen].status == Status::Runnable);
        st.threads[chosen].granted = true;
        self.cv.notify_all();
    }

    /// Consumes one value decision: which of `observable` (modification-
    /// order indices) the load reads. Single-choice loads record nothing,
    /// mirroring [`decide`](Self::decide).
    fn decide_value(&self, st: &mut ExecState, observable: &[usize]) -> usize {
        if observable.len() == 1 {
            return observable[0];
        }
        let chosen = if st.cursor < st.schedule.len() {
            match &st.schedule[st.cursor] {
                Decision::Value { chosen, .. } => *chosen,
                Decision::Thread { .. } => {
                    // Desync would mean non-deterministic replay; fail loud.
                    st.record_failure(
                        "schedule desync: value decision expected (checker bug)".to_string(),
                    );
                    *observable.last().unwrap_or(&0)
                }
            }
        } else {
            let newest = *observable.last().expect("observable set never empty");
            let alternatives: Vec<usize> = observable
                .iter()
                .copied()
                .filter(|&i| i != newest)
                .collect();
            st.schedule.push(Decision::Value {
                chosen: newest,
                alternatives,
            });
            newest
        };
        st.cursor += 1;
        chosen
    }

    fn deadlock_picture(&self, st: &ExecState) -> String {
        let mut lines = Vec::new();
        for (tid, t) in st.threads.iter().enumerate() {
            let what = match t.status {
                Status::Runnable => continue,
                Status::Finished => continue,
                Status::Blocked(BlockedOn::Join(target)) => {
                    format!("blocked joining t{target}")
                }
                Status::Blocked(BlockedOn::Lock(key, write)) => {
                    let lock = &st.locks[&key];
                    let holder = match lock.writer {
                        Some(w) => format!("write-held by t{w}"),
                        None => format!("read-held by {:?}", lock.readers),
                    };
                    let intent = if write { "write" } else { "read" };
                    format!(
                        "blocked on {:?} L{} ({intent}), {holder}",
                        lock.kind, lock.id
                    )
                }
            };
            lines.push(format!("  t{tid}: {what}"));
        }
        lines.join("\n")
    }

    fn location_entry(st: &mut ExecState, addr: usize, init: u64) -> &mut LocationState {
        let next_id = st.next_loc_id;
        let entry = st.locations.entry(addr).or_insert_with(|| LocationState {
            id: next_id,
            stores: vec![StoreRecord {
                value: init,
                clock: VClock::default(),
                release: false,
            }],
        });
        if entry.id == next_id {
            st.next_loc_id += 1;
        }
        entry
    }

    fn check_step_budget(&self, st: &mut ExecState) {
        if st.step > st.max_steps {
            st.record_failure(format!(
                "step budget exceeded ({} steps): livelock or unbounded retry loop",
                st.max_steps
            ));
            self.cv.notify_all();
        }
    }

    // ---- atomic operations ---------------------------------------------

    /// A load: picks an observable store per the memory model (see module
    /// docs), branching the DFS when more than one is observable.
    pub(crate) fn atomic_load(
        self: &Arc<Self>,
        tid: usize,
        addr: usize,
        init: u64,
        ord: Ordering,
        caller: &Location<'_>,
    ) -> Option<u64> {
        let mut st = self.arrive(tid)?;
        let loc_id;
        let observable: Vec<usize>;
        {
            let clock = st.threads[tid].clock;
            let seen = st.threads[tid].seen.get(&addr).copied().unwrap_or(0);
            let loc = Self::location_entry(&mut st, addr, init);
            loc_id = loc.id;
            let newest = loc.stores.len() - 1;
            let mut lo = (0..=newest)
                .rev()
                .find(|&i| clock.dominates(&loc.stores[i].clock))
                .unwrap_or(0)
                .max(seen);
            if is_acquire(ord) {
                // Prompt visibility of Release-class stores (see module
                // docs): an Acquire load never reads past the newest one.
                let newest_release = (0..=newest).rev().find(|&i| loc.stores[i].release);
                if let Some(r) = newest_release {
                    lo = lo.max(r);
                }
            }
            observable = (lo..=newest).collect();
        }
        let chosen = self.decide_value(&mut st, &observable);
        let (value, release, store_clock) = {
            let loc = st.locations.get(&addr).expect("location just touched");
            let rec = &loc.stores[chosen];
            (rec.value, rec.release, rec.clock)
        };
        if is_acquire(ord) && release {
            st.threads[tid].clock.join(&store_clock);
        }
        st.threads[tid].seen.insert(addr, chosen);
        let newest = st.locations[&addr].stores.len() - 1;
        let stale = if chosen < newest {
            format!(" (stale: {} newer store(s) unobserved)", newest - chosen)
        } else {
            String::new()
        };
        st.push_trace(
            tid,
            format!("a{loc_id}.load({ord:?}) -> {value}{stale}"),
            caller,
        );
        self.check_step_budget(&mut st);
        Some(value)
    }

    pub(crate) fn atomic_store(
        self: &Arc<Self>,
        tid: usize,
        addr: usize,
        init: u64,
        value: u64,
        ord: Ordering,
        caller: &Location<'_>,
    ) -> Option<()> {
        let mut st = self.arrive(tid)?;
        st.threads[tid].clock.tick(tid);
        let clock = st.threads[tid].clock;
        let loc = Self::location_entry(&mut st, addr, init);
        let loc_id = loc.id;
        loc.stores.push(StoreRecord {
            value,
            clock,
            release: is_release(ord),
        });
        let idx = loc.stores.len() - 1;
        st.threads[tid].seen.insert(addr, idx);
        st.push_trace(tid, format!("a{loc_id}.store({value}, {ord:?})"), caller);
        self.check_step_budget(&mut st);
        Some(())
    }

    /// A read-modify-write: always reads the newest store (modification
    /// order), applies `f`, and appends the result.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn atomic_rmw(
        self: &Arc<Self>,
        tid: usize,
        addr: usize,
        init: u64,
        what: &str,
        f: impl FnOnce(u64) -> u64,
        ord: Ordering,
        caller: &Location<'_>,
    ) -> Option<u64> {
        let mut st = self.arrive(tid)?;
        let (old, was_release, old_clock) = {
            let loc = Self::location_entry(&mut st, addr, init);
            let rec = loc.stores.last().expect("history never empty");
            (rec.value, rec.release, rec.clock)
        };
        if is_acquire(ord) && was_release {
            st.threads[tid].clock.join(&old_clock);
        }
        st.threads[tid].clock.tick(tid);
        let clock = st.threads[tid].clock;
        let new = f(old);
        let loc = Self::location_entry(&mut st, addr, init);
        let loc_id = loc.id;
        loc.stores.push(StoreRecord {
            value: new,
            clock,
            release: is_release(ord),
        });
        let idx = loc.stores.len() - 1;
        st.threads[tid].seen.insert(addr, idx);
        st.push_trace(
            tid,
            format!("a{loc_id}.{what}({ord:?}) {old} -> {new}"),
            caller,
        );
        self.check_step_budget(&mut st);
        Some(old)
    }

    /// Compare-exchange: reads the newest store; on mismatch acts as a
    /// load with the failure ordering. No spurious failures are modelled
    /// (callers loop anyway; spurious failure adds schedules, not
    /// behaviours).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn atomic_cas(
        self: &Arc<Self>,
        tid: usize,
        addr: usize,
        init: u64,
        expect: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
        caller: &Location<'_>,
    ) -> Option<Result<u64, u64>> {
        let mut st = self.arrive(tid)?;
        let (old, was_release, old_clock) = {
            let loc = Self::location_entry(&mut st, addr, init);
            let rec = loc.stores.last().expect("history never empty");
            (rec.value, rec.release, rec.clock)
        };
        let result = if old == expect {
            if is_acquire(success) && was_release {
                st.threads[tid].clock.join(&old_clock);
            }
            st.threads[tid].clock.tick(tid);
            let clock = st.threads[tid].clock;
            let loc = Self::location_entry(&mut st, addr, init);
            let loc_id = loc.id;
            loc.stores.push(StoreRecord {
                value: new,
                clock,
                release: is_release(success),
            });
            let idx = loc.stores.len() - 1;
            st.threads[tid].seen.insert(addr, idx);
            st.push_trace(
                tid,
                format!("a{loc_id}.compare_exchange {old} -> {new} (ok)"),
                caller,
            );
            Ok(old)
        } else {
            if is_acquire(failure) && was_release {
                st.threads[tid].clock.join(&old_clock);
            }
            let loc = Self::location_entry(&mut st, addr, init);
            let loc_id = loc.id;
            let idx = loc.stores.len() - 1;
            st.threads[tid].seen.insert(addr, idx);
            st.push_trace(
                tid,
                format!("a{loc_id}.compare_exchange expected {expect}, found {old} (err)"),
                caller,
            );
            Err(old)
        };
        self.check_step_budget(&mut st);
        Some(result)
    }

    pub(crate) fn fence(self: &Arc<Self>, tid: usize, ord: Ordering, caller: &Location<'_>) {
        let Some(mut st) = self.arrive(tid) else {
            return;
        };
        st.push_trace(
            tid,
            format!("fence({ord:?}) [no ordering modelled]"),
            caller,
        );
        self.check_step_budget(&mut st);
    }

    // ---- lock operations -----------------------------------------------

    /// Acquire loop shared by mutex lock / rwlock read / rwlock write.
    /// Returns `false` when the session is tearing down (bypass mode).
    pub(crate) fn lock_acquire(
        self: &Arc<Self>,
        tid: usize,
        addr: usize,
        kind: LockKindPub,
        write: bool,
        caller: &Location<'_>,
    ) -> bool {
        let kind = match kind {
            LockKindPub::Mutex => LockKind::Mutex,
            LockKindPub::RwLock => LockKind::RwLock,
        };
        loop {
            let Some(mut st) = self.arrive(tid) else {
                return false;
            };
            let next_id = st.next_lock_id;
            let (lock_id, free, release_clock) = {
                let lock = st.locks.entry(addr).or_insert_with(|| LockState {
                    id: next_id,
                    kind,
                    writer: None,
                    readers: Vec::new(),
                    release_clock: VClock::default(),
                });
                let free = if write {
                    lock.writer.is_none() && lock.readers.is_empty()
                } else {
                    lock.writer.is_none()
                };
                if free {
                    if write {
                        lock.writer = Some(tid);
                    } else {
                        lock.readers.push(tid);
                    }
                }
                (lock.id, free, lock.release_clock)
            };
            if lock_id == next_id {
                st.next_lock_id += 1;
            }
            if free {
                st.threads[tid].clock.join(&release_clock);
                let verb = match (kind, write) {
                    (LockKind::Mutex, _) => "lock",
                    (LockKind::RwLock, true) => "write",
                    (LockKind::RwLock, false) => "read",
                };
                st.push_trace(tid, format!("L{lock_id}.{verb}() acquired"), caller);
                self.check_step_budget(&mut st);
                return true;
            }
            st.threads[tid].status = Status::Blocked(BlockedOn::Lock(addr, write));
            st.token = None;
            self.decide(&mut st);
            // Loop: arrive() parks until a release makes us runnable and a
            // decision grants us; then we retry the acquisition.
        }
    }

    pub(crate) fn lock_release(
        self: &Arc<Self>,
        tid: usize,
        addr: usize,
        write: bool,
        caller: &Location<'_>,
    ) {
        let Some(mut st) = self.arrive(tid) else {
            return;
        };
        st.threads[tid].clock.tick(tid);
        let clock = st.threads[tid].clock;
        let Some(lock) = st.locks.get_mut(&addr) else {
            return;
        };
        let lock_id = lock.id;
        if write {
            lock.writer = None;
        } else {
            lock.readers.retain(|&r| r != tid);
        }
        // Conservative: reader release also joins the release clock, so
        // reader→writer (and reader→reader) edges always exist. This only
        // adds ordering — it can hide no stale read the real lock permits
        // on the data it protects.
        lock.release_clock.join(&clock);
        for t in st.threads.iter_mut() {
            if t.status == Status::Blocked(BlockedOn::Lock(addr, true))
                || t.status == Status::Blocked(BlockedOn::Lock(addr, false))
            {
                t.status = Status::Runnable;
            }
        }
        st.push_trace(
            tid,
            format!(
                "L{lock_id}.release({})",
                if write { "write" } else { "read" }
            ),
            caller,
        );
        self.check_step_budget(&mut st);
    }

    // ---- thread operations ---------------------------------------------

    pub(crate) fn register_child(self: &Arc<Self>, tid: usize, caller: &Location<'_>) -> usize {
        let mut st = self
            .arrive(tid)
            .expect("spawn during teardown is not supported");
        assert!(
            st.threads.len() < MAX_THREADS,
            "aib-model supports at most {MAX_THREADS} threads per execution"
        );
        st.threads[tid].clock.tick(tid);
        let mut child_clock = st.threads[tid].clock;
        let child = st.threads.len();
        child_clock.tick(child);
        st.threads.push(ThreadState::new(child_clock));
        st.push_trace(tid, format!("spawn -> t{child}"), caller);
        self.check_step_budget(&mut st);
        child
    }

    pub(crate) fn adopt_handle(&self, handle: std::thread::JoinHandle<()>) {
        unpoison(self.handles.lock()).push(handle);
    }

    /// Parks until `target` finishes, then joins its clock (join edge).
    pub(crate) fn join_thread(self: &Arc<Self>, tid: usize, target: usize, caller: &Location<'_>) {
        loop {
            let Some(mut st) = self.arrive(tid) else {
                return;
            };
            if st.threads[target].status == Status::Finished {
                let target_clock = st.threads[target].clock;
                st.threads[tid].clock.join(&target_clock);
                st.push_trace(tid, format!("join(t{target})"), caller);
                self.check_step_budget(&mut st);
                return;
            }
            st.threads[tid].status = Status::Blocked(BlockedOn::Join(target));
            st.token = None;
            self.decide(&mut st);
        }
    }

    pub(crate) fn record_thread_panic(&self, tid: usize, payload: Box<dyn std::any::Any + Send>) {
        if payload.downcast_ref::<AbortExecution>().is_some() {
            return;
        }
        let message = panic_message(payload.as_ref());
        let mut st = unpoison(self.state.lock());
        st.record_failure(format!("t{tid} panicked: {message}"));
        self.cv.notify_all();
    }

    pub(crate) fn finish_thread(&self, tid: usize) {
        let mut st = unpoison(self.state.lock());
        st.threads[tid].status = Status::Finished;
        // A thread that finished without ever arriving may still carry an
        // unconsumed grant; clear it so it cannot be mistaken for an
        // outstanding scheduling duty.
        st.threads[tid].granted = false;
        for t in st.threads.iter_mut() {
            if t.status == Status::Blocked(BlockedOn::Join(tid)) {
                t.status = Status::Runnable;
            }
        }
        if st.failure.is_some() {
            self.cv.notify_all();
            return;
        }
        // Only decide if the scheduling duty actually falls to us:
        // either we hold the token, or nobody does and no grant is
        // outstanding (we finished without performing a single sync op and
        // the scheduler granted us the step we never took). Deciding while
        // another grant is live would let two threads run at once and
        // destroy replay determinism.
        let outstanding = st.threads.iter().any(|t| t.granted);
        if st.token == Some(tid) {
            st.token = None;
            self.decide(&mut st);
        } else if st.token.is_none() && !outstanding {
            self.decide(&mut st);
        } else {
            self.cv.notify_all();
        }
    }
}

/// Public lock-kind tag for the sync shim (the runtime's own enum stays
/// private).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum LockKindPub {
    Mutex,
    RwLock,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A concurrency model: configure bounds, then [`check`](Model::check) a
/// closure that spawns [`crate::thread`] threads and exercises
/// [`crate::sync`] primitives.
#[derive(Clone, Debug)]
pub struct Model {
    name: String,
    max_preemptions: usize,
    max_executions: usize,
    max_steps: usize,
    replay: Option<String>,
}

impl Model {
    /// A model named `name` (the name is printed in violation reports)
    /// with default bounds: 3 preemptions, 200 000 executions, 20 000
    /// steps per execution.
    pub fn new(name: impl Into<String>) -> Self {
        Model {
            name: name.into(),
            max_preemptions: 3,
            max_executions: 200_000,
            max_steps: 20_000,
            replay: None,
        }
    }

    /// Pins the exploration to exactly one schedule (a string from a
    /// previous violation report). Takes precedence over the
    /// `AIB_MODEL_SCHEDULE` environment variable.
    #[must_use]
    pub fn replay_schedule(mut self, schedule: impl Into<String>) -> Self {
        self.replay = Some(schedule.into());
        self
    }

    /// Caps context switches away from a still-runnable thread per
    /// execution. Two preemptions catch most real protocol bugs; the
    /// schedule space grows combinatorially with this bound.
    pub fn max_preemptions(mut self, n: usize) -> Self {
        self.max_preemptions = n;
        self
    }

    /// Caps the number of schedules explored.
    pub fn max_executions(mut self, n: usize) -> Self {
        self.max_executions = n;
        self
    }

    /// Runs the DFS and panics with a replayable report on the first
    /// violation (assertion failure inside the model, deadlock, or step
    /// budget blow-up).
    ///
    /// Set `AIB_MODEL_SCHEDULE` to a schedule string from a previous
    /// report to replay exactly that execution.
    ///
    /// # Panics
    /// When a violation is found — that is the reporting channel.
    pub fn check<F>(self, f: F)
    where
        F: Fn(),
    {
        let name = self.name.clone();
        let report = self.check_report(f);
        if let Some(v) = &report.violation {
            let trace = v.trace.join("\n");
            panic!(
                "aib-model violation in `{name}` (execution {n} of this run):\n\
                 {msg}\n\
                 schedule trace:\n{trace}\n\
                 replay: AIB_MODEL_SCHEDULE=\"{sched}\"",
                n = report.executions,
                msg = v.message,
                sched = v.schedule,
            );
        }
    }

    /// Like [`check`](Model::check) but returns the [`Report`] instead of
    /// panicking — the entry point for the checker's own tests, which
    /// assert that violations *are* found.
    pub fn check_report<F>(self, f: F) -> Report
    where
        F: Fn(),
    {
        let replay = self
            .replay
            .clone()
            .or_else(|| std::env::var("AIB_MODEL_SCHEDULE").ok())
            .filter(|s| !s.is_empty());
        let mut schedule: Vec<Decision> = match &replay {
            Some(s) => parse_schedule(s),
            None => Vec::new(),
        };
        let mut executions = 0;
        loop {
            executions += 1;
            let (failure, final_schedule) = self.run_one(&f, schedule);
            if failure.is_some() {
                return Report {
                    executions,
                    complete: false,
                    violation: failure,
                };
            }
            if replay.is_some() {
                return Report {
                    executions,
                    complete: false,
                    violation: None,
                };
            }
            if executions >= self.max_executions {
                return Report {
                    executions,
                    complete: false,
                    violation: None,
                };
            }
            match next_schedule(final_schedule) {
                Some(next) => schedule = next,
                None => {
                    return Report {
                        executions,
                        complete: true,
                        violation: None,
                    }
                }
            }
        }
    }

    fn run_one<F>(&self, f: &F, schedule: Vec<Decision>) -> (Option<Violation>, Vec<Decision>)
    where
        F: Fn(),
    {
        let session = Arc::new(Session::new(schedule, self.max_preemptions, self.max_steps));
        set_current(Some((Arc::clone(&session), 0)));
        let outcome = catch_unwind(AssertUnwindSafe(f));
        if let Err(payload) = outcome {
            session.record_thread_panic(0, payload);
        }
        session.finish_thread(0);
        {
            let mut st = unpoison(session.state.lock());
            while !st.all_finished() {
                st = unpoison(session.cv.wait(st));
            }
        }
        set_current(None);
        let handles = std::mem::take(&mut *unpoison(session.handles.lock()));
        for h in handles {
            // Child panics were already caught inside the child wrapper.
            let _ = h.join();
        }
        let mut st = unpoison(session.state.lock());
        (st.failure.take(), std::mem::take(&mut st.schedule))
    }
}

/// DFS backtracking: promote the deepest decision with unexplored
/// alternatives, discarding everything after it.
fn next_schedule(mut schedule: Vec<Decision>) -> Option<Vec<Decision>> {
    loop {
        let last = schedule.last_mut()?;
        let (chosen, alternatives) = match last {
            Decision::Thread {
                chosen,
                alternatives,
            } => (chosen, alternatives),
            Decision::Value {
                chosen,
                alternatives,
            } => (chosen, alternatives),
        };
        match alternatives.pop() {
            Some(next) => {
                *chosen = next;
                return Some(schedule);
            }
            None => {
                schedule.pop();
            }
        }
    }
}

fn parse_schedule(s: &str) -> Vec<Decision> {
    s.split(',')
        .filter(|tok| !tok.is_empty())
        .map(|tok| {
            let (kind, num) = tok.split_at(1);
            let n: usize = num
                .parse()
                .unwrap_or_else(|_| panic!("bad AIB_MODEL_SCHEDULE token `{tok}`"));
            match kind {
                "t" => Decision::Thread {
                    chosen: n,
                    alternatives: Vec::new(),
                },
                "v" => Decision::Value {
                    chosen: n,
                    alternatives: Vec::new(),
                },
                _ => panic!("bad AIB_MODEL_SCHEDULE token `{tok}`"),
            }
        })
        .collect()
}
