//! Self-tests for the model runtime: correct models pass, and each
//! violation class (stale read, lost update, deadlock, plain assertion)
//! is detected with a replayable schedule.
//!
//! These run in the normal (no `cfg(aib_model)`) build — the runtime's own
//! types are always instrumented; the cfg only switches what the
//! *production* crates' shim points at.

use std::sync::Arc;

use aib_model::sync::{AtomicU64, Mutex, Ordering, RwLock};
use aib_model::{thread, Model};

/// Message-passing via Release store / Acquire load: the flag carries the
/// data write, so the reader can never see `flag == 1` with stale data.
#[test]
fn release_acquire_message_passing_passes() {
    let report = Model::new("mp-release-acquire").check_report(|| {
        let data = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicU64::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(1, Ordering::Release);
        });
        if flag.load(Ordering::Acquire) == 1 {
            assert_eq!(data.load(Ordering::Relaxed), 42, "stale data behind flag");
        }
        t.join();
    });
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(
        report.complete,
        "exploration should exhaust this tiny model"
    );
}

/// The same protocol with the Release publish demoted to Relaxed: the
/// reader may now observe the flag without the data write — the model's
/// memory model must find that interleaving.
#[test]
fn relaxed_publish_stale_read_detected() {
    let report = Model::new("mp-relaxed-publish").check_report(|| {
        let data = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicU64::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(1, Ordering::Relaxed); // WRONG: demoted Release
        });
        if flag.load(Ordering::Acquire) == 1 {
            assert_eq!(data.load(Ordering::Relaxed), 42, "stale data behind flag");
        }
        t.join();
    });
    let v = report.violation.expect("stale read must be detected");
    assert!(
        v.message.contains("stale data behind flag"),
        "{}",
        v.message
    );
    assert!(!v.schedule.is_empty(), "violation must carry a schedule");
}

/// Check-then-act increment (load; add; store) loses updates under
/// interleaving; the atomic RMW version does not.
#[test]
fn lost_update_detected_and_rmw_passes() {
    let racy = Model::new("lost-update-racy").check_report(|| {
        let n = Arc::new(AtomicU64::new(0));
        let n2 = Arc::clone(&n);
        let t = thread::spawn(move || {
            let v = n2.load(Ordering::Acquire); // WRONG: check-then-act
            n2.store(v + 1, Ordering::Release);
        });
        let v = n.load(Ordering::Acquire);
        n.store(v + 1, Ordering::Release);
        t.join();
        assert_eq!(n.load(Ordering::Acquire), 2, "lost update");
    });
    let v = racy.violation.expect("lost update must be detected");
    assert!(v.message.contains("lost update"), "{}", v.message);

    let sound = Model::new("lost-update-rmw").check_report(|| {
        let n = Arc::new(AtomicU64::new(0));
        let n2 = Arc::clone(&n);
        let t = thread::spawn(move || {
            n2.fetch_add(1, Ordering::AcqRel);
        });
        n.fetch_add(1, Ordering::AcqRel);
        t.join();
        assert_eq!(n.load(Ordering::Acquire), 2, "lost update");
    });
    assert!(sound.violation.is_none(), "{:?}", sound.violation);
}

/// ABBA lock acquisition deadlocks; the wait-for analysis must name both
/// blocked threads.
#[test]
fn abba_deadlock_detected() {
    let report = Model::new("abba-deadlock").check_report(|| {
        let a = Arc::new(Mutex::new(0u64));
        let b = Arc::new(Mutex::new(0u64));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t = thread::spawn(move || {
            let _b = b2.lock();
            let _a = a2.lock(); // WRONG: reversed order
        });
        let _a = a.lock();
        let _b = b.lock();
        t.join();
    });
    let v = report.violation.expect("ABBA deadlock must be detected");
    assert!(v.message.contains("deadlock"), "{}", v.message);
    assert!(v.message.contains("t0"), "{}", v.message);
    assert!(v.message.contains("t1"), "{}", v.message);
}

/// Consistent lock ordering on the same two locks passes.
#[test]
fn ordered_locks_pass() {
    let report = Model::new("ordered-locks").check_report(|| {
        let a = Arc::new(Mutex::new(0u64));
        let b = Arc::new(Mutex::new(0u64));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t = thread::spawn(move || {
            let mut ga = a2.lock();
            let mut gb = b2.lock();
            *ga += 1;
            *gb += 1;
        });
        {
            let mut ga = a.lock();
            let mut gb = b.lock();
            *ga += 1;
            *gb += 1;
        }
        t.join();
        assert_eq!(*a.lock(), 2);
        assert_eq!(*b.lock(), 2);
    });
    assert!(report.violation.is_none(), "{:?}", report.violation);
}

/// RwLock: two concurrent readers plus a writer keep the invariant that a
/// reader never sees a half-applied write (both halves are updated under
/// one write guard).
#[test]
fn rwlock_reader_writer_passes() {
    let report = Model::new("rwlock-halves").check_report(|| {
        let pair = Arc::new(RwLock::new((0u64, 0u64)));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let mut g = p2.write();
            g.0 += 1;
            g.1 += 1;
        });
        {
            let g = pair.read();
            assert_eq!(g.0, g.1, "torn write visible to reader");
        }
        t.join();
        let g = pair.read();
        assert_eq!((g.0, g.1), (1, 1));
    });
    assert!(report.violation.is_none(), "{:?}", report.violation);
}

/// A violation report replays: running the model again with
/// `AIB_MODEL_SCHEDULE` pinned to the reported schedule reproduces the
/// same violation in exactly one execution.
#[test]
fn reported_schedule_replays() {
    let model = |replay: Option<String>| {
        let mut m = Model::new("replay-demo").max_preemptions(2);
        if let Some(s) = replay {
            m = m.replay_schedule(s);
        }
        m.check_report(|| {
            let data = Arc::new(AtomicU64::new(0));
            let flag = Arc::new(AtomicU64::new(0));
            let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
            let t = thread::spawn(move || {
                d2.store(7, Ordering::Relaxed);
                f2.store(1, Ordering::Relaxed); // WRONG on purpose
            });
            if flag.load(Ordering::Acquire) == 1 {
                assert_eq!(data.load(Ordering::Relaxed), 7, "stale read");
            }
            t.join();
        })
    };
    let first = model(None).violation.expect("bug must be found");
    let replayed = model(Some(first.schedule.clone()));
    assert_eq!(replayed.executions, 1, "replay must be a single execution");
    let v = replayed
        .violation
        .expect("replay must reproduce the violation");
    assert_eq!(v.schedule, first.schedule);
}

/// `Model::check` panics with the replayable report markers the harness
/// greps for.
#[test]
fn check_panics_with_replay_markers() {
    let outcome = std::panic::catch_unwind(|| {
        Model::new("marker-demo").check(|| {
            let a = Arc::new(Mutex::new(0u64));
            let b = Arc::new(Mutex::new(0u64));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t = thread::spawn(move || {
                let _b = b2.lock();
                let _a = a2.lock();
            });
            let _a = a.lock();
            let _b = b.lock();
            t.join();
        });
    });
    let payload = outcome.expect_err("check must panic on violation");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .expect("panic payload is the report string");
    assert!(msg.contains("aib-model violation"), "{msg}");
    assert!(msg.contains("AIB_MODEL_SCHEDULE"), "{msg}");
    assert!(msg.contains("schedule trace"), "{msg}");
}

/// The distilled WAL skeleton passes in its correct form (the seeded
/// variants are exercised by the harness under `cfg(model_seeded_bug)`).
#[test]
fn wal_skeleton_passes() {
    use aib_model::protocols::WalModel;
    let report = Model::new("wal-write-ahead").check_report(|| {
        let wal = Arc::new(WalModel::new());
        let w2 = Arc::clone(&wal);
        let t = thread::spawn(move || {
            w2.commit();
            w2.commit();
        });
        let (logged, applied) = wal.checkpoint();
        assert!(
            logged >= applied,
            "write-ahead violated: applied {applied} > logged {logged}"
        );
        t.join();
        let (logged, applied) = wal.checkpoint();
        assert_eq!((logged, applied), (2, 2));
    });
    assert!(report.violation.is_none(), "{:?}", report.violation);
}
