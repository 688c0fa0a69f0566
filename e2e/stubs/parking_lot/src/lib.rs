//! Offline stand-in for the part of `parking_lot` 0.12 that the engine
//! crates use: `Mutex` (`lock`, `try_lock`, `get_mut`, `into_inner`) and
//! `RwLock` (`read`, `write`, `read_arc`, `write_arc`, `get_mut`,
//! `into_inner`, write-guard `downgrade`), none of them poisoning.
//!
//! The container has no registry, so `e2e/Cargo.toml` patches
//! `parking_lot` to this crate. `Mutex` wraps `std::sync::Mutex` (a futex
//! on Linux). `RwLock` is a small writer-preferring lock of its own,
//! because the buffer pool needs `Arc`-owning guards and an atomic
//! write-to-read downgrade, which `std::sync::RwLock` guards cannot give
//! without borrowing the lock. Every number the benchmark reports is
//! measured over these locks, on both sides of any comparison.

use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, PoisonError};

// ------------------------------------------------------------------ Mutex

/// A mutual-exclusion lock that does not poison.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// The guard of a [`Mutex`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// A new unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning its data.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes the lock if it is free.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(guard) => Some(guard),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// The data, through exclusive access to the mutex itself.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("Mutex").field("data", &&*guard).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

// -------------------------------------------------------------- RawRwLock

const WRITER: usize = 1;
const WRITER_WAITING: usize = 2;
const READER: usize = 4;

/// Attempts that spin on the atomic before a thread parks.
const SPINS: u32 = 64;

/// The lock word of an [`RwLock`]: bit 0 = a writer holds it, bit 1 = a
/// writer is waiting (new readers hold back, so writers do not starve),
/// the remaining bits count readers. Contended threads park on a condvar.
pub struct RawRwLock {
    state: AtomicUsize,
    parked: AtomicUsize,
    gate: std::sync::Mutex<()>,
    wake: Condvar,
}

impl RawRwLock {
    const fn new() -> Self {
        RawRwLock {
            state: AtomicUsize::new(0),
            parked: AtomicUsize::new(0),
            gate: std::sync::Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    fn try_lock_shared(&self) -> bool {
        let mut state = self.state.load(SeqCst);
        while state & (WRITER | WRITER_WAITING) == 0 {
            match self
                .state
                .compare_exchange_weak(state, state + READER, SeqCst, SeqCst)
            {
                Ok(_) => return true,
                Err(current) => state = current,
            }
        }
        false
    }

    /// Succeeds when no reader and no writer holds the lock. Clears the
    /// waiting bit: a writer still waiting sets it again on its next try.
    fn try_lock_exclusive(&self) -> bool {
        let mut state = self.state.load(SeqCst);
        while state & !WRITER_WAITING == 0 {
            match self
                .state
                .compare_exchange_weak(state, WRITER, SeqCst, SeqCst)
            {
                Ok(_) => return true,
                Err(current) => state = current,
            }
        }
        false
    }

    fn lock_shared(&self) {
        self.acquire(|| self.try_lock_shared());
    }

    fn lock_exclusive(&self) {
        if self.try_lock_exclusive() {
            return;
        }
        self.acquire(|| {
            self.state.fetch_or(WRITER_WAITING, SeqCst);
            self.try_lock_exclusive()
        });
    }

    /// Spins briefly, then parks until `attempt` succeeds.
    ///
    /// No wake-up is lost: a parker counts itself in `parked` *before* its
    /// attempt and holds `gate` from then until it waits, and an unlocker
    /// changes `state` *before* it reads `parked` (all `SeqCst`). So either
    /// the unlocker sees the parker and notifies after taking `gate` (which
    /// it gets only once the parker waits), or the parker's attempt sees
    /// the unlocked state.
    fn acquire(&self, attempt: impl Fn() -> bool) {
        for spin in 0..SPINS {
            if attempt() {
                return;
            }
            if spin < SPINS / 2 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        let mut gate = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        self.parked.fetch_add(1, SeqCst);
        while !attempt() {
            gate = self.wake.wait(gate).unwrap_or_else(PoisonError::into_inner);
        }
        self.parked.fetch_sub(1, SeqCst);
    }

    fn notify(&self) {
        if self.parked.load(SeqCst) != 0 {
            drop(self.gate.lock().unwrap_or_else(PoisonError::into_inner));
            self.wake.notify_all();
        }
    }

    fn unlock_shared(&self) {
        let before = self.state.fetch_sub(READER, SeqCst);
        if before & !WRITER_WAITING == READER {
            self.notify();
        }
    }

    fn unlock_exclusive(&self) {
        self.state.fetch_and(!WRITER, SeqCst);
        self.notify();
    }

    /// Turns the held write lock into a read lock with no unlocked instant.
    fn downgrade(&self) {
        self.state.fetch_add(READER - WRITER, SeqCst);
        self.notify();
    }
}

// ----------------------------------------------------------------- RwLock

/// A reader-writer lock that does not poison and prefers waiting writers.
pub struct RwLock<T: ?Sized> {
    raw: RawRwLock,
    data: UnsafeCell<T>,
}

// SAFETY: the lock hands out `&T` to any number of threads at once (needs
// `T: Sync`) and `&mut T` to one thread that may differ from the creating
// thread (needs `T: Send`) — the same bounds as `std::sync::RwLock`.
unsafe impl<T: ?Sized + Send> Send for RwLock<T> {}
// SAFETY: as above.
unsafe impl<T: ?Sized + Send + Sync> Sync for RwLock<T> {}

impl<T> RwLock<T> {
    /// A new unlocked lock.
    pub const fn new(value: T) -> Self {
        RwLock {
            raw: RawRwLock::new(),
            data: UnsafeCell::new(value),
        }
    }

    /// Consumes the lock, returning its data.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Blocks until a shared lock is held.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.raw.lock_shared();
        RwLockReadGuard {
            lock: self,
            not_send: PhantomData,
        }
    }

    /// Blocks until the exclusive lock is held.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.raw.lock_exclusive();
        RwLockWriteGuard {
            lock: self,
            not_send: PhantomData,
        }
    }

    /// The data, through exclusive access to the lock itself.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// Like [`RwLock::read`], with a guard that owns a clone of the `Arc`.
    pub fn read_arc(self: &Arc<Self>) -> ArcRwLockReadGuard<RawRwLock, T> {
        self.raw.lock_shared();
        ArcRwLockReadGuard {
            lock: Arc::clone(self),
            marker: PhantomData,
        }
    }

    /// Like [`RwLock::write`], with a guard that owns a clone of the `Arc`.
    pub fn write_arc(self: &Arc<Self>) -> ArcRwLockWriteGuard<RawRwLock, T> {
        self.raw.lock_exclusive();
        ArcRwLockWriteGuard {
            lock: Arc::clone(self),
            marker: PhantomData,
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.raw.try_lock_shared() {
            // SAFETY: a shared lock is held until `unlock_shared` below, so
            // no writer can hold `&mut T` meanwhile.
            let result = f
                .debug_struct("RwLock")
                .field("data", &unsafe { &*self.data.get() })
                .finish();
            self.raw.unlock_shared();
            result
        } else {
            f.write_str("RwLock { <locked> }")
        }
    }
}

/// Shared guard of an [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    not_send: PhantomData<*const ()>,
}

/// Exclusive guard of an [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    not_send: PhantomData<*const ()>,
}

// SAFETY: sharing a guard shares `&T` (read guard) or `&T` through `&&mut`
// (write guard); both need only `T: Sync`. The guards stay `!Send`, as in
// parking_lot without its `send_guard` feature.
unsafe impl<T: ?Sized + Sync> Sync for RwLockReadGuard<'_, T> {}
// SAFETY: as above.
unsafe impl<T: ?Sized + Sync> Sync for RwLockWriteGuard<'_, T> {}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: this guard holds a shared lock for its whole lifetime.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.raw.unlock_shared();
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: this guard holds the exclusive lock for its whole lifetime.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: this guard holds the exclusive lock for its whole
        // lifetime, and `&mut self` makes this the only reference from it.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.raw.unlock_exclusive();
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

// ------------------------------------------------------------- Arc guards

/// Shared guard that keeps its [`RwLock`] alive through an `Arc`.
pub struct ArcRwLockReadGuard<R, T: ?Sized> {
    lock: Arc<RwLock<T>>,
    marker: PhantomData<(R, *const ())>,
}

/// Exclusive guard that keeps its [`RwLock`] alive through an `Arc`.
pub struct ArcRwLockWriteGuard<R, T: ?Sized> {
    lock: Arc<RwLock<T>>,
    marker: PhantomData<(R, *const ())>,
}

// SAFETY: as for the borrowing guards — sharing a guard shares `&T`.
unsafe impl<R, T: ?Sized + Send + Sync> Sync for ArcRwLockReadGuard<R, T> {}
// SAFETY: as above.
unsafe impl<R, T: ?Sized + Send + Sync> Sync for ArcRwLockWriteGuard<R, T> {}

impl<R, T: ?Sized> ArcRwLockWriteGuard<R, T> {
    /// Atomically turns the write lock into a read lock.
    pub fn downgrade(guard: Self) -> ArcRwLockReadGuard<R, T> {
        guard.lock.raw.downgrade();
        // The lock is now held shared on behalf of the new guard, so the
        // old guard must not run its exclusive unlock.
        let guard = std::mem::ManuallyDrop::new(guard);
        // SAFETY: `guard` is never dropped or touched again, so its `Arc`
        // is moved out exactly once.
        let lock = unsafe { std::ptr::read(&guard.lock) };
        ArcRwLockReadGuard {
            lock,
            marker: PhantomData,
        }
    }
}

impl<R, T: ?Sized> Deref for ArcRwLockReadGuard<R, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: this guard holds a shared lock for its whole lifetime.
        unsafe { &*self.lock.data.get() }
    }
}

impl<R, T: ?Sized> Drop for ArcRwLockReadGuard<R, T> {
    fn drop(&mut self) {
        self.lock.raw.unlock_shared();
    }
}

impl<R, T: ?Sized> Deref for ArcRwLockWriteGuard<R, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: this guard holds the exclusive lock for its whole lifetime.
        unsafe { &*self.lock.data.get() }
    }
}

impl<R, T: ?Sized> DerefMut for ArcRwLockWriteGuard<R, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: this guard holds the exclusive lock for its whole
        // lifetime, and `&mut self` makes this the only reference from it.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<R, T: ?Sized> Drop for ArcRwLockWriteGuard<R, T> {
    fn drop(&mut self) {
        self.lock.raw.unlock_exclusive();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn mutex_excludes_and_try_lock_reports_contention() {
        let m = Mutex::new(0u32);
        let guard = m.lock();
        assert!(m.try_lock().is_none());
        drop(guard);
        *m.try_lock().expect("free") += 1;
        assert_eq!(m.into_inner(), 1);
    }

    #[test]
    fn writers_and_readers_never_overlap() {
        let lock = Arc::new(RwLock::new((0u64, 0u64)));
        let start = Barrier::new(4);
        std::thread::scope(|s| {
            for writer in [true, true, false, false] {
                let (lock, start) = (&lock, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..20_000 {
                        if writer {
                            let mut g = lock.write();
                            g.0 += 1;
                            g.1 += 1;
                        } else {
                            let g = lock.read();
                            assert_eq!(g.0, g.1, "reader saw a half-done write");
                        }
                    }
                });
            }
        });
        assert_eq!(*lock.read(), (40_000, 40_000));
    }

    #[test]
    fn downgrade_keeps_the_lock_and_the_arc_count() {
        let lock = Arc::new(RwLock::new(5u32));
        let mut w = lock.write_arc();
        *w = 6;
        let r = ArcRwLockWriteGuard::downgrade(w);
        assert_eq!(*r, 6);
        assert_eq!(Arc::strong_count(&lock), 2);
        assert!(!lock.raw.try_lock_exclusive(), "still held shared");
        let r2 = lock.read_arc();
        assert_eq!(*r2, 6);
        drop((r, r2));
        assert_eq!(Arc::strong_count(&lock), 1);
        assert!(lock.raw.try_lock_exclusive());
    }
}
