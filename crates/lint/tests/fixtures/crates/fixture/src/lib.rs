//! Self-test fixture: one seeded violation per rule family.
//!
//! This file is never compiled — it lives under `tests/fixtures/` purely so
//! the lint self-test can point `aib-lint` at this directory and assert that
//! every rule family fires. The crate root deliberately OMITS
//! `#![forbid(unsafe_code)]` and `#![deny(missing_docs)]` (crate-hygiene).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub struct Database {
    pool: Mutex<u32>,
    space: Mutex<u32>,
    catalog: Mutex<u32>,
    queue: Mutex<u32>,
    counter: AtomicUsize,
}

impl Database {
    // database-result: `&mut self` pub fn that does not return EngineResult.
    pub fn mutate_without_result(&mut self, counters: &mut PageCounters) -> usize {
        // counter-confinement: PageCounters mutated outside aib-core.
        counters.increment(3);
        // atomics-order: Relaxed outside the telemetry allowlist.
        self.counter.load(Ordering::Relaxed)
    }

    pub fn wrong_lock_order(&mut self) -> EngineResult<u32> {
        // lock-order: pool lock taken before the space lock (the pool is the
        // innermost tier of catalog → space → pool).
        let pool = self.pool.lock();
        let space = self.space.lock();
        let a = *space.map_err(|_| EngineError)?;
        let b = *pool.map_err(|_| EngineError)?;
        Ok(a + b)
    }

    pub fn catalog_not_outermost(&mut self) -> EngineResult<u32> {
        // lock-order: catalog lock taken after the space lock.
        let space = self.space.lock();
        let catalog = self.catalog.lock();
        let a = *space.map_err(|_| EngineError)?;
        let b = *catalog.map_err(|_| EngineError)?;
        Ok(a + b)
    }

    pub fn tiered_lock_after_queue(&mut self) -> EngineResult<u32> {
        // lock-order: a queue-class mutex (adaptation/commit queue) is a
        // leaf of the hierarchy — the space lock must never be acquired
        // while one is held.
        let queue = self.queue.lock();
        let space = self.space.lock();
        let a = *queue.map_err(|_| EngineError)?;
        let b = *space.map_err(|_| EngineError)?;
        Ok(a + b)
    }

    pub fn right_lock_order(&mut self) -> EngineResult<u32> {
        // Clean: catalog outermost, then the space, pool innermost.
        let catalog = self.catalog.lock();
        let space = self.space.lock();
        let pool = self.pool.lock();
        let a = *catalog.map_err(|_| EngineError)?;
        let b = *space.map_err(|_| EngineError)?;
        let c = *pool.map_err(|_| EngineError)?;
        Ok(a + b + c)
    }
}

pub fn library_code(items: &[u32], maybe: Option<u32>) -> u32 {
    // no-index: panicking slice indexing.
    let first = items[0];
    // no-panic: unwrap in library code.
    let v = maybe.unwrap();
    first + v
}

pub struct PageCounters;
impl PageCounters {
    pub fn increment(&mut self, _page: u32) {}
}

pub struct EngineError;
pub type EngineResult<T> = Result<T, EngineError>;
