//! Per-client handles over a shared [`Database`].
//!
//! The engine is multi-client: [`Database`] takes `&self` everywhere, so
//! any number of threads can execute queries and DML against one instance
//! behind an [`Arc`]. [`ClientHandle`] is the wrapper for that pattern —
//! one clone per client thread, each forwarding to the shared engine:
//!
//! ```
//! use aib_engine::{ClientHandle, Database, Query};
//! use aib_storage::{Column, Schema, Tuple, Value};
//!
//! let db = Database::with_defaults().into_shared();
//! db.create_table("t", Schema::new(vec![Column::int("k")])).unwrap();
//! for i in 0..64i64 {
//!     db.insert("t", &Tuple::new(vec![Value::Int(i)])).unwrap();
//! }
//!
//! let handles: Vec<_> = (0..4).map(|_| ClientHandle::new(db.clone())).collect();
//! std::thread::scope(|s| {
//!     for client in &handles {
//!         s.spawn(move || {
//!             let out = client.execute(&Query::on("t", "k").eq(7i64)).unwrap();
//!             assert_eq!(out.result.count(), 1);
//!         });
//!     }
//! });
//! ```

use std::sync::Arc;

use aib_core::sync::Mutex;
use aib_core::SnapshotCache;
use aib_storage::{Rid, Tuple};

use crate::db::{BatchOp, Database};
use crate::error::EngineResult;
use crate::explain::Explanation;
use crate::query::{ExecOutcome, Query};

/// A clonable client connection to a shared [`Database`].
///
/// Beyond forwarding, each handle owns a private [`SnapshotCache`]: the
/// validated space snapshot plus locally deferred Table II events that make
/// runs of fully-skippable queries lock-free. The cache is client-private
/// state — cloning a handle gives the new client a fresh, empty cache — and
/// it flushes its deferred events into the shared space when the handle
/// drops.
#[derive(Debug)]
pub struct ClientHandle {
    db: Arc<Database>,
    cache: Mutex<SnapshotCache>,
}

impl Clone for ClientHandle {
    fn clone(&self) -> Self {
        ClientHandle {
            db: Arc::clone(&self.db),
            cache: Mutex::new(SnapshotCache::new()),
        }
    }
}

impl Drop for ClientHandle {
    fn drop(&mut self) {
        // Publish any still-deferred Table II events; the next write-side
        // entry into the space drains them.
        self.cache.get_mut().flush();
    }
}

impl ClientHandle {
    /// A new client over the shared database.
    pub fn new(db: Arc<Database>) -> Self {
        ClientHandle {
            db,
            cache: Mutex::new(SnapshotCache::new()),
        }
    }

    /// The underlying database, for calls this wrapper does not forward
    /// (DDL, inspection).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Executes a query through this client's snapshot cache. See
    /// [`Database::execute`].
    pub fn execute(&self, query: &Query) -> EngineResult<ExecOutcome> {
        self.db.run_query(query, &mut self.cache.lock())
    }

    /// Explains a query without executing it. See [`Database::explain`].
    pub fn explain(&self, query: &Query) -> EngineResult<Explanation> {
        self.db.explain(query)
    }

    /// Inserts a tuple. See [`Database::insert`].
    pub fn insert(&self, table: &str, tuple: &Tuple) -> EngineResult<Rid> {
        self.cache.lock().flush();
        self.db.insert(table, tuple)
    }

    /// Deletes a tuple. See [`Database::delete`].
    pub fn delete(&self, table: &str, rid: Rid) -> EngineResult<()> {
        self.cache.lock().flush();
        self.db.delete(table, rid)
    }

    /// Updates a tuple. See [`Database::update`].
    pub fn update(&self, table: &str, rid: Rid, tuple: &Tuple) -> EngineResult<Rid> {
        self.cache.lock().flush();
        self.db.update(table, rid, tuple)
    }

    /// Applies a batch of DML operations under one lock acquisition and
    /// one commit-pipeline ticket — a single client's way to amortize the
    /// covering fsync. See [`Database::execute_batch`].
    pub fn execute_batch(&self, ops: &[BatchOp]) -> EngineResult<Vec<Option<Rid>>> {
        self.cache.lock().flush();
        self.db.execute_batch(ops)
    }

    /// Fetches a tuple by rid. See [`Database::fetch`].
    pub fn fetch(&self, table: &str, rid: Rid) -> EngineResult<Tuple> {
        self.db.fetch(table, rid)
    }
}
