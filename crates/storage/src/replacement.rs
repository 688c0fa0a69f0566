//! Buffer-pool frame displacement: least recently used.
//!
//! The paper's "database buffer" needs one replacement rule, so the pool
//! holds an [`LruPolicy`] directly, with no trait in between. (The Index
//! Buffer Space's benefit-weighted victim selection — Algorithm 2 — is a
//! different rule over different state and lives in `aib-core::space`; the
//! LRU-K access history the paper cites for benefit accounting is
//! [`crate::lruk::AccessHistory`].)

use std::collections::{BTreeMap, HashMap};

/// Frame index within the buffer pool.
pub type FrameId = usize;

/// Least-recently-used displacement over buffer-pool frame ids.
///
/// The pool calls [`record_access`](LruPolicy::record_access) on every use
/// and [`displace`](LruPolicy::displace) when it needs room; `displace`
/// skips ids for which `blocked` returns true and forgets the id it returns
/// (the pool re-registers it on the next access).
#[derive(Debug, Default)]
pub struct LruPolicy {
    clock: u64,
    stamp_of: HashMap<FrameId, u64>,
    by_stamp: BTreeMap<u64, FrameId>,
}

impl LruPolicy {
    /// Creates an empty LRU policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Notes that `id` was just accessed.
    pub fn record_access(&mut self, id: FrameId) {
        if let Some(old) = self.stamp_of.remove(&id) {
            self.by_stamp.remove(&old);
        }
        self.clock += 1;
        self.stamp_of.insert(id, self.clock);
        self.by_stamp.insert(self.clock, id);
    }

    /// Picks the least recently used unblocked id and removes it from the
    /// bookkeeping, or returns `None` if every tracked id is blocked.
    pub fn displace(&mut self, blocked: &dyn Fn(FrameId) -> bool) -> Option<FrameId> {
        let victim = self
            .by_stamp
            .iter()
            .map(|(&stamp, &id)| (stamp, id))
            .find(|&(_, id)| !blocked(id));
        let (stamp, id) = victim?;
        self.by_stamp.remove(&stamp);
        self.stamp_of.remove(&id);
        Some(id)
    }

    /// Forgets `id` entirely (frame freed outside displacement).
    pub fn remove(&mut self, id: FrameId) {
        if let Some(stamp) = self.stamp_of.remove(&id) {
            self.by_stamp.remove(&stamp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn none_blocked(_: FrameId) -> bool {
        false
    }

    #[test]
    fn lru_displaces_least_recent() {
        let mut p = LruPolicy::new();
        p.record_access(0);
        p.record_access(1);
        p.record_access(2);
        p.record_access(0); // refresh 0
        assert_eq!(p.displace(&none_blocked), Some(1));
        assert_eq!(p.displace(&none_blocked), Some(2));
        assert_eq!(p.displace(&none_blocked), Some(0));
        assert_eq!(p.displace(&none_blocked), None);
    }

    #[test]
    fn lru_skips_blocked() {
        let mut p = LruPolicy::new();
        p.record_access(0);
        p.record_access(1);
        assert_eq!(p.displace(&|f| f == 0), Some(1));
        assert_eq!(p.displace(&|f| f == 0), None);
    }

    #[test]
    fn lru_remove_forgets() {
        let mut p = LruPolicy::new();
        p.record_access(0);
        p.record_access(1);
        p.remove(0);
        assert_eq!(p.displace(&none_blocked), Some(1));
        assert_eq!(p.displace(&none_blocked), None);
    }
}
