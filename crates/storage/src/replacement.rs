//! Buffer-pool frame displacement: one recency list.
//!
//! The paper's "database buffer" needs one replacement rule, so the pool
//! holds an [`LruPolicy`] directly, with no trait in between. (The Index
//! Buffer Space's benefit-weighted victim selection — Algorithm 2 — is a
//! different rule over different state and lives in `aib-core::space`, next
//! to the LRU-K access history the paper cites for benefit accounting.)
//!
//! The list is intrusive: two link arrays indexed by frame id, so every
//! operation is a handful of array writes under the pool's state mutex — no
//! hashing, no tree rebalancing, no allocation after construction.

// aib-lint: allow-file(no-index) — `prev` and `next` are sized once at
// construction (`frames + 1`, the extra slot being the sentinel) and only
// indexed by the sentinel, by frame ids the caller got from the pool
// (`< frames`, asserted on entry) or by link values read out of the arrays
// themselves, which are only ever written with such ids.

/// Frame index within the buffer pool.
pub type FrameId = usize;

/// Link value of a frame that is not on the list.
const UNLINKED: u32 = u32::MAX;

/// Least-recently-used displacement over buffer-pool frame ids.
///
/// One doubly linked list ordered cold → hot. The pool calls
/// [`record_access`](LruPolicy::record_access) on every ordinary use (hot
/// end), [`admit_cold`](LruPolicy::admit_cold) for a page it expects to need
/// only once (cold end), and [`displace`](LruPolicy::displace) when it needs
/// room; `displace` skips ids for which `blocked` returns true and takes the
/// id it returns off the list (the pool re-links it when it is reused).
#[derive(Debug)]
pub struct LruPolicy {
    /// `prev[id]`: the next colder neighbour of `id`; `prev[sentinel]`: the
    /// hottest frame.
    prev: Vec<u32>,
    /// `next[id]`: the next hotter neighbour of `id`, or [`UNLINKED`];
    /// `next[sentinel]`: the coldest frame.
    next: Vec<u32>,
}

impl LruPolicy {
    /// Creates an empty list over frame ids `0..frames`.
    ///
    /// # Panics
    /// If `frames` does not fit the 32-bit links.
    pub fn new(frames: usize) -> Self {
        assert!(
            u32::try_from(frames).is_ok_and(|f| f < UNLINKED),
            "frame ids must fit the list's 32-bit links"
        );
        let mut list = LruPolicy {
            prev: vec![UNLINKED; frames + 1],
            next: vec![UNLINKED; frames + 1],
        };
        let sentinel = list.sentinel();
        list.prev[sentinel] = sentinel as u32;
        list.next[sentinel] = sentinel as u32;
        list
    }

    fn sentinel(&self) -> usize {
        self.next.len() - 1
    }

    /// Takes `id` off the list if it is on it (displacement does this for its
    /// victim; the pool calls it for a frame it frees some other way).
    pub fn remove(&mut self, id: FrameId) {
        assert!(id < self.sentinel(), "frame id out of range");
        let (before, after) = (self.prev[id], self.next[id]);
        if after == UNLINKED {
            return;
        }
        self.next[before as usize] = after;
        self.prev[after as usize] = before;
        self.next[id] = UNLINKED;
    }

    /// Puts the unlinked `id` between the neighbours `before` and `after`.
    fn link(&mut self, id: FrameId, before: usize, after: usize) {
        self.prev[id] = before as u32;
        self.next[id] = after as u32;
        self.next[before] = id as u32;
        self.prev[after] = id as u32;
    }

    /// Notes that `id` was just accessed: it becomes the hottest frame.
    pub fn record_access(&mut self, id: FrameId) {
        self.remove(id);
        let sentinel = self.sentinel();
        self.link(id, self.prev[sentinel] as usize, sentinel);
    }

    /// Puts `id` at the cold end: the next unblocked victim. Used for the
    /// misses of a sweep too large for the pool to keep, so the sweep
    /// displaces its own previous pages instead of everyone else's.
    pub fn admit_cold(&mut self, id: FrameId) {
        self.remove(id);
        let sentinel = self.sentinel();
        self.link(id, sentinel, self.next[sentinel] as usize);
    }

    /// Picks the coldest unblocked id and takes it off the list, or returns
    /// `None` if every listed id is blocked.
    pub fn displace(&mut self, blocked: impl Fn(FrameId) -> bool) -> Option<FrameId> {
        let sentinel = self.sentinel();
        let mut id = self.next[sentinel] as usize;
        while id != sentinel {
            if !blocked(id) {
                self.remove(id);
                return Some(id);
            }
            id = self.next[id] as usize;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn none_blocked(_: FrameId) -> bool {
        false
    }

    #[test]
    fn lru_displaces_least_recent() {
        let mut p = LruPolicy::new(3);
        p.record_access(0);
        p.record_access(1);
        p.record_access(2);
        p.record_access(0); // refresh 0
        assert_eq!(p.displace(none_blocked), Some(1));
        assert_eq!(p.displace(none_blocked), Some(2));
        assert_eq!(p.displace(none_blocked), Some(0));
        assert_eq!(p.displace(none_blocked), None);
    }

    #[test]
    fn lru_skips_blocked() {
        let mut p = LruPolicy::new(2);
        p.record_access(0);
        p.record_access(1);
        assert_eq!(p.displace(|f| f == 0), Some(1));
        assert_eq!(p.displace(|f| f == 0), None);
    }

    #[test]
    fn lru_remove_forgets() {
        let mut p = LruPolicy::new(2);
        p.record_access(0);
        p.record_access(1);
        p.remove(0);
        p.remove(0); // not on the list any more: a no-op
        assert_eq!(p.displace(none_blocked), Some(1));
        assert_eq!(p.displace(none_blocked), None);
    }

    #[test]
    fn cold_admission_is_the_next_victim() {
        let mut p = LruPolicy::new(4);
        p.record_access(0);
        p.record_access(1);
        p.admit_cold(2);
        p.admit_cold(3); // colder still
        p.admit_cold(1); // a listed frame moves
        assert_eq!(p.displace(none_blocked), Some(1));
        assert_eq!(p.displace(none_blocked), Some(3));
        assert_eq!(p.displace(none_blocked), Some(2));
        assert_eq!(p.displace(none_blocked), Some(0));
    }

    #[derive(Debug, Clone)]
    enum Op {
        Access(usize),
        Cold(usize),
        Remove(usize),
        /// Displace with the frames whose bit is set blocked.
        Displace(u16),
    }

    const FRAMES: usize = 12;

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (0..FRAMES).prop_map(Op::Access),
            2 => (0..FRAMES).prop_map(Op::Cold),
            1 => (0..FRAMES).prop_map(Op::Remove),
            3 => any::<u16>().prop_map(Op::Displace),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The list against the obvious model — a `Vec` ordered cold → hot:
        /// same victims, and at the end the same order.
        #[test]
        fn list_matches_a_naive_vec_lru(ops in prop::collection::vec(op(), 0..200)) {
            let mut list = LruPolicy::new(FRAMES);
            let mut model: Vec<usize> = Vec::new();
            for op in ops {
                match op {
                    Op::Access(id) => {
                        list.record_access(id);
                        model.retain(|&f| f != id);
                        model.push(id);
                    }
                    Op::Cold(id) => {
                        list.admit_cold(id);
                        model.retain(|&f| f != id);
                        model.insert(0, id);
                    }
                    Op::Remove(id) => {
                        list.remove(id);
                        model.retain(|&f| f != id);
                    }
                    Op::Displace(mask) => {
                        let blocked = |f: usize| mask & (1 << f) != 0;
                        let expected = model.iter().position(|&f| !blocked(f)).map(|at| model.remove(at));
                        prop_assert_eq!(list.displace(blocked), expected);
                    }
                }
            }
            let drained: Vec<usize> = std::iter::from_fn(|| list.displace(none_blocked)).collect();
            prop_assert_eq!(drained, model);
        }
    }
}
